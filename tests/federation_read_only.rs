//! Federated reads never write the hub.
//!
//! Every answer path of the hub merge — a ship-rows SELECT, a JOIN
//! with a semi-join leg, a partial aggregate, a statement that fails
//! inside the merge, and partial aggregates derived from replica-cache
//! copies — must leave the hub database exactly as it found it: same
//! write counter, same tables (so nothing is left behind on error),
//! same federation write fingerprint.
//! The fingerprint keys the speculative prefetch cache, so a read that
//! moved it would invalidate every other session's parked screens.

use easia_db::{Database, Value};
use easia_med::explain::JoinStrategy;
use easia_med::{FedError, Federation, Partition, QueryOutcome, SiteSource};
use easia_net::{HostId, LinkSpec, SimNet};

const SIM_DDL: &str = "CREATE TABLE SIM (\
     K VARCHAR(20) PRIMARY KEY, \
     SITE VARCHAR(10), \
     N INTEGER, \
     X DOUBLE)";
const RES_DDL: &str = "CREATE TABLE RES (\
     R VARCHAR(20) PRIMARY KEY, \
     K VARCHAR(20), \
     SITE VARCHAR(10), \
     BYTES INTEGER)";

/// One partition of SIM (`n` rows) and RES (a child row for every
/// even-numbered SIM row).
fn site_db(site: &str, n: i64) -> Database {
    let mut db = Database::new_in_memory();
    db.execute(SIM_DDL).unwrap();
    db.execute(RES_DDL).unwrap();
    for i in 0..n {
        db.execute(&format!(
            "INSERT INTO SIM VALUES ('{site}-{i}', '{site}', {i}, {}.5)",
            i * 2
        ))
        .unwrap();
        if i % 2 == 0 {
            db.execute(&format!(
                "INSERT INTO RES VALUES ('{site}-r{i}', '{site}-{i}', '{site}', {})",
                i * 10
            ))
            .unwrap();
        }
    }
    db
}

struct Rig {
    net: SimNet,
    hub: HostId,
    hub_db: Database,
    fed: Federation,
}

/// A hub holding the `soton` partitions plus two remote sites.
fn rig() -> Rig {
    let mut net = SimNet::new();
    let hub = net.add_host("hub", 4);
    let mut fed = Federation::default();
    for (site, n) in [("cam", 3), ("edin", 5)] {
        let host = net.add_host(site, 2);
        net.connect(hub, host, LinkSpec::symmetric(1_000_000.0, 0.01));
        fed.add_site(site, host, site_db(site, n));
    }
    let hub_db = site_db("soton", 4);
    for table in ["SIM", "RES"] {
        fed.catalog
            .import_foreign_table(
                &hub_db,
                table,
                Some("SITE"),
                vec![
                    Partition::new(None, &["soton"]),
                    Partition::new(Some("cam"), &["cam"]),
                    Partition::new(Some("edin"), &["edin"]),
                ],
            )
            .unwrap();
    }
    fed.analyze(&hub_db).unwrap();
    Rig {
        net,
        hub,
        hub_db,
        fed,
    }
}

/// What a read must leave untouched.
#[derive(Debug, PartialEq)]
struct HubState {
    write_counter: u64,
    tables: Vec<String>,
    fingerprint: u64,
}

fn hub_state(r: &Rig) -> HubState {
    HubState {
        write_counter: r.hub_db.write_counter(),
        tables: r.hub_db.table_names(),
        fingerprint: r.fed.write_fingerprint(&r.hub_db),
    }
}

/// Run `sql` and assert the hub is unchanged afterwards, success or not.
fn read(r: &mut Rig, sql: &str) -> Result<QueryOutcome, FedError> {
    let before = hub_state(r);
    let out = r.fed.query(&mut r.net, r.hub, &r.hub_db, None, sql, &[]);
    assert_eq!(hub_state(r), before, "{sql} changed the hub");
    out
}

#[test]
fn federated_reads_leave_the_hub_untouched() {
    let mut r = rig();

    // Ship-rows SELECT: every partition's rows merge at the hub.
    let out = read(&mut r, "SELECT K, N FROM SIM WHERE N >= 1 ORDER BY K").unwrap();
    assert_eq!(out.rs.rows.len(), 9);
    assert!(out.explain.rows_shipped() > 0);
    assert!(out.explain.agg.is_none());

    // Two-table JOIN whose RES leg is keyed by a semi-join.
    let out = read(
        &mut r,
        "SELECT S.K, R.R FROM SIM S JOIN RES R ON S.K = R.K WHERE S.N >= 1 ORDER BY R.R",
    )
    .unwrap();
    assert_eq!(out.rs.rows.len(), 4);
    assert!(
        matches!(
            out.explain.joins[1].strategy,
            JoinStrategy::SemiJoin { keys: Some(_), .. }
        ),
        "{:?}",
        out.explain.joins
    );

    // Partial aggregate: sites ship per-group states.
    let out = read(
        &mut r,
        "SELECT SITE, COUNT(*), SUM(N), AVG(X) FROM SIM GROUP BY SITE ORDER BY SITE",
    )
    .unwrap();
    assert!(out.explain.agg.as_ref().is_some_and(|a| a.partial));
    assert_eq!(
        out.rs.rows,
        vec![
            vec![
                Value::Str("cam".into()),
                Value::Int(3),
                Value::Int(3),
                Value::Double(2.5),
            ],
            vec![
                Value::Str("edin".into()),
                Value::Int(5),
                Value::Int(10),
                Value::Double(4.5),
            ],
            vec![
                Value::Str("soton".into()),
                Value::Int(4),
                Value::Int(6),
                Value::Double(3.5),
            ],
        ]
    );

    // A query that fails inside the merge (the hub evaluates the
    // unknown function after every site has shipped its rows).
    let err = read(&mut r, "SELECT NO_SUCH_FN(K) FROM SIM").unwrap_err();
    assert!(matches!(err, FedError::Db(_)), "{err}");

    // Replica-cache paths: the first run refills the cache with raw
    // partitions, the second is answered from it; both derive partial
    // states from the raw rows on the hub executor.
    r.fed.enable_replica_cache(600.0, 1_000);
    let sql = "SELECT SITE, COUNT(*), SUM(N) FROM SIM GROUP BY SITE ORDER BY SITE";
    let fill = read(&mut r, sql).unwrap();
    assert!(fill
        .explain
        .sites
        .iter()
        .any(|s| s.source == SiteSource::CacheFill));
    let hit = read(&mut r, sql).unwrap();
    assert!(hit
        .explain
        .sites
        .iter()
        .any(|s| s.source == SiteSource::CacheFresh));
    assert_eq!(hit.rs.rows, fill.rs.rows);
    assert_eq!(hit.explain.bytes_wire(), 0);
}
