//! Oracle-differential aggregate suite: every federated aggregate —
//! partial-pushdown or ship-rows fallback, healthy or faulted — must
//! return exactly what a single database holding every partition's
//! rows would return. The oracle is that single database; answers are
//! compared bit-for-bit (`Vec<Value>` equality), not approximately.

use easia_core::Archive;
use easia_db::{Database, Value};
use easia_med::{BreakerState, Federation, PartialPolicy, Partition, SiteSource};
use easia_net::{FaultSchedule, SimNet};
use proptest::prelude::*;

/// The shared catalog table: an INTEGER and a DOUBLE column that both
/// carry NULLs, plus a DATALINK column with NULL links (so COUNT(col)
/// vs COUNT(*) differ on every site).
const DDL: &str = "CREATE TABLE SIMULATION (\
     SIMULATION_KEY VARCHAR(40) PRIMARY KEY, \
     SITE VARCHAR(20), \
     TOPIC VARCHAR(20), \
     GRID_SIZE INTEGER, \
     VISCOSITY DOUBLE, \
     RESULT_FILE DATALINK LINKTYPE URL NO FILE LINK CONTROL)";

/// `Sheared` exists only at the hub, so remote sites ship no partial
/// state for that group and the merge must cope with absent groups.
const TOPICS: [&str; 4] = ["Decaying", "Forced", "Rotating", "Sheared"];

/// Deterministic row `i` of `site` (position `site_no` in the site
/// list). GRID_SIZE is NULL every 5th row, VISCOSITY every 7th,
/// RESULT_FILE every 3rd; VISCOSITY is a dyadic rational (k/64) so
/// SUM/AVG are exact in f64 regardless of addition order.
fn sim_row(site: &str, site_no: usize, i: usize) -> Vec<Value> {
    let topic = if site_no == 0 && i.is_multiple_of(8) {
        "Sheared"
    } else {
        TOPICS[(i + site_no) % 3]
    };
    let grid = if i % 5 == 4 {
        Value::Null
    } else {
        Value::Int(64 + ((i * 37 + site_no * 11) % 100) as i64)
    };
    let visc = if i % 7 == 6 {
        Value::Null
    } else {
        Value::Double(((i * 53 + site_no * 29) % 64) as f64 / 64.0)
    };
    let link = if i % 3 == 2 {
        Value::Null
    } else {
        Value::Datalink(format!("http://fs1.example/{site}/run{i:04}.dat"))
    };
    vec![
        Value::Str(format!("{site}-{i:04}")),
        Value::Str(site.to_string()),
        Value::Str(topic.to_string()),
        grid,
        visc,
        link,
    ]
}

/// A single database holding the listed partitions' rows, inserted
/// site-grouped (hub partition first) to match the gather order.
fn oracle_db(parts: &[(&str, usize)], rows_per_site: usize) -> Database {
    let mut db = Database::new_in_memory();
    db.execute(DDL).unwrap();
    for (site, site_no) in parts {
        for i in 0..rows_per_site {
            db.insert_row("SIMULATION", sim_row(site, *site_no, i))
                .unwrap();
        }
    }
    db
}

/// A hub (`soton`) plus the given foreign sites, each holding
/// `rows_per_site` rows of SIMULATION partitioned on SITE — and the
/// matching single-database oracle.
fn agg_archive(foreign: &[&str], rows_per_site: usize) -> (Archive, Database) {
    let mut b = Archive::builder();
    for site in foreign {
        b = b.federated_site(site, easia_core::paper_link_spec());
    }
    let mut a = b.build();
    a.db.execute(DDL).unwrap();
    for i in 0..rows_per_site {
        a.db.insert_row("SIMULATION", sim_row("soton", 0, i))
            .unwrap();
    }
    let mut partitions = vec![Partition::new(None, &["soton"])];
    let mut parts = vec![("soton", 0usize)];
    for (idx, site) in foreign.iter().enumerate() {
        let s = a.federation.site(site).unwrap();
        let mut db = s.db.borrow_mut();
        db.execute(DDL).unwrap();
        for i in 0..rows_per_site {
            db.insert_row("SIMULATION", sim_row(site, idx + 1, i))
                .unwrap();
        }
        drop(db);
        partitions.push(Partition::new(Some(site), &[site]));
        parts.push((site, idx + 1));
    }
    a.federation
        .catalog
        .import_foreign_table(&a.db, "SIMULATION", Some("SITE"), partitions)
        .unwrap();
    a.federation.analyze(&a.db).unwrap();
    (a, oracle_db(&parts, rows_per_site))
}

/// Run `sql` both ways and require bit-identical columns and rows,
/// plus the expected pushdown mode in the EXPLAIN agg section.
/// Returns the explain report for further inspection.
fn assert_matches_oracle(
    a: &mut Archive,
    oracle: &mut Database,
    sql: &str,
    partial: bool,
) -> easia_med::FedExplain {
    let out = a.federated_query(sql, &[]).unwrap();
    let want = oracle.execute(sql).unwrap();
    assert_eq!(out.rs.columns, want.columns, "columns for {sql}");
    assert_eq!(out.rs.rows, want.rows, "rows for {sql}");
    let agg = out
        .explain
        .agg
        .as_ref()
        .unwrap_or_else(|| panic!("no agg section for {sql}"));
    assert_eq!(agg.partial, partial, "pushdown mode for {sql}");
    if partial {
        assert_eq!(agg.fallback, None, "unexpected fallback for {sql}");
    }
    out.explain
}

/// Every aggregate function crossed with every statement shape the
/// planner decomposes: global and grouped, NULL-bearing columns,
/// HAVING cuts (including aggregates absent from the select list),
/// ORDER BY an aggregate with a LIMIT, empty groups, all-NULL inputs,
/// and the hub-only `Sheared` group no remote site has.
const MATRIX: [&str; 14] = [
    "SELECT COUNT(*) FROM SIMULATION",
    "SELECT COUNT(GRID_SIZE), COUNT(VISCOSITY), COUNT(RESULT_FILE) FROM SIMULATION",
    "SELECT SUM(GRID_SIZE), MIN(GRID_SIZE), MAX(GRID_SIZE), AVG(GRID_SIZE) FROM SIMULATION",
    "SELECT SUM(VISCOSITY), MIN(VISCOSITY), MAX(VISCOSITY), AVG(VISCOSITY) FROM SIMULATION",
    "SELECT TOPIC, COUNT(*), COUNT(GRID_SIZE), SUM(GRID_SIZE), MIN(GRID_SIZE), \
     MAX(GRID_SIZE), AVG(GRID_SIZE) FROM SIMULATION GROUP BY TOPIC ORDER BY TOPIC",
    "SELECT TOPIC, SUM(VISCOSITY), AVG(VISCOSITY), MIN(VISCOSITY), MAX(VISCOSITY) \
     FROM SIMULATION GROUP BY TOPIC ORDER BY TOPIC",
    "SELECT SITE, COUNT(*), SUM(GRID_SIZE) FROM SIMULATION \
     WHERE GRID_SIZE >= 80 GROUP BY SITE ORDER BY SITE",
    "SELECT TOPIC, COUNT(*) FROM SIMULATION GROUP BY TOPIC \
     HAVING COUNT(*) > 5 ORDER BY TOPIC",
    "SELECT TOPIC, MAX(GRID_SIZE) FROM SIMULATION GROUP BY TOPIC \
     HAVING AVG(GRID_SIZE) > 100 ORDER BY TOPIC",
    "SELECT TOPIC, SUM(GRID_SIZE) FROM SIMULATION GROUP BY TOPIC \
     ORDER BY SUM(GRID_SIZE) DESC, TOPIC LIMIT 2",
    "SELECT TOPIC, COUNT(*) FROM SIMULATION WHERE GRID_SIZE > 100000 \
     GROUP BY TOPIC ORDER BY TOPIC",
    "SELECT COUNT(*), COUNT(GRID_SIZE), SUM(GRID_SIZE), MIN(GRID_SIZE), AVG(VISCOSITY) \
     FROM SIMULATION WHERE GRID_SIZE > 100000",
    "SELECT COUNT(*), COUNT(GRID_SIZE), SUM(GRID_SIZE), AVG(GRID_SIZE) \
     FROM SIMULATION WHERE GRID_SIZE IS NULL",
    "SELECT SITE, COUNT(RESULT_FILE), COUNT(*) FROM SIMULATION GROUP BY SITE ORDER BY SITE",
];

#[test]
fn every_aggregate_shape_matches_the_oracle_on_three_sites() {
    let (mut a, mut oracle) = agg_archive(&["cam", "edin"], 30);
    for sql in MATRIX {
        assert_matches_oracle(&mut a, &mut oracle, sql, true);
    }
    // Every statement went through the pushdown, and both remotes
    // shipped partial states — visible on /metrics.
    assert_eq!(
        a.obs.metrics.value(
            "easia_med_partial_agg_queries_total",
            &[("table", "SIMULATION")]
        ),
        Some(MATRIX.len() as f64)
    );
    for site in ["cam", "edin"] {
        let shipped = a
            .obs
            .metrics
            .value(
                "easia_med_partial_agg_groups_shipped_total",
                &[("site", site)],
            )
            .unwrap();
        assert!(shipped > 0.0, "{site} shipped partial states");
    }
}

#[test]
fn every_aggregate_shape_matches_the_oracle_on_one_remote_site() {
    let (mut a, mut oracle) = agg_archive(&["cam"], 30);
    for sql in MATRIX {
        assert_matches_oracle(&mut a, &mut oracle, sql, true);
    }
}

#[test]
fn grouped_aggregate_without_order_by_matches_as_a_multiset() {
    let (mut a, mut oracle) = agg_archive(&["cam", "edin"], 24);
    let sql = "SELECT TOPIC, COUNT(*), SUM(GRID_SIZE) FROM SIMULATION GROUP BY TOPIC";
    let out = a.federated_query(sql, &[]).unwrap();
    let want = oracle.execute(sql).unwrap();
    assert!(out.explain.agg.as_ref().unwrap().partial);
    assert_eq!(canon(&out.rs.rows), canon(&want.rows));
}

#[test]
fn pruned_aggregate_only_ships_states_from_the_named_partition() {
    let (mut a, mut oracle) = agg_archive(&["cam", "edin"], 20);
    let sql = "SELECT COUNT(*), SUM(GRID_SIZE) FROM SIMULATION WHERE SITE = 'edin'";
    let explain = assert_matches_oracle(&mut a, &mut oracle, sql, true);
    let cam = explain.sites.iter().find(|s| s.site == "cam").unwrap();
    assert!(cam.pruned, "cam's partition is pruned by the SITE filter");
    assert_eq!(cam.rows_shipped, 0);
    let edin = explain.sites.iter().find(|s| s.site == "edin").unwrap();
    assert_eq!(edin.rows_shipped, 1, "one global partial state row");
}

#[test]
fn aggregate_with_parameter_matches_the_oracle() {
    let (mut a, mut oracle) = agg_archive(&["cam", "edin"], 25);
    let sql = "SELECT TOPIC, COUNT(*), AVG(GRID_SIZE) FROM SIMULATION \
               WHERE GRID_SIZE >= ? GROUP BY TOPIC ORDER BY TOPIC";
    let params = vec![Value::Int(90)];
    let out = a.federated_query(sql, &params).unwrap();
    let want = oracle.execute_with_params(sql, &params).unwrap();
    assert_eq!(out.rs.rows, want.rows);
    assert!(out.explain.agg.unwrap().partial);
}

/// The planner's documented bail-outs: each pinned case must ship raw
/// rows (annotated with its reason) and still match the oracle.
#[test]
fn fallback_cases_ship_rows_and_still_match_the_oracle() {
    let (mut a, mut oracle) = agg_archive(&["cam", "edin"], 24);

    // SELECT DISTINCT with aggregates.
    let sql = "SELECT DISTINCT TOPIC, COUNT(*) FROM SIMULATION GROUP BY TOPIC ORDER BY TOPIC";
    let ex = assert_matches_oracle(&mut a, &mut oracle, sql, false);
    assert_eq!(ex.agg.unwrap().fallback.as_deref(), Some("distinct"));

    // An expression (not a bare column) inside the aggregate call.
    let sql = "SELECT SUM(GRID_SIZE + 0) FROM SIMULATION";
    let ex = assert_matches_oracle(&mut a, &mut oracle, sql, false);
    assert_eq!(ex.agg.unwrap().fallback.as_deref(), Some("expr-arg"));

    // A conjunct only the hub can evaluate (scalar functions are not
    // part of the wire grammar): aggregating site-side would aggregate
    // the wrong row set.
    let sql = "SELECT COUNT(*), MAX(GRID_SIZE) FROM SIMULATION WHERE UPPER(TOPIC) = 'FORCED'";
    let ex = assert_matches_oracle(&mut a, &mut oracle, sql, false);
    assert_eq!(ex.agg.unwrap().fallback.as_deref(), Some("hub-conjunct"));

    // A computed GROUP BY key (group order is first-seen, so compare
    // as a multiset).
    let sql = "SELECT COUNT(*) FROM SIMULATION GROUP BY LENGTH(TOPIC)";
    let out = a.federated_query(sql, &[]).unwrap();
    let want = oracle.execute(sql).unwrap();
    assert_eq!(canon(&out.rs.rows), canon(&want.rows));
    assert_eq!(
        out.explain.agg.unwrap().fallback.as_deref(),
        Some("group-expr")
    );

    // A select-list column outside both GROUP BY and any aggregate
    // reads per-row state partial states no longer carry. (Its value
    // is first-row-of-group, which depends on scan order — assert the
    // reason and shape, not bitwise equality.)
    let sql = "SELECT TOPIC, SITE, COUNT(*) FROM SIMULATION GROUP BY TOPIC ORDER BY TOPIC";
    let out = a.federated_query(sql, &[]).unwrap();
    let want = oracle.execute(sql).unwrap();
    assert_eq!(out.rs.rows.len(), want.rows.len());
    assert_eq!(
        out.explain.agg.unwrap().fallback.as_deref(),
        Some("non-group-column")
    );

    // Every bail-out is visible on /metrics under its reason label.
    for reason in [
        "distinct",
        "expr-arg",
        "hub-conjunct",
        "group-expr",
        "non-group-column",
    ] {
        assert_eq!(
            a.obs.metrics.value(
                "easia_med_partial_agg_fallbacks_total",
                &[("reason", reason)]
            ),
            Some(1.0),
            "fallback counter for {reason}"
        );
    }
}

#[test]
fn disabling_pushdown_falls_back_with_identical_answers() {
    let (mut a, mut oracle) = agg_archive(&["cam", "edin"], 24);
    a.federation.partial_agg = false;
    for sql in MATRIX {
        let ex = assert_matches_oracle(&mut a, &mut oracle, sql, false);
        assert_eq!(ex.agg.unwrap().fallback.as_deref(), Some("disabled"));
    }
    // No statement took the pushdown path, so the per-table pushdown
    // counter was never touched.
    let pushed = a
        .obs
        .metrics
        .value(
            "easia_med_partial_agg_queries_total",
            &[("table", "SIMULATION")],
        )
        .unwrap_or(0.0);
    assert_eq!(pushed, 0.0, "no statement took the pushdown path");
}

#[test]
fn wildcard_with_group_by_errors_on_both_paths() {
    let (mut a, mut oracle) = agg_archive(&["cam"], 6);
    let sql = "SELECT * FROM SIMULATION GROUP BY TOPIC";
    assert!(oracle.execute(sql).is_err());
    assert!(a.federated_query(sql, &[]).is_err());
}

/// COUNT(link_col) vs COUNT(*): DATALINK values survive every path —
/// pushed partial states, and the ship-rows fallback that stages
/// remote DATALINKs as CLOBs at the hub — with NULL links still NULL,
/// so the counts differ by exactly the NULL links.
#[test]
fn count_of_datalink_column_is_exact_on_partial_and_staged_paths() {
    let rows = 30; // links NULL every 3rd row: 20 linked per site
    let (mut a, mut oracle) = agg_archive(&["cam", "edin"], rows);
    let sql = "SELECT SITE, COUNT(RESULT_FILE), COUNT(*) FROM SIMULATION \
               GROUP BY SITE ORDER BY SITE";
    assert_matches_oracle(&mut a, &mut oracle, sql, true);
    let out = a.federated_query(sql, &[]).unwrap();
    for row in &out.rs.rows {
        assert_eq!(row[1], Value::Int(20), "non-NULL links for {:?}", row[0]);
        assert_eq!(row[2], Value::Int(rows as i64));
    }
    // Same census through the staged-CLOB fallback path.
    a.federation.partial_agg = false;
    assert_matches_oracle(&mut a, &mut oracle, sql, false);
}

/// Replica-cache paths: a cache-filling scan ships raw rows (and the
/// hub re-derives the partial states from them), a fresh hit ships
/// nothing, and a stale Degraded serve after an outage still answers —
/// all three bit-identical to the oracle.
#[test]
fn aggregates_over_replica_cache_paths_match_the_oracle() {
    let (mut a, mut oracle) = agg_archive(&["cam", "edin"], 12);
    a.federation.enable_replica_cache(600.0, 10_000);
    let sql = "SELECT SITE, COUNT(*), COUNT(RESULT_FILE), SUM(GRID_SIZE) FROM SIMULATION \
               GROUP BY SITE ORDER BY SITE";

    let out = a.federated_query(sql, &[]).unwrap();
    assert_eq!(out.rs.rows, oracle.execute(sql).unwrap().rows);
    assert!(out.explain.agg.as_ref().unwrap().partial);
    assert!(out
        .explain
        .sites
        .iter()
        .any(|s| s.source == SiteSource::CacheFill));

    let out = a.federated_query(sql, &[]).unwrap();
    assert_eq!(out.rs.rows, oracle.execute(sql).unwrap().rows);
    let cam = out.explain.sites.iter().find(|s| s.site == "cam").unwrap();
    assert_eq!(cam.source, SiteSource::CacheFresh);
    assert_eq!(cam.rows_shipped, 0, "fresh hits ship nothing");

    // Kill cam: under DEGRADED the stale replica keeps the census
    // whole, partial states re-derived from the cached raw rows.
    a.federation.policy = PartialPolicy::Degraded;
    a.federation.site("cam").unwrap().crash();
    let out = a.federated_query(sql, &[]).unwrap();
    assert_eq!(out.rs.rows, oracle.execute(sql).unwrap().rows);
    assert!(out.explain.stale.iter().any(|s| s.site == "cam"));
}

// --- fault paths ---

/// Many-group statement whose per-site partial stream spans several
/// wire batches, so a crash can land mid-stream.
const STREAM_SQL: &str = "SELECT SIMULATION_KEY, COUNT(*), SUM(GRID_SIZE) FROM SIMULATION \
     GROUP BY SIMULATION_KEY ORDER BY SIMULATION_KEY";

#[test]
fn mid_stream_crash_during_partial_gather_resumes_and_matches_the_oracle() {
    let rows_per_site = 150;

    // Baseline: the undisturbed run's rows and duration.
    let (mut probe, mut oracle) = agg_archive(&["cam", "edin"], rows_per_site);
    probe.federation.batch_rows = 32;
    let baseline = probe.federated_query(STREAM_SQL, &[]).unwrap();
    let elapsed = probe.net.now();
    assert_eq!(baseline.rs.rows, oracle.execute(STREAM_SQL).unwrap().rows);
    assert!(elapsed > 0.05, "partial stream is long enough to interrupt");

    // Same archive, but cam's host dies halfway through the partial
    // stream and recovers 90 s later — inside the query deadline. The
    // retry ladder resumes the grouped scan from its batch cursor
    // (site streams are ORDER BY group key, so the cursor is stable)
    // and the merged answer is still exact.
    let (mut a, _) = agg_archive(&["cam", "edin"], rows_per_site);
    a.federation.batch_rows = 32;
    let cam_host = a.federation.site("cam").unwrap().host;
    let down_at = elapsed * 0.5;
    let mut faults = FaultSchedule::new();
    faults.host_crash(cam_host, down_at, down_at + 90.0);
    a.net.set_fault_schedule(faults);

    let out = a.federated_query(STREAM_SQL, &[]).unwrap();
    assert_eq!(out.rs.rows, baseline.rs.rows);
    assert!(out.explain.skipped.is_empty());
    assert!(out.explain.stale.is_empty());
    assert!(out.explain.agg.as_ref().unwrap().partial);
    let cam = out.explain.sites.iter().find(|s| s.site == "cam").unwrap();
    assert!(cam.retries >= 1, "cam was retried: {}", cam.retries);
    assert!(
        a.net.now() >= down_at + 90.0,
        "the retry waited out the crash"
    );
}

#[test]
fn partial_policy_merges_survivor_states_against_the_survivor_oracle() {
    let rows_per_site = 20;
    let (mut a, _) = agg_archive(&["cam", "edin"], rows_per_site);
    a.federation.policy = PartialPolicy::Partial;
    a.federation.site("cam").unwrap().crash();

    // The oracle for a PARTIAL answer is the single database holding
    // only the surviving partitions.
    let mut survivors = oracle_db(&[("soton", 0), ("edin", 2)], rows_per_site);
    let sql = "SELECT TOPIC, COUNT(*), SUM(GRID_SIZE), AVG(VISCOSITY) FROM SIMULATION \
               GROUP BY TOPIC ORDER BY TOPIC";
    let out = a.federated_query(sql, &[]).unwrap();
    assert_eq!(out.explain.skipped, vec!["cam".to_string()]);
    assert_eq!(out.rs.rows, survivors.execute(sql).unwrap().rows);
    assert!(out.explain.agg.unwrap().partial);
}

#[test]
fn mid_stream_crash_under_partial_policy_drops_the_dead_sites_states_whole() {
    let rows_per_site = 150;

    let (mut probe, _) = agg_archive(&["cam", "edin"], rows_per_site);
    probe.federation.batch_rows = 32;
    probe.federated_query(STREAM_SQL, &[]).unwrap();
    let elapsed = probe.net.now();

    // cam dies mid-stream and never recovers: whatever partial states
    // it shipped before dying must be discarded whole — a half-merged
    // group would silently undercount.
    let (mut a, _) = agg_archive(&["cam", "edin"], rows_per_site);
    a.federation.batch_rows = 32;
    a.federation.policy = PartialPolicy::Partial;
    let cam_host = a.federation.site("cam").unwrap().host;
    let mut faults = FaultSchedule::new();
    faults.host_crash(cam_host, elapsed * 0.5, elapsed * 0.5 + 7_200.0);
    a.net.set_fault_schedule(faults);

    let out = a.federated_query(STREAM_SQL, &[]).unwrap();
    assert_eq!(out.explain.skipped, vec!["cam".to_string()]);
    let mut survivors = oracle_db(&[("soton", 0), ("edin", 2)], rows_per_site);
    assert_eq!(out.rs.rows, survivors.execute(STREAM_SQL).unwrap().rows);
}

#[test]
fn deadline_expiry_cancels_partial_agg_streams_without_breaker_penalty() {
    let rows_per_site = 150;

    let (mut probe, _) = agg_archive(&["cam", "edin"], rows_per_site);
    probe.federation.batch_rows = 32;
    let t0 = probe.net.now();
    probe.federated_query(STREAM_SQL, &[]).unwrap();
    let full_stream = probe.net.now() - t0;

    // The deadline expires at 40% of the stream: both remote partial
    // streams are cancelled, the hub's own states still answer.
    let (mut a, _) = agg_archive(&["cam", "edin"], rows_per_site);
    a.federation.batch_rows = 32;
    a.federation.policy = PartialPolicy::Partial;
    a.federation.deadline_secs = full_stream * 0.4;
    let out = a.federated_query(STREAM_SQL, &[]).unwrap();
    assert_eq!(
        out.explain.skipped,
        vec!["cam".to_string(), "edin".to_string()]
    );
    let mut local = oracle_db(&[("soton", 0)], rows_per_site);
    assert_eq!(out.rs.rows, local.execute(STREAM_SQL).unwrap().rows);

    // Client-side cancellation is not the sites' fault: breakers stay
    // closed, and the cancellations are visible on /metrics.
    for site in ["cam", "edin"] {
        assert_eq!(
            a.federation.site(site).unwrap().breaker_state(),
            BreakerState::Closed,
            "{site} breaker must not trip on a client-side deadline"
        );
        assert_eq!(
            a.obs
                .metrics
                .value("easia_med_deadline_cancelled_total", &[("site", site)]),
            Some(1.0)
        );
    }
}

// --- property tests ---

/// Rows sorted into a canonical multiset representation.
fn canon(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

const SITES: [&str; 3] = ["soton", "cam", "edin"];

const T_DDL: &str = "CREATE TABLE T (\
     K VARCHAR(10) PRIMARY KEY, \
     SITE VARCHAR(10), \
     N INTEGER, \
     X DOUBLE)";

/// Build a hub + two foreign sites holding `inserts`, and the
/// single-database oracle, inserting site-grouped (hub first) so the
/// oracle's accumulation order matches the gather order.
#[allow(clippy::type_complexity)]
fn prop_rig(
    inserts: &[(usize, String)],
) -> (SimNet, easia_net::HostId, Database, Federation, Database) {
    let mut net = SimNet::new();
    let hub = net.add_host("hub", 4);
    let mut hub_db = Database::new_in_memory();
    hub_db.execute(T_DDL).unwrap();
    let mut fed = Federation::default();
    for site in &SITES[1..] {
        let h = net.add_host(site, 4);
        net.connect(h, hub, easia_core::paper_link_spec());
        let mut db = Database::new_in_memory();
        db.execute(T_DDL).unwrap();
        fed.add_site(site, h, db);
    }
    let mut oracle = Database::new_in_memory();
    oracle.execute(T_DDL).unwrap();
    for (want, site) in SITES.iter().enumerate() {
        for (site_idx, insert) in inserts {
            if *site_idx != want {
                continue;
            }
            oracle.execute(insert).unwrap();
            if *site == "soton" {
                hub_db.execute(insert).unwrap();
            } else {
                fed.site(site)
                    .unwrap()
                    .db
                    .borrow_mut()
                    .execute(insert)
                    .unwrap();
            }
        }
    }
    fed.catalog
        .import_foreign_table(
            &hub_db,
            "T",
            Some("SITE"),
            vec![
                Partition::new(None, &["soton"]),
                Partition::new(Some("cam"), &["cam"]),
                Partition::new(Some("edin"), &["edin"]),
            ],
        )
        .unwrap();
    (net, hub, hub_db, fed, oracle)
}

proptest! {
    /// Whatever rows land on whatever partitions — NULLs included —
    /// every aggregate shape merges to exactly the oracle's answer.
    /// X is a dyadic rational (k/256) so SUM/AVG are exact in f64 and
    /// the comparison can be bitwise.
    #[test]
    fn random_partitions_aggregate_like_the_oracle(
        rows in proptest::collection::vec(
            (0usize..3, (any::<bool>(), -50i64..50), (any::<bool>(), 0u16..256)),
            0..30,
        ),
        threshold in -50i64..50,
    ) {
        let inserts: Vec<(usize, String)> = rows
            .iter()
            .enumerate()
            .map(|(idx, (site_idx, n, x))| {
                let nlit = if n.0 {
                    n.1.to_string()
                } else {
                    "NULL".to_string()
                };
                let xlit = if x.0 {
                    format!("{:.8}", x.1 as f64 / 256.0)
                } else {
                    "NULL".to_string()
                };
                let site = SITES[*site_idx];
                (
                    *site_idx,
                    format!("INSERT INTO T VALUES ('k{idx:04}', '{site}', {nlit}, {xlit})"),
                )
            })
            .collect();
        let (mut net, hub, hub_db, fed, mut oracle) = prop_rig(&inserts);

        let queries: [(&str, Vec<Value>); 5] = [
            ("SELECT COUNT(*), COUNT(N), COUNT(X) FROM T", vec![]),
            ("SELECT SUM(N), MIN(N), MAX(N), AVG(N) FROM T", vec![]),
            (
                "SELECT SITE, COUNT(*), SUM(N), AVG(X) FROM T GROUP BY SITE ORDER BY SITE",
                vec![],
            ),
            (
                "SELECT SITE, MIN(X), MAX(X) FROM T GROUP BY SITE \
                 HAVING COUNT(*) >= 2 ORDER BY SITE",
                vec![],
            ),
            ("SELECT COUNT(*), SUM(N) FROM T WHERE N >= ?", vec![Value::Int(threshold)]),
        ];
        for (sql, params) in &queries {
            let out = fed.query(&mut net, hub, &hub_db, None, sql, params).unwrap();
            let want = oracle.execute_with_params(sql, params).unwrap();
            prop_assert_eq!(&out.rs.columns, &want.columns);
            prop_assert_eq!(&out.rs.rows, &want.rows);
            prop_assert!(out.explain.agg.unwrap().partial);
        }
    }

    /// i64 boundary sums: every addend is `m * 2^12` with `m` up to
    /// 2^50 (so each value, every per-site subtotal, and the grand
    /// total are exactly representable in f64), all sharing one sign
    /// (so overflow is monotone: a per-site or merge-time subtotal
    /// overflows i64 exactly when the oracle's running sum does). The
    /// merge must promote Int → Double at exactly the oracle's
    /// boundary and land on the identical Value.
    #[test]
    fn merge_time_overflow_promotes_exactly_like_the_oracle(
        rows in proptest::collection::vec(
            (0usize..3, (1i64 << 48)..(1i64 << 50)),
            1..8,
        ),
        negative in any::<bool>(),
    ) {
        let sign = if negative { -1 } else { 1 };
        let inserts: Vec<(usize, String)> = rows
            .iter()
            .enumerate()
            .map(|(idx, (site_idx, m))| {
                let n = sign * (m << 12);
                let site = SITES[*site_idx];
                (
                    *site_idx,
                    format!("INSERT INTO T VALUES ('k{idx:04}', '{site}', {n}, NULL)"),
                )
            })
            .collect();
        let (mut net, hub, hub_db, fed, mut oracle) = prop_rig(&inserts);

        for sql in [
            "SELECT SUM(N), AVG(N), COUNT(*) FROM T",
            "SELECT SITE, SUM(N), AVG(N) FROM T GROUP BY SITE ORDER BY SITE",
        ] {
            let out = fed.query(&mut net, hub, &hub_db, None, sql, &[]).unwrap();
            let want = oracle.execute(sql).unwrap();
            prop_assert_eq!(&out.rs.rows, &want.rows);
            prop_assert!(out.explain.agg.unwrap().partial);
        }
    }
}

/// Deterministic pin of the promotion boundary: four addends of 2^62
/// across three partitions sum past i64::MAX, so the merged SUM must
/// come back as the exactly-representable Double 2^64 — bit-identical
/// to the oracle's own demotion.
#[test]
fn sum_overflowing_i64_promotes_to_the_exact_double() {
    let v = 1i64 << 62;
    let inserts: Vec<(usize, String)> = [(0usize, v), (1, v), (1, v), (2, v)]
        .iter()
        .enumerate()
        .map(|(idx, (site_idx, n))| {
            let site = SITES[*site_idx];
            (
                *site_idx,
                format!("INSERT INTO T VALUES ('k{idx:04}', '{site}', {n}, NULL)"),
            )
        })
        .collect();
    let (mut net, hub, hub_db, fed, mut oracle) = prop_rig(&inserts);
    let sql = "SELECT SUM(N), COUNT(*) FROM T";
    let out = fed.query(&mut net, hub, &hub_db, None, sql, &[]).unwrap();
    let want = oracle.execute(sql).unwrap();
    assert_eq!(out.rs.rows, want.rows);
    let expect = (1u128 << 64) as f64;
    assert_eq!(out.rs.rows[0], vec![Value::Double(expect), Value::Int(4)]);
}
