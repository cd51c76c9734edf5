//! Federation properties: the row-batch wire codec round-trips every
//! value shape, damaged frames never decode, and — the big one — a
//! federated scatter-gather query always returns exactly what a single
//! database holding every partition's rows would return.

use easia_db::{Database, Value};
use easia_med::{
    decode_batch, encode_batch, AggCall, Federation, PartialAggSpec, Partition, ScanRequest,
};
use easia_net::{FaultSchedule, SimNet};
use proptest::prelude::*;

/// Map a generated `(tag, int, float, text)` tuple onto one [`Value`].
fn value_of(tag: u8, i: i64, f: f64, s: &str) -> Value {
    match tag % 9 {
        0 => Value::Null,
        1 => Value::Int(i),
        2 => Value::Double(f),
        3 => Value::Str(s.to_string()),
        4 => Value::Bool(i & 1 == 1),
        5 => Value::Timestamp(i),
        6 => Value::Blob(s.as_bytes().to_vec()),
        7 => Value::Clob(s.repeat(64)),
        _ => Value::Datalink(format!("http://fs1.example/data/{s}.dat")),
    }
}

const SITES: [&str; 3] = ["soton", "cam", "edin"];

const DDL: &str = "CREATE TABLE T (\
     K VARCHAR(10) PRIMARY KEY, \
     SITE VARCHAR(10), \
     N INTEGER, \
     X DOUBLE, \
     S VARCHAR(10))";

/// Rows sorted into a canonical multiset representation.
fn canon(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

proptest! {
    // --- wire codec ---

    #[test]
    fn row_batches_round_trip_on_the_wire(
        shape in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u8>(), any::<i64>(), -1.0e12..1.0e12, "[ -~]{0,60}"),
                0..6,
            ),
            0..5,
        ),
    ) {
        let mut rows: Vec<Vec<Value>> = shape
            .iter()
            .map(|r| r.iter().map(|(t, i, f, s)| value_of(*t, *i, *f, s)).collect())
            .collect();
        // Every case also carries the boundary row: extreme integers, a
        // NULL, and a string far larger than one batch's typical size.
        rows.push(vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Double(0.0),
            Value::Str("x".repeat(5_000)),
            Value::Null,
        ]);
        let buf = encode_batch(&rows, 5, 99);
        let batch = decode_batch(&buf).unwrap();
        prop_assert_eq!(batch.seq, 5);
        prop_assert_eq!(batch.write_counter, 99);
        prop_assert_eq!(batch.rows, rows);
    }

    #[test]
    fn damaged_batch_frames_never_decode(
        shape in proptest::collection::vec(
            (any::<u8>(), any::<i64>(), -1.0e6..1.0e6, "[a-z]{0,20}"),
            0..8,
        ),
        cut in any::<usize>(),
        flip in any::<u8>(),
        seq in any::<u32>(),
        wc in any::<u64>(),
    ) {
        let rows: Vec<Vec<Value>> = shape
            .iter()
            .map(|(t, i, f, s)| vec![value_of(*t, *i, *f, s)])
            .collect();
        let buf = encode_batch(&rows, seq, wc);
        // Any proper prefix fails: either truncated mid-row or short of
        // the declared row count — never a silent wrong answer.
        let cut = cut % buf.len();
        prop_assert!(decode_batch(&buf[..cut]).is_err());
        // Magic damage is always detected.
        let mut bad = buf.clone();
        bad[0] ^= flip | 1;
        prop_assert!(decode_batch(&bad).is_err());
        // Trailing garbage is always detected.
        let mut long = buf.clone();
        long.push(flip);
        prop_assert!(decode_batch(&long).is_err());
    }

    #[test]
    fn scan_requests_round_trip_on_the_wire(
        table in "[A-Z]{1,10}",
        columns in proptest::collection::vec("[A-Z]{1,8}", 1..5),
        predicate in "[A-Z >=?()0-9]{0,30}",
        params in proptest::collection::vec(
            (any::<u8>(), any::<i64>(), -1.0e6..1.0e6, "[a-z]{0,12}"),
            0..4,
        ),
        order_by in proptest::collection::vec(("[A-Z]{1,8}", any::<bool>()), 0..3),
        limit in (any::<bool>(), 0usize..10_000),
        resume_from in any::<u64>(),
        key_filter in (
            any::<bool>(),
            "[A-Z]{1,8}",
            proptest::collection::vec(
                (any::<u8>(), any::<i64>(), -1.0e6..1.0e6, "[a-z]{0,12}"),
                0..4,
            ),
        ),
        partial_agg in (
            any::<bool>(),
            proptest::collection::vec("[A-Z]{1,8}", 0..3),
            proptest::collection::vec((0u8..5, "[A-Z]{1,8}"), 0..4),
        ),
    ) {
        let req = ScanRequest {
            table,
            columns,
            predicate,
            params: params.iter().map(|(t, i, f, s)| value_of(*t, *i, *f, s)).collect(),
            order_by,
            limit: limit.0.then_some(limit.1),
            resume_from,
            key_filter: key_filter.0.then(|| {
                (
                    key_filter.1.clone(),
                    key_filter.2.iter().map(|(t, i, f, s)| value_of(*t, *i, *f, s)).collect(),
                )
            }),
            partial_agg: partial_agg.0.then(|| PartialAggSpec {
                group_by: partial_agg.1.clone(),
                calls: partial_agg
                    .2
                    .iter()
                    .map(|(tag, col)| match tag {
                        0 => AggCall::CountStar,
                        1 => AggCall::Count(col.clone()),
                        2 => AggCall::Sum(col.clone()),
                        3 => AggCall::Min(col.clone()),
                        _ => AggCall::Max(col.clone()),
                    })
                    .collect(),
            }),
        };
        prop_assert_eq!(ScanRequest::decode(&req.encode()).unwrap(), req);
    }

    // --- federated == single-hub oracle ---

    #[test]
    fn federated_results_match_the_single_database_oracle(
        rows in proptest::collection::vec(
            (0u8..3, -50i64..50, -10.0..10.0, "[ab]{0,4}"),
            0..40,
        ),
        kind in 0u8..6,
        threshold in -50i64..50,
        site_pick in 0u8..3,
        limit in 1usize..8,
    ) {
        // The federation: a hub plus two foreign sites, each holding the
        // partition of T whose SITE column names it.
        let mut net = SimNet::new();
        let hub = net.add_host("hub", 4);
        let mut hub_db = Database::new_in_memory();
        hub_db.execute(DDL).unwrap();
        let mut fed = Federation::default();
        for site in &SITES[1..] {
            let h = net.add_host(site, 4);
            net.connect(h, hub, easia_core::paper_link_spec());
            let mut db = Database::new_in_memory();
            db.execute(DDL).unwrap();
            fed.add_site(site, h, db);
        }

        // The oracle: one database holding every partition's rows.
        let mut oracle = Database::new_in_memory();
        oracle.execute(DDL).unwrap();

        for (idx, (site_idx, n, x, s)) in rows.iter().enumerate() {
            let site = SITES[(*site_idx as usize) % 3];
            let insert = format!(
                "INSERT INTO T VALUES ('k{idx:04}', '{site}', {n}, {x:.4}, '{s}')"
            );
            oracle.execute(&insert).unwrap();
            if site == "soton" {
                hub_db.execute(&insert).unwrap();
            } else {
                fed.site(site).unwrap().db.borrow_mut().execute(&insert).unwrap();
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

        let (sql, params): (String, Vec<Value>) = match kind {
            0 => ("SELECT * FROM T".into(), vec![]),
            1 => ("SELECT K, N FROM T WHERE N >= ?".into(), vec![Value::Int(threshold)]),
            2 => {
                let site = SITES[(site_pick as usize) % 3];
                (format!("SELECT K, SITE FROM T WHERE SITE = '{site}'"), vec![])
            }
            3 => (
                "SELECT K, S, N FROM T WHERE N >= ? AND S LIKE 'a%'".into(),
                vec![Value::Int(threshold)],
            ),
            4 => ("SELECT SITE, COUNT(*) FROM T GROUP BY SITE ORDER BY SITE".into(), vec![]),
            _ => (format!("SELECT K, N FROM T ORDER BY K DESC LIMIT {limit}"), vec![]),
        };

        let out = fed
            .query(&mut net, hub, &hub_db, None, &sql, &params)
            .unwrap();
        let want = oracle.execute_with_params(&sql, &params).unwrap();

        prop_assert_eq!(&out.rs.columns, &want.columns);
        prop_assert_eq!(canon(&out.rs.rows), canon(&want.rows));
        // With an explicit ORDER BY the sequence (not just the multiset)
        // must agree — the ordering key K is unique.
        if kind >= 4 {
            prop_assert_eq!(&out.rs.rows, &want.rows);
        }
    }

    // --- federated semi-join == single-hub oracle ---

    #[test]
    fn federated_semi_joins_match_the_single_database_oracle(
        anchor_rows in proptest::collection::vec(
            (0u8..3, (any::<bool>(), "[ab]{1,2}"), -5i64..5),
            0..20,
        ),
        child_rows in proptest::collection::vec(
            (0u8..3, (any::<bool>(), "[ab]{1,2}"), -5i64..5),
            0..20,
        ),
        max_keys in 1usize..12,
        kind in 0u8..4,
        threshold in -5i64..5,
    ) {
        // Two federated tables partitioned over a hub and two foreign
        // sites. Join keys are drawn from a tiny domain (so matches,
        // duplicates and fan-out are common) and are nullable (so the
        // NULL-key exclusion of 3-valued `=` is exercised); the key
        // ship bound is tiny (so the overflow fallback to full-ship
        // fires on many cases); anchors can be empty outright or
        // emptied by the WHERE filter (so the skip-every-partition
        // path is exercised). Whatever the combination, the federated
        // answer must equal the single-database oracle's.
        const A_DDL: &str = "CREATE TABLE A (\
             K VARCHAR(10) PRIMARY KEY, SITE VARCHAR(10), J VARCHAR(4), N INTEGER)";
        const B_DDL: &str = "CREATE TABLE B (\
             K VARCHAR(10) PRIMARY KEY, SITE VARCHAR(10), J VARCHAR(4), M INTEGER)";

        let mut net = SimNet::new();
        let hub = net.add_host("hub", 4);
        let mut hub_db = Database::new_in_memory();
        hub_db.execute(A_DDL).unwrap();
        hub_db.execute(B_DDL).unwrap();
        let mut fed = Federation::default();
        fed.semijoin_max_keys = max_keys;
        for site in &SITES[1..] {
            let h = net.add_host(site, 4);
            net.connect(h, hub, easia_core::paper_link_spec());
            let mut db = Database::new_in_memory();
            db.execute(A_DDL).unwrap();
            db.execute(B_DDL).unwrap();
            fed.add_site(site, h, db);
        }
        let mut oracle = Database::new_in_memory();
        oracle.execute(A_DDL).unwrap();
        oracle.execute(B_DDL).unwrap();

        // Insert site-grouped (hub partition first) so the oracle's row
        // order matches the federation's gather order.
        for (table, rows) in [("A", &anchor_rows), ("B", &child_rows)] {
            for want in SITES {
                for (idx, (site_idx, j, n)) in rows.iter().enumerate() {
                    let site = SITES[(*site_idx as usize) % 3];
                    if site != want {
                        continue;
                    }
                    let jlit = if j.0 { format!("'{}'", j.1) } else { "NULL".into() };
                    let insert = format!(
                        "INSERT INTO {table} VALUES ('{table}{idx:03}', '{site}', {jlit}, {n})"
                    );
                    oracle.execute(&insert).unwrap();
                    if site == "soton" {
                        hub_db.execute(&insert).unwrap();
                    } else {
                        fed.site(site).unwrap().db.borrow_mut().execute(&insert).unwrap();
                    }
                }
            }
        }

        for table in ["A", "B"] {
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

        let (sql, params): (String, Vec<Value>) = match kind {
            0 => (
                "SELECT A.K, B.K FROM A JOIN B ON A.J = B.J".into(),
                vec![],
            ),
            1 => (
                "SELECT A.K, B.K, B.M FROM A LEFT JOIN B ON A.J = B.J".into(),
                vec![],
            ),
            2 => (
                "SELECT A.K, B.K FROM A JOIN B ON A.J = B.J WHERE A.N >= ?".into(),
                vec![Value::Int(threshold)],
            ),
            _ => (
                "SELECT A.J, COUNT(*) FROM A JOIN B ON A.J = B.J GROUP BY A.J ORDER BY A.J"
                    .into(),
                vec![],
            ),
        };

        let out = fed
            .query(&mut net, hub, &hub_db, None, &sql, &params)
            .unwrap();
        let want = oracle.execute_with_params(&sql, &params).unwrap();

        prop_assert_eq!(&out.rs.columns, &want.columns);
        prop_assert_eq!(canon(&out.rs.rows), canon(&want.rows));
        // With an explicit total ORDER BY the sequence must agree too.
        if kind == 3 {
            prop_assert_eq!(&out.rs.rows, &want.rows);
        }
    }

    // --- interrupted + resumed == uninterrupted ---

    #[test]
    fn interrupted_then_resumed_scan_matches_uninterrupted(
        rows in proptest::collection::vec((-50i64..50, -10.0..10.0), 0..30),
        outage_start in 0.0f64..5.0,
        outage_len in 1.0f64..300.0,
        seed in any::<u64>(),
    ) {
        // Two identical rigs: one fault-free, one whose single remote
        // site crashes at an arbitrary instant (possibly mid-stream)
        // and recovers inside the query deadline. Whatever the seed
        // and outage point, retry + batch-level resume must make the
        // answers row-for-row identical — no skips, no stale serves.
        let build = |fault: Option<(f64, f64)>| {
            let mut net = SimNet::new();
            let hub = net.add_host("hub", 4);
            let cam = net.add_host("cam", 4);
            net.connect(cam, hub, easia_core::paper_link_spec());
            let mut hub_db = Database::new_in_memory();
            hub_db.execute(DDL).unwrap();
            let mut fed = Federation::default();
            fed.batch_rows = 3; // several frames even for small partitions
            fed.retry.jitter_seed = seed;
            let mut db = Database::new_in_memory();
            db.execute(DDL).unwrap();
            for (idx, (n, x)) in rows.iter().enumerate() {
                db.execute(&format!(
                    "INSERT INTO T VALUES ('k{idx:04}', 'cam', {n}, {x:.4}, 'a')"
                ))
                .unwrap();
            }
            fed.add_site("cam", cam, db);
            fed.catalog
                .import_foreign_table(
                    &hub_db,
                    "T",
                    Some("SITE"),
                    vec![
                        Partition::new(None, &["soton"]),
                        Partition::new(Some("cam"), &["cam"]),
                    ],
                )
                .unwrap();
            if let Some((from, until)) = fault {
                let mut fs = FaultSchedule::new();
                fs.host_crash(cam, from, until);
                net.set_fault_schedule(fs);
            }
            (net, hub, hub_db, fed)
        };

        let sql = "SELECT K, N FROM T";
        let (mut net, hub, hub_db, fed) = build(None);
        let baseline = fed.query(&mut net, hub, &hub_db, None, sql, &[]).unwrap();

        let (mut net2, hub2, hub_db2, fed2) =
            build(Some((outage_start, outage_start + outage_len)));
        let out = fed2
            .query(&mut net2, hub2, &hub_db2, None, sql, &[])
            .unwrap();

        prop_assert_eq!(&out.rs.rows, &baseline.rs.rows);
        prop_assert!(out.explain.skipped.is_empty());
        prop_assert!(out.explain.stale.is_empty());
    }
}
