//! Metamorphic oracles for the single-database engine. Neither property
//! needs a second implementation of SQL to check the executor against:
//!
//! * **TLP** (ternary logic partitioning, Rigger & Su): every row of
//!   `Q` satisfies exactly one of `p`, `NOT p` and `p IS NULL`, so the
//!   three filtered queries partition `Q`'s rows as a multiset, and
//!   COUNT/SUM/MIN/MAX over `Q` recombine from the three partitions.
//! * **NoREC** (non-optimising reference engine construction):
//!   `SELECT COUNT(*) FROM t WHERE p` — which the planner may answer
//!   through an index and the fused filter — equals the number of rows
//!   of the unfiltered `SELECT p FROM t` whose projected value is TRUE.
//!
//! Schemas, NULL-heavy rows, index layouts (none, one column, composite)
//! and predicates are random. A third property reads under an open
//! snapshot while another transaction has inserts and deletes in
//! flight, and a fourth checks ORDER BY ... LIMIT against a stable sort
//! of the unordered answer.

use easia_db::{Database, Value};
use proptest::prelude::*;

/// SplitMix64: the per-case generator, seeded by the property's input.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Ty {
    Int,
    Double,
    Text,
    Bool,
}

struct Table {
    cols: Vec<Ty>,
}

impl Table {
    fn random(rng: &mut Rng) -> Table {
        let n = 2 + rng.below(4);
        let tys = [Ty::Int, Ty::Double, Ty::Text, Ty::Bool];
        let mut cols: Vec<Ty> = (0..n).map(|_| tys[rng.below(4)]).collect();
        // At least one integer column, so SUM has an exact target.
        cols[0] = Ty::Int;
        Table { cols }
    }

    fn ddl(&self) -> String {
        let cols: Vec<String> = self
            .cols
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let ty = match t {
                    Ty::Int => "INTEGER",
                    Ty::Double => "DOUBLE",
                    Ty::Text => "VARCHAR(6)",
                    Ty::Bool => "BOOLEAN",
                };
                format!("C{i} {ty}")
            })
            .collect();
        format!("CREATE TABLE T ({})", cols.join(", "))
    }

    /// No index, a one-column index, or a composite index over two or
    /// three columns (duplicates and NULLs allowed in every key).
    fn index_ddl(&self, rng: &mut Rng) -> Option<String> {
        let n = self.cols.len();
        match rng.below(3) {
            0 => None,
            1 => Some(format!("CREATE INDEX IX1 ON T (C{})", rng.below(n))),
            _ => {
                let mut cols: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    cols.swap(i, rng.below(i + 1));
                }
                cols.truncate(2 + rng.below(2).min(n - 2));
                let list: Vec<String> = cols.iter().map(|c| format!("C{c}")).collect();
                Some(format!("CREATE INDEX IXC ON T ({})", list.join(", ")))
            }
        }
    }

    fn value(&self, rng: &mut Rng, col: usize) -> Value {
        if rng.chance(35) {
            return Value::Null;
        }
        literal_value(rng, self.cols[col])
    }

    fn row(&self, rng: &mut Rng) -> Vec<Value> {
        (0..self.cols.len()).map(|c| self.value(rng, c)).collect()
    }
}

/// A small-domain value of type `ty`, so equalities and duplicates are
/// common.
fn literal_value(rng: &mut Rng, ty: Ty) -> Value {
    match ty {
        Ty::Int => Value::Int(rng.below(7) as i64 - 3),
        Ty::Double => Value::Double((rng.below(9) as f64 - 4.0) / 2.0),
        Ty::Text => {
            const WORDS: [&str; 5] = ["a", "ab", "b", "ba", "abc"];
            Value::Str(WORDS[rng.below(WORDS.len())].to_string())
        }
        Ty::Bool => Value::Bool(rng.chance(50)),
    }
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Double(d) => format!("{d:.1}"),
        Value::Str(s) => format!("'{s}'"),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        other => panic!("no literal for {other:?}"),
    }
}

/// A random predicate that never raises an error: comparisons stay
/// within one type family, LIKE only touches text.
fn predicate(rng: &mut Rng, t: &Table, depth: usize) -> String {
    if depth > 0 && rng.chance(45) {
        let l = predicate(rng, t, depth - 1);
        return match rng.below(3) {
            0 => format!("({l} AND {})", predicate(rng, t, depth - 1)),
            1 => format!("({l} OR {})", predicate(rng, t, depth - 1)),
            _ => format!("(NOT {l})"),
        };
    }
    let c = rng.below(t.cols.len());
    let ty = t.cols[c];
    let lit = |rng: &mut Rng| {
        if rng.chance(10) {
            "NULL".to_string()
        } else {
            sql_literal(&literal_value(rng, ty))
        }
    };
    let numeric = matches!(ty, Ty::Int | Ty::Double);
    match rng.below(7) {
        0 => format!("C{c} IS NULL"),
        1 => format!("C{c} IS NOT NULL"),
        2 if ty == Ty::Text => {
            const PATS: [&str; 5] = ["a%", "%b", "_", "%", "a_c"];
            format!("C{c} LIKE '{}'", PATS[rng.below(PATS.len())])
        }
        3 if ty != Ty::Bool => {
            let list: Vec<String> = (0..1 + rng.below(3)).map(|_| lit(rng)).collect();
            let not = if rng.chance(30) { "NOT " } else { "" };
            format!("C{c} {not}IN ({})", list.join(", "))
        }
        4 if numeric => format!("C{c} BETWEEN {} AND {}", lit(rng), lit(rng)),
        5 if numeric => format!("C{c} + 1 > {}", lit(rng)),
        6 => {
            // A column-to-column comparison within one type family.
            let same: Vec<usize> = (0..t.cols.len())
                .filter(|&d| {
                    let u = t.cols[d];
                    u == ty || (numeric && matches!(u, Ty::Int | Ty::Double))
                })
                .collect();
            let d = same[rng.below(same.len())];
            format!("C{c} <= C{d}")
        }
        _ => {
            const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
            format!("C{c} {} {}", OPS[rng.below(6)], lit(rng))
        }
    }
}

/// A predicate whose first conjunct is an equality the planner can
/// answer through an index on its column, when one exists.
fn probe_predicate(rng: &mut Rng, t: &Table) -> String {
    let c = rng.below(t.cols.len());
    let eq = format!("C{c} = {}", sql_literal(&literal_value(rng, t.cols[c])));
    if rng.chance(50) {
        eq
    } else {
        format!("{eq} AND {}", predicate(rng, t, 1))
    }
}

fn build(rng: &mut Rng) -> (Database, Table) {
    let t = Table::random(rng);
    let mut db = Database::new_in_memory();
    db.execute(&t.ddl()).unwrap();
    // Half the tables get their index before the rows, half after.
    let ix = t.index_ddl(rng);
    let early = rng.chance(50);
    if early {
        if let Some(ix) = &ix {
            db.execute(ix).unwrap();
        }
    }
    let marks = vec!["?"; t.cols.len()].join(", ");
    for _ in 0..rng.below(24) {
        db.execute_with_params(&format!("INSERT INTO T VALUES ({marks})"), &t.row(rng))
            .unwrap();
    }
    if !early {
        if let Some(ix) = &ix {
            db.execute(ix).unwrap();
        }
    }
    (db, t)
}

/// Canonical multiset form of a result.
fn canon(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// How one property reads the database: latest committed, a snapshot,
/// or inside a transaction.
type Reader<'a> = dyn FnMut(&str) -> Vec<Vec<Value>> + 'a;

fn scalar(read: &mut Reader, sql: &str) -> Value {
    let rows = read(sql);
    assert_eq!(rows.len(), 1, "{sql}");
    rows[0][0].clone()
}

/// Check TLP for the row multiset and each aggregate over `p`.
fn check_tlp(read: &mut Reader, t: &Table, p: &str) -> Result<(), TestCaseError> {
    let parts = [
        format!("WHERE {p}"),
        format!("WHERE NOT ({p})"),
        format!("WHERE ({p}) IS NULL"),
    ];
    let all = read("SELECT * FROM T");
    let mut union = Vec::new();
    for w in &parts {
        union.extend(read(&format!("SELECT * FROM T {w}")));
    }
    prop_assert_eq!(canon(&all), canon(&union));

    // COUNT(*) and COUNT(col) add up.
    let c = (p.len() + all.len()) % t.cols.len();
    for agg in ["COUNT(*)".to_string(), format!("COUNT(C{c})")] {
        let whole = scalar(read, &format!("SELECT {agg} FROM T"));
        let mut sum = 0;
        for w in &parts {
            match scalar(read, &format!("SELECT {agg} FROM T {w}")) {
                Value::Int(n) => sum += n,
                other => prop_assert!(false, "{agg} gave {other:?}"),
            }
        }
        prop_assert_eq!(whole, Value::Int(sum));
    }

    // SUM over the integer column: exact; NULL when no part has a value.
    let whole = scalar(read, "SELECT SUM(C0) FROM T");
    let mut acc: Option<i64> = None;
    for w in &parts {
        match scalar(read, &format!("SELECT SUM(C0) FROM T {w}")) {
            Value::Null => {}
            Value::Int(n) => *acc.get_or_insert(0) += n,
            other => prop_assert!(false, "SUM gave {other:?}"),
        }
    }
    prop_assert_eq!(whole, acc.map_or(Value::Null, Value::Int));

    // MIN/MAX of any column: the extreme of the parts' extremes.
    for (agg, want_less) in [("MIN", true), ("MAX", false)] {
        let sql = format!("SELECT {agg}(C{c}) FROM T");
        let whole = scalar(read, &sql);
        let mut best: Option<Value> = None;
        for w in &parts {
            let v = scalar(read, &format!("{sql} {w}"));
            if v.is_null() {
                continue;
            }
            let better = best.as_ref().is_none_or(|b| {
                let ord = v.total_cmp(b);
                if want_less {
                    ord.is_lt()
                } else {
                    ord.is_gt()
                }
            });
            if better {
                best = Some(v);
            }
        }
        prop_assert_eq!(whole, best.unwrap_or(Value::Null));
    }

    // Grouped COUNT(*) partitions too: per group, the parts add up.
    let g = (c + 1) % t.cols.len();
    let grouped = |read: &mut Reader, w: &str| {
        let mut m = std::collections::BTreeMap::new();
        for r in read(&format!("SELECT C{g}, COUNT(*) FROM T {w} GROUP BY C{g}")) {
            let Value::Int(n) = r[1] else {
                panic!("COUNT(*) gave {:?}", r[1])
            };
            *m.entry(format!("{:?}", r[0])).or_insert(0) += n;
        }
        m
    };
    let whole = grouped(read, "");
    let mut sum = std::collections::BTreeMap::new();
    for w in &parts {
        for (k, n) in grouped(read, w) {
            *sum.entry(k).or_insert(0) += n;
        }
    }
    prop_assert_eq!(whole, sum);
    Ok(())
}

/// Check NoREC: the optimised count equals the unoptimised tally.
fn check_norec(read: &mut Reader, p: &str) -> Result<(), TestCaseError> {
    let fast = scalar(read, &format!("SELECT COUNT(*) FROM T WHERE {p}"));
    let slow = read(&format!("SELECT {p} FROM T"))
        .iter()
        .filter(|r| r[0] == Value::Bool(true))
        .count();
    prop_assert_eq!(fast, Value::Int(slow as i64));
    // The filtered rows themselves: exactly the rows the tally counted.
    let kept = read(&format!("SELECT * FROM T WHERE {p}"));
    prop_assert_eq!(kept.len(), slow);
    Ok(())
}

fn latest(db: &Database) -> impl FnMut(&str) -> Vec<Vec<Value>> + '_ {
    move |sql| {
        db.query(sql, &[])
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
            .rows
    }
}

proptest! {
    #[test]
    fn tlp_partitions_rows_and_aggregates(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (db, t) = build(&mut rng);
        let mut read = latest(&db);
        for _ in 0..3 {
            let p = predicate(&mut rng, &t, 2);
            check_tlp(&mut read, &t, &p)?;
            let p = probe_predicate(&mut rng, &t);
            check_tlp(&mut read, &t, &p)?;
        }
    }

    #[test]
    fn norec_count_matches_projected_truth(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (db, t) = build(&mut rng);
        let mut read = latest(&db);
        for _ in 0..4 {
            let p = predicate(&mut rng, &t, 2);
            check_norec(&mut read, &p)?;
            let p = probe_predicate(&mut rng, &t);
            check_norec(&mut read, &p)?;
        }
    }

    #[test]
    fn oracles_hold_under_a_snapshot_with_writes_in_flight(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (mut db, t) = build(&mut rng);
        let before = canon(&db.query("SELECT * FROM T", &[]).unwrap().rows);
        let snap = db.begin_snapshot();

        // A committed writer after the snapshot: versions the snapshot
        // must not see.
        let w1 = db.begin_txn();
        for _ in 0..rng.below(4) {
            db.txn_execute(w1, "DELETE FROM T WHERE C0 = 0", &[]).unwrap();
            let row = t.row(&mut rng);
            insert(&mut db, w1, &row);
        }
        db.commit_txn(w1).unwrap();
        let committed = canon(&db.query("SELECT * FROM T", &[]).unwrap().rows);

        // An open writer with inserts and deletes in flight.
        let w2 = db.begin_txn();
        for _ in 0..1 + rng.below(5) {
            let row = t.row(&mut rng);
            insert(&mut db, w2, &row);
        }
        let p = predicate(&mut rng, &t, 1);
        db.txn_execute(w2, &format!("DELETE FROM T WHERE {p}"), &[]).unwrap();

        // The snapshot still reads exactly the pre-snapshot rows, and
        // the latest view ignores the open writer.
        {
            let mut snap_read = |sql: &str| {
                db.snapshot_query(snap, sql, &[])
                    .unwrap_or_else(|e| panic!("{sql}: {e}"))
                    .rows
            };
            prop_assert_eq!(canon(&snap_read("SELECT * FROM T")), before);
            for _ in 0..2 {
                let p = predicate(&mut rng, &t, 2);
                check_tlp(&mut snap_read, &t, &p)?;
                check_norec(&mut snap_read, &p)?;
                let p = probe_predicate(&mut rng, &t);
                check_tlp(&mut snap_read, &t, &p)?;
                check_norec(&mut snap_read, &p)?;
            }
        }
        {
            let mut read = latest(&db);
            prop_assert_eq!(canon(&read("SELECT * FROM T")), committed);
            let p = predicate(&mut rng, &t, 2);
            check_tlp(&mut read, &t, &p)?;
            check_norec(&mut read, &p)?;
        }
        // The writer's own view sees its uncommitted work.
        let p = probe_predicate(&mut rng, &t);
        let mut own = |sql: &str| {
            db.txn_execute(w2, sql, &[])
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
                .rows
        };
        check_tlp(&mut own, &t, &p)?;
        check_norec(&mut own, &p)?;
        db.rollback_txn(w2).unwrap();
        db.release_snapshot(snap);
    }

    #[test]
    fn order_by_limit_is_a_truncated_stable_sort(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (db, t) = build(&mut rng);
        let p = if rng.chance(50) {
            probe_predicate(&mut rng, &t)
        } else {
            predicate(&mut rng, &t, 1)
        };
        let unordered = db.query(&format!("SELECT * FROM T WHERE {p}"), &[]).unwrap().rows;
        let keys: Vec<(usize, bool)> = (0..1 + rng.below(2))
            .map(|_| (rng.below(t.cols.len()), rng.chance(50)))
            .collect();
        let order: Vec<String> = keys
            .iter()
            .map(|(c, asc)| format!("C{c} {}", if *asc { "ASC" } else { "DESC" }))
            .collect();
        let mut expect = unordered.clone();
        expect.sort_by(|a, b| {
            for (c, asc) in &keys {
                let o = a[*c].total_cmp(&b[*c]);
                let o = if *asc { o } else { o.reverse() };
                if o.is_ne() {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        let sql = format!("SELECT * FROM T WHERE {p} ORDER BY {}", order.join(", "));
        prop_assert_eq!(&db.query(&sql, &[]).unwrap().rows, &expect);
        for limit in [0, 1, 3, expect.len() + 1] {
            let got = db.query(&format!("{sql} LIMIT {limit}"), &[]).unwrap().rows;
            prop_assert_eq!(&got[..], &expect[..limit.min(expect.len())]);
        }
    }
}

fn insert(db: &mut Database, txn: easia_db::TxnId, row: &[Value]) {
    let marks = vec!["?"; row.len()].join(", ");
    db.txn_execute(txn, &format!("INSERT INTO T VALUES ({marks})"), row)
        .unwrap();
}
