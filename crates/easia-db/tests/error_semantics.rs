//! Pins the executor's error and empty-table semantics: which statements
//! fail before any row is read, which fail only when a row is evaluated
//! (and so return an empty result on an empty table), and the exact
//! `DbError` variant and message of each failure. A bind-once evaluator
//! must reproduce every one of these.

use easia_db::{Database, DbError, ResultSet, Value};

/// `T(A, B, S)` and `U(A, C)`; `rows` decides whether both hold rows.
fn db(rows: bool) -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (A INTEGER, B DOUBLE, S VARCHAR(10))")
        .unwrap();
    db.execute("CREATE TABLE U (A INTEGER, C VARCHAR(10))")
        .unwrap();
    if rows {
        db.execute("INSERT INTO T VALUES (1, 1.5, 'x'), (2, NULL, 'y'), (2, 3.0, NULL)")
            .unwrap();
        db.execute("INSERT INTO U VALUES (1, 'p'), (2, 'q')")
            .unwrap();
    }
    db
}

fn run(rows: bool, sql: &str) -> Result<ResultSet, DbError> {
    db(rows).query(sql, &[])
}

fn eval(msg: &str) -> DbError {
    DbError::Eval(msg.to_string())
}

/// The statement fails only once a row is evaluated: an empty result on
/// the empty tables, `err` on the populated ones.
fn row_time(sql: &str, err: DbError) {
    let rs = run(false, sql).unwrap_or_else(|e| panic!("{sql} on empty tables: {e}"));
    assert!(rs.rows.is_empty(), "{sql}: {:?}", rs.rows);
    assert_eq!(run(true, sql).unwrap_err(), err, "{sql}");
}

/// The statement fails with `err` whether or not the tables hold rows.
fn always(sql: &str, err: DbError) {
    assert_eq!(run(false, sql).unwrap_err(), err, "{sql} on empty tables");
    assert_eq!(run(true, sql).unwrap_err(), err, "{sql}");
}

const JOIN: &str = "SELECT * FROM T JOIN U ON T.A = U.A";

#[test]
fn unknown_and_ambiguous_columns_in_where_fail_per_row() {
    row_time(
        "SELECT * FROM T WHERE NOPE = 1",
        eval("unknown column NOPE"),
    );
    row_time("SELECT * FROM T WHERE Z.A = 1", eval("unknown column Z.A"));
    row_time(
        "SELECT * FROM T x WHERE t.a = 1",
        eval("unknown column T.A"),
    );
    row_time(
        &format!("{JOIN} WHERE A = 1"),
        eval("ambiguous column reference A"),
    );
    // A global aggregate over an empty table still answers one row.
    let sql = "SELECT COUNT(*) FROM T WHERE NOPE IS NULL";
    assert_eq!(run(false, sql).unwrap().rows, vec![vec![Value::Int(0)]]);
    assert_eq!(run(true, sql).unwrap_err(), eval("unknown column NOPE"));
}

#[test]
fn where_short_circuits_past_an_unknown_column() {
    for rows in [false, true] {
        let rs = run(rows, "SELECT * FROM T WHERE 1 = 0 AND NOPE = 1").unwrap();
        assert!(rs.rows.is_empty());
        let rs = run(rows, "SELECT A FROM T WHERE 1 = 1 OR NOPE = 1").unwrap();
        assert_eq!(rs.rows.len(), if rows { 3 } else { 0 });
    }
}

#[test]
fn bare_select_list_columns_resolve_before_any_row() {
    always("SELECT NOPE FROM T", eval("unknown column NOPE"));
    always("SELECT T.A, Z.B FROM T", eval("unknown column Z.B"));
    always(
        &JOIN.replace('*', "A"),
        eval("ambiguous column reference A"),
    );
    always("SELECT Z.* FROM T", eval("unknown table alias Z in Z.*"));
}

#[test]
fn select_list_expressions_fail_per_row() {
    row_time("SELECT NOPE + 1 FROM T", eval("unknown column NOPE"));
    row_time(
        &JOIN.replace('*', "A + 1"),
        eval("ambiguous column reference A"),
    );
    row_time("SELECT NOPEFN(A) FROM T", eval("unknown function NOPEFN"));
    // The empty result still carries the derived column names.
    let rs = run(false, "SELECT NOPE + 1, LENGTH(S) FROM T").unwrap();
    assert_eq!(rs.columns, vec!["EXPR".to_string(), "LENGTH".to_string()]);
}

#[test]
fn group_by_and_having_fail_per_group_row() {
    row_time(
        "SELECT COUNT(*) FROM T GROUP BY NOPE",
        eval("unknown column NOPE"),
    );
    row_time(
        &format!("{} GROUP BY A", JOIN.replace('*', "COUNT(*)")),
        eval("ambiguous column reference A"),
    );
    row_time(
        "SELECT A FROM T GROUP BY A HAVING NOPE > 1",
        eval("unknown column NOPE"),
    );
    row_time(
        "SELECT A, NOPE FROM T GROUP BY A",
        eval("unknown column NOPE"),
    );
}

#[test]
fn a_global_aggregate_evaluates_its_select_list_even_on_no_rows() {
    // Zero input rows still make one group (an all-NULL representative
    // row), so its select list and HAVING are evaluated.
    always("SELECT NOPE, COUNT(*) FROM T", eval("unknown column NOPE"));
    always(
        "SELECT COUNT(*) FROM T HAVING NOPE IS NULL",
        eval("unknown column NOPE"),
    );
    always(
        "SELECT COUNT(*) FROM T ORDER BY NOPE",
        eval("unknown column NOPE"),
    );
    let rs = run(false, "SELECT A, COUNT(*), SUM(B) FROM T").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Null, Value::Int(0), Value::Null]]);
}

#[test]
fn wildcards_with_aggregates_fail_before_any_row() {
    let err = eval("wildcard not allowed with GROUP BY / aggregates");
    always("SELECT * FROM T GROUP BY A", err.clone());
    always("SELECT T.*, COUNT(*) FROM T", err);
}

#[test]
fn order_by_fails_per_row() {
    row_time("SELECT A FROM T ORDER BY NOPE", eval("unknown column NOPE"));
    row_time(
        "SELECT A FROM T ORDER BY NOPE LIMIT 1",
        eval("unknown column NOPE"),
    );
    row_time(
        "SELECT DISTINCT A FROM T ORDER BY NOPE",
        eval("unknown column NOPE"),
    );
    row_time(
        &format!("{} ORDER BY A", JOIN.replace('*', "T.A AS X")),
        eval("ambiguous column reference A"),
    );
    row_time(
        "SELECT A, COUNT(*) FROM T GROUP BY A ORDER BY NOPE",
        eval("unknown column NOPE"),
    );
    row_time(
        "SELECT A FROM T ORDER BY COUNT(*)",
        eval("COUNT(*) is only valid as an aggregate"),
    );
    // An output alias shadows nothing unknown: sorting by it is fine.
    let rs = run(true, "SELECT A AS NOPE FROM T ORDER BY NOPE DESC").unwrap();
    assert_eq!(rs.rows[0], vec![Value::Int(2)]);
}

#[test]
fn order_by_evaluates_and_or_strictly() {
    // ORDER BY keys go through the aggregate-aware evaluator, which
    // evaluates both sides of AND/OR before combining them.
    row_time(
        "SELECT A FROM T ORDER BY (1 = 0 AND NOPE = 1)",
        eval("unknown column NOPE"),
    );
    row_time(
        "SELECT A, COUNT(*) FROM T GROUP BY A ORDER BY (1 = 1 OR NOPE = 1)",
        eval("unknown column NOPE"),
    );
}

#[test]
fn errors_surface_in_pipeline_order() {
    // WHERE runs over every row before the select list is resolved.
    assert_eq!(
        run(true, "SELECT NOPE FROM T WHERE ZAP = 1").unwrap_err(),
        eval("unknown column ZAP")
    );
    assert_eq!(
        run(false, "SELECT NOPE FROM T WHERE ZAP = 1").unwrap_err(),
        eval("unknown column NOPE")
    );
    // A WHERE failure on a later row beats a select-list failure on an
    // earlier one.
    assert_eq!(
        run(true, "SELECT A + NOPE FROM T WHERE A < 2 OR ZAP = 1").unwrap_err(),
        eval("unknown column ZAP")
    );
    // The select list fails before ORDER BY is evaluated.
    assert_eq!(
        run(true, "SELECT A + NOPE FROM T ORDER BY ZAP").unwrap_err(),
        eval("unknown column NOPE")
    );
    // A select-list failure on a later row beats an ORDER BY failure on
    // an earlier one.
    assert_eq!(
        run(true, "SELECT A / (A - 2) FROM T ORDER BY ZAP LIMIT 1").unwrap_err(),
        eval("division by zero")
    );
    // Aggregation fails before HAVING and the select list are checked.
    assert_eq!(
        run(true, "SELECT * FROM T GROUP BY NOPE").unwrap_err(),
        eval("unknown column NOPE")
    );
}

#[test]
fn aggregates_outside_the_aggregate_positions_fail_per_row() {
    row_time(
        "SELECT * FROM T WHERE COUNT(*) > 1",
        eval("COUNT(*) is only valid as an aggregate"),
    );
    row_time(
        "SELECT * FROM T WHERE SUM(A) > 1",
        eval("unknown function SUM"),
    );
    // Nested inside a scalar function, an aggregate is not substituted.
    always(
        "SELECT COALESCE(SUM(A), 0) FROM T",
        eval("unknown function SUM"),
    );
}

#[test]
fn sum_and_avg_over_varchar_fail_on_the_first_non_null_value() {
    for agg in ["SUM", "AVG"] {
        let sql = format!("SELECT {agg}(S) FROM T");
        let rs = run(false, &sql).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Null]], "{sql}");
        assert_eq!(
            run(true, &sql).unwrap_err(),
            DbError::Type(format!("{agg} over non-numeric VARCHAR")),
            "{sql}"
        );
        // Only NULL strings reach the aggregate: no error, NULL result.
        let sql = format!("SELECT {agg}(S) FROM T WHERE S IS NULL");
        assert_eq!(run(true, &sql).unwrap().rows, vec![vec![Value::Null]]);
        // Grouped: an empty table makes no groups and so no error.
        let sql = format!("SELECT A, {agg}(S) FROM T GROUP BY A");
        assert!(run(false, &sql).unwrap().rows.is_empty());
        assert_eq!(
            run(true, &sql).unwrap_err(),
            DbError::Type(format!("{agg} over non-numeric VARCHAR"))
        );
    }
    // MIN/MAX/COUNT accept strings.
    let rs = run(true, "SELECT MIN(S), MAX(S), COUNT(S) FROM T").unwrap();
    assert_eq!(
        rs.rows,
        vec![vec![
            Value::Str("x".into()),
            Value::Str("y".into()),
            Value::Int(2)
        ]]
    );
}

#[test]
fn type_errors_in_predicates_fail_per_row() {
    row_time(
        "SELECT * FROM T WHERE S > 1",
        DbError::Type("cannot compare VARCHAR with INTEGER".into()),
    );
    row_time(
        "SELECT * FROM T WHERE A + S > 1",
        DbError::Type("arithmetic on INTEGER and VARCHAR".into()),
    );
    row_time(
        "SELECT * FROM T WHERE S LIKE 1",
        eval("LIKE pattern must be a string"),
    );
}

#[test]
fn parameters_and_catalog_errors() {
    // A missing parameter in an index-eligible equality fails at
    // planning, before any row.
    let mut d = db(false);
    d.execute("CREATE INDEX IX_A ON T (A)").unwrap();
    assert_eq!(
        d.query("SELECT * FROM T WHERE A = ?", &[]).unwrap_err(),
        eval("missing parameter ?1")
    );
    // Elsewhere it fails per row.
    for rows in [false, true] {
        let r = db(rows).query("SELECT * FROM T WHERE A > ?", &[]);
        if rows {
            assert_eq!(r.unwrap_err(), eval("missing parameter ?1"));
        } else {
            assert!(r.unwrap().rows.is_empty());
        }
    }
    always(
        "SELECT * FROM NOPE",
        DbError::Catalog("table NOPE does not exist".into()),
    );
    always(
        "SELECT * FROM T JOIN NOPE ON T.A = NOPE.A",
        DbError::Catalog("table NOPE does not exist".into()),
    );
    always("SELECT *", eval("wildcard requires FROM"));
}

#[test]
fn update_and_delete_share_the_per_row_semantics() {
    for rows in [false, true] {
        let mut d = db(rows);
        let upd = d.execute("UPDATE T SET A = NOPE WHERE A = 1");
        let del = d.execute("DELETE FROM T WHERE NOPE = 1");
        if rows {
            assert_eq!(upd.unwrap_err(), eval("unknown column NOPE"));
            assert_eq!(del.unwrap_err(), eval("unknown column NOPE"));
        } else {
            assert_eq!(upd.unwrap().affected, 0);
            assert_eq!(del.unwrap().affected, 0);
        }
    }
}
