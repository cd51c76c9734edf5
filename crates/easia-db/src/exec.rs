//! Query execution.
//!
//! A SELECT over one base table runs as one fused pipeline: MVCC
//! visibility first (the table's version map looked up once per scan),
//! then a decode of just the slots the WHERE reads, the WHERE itself,
//! and — only for rows that pass — a decode of the slots the aggregate
//! or projection reads. Every expression is bound to slot indices once
//! per statement ([`Binder`]) and evaluated by reference. A scanned row
//! becomes an owned `Vec<Value>` only when the pipeline keeps it: a
//! projected output row, a new group's representative row, an
//! UPDATE/DELETE target. ORDER BY with LIMIT keeps a bounded top-k.
//!
//! A SELECT with joins materialises the joined rows and runs the same
//! WHERE, aggregate and projection stages over them, as does one over
//! caller-bound [`Relation`]s.
//!
//! Fusing the stages does not reorder their failures: a WHERE error on
//! any row wins over a later stage's error on an earlier row, select-list
//! errors win over ORDER BY key errors, and every `easia_db_*` counter
//! records what the staged pipeline recorded.

mod agg;

pub use agg::{aggregate_calls, is_aggregate_fn, AggGroup, AggState};

use crate::db::{Database, ResultSet, Table};
use crate::error::{DbError, Result};
use crate::expr::{Binder, Bound, RowSchema};
use crate::mvcc::ReadView;
use crate::obs::DbMetrics;
use crate::plan::{choose_access_path, AccessPath};
use crate::schema::DatalinkSpec;
use crate::sql::ast::{Expr, Join, JoinKind, SelectItem, SelectStmt};
use crate::storage::RowId;
use crate::value::{decode_columns, decode_row, encode_row, SqlType, Value};
use agg::{project_groups, Aggregate};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::rc::Rc;

/// Evaluate a row-independent expression (INSERT values, constants).
pub fn eval_const(db: &Database, expr: &Expr, params: &[Value]) -> Result<Value> {
    let schema = RowSchema::default();
    match binder(db, &schema, params).bind(expr) {
        Bound::Const(v) => Ok(v),
        bound => bound.eval(&[], &[]).map(Cow::into_owned),
    }
}

fn binder<'a>(db: &'a Database, schema: &'a RowSchema, params: &'a [Value]) -> Binder<'a> {
    Binder {
        schema,
        params,
        functions: db.functions(),
    }
}

fn column_names(t: &Table) -> Vec<String> {
    t.schema.columns.iter().map(|c| c.name.clone()).collect()
}

/// The `(RowId, record)` pairs of heap table `t` (named `table`) visible
/// to `view` along `path`, in access-path order. Visibility is checked
/// before anything is decoded.
fn candidates<'t>(
    db: &'t Database,
    view: &ReadView,
    t: &'t Table,
    table: &str,
    path: &AccessPath,
) -> Box<dyn Iterator<Item = (RowId, &'t [u8])> + 't> {
    let vis = db.visibility(table, view);
    match path {
        AccessPath::FullScan => {
            Box::new(t.heap.scan_raw().filter(move |(rid, _)| vis.visible(*rid)))
        }
        AccessPath::IndexEq { index_pos, key, .. } => {
            // The probe equates the index's leading column; on a
            // composite index that is a prefix of the key.
            let rids = t.indexes[*index_pos]
                .tree
                .prefix_rows(std::slice::from_ref(key));
            Box::new(
                rids.into_iter()
                    .filter(move |rid| vis.visible(*rid))
                    .filter_map(|rid| t.heap.get_raw(rid).map(|rec| (rid, rec))),
            )
        }
    }
}

/// Every row of `t` visible to `view` along `path`, fully decoded.
fn fetch(
    db: &Database,
    view: &ReadView,
    t: &Table,
    table: &str,
    path: &AccessPath,
) -> Result<Vec<Vec<Value>>> {
    candidates(db, view, t, table, path)
        .map(|(_, rec)| decode_row(rec, &mut 0))
        .collect()
}

/// Account one base-table access in the scan metrics.
fn note_scan(db: &Database, index_probe: bool, rows: usize) {
    if let Some(m) = db.metrics() {
        if index_probe {
            m.index_scans.inc();
        } else {
            m.heap_scans.inc();
        }
        m.rows_scanned.add(rows as f64);
        m.stage_scan.observe(rows as f64);
    }
}

/// Where a pipeline's rows come from.
enum Input<'a> {
    /// A heap table's visible records along an access path, decoded
    /// lazily; its scan is counted when the pipeline has run.
    Heap {
        t: &'a Table,
        table: String,
        path: AccessPath,
        view: &'a ReadView,
    },
    /// Rows already decoded (and already counted): a bound relation or
    /// joined rows.
    Rows(Vec<Vec<Value>>),
}

impl Input<'_> {
    /// All rows, decoded, with a heap scan counted.
    fn into_rows(self, db: &Database) -> Result<Vec<Vec<Value>>> {
        match self {
            Input::Heap {
                t,
                table,
                path,
                view,
            } => {
                let rows = fetch(db, view, t, &table, &path)?;
                note_scan(db, matches!(path, AccessPath::IndexEq { .. }), rows.len());
                Ok(rows)
            }
            Input::Rows(rows) => Ok(rows),
        }
    }
}

/// A row that passed WHERE, as the next stage sees it: the decoded
/// slots that stage reads, and for a heap row its id and record, for
/// the stages that keep the whole row.
struct Passed<'a> {
    rid: Option<RowId>,
    row: &'a [Value],
    rec: Option<&'a [u8]>,
}

impl Passed<'_> {
    /// The whole row, owned: the one per-row allocation, made only for
    /// rows a stage keeps.
    fn to_row(&self) -> Result<Vec<Value>> {
        match self.rec {
            Some(rec) => decode_row(rec, &mut 0),
            None => Ok(self.row.to_vec()),
        }
    }
}

/// Sorted, deduplicated slot list.
fn slot_set(mut slots: Vec<usize>) -> Vec<usize> {
    slots.sort_unstable();
    slots.dedup();
    slots
}

/// Run `filter` over `input` and hand each row that passes to `sink`,
/// which reads only `sink_slots` (beyond what `filter` reads); returns
/// how many rows passed.
///
/// Failures keep the staged pipeline's order. A WHERE error on any row
/// is returned ahead of a sink error on an earlier one; after either,
/// the scan still runs to count its candidates, so `note_scan` records
/// what a fetch-then-filter pass recorded. `observe_filter` records the
/// filter stage's row count once WHERE has run without error.
fn drive(
    db: &Database,
    input: &Input,
    filter: Option<&Bound>,
    sink_slots: &[usize],
    observe_filter: bool,
    mut sink: impl FnMut(Passed<'_>) -> Result<()>,
) -> Result<usize> {
    let mut where_err = None;
    let mut sink_err = None;
    let mut passed = 0usize;
    match input {
        Input::Heap {
            t,
            table,
            path,
            view,
        } => {
            let mut where_slots = Vec::new();
            if let Some(f) = filter {
                f.slots(&mut where_slots);
            }
            let where_slots = slot_set(where_slots);
            let rest = slot_set(
                sink_slots
                    .iter()
                    .copied()
                    .filter(|s| where_slots.binary_search(s).is_err())
                    .collect(),
            );
            let mut scratch = vec![Value::Null; t.schema.columns.len()];
            let mut scanned = 0usize;
            for (rid, rec) in candidates(db, view, t, table, path) {
                scanned += 1;
                if where_err.is_some() {
                    continue;
                }
                decode_columns(rec, &where_slots, &mut scratch)?;
                match filter.map_or(Ok(Some(true)), |f| f.truth(&scratch)) {
                    Ok(Some(true)) => {}
                    Ok(_) => continue,
                    Err(e) => {
                        where_err = Some(e);
                        continue;
                    }
                }
                passed += 1;
                if sink_err.is_none() {
                    decode_columns(rec, &rest, &mut scratch)?;
                    let row = Passed {
                        rid: Some(rid),
                        row: &scratch,
                        rec: Some(rec),
                    };
                    sink_err = sink(row).err();
                }
            }
            note_scan(db, matches!(path, AccessPath::IndexEq { .. }), scanned);
        }
        Input::Rows(rows) => {
            for row in rows {
                match filter.map_or(Ok(Some(true)), |f| f.truth(row)) {
                    Ok(Some(true)) => {}
                    Ok(_) => continue,
                    Err(e) => {
                        where_err = Some(e);
                        break;
                    }
                }
                passed += 1;
                if sink_err.is_none() {
                    let row = Passed {
                        rid: None,
                        row,
                        rec: None,
                    };
                    sink_err = sink(row).err();
                }
            }
        }
    }
    if let Some(e) = where_err {
        return Err(e);
    }
    if observe_filter && filter.is_some() {
        if let Some(m) = db.metrics() {
            m.stage_filter.observe(passed as f64);
        }
    }
    match sink_err {
        Some(e) => Err(e),
        None => Ok(passed),
    }
}

/// Fetch `(RowId, row)` pairs of `table` visible to `view` and matching
/// `where_clause` (index-accelerated when possible). Used by
/// UPDATE/DELETE.
pub fn collect_matching(
    db: &Database,
    view: &ReadView,
    table: &str,
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Result<Vec<(RowId, Vec<Value>)>> {
    let t = db
        .table(table)
        .ok_or_else(|| DbError::Catalog(format!("table {table} does not exist")))?;
    let path = choose_access_path(db, t, table, where_clause, params)?;
    let schema = RowSchema::for_table(table, &column_names(t));
    let filter = where_clause.map(|w| binder(db, &schema, params).bind(w));
    let input = Input::Heap {
        t,
        table: table.to_string(),
        path,
        view,
    };
    let mut out = Vec::new();
    drive(db, &input, filter.as_ref(), &[], false, |p| {
        out.push((p.rid.expect("heap rows carry their id"), p.to_row()?));
        Ok(())
    })?;
    Ok(out)
}

/// An in-memory relation a caller binds in place of a heap table (see
/// [`run_select_over`]): column names and owned rows, checked against
/// their SQL types when bound. No catalog data applies to a relation —
/// it has no index and renders no DATALINK tokens.
#[derive(Debug)]
pub struct Relation {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Bind `rows` under `columns`, with the checks an INSERT into a
    /// table of that shape applies: one value per column, each coerced
    /// to its column's type. A DATALINK column binds as CLOB text — link
    /// control stays with the database that owns the link, so a relation
    /// carries only the URL (NULL stays NULL).
    pub fn new(columns: &[(String, SqlType)], rows: Vec<Vec<Value>>) -> Result<Relation> {
        let typed: Vec<(&str, SqlType)> = columns
            .iter()
            .map(|(name, ty)| match ty {
                SqlType::Datalink => (name.as_str(), SqlType::Clob),
                ty => (name.as_str(), *ty),
            })
            .collect();
        let rows = rows
            .into_iter()
            .map(|row| {
                let row = row
                    .into_iter()
                    .map(|v| match v {
                        Value::Datalink(u) => Value::Str(u),
                        v => v,
                    })
                    .collect();
                coerce_row(&"relation", typed.iter().copied(), row)
            })
            .collect::<Result<_>>()?;
        Ok(Relation {
            columns: columns
                .iter()
                .map(|(c, _)| c.to_ascii_uppercase())
                .collect(),
            rows,
        })
    }
}

/// The row check an INSERT and a bound [`Relation`] share: one value
/// per column, each coerced to its column's type. `owner` names the
/// target in the width error.
pub(crate) fn coerce_row<'a>(
    owner: &dyn std::fmt::Display,
    columns: impl ExactSizeIterator<Item = (&'a str, SqlType)>,
    row: Vec<Value>,
) -> Result<Vec<Value>> {
    if row.len() != columns.len() {
        return Err(DbError::Type(format!(
            "row has {} values, {owner} has {} columns",
            row.len(),
            columns.len()
        )));
    }
    row.into_iter()
        .zip(columns)
        .map(|(v, (name, ty))| {
            v.coerce(ty)
                .map_err(|e| DbError::Type(format!("column {name}: {e}")))
        })
        .collect()
}

/// Execute a SELECT against a read view.
pub fn run_select(
    db: &Database,
    view: &ReadView,
    sel: &SelectStmt,
    params: &[Value],
) -> Result<ResultSet> {
    run_select_over(db, view, sel, params, Vec::new())
}

/// Execute a SELECT whose tables may be caller-bound [`Relation`]s:
/// `relations[0]` stands in for the FROM table and `relations[i]` for
/// the i-th JOIN table — by position, never by name; a missing or
/// `None` entry reads the named heap table. A bound relation is read in
/// full under the statement's alias for that position. This is how a
/// federation hub merges gathered rows without writing them anywhere.
pub fn run_select_over(
    db: &Database,
    view: &ReadView,
    sel: &SelectStmt,
    params: &[Value],
    relations: Vec<Option<Relation>>,
) -> Result<ResultSet> {
    let Some(from) = &sel.from else {
        return select_without_from(db, sel, params);
    };

    // ---- base table ----
    let base_alias = from
        .alias
        .clone()
        .unwrap_or_else(|| from.name.to_ascii_uppercase());
    // Alias -> heap table, for DATALINK rendering; bound relations have
    // no catalog entry and never appear here.
    let mut alias_map: HashMap<String, String> = HashMap::new();
    let mut bound = relations.into_iter();
    let (names, input) = match bound.next().flatten() {
        Some(rel) => {
            note_scan(db, false, rel.rows.len());
            (rel.columns, Input::Rows(rel.rows))
        }
        None => {
            let base_name = from.name.to_ascii_uppercase();
            alias_map.insert(base_alias.clone(), base_name.clone());
            let t = db
                .table(&from.name)
                .ok_or_else(|| DbError::Catalog(format!("table {} does not exist", from.name)))?;
            let path = choose_access_path(db, t, &base_alias, sel.where_clause.as_ref(), params)?;
            let input = Input::Heap {
                t,
                table: base_name,
                path,
                view,
            };
            (column_names(t), input)
        }
    };
    let mut schema = RowSchema::for_table(&base_alias, &names);
    if sel.joins.is_empty() {
        return select_rows(db, sel, params, &schema, &input, &alias_map);
    }

    // ---- joins ----
    let mut rows = input.into_rows(db)?;
    for join in &sel.joins {
        (schema, rows) = run_join(
            db,
            view,
            &schema,
            rows,
            join,
            params,
            &mut alias_map,
            bound.next().flatten(),
        )?;
    }
    if let Some(m) = db.metrics() {
        m.stage_join.observe(rows.len() as f64);
    }
    select_rows(db, sel, params, &schema, &Input::Rows(rows), &alias_map)
}

/// A table-less SELECT: its items evaluated once, against no row.
fn select_without_from(db: &Database, sel: &SelectStmt, params: &[Value]) -> Result<ResultSet> {
    let schema = RowSchema::default();
    let binder = binder(db, &schema, params);
    let mut columns = Vec::new();
    let mut row = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
                row.push(binder.bind(expr).eval(&[], &[])?.into_owned());
            }
            _ => return Err(DbError::Eval("wildcard requires FROM".into())),
        }
    }
    Ok(ResultSet {
        columns,
        rows: vec![row],
        affected: 0,
    })
}

/// WHERE, then aggregation or projection, then DISTINCT, ORDER BY and
/// LIMIT, over `input` rows shaped by `schema`.
fn select_rows(
    db: &Database,
    sel: &SelectStmt,
    params: &[Value],
    schema: &RowSchema,
    input: &Input,
    alias_map: &HashMap<String, String>,
) -> Result<ResultSet> {
    let binder = binder(db, schema, params);
    let filter = sel.where_clause.as_ref().map(|w| binder.bind(w));
    let has_agg = sel
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || sel.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || !sel.group_by.is_empty();
    if has_agg {
        let calls = aggregate_calls(sel);
        let mut agg = Aggregate::new(&binder, sel, &calls);
        let slots = agg.slots();
        drive(db, input, filter.as_ref(), &slots, true, |p| agg.push(&p))?;
        let mut out = Collector::new(sel);
        let (columns, groups) = project_groups(&binder, sel, &calls, agg.into_groups(), &mut out)?;
        if let Some(m) = db.metrics() {
            m.stage_aggregate.observe(groups as f64);
        }
        return out.finish(columns, db.metrics());
    }
    // The select list resolves its bare columns before any row is
    // projected — but after WHERE has seen every row.
    match Project::new(db, &binder, sel, alias_map) {
        Ok(mut project) => {
            let slots = project.slots();
            drive(db, input, filter.as_ref(), &slots, true, |p| {
                project.push(p.row)
            })?;
            project.out.finish(project.columns, db.metrics())
        }
        Err(e) => {
            drive(db, input, filter.as_ref(), &[], true, |_| Ok(()))?;
            Err(e)
        }
    }
}

/// Derive an output column name for an unaliased select item, exactly
/// as the aggregate pipeline labels its columns.
pub fn derive_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => "EXPR".to_string(),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_join(
    db: &Database,
    view: &ReadView,
    left_schema: &RowSchema,
    left_rows: Vec<Vec<Value>>,
    join: &Join,
    params: &[Value],
    alias_map: &mut HashMap<String, String>,
    bound: Option<Relation>,
) -> Result<(RowSchema, Vec<Vec<Value>>)> {
    let alias = join
        .table
        .alias
        .clone()
        .unwrap_or_else(|| join.table.name.to_ascii_uppercase());
    // The right side: a bound relation, or the heap table by name.
    let (rnames, heap, mut right_rows) = match bound {
        Some(rel) => (rel.columns, None, rel.rows),
        None => {
            let right_name = join.table.name.to_ascii_uppercase();
            alias_map.insert(alias.clone(), right_name.clone());
            let right = db.table(&join.table.name).ok_or_else(|| {
                DbError::Catalog(format!("table {} does not exist", join.table.name))
            })?;
            (column_names(right), Some((right_name, right)), Vec::new())
        }
    };
    let right_schema = RowSchema::for_table(&alias, &rnames);
    let out_schema = left_schema.join(&right_schema);
    let right_width = rnames.len();

    // An index probe per left row when the ON clause equates an indexed
    // right column with a left-side expression; otherwise every right row.
    let probe = match &heap {
        Some((right_name, right)) => {
            equi_probe(join, &alias, right, left_schema).map(|(ipos, lexpr)| {
                let key = binder(db, left_schema, params).bind(&lexpr);
                (
                    right,
                    &right.indexes[ipos],
                    key,
                    db.visibility(right_name, view),
                )
            })
        }
        None => None,
    };
    if let (Some((right_name, right)), None) = (&heap, &probe) {
        right_rows = fetch(db, view, right, right_name, &AccessPath::FullScan)?;
    }
    let on = binder(db, &out_schema, params).bind(&join.on);

    let mut out = Vec::new();
    let mut probed = Vec::new();
    for lrow in left_rows {
        let candidates = match &probe {
            Some((right, ix, key, vis)) => {
                let key = key.eval(&lrow, &[])?;
                probed.clear();
                if !key.is_null() {
                    for rid in ix.tree.get(std::slice::from_ref(key.as_ref())) {
                        if vis.visible(rid) {
                            probed.extend(right.heap.get(rid));
                        }
                    }
                }
                &probed
            }
            None => &right_rows,
        };
        let mut matched = false;
        for rrow in candidates {
            let mut combined = Vec::with_capacity(lrow.len() + right_width);
            combined.extend_from_slice(&lrow);
            combined.extend_from_slice(rrow);
            if on.truth(&combined)? == Some(true) {
                matched = true;
                out.push(combined);
            }
        }
        if !matched && join.kind == JoinKind::Left {
            let mut combined = lrow;
            combined.extend(std::iter::repeat_n(Value::Null, right_width));
            out.push(combined);
        }
    }
    Ok((out_schema, out))
}

/// Equi-join acceleration: find `right.col = <left expr>` in the ON
/// conjuncts where the right heap table has an index on `col`. Returns
/// the index position and the left-side key expression.
fn equi_probe(
    join: &Join,
    alias: &str,
    right: &Table,
    left_schema: &RowSchema,
) -> Option<(usize, Expr)> {
    for c in crate::plan::conjuncts(&join.on) {
        let Expr::Binary(l, crate::sql::ast::BinaryOp::Eq, r) = c else {
            continue;
        };
        for (a, b) in [(l, r), (r, l)] {
            if let Expr::Column {
                table: Some(t),
                name,
            } = a.as_ref()
            {
                if t.eq_ignore_ascii_case(alias) {
                    if let Some(cpos) = right.schema.column_index(name) {
                        if let Some(ipos) =
                            right.indexes.iter().position(|ix| ix.col_indices == [cpos])
                        {
                            // The other side must be evaluable on the left.
                            if expr_uses_only(b, left_schema) {
                                return Some((ipos, b.as_ref().clone()));
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

fn expr_uses_only(e: &Expr, schema: &RowSchema) -> bool {
    let mut ok = true;
    e.walk(&mut |n| {
        if let Expr::Column { table, name } = n {
            if schema.resolve(table.as_deref(), name).is_err() {
                ok = false;
            }
        }
    });
    ok
}

// ---- plain projection ----

/// One output column of a plain projection.
enum Out {
    /// A slot passed through, with the DATALINK spec of its heap column
    /// when SELECT output renders a token into it.
    Slot(usize, Option<DatalinkSpec>),
    /// The select-list expression at this index of `Project::exprs`.
    Expr(usize),
}

/// One ORDER BY key.
enum Key {
    /// A bare name matching an output column sorts by that column.
    Out(usize),
    /// Any other key evaluates over the input (or group) row.
    Expr(Bound),
}

/// ORDER BY keys for output `columns`, bound over `binder`'s rows with
/// the aggregate `calls` substituted.
fn order_keys(binder: &Binder, sel: &SelectStmt, columns: &[String], calls: &[Expr]) -> Vec<Key> {
    sel.order_by
        .iter()
        .map(|ob| {
            if let Expr::Column { table: None, name } = &ob.expr {
                if let Some(pos) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                    return Key::Out(pos);
                }
            }
            Key::Expr(binder.bind_with_aggs(&ob.expr, calls))
        })
        .collect()
}

/// The projection stage of a non-aggregate SELECT: evaluates the select
/// list and ORDER BY keys of each row that passed WHERE and offers the
/// output row to its [`Collector`], building it only if it can be kept.
struct Project<'a> {
    db: &'a Database,
    columns: Vec<String>,
    outs: Vec<Out>,
    exprs: Vec<Bound>,
    /// The current row's select-list expression values.
    vals: Vec<Value>,
    keys: Vec<Key>,
    /// The current row's ORDER BY key values (buffers reused).
    key_buf: Vec<Value>,
    out: Collector,
}

impl<'a> Project<'a> {
    /// Expand the select list over `binder`'s schema. Bare columns and
    /// wildcards resolve here, so an unknown one fails before any row.
    fn new(
        db: &'a Database,
        binder: &Binder,
        sel: &SelectStmt,
        alias_map: &HashMap<String, String>,
    ) -> Result<Project<'a>> {
        let schema = binder.schema;
        // The DATALINK spec of a slot's heap column, if it has one.
        let spec = |i: usize| {
            let cref = &schema.columns[i];
            let real = alias_map.get(cref.table.as_ref()?)?;
            db.schema(real)?.column(&cref.name)?.datalink.clone()
        };
        let mut columns = Vec::new();
        let mut outs = Vec::new();
        let mut exprs = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in schema.columns.iter().enumerate() {
                        columns.push(c.name.clone());
                        outs.push(Out::Slot(i, spec(i)));
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    let t = t.to_ascii_uppercase();
                    let mut any = false;
                    for (i, c) in schema.columns.iter().enumerate() {
                        if c.table.as_deref() == Some(t.as_str()) {
                            columns.push(c.name.clone());
                            outs.push(Out::Slot(i, spec(i)));
                            any = true;
                        }
                    }
                    if !any {
                        return Err(DbError::Eval(format!("unknown table alias {t} in {t}.*")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
                    // Column refs stay slots so DATALINK rendering applies.
                    match expr {
                        Expr::Column { table, name } => {
                            let i = schema.resolve(table.as_deref(), name)?;
                            outs.push(Out::Slot(i, spec(i)));
                        }
                        other => {
                            outs.push(Out::Expr(exprs.len()));
                            exprs.push(binder.bind(other));
                        }
                    }
                }
            }
        }
        let keys = order_keys(binder, sel, &columns, &[]);
        Ok(Project {
            db,
            vals: vec![Value::Null; exprs.len()],
            key_buf: vec![Value::Null; keys.len()],
            columns,
            outs,
            exprs,
            keys,
            out: Collector::new(sel),
        })
    }

    /// The input slots this stage reads.
    fn slots(&self) -> Vec<usize> {
        let mut slots = Vec::new();
        for o in &self.outs {
            if let Out::Slot(i, _) = o {
                slots.push(*i);
            }
        }
        for e in &self.exprs {
            e.slots(&mut slots);
        }
        for k in &self.keys {
            if let Key::Expr(e) = k {
                e.slots(&mut slots);
            }
        }
        slot_set(slots)
    }

    /// Project one row. A select-list error fails at once; an ORDER BY
    /// key error is held by the collector until every row is projected.
    fn push(&mut self, row: &[Value]) -> Result<()> {
        for (v, e) in self.vals.iter_mut().zip(&self.exprs) {
            *v = e.eval(row, &[])?.into_owned();
        }
        let keys = self.fill_keys(row).map(|()| self.key_buf.as_slice());
        let (db, outs, vals) = (self.db, &self.outs, &mut self.vals);
        self.out.offer(keys, || {
            outs.iter()
                .map(|o| match o {
                    Out::Slot(i, spec) => output_value(db, &row[*i], spec.as_ref()),
                    Out::Expr(j) => std::mem::replace(&mut vals[*j], Value::Null),
                })
                .collect()
        });
        Ok(())
    }

    /// Evaluate this row's ORDER BY keys into `key_buf`.
    fn fill_keys(&mut self, row: &[Value]) -> Result<()> {
        for (slot, key) in self.key_buf.iter_mut().zip(&self.keys) {
            match key {
                Key::Out(pos) => match &self.outs[*pos] {
                    Out::Slot(i, None) => assign(slot, &row[*i]),
                    Out::Slot(i, spec) => *slot = output_value(self.db, &row[*i], spec.as_ref()),
                    Out::Expr(j) => assign(slot, &self.vals[*j]),
                },
                Key::Expr(e) => match e.eval(row, &[])? {
                    Cow::Borrowed(v) => assign(slot, v),
                    Cow::Owned(v) => *slot = v,
                },
            }
        }
        Ok(())
    }
}

/// A slot's output value: DATALINK values of a linked column get their
/// access token rendered in.
fn output_value(db: &Database, v: &Value, spec: Option<&DatalinkSpec>) -> Value {
    match (v, spec) {
        (Value::Datalink(url), Some(spec)) => Value::Datalink(db.render_datalink(spec, url)),
        _ => v.clone(),
    }
}

/// `*dst = src.clone()`, reusing `dst`'s string buffer when both are
/// strings.
fn assign(dst: &mut Value, src: &Value) {
    match (dst, src) {
        (Value::Str(d), Value::Str(s)) => {
            d.clear();
            d.push_str(s);
        }
        (d, s) => *d = s.clone(),
    }
}

// ---- DISTINCT, ORDER BY, LIMIT ----

/// Compare two ORDER BY key lists; `asc[i]` orders key `i`.
fn cmp_keys(asc: &[bool], a: &[Value], b: &[Value]) -> Ordering {
    for ((x, y), asc) in a.iter().zip(b).zip(asc) {
        let ord = x.total_cmp(y);
        let ord = if *asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// An output row in a bounded top-k, ranked by its keys and then by
/// arrival, so ties keep arrival order exactly as a stable sort does.
struct Ranked {
    keys: Vec<Value>,
    seq: usize,
    row: Vec<Value>,
    asc: Rc<[bool]>,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_keys(&self.asc, &self.keys, &other.keys).then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Output rows, offered in arrival order with their ORDER BY keys.
/// DISTINCT drops a repeat on arrival; ORDER BY sorts stably, as a
/// bounded top-k under LIMIT; LIMIT truncates. An ORDER BY key that
/// failed to evaluate fails the statement when the collector finishes —
/// every row has been projected by then — and only if DISTINCT kept
/// its row.
struct Collector {
    seen: Option<HashSet<Vec<u8>>>,
    /// Ascending flag per ORDER BY key; empty without ORDER BY.
    asc: Rc<[bool]>,
    limit: Option<usize>,
    /// Kept rows and keys, when not a bounded top-k.
    rows: Vec<(Vec<Value>, Vec<Value>)>,
    /// The best `limit` rows so far, under ORDER BY + LIMIT.
    top: BinaryHeap<Ranked>,
    /// Rows that reached the sort (after DISTINCT).
    sorted: usize,
    key_err: Option<DbError>,
}

impl Collector {
    fn new(sel: &SelectStmt) -> Collector {
        Collector {
            seen: sel.distinct.then(HashSet::new),
            asc: sel.order_by.iter().map(|ob| ob.asc).collect(),
            limit: sel.limit,
            rows: Vec::new(),
            top: BinaryHeap::new(),
            sorted: 0,
            key_err: None,
        }
    }

    fn top_k(&self) -> Option<usize> {
        self.limit.filter(|_| !self.asc.is_empty())
    }

    /// Whether a row with `keys` could still reach the output. Under
    /// DISTINCT every row must be built, to be checked for a repeat.
    fn wants(&self, keys: &[Value]) -> bool {
        if self.seen.is_some() {
            return true;
        }
        match (self.limit, self.top_k()) {
            (None, _) => true,
            (Some(n), None) => self.rows.len() < n,
            (Some(n), Some(_)) => {
                self.top.len() < n
                    || self
                        .top
                        .peek()
                        .is_some_and(|worst| cmp_keys(&self.asc, keys, &worst.keys).is_lt())
            }
        }
    }

    /// Offer one output row: `keys` are its ORDER BY keys (or the error
    /// evaluating them), `build` makes the row, called only when the
    /// row might be kept.
    fn offer(&mut self, keys: Result<&[Value]>, build: impl FnOnce() -> Vec<Value>) {
        let keys = match keys {
            Ok(k) if !self.wants(k) => {
                self.sorted += 1;
                return;
            }
            Err(e) if self.seen.is_none() => {
                self.sorted += 1;
                self.key_err.get_or_insert(e);
                return;
            }
            keys => keys,
        };
        let row = build();
        if let Some(seen) = &mut self.seen {
            let mut buf = Vec::new();
            encode_row(&row, &mut buf);
            if !seen.insert(buf) {
                return;
            }
        }
        self.sorted += 1;
        let keys = match keys {
            Ok(k) => k.to_vec(),
            Err(e) => {
                self.key_err.get_or_insert(e);
                return;
            }
        };
        match self.top_k() {
            Some(n) => {
                self.top.push(Ranked {
                    keys,
                    seq: self.sorted,
                    row,
                    asc: self.asc.clone(),
                });
                if self.top.len() > n {
                    self.top.pop();
                }
            }
            None if self.limit.is_none_or(|n| self.rows.len() < n) => {
                self.rows.push((row, keys));
            }
            None => {}
        }
    }

    /// The result: a held key error, else the rows in output order.
    fn finish(self, columns: Vec<String>, metrics: Option<&DbMetrics>) -> Result<ResultSet> {
        if let Some(e) = self.key_err {
            return Err(e);
        }
        if !self.asc.is_empty() {
            if let Some(m) = metrics {
                m.stage_sort.observe(self.sorted as f64);
            }
        }
        let rows = if self.top_k().is_some() {
            self.top
                .into_sorted_vec()
                .into_iter()
                .map(|r| r.row)
                .collect()
        } else {
            let mut rows = self.rows;
            if !self.asc.is_empty() {
                rows.sort_by(|a, b| cmp_keys(&self.asc, &a.1, &b.1));
            }
            let mut rows: Vec<Vec<Value>> = rows.into_iter().map(|(r, _)| r).collect();
            if let Some(n) = self.limit {
                rows.truncate(n);
            }
            rows
        };
        if let Some(m) = metrics {
            m.rows_returned.add(rows.len() as f64);
        }
        Ok(ResultSet {
            columns,
            rows,
            affected: 0,
        })
    }
}

/// Finish an aggregate SELECT from groups built elsewhere — HAVING, the
/// select list, DISTINCT, ORDER BY and LIMIT, exactly as [`run_select`]
/// does after grouping its own rows. `schema` is the shape of each
/// group's representative row. Records no `easia_db_*` metrics.
pub fn finish_groups(
    db: &Database,
    sel: &SelectStmt,
    schema: &RowSchema,
    groups: Vec<AggGroup>,
    params: &[Value],
) -> Result<ResultSet> {
    let calls = aggregate_calls(sel);
    let mut out = Collector::new(sel);
    let binder = binder(db, schema, params);
    let (columns, _) = project_groups(&binder, sel, &calls, groups, &mut out)?;
    out.finish(columns, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(db: &Database, sql: &str, params: &[Value]) -> Vec<Vec<Value>> {
        db.query(sql, params)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
            .rows
    }

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<String> {
        let mut out: Vec<String> = rows.drain(..).map(|r| format!("{r:?}")).collect();
        out.sort();
        out
    }

    #[test]
    fn composite_index_probe_matches_a_forced_full_scan() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(5), C DOUBLE, D INTEGER)")
            .unwrap();
        db.execute("CREATE INDEX IX_ABC ON T (A, B, C)").unwrap();
        // Duplicated keys, NULLs in every key column, enough rows for a
        // multi-level tree.
        for i in 0..400i64 {
            let a = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i % 5)
            };
            let b = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Str(["x", "y", "z"][(i % 3) as usize].into())
            };
            let c = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Double((i % 4) as f64)
            };
            db.execute_with_params(
                "INSERT INTO T VALUES (?, ?, ?, ?)",
                &[a, b, c, Value::Int(i)],
            )
            .unwrap();
        }
        assert!(db.table("T").unwrap().indexes[0].tree.height() >= 2);
        let probes = [
            Value::Int(0),
            Value::Int(3),
            Value::Int(4),
            Value::Int(9),
            // An INTEGER column probed with an equal DOUBLE: SQL
            // equality holds, so the index must find those rows too.
            Value::Double(2.0),
            Value::Double(2.5),
        ];
        for probe in probes {
            let p = std::slice::from_ref(&probe);
            let t = db.table("T").unwrap();
            let w = crate::sql::parse("SELECT * FROM T WHERE A = ?").unwrap();
            let crate::sql::Stmt::Select(sel) = w else {
                unreachable!()
            };
            let path = choose_access_path(&db, t, "T", sel.where_clause.as_ref(), p).unwrap();
            assert!(
                matches!(path, AccessPath::IndexEq { index_pos: 0, .. }),
                "{path:?}"
            );
            // The probe's candidates are exactly the rows whose leading
            // key equals the probe — nothing more is walked.
            let view = db.read_view();
            let got: Vec<RowId> = candidates(&db, &view, t, "T", &path)
                .map(|(rid, _)| rid)
                .collect();
            let mut want: Vec<RowId> = candidates(&db, &view, t, "T", &AccessPath::FullScan)
                .filter(|(_, rec)| {
                    decode_row(rec, &mut 0).unwrap()[0]
                        .total_cmp(&probe)
                        .is_eq()
                })
                .map(|(rid, _)| rid)
                .collect();
            let mut got_sorted = got.clone();
            got_sorted.sort();
            want.sort();
            assert_eq!(got_sorted, want, "{probe:?}");
            for (sql, forced) in [
                (
                    "SELECT * FROM T WHERE A = ?",
                    "SELECT * FROM T WHERE A = ? OR 1 = 0",
                ),
                (
                    "SELECT D FROM T WHERE A = ? AND B = 'y'",
                    "SELECT D FROM T WHERE (A = ? OR 1 = 0) AND B = 'y'",
                ),
                (
                    "SELECT COUNT(*), SUM(D) FROM T WHERE A = ? AND C IS NULL",
                    "SELECT COUNT(*), SUM(D) FROM T WHERE (A = ? OR 1 = 0) AND C IS NULL",
                ),
            ] {
                assert_eq!(
                    sorted(select(&db, sql, p)),
                    sorted(select(&db, forced, p)),
                    "{sql} with {probe:?}"
                );
            }
        }
    }

    #[test]
    fn counters_match_the_staged_pipeline() {
        let registry = easia_obs::Registry::new();
        let mut db = Database::new_in_memory();
        db.attach_metrics(&registry);
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(5))")
            .unwrap();
        for i in 0..20i64 {
            db.execute_with_params(
                "INSERT INTO T VALUES (?, ?)",
                &[Value::Int(i % 4), Value::Str(format!("b{i}"))],
            )
            .unwrap();
        }
        let m = db.metrics().unwrap();
        let before = (
            m.rows_scanned.get(),
            m.rows_returned.get(),
            m.heap_scans.get(),
        );
        // A WHERE error after a select-list error still scans every row.
        assert!(db
            .query("SELECT A + NOPE FROM T WHERE A < 3 OR ZAP = 1", &[])
            .is_err());
        // Top-k returns LIMIT rows; the scan still counts every row.
        let rs = db
            .query("SELECT B FROM T WHERE A <> 1 ORDER BY B DESC LIMIT 3", &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        let m = db.metrics().unwrap();
        assert_eq!(m.rows_scanned.get() - before.0, 40.0);
        assert_eq!(m.rows_returned.get() - before.1, 3.0);
        assert_eq!(m.heap_scans.get() - before.2, 2.0);
    }
}
