//! Query execution.

use crate::db::{Database, ResultSet, Table};
use crate::error::{DbError, Result};
use crate::expr::{truth, EvalContext, FnRegistry, RowSchema};
use crate::mvcc::ReadView;
use crate::obs::DbMetrics;
use crate::plan::{choose_access_path, AccessPath};
use crate::sql::ast::{Expr, Join, JoinKind, OrderBy, SelectItem, SelectStmt};
use crate::storage::RowId;
use crate::value::{encode_row, SqlType, Value};
use std::collections::HashMap;

/// Evaluate a row-independent expression (INSERT values, constants).
pub fn eval_const(db: &Database, expr: &Expr, params: &[Value]) -> Result<Value> {
    let schema = RowSchema::default();
    let ctx = EvalContext {
        schema: &schema,
        row: &[],
        params,
        functions: db.functions(),
    };
    ctx.eval(expr)
}

/// Evaluate an expression against one row of `table`.
pub fn eval_row(
    db: &Database,
    expr: &Expr,
    table: &str,
    row: &[Value],
    params: &[Value],
) -> Result<Value> {
    let names: Vec<String> = db
        .schema(table)
        .ok_or_else(|| DbError::Catalog(format!("table {table} does not exist")))?
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let schema = RowSchema::for_table(table, &names);
    let ctx = EvalContext {
        schema: &schema,
        row,
        params,
        functions: db.functions(),
    };
    ctx.eval(expr)
}

fn column_names(t: &Table) -> Vec<String> {
    t.schema.columns.iter().map(|c| c.name.clone()).collect()
}

/// The `(RowId, row)` pairs of heap table `t` (named `table`) visible to
/// `view` along `path`.
fn fetch(
    db: &Database,
    view: &ReadView,
    t: &Table,
    table: &str,
    path: AccessPath,
) -> Vec<(RowId, Vec<Value>)> {
    match path {
        AccessPath::FullScan => t
            .heap
            .scan()
            .filter(|(rid, _)| db.row_visible(table, *rid, view))
            .collect(),
        AccessPath::IndexEq { index_pos, key, .. } => {
            let ix = &t.indexes[index_pos];
            let rids = if ix.col_indices.len() == 1 {
                ix.tree.get(std::slice::from_ref(&key))
            } else {
                // Composite index: range over entries whose first column
                // equals the probe key.
                ix.tree
                    .range(None, None)
                    .into_iter()
                    .filter(|(k, _)| k.first() == Some(&key))
                    .flat_map(|(_, rows)| rows)
                    .collect()
            };
            rids.into_iter()
                .filter(|rid| db.row_visible(table, *rid, view))
                .filter_map(|rid| t.heap.get(rid).map(|row| (rid, row)))
                .collect()
        }
    }
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
    let index_probe = matches!(path, AccessPath::IndexEq { .. });
    let candidates = fetch(db, view, t, table, path);
    note_scan(db, index_probe, candidates.len());
    let schema = RowSchema::for_table(table, &column_names(t));
    let mut out = Vec::new();
    for (rid, row) in candidates {
        let keep = match where_clause {
            None => true,
            Some(pred) => {
                let ctx = EvalContext {
                    schema: &schema,
                    row: &row,
                    params,
                    functions: db.functions(),
                };
                truth(&ctx.eval(pred)?) == Some(true)
            }
        };
        if keep {
            out.push((rid, row));
        }
    }
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
    // Table-less SELECT: evaluate items against an empty row.
    let Some(from) = &sel.from else {
        let schema = RowSchema::default();
        let ctx = EvalContext {
            schema: &schema,
            row: &[],
            params,
            functions: db.functions(),
        };
        let mut columns = Vec::new();
        let mut row = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Expr { expr, alias } => {
                    columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
                    row.push(ctx.eval(expr)?);
                }
                _ => return Err(DbError::Eval("wildcard requires FROM".into())),
            }
        }
        return Ok(ResultSet {
            columns,
            rows: vec![row],
            affected: 0,
        });
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
    let (names, mut rows, index_probe) = match bound.next().flatten() {
        Some(rel) => (rel.columns, rel.rows, false),
        None => {
            let base_name = from.name.to_ascii_uppercase();
            alias_map.insert(base_alias.clone(), base_name.clone());
            let base_table = db
                .table(&from.name)
                .ok_or_else(|| DbError::Catalog(format!("table {} does not exist", from.name)))?;
            let path = choose_access_path(
                db,
                base_table,
                &base_alias,
                sel.where_clause.as_ref(),
                params,
            )?;
            let index_probe = matches!(path, AccessPath::IndexEq { .. });
            let rows = fetch(db, view, base_table, &base_name, path)
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            (column_names(base_table), rows, index_probe)
        }
    };
    let mut schema = RowSchema::for_table(&base_alias, &names);
    note_scan(db, index_probe, rows.len());

    // ---- joins ----
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
    if !sel.joins.is_empty() {
        if let Some(m) = db.metrics() {
            m.stage_join.observe(rows.len() as f64);
        }
    }

    // ---- WHERE ----
    if let Some(pred) = &sel.where_clause {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            let ctx = EvalContext {
                schema: &schema,
                row: &row,
                params,
                functions: db.functions(),
            };
            if truth(&ctx.eval(pred)?) == Some(true) {
                kept.push(row);
            }
        }
        rows = kept;
        if let Some(m) = db.metrics() {
            m.stage_filter.observe(rows.len() as f64);
        }
    }

    // ---- aggregation or plain projection ----
    let has_agg = sel
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || sel.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || !sel.group_by.is_empty();

    let projection = if has_agg {
        let out = aggregate_pipeline(db.functions(), sel, &schema, &rows, params)?;
        if let Some(m) = db.metrics() {
            m.stage_aggregate.observe(out.1.len() as f64);
        }
        out
    } else {
        project_pipeline(db, sel, &schema, &rows, params, &alias_map)?
    };
    finish_select(
        db.functions(),
        db.metrics(),
        sel,
        &schema,
        projection,
        params,
    )
}

/// Projected output: column names, rows, and per-row sort context.
type Projection = (Vec<String>, Vec<Vec<Value>>, Vec<SortCtx>);

/// Per-output-row context used to evaluate ORDER BY: the underlying
/// (joined or representative) row plus any aggregate values.
struct SortCtx {
    row: Vec<Value>,
    aggs: HashMap<String, Value>,
}

/// DISTINCT, ORDER BY and LIMIT over a projection. ORDER BY keys
/// evaluate against `schema`, the shape of each sort-context row.
fn finish_select(
    fns: &FnRegistry,
    metrics: Option<&DbMetrics>,
    sel: &SelectStmt,
    schema: &RowSchema,
    (columns, mut out_rows, mut sort_ctx): Projection,
    params: &[Value],
) -> Result<ResultSet> {
    if sel.distinct {
        let mut seen = std::collections::HashSet::new();
        let mut kept_rows = Vec::new();
        let mut kept_ctx = Vec::new();
        for (row, ctx) in out_rows.into_iter().zip(sort_ctx) {
            let mut buf = Vec::new();
            encode_row(&row, &mut buf);
            if seen.insert(buf) {
                kept_rows.push(row);
                kept_ctx.push(ctx);
            }
        }
        out_rows = kept_rows;
        sort_ctx = kept_ctx;
    }
    if !sel.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(out_rows.len());
        for (row, ctx) in out_rows.iter().zip(&sort_ctx) {
            let mut keys = Vec::with_capacity(sel.order_by.len());
            for ob in &sel.order_by {
                keys.push(order_key(fns, ob, schema, ctx, row, &columns, params)?);
            }
            keyed.push((keys, row.clone()));
        }
        keyed.sort_by(|a, b| {
            for (i, ob) in sel.order_by.iter().enumerate() {
                let ord = a.0[i].total_cmp(&b.0[i]);
                let ord = if ob.asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        out_rows = keyed.into_iter().map(|(_, r)| r).collect();
        if let Some(m) = metrics {
            m.stage_sort.observe(out_rows.len() as f64);
        }
    }
    if let Some(limit) = sel.limit {
        out_rows.truncate(limit);
    }
    if let Some(m) = metrics {
        m.rows_returned.add(out_rows.len() as f64);
    }
    Ok(ResultSet {
        columns,
        rows: out_rows,
        affected: 0,
    })
}

fn order_key(
    fns: &FnRegistry,
    ob: &OrderBy,
    schema: &RowSchema,
    ctx: &SortCtx,
    out_row: &[Value],
    columns: &[String],
    params: &[Value],
) -> Result<Value> {
    // A bare column matching an output alias sorts by the output column.
    if let Expr::Column { table: None, name } = &ob.expr {
        if let Some(pos) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
            return Ok(out_row[pos].clone());
        }
    }
    eval_with_aggs(fns, &ob.expr, schema, &ctx.row, &ctx.aggs, params)
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

    let probe = heap
        .as_ref()
        .and_then(|(_, right)| equi_probe(join, &alias, right, left_schema));
    if let (Some((right_name, right)), None) = (&heap, &probe) {
        right_rows = right
            .heap
            .scan()
            .filter(|(rid, _)| db.row_visible(right_name, *rid, view))
            .map(|(_, r)| r)
            .collect();
    }

    let mut out = Vec::new();
    for lrow in left_rows {
        let mut matched = false;
        let candidates: Vec<Vec<Value>> = match (&heap, &probe) {
            (Some((right_name, right)), Some((ipos, lexpr))) => {
                let lctx = EvalContext {
                    schema: left_schema,
                    row: &lrow,
                    params,
                    functions: db.functions(),
                };
                let key = lctx.eval(lexpr)?;
                if key.is_null() {
                    Vec::new()
                } else {
                    right.indexes[*ipos]
                        .tree
                        .get(&[key])
                        .into_iter()
                        .filter(|rid| db.row_visible(right_name, *rid, view))
                        .filter_map(|rid| right.heap.get(rid))
                        .collect()
                }
            }
            _ => right_rows.clone(),
        };
        for rrow in candidates {
            let mut combined = lrow.clone();
            combined.extend(rrow);
            let ctx = EvalContext {
                schema: &out_schema,
                row: &combined,
                params,
                functions: db.functions(),
            };
            if truth(&ctx.eval(&join.on)?) == Some(true) {
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

fn project_pipeline(
    db: &Database,
    sel: &SelectStmt,
    schema: &RowSchema,
    rows: &[Vec<Value>],
    params: &[Value],
    alias_map: &HashMap<String, String>,
) -> Result<Projection> {
    // Expand items to (name, kind) where kind is either a slot index
    // (column passthrough, datalink-rendered) or an expression.
    enum Out {
        Slot(usize),
        Expr(Expr),
    }
    let mut columns = Vec::new();
    let mut outs = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in schema.columns.iter().enumerate() {
                    columns.push(c.name.clone());
                    outs.push(Out::Slot(i));
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let t = t.to_ascii_uppercase();
                let mut any = false;
                for (i, c) in schema.columns.iter().enumerate() {
                    if c.table.as_deref() == Some(t.as_str()) {
                        columns.push(c.name.clone());
                        outs.push(Out::Slot(i));
                        any = true;
                    }
                }
                if !any {
                    return Err(DbError::Eval(format!("unknown table alias {t} in {t}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
                // Column refs become slots so DATALINK rendering applies.
                match expr {
                    Expr::Column { table, name } => {
                        let i = schema.resolve(table.as_deref(), name)?;
                        outs.push(Out::Slot(i));
                    }
                    other => outs.push(Out::Expr(other.clone())),
                }
            }
        }
    }
    // Slot -> datalink spec mapping for token rendering.
    let mut dl_specs: HashMap<usize, crate::schema::DatalinkSpec> = HashMap::new();
    for (i, cref) in schema.columns.iter().enumerate() {
        if let Some(alias) = &cref.table {
            if let Some(real) = alias_map.get(alias) {
                if let Some(ts) = db.schema(real) {
                    if let Some(col) = ts.column(&cref.name) {
                        if let Some(spec) = &col.datalink {
                            dl_specs.insert(i, spec.clone());
                        }
                    }
                }
            }
        }
    }
    let mut out_rows = Vec::with_capacity(rows.len());
    let mut sort_ctx = Vec::with_capacity(rows.len());
    for row in rows {
        let ctx = EvalContext {
            schema,
            row,
            params,
            functions: db.functions(),
        };
        let mut out = Vec::with_capacity(outs.len());
        for o in &outs {
            match o {
                Out::Slot(i) => {
                    let v = row[*i].clone();
                    let v = match (&v, dl_specs.get(i)) {
                        (Value::Datalink(url), Some(spec)) => {
                            Value::Datalink(db.render_datalink(spec, url))
                        }
                        _ => v,
                    };
                    out.push(v);
                }
                Out::Expr(e) => out.push(ctx.eval(e)?),
            }
        }
        out_rows.push(out);
        sort_ctx.push(SortCtx {
            row: row.clone(),
            aggs: HashMap::new(),
        });
    }
    Ok((columns, out_rows, sort_ctx))
}

// ---- aggregation ----

/// Canonical identity key for an aggregate call site, used to dedup
/// repeated occurrences of the same call (e.g. `AVG(X)` in the item
/// list and again in HAVING).
fn agg_key(e: &Expr) -> String {
    format!("{e:?}")
}

/// True when `name` is one of the supported aggregate functions.
pub fn is_aggregate_fn(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

/// Collect aggregate call sites from an expression, deduplicated by
/// [`agg_key`], in first-appearance order. Does not recurse into
/// aggregate arguments (nested aggregates are invalid SQL).
fn collect_aggs(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Function { name, .. } = e {
        if is_aggregate_fn(name) {
            if !out.iter().any(|x| agg_key(x) == agg_key(e)) {
                out.push(e.clone());
            }
            return; // nested aggregates are invalid; don't recurse
        }
    }
    match e {
        Expr::Unary(_, inner) => collect_aggs(inner, out),
        Expr::Binary(l, _, r) => {
            collect_aggs(l, out);
            collect_aggs(r, out);
        }
        Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        Expr::Like { expr, pattern, .. } => {
            collect_aggs(expr, out);
            collect_aggs(pattern, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            for i in list {
                collect_aggs(i, out);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_aggs(expr, out);
            collect_aggs(lo, out);
            collect_aggs(hi, out);
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggs(a, out);
            }
        }
        _ => {}
    }
}

/// The aggregate calls of `sel` — select list, then HAVING, then ORDER
/// BY, deduplicated by `agg_key` — in the order every
/// [`AggGroup::states`] follows.
pub fn aggregate_calls(sel: &SelectStmt) -> Vec<Expr> {
    let mut calls = Vec::new();
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggs(expr, &mut calls);
        }
    }
    if let Some(h) = &sel.having {
        collect_aggs(h, &mut calls);
    }
    for ob in &sel.order_by {
        collect_aggs(&ob.expr, &mut calls);
    }
    calls
}

/// Running state of one aggregate call over one group — the single
/// aggregate kernel. The executor absorbs every input row into it; the
/// hub merge of partial-aggregate pushdown folds each partition's
/// shipped partial state in with [`AggState::merge_partial`]. Both then
/// finish through the same code.
#[derive(Debug, Clone, Default)]
pub struct AggState {
    count: i64,
    sum: f64,
    sum_is_int: bool,
    int_sum: i64,
    min: Option<Value>,
    max: Option<Value>,
    non_null: i64,
}

impl AggState {
    /// Absorb one argument value of aggregate `name`; NULL contributes
    /// nothing.
    fn absorb(&mut self, name: &str, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match name {
            "COUNT" => {}
            "SUM" | "AVG" => self.add_sum(name, v)?,
            "MIN" => {
                if self
                    .min
                    .as_ref()
                    .is_none_or(|m| v.total_cmp(m) == std::cmp::Ordering::Less)
                {
                    self.min = Some(v.clone());
                }
            }
            "MAX" => {
                if self
                    .max
                    .as_ref()
                    .is_none_or(|m| v.total_cmp(m) == std::cmp::Ordering::Greater)
                {
                    self.max = Some(v.clone());
                }
            }
            other => return Err(DbError::Eval(format!("unknown aggregate {other}"))),
        }
        self.non_null += 1;
        Ok(())
    }

    /// Add the non-NULL `v` to the running SUM. The sum stays an exact
    /// i64 while every value summed is an integer (the first one decides)
    /// and promotes to DOUBLE on i64 overflow (see DESIGN.md, "aggregate
    /// overflow policy"); the f64 shadow sum always accumulates.
    fn add_sum(&mut self, name: &str, v: &Value) -> Result<()> {
        match v {
            Value::Int(i) => {
                if self.non_null == 0 {
                    self.sum_is_int = true;
                }
                if self.sum_is_int {
                    match self.int_sum.checked_add(*i) {
                        Some(s) => self.int_sum = s,
                        None => self.sum_is_int = false,
                    }
                }
                self.sum += *i as f64;
            }
            other => {
                let n = other.numeric().ok_or_else(|| {
                    DbError::Type(format!("{name} over non-numeric {}", other.type_name()))
                })?;
                self.sum_is_int = false;
                self.sum += n;
            }
        }
        Ok(())
    }

    /// Fold one partition's partial state for aggregate call `agg` into
    /// this state — the hub side of partial-aggregate pushdown.
    /// `partial` is what the partition's own executor computed: its
    /// COUNT for COUNT; its SUM, MIN or MAX for those; and the SUM then
    /// the COUNT of the argument for AVG. A partition's SUM, MIN or MAX
    /// folds in exactly like one more input value, so merged sums keep
    /// the executor's i64-overflow promotion to DOUBLE.
    pub fn merge_partial(&mut self, agg: &Expr, partial: &[&Value]) -> Result<()> {
        let Expr::Function { name, star, .. } = agg else {
            return Err(DbError::Eval("partial state for a non-aggregate".into()));
        };
        let count = |v: &Value| match v {
            Value::Int(n) => *n,
            _ => 0,
        };
        match (name.as_str(), partial) {
            ("COUNT", [n]) if *star => self.count += count(n),
            ("COUNT", [n]) => self.non_null += count(n),
            ("SUM" | "MIN" | "MAX", [v]) => self.absorb(name, v)?,
            ("AVG", [sum, n]) => {
                // The SUM folds in as one value; the non-NULL tally is
                // the partition's COUNT.
                if !sum.is_null() {
                    self.add_sum(name, sum)?;
                }
                self.non_null += count(n);
            }
            _ => {
                return Err(DbError::Eval(format!(
                    "partial state for {name} carries {} values",
                    partial.len()
                )))
            }
        }
        Ok(())
    }

    /// The aggregate's final value.
    fn finish(&self, name: &str, star: bool) -> Value {
        match name {
            // COUNT(*) counts rows; COUNT(col) counts non-NULL values.
            // The two tallies are kept separate — conflating them
            // over-reports COUNT(col) on NULL-containing columns.
            "COUNT" => Value::Int(if star { self.count } else { self.non_null }),
            "SUM" => {
                if self.non_null == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Int(self.int_sum)
                } else {
                    Value::Double(self.sum)
                }
            }
            "AVG" => {
                if self.non_null == 0 {
                    Value::Null
                } else {
                    let total = if self.sum_is_int {
                        self.int_sum as f64
                    } else {
                        self.sum
                    };
                    Value::Double(total / self.non_null as f64)
                }
            }
            "MIN" => self.min.clone().unwrap_or(Value::Null),
            "MAX" => self.max.clone().unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }
}

/// One group of an aggregate SELECT: a representative input row (what
/// non-aggregate expressions in HAVING, the select list and ORDER BY
/// read) and one state per call of [`aggregate_calls`].
#[derive(Debug)]
pub struct AggGroup {
    /// Representative input row.
    pub rep: Vec<Value>,
    /// Aggregate states, in [`aggregate_calls`] order.
    pub states: Vec<AggState>,
}

fn aggregate_pipeline(
    fns: &FnRegistry,
    sel: &SelectStmt,
    schema: &RowSchema,
    rows: &[Vec<Value>],
    params: &[Value],
) -> Result<Projection> {
    let calls = aggregate_calls(sel);
    let mut groups: Vec<AggGroup> = Vec::new();
    let mut group_index: HashMap<Vec<u8>, usize> = HashMap::new();
    for row in rows {
        let ctx = EvalContext {
            schema,
            row,
            params,
            functions: fns,
        };
        let key_vals: Vec<Value> = sel
            .group_by
            .iter()
            .map(|e| ctx.eval(e))
            .collect::<Result<_>>()?;
        let mut key = Vec::new();
        encode_row(&key_vals, &mut key);
        let gi = *group_index.entry(key).or_insert_with(|| {
            groups.push(AggGroup {
                rep: row.clone(),
                states: vec![AggState::default(); calls.len()],
            });
            groups.len() - 1
        });
        for (st, call) in groups[gi].states.iter_mut().zip(&calls) {
            let Expr::Function { name, args, star } = call else {
                unreachable!("collect_aggs only collects functions");
            };
            if *star {
                st.count += 1;
            } else {
                st.absorb(name, &ctx.eval(&args[0])?)?;
            }
        }
    }
    project_groups(fns, sel, schema, &calls, groups, params)
}

/// HAVING and the select list over finished groups.
fn project_groups(
    fns: &FnRegistry,
    sel: &SelectStmt,
    schema: &RowSchema,
    calls: &[Expr],
    mut groups: Vec<AggGroup>,
    params: &[Value],
) -> Result<Projection> {
    // A global aggregate over zero rows still yields one group.
    if groups.is_empty() && sel.group_by.is_empty() {
        groups.push(AggGroup {
            rep: vec![Value::Null; schema.columns.len()],
            states: vec![AggState::default(); calls.len()],
        });
    }
    let mut columns = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
            }
            _ => {
                return Err(DbError::Eval(
                    "wildcard not allowed with GROUP BY / aggregates".into(),
                ))
            }
        }
    }
    let mut out_rows = Vec::new();
    let mut sort_ctx = Vec::new();
    for g in groups {
        let mut aggs = HashMap::new();
        for (st, call) in g.states.iter().zip(calls) {
            let Expr::Function { name, star, .. } = call else {
                unreachable!("collect_aggs only collects functions")
            };
            aggs.insert(agg_key(call), st.finish(name, *star));
        }
        if let Some(h) = &sel.having {
            let v = eval_with_aggs(fns, h, schema, &g.rep, &aggs, params)?;
            if truth(&v) != Some(true) {
                continue;
            }
        }
        let mut out = Vec::with_capacity(sel.items.len());
        for item in &sel.items {
            if let SelectItem::Expr { expr, .. } = item {
                out.push(eval_with_aggs(fns, expr, schema, &g.rep, &aggs, params)?);
            }
        }
        out_rows.push(out);
        sort_ctx.push(SortCtx { row: g.rep, aggs });
    }
    Ok((columns, out_rows, sort_ctx))
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
    let projection = project_groups(db.functions(), sel, schema, &calls, groups, params)?;
    finish_select(db.functions(), None, sel, schema, projection, params)
}

/// Evaluate an expression, substituting pre-computed aggregate values.
fn eval_with_aggs(
    fns: &FnRegistry,
    e: &Expr,
    schema: &RowSchema,
    row: &[Value],
    aggs: &HashMap<String, Value>,
    params: &[Value],
) -> Result<Value> {
    if let Some(v) = aggs.get(&agg_key(e)) {
        return Ok(v.clone());
    }
    let ctx = EvalContext {
        schema,
        row,
        params,
        functions: fns,
    };
    match e {
        // Rebuild composite expressions so nested aggregates resolve.
        Expr::Unary(op, inner) => {
            let v = eval_with_aggs(fns, inner, schema, row, aggs, params)?;
            ctx.eval(&Expr::Unary(*op, Box::new(Expr::Literal(v))))
        }
        Expr::Binary(l, op, r) => {
            let lv = eval_with_aggs(fns, l, schema, row, aggs, params)?;
            let rv = eval_with_aggs(fns, r, schema, row, aggs, params)?;
            ctx.eval(&Expr::Binary(
                Box::new(Expr::Literal(lv)),
                *op,
                Box::new(Expr::Literal(rv)),
            ))
        }
        other => ctx.eval(other),
    }
}
