//! The hub-side distributed planner.
//!
//! Given a parsed SELECT over one foreign table, decide per conjunct
//! whether it can run at the sites (predicate pushdown), which columns
//! must cross the wire (projection pushdown), whether ORDER BY/LIMIT
//! can be pushed (top-k merge: every site ships at most `limit` rows),
//! and which partitions a site-key binding allows us to skip entirely
//! (partition pruning).
//!
//! Correctness story: the hub re-runs the *original* statement with the
//! shipped rows bound in place of the foreign table, so pushdown only ever
//! removes rows/columns that provably cannot influence the result —
//! pushed conjuncts are row-local filters (evaluating them twice is
//! idempotent), the shipped projection includes every column the
//! statement mentions, and ORDER BY/LIMIT is only pushed when the
//! hub's final sort-and-cut over the union reproduces it.

use crate::catalog::{FedCatalog, ForeignTable};
use crate::wire::{AggCall, PartialAggSpec};
use crate::FedError;
use easia_db::exec::{aggregate_calls, derive_name, is_aggregate_fn};
use easia_db::sql::ast::{BinaryOp, Expr, JoinKind, OrderBy, SelectItem, SelectStmt, TableRef};
use easia_db::sql::expr_to_sql;
use easia_db::{plan, Value};
use std::collections::BTreeSet;

/// The decomposition of an aggregate statement into site-local partial
/// aggregates plus a hub-side merge: each site ships one partial-state
/// row per group instead of its raw rows.
#[derive(Debug, Clone)]
pub struct AggPlan {
    /// Bare grouping columns (upper-case), in GROUP BY order.
    pub group_cols: Vec<String>,
    /// Deduplicated partial calls each site computes locally.
    pub calls: Vec<AggCall>,
    /// Per original aggregate call, in the executor's
    /// `exec::aggregate_calls` order: the positions in `calls` of the
    /// partials it merges — one, or the SUM then the COUNT for AVG (the
    /// layout `AggState::merge_partial` takes).
    pub inputs: Vec<Vec<usize>>,
}

impl AggPlan {
    /// The wire form of this plan's site-side work.
    pub fn spec(&self) -> PartialAggSpec {
        PartialAggSpec {
            group_by: self.group_cols.clone(),
            calls: self.calls.clone(),
        }
    }
}

/// The per-table federation plan.
#[derive(Debug, Clone)]
pub struct TablePlan {
    /// Conjuncts evaluated at the sites (original form, for display).
    pub pushed: Vec<Expr>,
    /// Conjuncts only the hub can evaluate.
    pub hub_eval: Vec<Expr>,
    /// Shipped columns, in foreign-schema order. Never empty.
    pub columns: Vec<String>,
    /// Pushed top-k: `(order keys, limit)` when sites may cut early.
    pub order_limit: Option<(Vec<(String, bool)>, usize)>,
    /// The site-key value bound by an equality conjunct, when one
    /// exists — the pruning handle.
    pub site_key_value: Option<Value>,
    /// Partial-aggregate pushdown decomposition, when the statement
    /// aggregates and every shape is decomposable.
    pub partial_agg: Option<AggPlan>,
    /// Why an aggregate statement declined partial pushdown (ships raw
    /// rows and re-aggregates at the hub instead). `None` for
    /// non-aggregate statements or when `partial_agg` is set.
    pub agg_fallback: Option<&'static str>,
}

impl TablePlan {
    /// Pushed conjuncts rendered as SQL (for EXPLAIN).
    pub fn pushed_sql(&self) -> Vec<String> {
        self.pushed.iter().map(expr_to_sql).collect()
    }

    /// Hub-evaluated conjuncts rendered as SQL (for EXPLAIN).
    pub fn hub_sql(&self) -> Vec<String> {
        self.hub_eval.iter().map(expr_to_sql).collect()
    }
}

/// Build the plan for `sel` against foreign table `ft`.
///
/// `params` are the statement's positional parameters — needed to
/// resolve a `site_key = ?` binding for pruning.
pub fn plan_select(
    sel: &SelectStmt,
    ft: &ForeignTable,
    params: &[Value],
) -> Result<TablePlan, FedError> {
    if !sel.joins.is_empty() {
        return Err(FedError::Unsupported(
            "JOIN over a foreign table is not federated".into(),
        ));
    }
    let col_set: BTreeSet<&str> = ft.columns.iter().map(|(c, _)| c.as_str()).collect();
    let alias = sel
        .from
        .as_ref()
        .and_then(|t| t.alias.clone())
        .unwrap_or_else(|| ft.name.clone());

    let conjuncts: Vec<&Expr> = sel
        .where_clause
        .as_ref()
        .map(plan::conjuncts)
        .unwrap_or_default();
    let mut pushed = Vec::new();
    let mut hub_eval = Vec::new();
    for c in &conjuncts {
        if pushable(c, &col_set, &ft.name, &alias) {
            pushed.push((*c).clone());
        } else {
            hub_eval.push((*c).clone());
        }
    }

    let columns = needed_columns(sel, ft)?;

    // Top-k pushdown: sound only when the statement is a plain
    // filter-project (no aggregation, grouping or DISTINCT), every
    // conjunct runs at the sites, and the sort keys are shipped columns.
    let order_limit = match sel.limit {
        Some(limit)
            if hub_eval.is_empty()
                && !sel.distinct
                && sel.group_by.is_empty()
                && sel.having.is_none()
                && !sel.items.iter().any(|i| match i {
                    SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                    _ => false,
                }) =>
        {
            order_keys(&sel.order_by, &col_set, &ft.name, &alias).map(|keys| (keys, limit))
        }
        _ => None,
    };

    let site_key_value = match &ft.site_key {
        Some(key) => conjuncts
            .iter()
            .find_map(|c| key_equality(c, key, &ft.name, &alias, params)),
        None => None,
    };

    let (partial_agg, agg_fallback) = match plan_partial_agg(sel, ft, &alias, hub_eval.is_empty()) {
        Ok(p) => (p, None),
        Err(reason) => (None, Some(reason)),
    };

    Ok(TablePlan {
        pushed,
        hub_eval,
        columns,
        order_limit,
        site_key_value,
        partial_agg,
        agg_fallback,
    })
}

/// Decompose an aggregate statement into site-local partial aggregates.
///
/// Returns `Ok(None)` for non-aggregate statements, `Ok(Some(plan))`
/// when every shape decomposes exactly, and `Err(reason)` when the
/// statement aggregates but must fall back to shipping raw rows
/// (DISTINCT, expression arguments, hub-only conjuncts, computed group
/// keys, or non-grouped column references).
fn plan_partial_agg(
    sel: &SelectStmt,
    ft: &ForeignTable,
    alias: &str,
    hub_eval_empty: bool,
) -> Result<Option<AggPlan>, &'static str> {
    let col_set: BTreeSet<&str> = ft.columns.iter().map(|(c, _)| c.as_str()).collect();

    // Aggregate call sites, in the local executor's discovery order.
    let aggs = aggregate_calls(sel);
    let wildcard = sel
        .items
        .iter()
        .any(|i| !matches!(i, SelectItem::Expr { .. }));
    if aggs.is_empty() && sel.group_by.is_empty() {
        return Ok(None); // not an aggregate statement
    }
    if wildcard {
        return Err("wildcard");
    }
    if sel.distinct {
        return Err("distinct");
    }
    if !hub_eval_empty {
        // A hub-only conjunct filters rows *after* the site would have
        // aggregated them — partials would be computed over the wrong
        // row set.
        return Err("hub-conjunct");
    }

    // Every GROUP BY key must be a bare table column: the key is
    // shipped verbatim and merged by value.
    let mut group_cols = Vec::with_capacity(sel.group_by.len());
    for g in &sel.group_by {
        match g {
            Expr::Column { table, name } if col_ok(table, name, &col_set, &ft.name, alias) => {
                group_cols.push(name.to_ascii_uppercase());
            }
            _ => return Err("group-expr"),
        }
    }

    // Every aggregate must be COUNT(*) or f(bare column).
    let mut calls: Vec<AggCall> = Vec::new();
    let call_idx = |calls: &mut Vec<AggCall>, c: AggCall| -> usize {
        match calls.iter().position(|x| *x == c) {
            Some(i) => i,
            None => {
                calls.push(c);
                calls.len() - 1
            }
        }
    };
    let mut inputs = Vec::with_capacity(aggs.len());
    for agg in &aggs {
        let Expr::Function { name, args, star } = agg else {
            return Err("expr-arg");
        };
        let input = if *star {
            if name != "COUNT" {
                return Err("expr-arg");
            }
            vec![call_idx(&mut calls, AggCall::CountStar)]
        } else {
            let col = match args.as_slice() {
                [Expr::Column { table, name: c }]
                    if col_ok(table, c, &col_set, &ft.name, alias) =>
                {
                    c.to_ascii_uppercase()
                }
                _ => return Err("expr-arg"),
            };
            match name.as_str() {
                "COUNT" => vec![call_idx(&mut calls, AggCall::Count(col))],
                "SUM" => vec![call_idx(&mut calls, AggCall::Sum(col))],
                "AVG" => vec![
                    call_idx(&mut calls, AggCall::Sum(col.clone())),
                    call_idx(&mut calls, AggCall::Count(col)),
                ],
                "MIN" => vec![call_idx(&mut calls, AggCall::Min(col))],
                "MAX" => vec![call_idx(&mut calls, AggCall::Max(col))],
                _ => return Err("expr-arg"),
            }
        };
        inputs.push(input);
    }

    // Outside the aggregates, only grouped columns may appear — any
    // other reference reads per-row state the partials no longer carry.
    let out_names: Vec<String> = sel
        .items
        .iter()
        .map(|i| match i {
            SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| derive_name(expr)),
            _ => String::new(),
        })
        .collect();
    let grouped = |table: &Option<String>, name: &str| -> bool {
        col_ok(table, name, &col_set, &ft.name, alias)
            && group_cols.iter().any(|g| g.eq_ignore_ascii_case(name))
    };
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            if !non_agg_cols_grouped(expr, &grouped) {
                return Err("non-group-column");
            }
        }
    }
    if let Some(h) = &sel.having {
        if !non_agg_cols_grouped(h, &grouped) {
            return Err("non-group-column");
        }
    }
    for ob in &sel.order_by {
        // A bare column naming an output alias sorts by output
        // position at the hub; anything else must be grouped.
        if let Expr::Column { table: None, name } = &ob.expr {
            if out_names.iter().any(|c| c.eq_ignore_ascii_case(name)) {
                continue;
            }
        }
        if !non_agg_cols_grouped(&ob.expr, &grouped) {
            return Err("non-group-column");
        }
    }

    Ok(Some(AggPlan {
        group_cols,
        calls,
        inputs,
    }))
}

/// True when every column reference *outside* aggregate calls
/// satisfies `grouped`.
fn non_agg_cols_grouped(e: &Expr, grouped: &dyn Fn(&Option<String>, &str) -> bool) -> bool {
    if let Expr::Function { name, .. } = e {
        if is_aggregate_fn(name) {
            return true; // aggregate arguments are checked separately
        }
    }
    match e {
        Expr::Column { table, name } => grouped(table, name),
        Expr::Unary(_, inner) => non_agg_cols_grouped(inner, grouped),
        Expr::Binary(l, _, r) => {
            non_agg_cols_grouped(l, grouped) && non_agg_cols_grouped(r, grouped)
        }
        Expr::IsNull { expr, .. } => non_agg_cols_grouped(expr, grouped),
        Expr::Like { expr, pattern, .. } => {
            non_agg_cols_grouped(expr, grouped) && non_agg_cols_grouped(pattern, grouped)
        }
        Expr::InList { expr, list, .. } => {
            non_agg_cols_grouped(expr, grouped)
                && list.iter().all(|i| non_agg_cols_grouped(i, grouped))
        }
        Expr::Between { expr, lo, hi, .. } => {
            non_agg_cols_grouped(expr, grouped)
                && non_agg_cols_grouped(lo, grouped)
                && non_agg_cols_grouped(hi, grouped)
        }
        Expr::Function { args, .. } => args.iter().all(|a| non_agg_cols_grouped(a, grouped)),
        _ => true,
    }
}

/// The columns the statement needs shipped, in schema order. Falls back
/// to all columns for wildcards; guarantees at least one column so row
/// counts survive (e.g. `SELECT COUNT(*)`).
fn needed_columns(sel: &SelectStmt, ft: &ForeignTable) -> Result<Vec<String>, FedError> {
    let mut wildcard = false;
    let mut used: BTreeSet<String> = BTreeSet::new();
    let mut collect = |e: &Expr| {
        e.walk(&mut |n| {
            if let Expr::Column { name, .. } = n {
                used.insert(name.to_ascii_uppercase());
            }
        })
    };
    for item in &sel.items {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => wildcard = true,
            SelectItem::Expr { expr, .. } => collect(expr),
        }
    }
    if let Some(w) = &sel.where_clause {
        collect(w);
    }
    for g in &sel.group_by {
        collect(g);
    }
    if let Some(h) = &sel.having {
        collect(h);
    }
    for o in &sel.order_by {
        collect(&o.expr);
    }
    if wildcard {
        return Ok(ft.columns.iter().map(|(c, _)| c.clone()).collect());
    }
    for u in &used {
        if !ft.columns.iter().any(|(c, _)| c == u) {
            return Err(FedError::Unsupported(format!(
                "column {u} is not part of foreign table {}",
                ft.name
            )));
        }
    }
    let mut cols: Vec<String> = ft
        .columns
        .iter()
        .filter(|(c, _)| used.contains(c))
        .map(|(c, _)| c.clone())
        .collect();
    if cols.is_empty() {
        // Row-count-only statements still need one shipped column.
        cols.push(ft.columns[0].0.clone());
    }
    Ok(cols)
}

/// Is a column reference resolvable against the foreign table?
fn col_ok(table: &Option<String>, name: &str, cols: &BTreeSet<&str>, t: &str, alias: &str) -> bool {
    let qual_ok = match table {
        None => true,
        Some(q) => {
            let q = q.to_ascii_uppercase();
            q == t || q == alias.to_ascii_uppercase()
        }
    };
    qual_ok && cols.contains(name.to_ascii_uppercase().as_str())
}

/// Can a conjunct run unchanged at a site? Functions stay at the hub
/// (sites only promise the core expression grammar), everything else
/// pushes if its columns belong to the table.
fn pushable(e: &Expr, cols: &BTreeSet<&str>, t: &str, alias: &str) -> bool {
    let mut ok = true;
    e.walk(&mut |n| match n {
        Expr::Function { .. } => ok = false,
        Expr::Column { table, name } if !col_ok(table, name, cols, t, alias) => {
            ok = false;
        }
        _ => {}
    });
    ok
}

/// ORDER BY keys as `(column, asc)` pairs if every key is a plain
/// shipped column (possibly qualified); `None` otherwise. An empty
/// ORDER BY is fine — a bare LIMIT still pushes.
fn order_keys(
    order_by: &[OrderBy],
    cols: &BTreeSet<&str>,
    t: &str,
    alias: &str,
) -> Option<Vec<(String, bool)>> {
    let mut keys = Vec::with_capacity(order_by.len());
    for o in order_by {
        match &o.expr {
            Expr::Column { table, name } if col_ok(table, name, cols, t, alias) => {
                keys.push((name.to_ascii_uppercase(), o.asc));
            }
            _ => return None,
        }
    }
    Some(keys)
}

/// Match `site_key = <const>` (either orientation) and resolve the
/// constant, looking through parameters.
fn key_equality(e: &Expr, key: &str, t: &str, alias: &str, params: &[Value]) -> Option<Value> {
    let Expr::Binary(l, BinaryOp::Eq, r) = e else {
        return None;
    };
    let is_key = |side: &Expr| match side {
        Expr::Column { table, name } => {
            name.eq_ignore_ascii_case(key)
                && match table {
                    None => true,
                    Some(q) => {
                        let q = q.to_ascii_uppercase();
                        q == t || q == alias.to_ascii_uppercase()
                    }
                }
        }
        _ => false,
    };
    let as_const = |side: &Expr| match side {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Param(i) => params.get(i.checked_sub(1)?).cloned(),
        _ => None,
    };
    if is_key(l) {
        as_const(r)
    } else if is_key(r) {
        as_const(l)
    } else {
        None
    }
}

/// Clone `e` with every literal and parameter replaced by a fresh
/// positional parameter, appending the value to `out` in appearance
/// order — the shipped predicate text then carries no data values.
pub fn externalize(e: &Expr, params: &[Value], out: &mut Vec<Value>) -> Result<Expr, FedError> {
    let push = |v: Value, out: &mut Vec<Value>| {
        out.push(v);
        Expr::Param(out.len())
    };
    Ok(match e {
        Expr::Literal(v) => push(v.clone(), out),
        Expr::Param(i) => {
            let v = params
                .get(
                    i.checked_sub(1)
                        .ok_or_else(|| FedError::Unsupported("parameter index 0".into()))?,
                )
                .cloned()
                .ok_or_else(|| FedError::Unsupported(format!("missing parameter ?{i}")))?;
            push(v, out)
        }
        Expr::Column { .. } => e.clone(),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(externalize(inner, params, out)?)),
        Expr::Binary(l, op, r) => Expr::Binary(
            Box::new(externalize(l, params, out)?),
            *op,
            Box::new(externalize(r, params, out)?),
        ),
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(externalize(expr, params, out)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(externalize(expr, params, out)?),
            pattern: Box::new(externalize(pattern, params, out)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(externalize(expr, params, out)?),
            list: list
                .iter()
                .map(|x| externalize(x, params, out))
                .collect::<Result<Vec<_>, _>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(externalize(expr, params, out)?),
            lo: Box::new(externalize(lo, params, out)?),
            hi: Box::new(externalize(hi, params, out)?),
            negated: *negated,
        },
        Expr::Function { .. } => {
            return Err(FedError::Unsupported(
                "function calls cannot be pushed to a site".into(),
            ))
        }
    })
}

/// How one leg of a federated JOIN fetches its rows.
#[derive(Debug, Clone, PartialEq)]
pub enum LegStrategy {
    /// Hub-local table: the merge join reads it in place.
    Local,
    /// Deliberate full gather: the FROM anchor always scans its
    /// surviving partitions (pushed conjuncts and pruning still apply).
    Gather,
    /// Keyed remote scan (semi-join shipping): the hub extracts the
    /// bound join-key set from an earlier leg and ships it with the
    /// scan request, so sites return only rows that can match.
    SemiJoin {
        /// Column of this leg restricted by the shipped key list.
        key_column: String,
        /// Index of the earlier leg whose rows supply the keys.
        source_leg: usize,
        /// Column of the source leg whose values form the key set.
        source_column: String,
    },
    /// Full-partition ship, with the reason recorded for EXPLAIN.
    FullShip {
        /// Why keys could not be shipped for this leg.
        reason: String,
    },
}

/// One table term of a federated JOIN: the FROM anchor (index 0) or a
/// joined table, with its fetch strategy and pushdown decisions.
#[derive(Debug, Clone)]
pub struct JoinLeg {
    /// Table name (upper-case).
    pub table: String,
    /// Binding alias (upper-case; the table name when unaliased).
    pub alias: String,
    /// `None` for the FROM anchor, the join kind otherwise.
    pub kind: Option<JoinKind>,
    /// Is this leg a registered foreign table?
    pub federated: bool,
    /// Shipped projection for federated legs (foreign-schema order,
    /// never empty); the full known column list for local legs.
    pub columns: Vec<String>,
    /// Conjuncts evaluated at the sites for this leg (original form).
    pub pushed: Vec<Expr>,
    /// Site-key value bound by a *pushed* conjunct — the pruning
    /// handle. Derived only from pushed conjuncts so pruning inherits
    /// their soundness (a LEFT leg never prunes on a WHERE binding).
    pub site_key_value: Option<Value>,
    /// How the leg's rows reach the hub.
    pub strategy: LegStrategy,
}

impl JoinLeg {
    /// Pushed conjuncts rendered as SQL (for EXPLAIN).
    pub fn pushed_sql(&self) -> Vec<String> {
        self.pushed.iter().map(expr_to_sql).collect()
    }
}

/// The whole-statement plan for a federated JOIN.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Table legs in statement order (FROM anchor first).
    pub legs: Vec<JoinLeg>,
    /// WHERE conjuncts that only the hub evaluates (for EXPLAIN; the
    /// merge re-runs the full original statement regardless).
    pub hub_eval: Vec<Expr>,
}

impl JoinPlan {
    /// Hub-evaluated conjuncts rendered as SQL (for EXPLAIN).
    pub fn hub_sql(&self) -> Vec<String> {
        self.hub_eval.iter().map(expr_to_sql).collect()
    }
}

/// Structural checks shared by the pushdown planner and the
/// ship-everything ablation, so both reject unsupported JOIN shapes
/// with the same typed error.
pub fn validate_join(sel: &SelectStmt) -> Result<(), FedError> {
    if sel.from.is_none() {
        return Err(FedError::Unsupported(
            "federated JOIN requires a FROM table".into(),
        ));
    }
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let refs = std::iter::once(sel.from.as_ref().expect("checked above"))
        .chain(sel.joins.iter().map(|j| &j.table));
    for t in refs {
        let label = binding_name(t);
        if !seen.insert(label.clone()) {
            return Err(FedError::Unsupported(format!(
                "duplicate table alias {label} in federated JOIN"
            )));
        }
    }
    Ok(())
}

/// The upper-case name a table term binds in the statement.
fn binding_name(t: &TableRef) -> String {
    t.alias
        .as_deref()
        .unwrap_or(t.name.as_str())
        .to_ascii_uppercase()
}

/// Decompose a SELECT with JOINs into per-leg federated scans plus a
/// hub merge join.
///
/// `local_columns` resolves hub-local table names to their column
/// lists — the planner needs them to attribute column references to
/// legs. At least one leg must be a registered foreign table.
///
/// Soundness rules encoded here (the hub re-runs the original
/// statement over staged rows, so a site may only drop rows that
/// provably cannot change the merged result):
///
/// * WHERE conjuncts push only to non-nullable legs — the anchor and
///   INNER-joined legs. A LEFT-joined leg never receives WHERE pushes:
///   dropping its rows at the site turns "row present but filtered"
///   into "row absent", which *creates* a NULL-extended row (e.g.
///   `WHERE b.x IS NULL` would flip from false to true).
/// * ON conjuncts referencing only the joined leg push for both join
///   kinds: a row failing the conjunct and a row absent from the site
///   result both yield "no match", which INNER and LEFT treat
///   identically.
/// * Semi-join keys for a leg come from an earlier leg's *gathered*
///   rows (a superset of the rows that survive the hub merge), or a
///   full hub column scan for local legs — never from a post-filter
///   set. NULL keys are excluded: under three-valued `=` they can
///   never match.
pub fn plan_join(
    sel: &SelectStmt,
    catalog: &FedCatalog,
    local_columns: &dyn Fn(&str) -> Option<Vec<String>>,
    params: &[Value],
    pushdown: bool,
) -> Result<JoinPlan, FedError> {
    validate_join(sel)?;
    let from = sel.from.as_ref().expect("validate_join checked FROM");

    struct Term<'a> {
        tref: &'a TableRef,
        kind: Option<JoinKind>,
        on: Option<&'a Expr>,
    }
    let mut terms = vec![Term {
        tref: from,
        kind: None,
        on: None,
    }];
    for j in &sel.joins {
        terms.push(Term {
            tref: &j.table,
            kind: Some(j.kind),
            on: Some(&j.on),
        });
    }

    // 1. Legs with their full column lists (needed for attribution).
    let mut legs: Vec<JoinLeg> = Vec::with_capacity(terms.len());
    for t in &terms {
        let table = t.tref.name.to_ascii_uppercase();
        let (federated, cols) = match catalog.table(&table) {
            Some(ft) => (true, ft.columns.iter().map(|(c, _)| c.clone()).collect()),
            None => match local_columns(&table) {
                Some(cols) => (
                    false,
                    cols.iter()
                        .map(|c| c.to_ascii_uppercase())
                        .collect::<Vec<_>>(),
                ),
                None => return Err(FedError::UnknownTable(table)),
            },
        };
        legs.push(JoinLeg {
            table,
            alias: binding_name(t.tref),
            kind: t.kind,
            federated,
            columns: cols,
            pushed: Vec::new(),
            site_key_value: None,
            strategy: LegStrategy::Local,
        });
    }
    if !legs.iter().any(|l| l.federated) {
        return Err(FedError::Unsupported(
            "JOIN has no foreign-table leg to federate".into(),
        ));
    }

    let col_sets: Vec<BTreeSet<String>> = legs
        .iter()
        .map(|l| l.columns.iter().cloned().collect())
        .collect();
    // Resolve a column reference to its owning leg, or None when it is
    // unknown or ambiguous (the hub merge is then the arbiter).
    let owner = |table: &Option<String>, name: &str| -> Option<usize> {
        let name = name.to_ascii_uppercase();
        match table {
            Some(q) => {
                let q = q.to_ascii_uppercase();
                let i = legs.iter().position(|l| l.alias == q)?;
                col_sets[i].contains(&name).then_some(i)
            }
            None => {
                let mut hits = legs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| col_sets[*i].contains(&name))
                    .map(|(i, _)| i);
                let first = hits.next()?;
                hits.next().is_none().then_some(first)
            }
        }
    };
    // Does `e` reference exactly one leg (and which)? Conjuncts that
    // cannot be attributed to a single leg stay at the hub.
    let single_leg = |e: &Expr| -> Option<usize> {
        let mut leg: Option<usize> = None;
        let mut ok = true;
        let mut any = false;
        e.walk(&mut |n| match n {
            Expr::Function { .. } => ok = false,
            Expr::Column { table, name } => {
                any = true;
                match owner(table, name) {
                    Some(i) if leg.is_none() || leg == Some(i) => leg = Some(i),
                    _ => ok = false,
                }
            }
            _ => {}
        });
        (ok && any).then_some(leg?)
    };

    // 2. WHERE conjuncts: push to non-nullable federated legs.
    let mut hub_eval = Vec::new();
    let mut pushed: Vec<Vec<Expr>> = vec![Vec::new(); legs.len()];
    for c in sel
        .where_clause
        .as_ref()
        .map(plan::conjuncts)
        .unwrap_or_default()
    {
        let target = single_leg(c)
            .filter(|&i| pushdown && legs[i].federated && legs[i].kind != Some(JoinKind::Left));
        match target {
            Some(i) => pushed[i].push(c.clone()),
            None => hub_eval.push(c.clone()),
        }
    }

    // 3. ON conjuncts: push single-leg filters, extract equi-join keys.
    let mut strategies: Vec<LegStrategy> = legs
        .iter()
        .map(|l| {
            if !l.federated {
                LegStrategy::Local
            } else if l.kind.is_none() {
                LegStrategy::Gather
            } else if !pushdown {
                LegStrategy::FullShip {
                    reason: "pushdown disabled".into(),
                }
            } else {
                LegStrategy::FullShip {
                    reason: "no equi-join key binds this leg to an earlier one".into(),
                }
            }
        })
        .collect();
    for (i, t) in terms.iter().enumerate() {
        let Some(on) = t.on else { continue };
        for c in plan::conjuncts(on) {
            if pushdown && legs[i].federated && single_leg(c) == Some(i) {
                pushed[i].push(c.clone());
                continue;
            }
            // Equi-join key: this leg's column = an earlier leg's column.
            if !pushdown
                || !legs[i].federated
                || !matches!(
                    strategies[i],
                    LegStrategy::FullShip { ref reason } if reason.starts_with("no equi-join")
                )
            {
                continue;
            }
            let Expr::Binary(l, BinaryOp::Eq, r) = c else {
                continue;
            };
            let col_of = |e: &Expr| match e {
                Expr::Column { table, name } => {
                    owner(table, name).map(|i| (i, name.to_ascii_uppercase()))
                }
                _ => None,
            };
            if let (Some((li, lc)), Some((ri, rc))) = (col_of(l), col_of(r)) {
                let ((ki, kc), (si, sc)) = if li == i && ri < i {
                    ((li, lc), (ri, rc))
                } else if ri == i && li < i {
                    ((ri, rc), (li, lc))
                } else {
                    continue;
                };
                debug_assert_eq!(ki, i);
                strategies[i] = LegStrategy::SemiJoin {
                    key_column: kc,
                    source_leg: si,
                    source_column: sc,
                };
            }
        }
    }

    // 4. Shipped projections: every column the statement mentions for
    // the leg, plus join-key columns on both ends.
    let mut wildcard_all = false;
    let mut wildcard_legs: BTreeSet<usize> = BTreeSet::new();
    let mut used: Vec<BTreeSet<String>> = vec![BTreeSet::new(); legs.len()];
    {
        let mut collect = |e: &Expr| {
            e.walk(&mut |n| {
                if let Expr::Column { table, name } = n {
                    let name = name.to_ascii_uppercase();
                    match table {
                        Some(q) => {
                            let q = q.to_ascii_uppercase();
                            if let Some(i) = legs.iter().position(|l| l.alias == q) {
                                used[i].insert(name);
                            }
                        }
                        // Unqualified (possibly ambiguous): every leg
                        // that knows the column ships it.
                        None => {
                            for (i, set) in col_sets.iter().enumerate() {
                                if set.contains(&name) {
                                    used[i].insert(name.clone());
                                }
                            }
                        }
                    }
                }
            })
        };
        for item in &sel.items {
            match item {
                SelectItem::Wildcard => wildcard_all = true,
                SelectItem::QualifiedWildcard(q) => {
                    let q = q.to_ascii_uppercase();
                    match legs.iter().position(|l| l.alias == q) {
                        Some(i) => {
                            wildcard_legs.insert(i);
                        }
                        None => wildcard_all = true,
                    }
                }
                SelectItem::Expr { expr, .. } => collect(expr),
            }
        }
        if let Some(w) = &sel.where_clause {
            collect(w);
        }
        for g in &sel.group_by {
            collect(g);
        }
        if let Some(h) = &sel.having {
            collect(h);
        }
        for o in &sel.order_by {
            collect(&o.expr);
        }
        for t in &terms {
            if let Some(on) = t.on {
                collect(on);
            }
        }
    }
    for (i, s) in strategies.iter().enumerate() {
        if let LegStrategy::SemiJoin {
            key_column,
            source_leg,
            source_column,
        } = s
        {
            used[i].insert(key_column.clone());
            used[*source_leg].insert(source_column.clone());
        }
    }
    for (i, leg) in legs.iter_mut().enumerate() {
        leg.strategy = strategies[i].clone();
        leg.pushed = std::mem::take(&mut pushed[i]);
        if !leg.federated {
            continue;
        }
        if !wildcard_all && !wildcard_legs.contains(&i) {
            let mut cols: Vec<String> = leg
                .columns
                .iter()
                .filter(|c| used[i].contains(*c))
                .cloned()
                .collect();
            if cols.is_empty() {
                cols.push(leg.columns[0].clone());
            }
            leg.columns = cols;
        }
    }

    // 5. Per-leg site-key bindings from the *pushed* conjuncts.
    for leg in legs.iter_mut() {
        if !leg.federated {
            continue;
        }
        let Some(ft) = catalog.table(&leg.table) else {
            continue;
        };
        if let Some(key) = &ft.site_key {
            leg.site_key_value = leg
                .pushed
                .iter()
                .find_map(|c| key_equality(c, key, &leg.table, &leg.alias, params));
        }
    }

    Ok(JoinPlan { legs, hub_eval })
}

/// Clone `e` with every column qualifier removed. Pushed predicates
/// ship qualifier-free: the site executes a single-table scan, where
/// the hub-side alias would not resolve, and every column in a pushed
/// conjunct is already known to belong to that one table.
pub fn strip_qualifiers(e: &Expr) -> Expr {
    match e {
        Expr::Column { name, .. } => Expr::Column {
            table: None,
            name: name.clone(),
        },
        Expr::Literal(_) | Expr::Param(_) => e.clone(),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(strip_qualifiers(inner))),
        Expr::Binary(l, op, r) => Expr::Binary(
            Box::new(strip_qualifiers(l)),
            *op,
            Box::new(strip_qualifiers(r)),
        ),
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(strip_qualifiers(expr)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(strip_qualifiers(expr)),
            pattern: Box::new(strip_qualifiers(pattern)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(strip_qualifiers(expr)),
            list: list.iter().map(strip_qualifiers).collect(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(strip_qualifiers(expr)),
            lo: Box::new(strip_qualifiers(lo)),
            hi: Box::new(strip_qualifiers(hi)),
            negated: *negated,
        },
        Expr::Function { name, args, star } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(strip_qualifiers).collect(),
            star: *star,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{FedCatalog, Partition};
    use easia_db::sql::{parse, Stmt};
    use easia_db::SqlType;

    fn ft() -> ForeignTable {
        let mut c = FedCatalog::default();
        c.create_foreign_table(
            "SIM",
            vec![
                ("K".into(), SqlType::Varchar(30)),
                ("SITE".into(), SqlType::Varchar(20)),
                ("N".into(), SqlType::Integer),
                ("X".into(), SqlType::Double),
            ],
            Some("SITE"),
            vec![Partition::new(None, &["soton"])],
        )
        .unwrap();
        c.table("SIM").unwrap().clone()
    }

    fn sel(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Stmt::Select(s) => s,
            other => panic!("expected select: {other:?}"),
        }
    }

    #[test]
    fn splits_pushed_and_hub_conjuncts() {
        let s = sel("SELECT K FROM SIM WHERE N > 3 AND UPPER(K) = 'A' AND SITE = 'cam'");
        let p = plan_select(&s, &ft(), &[]).unwrap();
        assert_eq!(p.pushed_sql(), vec!["(N > 3)", "(SITE = 'cam')"]);
        assert_eq!(p.hub_sql(), vec!["(UPPER(K) = 'A')"]);
        assert_eq!(p.site_key_value, Some(Value::Str("cam".into())));
        // Hub conjunct mentions K; pushed mentions N and SITE.
        assert_eq!(p.columns, vec!["K", "SITE", "N"]);
    }

    #[test]
    fn projection_pushdown_and_fallbacks() {
        let p = plan_select(&sel("SELECT N FROM SIM"), &ft(), &[]).unwrap();
        assert_eq!(p.columns, vec!["N"]);
        let p = plan_select(&sel("SELECT * FROM SIM WHERE N = 1"), &ft(), &[]).unwrap();
        assert_eq!(p.columns, vec!["K", "SITE", "N", "X"]);
        let p = plan_select(&sel("SELECT COUNT(*) FROM SIM"), &ft(), &[]).unwrap();
        assert_eq!(p.columns, vec!["K"], "row-count still ships one column");
        assert!(plan_select(&sel("SELECT GHOST FROM SIM"), &ft(), &[]).is_err());
    }

    #[test]
    fn topk_pushdown_rules() {
        let p = plan_select(
            &sel("SELECT K, N FROM SIM WHERE N > 0 ORDER BY N DESC LIMIT 5"),
            &ft(),
            &[],
        )
        .unwrap();
        assert_eq!(p.order_limit, Some((vec![("N".into(), false)], 5)));
        // A hub-evaluated conjunct blocks the cut.
        let p = plan_select(
            &sel("SELECT K FROM SIM WHERE UPPER(K) = 'A' ORDER BY K LIMIT 5"),
            &ft(),
            &[],
        )
        .unwrap();
        assert_eq!(p.order_limit, None);
        // Aggregates block it too.
        let p = plan_select(&sel("SELECT MAX(N) FROM SIM LIMIT 1"), &ft(), &[]).unwrap();
        assert_eq!(p.order_limit, None);
        // Bare LIMIT without ORDER BY pushes.
        let p = plan_select(&sel("SELECT K FROM SIM LIMIT 3"), &ft(), &[]).unwrap();
        assert_eq!(p.order_limit, Some((vec![], 3)));
    }

    #[test]
    fn site_key_binding_through_params() {
        let s = sel("SELECT K FROM SIM WHERE SITE = ?");
        let p = plan_select(&s, &ft(), &[Value::Str("cam".into())]).unwrap();
        assert_eq!(p.site_key_value, Some(Value::Str("cam".into())));
        // Non-equality predicates do not bind.
        let s = sel("SELECT K FROM SIM WHERE SITE LIKE 'c%'");
        let p = plan_select(&s, &ft(), &[]).unwrap();
        assert_eq!(p.site_key_value, None);
    }

    #[test]
    fn externalize_strips_values() {
        let s = sel("SELECT K FROM SIM WHERE N BETWEEN 1 AND ? AND K IN ('a', 'b')");
        let conj = s.where_clause.unwrap();
        let mut out = Vec::new();
        let rewritten = externalize(&conj, &[Value::Int(9)], &mut out).unwrap();
        assert_eq!(
            expr_to_sql(&rewritten),
            "((N BETWEEN ? AND ?) AND (K IN (?, ?)))"
        );
        assert_eq!(
            out,
            vec![
                Value::Int(1),
                Value::Int(9),
                Value::Str("a".into()),
                Value::Str("b".into())
            ]
        );
    }

    #[test]
    fn joins_defer_to_the_join_planner() {
        // plan_select stays a single-table entry point; statements with
        // JOINs go through plan_join instead.
        let s = sel("SELECT a.K FROM SIM a JOIN SIM b ON a.K = b.K");
        assert!(matches!(
            plan_select(&s, &ft(), &[]),
            Err(FedError::Unsupported(_))
        ));
    }

    fn join_catalog() -> FedCatalog {
        let mut c = FedCatalog::default();
        c.create_foreign_table(
            "SIM",
            vec![
                ("K".into(), SqlType::Varchar(30)),
                ("SITE".into(), SqlType::Varchar(20)),
                ("N".into(), SqlType::Integer),
                ("X".into(), SqlType::Double),
            ],
            Some("SITE"),
            vec![Partition::new(None, &["soton"])],
        )
        .unwrap();
        c.create_foreign_table(
            "RES",
            vec![
                ("R".into(), SqlType::Varchar(30)),
                ("K".into(), SqlType::Varchar(30)),
                ("SITE".into(), SqlType::Varchar(20)),
                ("BYTES".into(), SqlType::Integer),
            ],
            Some("SITE"),
            vec![Partition::new(None, &["soton"])],
        )
        .unwrap();
        c
    }

    fn no_locals(_: &str) -> Option<Vec<String>> {
        None
    }

    #[test]
    fn join_plan_extracts_semijoin_key() {
        let s = sel("SELECT s.K, r.R FROM SIM s JOIN RES r ON s.K = r.K \
             WHERE s.N > 3 AND r.BYTES > 100 ORDER BY s.K");
        let p = plan_join(&s, &join_catalog(), &no_locals, &[], true).unwrap();
        assert_eq!(p.legs.len(), 2);
        assert!(p.legs[0].federated && p.legs[1].federated);
        // The anchor ships everything the statement mentions plus the
        // key column; the joined leg is keyed on the anchor's K values.
        assert_eq!(
            p.legs[1].strategy,
            LegStrategy::SemiJoin {
                key_column: "K".into(),
                source_leg: 0,
                source_column: "K".into(),
            }
        );
        assert_eq!(p.legs[0].pushed_sql(), vec!["(S.N > 3)"]);
        assert_eq!(p.legs[1].pushed_sql(), vec!["(R.BYTES > 100)"]);
        assert!(p.hub_eval.is_empty());
        assert_eq!(p.legs[0].columns, vec!["K", "N"]);
        assert_eq!(p.legs[1].columns, vec!["R", "K", "BYTES"]);
    }

    #[test]
    fn left_join_blocks_where_push_but_keeps_on_push_and_keys() {
        let s = sel("SELECT s.K FROM SIM s LEFT JOIN RES r \
             ON s.K = r.K AND r.BYTES > 100 WHERE r.R IS NULL");
        let p = plan_join(&s, &join_catalog(), &no_locals, &[], true).unwrap();
        // WHERE on the nullable leg must stay at the hub: dropping RES
        // rows at the site would *create* NULL-extended matches.
        assert_eq!(p.hub_sql(), vec!["(R.R IS NULL)"]);
        // The ON filter on the joined leg itself is still pushable, and
        // the equi-join key still ships.
        assert_eq!(p.legs[1].pushed_sql(), vec!["(R.BYTES > 100)"]);
        assert!(matches!(
            p.legs[1].strategy,
            LegStrategy::SemiJoin { ref key_column, .. } if key_column == "K"
        ));
    }

    #[test]
    fn join_without_key_or_pushdown_falls_back_to_full_ship() {
        let cat = join_catalog();
        let s = sel("SELECT s.K FROM SIM s JOIN RES r ON s.N > r.BYTES");
        let p = plan_join(&s, &cat, &no_locals, &[], true).unwrap();
        assert!(matches!(
            p.legs[1].strategy,
            LegStrategy::FullShip { ref reason } if reason.contains("no equi-join key")
        ));
        let s = sel("SELECT s.K FROM SIM s JOIN RES r ON s.K = r.K");
        let p = plan_join(&s, &cat, &no_locals, &[], false).unwrap();
        assert!(matches!(
            p.legs[1].strategy,
            LegStrategy::FullShip { ref reason } if reason.contains("pushdown disabled")
        ));
    }

    #[test]
    fn join_site_key_binding_prunes_only_from_pushed_conjuncts() {
        let cat = join_catalog();
        let s = sel("SELECT s.K FROM SIM s JOIN RES r ON s.K = r.K WHERE s.SITE = 'cam'");
        let p = plan_join(&s, &cat, &no_locals, &[], true).unwrap();
        assert_eq!(p.legs[0].site_key_value, Some(Value::Str("cam".into())));
        assert_eq!(p.legs[1].site_key_value, None);
        // On a LEFT-joined leg the WHERE binding is not pushed, so it
        // must not prune either.
        let s = sel("SELECT s.K FROM SIM s LEFT JOIN RES r ON s.K = r.K WHERE r.SITE = 'cam'");
        let p = plan_join(&s, &cat, &no_locals, &[], true).unwrap();
        assert_eq!(p.legs[1].site_key_value, None);
    }

    #[test]
    fn join_validation_shared_error_paths() {
        let cat = join_catalog();
        let s = sel("SELECT a.K FROM SIM a JOIN SIM a ON a.K = a.K");
        let err = plan_join(&s, &cat, &no_locals, &[], true).unwrap_err();
        assert!(
            matches!(&err, FedError::Unsupported(m) if m.contains("duplicate table alias A")),
            "unexpected: {err:?}"
        );
        // validate_join alone yields the identical error — the ablation
        // path reuses it.
        let err2 = validate_join(&s).unwrap_err();
        assert_eq!(format!("{err}"), format!("{err2}"));

        let s = sel("SELECT a.K FROM GHOST a JOIN SIM b ON a.K = b.K");
        assert!(matches!(
            plan_join(&s, &cat, &no_locals, &[], true),
            Err(FedError::UnknownTable(t)) if t == "GHOST"
        ));
    }

    #[test]
    fn strip_qualifiers_rewrites_columns_only() {
        let s = sel("SELECT K FROM SIM WHERE (s.N > 3 AND s.K LIKE 'a%') OR s.X IS NULL");
        let w = s.where_clause.unwrap();
        assert_eq!(
            expr_to_sql(&strip_qualifiers(&w)),
            "(((N > 3) AND (K LIKE 'a%')) OR (X IS NULL))"
        );
    }
}
