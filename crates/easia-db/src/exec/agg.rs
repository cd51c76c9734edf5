//! The aggregate kernel: aggregate call discovery, the running state of
//! one call over one group, the grouping stage of the fused pipeline,
//! and the projection of finished groups.

use super::{derive_name, order_keys, Collector, Key, Passed};
use crate::error::{DbError, Result};
use crate::expr::{same_call, truth, Binder, Bound};
use crate::sql::ast::{Expr, SelectItem, SelectStmt};
use crate::value::{encode_value, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// True when `name` is one of the supported aggregate functions.
pub fn is_aggregate_fn(name: &str) -> bool {
    AggKind::of(name).is_some()
}

/// Collect aggregate call sites from an expression, deduplicated by
/// [`same_call`] (so `AVG(X)` in the item list and again in HAVING is one
/// call), in first-appearance order. Does not recurse into
/// aggregate arguments (nested aggregates are invalid SQL).
fn collect_aggs(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Function { name, .. } = e {
        if is_aggregate_fn(name) {
            if !out.iter().any(|x| same_call(x, e)) {
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
/// BY, deduplicated by [`same_call`] — in the order every
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

/// Which aggregate a call computes, resolved once per statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggKind {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggKind {
    fn of(name: &str) -> Option<AggKind> {
        Some(match name {
            "COUNT" => AggKind::Count,
            "SUM" => AggKind::Sum,
            "AVG" => AggKind::Avg,
            "MIN" => AggKind::Min,
            "MAX" => AggKind::Max,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            AggKind::Count => "COUNT",
            AggKind::Sum => "SUM",
            AggKind::Avg => "AVG",
            AggKind::Min => "MIN",
            AggKind::Max => "MAX",
        }
    }

    /// The kind and `*` flag of an aggregate call from
    /// [`aggregate_calls`].
    fn of_call(call: &Expr) -> (AggKind, bool) {
        match call {
            Expr::Function { name, star, .. } => (
                AggKind::of(name).expect("aggregate_calls collects aggregates only"),
                *star,
            ),
            other => unreachable!("aggregate_calls collects function calls only: {other:?}"),
        }
    }
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
    /// Absorb one argument value of a `kind` aggregate; NULL contributes
    /// nothing.
    fn absorb(&mut self, kind: AggKind, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match kind {
            AggKind::Count => {}
            AggKind::Sum | AggKind::Avg => self.add_sum(kind, v)?,
            AggKind::Min => {
                if self.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                    self.min = Some(v.clone());
                }
            }
            AggKind::Max => {
                if self.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                    self.max = Some(v.clone());
                }
            }
        }
        self.non_null += 1;
        Ok(())
    }

    /// Add the non-NULL `v` to the running SUM. The sum stays an exact
    /// i64 while every value summed is an integer (the first one decides)
    /// and promotes to DOUBLE on i64 overflow (see DESIGN.md, "aggregate
    /// overflow policy"); the f64 shadow sum always accumulates.
    fn add_sum(&mut self, kind: AggKind, v: &Value) -> Result<()> {
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
                    DbError::Type(format!(
                        "{} over non-numeric {}",
                        kind.name(),
                        other.type_name()
                    ))
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
        match (AggKind::of(name), partial) {
            (Some(AggKind::Count), [n]) if *star => self.count += count(n),
            (Some(AggKind::Count), [n]) => self.non_null += count(n),
            (Some(kind @ (AggKind::Sum | AggKind::Min | AggKind::Max)), [v]) => {
                self.absorb(kind, v)?
            }
            (Some(AggKind::Avg), [sum, n]) => {
                // The SUM folds in as one value; the non-NULL tally is
                // the partition's COUNT.
                if !sum.is_null() {
                    self.add_sum(AggKind::Avg, sum)?;
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
    fn finish(&self, kind: AggKind, star: bool) -> Value {
        match kind {
            // COUNT(*) counts rows; COUNT(col) counts non-NULL values.
            // The two tallies are kept separate — conflating them
            // over-reports COUNT(col) on NULL-containing columns.
            AggKind::Count => Value::Int(if star { self.count } else { self.non_null }),
            AggKind::Sum => {
                if self.non_null == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Int(self.int_sum)
                } else {
                    Value::Double(self.sum)
                }
            }
            AggKind::Avg => {
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
            AggKind::Min => self.min.clone().unwrap_or(Value::Null),
            AggKind::Max => self.max.clone().unwrap_or(Value::Null),
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

/// The grouping stage of the pipeline: folds each row that passed WHERE
/// into its group's states. Group keys encode into one reused buffer,
/// so a row allocates only when it opens a new group.
pub(super) struct Aggregate {
    group_by: Vec<Bound>,
    /// Per call: its kind and bound argument (`None` for `COUNT(*)`).
    args: Vec<(AggKind, Option<Bound>)>,
    key: Vec<u8>,
    index: HashMap<Vec<u8>, usize>,
    groups: Vec<AggGroup>,
}

impl Aggregate {
    pub(super) fn new(binder: &Binder, sel: &SelectStmt, calls: &[Expr]) -> Aggregate {
        let args = calls
            .iter()
            .map(|call| {
                let (kind, star) = AggKind::of_call(call);
                let Expr::Function { name, args, .. } = call else {
                    unreachable!("of_call checked the shape")
                };
                let arg = (!star).then(|| match args.first() {
                    Some(a) => binder.bind(a),
                    None => Bound::Fail(DbError::Eval(format!(
                        "{name} expects 1 argument(s), got 0"
                    ))),
                });
                (kind, arg)
            })
            .collect();
        Aggregate {
            group_by: sel.group_by.iter().map(|e| binder.bind(e)).collect(),
            args,
            key: Vec::new(),
            index: HashMap::new(),
            groups: Vec::new(),
        }
    }

    /// The input slots this stage reads (a new group's representative
    /// row is decoded whole).
    pub(super) fn slots(&self) -> Vec<usize> {
        let mut slots = Vec::new();
        for e in &self.group_by {
            e.slots(&mut slots);
        }
        for e in self.args.iter().filter_map(|(_, a)| a.as_ref()) {
            e.slots(&mut slots);
        }
        super::slot_set(slots)
    }

    /// Fold one row into its group.
    pub(super) fn push(&mut self, p: &Passed) -> Result<()> {
        let gi = if self.group_by.is_empty() {
            if self.groups.is_empty() {
                self.open_group(p)?;
            }
            0
        } else {
            self.key.clear();
            self.key
                .extend_from_slice(&(self.group_by.len() as u32).to_le_bytes());
            for e in &self.group_by {
                encode_value(&*e.eval(p.row, &[])?, &mut self.key);
            }
            match self.index.get(self.key.as_slice()) {
                Some(&gi) => gi,
                None => {
                    let gi = self.open_group(p)?;
                    self.index.insert(self.key.clone(), gi);
                    gi
                }
            }
        };
        for (st, (kind, arg)) in self.groups[gi].states.iter_mut().zip(&self.args) {
            match arg {
                None => st.count += 1,
                Some(a) => st.absorb(*kind, &*a.eval(p.row, &[])?)?,
            }
        }
        Ok(())
    }

    fn open_group(&mut self, p: &Passed) -> Result<usize> {
        self.groups.push(AggGroup {
            rep: p.to_row()?,
            states: vec![AggState::default(); self.args.len()],
        });
        Ok(self.groups.len() - 1)
    }

    pub(super) fn into_groups(self) -> Vec<AggGroup> {
        self.groups
    }
}

/// HAVING, the select list and the ORDER BY keys over finished groups,
/// in group order, offered to `out`. `binder`'s schema is the shape of
/// each group's representative row. Returns the output column names and
/// how many groups passed HAVING.
pub(super) fn project_groups(
    binder: &Binder,
    sel: &SelectStmt,
    calls: &[Expr],
    mut groups: Vec<AggGroup>,
    out: &mut Collector,
) -> Result<(Vec<String>, usize)> {
    // A global aggregate over zero rows still yields one group.
    if groups.is_empty() && sel.group_by.is_empty() {
        groups.push(AggGroup {
            rep: vec![Value::Null; binder.schema.columns.len()],
            states: vec![AggState::default(); calls.len()],
        });
    }
    let mut columns = Vec::new();
    let mut items = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| derive_name(expr)));
                items.push(binder.bind_with_aggs(expr, calls));
            }
            _ => {
                return Err(DbError::Eval(
                    "wildcard not allowed with GROUP BY / aggregates".into(),
                ))
            }
        }
    }
    let kinds: Vec<(AggKind, bool)> = calls.iter().map(AggKind::of_call).collect();
    let having = sel.having.as_ref().map(|h| binder.bind_with_aggs(h, calls));
    let keys = order_keys(binder, sel, &columns, calls);
    let mut aggs = Vec::with_capacity(calls.len());
    let mut passed = 0;
    for g in groups {
        aggs.clear();
        aggs.extend(
            g.states
                .iter()
                .zip(&kinds)
                .map(|(st, (kind, star))| st.finish(*kind, *star)),
        );
        if let Some(h) = &having {
            if truth(&*h.eval(&g.rep, &aggs)?) != Some(true) {
                continue;
            }
        }
        let row = items
            .iter()
            .map(|e| e.eval(&g.rep, &aggs).map(Cow::into_owned))
            .collect::<Result<Vec<Value>>>()?;
        passed += 1;
        let key_vals = keys
            .iter()
            .map(|k| match k {
                Key::Out(pos) => Ok(row[*pos].clone()),
                Key::Expr(e) => e.eval(&g.rep, &aggs).map(Cow::into_owned),
            })
            .collect::<Result<Vec<Value>>>();
        out.offer(key_vals.as_deref().map_err(Clone::clone), || row);
    }
    Ok((columns, passed))
}
