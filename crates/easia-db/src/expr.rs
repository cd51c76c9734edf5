//! Expression evaluation with SQL three-valued logic.

use crate::error::{DbError, Result};
use crate::sql::ast::{BinaryOp, Expr, UnaryOp};
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

/// A resolved column slot in a row: optional table alias + column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Table name or alias that qualifies this slot.
    pub table: Option<String>,
    /// Column name.
    pub name: String,
}

/// The shape of rows flowing through the executor.
#[derive(Debug, Clone, Default)]
pub struct RowSchema {
    /// Slots in positional order.
    pub columns: Vec<ColumnRef>,
}

impl RowSchema {
    /// Build a schema for a single table's columns.
    pub fn for_table(table: &str, column_names: &[String]) -> Self {
        RowSchema {
            columns: column_names
                .iter()
                .map(|c| ColumnRef {
                    table: Some(table.to_ascii_uppercase()),
                    name: c.clone(),
                })
                .collect(),
        }
    }

    /// Concatenate two schemas (for joins).
    pub fn join(&self, other: &RowSchema) -> RowSchema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        RowSchema { columns }
    }

    /// Resolve a column reference to a slot index.
    ///
    /// Unqualified names must be unambiguous across the schema; qualified
    /// names match on both alias and column. Names compare against the
    /// slots' upper-case names, so the probe is matched case-blind.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let mut hit = None;
        for (i, c) in self.columns.iter().enumerate() {
            if !upper_eq(&c.name, name) {
                continue;
            }
            if let Some(t) = table {
                if !c.table.as_deref().is_some_and(|ct| upper_eq(ct, t)) {
                    continue;
                }
            }
            if hit.is_some() {
                let name = name.to_ascii_uppercase();
                return Err(DbError::Eval(format!("ambiguous column reference {name}")));
            }
            hit = Some(i);
        }
        hit.ok_or_else(|| {
            let full = match table {
                Some(t) => format!("{t}.{name}"),
                None => name.to_string(),
            };
            DbError::Eval(format!("unknown column {}", full.to_ascii_uppercase()))
        })
    }
}

/// `stored == probe.to_ascii_uppercase()`, without allocating.
fn upper_eq(stored: &str, probe: &str) -> bool {
    stored.len() == probe.len()
        && stored
            .bytes()
            .zip(probe.bytes())
            .all(|(s, p)| s == p.to_ascii_uppercase())
}

/// A scalar function implementation.
pub type ScalarFn = Rc<dyn Fn(&[Value]) -> Result<Value>>;

/// Registry of scalar functions, keyed by upper-case name.
///
/// The `easia-datalink` crate registers the SQL/MED `DL*` functions here
/// (`DLVALUE`, `DLURLCOMPLETE`, `DLURLPATH`, `DLURLSERVER`, ...).
#[derive(Clone, Default)]
pub struct FnRegistry {
    fns: HashMap<String, ScalarFn>,
}

impl FnRegistry {
    /// Registry preloaded with the built-in scalar functions.
    pub fn with_builtins() -> Self {
        let mut r = FnRegistry::default();
        r.register("LENGTH", |args| {
            expect_args("LENGTH", args, 1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                v => match v.as_text() {
                    Some(s) => Value::Int(s.chars().count() as i64),
                    None => match v.lob_size() {
                        Some(n) => Value::Int(n as i64),
                        None => return Err(DbError::Eval("LENGTH expects a string or LOB".into())),
                    },
                },
            })
        });
        r.register("UPPER", |args| {
            expect_args("UPPER", args, 1)?;
            string_fn(&args[0], |s| s.to_uppercase())
        });
        r.register("LOWER", |args| {
            expect_args("LOWER", args, 1)?;
            string_fn(&args[0], |s| s.to_lowercase())
        });
        r.register("TRIM", |args| {
            expect_args("TRIM", args, 1)?;
            string_fn(&args[0], |s| s.trim().to_string())
        });
        r.register("SUBSTR", |args| {
            if args.len() != 2 && args.len() != 3 {
                return Err(DbError::Eval("SUBSTR expects 2 or 3 arguments".into()));
            }
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = args[0]
                .as_text()
                .ok_or_else(|| DbError::Eval("SUBSTR expects a string".into()))?;
            let start = args[1]
                .as_int()
                .ok_or_else(|| DbError::Eval("SUBSTR start must be an integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            // SQL SUBSTR is 1-based.
            let from = (start.max(1) as usize - 1).min(chars.len());
            let len = match args.get(2) {
                Some(v) => v
                    .as_int()
                    .ok_or_else(|| DbError::Eval("SUBSTR length must be an integer".into()))?
                    .max(0) as usize,
                None => chars.len(),
            };
            Ok(Value::Str(chars[from..].iter().take(len).collect()))
        });
        r.register("ABS", |args| {
            expect_args("ABS", args, 1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(i.abs()),
                Value::Double(d) => Value::Double(d.abs()),
                _ => return Err(DbError::Eval("ABS expects a number".into())),
            })
        });
        r.register("ROUND", |args| {
            expect_args("ROUND", args, 1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(*i),
                Value::Double(d) => Value::Double(d.round()),
                _ => return Err(DbError::Eval("ROUND expects a number".into())),
            })
        });
        r.register("COALESCE", |args| {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        });
        r
    }

    /// Register (or replace) a function.
    pub fn register(&mut self, name: &str, f: impl Fn(&[Value]) -> Result<Value> + 'static) {
        self.fns.insert(name.to_ascii_uppercase(), Rc::new(f));
    }

    /// Look up a function.
    pub fn get(&self, name: &str) -> Option<&ScalarFn> {
        self.fns.get(&name.to_ascii_uppercase())
    }
}

fn expect_args(name: &str, args: &[Value], n: usize) -> Result<()> {
    if args.len() != n {
        return Err(DbError::Eval(format!(
            "{name} expects {n} argument(s), got {}",
            args.len()
        )));
    }
    Ok(())
}

fn string_fn(v: &Value, f: impl Fn(&str) -> String) -> Result<Value> {
    Ok(match v {
        Value::Null => Value::Null,
        v => match v.as_text() {
            Some(s) => Value::Str(f(s)),
            None => return Err(DbError::Eval("expected a string argument".into())),
        },
    })
}

/// Binds expressions to one row shape, once per statement: column
/// references become slot indices, parameters become their values, and
/// functions are looked up. A reference that cannot be bound — an
/// unknown or ambiguous column, a missing parameter, an unknown function
/// — binds to its error, raised only if evaluation reaches it. So a
/// statement that fails only when a row is evaluated still answers an
/// empty table, and the first error raised is the one row-at-a-time
/// evaluation of the unbound tree would raise.
pub(crate) struct Binder<'a> {
    /// Shape of the rows bound expressions read.
    pub(crate) schema: &'a RowSchema,
    /// Positional parameter values (1-based indices into this slice + 1).
    pub(crate) params: &'a [Value],
    /// Scalar functions.
    pub(crate) functions: &'a FnRegistry,
}

impl Binder<'_> {
    /// Bind `expr` for plain row evaluation (WHERE, ON, GROUP BY,
    /// aggregate arguments and the select list of a non-aggregate query).
    pub(crate) fn bind(&self, expr: &Expr) -> Bound {
        self.bind_in(expr, None)
    }

    /// Bind `expr` for evaluation over an aggregate group: each call in
    /// `calls` reached through unary and binary operators reads the
    /// group's finished value ([`Bound::eval`]'s `aggs[i]` for
    /// `calls[i]`), and AND/OR evaluate both sides before combining
    /// them. Under any other node an aggregate call is an ordinary
    /// function call (and so an unknown function). ORDER BY keys always
    /// bind this way, with no calls outside an aggregate query.
    pub(crate) fn bind_with_aggs(&self, expr: &Expr, calls: &[Expr]) -> Bound {
        self.bind_in(expr, Some(calls))
    }

    fn bind_in(&self, expr: &Expr, calls: Option<&[Expr]>) -> Bound {
        let sub = |e: &Expr| Box::new(self.bind_in(e, calls));
        match (expr, calls) {
            (Expr::Function { .. }, Some(calls)) => {
                if let Some(i) = calls.iter().position(|c| same_call(c, expr)) {
                    return Bound::Agg(i);
                }
                self.bind(expr)
            }
            (Expr::Unary(op, e), _) => Bound::Unary(*op, sub(e)),
            (Expr::Binary(l, op, r), _) => Bound::Binary {
                l: sub(l),
                op: *op,
                r: sub(r),
                short_circuit: calls.is_none(),
            },
            (_, Some(_)) => self.bind(expr),
            (Expr::Literal(v), None) => Bound::Const(v.clone()),
            (Expr::Param(n), None) => match n.checked_sub(1).and_then(|i| self.params.get(i)) {
                Some(v) => Bound::Const(v.clone()),
                None => Bound::Fail(DbError::Eval(format!("missing parameter ?{n}"))),
            },
            (Expr::Column { table, name }, None) => {
                match self.schema.resolve(table.as_deref(), name) {
                    Ok(i) => Bound::Slot(i),
                    Err(e) => Bound::Fail(e),
                }
            }
            (Expr::IsNull { expr, negated }, None) => Bound::IsNull(sub(expr), *negated),
            (
                Expr::Like {
                    expr,
                    pattern,
                    negated,
                },
                None,
            ) => Bound::Like {
                expr: sub(expr),
                pattern: sub(pattern),
                negated: *negated,
            },
            (
                Expr::InList {
                    expr,
                    list,
                    negated,
                },
                None,
            ) => Bound::InList {
                expr: sub(expr),
                list: list.iter().map(|e| self.bind(e)).collect(),
                negated: *negated,
            },
            (
                Expr::Between {
                    expr,
                    lo,
                    hi,
                    negated,
                },
                None,
            ) => Bound::Between {
                expr: sub(expr),
                lo: sub(lo),
                hi: sub(hi),
                negated: *negated,
            },
            (Expr::Function { name, args, star }, None) => {
                if *star {
                    return Bound::Fail(DbError::Eval(format!(
                        "{name}(*) is only valid as an aggregate"
                    )));
                }
                match self.functions.get(name) {
                    Some(f) => Bound::Call(f.clone(), args.iter().map(|a| self.bind(a)).collect()),
                    None => Bound::Fail(DbError::Eval(format!("unknown function {name}"))),
                }
            }
        }
    }
}

/// Whether `a` and `b` are the same aggregate call site, compared by
/// rendered form: the identity the executor deduplicates calls by and
/// substitutes finished aggregate values by.
pub(crate) fn same_call(a: &Expr, b: &Expr) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// An expression bound by a [`Binder`]: evaluates against a row by
/// reference, reading slots by index.
#[derive(Clone)]
pub(crate) enum Bound {
    /// A literal or parameter value.
    Const(Value),
    /// The row's value at a slot.
    Slot(usize),
    /// A finished aggregate value (see [`Binder::bind_with_aggs`]).
    Agg(usize),
    /// A reference that failed to bind; evaluating it raises the error.
    Fail(DbError),
    /// Unary operator.
    Unary(UnaryOp, Box<Bound>),
    /// Binary operator; `short_circuit` lets AND/OR skip their right
    /// side once the left decides.
    Binary {
        /// Left operand.
        l: Box<Bound>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        r: Box<Bound>,
        /// Whether AND/OR may skip the right operand.
        short_circuit: bool,
    },
    /// `IS [NOT] NULL`.
    IsNull(Box<Bound>, bool),
    /// `[NOT] LIKE`.
    Like {
        /// String operand.
        expr: Box<Bound>,
        /// Pattern operand.
        pattern: Box<Bound>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `[NOT] IN (...)`.
    InList {
        /// Probe operand.
        expr: Box<Bound>,
        /// Candidate list.
        list: Vec<Bound>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `[NOT] BETWEEN lo AND hi`.
    Between {
        /// Probe operand.
        expr: Box<Bound>,
        /// Lower bound.
        lo: Box<Bound>,
        /// Upper bound.
        hi: Box<Bound>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// A scalar function call.
    Call(ScalarFn, Vec<Bound>),
}

impl Bound {
    /// Evaluate against `row` (and, for [`Bound::Agg`], the finished
    /// aggregate values `aggs`). Slots and constants come back borrowed;
    /// only computed values are allocated.
    pub(crate) fn eval<'a>(
        &'a self,
        row: &'a [Value],
        aggs: &'a [Value],
    ) -> Result<Cow<'a, Value>> {
        let v = match self {
            Bound::Const(v) => return Ok(Cow::Borrowed(v)),
            Bound::Slot(i) => return Ok(Cow::Borrowed(&row[*i])),
            Bound::Agg(i) => return Ok(Cow::Borrowed(&aggs[*i])),
            Bound::Fail(e) => return Err(e.clone()),
            Bound::Unary(op, e) => {
                let v = e.eval(row, aggs)?;
                match op {
                    UnaryOp::Neg => match v.as_ref() {
                        Value::Null => Value::Null,
                        Value::Int(i) => Value::Int(-i),
                        Value::Double(d) => Value::Double(-d),
                        other => {
                            return Err(DbError::Eval(format!(
                                "cannot negate {}",
                                other.type_name()
                            )))
                        }
                    },
                    UnaryOp::Not => match truth(&v) {
                        Some(b) => Value::Bool(!b),
                        None => Value::Null,
                    },
                }
            }
            Bound::Binary {
                l,
                op,
                r,
                short_circuit,
            } => return eval_binary(l, *op, r, *short_circuit, row, aggs).map(Cow::Owned),
            Bound::IsNull(e, negated) => Value::Bool(e.eval(row, aggs)?.is_null() != *negated),
            Bound::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row, aggs)?;
                let p = pattern.eval(row, aggs)?;
                if v.is_null() || p.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let s = v
                    .as_text()
                    .ok_or_else(|| DbError::Eval("LIKE expects strings".into()))?;
                let pat = p
                    .as_text()
                    .ok_or_else(|| DbError::Eval("LIKE pattern must be a string".into()))?;
                Value::Bool(like_match(s, pat) != *negated)
            }
            Bound::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row, aggs)?;
                if v.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let mut saw_null = false;
                for item in list {
                    let w = item.eval(row, aggs)?;
                    if w.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if v.sql_cmp(&w) == Some(Ordering::Equal) {
                        return Ok(Cow::Owned(Value::Bool(!negated)));
                    }
                }
                if saw_null {
                    // x IN (..., NULL) is UNKNOWN when no match was found.
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            Bound::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval(row, aggs)?;
                let lo = lo.eval(row, aggs)?;
                let hi = hi.eval(row, aggs)?;
                let ge = match v.sql_cmp(&lo) {
                    Some(o) => o != Ordering::Less,
                    None => return Ok(Cow::Owned(Value::Null)),
                };
                let le = match v.sql_cmp(&hi) {
                    Some(o) => o != Ordering::Greater,
                    None => return Ok(Cow::Owned(Value::Null)),
                };
                Value::Bool((ge && le) != *negated)
            }
            Bound::Call(f, args) => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(row, aggs).map(Cow::into_owned))
                    .collect::<Result<_>>()?;
                f(&vals)?
            }
        };
        Ok(Cow::Owned(v))
    }

    /// SQL truth of the value against `row`: `Some(bool)`, or `None` for
    /// UNKNOWN.
    pub(crate) fn truth(&self, row: &[Value]) -> Result<Option<bool>> {
        Ok(truth(&*self.eval(row, &[])?))
    }

    /// Append every slot this expression reads to `out`.
    pub(crate) fn slots(&self, out: &mut Vec<usize>) {
        let mut walk = |b: &Bound| b.slots(out);
        match self {
            Bound::Slot(i) => out.push(*i),
            Bound::Const(_) | Bound::Agg(_) | Bound::Fail(_) => {}
            Bound::Unary(_, e) | Bound::IsNull(e, _) => walk(e),
            Bound::Binary { l, r, .. } => {
                walk(l);
                walk(r);
            }
            Bound::Like { expr, pattern, .. } => {
                walk(expr);
                walk(pattern);
            }
            Bound::InList { expr, list, .. } => {
                walk(expr);
                list.iter().for_each(walk);
            }
            Bound::Between { expr, lo, hi, .. } => {
                walk(expr);
                walk(lo);
                walk(hi);
            }
            Bound::Call(_, args) => args.iter().for_each(walk),
        }
    }
}

fn eval_binary(
    l: &Bound,
    op: BinaryOp,
    r: &Bound,
    short_circuit: bool,
    row: &[Value],
    aggs: &[Value],
) -> Result<Value> {
    // Logical operators get SQL 3VL treatment.
    if op == BinaryOp::And {
        let lv = truth(&*l.eval(row, aggs)?);
        if short_circuit && lv == Some(false) {
            return Ok(Value::Bool(false));
        }
        let rv = truth(&*r.eval(row, aggs)?);
        return Ok(match (lv, rv) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        });
    }
    if op == BinaryOp::Or {
        let lv = truth(&*l.eval(row, aggs)?);
        if short_circuit && lv == Some(true) {
            return Ok(Value::Bool(true));
        }
        let rv = truth(&*r.eval(row, aggs)?);
        return Ok(match (lv, rv) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        });
    }
    let lv = l.eval(row, aggs)?;
    let rv = r.eval(row, aggs)?;
    match op {
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => {
            let ord = match lv.sql_cmp(&rv) {
                Some(o) => o,
                None => {
                    if lv.is_null() || rv.is_null() {
                        return Ok(Value::Null);
                    }
                    return Err(DbError::Type(format!(
                        "cannot compare {} with {}",
                        lv.type_name(),
                        rv.type_name()
                    )));
                }
            };
            let b = match op {
                BinaryOp::Eq => ord == Ordering::Equal,
                BinaryOp::NotEq => ord != Ordering::Equal,
                BinaryOp::Lt => ord == Ordering::Less,
                BinaryOp::LtEq => ord != Ordering::Greater,
                BinaryOp::Gt => ord == Ordering::Greater,
                BinaryOp::GtEq => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinaryOp::Concat => {
            if lv.is_null() || rv.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Str(format!("{lv}{rv}")))
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            if lv.is_null() || rv.is_null() {
                return Ok(Value::Null);
            }
            arith(&lv, op, &rv)
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

fn arith(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    // Integer arithmetic stays integral; anything else is double.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinaryOp::Add => Value::Int(a.wrapping_add(*b)),
            BinaryOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinaryOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinaryOp::Div => {
                if *b == 0 {
                    return Err(DbError::Eval("division by zero".into()));
                }
                Value::Int(a / b)
            }
            BinaryOp::Mod => {
                if *b == 0 {
                    return Err(DbError::Eval("division by zero".into()));
                }
                Value::Int(a % b)
            }
            _ => unreachable!(),
        });
    }
    let (a, b) = match (l.numeric(), r.numeric()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(DbError::Type(format!(
                "arithmetic on {} and {}",
                l.type_name(),
                r.type_name()
            )))
        }
    };
    Ok(match op {
        BinaryOp::Add => Value::Double(a + b),
        BinaryOp::Sub => Value::Double(a - b),
        BinaryOp::Mul => Value::Double(a * b),
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(DbError::Eval("division by zero".into()));
            }
            Value::Double(a / b)
        }
        BinaryOp::Mod => {
            if b == 0.0 {
                return Err(DbError::Eval("division by zero".into()));
            }
            Value::Double(a % b)
        }
        _ => unreachable!(),
    })
}

/// SQL truth of a value: `Some(bool)` or `None` for UNKNOWN.
pub fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        // Any other value in a boolean position is an error elsewhere;
        // treating non-empty as true would mask bugs, so be strict.
        _ => None,
    }
}

/// SQL LIKE matching: `%` matches any run (including empty), `_` matches
/// exactly one character. Matching is case-sensitive, per the standard.
pub fn like_match(s: &str, pattern: &str) -> bool {
    if s.is_ascii() && pattern.is_ascii() {
        // One byte per character: match the bytes, allocating nothing.
        return wildcard_match(s.as_bytes(), pattern.as_bytes(), b'%', b'_');
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    wildcard_match(&sc, &pc, '%', '_')
}

/// Greedy wildcard matching with backtracking to the last `any`: each
/// `any` re-anchors the match, so the walk is O(|s|·|p|) at worst.
fn wildcard_match<T: PartialEq>(s: &[T], p: &[T], any: T, one: T) -> bool {
    let (mut si, mut pi) = (0, 0);
    // Position after the last `any` seen, and where in `s` it resumes.
    let mut star: Option<(usize, usize)> = None;
    while si < s.len() {
        if pi < p.len() && p[pi] == any {
            pi += 1;
            star = Some((pi, si));
        } else if pi < p.len() && (p[pi] == one || p[pi] == s[si]) {
            pi += 1;
            si += 1;
        } else if let Some((sp, ss)) = star {
            // Let the last `any` swallow one more character.
            pi = sp;
            si = ss + 1;
            star = Some((sp, ss + 1));
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|c| *c == any)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::Expr as E;
    use crate::sql::ast::{SelectItem, Stmt};
    use crate::sql::parse;

    fn eval_str(sql_expr: &str) -> Result<Value> {
        // Parse `SELECT <expr>` and evaluate against an empty row.
        let stmt = parse(&format!("SELECT {sql_expr}"))?;
        let expr = match stmt {
            Stmt::Select(s) => match s.items.into_iter().next().unwrap() {
                SelectItem::Expr { expr, .. } => expr,
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        let schema = RowSchema::default();
        let fns = FnRegistry::with_builtins();
        let binder = Binder {
            schema: &schema,
            params: &[],
            functions: &fns,
        };
        binder.bind(&expr).eval(&[], &[]).map(Cow::into_owned)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_str("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_str("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2").unwrap(), Value::Double(3.5));
        assert_eq!(eval_str("7 % 4").unwrap(), Value::Int(3));
        assert_eq!(eval_str("-(3 - 5)").unwrap(), Value::Int(2));
        assert!(eval_str("1 / 0").is_err());
        assert!(eval_str("1.5 % 0").is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_str("NULL + 1").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL = NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("1 < NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("'a' || NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("1 IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_str("TRUE AND NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("FALSE AND NULL").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("TRUE OR NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("FALSE OR NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("NOT NULL").unwrap(), Value::Null);
        assert_eq!(eval_str("NOT FALSE").unwrap(), Value::Bool(true));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_str("2 >= 2").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("2 <> 3").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'abc' < 'abd'").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("2 = 2.0").unwrap(), Value::Bool(true));
        assert!(eval_str("'a' > 1").is_err(), "incomparable non-null types");
    }

    #[test]
    fn concat() {
        assert_eq!(
            eval_str("'tur' || 'bulence'").unwrap(),
            Value::Str("turbulence".into())
        );
        assert_eq!(eval_str("'v' || 42").unwrap(), Value::Str("v42".into()));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("turbulence", "%bul%"));
        assert!(like_match("turbulence", "tur%"));
        assert!(like_match("turbulence", "%ence"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("S19990110150932", "S1999%"));
        assert!(!like_match("ABC", "abc"), "case-sensitive");
        assert!(like_match("aaa", "%%a%"));
    }

    #[test]
    fn like_via_eval() {
        assert_eq!(
            eval_str("'Channel flow' LIKE '%flow'").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("'x' NOT LIKE 'y%'").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("NULL LIKE '%'").unwrap(), Value::Null);
    }

    #[test]
    fn in_list_semantics() {
        assert_eq!(eval_str("2 IN (1, 2, 3)").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("5 IN (1, 2)").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("5 NOT IN (1, 2)").unwrap(), Value::Bool(true));
        // NULL in the list makes a non-match UNKNOWN.
        assert_eq!(eval_str("5 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_str("1 IN (1, NULL)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_semantics() {
        assert_eq!(eval_str("5 BETWEEN 1 AND 10").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("0 BETWEEN 1 AND 10").unwrap(), Value::Bool(false));
        assert_eq!(
            eval_str("0 NOT BETWEEN 1 AND 10").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("5 BETWEEN NULL AND 10").unwrap(), Value::Null);
    }

    #[test]
    fn builtin_functions() {
        assert_eq!(eval_str("LENGTH('abc')").unwrap(), Value::Int(3));
        assert_eq!(eval_str("UPPER('abc')").unwrap(), Value::Str("ABC".into()));
        assert_eq!(eval_str("LOWER('ABC')").unwrap(), Value::Str("abc".into()));
        assert_eq!(
            eval_str("SUBSTR('turbulence', 4, 3)").unwrap(),
            Value::Str("bul".into())
        );
        assert_eq!(
            eval_str("SUBSTR('abc', 2)").unwrap(),
            Value::Str("bc".into())
        );
        assert_eq!(eval_str("ABS(-4)").unwrap(), Value::Int(4));
        assert_eq!(eval_str("ROUND(2.6)").unwrap(), Value::Double(3.0));
        assert_eq!(eval_str("COALESCE(NULL, NULL, 7)").unwrap(), Value::Int(7));
        assert_eq!(eval_str("TRIM('  x ')").unwrap(), Value::Str("x".into()));
        assert_eq!(eval_str("LENGTH(NULL)").unwrap(), Value::Null);
        assert!(eval_str("NO_SUCH_FN(1)").is_err());
        assert!(eval_str("LENGTH(1, 2)").is_err());
    }

    #[test]
    fn column_resolution() {
        let schema = RowSchema {
            columns: vec![
                ColumnRef {
                    table: Some("S".into()),
                    name: "KEY".into(),
                },
                ColumnRef {
                    table: Some("A".into()),
                    name: "KEY".into(),
                },
                ColumnRef {
                    table: Some("A".into()),
                    name: "NAME".into(),
                },
            ],
        };
        assert_eq!(schema.resolve(Some("s"), "key").unwrap(), 0);
        assert_eq!(schema.resolve(Some("A"), "KEY").unwrap(), 1);
        assert_eq!(schema.resolve(None, "NAME").unwrap(), 2);
        assert!(schema.resolve(None, "KEY").is_err(), "ambiguous");
        assert!(schema.resolve(None, "MISSING").is_err());
    }

    #[test]
    fn column_eval_and_params() {
        let schema = RowSchema::for_table("T", &["A".into(), "B".into()]);
        let fns = FnRegistry::with_builtins();
        let row = vec![Value::Int(10), Value::Str("x".into())];
        let params = vec![Value::Int(10)];
        let binder = Binder {
            schema: &schema,
            params: &params,
            functions: &fns,
        };
        let e = E::Binary(
            Box::new(E::Column {
                table: None,
                name: "A".into(),
            }),
            BinaryOp::Eq,
            Box::new(E::Param(1)),
        );
        let bound = binder.bind(&e);
        assert_eq!(bound.eval(&row, &[]).unwrap().as_ref(), &Value::Bool(true));
        let mut slots = Vec::new();
        bound.slots(&mut slots);
        assert_eq!(slots, vec![0]);
        assert!(
            binder.bind(&E::Param(2)).eval(&row, &[]).is_err(),
            "missing param"
        );
        // A column slot evaluates by reference.
        let b = binder.bind(&E::Column {
            table: Some("t".into()),
            name: "b".into(),
        });
        assert!(matches!(b.eval(&row, &[]).unwrap(), Cow::Borrowed(Value::Str(s)) if s == "x"));
    }

    #[test]
    fn unbindable_references_fail_only_when_evaluated() {
        let schema = RowSchema::for_table("T", &["A".into()]);
        let fns = FnRegistry::with_builtins();
        let binder = Binder {
            schema: &schema,
            params: &[],
            functions: &fns,
        };
        let stmt = parse("SELECT * FROM T WHERE A = 1 AND NOPE(Z) = ?").unwrap();
        let Stmt::Select(sel) = stmt else { panic!() };
        let bound = binder.bind(sel.where_clause.as_ref().unwrap());
        let row = [Value::Int(2)];
        assert_eq!(bound.truth(&row).unwrap(), Some(false), "short-circuits");
        let row = [Value::Int(1)];
        assert_eq!(
            bound.truth(&row).unwrap_err(),
            DbError::Eval("unknown function NOPE".into())
        );
    }

    #[test]
    fn aggregate_binding_substitutes_calls_and_evaluates_both_sides() {
        let schema = RowSchema::for_table("T", &["A".into()]);
        let fns = FnRegistry::with_builtins();
        let binder = Binder {
            schema: &schema,
            params: &[],
            functions: &fns,
        };
        let stmt = parse("SELECT SUM(A) + 1, 1 = 0 AND Z = 1, COALESCE(SUM(A), 0) FROM T").unwrap();
        let Stmt::Select(sel) = stmt else { panic!() };
        let items: Vec<&Expr> = sel
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Expr { expr, .. } => expr,
                other => panic!("{other:?}"),
            })
            .collect();
        let Expr::Binary(call, ..) = items[0] else {
            panic!()
        };
        let calls = vec![(**call).clone()];
        let aggs = [Value::Int(41)];
        let row = [Value::Null];
        let sum = binder.bind_with_aggs(items[0], &calls);
        assert_eq!(sum.eval(&row, &aggs).unwrap().as_ref(), &Value::Int(42));
        let strict = binder.bind_with_aggs(items[1], &calls);
        assert_eq!(
            strict.eval(&row, &aggs).unwrap_err(),
            DbError::Eval("unknown column Z".into())
        );
        let nested = binder.bind_with_aggs(items[2], &calls);
        assert_eq!(
            nested.eval(&row, &aggs).unwrap_err(),
            DbError::Eval("unknown function SUM".into())
        );
    }

    #[test]
    fn like_matches_non_ascii_by_character() {
        assert!(like_match("héllo", "h_llo"));
        assert!(like_match("héllo", "%é%"));
        assert!(!like_match("héllo", "h_lo"));
        assert!(like_match("ab", "%%%"));
        assert!(!like_match("a", "a_%"));
        assert!(like_match("abcabd", "%abd"));
        assert!(like_match(
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaab",
            "%a%a%a%a%a%a%b"
        ));
    }
}
