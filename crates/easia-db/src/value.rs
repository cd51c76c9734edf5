//! SQL values and types, including the SQL/MED `DATALINK` type.

use crate::error::{DbError, Result};
use std::cmp::Ordering;
use std::fmt;

/// Column types supported by the engine.
///
/// `Blob`/`Clob` hold "small files that can be uploaded over the Internet"
/// inside the database; `Datalink` references an external file managed
/// under SQL/MED link control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlType {
    /// 64-bit signed integer (covers SMALLINT/INTEGER/BIGINT).
    Integer,
    /// 64-bit IEEE float (covers REAL/DOUBLE).
    Double,
    /// Variable-length string with a declared maximum length.
    Varchar(usize),
    /// Boolean.
    Boolean,
    /// Seconds since the archive epoch.
    Timestamp,
    /// Binary large object stored in the database.
    Blob,
    /// Character large object stored in the database.
    Clob,
    /// SQL/MED DATALINK: a URL referencing external data.
    Datalink,
}

impl SqlType {
    /// Human-readable SQL name.
    pub fn sql_name(&self) -> String {
        match self {
            SqlType::Integer => "INTEGER".into(),
            SqlType::Double => "DOUBLE".into(),
            SqlType::Varchar(n) => format!("VARCHAR({n})"),
            SqlType::Boolean => "BOOLEAN".into(),
            SqlType::Timestamp => "TIMESTAMP".into(),
            SqlType::Blob => "BLOB".into(),
            SqlType::Clob => "CLOB".into(),
            SqlType::Datalink => "DATALINK".into(),
        }
    }
}

/// A runtime SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Double.
    Double(f64),
    /// String (VARCHAR).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Timestamp (seconds).
    Timestamp(i64),
    /// Binary large object.
    Blob(Vec<u8>),
    /// Character large object.
    Clob(String),
    /// DATALINK URL, stored in its "linked" form
    /// (`http://host/path/filename`); access tokens are spliced in at
    /// SELECT time by the datalink layer.
    Datalink(String),
}

impl Value {
    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The natural type of this value, or `None` for NULL.
    pub fn sql_type(&self) -> Option<SqlType> {
        Some(match self {
            Value::Null => return None,
            Value::Int(_) => SqlType::Integer,
            Value::Double(_) => SqlType::Double,
            Value::Str(_) => SqlType::Varchar(usize::MAX),
            Value::Bool(_) => SqlType::Boolean,
            Value::Timestamp(_) => SqlType::Timestamp,
            Value::Blob(_) => SqlType::Blob,
            Value::Clob(_) => SqlType::Clob,
            Value::Datalink(_) => SqlType::Datalink,
        })
    }

    /// Coerce this value to `ty`, or error. NULL passes through.
    pub fn coerce(self, ty: SqlType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let err = |v: &Value| {
            Err(DbError::Type(format!(
                "cannot store {} in a {} column",
                v.type_name(),
                ty.sql_name()
            )))
        };
        Ok(match (ty, self) {
            (SqlType::Integer, Value::Int(i)) => Value::Int(i),
            (SqlType::Integer, Value::Double(d)) if d.fract() == 0.0 => Value::Int(d as i64),
            (SqlType::Double, Value::Double(d)) => Value::Double(d),
            (SqlType::Double, Value::Int(i)) => Value::Double(i as f64),
            (SqlType::Varchar(max), Value::Str(s)) => {
                if s.chars().count() > max {
                    return Err(DbError::Type(format!(
                        "value of length {} exceeds VARCHAR({max})",
                        s.chars().count()
                    )));
                }
                Value::Str(s)
            }
            (SqlType::Boolean, Value::Bool(b)) => Value::Bool(b),
            (SqlType::Timestamp, Value::Timestamp(t)) => Value::Timestamp(t),
            (SqlType::Timestamp, Value::Int(t)) => Value::Timestamp(t),
            (SqlType::Blob, Value::Blob(b)) => Value::Blob(b),
            (SqlType::Blob, Value::Str(s)) => Value::Blob(s.into_bytes()),
            (SqlType::Clob, Value::Clob(c)) => Value::Clob(c),
            (SqlType::Clob, Value::Str(s)) => Value::Clob(s),
            (SqlType::Datalink, Value::Datalink(u)) => Value::Datalink(u),
            (SqlType::Datalink, Value::Str(u)) => Value::Datalink(u),
            (_, v) => return err(&v),
        })
    }

    /// Short type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INTEGER",
            Value::Double(_) => "DOUBLE",
            Value::Str(_) => "VARCHAR",
            Value::Bool(_) => "BOOLEAN",
            Value::Timestamp(_) => "TIMESTAMP",
            Value::Blob(_) => "BLOB",
            Value::Clob(_) => "CLOB",
            Value::Datalink(_) => "DATALINK",
        }
    }

    /// SQL comparison with three-valued logic: NULL compares as unknown.
    /// Returns `None` when either side is NULL or the types are
    /// incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Int(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Clob(a), Clob(b)) => Some(a.cmp(b)),
            (Str(a), Clob(b)) | (Clob(b), Str(a)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Timestamp(a), Int(b)) | (Int(b), Timestamp(a)) => Some(a.cmp(b)),
            (Blob(a), Blob(b)) => Some(a.cmp(b)),
            (Datalink(a), Datalink(b)) => Some(a.cmp(b)),
            (Datalink(a), Str(b)) | (Str(b), Datalink(a)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used for index keys and ORDER BY: NULLs sort first,
    /// then by type family, then by value. Unlike [`Value::sql_cmp`] this
    /// never fails, so B+trees and sorts are well-defined over mixed data.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Double(_) | Value::Timestamp(_) => 2,
                Value::Str(_) | Value::Clob(_) | Value::Datalink(_) => 3,
                Value::Blob(_) => 4,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Blob(a), Value::Blob(b)) => a.cmp(b),
            _ if ra == 2 => {
                let a = self.as_f64().expect("rank 2 is numeric");
                let b = other.as_f64().expect("rank 2 is numeric");
                a.partial_cmp(&b).unwrap_or(Ordering::Equal)
            }
            _ => self
                .as_str_like()
                .expect("rank 3 is stringy")
                .cmp(other.as_str_like().expect("rank 3 is stringy")),
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    fn as_str_like(&self) -> Option<&str> {
        match self {
            Value::Str(s) | Value::Clob(s) | Value::Datalink(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a string, if this is any string-like value.
    pub fn as_text(&self) -> Option<&str> {
        self.as_str_like()
    }

    /// Borrow as an integer, if numeric and integral.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) | Value::Timestamp(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view used by arithmetic and aggregates.
    pub fn numeric(&self) -> Option<f64> {
        self.as_f64()
    }

    /// Size in bytes of a large-object value, used for the interface's
    /// "hypertext link displays size of object" rendering.
    pub fn lob_size(&self) -> Option<usize> {
        match self {
            Value::Blob(b) => Some(b.len()),
            Value::Clob(c) => Some(c.len()),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) | Value::Clob(s) | Value::Datalink(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Timestamp(t) => write!(f, "{t}"),
            Value::Blob(b) => write!(f, "<blob {} bytes>", b.len()),
        }
    }
}

/// Encode a row (for heap pages, WAL records and snapshots).
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        encode_value(v, out);
    }
}

/// Encode one value: the per-column part of [`encode_row`]. A row
/// encoding is the `u32` column count followed by each value's encoding.
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(2);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_bytes(out, s.as_bytes());
        }
        Value::Bool(b) => out.push(if *b { 5 } else { 4 }),
        Value::Timestamp(t) => {
            out.push(6);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Value::Blob(b) => {
            out.push(7);
            put_bytes(out, b);
        }
        Value::Clob(c) => {
            out.push(8);
            put_bytes(out, c.as_bytes());
        }
        Value::Datalink(u) => {
            out.push(9);
            put_bytes(out, u.as_bytes());
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Decode a row previously encoded with [`encode_row`]; advances `pos`.
pub fn decode_row(buf: &[u8], pos: &mut usize) -> Result<Vec<Value>> {
    let n = read_u32(buf, pos)? as usize;
    let mut row = Vec::with_capacity(n.min(buf.len()));
    for _ in 0..n {
        let mut v = Value::Null;
        decode_value_into(buf, pos, &mut v)?;
        row.push(v);
    }
    Ok(row)
}

/// Decode only the columns `cols` (ascending slot numbers) of the
/// [`encode_row`] record `rec` into the same slots of `out`, skipping
/// the others and stopping after the last one wanted; slots not in
/// `cols` keep whatever they held. Text and byte values decode into the
/// buffer their slot already owns, so a scan that reuses `out` across
/// rows allocates nothing per row once its buffers have grown.
pub(crate) fn decode_columns(rec: &[u8], cols: &[usize], out: &mut [Value]) -> Result<()> {
    let Some(&last) = cols.last() else {
        return Ok(());
    };
    let mut pos = 0;
    let n = read_u32(rec, &mut pos)? as usize;
    if last >= n || out.len() < n {
        return Err(DbError::Storage(format!(
            "row decode: record has {n} columns, row has {}",
            out.len()
        )));
    }
    let mut want = cols.iter().peekable();
    for (i, slot) in out.iter_mut().enumerate().take(last + 1) {
        if want.next_if_eq(&&i).is_some() {
            decode_value_into(rec, &mut pos, slot)?;
        } else {
            skip_value(rec, &mut pos)?;
        }
    }
    Ok(())
}

fn read_tag(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| DbError::Storage("row decode: truncated".into()))?;
    *pos += 1;
    Ok(tag)
}

/// Decode one value into `slot`, reusing the string or byte buffer it
/// already holds.
fn decode_value_into(buf: &[u8], pos: &mut usize, slot: &mut Value) -> Result<()> {
    let tag = read_tag(buf, pos)?;
    *slot = match tag {
        0 => Value::Null,
        1 => Value::Int(read_i64(buf, pos)?),
        2 => Value::Double(f64::from_le_bytes(read_8(buf, pos)?)),
        3 | 8 | 9 => {
            let len = read_u32(buf, pos)? as usize;
            let text = std::str::from_utf8(get_slice(buf, pos, len)?)
                .map_err(|_| DbError::Storage("row decode: bad utf8".into()))?;
            let mut s = match std::mem::replace(slot, Value::Null) {
                Value::Str(s) | Value::Clob(s) | Value::Datalink(s) => s,
                _ => String::new(),
            };
            s.clear();
            s.push_str(text);
            match tag {
                3 => Value::Str(s),
                8 => Value::Clob(s),
                _ => Value::Datalink(s),
            }
        }
        4 => Value::Bool(false),
        5 => Value::Bool(true),
        6 => Value::Timestamp(read_i64(buf, pos)?),
        7 => {
            let len = read_u32(buf, pos)? as usize;
            let bytes = get_slice(buf, pos, len)?;
            let mut b = match std::mem::replace(slot, Value::Null) {
                Value::Blob(b) => b,
                _ => Vec::new(),
            };
            b.clear();
            b.extend_from_slice(bytes);
            Value::Blob(b)
        }
        t => return Err(DbError::Storage(format!("row decode: bad tag {t}"))),
    };
    Ok(())
}

/// Advance `pos` past one encoded value.
fn skip_value(buf: &[u8], pos: &mut usize) -> Result<()> {
    let len = match read_tag(buf, pos)? {
        0 | 4 | 5 => 0,
        1 | 2 | 6 => 8,
        3 | 7 | 8 | 9 => read_u32(buf, pos)? as usize,
        t => return Err(DbError::Storage(format!("row decode: bad tag {t}"))),
    };
    get_slice(buf, pos, len).map(|_| ())
}

fn get_slice<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8]> {
    let s = buf
        .get(*pos..*pos + len)
        .ok_or_else(|| DbError::Storage("row decode: truncated".into()))?;
    *pos += len;
    Ok(s)
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    Ok(u32::from_le_bytes(
        get_slice(buf, pos, 4)?.try_into().expect("4 bytes"),
    ))
}

fn read_8(buf: &[u8], pos: &mut usize) -> Result<[u8; 8]> {
    Ok(get_slice(buf, pos, 8)?.try_into().expect("8 bytes"))
}

fn read_i64(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(i64::from_le_bytes(read_8(buf, pos)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Int(5).coerce(SqlType::Double).unwrap(),
            Value::Double(5.0)
        );
        assert_eq!(
            Value::Double(5.0).coerce(SqlType::Integer).unwrap(),
            Value::Int(5)
        );
        assert!(Value::Double(5.5).coerce(SqlType::Integer).is_err());
        assert_eq!(
            Value::Str("x".into()).coerce(SqlType::Clob).unwrap(),
            Value::Clob("x".into())
        );
        assert_eq!(
            Value::Str("http://h/f".into())
                .coerce(SqlType::Datalink)
                .unwrap(),
            Value::Datalink("http://h/f".into())
        );
        assert!(Value::Null.coerce(SqlType::Integer).unwrap().is_null());
    }

    #[test]
    fn varchar_length_enforced() {
        assert!(Value::Str("abcd".into())
            .coerce(SqlType::Varchar(3))
            .is_err());
        assert!(Value::Str("abc".into()).coerce(SqlType::Varchar(3)).is_ok());
    }

    #[test]
    fn sql_cmp_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(2).sql_cmp(&Value::Int(3)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Str("a".into()).sql_cmp(&Value::Int(1)),
            None,
            "incomparable types"
        );
    }

    #[test]
    fn total_cmp_is_total() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Double(2.5),
            Value::Timestamp(100),
            Value::Str("a".into()),
            Value::Clob("b".into()),
            Value::Datalink("c".into()),
            Value::Blob(vec![1]),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse(), "{a:?} vs {b:?}");
            }
            assert_eq!(a.total_cmp(a), Ordering::Equal);
        }
    }

    #[test]
    fn row_codec_round_trip() {
        let row = vec![
            Value::Null,
            Value::Int(-42),
            Value::Double(3.25),
            Value::Str("héllo".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Timestamp(123456789),
            Value::Blob(vec![0, 1, 2, 255]),
            Value::Clob("large text".into()),
            Value::Datalink("http://fs1/data/t1.edf".into()),
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let mut pos = 0;
        let back = decode_row(&buf, &mut pos).unwrap();
        assert_eq!(back, row);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decode_columns_reads_only_the_wanted_slots() {
        let row = vec![
            Value::Str("key".into()),
            Value::Blob(vec![1, 2]),
            Value::Int(7),
            Value::Null,
            Value::Datalink("http://fs1/a".into()),
            Value::Double(0.5),
        ];
        let mut rec = Vec::new();
        encode_row(&row, &mut rec);
        let mut out = vec![Value::Bool(true); row.len()];
        decode_columns(&rec, &[2, 4], &mut out).unwrap();
        assert_eq!(out[2], Value::Int(7));
        assert_eq!(out[4], Value::Datalink("http://fs1/a".into()));
        assert_eq!(out[0], Value::Bool(true), "unwanted slots untouched");
        assert_eq!(out[5], Value::Bool(true), "stops after the last wanted");
        // Reusing the buffers: a string slot takes any string variant.
        decode_columns(&rec, &[0, 1, 3, 4, 5], &mut out).unwrap();
        assert_eq!(out, {
            let mut want = row.clone();
            want[2] = Value::Int(7);
            want
        });
        decode_columns(&rec, &[], &mut out).unwrap();
        assert!(decode_columns(&rec[..rec.len() - 3], &[5], &mut out).is_err());
        assert!(decode_columns(&rec, &[6], &mut vec![Value::Null; 7]).is_err());
    }

    #[test]
    fn row_codec_rejects_truncation() {
        let row = vec![Value::Str("abcdef".into())];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        for cut in [1, 4, 6, buf.len() - 1] {
            let mut pos = 0;
            assert!(decode_row(&buf[..cut], &mut pos).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn lob_size_reporting() {
        assert_eq!(Value::Blob(vec![0; 10]).lob_size(), Some(10));
        assert_eq!(Value::Clob("abc".into()).lob_size(), Some(3));
        assert_eq!(Value::Int(1).lob_size(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::Blob(vec![1, 2]).to_string(), "<blob 2 bytes>");
    }
}
