//! Value banks: the distinct values observed at one location (or for one
//! object), in first-seen order, up to a cap.
//!
//! "Distinct" means distinct compact JSON text ([`Value::to_json`]): object
//! keys compare in order, `3` and `3.0` differ, and a non-finite float
//! prints — and so deduplicates — as `null`. [`Value`]'s own `==` ignores
//! key order and equates `3` with `3.0`, so it does not fit here. Hashing
//! and comparison walk the values directly; no JSON text is built.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use apiphany_json::Value;

const NONE: u32 = u32::MAX;

/// A hash index over the items of a vector, which the owner keeps: one
/// chain per hash, so a lookup compares only the items whose hash matches.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashIndex {
    /// Per item, the previous item with the same hash (`NONE` ends the
    /// chain).
    next: Vec<u32>,
    /// Hash → the last item with that hash.
    heads: HashMap<u64, u32>,
}

impl HashIndex {
    /// Whether an item with hash `h` satisfies `eq` (given its position).
    pub(crate) fn contains(&self, h: u64, mut eq: impl FnMut(usize) -> bool) -> bool {
        let mut i = self.heads.get(&h).copied().unwrap_or(NONE);
        while i != NONE {
            if eq(i as usize) {
                return true;
            }
            i = self.next[i as usize];
        }
        false
    }

    /// Records that the next item (at position `len`) has hash `h`.
    pub(crate) fn push(&mut self, h: u64) {
        let i = self.next.len() as u32;
        self.next.push(self.heads.insert(h, i).unwrap_or(NONE));
    }
}

/// A capped, order-preserving set of values under JSON-text equality.
/// Values hash with fixed keys, so that banks can merge without hashing
/// again; the cap bounds what a crafted collision can cost.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bank {
    values: Vec<Value>,
    hashes: Vec<u64>,
    index: HashIndex,
}

impl Bank {
    /// Adds a copy of `v` unless the bank already holds `cap` values or one
    /// with the same JSON text. Returns whether it was added.
    pub(crate) fn insert(&mut self, v: &Value, cap: usize) -> bool {
        self.values.len() < cap && self.insert_hashed(v, fixed_hash(v))
    }

    /// Adds `other`'s values in order, as [`Bank::insert`] would.
    pub(crate) fn extend(&mut self, other: &Bank, cap: usize) {
        for (v, &h) in other.values.iter().zip(&other.hashes) {
            if self.values.len() >= cap {
                return;
            }
            self.insert_hashed(v, h);
        }
    }

    fn insert_hashed(&mut self, v: &Value, h: u64) -> bool {
        if self.index.contains(h, |i| same_json(&self.values[i], v)) {
            return false;
        }
        self.index.push(h);
        self.hashes.push(h);
        self.values.push(v.clone());
        true
    }

    /// The values, in first-seen order.
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// Takes the values out, in first-seen order.
    pub(crate) fn into_values(self) -> Vec<Value> {
        self.values
    }
}

/// A scalar as the JSON printer tells it apart from every other scalar.
#[derive(PartialEq, Eq, Hash)]
enum Atom<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(&'a str),
}

fn atom(v: &Value) -> Atom<'_> {
    match v {
        Value::Null => Atom::Null,
        Value::Bool(b) => Atom::Bool(*b),
        Value::Int(i) => Atom::Int(*i),
        Value::Float(f) => float_atom(*f),
        Value::Str(s) => Atom::Str(s),
        Value::Array(_) | Value::Object(_) => unreachable!("atom of a composite value"),
    }
}

/// `to_json` prints a non-finite float as `null`, a float below 1e15 in
/// magnitude with a decimal point, and any other float in Rust's shortest
/// round-trip form, which for an integral float is a plain integer literal
/// (`1e18` prints as `1000000000000000000`). Only that last kind can print
/// like an `Int`, and then exactly like the integer it spells; these floats
/// are rare, so printing them here costs nothing that matters.
fn float_atom(f: f64) -> Atom<'static> {
    if !f.is_finite() {
        return Atom::Null;
    }
    if f.abs() >= 1e15 {
        if let Ok(i) = f.to_string().parse::<i64>() {
            return Atom::Int(i);
        }
    }
    Atom::Float(f.to_bits())
}

/// True iff `a.to_json() == b.to_json()`.
pub(crate) fn same_json(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_json(p, q))
        }
        (Value::Object(x), Value::Object(y)) => same_json_fields(x, y),
        (Value::Array(_) | Value::Object(_), _) | (_, Value::Array(_) | Value::Object(_)) => false,
        _ => atom(a) == atom(b),
    }
}

/// [`same_json`] of two objects, given their fields.
pub(crate) fn same_json_fields(x: &[(String, Value)], y: &[(String, Value)]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|((kx, vx), (ky, vy))| kx == ky && same_json(vx, vy))
}

/// Feeds `v` to `h` consistently with [`same_json`]: values with the same
/// JSON text feed the same data.
pub(crate) fn hash_json(v: &Value, h: &mut impl Hasher) {
    match v {
        Value::Array(items) => {
            h.write_u8(b'[');
            h.write_usize(items.len());
            items.iter().for_each(|item| hash_json(item, h));
        }
        Value::Object(fields) => hash_json_fields(fields, h),
        scalar => atom(scalar).hash(h),
    }
}

/// [`hash_json`] of an object, given its fields.
pub(crate) fn hash_json_fields(fields: &[(String, Value)], h: &mut impl Hasher) {
    h.write_u8(b'{');
    h.write_usize(fields.len());
    for (k, item) in fields {
        k.hash(h);
        hash_json(item, h);
    }
}

fn fixed_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    hash_json(v, &mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_json::json;

    /// Values whose JSON texts collide or nearly collide.
    fn tricky() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(3.5),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(1_000_000_000_000_000),
            Value::Float(1e15),
            Value::Float(1e15 + 0.5),
            Value::Int(999_999_999_999_999),
            Value::Float(999_999_999_999_999.0),
            Value::Int(i64::MIN),
            Value::Float(-9_223_372_036_854_775_808.0),
            Value::Int(i64::MAX),
            Value::Float(9_223_372_036_854_775_808.0),
            Value::Float(1e300),
            Value::Int(9_007_199_254_740_993),
            Value::Float(9_007_199_254_740_992.0),
            Value::Float(1_234_567_890_123_456_789.0),
            Value::Int(1_234_567_890_123_456_800),
            Value::Int(1_234_567_890_123_456_789),
            Value::Str("3".into()),
            Value::Str("null".into()),
            Value::Str(String::new()),
            Value::Str("a\"b".into()),
            Value::Str("a\\\"b".into()),
            json!([]),
            json!({}),
            json!([1, 2]),
            json!([2, 1]),
            json!([[1], 2]),
            json!([1, [2]]),
            json!({"a": 1, "b": 2}),
            json!({"b": 2, "a": 1}),
            json!({"a": 1, "a": 1}),
            json!({"a": null}),
            Value::obj([("a", Value::Float(f64::NAN))]),
            json!({"a": [1.0]}),
            json!({"a": [1]}),
        ]
    }

    #[test]
    fn same_json_is_json_text_equality() {
        let values = tricky();
        for a in &values {
            for b in &values {
                let want = a.to_json() == b.to_json();
                assert_eq!(same_json(a, b), want, "{} vs {}", a.to_json(), b.to_json());
                if want {
                    assert_eq!(fixed_hash(a), fixed_hash(b), "{}", a.to_json());
                }
            }
        }
    }

    #[test]
    fn bank_keeps_first_seen_distinct_values_up_to_the_cap() {
        let values = tricky();
        let mut bank = Bank::default();
        let mut texts = std::collections::HashSet::new();
        let mut want = Vec::new();
        for v in values.iter().chain(&values) {
            let added = bank.insert(v, 30);
            let expect = want.len() < 30 && texts.insert(v.to_json());
            assert_eq!(added, expect, "{}", v.to_json());
            if expect {
                want.push(v.to_json());
            }
        }
        let got: Vec<String> = bank.values().iter().map(Value::to_json).collect();
        assert_eq!(got, want);

        let mut merged = Bank::default();
        merged.extend(&bank, 10);
        merged.extend(&bank, 40);
        assert_eq!(merged.values().len(), 30);
    }
}
