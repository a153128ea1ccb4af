//! Deterministic string interning: [`Symbol`] + [`SymbolTable`].
//!
//! A `SymbolTable` maps strings to dense `u32` ids in **insertion order**:
//! the first distinct string interned gets id 0, the next id 1, and so on.
//! Because ids are a pure function of the sequence of `intern` calls, two
//! runs that intern the same strings in the same order produce identical
//! tables — which is what lets symbols live inside observation records
//! without threatening the byte-identical-at-any-worker-count contract.
//!
//! The intended discipline (DESIGN.md §10) is **pre-population**: build the
//! table once, deterministically, at world-construction time (site lists,
//! AS organisation names, country labels), share it read-only across
//! shards, and have probe loops only *look up* symbols. Probe loops never
//! insert, so shard execution order cannot perturb ids.
//!
//! Interned comparisons are u32 compares; a resolved `&str` is only needed
//! at the analysis/report boundary.

use crate::json::{FromJson, Json, JsonError, ToJson};
use std::collections::HashMap;

/// A dense id into one [`SymbolTable`].
///
/// Symbols are meaningful only relative to the table that issued them;
/// resolving a symbol against a different table is a logic error (caught
/// by [`SymbolTable::resolve`]'s bounds check at best).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense index this symbol occupies in its table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ToJson for Symbol {
    fn to_json(&self) -> Json {
        Json::uint(u64::from(self.0))
    }
}

impl FromJson for Symbol {
    fn from_json(v: &Json) -> Result<Symbol, JsonError> {
        let n = v
            .as_u64()
            .ok_or_else(|| JsonError::shape("Symbol: expected unsigned integer"))?;
        u32::try_from(n)
            .map(Symbol)
            .map_err(|_| JsonError::shape("Symbol: id exceeds u32"))
    }
}

/// A string interner with stable insertion-order ids.
///
/// The table stores each distinct string exactly once; `intern` of an
/// already-known string returns the existing id without allocating. The
/// reverse map (`HashMap`) is used for point lookups only — every
/// iteration-order-sensitive API walks the insertion-ordered `strings`
/// vector, so nothing downstream can observe hash order.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    /// id → string, in insertion order. The source of truth.
    strings: Vec<String>,
    /// string → id point-lookup accelerator; never iterated.
    index: HashMap<String, u32>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Intern `s`, returning its stable id. Existing strings return their
    /// original id; new strings get the next dense id.
    ///
    /// # Panics
    /// Panics if the table would exceed `u32::MAX` distinct strings.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&id) = self.index.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(self.strings.len()).expect("SymbolTable overflow");
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), id);
        Symbol(id)
    }

    /// The id of `s` if it is already interned. Never allocates — this is
    /// the probe-loop entry point.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.index.get(s).copied().map(Symbol)
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not issued by this table (index out of range).
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// The string behind `sym`, or `None` for a foreign/out-of-range id.
    pub fn get(&self, sym: Symbol) -> Option<&str> {
        self.strings.get(sym.index()).map(String::as_str)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate `(symbol, string)` pairs in insertion (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), s.as_str()))
    }
}

impl ToJson for SymbolTable {
    /// Canonical form: the insertion-ordered string array. Ids are implied
    /// by position, so the rendering is unique per table.
    fn to_json(&self) -> Json {
        Json::Arr(self.strings.iter().map(Json::str).collect())
    }
}

impl FromJson for SymbolTable {
    fn from_json(v: &Json) -> Result<SymbolTable, JsonError> {
        let arr = v
            .as_arr()
            .ok_or_else(|| JsonError::shape("SymbolTable: expected array of strings"))?;
        let mut table = SymbolTable::new();
        for item in arr {
            let s = item
                .as_str()
                .ok_or_else(|| JsonError::shape("SymbolTable: expected string element"))?;
            if table.lookup(s).is_some() {
                return Err(JsonError::shape(format!(
                    "SymbolTable: duplicate string {s:?}"
                )));
            }
            table.intern(s);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qc;

    #[test]
    fn ids_are_dense_and_insertion_ordered() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        let a2 = t.intern("alpha");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(a, a2, "re-intern must return the original id");
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(b), "beta");
        assert_eq!(t.lookup("beta"), Some(b));
        assert_eq!(t.lookup("gamma"), None);
        assert_eq!(t.get(Symbol(7)), None);
    }

    #[test]
    fn iter_is_insertion_order() {
        let mut t = SymbolTable::new();
        for s in ["z", "a", "m", "a"] {
            t.intern(s);
        }
        let seen: Vec<&str> = t.iter().map(|(_, s)| s).collect();
        assert_eq!(seen, vec!["z", "a", "m"]);
    }

    #[test]
    fn json_round_trip_is_canonical() {
        let mut t = SymbolTable::new();
        for s in ["host.example", "other.example", "host.example", ""] {
            t.intern(s);
        }
        let rendered = t.to_json().render();
        let back = SymbolTable::from_json(&crate::json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), rendered);
        for (sym, s) in t.iter() {
            assert_eq!(back.lookup(s), Some(sym), "ids must survive round-trip");
        }
    }

    #[test]
    fn json_rejects_duplicates_and_non_strings() {
        assert!(SymbolTable::from_json(&crate::json::parse("[\"a\",\"a\"]").unwrap()).is_err());
        assert!(SymbolTable::from_json(&crate::json::parse("[1]").unwrap()).is_err());
        assert!(SymbolTable::from_json(&crate::json::parse("{}").unwrap()).is_err());
    }

    /// Arbitrary short strings over a mixed alphabet (empty allowed).
    fn gen_strings() -> qc::Gen<Vec<String>> {
        qc::vec_of(qc::string_of("abz09.-\u{e9}", 0..=6), 0..=24)
    }

    #[test]
    fn qc_intern_resolve_round_trip() {
        qc::check(
            "intern/resolve round-trip",
            &qc::Config::new(),
            &gen_strings(),
            |strings| {
                let mut t = SymbolTable::new();
                for s in strings {
                    let sym = t.intern(s);
                    if t.resolve(sym) != s || t.lookup(s) != Some(sym) {
                        return qc::TestResult::Fail(format!("round-trip broke for {s:?}"));
                    }
                }
                qc::pass()
            },
        );
    }

    #[test]
    fn qc_ids_stable_under_reintern() {
        qc::check(
            "id stability under re-intern",
            &qc::Config::new(),
            &gen_strings(),
            |strings| {
                let mut t = SymbolTable::new();
                let first: Vec<Symbol> = strings.iter().map(|s| t.intern(s)).collect();
                let len_after_first = t.len();
                let second: Vec<Symbol> = strings.iter().map(|s| t.intern(s)).collect();
                if first != second {
                    return qc::TestResult::Fail("re-intern changed an id".into());
                }
                if t.len() != len_after_first {
                    return qc::TestResult::Fail("re-intern grew the table".into());
                }
                qc::pass()
            },
        );
    }
}
