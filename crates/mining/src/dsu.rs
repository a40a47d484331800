//! The disjoint-set (union-find) over `(location, value)` pairs used by
//! type mining (paper §4).
//!
//! The structure stores disjoint groups of pairs `(loc, v)`. `insert` takes
//! a pair and checks whether either component already appears; if so, it
//! merges the new pair into the corresponding group(s), otherwise it opens a
//! new group. When two pairs end up in the same group, their locations have
//! the same semantic type.
//!
//! Locations are dense ids handed out by the miner (one node each); a value
//! maps to the node of the first location it was seen at, so a value costs
//! no node of its own.

use std::collections::HashMap;

use apiphany_spec::SynTy;

/// A scalar value that participates in value-based merging.
///
/// Per the paper's §7.4, merging is value-based only for strings and large
/// integers; booleans and small integers never merge (their locations stay
/// in singleton groups).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ScalarKey<'v> {
    /// A string value.
    Str(&'v str),
    /// A (large) integer value.
    Int(i64),
    /// Every value of one primitive type: the `APIphany-Syn` ablation
    /// merges all locations of a type through this one key.
    Type(&'v SynTy),
}

const NONE: u32 = u32::MAX;

/// Union-find over location ids, with values merging the locations they
/// were seen at.
#[derive(Debug, Default)]
pub(crate) struct PairDsu {
    parent: Vec<u32>,
    rank: Vec<u8>,
    strs: HashMap<String, u32>,
    ints: HashMap<i64, u32>,
    /// The first location of each primitive type (`Str`, `Int`, `Bool`,
    /// `Float`) for [`ScalarKey::Type`].
    types: [u32; 4],
}

impl PairDsu {
    /// Creates an empty disjoint-set.
    pub(crate) fn new() -> PairDsu {
        PairDsu { types: [NONE; 4], ..PairDsu::default() }
    }

    /// Adds a singleton node for the next location id and returns that id.
    pub(crate) fn add_loc(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        id
    }

    /// The representative of a location's group.
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (ra, rb) = (ra as usize, rb as usize);
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb as u32,
            std::cmp::Ordering::Greater => self.parent[rb] = ra as u32,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra as u32;
                self.rank[ra] += 1;
            }
        }
    }

    /// Inserts the pair `(loc, value)`, merging groups that share either
    /// component (the paper's `insert`).
    pub(crate) fn insert(&mut self, loc: u32, value: ScalarKey<'_>) {
        let first = match value {
            ScalarKey::Str(s) => match self.strs.get(s) {
                Some(&n) => n,
                None => {
                    self.strs.insert(s.to_string(), loc);
                    return;
                }
            },
            ScalarKey::Int(i) => *self.ints.entry(i).or_insert(loc),
            ScalarKey::Type(ty) => {
                let slot = &mut self.types[type_slot(ty)];
                if *slot == NONE {
                    *slot = loc;
                }
                *slot
            }
        };
        self.union(loc, first);
    }

    /// True iff the two locations are currently in the same group.
    #[cfg(test)]
    pub(crate) fn same_group(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

fn type_slot(ty: &SynTy) -> usize {
    match ty {
        SynTy::Str => 0,
        SynTy::Int => 1,
        SynTy::Bool => 2,
        SynTy::Float => 3,
        _ => unreachable!("ScalarKey::Type of a non-scalar type"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dsu(n: usize) -> PairDsu {
        let mut ds = PairDsu::new();
        for _ in 0..n {
            ds.add_loc();
        }
        ds
    }

    #[test]
    fn shared_value_merges_locations() {
        let mut ds = dsu(3);
        ds.insert(0, ScalarKey::Str("UJ5"));
        ds.insert(1, ScalarKey::Str("UJ5"));
        ds.insert(2, ScalarKey::Str("UJ5"));
        assert!(ds.same_group(0, 1));
        assert!(ds.same_group(0, 2));
    }

    #[test]
    fn distinct_values_do_not_merge() {
        let mut ds = dsu(2);
        ds.insert(0, ScalarKey::Str("U1"));
        ds.insert(1, ScalarKey::Str("C1"));
        assert!(!ds.same_group(0, 1));
    }

    #[test]
    fn transitive_merge_through_location() {
        let mut ds = dsu(3);
        // Location 0 sees two values; each value also appears elsewhere:
        ds.insert(0, ScalarKey::Str("A"));
        ds.insert(0, ScalarKey::Str("B"));
        ds.insert(1, ScalarKey::Str("A"));
        ds.insert(2, ScalarKey::Str("B"));
        assert!(ds.same_group(1, 2));
    }

    #[test]
    fn int_and_string_keys_are_distinct() {
        let mut ds = dsu(4);
        ds.insert(0, ScalarKey::Int(12345));
        ds.insert(1, ScalarKey::Str("12345"));
        ds.insert(2, ScalarKey::Type(&SynTy::Int));
        ds.insert(3, ScalarKey::Type(&SynTy::Str));
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            assert!(!ds.same_group(a, b), "{a} and {b} merged");
        }
    }

    #[test]
    fn touch_creates_singletons() {
        let mut ds = dsu(2);
        assert_eq!(ds.add_loc(), 2);
        ds.insert(0, ScalarKey::Str("v"));
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert!(!ds.same_group(a, b), "{a} and {b} merged");
        }
        assert_eq!((0..3).map(|l| ds.find(l)).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn type_keys_merge_every_location_of_the_type() {
        let mut ds = dsu(3);
        ds.insert(0, ScalarKey::Type(&SynTy::Bool));
        ds.insert(1, ScalarKey::Type(&SynTy::Str));
        ds.insert(2, ScalarKey::Type(&SynTy::Bool));
        assert!(ds.same_group(0, 2));
        assert!(!ds.same_group(0, 1));
    }

    #[test]
    fn groups_are_deterministic() {
        let pairs = [(0, "v1"), (1, "v1"), (2, "v2"), (3, "v3"), (2, "v3"), (4, "v4")];
        let partition = |order: &mut dyn Iterator<Item = &(u32, &'static str)>| {
            let mut ds = dsu(5);
            for &(loc, v) in order {
                ds.insert(loc, ScalarKey::Str(v));
            }
            let roots: Vec<u32> = (0..5).map(|l| ds.find(l)).collect();
            // Name each group by its smallest member.
            roots.iter().map(|r| roots.iter().position(|m| m == r).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(partition(&mut pairs.iter()), partition(&mut pairs.iter().rev()));
        assert_eq!(partition(&mut pairs.iter()), vec![0, 0, 2, 2, 4]);
    }
}
