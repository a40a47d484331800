//! The `MineTypes` algorithm (paper Fig. 8): build the disjoint-set from a
//! witness set, then build the semantic library from the disjoint-set.
//!
//! [`Miner`] does this incrementally. It walks each witness value together
//! with the library type at its location (a [`Cursor`]), so every scalar
//! lands on its canonical location in one step per label, without
//! re-folding the path from the root. Each canonical location is interned
//! once into a dense id; the disjoint-set and the value banks are vectors
//! indexed by it. [`Miner::snapshot`] builds the semantic library of the
//! witnesses added so far, and more can be added after it.
//!
//! A snapshot after adding `W1` and then `W2` equals a batch mine of
//! `W1 ++ W2`, because
//! - a union-find partition does not depend on the order its pairs were
//!   inserted in;
//! - value banks fill in witness order, which is the same either way; and
//! - groups are sorted by their locations before ids are assigned, so
//!   neither group ids nor loc-sets depend on the order locations were
//!   interned in.
//!
//! [`mine_types`] is one miner fed the whole set. [`crate::analyze_api`]
//! keeps one miner across its enrichment rounds, feeds it only the
//! witnesses each round appends, and walks the library's definitions once.

use std::collections::HashMap;

use apiphany_json::Value;
use apiphany_spec::{
    CancelToken, GroupId, Label, Library, Loc, RecordTy, Root, SemFieldTy, SemRecordTy, SemTy,
    SynTy, Witness,
};

use crate::bank::Bank;
use crate::dsu::{PairDsu, ScalarKey};
use crate::infer::{lookup_step, Cursor, Step};
use crate::semlib::{pick_display, GroupData, SemLib, SemMethodSig};

/// Type granularity: the three TTN variants of the paper's ablation (§7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Full APIphany: location-based types merged by shared values.
    Mined,
    /// `APIphany-Loc`: unmerged location-based types (each scalar location
    /// is its own semantic type).
    LocationOnly,
    /// `APIphany-Syn`: syntactic types (all `String` locations share one
    /// type, likewise `Int`/`Bool`/`Float`).
    Syntactic,
}

/// Configuration for [`mine_types`].
#[derive(Debug, Clone)]
pub struct MiningConfig {
    /// Which type granularity to produce.
    pub granularity: Granularity,
    /// Integers with absolute value larger than this participate in
    /// value-based merging; smaller ones do not (paper §7.4 uses 1000).
    pub min_merge_int: i64,
    /// Maximum distinct values kept per group bank.
    pub max_bank_values: usize,
}

impl Default for MiningConfig {
    fn default() -> MiningConfig {
        MiningConfig { granularity: Granularity::Mined, min_merge_int: 1000, max_bank_values: 512 }
    }
}

impl MiningConfig {
    /// The `APIphany-Loc` ablation configuration.
    pub fn location_only() -> MiningConfig {
        MiningConfig { granularity: Granularity::LocationOnly, ..MiningConfig::default() }
    }

    /// The `APIphany-Syn` ablation configuration.
    pub fn syntactic() -> MiningConfig {
        MiningConfig { granularity: Granularity::Syntactic, ..MiningConfig::default() }
    }
}

/// Runs type mining: `MineTypes(Λ, W)` of the paper's Fig. 8.
///
/// Every scalar location of the library receives a semantic type: witnessed
/// locations may merge into shared loc-sets; unwitnessed ones keep singleton
/// location-based types (paper §4, "annotated with the unmerged
/// location-based type").
pub fn mine_types(lib: &Library, witnesses: &[Witness], cfg: &MiningConfig) -> SemLib {
    mine_types_cancellable(lib, witnesses, cfg, &CancelToken::new())
        .expect("a fresh token is never cancelled")
}

/// [`mine_types`] with cooperative cancellation: polls `cancel` once per
/// witness during registration and between phases, returning `None` as
/// soon as cancellation is observed. Large-spec analysis jobs spend most
/// of their time here, so this is what lets them abort promptly.
pub fn mine_types_cancellable(
    lib: &Library,
    witnesses: &[Witness],
    cfg: &MiningConfig,
    cancel: &CancelToken,
) -> Option<SemLib> {
    let mut miner = Miner::new(lib, cfg);
    miner.add_witnesses(witnesses, cancel).then(|| miner.snapshot())
}

const NONE: u32 = u32::MAX;

/// Incremental `MineTypes` over one library (see the module docs).
#[derive(Debug)]
pub(crate) struct Miner<'l> {
    lib: &'l Library,
    cfg: MiningConfig,
    locs: LocTable,
    /// The ids of the library's scalar definitions, in
    /// [`for_each_scalar_loc`] order (which [`DefBuilder`] follows too).
    def_ids: Vec<u32>,
    /// Location ids sorted by location; ids interned since the last
    /// snapshot are not in it yet.
    sorted: Vec<u32>,
    nodes: Vec<Node<'l>>,
    /// Child slots of the nodes (see [`Node::kids`]).
    kids: Vec<u32>,
    method_nodes: HashMap<&'l str, u32>,
    object_nodes: HashMap<&'l str, u32>,
}

/// The interned locations, each with its disjoint-set node and value bank.
#[derive(Debug)]
struct LocTable {
    /// Location → id; ids are dense, one per bank.
    ids: HashMap<Loc, u32>,
    banks: Vec<Bank>,
    ds: PairDsu,
}

impl LocTable {
    fn id(&mut self, loc: &Loc) -> u32 {
        match self.ids.get(loc) {
            Some(&id) => id,
            None => {
                let id = self.ds.add_loc();
                self.ids.insert(loc.clone(), id);
                self.banks.push(Bank::default());
                id
            }
        }
    }
}

/// Every interned location, indexed by id.
fn locs_by_id(ids: &HashMap<Loc, u32>) -> Vec<&Loc> {
    let mut by_id = vec![None; ids.len()];
    for (loc, &id) in ids {
        by_id[id as usize] = Some(loc);
    }
    by_id.into_iter().map(|loc| loc.expect("ids are dense")).collect()
}

/// A canonical location a witness walk has reached: a method root, an
/// object root, or a path below one that crosses no named object.
#[derive(Debug)]
struct Node<'l> {
    loc: Loc,
    at: Cursor<'l>,
    /// The location's id, interned when the first scalar lands here.
    id: u32,
    /// First of this node's child slots in [`Miner::kids`], one per label
    /// the cursor steps by (`in`/`out`, a record's fields in order, or the
    /// array element), each `NONE` until first stepped into. A label that
    /// enters a named object leads to that object's root node.
    kids: u32,
    /// For an object's root: the object's name, and its value bank once an
    /// object value arrived here.
    object: Option<&'l str>,
    bank: Option<Bank>,
}

/// One label of a witness walk's raw (unfolded) path.
#[derive(Debug, Clone, Copy)]
enum Raw<'v> {
    In,
    Out,
    Elem,
    Named(&'v str),
}

/// The raw location of the value a witness walk is at: needed only where
/// the walk has left the library, whose locations are kept raw.
#[derive(Debug)]
struct Walk<'v> {
    method: &'v str,
    path: Vec<Raw<'v>>,
}

impl Walk<'_> {
    fn loc(&self) -> Loc {
        let label = |r: &Raw<'_>| match *r {
            Raw::In => Label::In,
            Raw::Out => Label::Out,
            Raw::Elem => Label::Elem,
            Raw::Named(name) => Label::Named(name.to_string()),
        };
        Loc {
            root: Root::Method(self.method.to_string()),
            path: self.path.iter().map(label).collect(),
        }
    }
}

impl<'l> Miner<'l> {
    /// A miner with no witnesses yet. Every scalar location of the library
    /// gets a node here, so unwitnessed locations still receive (singleton)
    /// semantic types; for the syntactic ablation this is also where
    /// whole-type merging happens.
    pub(crate) fn new(lib: &'l Library, cfg: &MiningConfig) -> Miner<'l> {
        let mut locs = LocTable { ids: HashMap::new(), banks: Vec::new(), ds: PairDsu::new() };
        let mut def_ids = Vec::new();
        for_each_scalar_loc(lib, &mut |loc, ty| {
            let id = locs.id(loc);
            def_ids.push(id);
            if cfg.granularity == Granularity::Syntactic {
                locs.ds.insert(id, ScalarKey::Type(ty));
            }
        });
        Miner {
            lib,
            cfg: cfg.clone(),
            locs,
            def_ids,
            sorted: Vec::new(),
            nodes: Vec::new(),
            kids: Vec::new(),
            method_nodes: HashMap::new(),
            object_nodes: HashMap::new(),
        }
    }

    /// Registers witnesses (lines 2-5 of Fig. 8), polling `cancel` before
    /// each one and once after the last. Returns `false` as soon as
    /// cancellation is observed.
    pub(crate) fn add_witnesses(&mut self, witnesses: &[Witness], cancel: &CancelToken) -> bool {
        for w in witnesses {
            if cancel.is_cancelled() {
                return false;
            }
            self.add_witness(w);
        }
        !cancel.is_cancelled()
    }

    fn add_witness(&mut self, w: &Witness) {
        let method = self.method_node(&w.method);
        let mut walk = Walk { method: &w.method, path: vec![Raw::In] };
        // v_in: the arguments form the parameter record, which never folds
        // into a named object.
        let params = method.map(|m| self.child(m, 0, || Label::In));
        self.add_fields(params, &mut walk, &w.args);
        walk.path[0] = Raw::Out;
        let response = method.map(|m| self.child(m, 1, || Label::Out));
        self.add_value(response, &mut walk, &w.output);
    }

    /// `AddWitness` (Fig. 8): drill down into a composite value, inserting
    /// each scalar into the disjoint-set at its canonical location. `at` is
    /// the node of that location, `None` once the walk has left the
    /// library.
    fn add_value<'v>(&mut self, at: Option<u32>, walk: &mut Walk<'v>, v: &'v Value) {
        match v {
            Value::Null => {}
            Value::Array(items) => {
                let elem = at.and_then(|n| self.step_elem(n));
                walk.path.push(Raw::Elem);
                for item in items {
                    self.add_value(elem, walk, item);
                }
                walk.path.pop();
            }
            Value::Object(fields) => {
                if let Some(node) = at.map(|n| &mut self.nodes[n as usize]) {
                    if node.object.is_some() {
                        node.bank
                            .get_or_insert_with(Bank::default)
                            .insert(v, self.cfg.max_bank_values);
                    }
                }
                self.add_fields(at, walk, fields);
            }
            scalar => {
                let id = match at {
                    Some(n) => {
                        let node = &mut self.nodes[n as usize];
                        if node.id == NONE {
                            node.id = self.locs.id(&node.loc);
                        }
                        node.id
                    }
                    None => self.locs.id(&walk.loc()),
                };
                self.add_scalar(id, scalar);
            }
        }
    }

    fn add_fields<'v>(
        &mut self,
        at: Option<u32>,
        walk: &mut Walk<'v>,
        fields: &'v [(String, Value)],
    ) {
        for (name, v) in fields {
            let child = at.and_then(|n| self.step_field(n, name));
            walk.path.push(Raw::Named(name));
            self.add_value(child, walk, v);
            walk.path.pop();
        }
    }

    fn add_scalar(&mut self, id: u32, scalar: &Value) {
        self.locs.banks[id as usize].insert(scalar, self.cfg.max_bank_values);
        let key = match self.cfg.granularity {
            Granularity::Mined => mergeable_key(&self.cfg, scalar),
            Granularity::LocationOnly => None,
            Granularity::Syntactic => Some(ScalarKey::Type(match scalar {
                Value::Str(_) => &SynTy::Str,
                Value::Int(_) => &SynTy::Int,
                Value::Bool(_) => &SynTy::Bool,
                _ => &SynTy::Float,
            })),
        };
        if let Some(key) = key {
            self.locs.ds.insert(id, key);
        }
    }

    fn push_node(&mut self, loc: Loc, at: Cursor<'l>, object: Option<&'l str>) -> u32 {
        let width = match at {
            Cursor::Method(_) => 2,
            Cursor::Record(record) => record.fields.len(),
            Cursor::Array(_) => 1,
            Cursor::Leaf => 0,
        };
        let kids = self.kids.len() as u32;
        self.kids.resize(self.kids.len() + width, NONE);
        self.nodes.push(Node { loc, at, id: NONE, kids, object, bank: None });
        (self.nodes.len() - 1) as u32
    }

    fn method_node(&mut self, name: &str) -> Option<u32> {
        if let Some(&n) = self.method_nodes.get(name) {
            return Some(n);
        }
        let (name, sig) = self.lib.methods.get_key_value(name)?;
        let n = self.push_node(Loc::method(name.clone()), Cursor::Method(sig), None);
        self.method_nodes.insert(name, n);
        Some(n)
    }

    fn object_node(&mut self, name: &'l str) -> u32 {
        if let Some(&n) = self.object_nodes.get(name) {
            return n;
        }
        let at = Cursor::object(self.lib, name);
        let n = self.push_node(Loc::object(name), at, Some(name));
        self.object_nodes.insert(name, n);
        n
    }

    fn step_field(&mut self, n: u32, name: &str) -> Option<u32> {
        let Cursor::Record(record) = self.nodes[n as usize].at else { return None };
        let slot = record.fields.iter().position(|f| f.name == name)?;
        Some(self.child(n, slot, || Label::Named(name.to_string())))
    }

    fn step_elem(&mut self, n: u32) -> Option<u32> {
        matches!(self.nodes[n as usize].at, Cursor::Array(_))
            .then(|| self.child(n, 0, || Label::Elem))
    }

    /// The node one label below `n`: child slot `slot`, created on first
    /// use by the folding rule ([`lookup_step`]).
    fn child(&mut self, n: u32, slot: usize, label: impl FnOnce() -> Label) -> u32 {
        let Node { at, kids, .. } = self.nodes[n as usize];
        let slot = kids as usize + slot;
        if self.kids[slot] != NONE {
            return self.kids[slot];
        }
        let label = label();
        let child = match lookup_step(at, &label)
            .expect("every child slot is a label the cursor steps by")
        {
            Step::Object(o) => self.object_node(o),
            Step::Path(next) => {
                let loc = self.nodes[n as usize].loc.child(label);
                self.push_node(loc, next, None)
            }
        };
        self.kids[slot] = child;
        child
    }

    /// The semantic library of the witnesses added so far (line 6 of
    /// Fig. 8): extract the groups, then rebuild every definition over
    /// them.
    pub(crate) fn snapshot(&mut self) -> SemLib {
        let LocTable { ids, banks, ds } = &mut self.locs;
        let locs = locs_by_id(ids);
        if self.sorted.len() < locs.len() {
            self.sorted.extend(self.sorted.len() as u32..locs.len() as u32);
            // The already-sorted prefix is one run, so this is a merge.
            self.sorted.sort_by(|&a, &b| locs[a as usize].cmp(locs[b as usize]));
        }

        // Walking the locations in order numbers each group at its
        // smallest location, which is the order of the sorted loc-sets.
        let mut group_of = vec![NONE; locs.len()];
        let mut group_of_root = vec![NONE; locs.len()];
        let mut members: Vec<Vec<u32>> = Vec::new();
        for &id in &self.sorted {
            let root = ds.find(id) as usize;
            if group_of_root[root] == NONE {
                group_of_root[root] = members.len() as u32;
                members.push(Vec::new());
            }
            group_of[id as usize] = group_of_root[root];
            members[group_of_root[root] as usize].push(id);
        }

        let cap = self.cfg.max_bank_values;
        let groups: Vec<GroupData> = members
            .iter()
            .map(|ids| {
                let group_locs: Vec<Loc> =
                    ids.iter().map(|&id| locs[id as usize].clone()).collect();
                let values = match ids[..] {
                    [only] => banks[only as usize].values().to_vec(),
                    _ => {
                        let mut merged = Bank::default();
                        for &id in ids {
                            merged.extend(&banks[id as usize], cap);
                        }
                        merged.into_values()
                    }
                };
                let display = match self.cfg.granularity {
                    Granularity::Syntactic if group_locs.len() > 1 => {
                        syn_display(self.lib, &group_locs)
                    }
                    _ => pick_display(&group_locs),
                };
                GroupData { locs: group_locs, values, display }
            })
            .collect();
        let loc_to_group: HashMap<Loc, GroupId> =
            locs.iter().zip(&group_of).map(|(&loc, &g)| (loc.clone(), GroupId(g))).collect();

        // AddDefinitions(Λ, DS): transform every object and method definition.
        let mut defs = DefBuilder { ids: self.def_ids.iter(), group_of: &group_of };
        let objects = self
            .lib
            .objects
            .iter()
            .map(|(name, record)| (name.clone(), defs.sem_record(record)))
            .collect();
        let methods = self
            .lib
            .methods
            .iter()
            .map(|(name, sig)| {
                let params = defs.sem_record(&sig.params);
                let response = defs.sem_of_ty(&sig.response);
                (name.clone(), SemMethodSig { params, response })
            })
            .collect();
        debug_assert!(defs.ids.next().is_none(), "definitions and scalar locations disagree");

        let object_bank = self
            .nodes
            .iter()
            .filter_map(|node| {
                Some((node.object?.to_string(), node.bank.as_ref()?.values().to_vec()))
            })
            .collect();
        SemLib { lib: self.lib.clone(), objects, methods, groups, loc_to_group, object_bank }
    }
}

/// Builds semantic definitions: the library's own types with every scalar
/// replaced by its location's group. Scalars are met in
/// [`for_each_scalar_loc`] order, so their location ids come off `ids`.
struct DefBuilder<'a> {
    ids: std::slice::Iter<'a, u32>,
    group_of: &'a [u32],
}

impl DefBuilder<'_> {
    fn sem_of_ty(&mut self, ty: &SynTy) -> SemTy {
        match ty {
            SynTy::Object(o) => SemTy::Object(o.clone()),
            SynTy::Array(elem) => SemTy::array(self.sem_of_ty(elem)),
            SynTy::Record(record) => SemTy::Record(self.sem_record(record)),
            _scalar => {
                let id = self.ids.next().expect("every scalar definition has a location id");
                SemTy::Group(GroupId(self.group_of[*id as usize]))
            }
        }
    }

    fn sem_record(&mut self, record: &RecordTy) -> SemRecordTy {
        SemRecordTy {
            fields: record
                .fields
                .iter()
                .map(|f| SemFieldTy {
                    name: f.name.clone(),
                    optional: f.optional,
                    ty: self.sem_of_ty(&f.ty),
                })
                .collect(),
        }
    }
}

fn syn_display(lib: &Library, locs: &[Loc]) -> String {
    // All locations in one syntactic group share a primitive type; show it.
    locs.first()
        .and_then(|l| lib.lookup(l))
        .map_or_else(|| "String".to_string(), |t| t.to_string())
}

/// The §7.4 merging policy: strings always merge; integers only when large;
/// booleans and floats never.
fn mergeable_key<'v>(cfg: &MiningConfig, v: &'v Value) -> Option<ScalarKey<'v>> {
    match v {
        Value::Str(s) => Some(ScalarKey::Str(s)),
        Value::Int(i) if i.abs() > cfg.min_merge_int => Some(ScalarKey::Int(*i)),
        _ => None,
    }
}

/// Enumerates the canonical location and syntactic type of every scalar
/// location reachable from the library's definitions: objects in name
/// order, then each method's parameters and response.
fn for_each_scalar_loc(lib: &Library, f: &mut impl FnMut(&Loc, &SynTy)) {
    fn rec(loc: &mut Loc, ty: &SynTy, f: &mut impl FnMut(&Loc, &SynTy)) {
        match ty {
            SynTy::Object(_) => {} // handled at its own definition
            SynTy::Array(elem) => {
                loc.path.push(Label::Elem);
                rec(loc, elem, f);
                loc.path.pop();
            }
            SynTy::Record(record) => rec_record(loc, record, f),
            scalar => f(loc, scalar),
        }
    }
    fn rec_record(loc: &mut Loc, record: &RecordTy, f: &mut impl FnMut(&Loc, &SynTy)) {
        for field in &record.fields {
            loc.path.push(Label::Named(field.name.clone()));
            rec(loc, &field.ty, f);
            loc.path.pop();
        }
    }
    for (name, record) in &lib.objects {
        rec_record(&mut Loc::object(name.clone()), record, f);
    }
    for (name, sig) in &lib.methods {
        let m = Loc::method(name.clone());
        rec_record(&mut m.child(Label::In), &sig.params, f);
        rec(&mut m.child(Label::Out), &sig.response, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

    fn mined() -> SemLib {
        mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default())
    }

    fn loc(s: &str) -> Loc {
        let lib = fig7_library();
        Loc::parse(s, |n| lib.is_object(n)).unwrap()
    }

    /// The paper's running example: `"UJ5RHEG4S"` appears as the parameter
    /// of `u_info`, the `id` of a `User`, and the `creator` of a `Channel`,
    /// so all three locations share one semantic type (Fig. 4).
    #[test]
    fn merges_user_id_locations() {
        let sl = mined();
        let g_user_id = sl.group_of(&loc("User.id")).unwrap();
        assert_eq!(sl.group_of(&loc("u_info.in.user")), Some(g_user_id));
        assert_eq!(sl.group_of(&loc("Channel.creator")), Some(g_user_id));
        // And c_members returns [User.id] because its elements share values.
        assert_eq!(sl.group_of(&loc("c_members.out.0")), Some(g_user_id));
        // c_members' parameter is a Channel.id.
        let g_channel_id = sl.group_of(&loc("Channel.id")).unwrap();
        assert_eq!(sl.group_of(&loc("c_members.in.channel")), Some(g_channel_id));
        assert_ne!(g_user_id, g_channel_id);
    }

    #[test]
    fn semantic_signatures_match_fig7() {
        let sl = mined();
        let g_user_id = sl.group_of(&loc("User.id")).unwrap();
        let g_channel_id = sl.group_of(&loc("Channel.id")).unwrap();

        let u_info = &sl.methods["u_info"];
        assert_eq!(u_info.params.field("user").unwrap().ty, SemTy::Group(g_user_id));
        assert_eq!(u_info.response, SemTy::object("User"));

        let c_members = &sl.methods["c_members"];
        assert_eq!(c_members.params.field("channel").unwrap().ty, SemTy::Group(g_channel_id));
        assert_eq!(c_members.response, SemTy::array(SemTy::Group(g_user_id)));

        let c_list = &sl.methods["c_list"];
        assert_eq!(c_list.response, SemTy::array(SemTy::object("Channel")));

        // Object definitions: Channel.creator has type User.id.
        let channel = &sl.objects["Channel"];
        assert_eq!(channel.field("creator").unwrap().ty, SemTy::Group(g_user_id));
    }

    #[test]
    fn distinct_concepts_stay_distinct() {
        let sl = mined();
        let ids = [
            sl.group_of(&loc("User.id")).unwrap(),
            sl.group_of(&loc("Channel.id")).unwrap(),
            sl.group_of(&loc("Channel.name")).unwrap(),
            sl.group_of(&loc("Profile.email")).unwrap(),
            sl.group_of(&loc("User.name")).unwrap(),
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn value_banks_are_populated() {
        let sl = mined();
        let g = sl.group_of(&loc("Profile.email")).unwrap();
        let emails: Vec<&str> =
            sl.group(g).values.iter().filter_map(Value::as_str).collect();
        assert!(emails.contains(&"xyz@gmail.com"));
        assert!(!sl.object_values("Channel").is_empty());
        assert!(!sl.object_values("User").is_empty());
    }

    #[test]
    fn display_prefers_object_locations() {
        let sl = mined();
        let g = sl.group_of(&loc("u_info.in.user")).unwrap();
        // {User.id, Channel.creator, u_info.in.user, c_members.out.0}:
        // object-rooted shortest wins (Channel.creator vs User.id tie broken
        // lexicographically).
        assert_eq!(sl.group(g).display, "Channel.creator");
    }

    #[test]
    fn location_only_never_merges() {
        let sl = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::location_only());
        let a = sl.group_of(&loc("User.id")).unwrap();
        let b = sl.group_of(&loc("u_info.in.user")).unwrap();
        assert_ne!(a, b);
        // Banks are still populated (needed for retrospective execution).
        assert!(!sl.group(a).values.is_empty());
    }

    #[test]
    fn syntactic_merges_everything_stringy() {
        let sl = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::syntactic());
        let a = sl.group_of(&loc("User.id")).unwrap();
        let b = sl.group_of(&loc("Channel.name")).unwrap();
        let c = sl.group_of(&loc("Profile.email")).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(sl.group(a).display, "String");
    }

    #[test]
    fn unwitnessed_locations_get_singletons() {
        let sl = mine_types(&fig7_library(), &[], &MiningConfig::default());
        let g = sl.group_of(&loc("Profile.email")).unwrap();
        assert_eq!(sl.group(g).locs, vec![loc("Profile.email")]);
        assert!(sl.group(g).values.is_empty());
        // Every method still has a full semantic signature.
        assert_eq!(sl.methods.len(), 3);
    }

    #[test]
    fn resolve_named_ty_follows_representatives() {
        let sl = mined();
        let via_user = sl.resolve_named_ty("User.id").unwrap();
        let via_creator = sl.resolve_named_ty("Channel.creator").unwrap();
        assert_eq!(via_user, via_creator);
        assert_eq!(sl.resolve_named_ty("User"), Some(SemTy::object("User")));
        assert_eq!(sl.resolve_named_ty("Nope.x"), None);
    }

    #[test]
    fn small_ints_do_not_merge_but_large_do() {
        use apiphany_json::json;
        let lib = apiphany_spec::LibraryBuilder::new("ints")
            .method("a", |m| m.returns(SynTy::Int))
            .method("b", |m| m.returns(SynTy::Int))
            .method("c", |m| m.returns(SynTy::Int))
            .method("d", |m| m.returns(SynTy::Int))
            .build();
        let witnesses = vec![
            Witness::new("a", Vec::<(String, Value)>::new(), json!(5)),
            Witness::new("b", Vec::<(String, Value)>::new(), json!(5)),
            Witness::new("c", Vec::<(String, Value)>::new(), json!(1234567)),
            Witness::new("d", Vec::<(String, Value)>::new(), json!(1234567)),
        ];
        let sl = mine_types(&lib, &witnesses, &MiningConfig::default());
        let (a, b) = (loc("a.out"), loc("b.out"));
        assert_ne!(sl.group_of(&a), sl.group_of(&b));
        let (c, d) = (loc("c.out"), loc("d.out"));
        assert_eq!(sl.group_of(&c), sl.group_of(&d));
    }

    use apiphany_spec::Witness;
}
