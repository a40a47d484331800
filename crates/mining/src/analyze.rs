//! The top-level API-analysis loop (paper Fig. 20, Appendix D):
//! alternate `MineTypes` with type-directed random test generation until a
//! fixpoint (or a round budget) is reached.
//!
//! The witness set only grows, so the loop does not re-mine it from
//! scratch each round: one incremental [`Miner`] is fed the witnesses each
//! round appends and then snapshotted, which yields exactly the library a
//! batch [`mine_types`] of the whole set would (see the `mine` module).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher, RandomState};

use apiphany_json::Value;
use apiphany_spec::{CancelToken, Service, Witness};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::bank::{hash_json, hash_json_fields, same_json, same_json_fields, HashIndex};
use crate::mine::{mine_types, Miner, MiningConfig};
use crate::sample::sample_value;
use crate::semlib::SemLib;

/// Configuration for [`analyze_api`].
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Maximum mine/generate rounds (the paper runs to convergence; the
    /// loop also stops early when a round adds no witnesses).
    pub max_rounds: usize,
    /// Maximum size of optional-argument subsets to try (the paper
    /// "iterates over subsets up to a pre-defined size").
    pub max_subset_size: usize,
    /// Maximum number of optional-argument subsets tried per method.
    pub max_subsets_per_method: usize,
    /// Sampling attempts per subset per round.
    pub attempts_per_subset: usize,
    /// Cap on stored witnesses per method (keeps `W` bounded).
    pub max_witnesses_per_method: usize,
    /// RNG seed (analysis is deterministic given the seed).
    pub seed: u64,
}

impl Default for AnalyzeConfig {
    fn default() -> AnalyzeConfig {
        AnalyzeConfig {
            max_rounds: 4,
            max_subset_size: 2,
            max_subsets_per_method: 8,
            attempts_per_subset: 3,
            max_witnesses_per_method: 150,
            seed: 0x00A1_FA27, // arbitrary fixed default
        }
    }
}

/// Statistics from one analysis run (the "API Analysis" columns of the
/// paper's Table 1).
///
/// Deliberately not `Copy`: the struct is expected to grow richer,
/// allocation-carrying fields (per-method coverage, timing breakdowns),
/// and the public API hands out references ([`crate::analyze_api`] owners
/// clone explicitly where they need ownership).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeStats {
    /// Total witnesses collected (`|W|`).
    pub n_witnesses: usize,
    /// Methods covered by at least one witness (`n_cov`).
    pub n_covered_methods: usize,
    /// Rounds actually executed.
    pub rounds: usize,
}

impl AnalyzeStats {
    /// The statistics of a witness set: count plus per-method-name
    /// coverage — the one definition of "covered" shared by the live
    /// analysis loop and witness-mined engines. `rounds` is how many
    /// testing-loop rounds produced the set (`0` when it was
    /// pre-recorded).
    pub fn of_witnesses(witnesses: &[Witness], rounds: usize) -> AnalyzeStats {
        let covered: HashSet<&str> = witnesses.iter().map(|w| w.method.as_str()).collect();
        AnalyzeStats {
            n_witnesses: witnesses.len(),
            n_covered_methods: covered.len(),
            rounds,
        }
    }
}

/// Output of [`analyze_api`].
#[derive(Debug)]
pub struct AnalysisResult {
    /// The final mined semantic library.
    pub semlib: SemLib,
    /// The final witness set (used later by retrospective execution).
    pub witnesses: Vec<Witness>,
    /// Run statistics.
    pub stats: AnalyzeStats,
}

/// `AnalyzeAPI(Λ, W0)` (paper Fig. 20): alternates between mining the best
/// semantic library from the current witnesses and generating new witnesses
/// by type-directed random testing against the (sandboxed) service.
///
/// Cancellation is cooperative: `cancel` is polled inside every mining
/// pass and between testing rounds. A cancelled run returns early with
/// the progress made so far — the semantic library mined from the
/// witnesses collected up to that point — rather than an error, so
/// callers that want partial results can still use them (the job layer
/// discards them when the whole job was cancelled).
pub fn analyze_api(
    service: &mut dyn Service,
    initial: &[Witness],
    mining: &MiningConfig,
    cfg: &AnalyzeConfig,
    cancel: &CancelToken,
) -> AnalysisResult {
    let lib = service.library().clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut set = WitnessSet::default();
    for w in initial {
        set.push(w.clone());
    }

    // On cancellation mid-mining, fall back to a cheap unwitnessed mine so
    // the partial result is still a structurally complete library.
    let finish = |set: WitnessSet, rounds: usize| {
        let semlib = mine_types(&lib, &[], mining);
        let stats = AnalyzeStats::of_witnesses(&set.witnesses, rounds);
        AnalysisResult { semlib, witnesses: set.witnesses, stats }
    };

    let mut rounds = 0;
    let mut miner = Miner::new(&lib, mining);
    if !miner.add_witnesses(&set.witnesses, cancel) {
        return finish(set, rounds);
    }
    let mut semlib = miner.snapshot();
    for _ in 0..cfg.max_rounds {
        if cancel.is_cancelled() {
            break;
        }
        rounds += 1;
        let new = generate_tests(service, &semlib, cfg, &mut rng);
        let mined = set.witnesses.len();
        for w in new {
            if set.count(&w.method) < cfg.max_witnesses_per_method {
                set.push(w);
            }
        }
        if !miner.add_witnesses(&set.witnesses[mined..], cancel) {
            return finish(set, rounds);
        }
        if set.witnesses.len() == mined {
            break; // a fixpoint: the last snapshot already mines every witness
        }
        semlib = miner.snapshot();
    }

    let stats = AnalyzeStats::of_witnesses(&set.witnesses, rounds);
    AnalysisResult { semlib, witnesses: set.witnesses, stats }
}

/// The growing witness set `W`: distinct witnesses in arrival order, with
/// a count per method for the per-method cap. Witnesses are distinct when
/// their JSON forms ([`Witness::to_value`]) differ as text.
#[derive(Debug, Default)]
struct WitnessSet {
    witnesses: Vec<Witness>,
    /// Indexes `witnesses` by a keyed hash of their JSON forms.
    index: HashIndex,
    hasher: RandomState,
    per_method: HashMap<String, usize>,
}

impl WitnessSet {
    /// Appends `w` unless an equal witness is already in the set.
    fn push(&mut self, w: Witness) {
        let mut h = self.hasher.build_hasher();
        w.method.hash(&mut h);
        hash_json_fields(&w.args, &mut h);
        hash_json(&w.output, &mut h);
        let h = h.finish();
        let same = |i: usize| {
            let v = &self.witnesses[i];
            v.method == w.method
                && same_json_fields(&v.args, &w.args)
                && same_json(&v.output, &w.output)
        };
        if !self.index.contains(h, same) {
            self.index.push(h);
            *self.per_method.entry(w.method.clone()).or_default() += 1;
            self.witnesses.push(w);
        }
    }

    fn count(&self, method: &str) -> usize {
        self.per_method.get(method).copied().unwrap_or(0)
    }
}

/// `GenerateTests(Λ̂)` (paper Fig. 20 bottom): for every method, sample
/// inputs from the value bank for the required parameters plus each small
/// subset of optional parameters, call the service, and keep the successful
/// calls as witnesses.
///
/// Sampling is strictly *type-directed* (from the parameter's own semantic
/// type's bank). Spraying arbitrary observed values into unknown parameters
/// — a tempting bootstrap — corrupts type mining: echo-style `create`
/// endpoints accept any string and reflect it into their response, merging
/// unrelated loc-sets into one mega-group. Methods whose parameter types
/// were never observed stay uncovered, exactly as in the paper (Table 1's
/// 30–40% coverage; "many methods are only available to paid accounts");
/// the paper closes specific gaps with manual consumer-producer
/// annotations, which this reproduction represents as the services'
/// scripted scenarios.
pub fn generate_tests(
    service: &mut dyn Service,
    semlib: &SemLib,
    cfg: &AnalyzeConfig,
    rng: &mut StdRng,
) -> Vec<Witness> {
    let mut out = Vec::new();
    let method_names: Vec<String> = semlib.methods.keys().cloned().collect();
    for name in method_names {
        let sig = semlib.methods[&name].clone();
        let required: Vec<_> = sig.params.required().cloned().collect();
        let optional: Vec<_> = sig.params.optional().cloned().collect();
        for subset in optional_subsets(optional.len(), cfg, rng) {
            'attempt: for _ in 0..cfg.attempts_per_subset {
                let mut args: Vec<(String, Value)> = Vec::new();
                for field in &required {
                    match sample_value(semlib, &field.ty, rng) {
                        Some(v) => args.push((field.name.clone(), v)),
                        None => break 'attempt, // cannot generate this method yet
                    }
                }
                let mut ok = true;
                for &i in &subset {
                    let field = &optional[i];
                    match sample_value(semlib, &field.ty, rng) {
                        Some(v) => args.push((field.name.clone(), v)),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                if let Ok(output) = service.call(&name, &args) {
                    out.push(Witness { method: name.clone(), args, output });
                }
            }
        }
    }
    out
}

/// Enumerates optional-argument index subsets: the empty set, singletons,
/// then random larger subsets, bounded by the configuration.
fn optional_subsets(n: usize, cfg: &AnalyzeConfig, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut subsets: Vec<Vec<usize>> = vec![Vec::new()];
    let mut singles: Vec<usize> = (0..n).collect();
    singles.shuffle(rng);
    for i in singles {
        if subsets.len() >= cfg.max_subsets_per_method {
            return subsets;
        }
        subsets.push(vec![i]);
    }
    // Larger subsets, sampled at random without exhaustive blowup.
    let mut guard = 0;
    while subsets.len() < cfg.max_subsets_per_method && cfg.max_subset_size >= 2 && n >= 2 {
        guard += 1;
        if guard > 50 {
            break;
        }
        let size = rng.gen_range(2..=cfg.max_subset_size.min(n));
        let mut pick: Vec<usize> = (0..n).collect();
        pick.shuffle(rng);
        let mut subset: Vec<usize> = pick.into_iter().take(size).collect();
        subset.sort_unstable();
        if !subsets.contains(&subset) {
            subsets.push(subset);
        }
    }
    subsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
    use apiphany_spec::{CallError, Library, Loc};

    /// A tiny deterministic service implementing the Fig. 7 API, used to
    /// test the analysis loop without the full simulated services.
    struct MiniSlack {
        lib: Library,
        calls: usize,
    }

    impl MiniSlack {
        fn new() -> MiniSlack {
            MiniSlack { lib: fig7_library(), calls: 0 }
        }
    }

    impl Service for MiniSlack {
        fn name(&self) -> &str {
            "mini-slack"
        }

        fn library(&self) -> &Library {
            &self.lib
        }

        fn call(&mut self, method: &str, args: &[(String, Value)]) -> Result<Value, CallError> {
            self.calls += 1;
            let arg = |k: &str| args.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            match method {
                "c_list" => Ok(fig4_witnesses()[0].output.clone()),
                "u_info" => {
                    let user = arg("user")
                        .and_then(Value::as_str)
                        .ok_or_else(|| CallError::new("missing user"))?;
                    for w in fig4_witnesses() {
                        if w.method == "u_info"
                            && w.arg("user").and_then(Value::as_str) == Some(user)
                        {
                            return Ok(w.output);
                        }
                    }
                    Err(CallError::new("user_not_found"))
                }
                "c_members" => {
                    let chan = arg("channel")
                        .and_then(Value::as_str)
                        .ok_or_else(|| CallError::new("missing channel"))?;
                    for w in fig4_witnesses() {
                        if w.method == "c_members"
                            && w.arg("channel").and_then(Value::as_str) == Some(chan)
                        {
                            return Ok(w.output);
                        }
                    }
                    Err(CallError::new("channel_not_found"))
                }
                _ => Err(CallError::new("unknown_method")),
            }
        }

        fn reset(&mut self) {}
    }

    #[test]
    fn analysis_grows_coverage_from_sparse_seed() {
        // Seed with c_list, one u_info call, and one c_members call (the
        // "consumer-producer annotation" role): every method's parameter
        // type is now linked, and enrichment multiplies the witnesses.
        let seed = vec![
            fig4_witnesses()[0].clone(),
            fig4_witnesses()[1].clone(),
            fig4_witnesses()[3].clone(),
        ];
        let mut svc = MiniSlack::new();
        let cfg = AnalyzeConfig { max_rounds: 6, attempts_per_subset: 12, ..AnalyzeConfig::default() };
        let result = analyze_api(&mut svc, &seed, &MiningConfig::default(), &cfg, &CancelToken::new());
        assert!(result.stats.n_witnesses > 3);
        assert_eq!(result.stats.n_covered_methods, 3);
        // After analysis, u_info.in.user must have merged with User.id —
        // the enrichment loop of Appendix D.
        let sl = &result.semlib;
        let is_obj = |n: &str| sl.lib.is_object(n);
        let a = sl.group_of(&Loc::parse("u_info.in.user", is_obj).unwrap());
        let b = sl.group_of(&Loc::parse("User.id", is_obj).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn analysis_is_deterministic_given_seed() {
        let seed = vec![fig4_witnesses()[0].clone(), fig4_witnesses()[1].clone()];
        let run = || {
            let mut svc = MiniSlack::new();
            let cfg =
                AnalyzeConfig { max_rounds: 6, attempts_per_subset: 12, ..AnalyzeConfig::default() };
            let r = analyze_api(&mut svc, &seed, &MiningConfig::default(), &cfg, &CancelToken::new());
            (r.stats.n_witnesses, r.stats.n_covered_methods)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn optional_subsets_bounded() {
        let cfg = AnalyzeConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let subsets = optional_subsets(10, &cfg, &mut rng);
        assert!(subsets.len() <= cfg.max_subsets_per_method);
        assert_eq!(subsets[0], Vec::<usize>::new());
        for s in &subsets {
            assert!(s.len() <= cfg.max_subset_size.max(1));
        }
    }

    #[test]
    fn empty_witness_start_still_terminates() {
        let mut svc = MiniSlack::new();
        let cfg = AnalyzeConfig { max_rounds: 6, attempts_per_subset: 12, ..AnalyzeConfig::default() };
        let result = analyze_api(&mut svc, &[], &MiningConfig::default(), &cfg, &CancelToken::new());
        // c_list takes no arguments, so random testing covers it from
        // nothing; parameterized methods stay uncovered without witnesses
        // linking their parameter types (type-directed sampling only).
        assert!(result.stats.n_covered_methods >= 1);
    }

    /// Witnesses are the same exactly when their JSON forms are the same
    /// text: argument order and `3` vs `3.0` tell witnesses apart.
    #[test]
    fn witness_set_dedups_by_json_text() {
        use apiphany_json::json;
        let w = |args: Vec<(&str, Value)>, out: Value| Witness::new("m", args, out);
        let mut set = WitnessSet::default();
        for witness in [
            w(vec![("a", json!(1)), ("b", json!("x"))], json!({"k": [1, 2]})),
            w(vec![("a", json!(1)), ("b", json!("x"))], json!({"k": [1, 2]})),
            w(vec![("b", json!("x")), ("a", json!(1))], json!({"k": [1, 2]})),
            w(vec![("a", json!(1.0)), ("b", json!("x"))], json!({"k": [1, 2]})),
            w(vec![("a", json!(1)), ("b", json!("x"))], json!({"k": [2, 1]})),
            Witness::new("n", vec![("a", json!(1)), ("b", json!("x"))], json!({"k": [1, 2]})),
        ] {
            set.push(witness);
        }
        let texts: HashSet<String> = set.witnesses.iter().map(|w| w.to_value().to_json()).collect();
        assert_eq!(set.witnesses.len(), 5);
        assert_eq!(texts.len(), 5);
        assert_eq!((set.count("m"), set.count("n"), set.count("o")), (4, 1, 0));
    }

    #[test]
    fn per_method_cap_bounds_generated_witnesses() {
        // The seed already holds one `u_info` witness; at a cap of one,
        // the second user testing finds is turned away.
        let seed = vec![fig4_witnesses()[0].clone(), fig4_witnesses()[1].clone()];
        let run = |cap| {
            let cfg = AnalyzeConfig {
                max_rounds: 6,
                attempts_per_subset: 12,
                max_witnesses_per_method: cap,
                ..AnalyzeConfig::default()
            };
            let mining = MiningConfig::default();
            let r = analyze_api(&mut MiniSlack::new(), &seed, &mining, &cfg, &CancelToken::new());
            r.witnesses.iter().filter(|w| w.method == "u_info").count()
        };
        assert_eq!(run(1), 1);
        assert!(run(150) > 1);
    }
}
