//! Running benchmarks: one engine + one benchmark → the paper's Table 2
//! row (solved?, time, `r_orig`, `r_RE`, #cands, `r_RE^TO`).
//!
//! The harness consumes the engine's streaming session API: the gold
//! solution is spotted *as its candidate event arrives* (that event's
//! `elapsed` is the Fig. 13 time-to-solution measurement), and the final
//! `Finished` event carries the ranking for the `r_RE^TO` column.

use std::time::Duration;

use apiphany_core::{Budget, Engine, Event, RunConfig};
use apiphany_lang::anf::canonicalize;
use apiphany_lang::{parse_program, Metrics};

use crate::defs::Benchmark;

/// The measured outcome of one benchmark run (one Table 2 row).
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// Paper id.
    pub id: String,
    /// Gold solution size metrics (`AST`, `n_f`, `n_p`, `n_g`).
    pub gold_metrics: Metrics,
    /// Whether the gold solution was found within the budget.
    pub solved: bool,
    /// Time at which the gold candidate was generated (taken from its
    /// streamed `CandidateFound` event).
    pub time_to_gold: Option<Duration>,
    /// 1-based generation rank of the gold (`r_orig`).
    pub r_orig: Option<usize>,
    /// RE rank when the gold was generated (`r_RE`).
    pub r_re: Option<usize>,
    /// RE rank at the end of the run (`r_RE^TO`).
    pub r_to: Option<usize>,
    /// Total distinct well-typed candidates generated (`# cands`).
    pub n_candidates: usize,
    /// Wall-clock duration of the run.
    pub total_time: Duration,
    /// Time spent in retrospective execution (cost computation).
    pub re_time: Duration,
}

fn unsolved(id: &str, gold_metrics: Metrics) -> BenchOutcome {
    BenchOutcome {
        id: id.to_string(),
        gold_metrics,
        solved: false,
        time_to_gold: None,
        r_orig: None,
        r_re: None,
        r_to: None,
        n_candidates: 0,
        total_time: Duration::ZERO,
        re_time: Duration::ZERO,
    }
}

/// Runs one benchmark against an engine by consuming its event stream.
///
/// # Panics
///
/// Panics if the benchmark's gold solution does not parse (a bug in the
/// benchmark table, caught by unit tests).
pub fn run_benchmark(engine: &Engine, bench: &Benchmark, cfg: &RunConfig) -> BenchOutcome {
    let gold = parse_program(bench.gold).expect("gold solutions parse");
    let gold_metrics = gold.metrics();
    let canon_gold = canonicalize(&gold);
    let Ok(query) = engine.query(bench.query) else {
        // Under coarse/fine ablation granularities a query type name can
        // fail to resolve; that counts as unsolved.
        return unsolved(bench.id, gold_metrics);
    };
    let session = engine
        .session(&query, cfg)
        .expect("benchmark run configurations carry valid budgets");

    let mut time_to_gold = None;
    let mut r_orig = None;
    let mut r_re = None;
    let mut finished = None;
    for event in session {
        match event {
            Event::CandidateFound { canonical, r_orig: gen, r_re_now, elapsed, .. } => {
                // Spot the gold as it streams by (against the canonical
                // form cached at generation time); `elapsed` is the
                // Fig. 13 time-to-solution measurement.
                if time_to_gold.is_none() && canonical == canon_gold {
                    time_to_gold = Some(elapsed);
                    r_orig = Some(gen);
                    r_re = Some(r_re_now);
                }
            }
            Event::Finished(result) => finished = Some(result),
            Event::DepthExhausted { .. } | Event::BudgetExhausted => {}
        }
    }
    let result = finished.expect("session always finishes");
    let r_to = result.ranks_of(&gold).map(|(_, _, r_to)| r_to);
    BenchOutcome {
        id: bench.id.to_string(),
        gold_metrics,
        solved: time_to_gold.is_some(),
        time_to_gold,
        r_orig,
        r_re,
        r_to,
        n_candidates: result.ranked.len(),
        total_time: result.total_time,
        re_time: result.re_time,
    }
}

/// A compact default run configuration for the harness: like the paper's
/// setup (150 s timeout, 15 RE rounds) but with a smaller default timeout
/// so a full table run finishes on a laptop; pass `--timeout 150` to the
/// binaries for the paper's setting.
pub fn default_run_config(timeout_secs: u64, max_path_len: usize) -> RunConfig {
    let mut cfg = RunConfig::default();
    cfg.synthesis.budget = Budget {
        wall_clock: Some(Duration::from_secs(timeout_secs)),
        max_depth: max_path_len,
        max_candidates: Some(60_000),
    };
    cfg
}
