//! `perf-baseline` — the parallel-pipeline performance harness.
//!
//! Measures the two hot phases of synthesis on the depth-bounded
//! `emails_of_channel` workload (benchmark 1.1, the paper's running
//! example against the simulated Slack API):
//!
//! 1. **Path search**: full TTN level enumeration (every iterative-
//!    deepening level up to `--max-len`), serial and for each requested
//!    thread count. Along the way the emitted path stream is hashed, so
//!    the run *verifies* the bit-identical determinism guarantee rather
//!    than assuming it.
//! 2. **End-to-end synthesis**: the Table-2 "easy suite" (the eight Slack
//!    benchmarks) through the engine, serial vs. parallel, checking that
//!    solved-ness and all three rank columns agree.
//!
//! A counting global allocator reports real heap allocations per search
//! node (the "allocation-lean DFS" claim, measured rather than asserted).
//! The measured runs report through the `apiphany_telemetry` registry
//! (the final snapshot is attached to the report), and a micro-bench
//! quantifies the registry's overhead: the same serial search with the
//! registry disabled vs. enabled. Each parallel run is also held to
//! *node parity*: with the shared dead-set, a parallel run must explore
//! about the same number of nodes as the serial one (the `node_parity`
//! block; the run fails if any thread count exceeds serial by >10%).
//! Results are written as JSON (default `BENCH_pr10.json`, the
//! `BENCH_pr9.json` schema plus `node_parity` and `dead_shared_hits`).
//!
//! Flags: `--smoke` (tiny configuration for CI), `--max-len N`,
//! `--threads 2,4,8`, `--out PATH`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use apiphany_benchmarks::{
    benchmarks, default_analyze_config, default_run_config, prepare_api, run_benchmark, Api,
    BenchOutcome,
};
use apiphany_core::json::Value;
use apiphany_core::{Engine, Telemetry};
use apiphany_ttn::{
    enumerate_search, query_markings, CancelToken, SearchConfig, SearchEvent, SearchStats,
};

/// Counts heap allocations so the harness can report a real
/// allocations-per-node figure for the DFS hot loop.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured search run.
struct SearchRun {
    threads: usize,
    wall: Duration,
    stats: SearchStats,
    /// Order-sensitive FNV hash of the full emitted path stream.
    stream_hash: u64,
    paths: u64,
    allocs: u64,
}

fn run_search(
    engine: &Engine,
    max_len: usize,
    threads: usize,
    telemetry: &Telemetry,
) -> SearchRun {
    let query = engine
        .query("{ channel_name: objs_conversation.name } → [objs_user_profile.email]")
        .expect("benchmark 1.1 query parses");
    let net = engine.synthesizer().net();
    let (init, fin) = query_markings(net, &query).expect("query has places");
    let cfg =
        SearchConfig { max_len, threads, telemetry: telemetry.clone(), ..SearchConfig::default() };
    let mut stream_hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut paths = 0u64;
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    let report = enumerate_search(net, &init, &fin, &cfg, &CancelToken::new(), &mut |event| {
        if let SearchEvent::Path(p) = event {
            paths += 1;
            for f in p {
                stream_hash ^= u64::from(f.trans.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                stream_hash = stream_hash.wrapping_mul(0x100_0000_01b3);
                for &taken in &f.optional_taken {
                    stream_hash ^= u64::from(taken).wrapping_add(0x517c_c1b7_2722_0a95);
                    stream_hash = stream_hash.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        true
    });
    let wall = start.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    SearchRun { threads, wall, stats: report.stats, stream_hash, paths, allocs }
}

fn search_run_json(run: &SearchRun, serial: Option<&SearchRun>) -> Value {
    let mut pairs = vec![
        ("threads".to_string(), Value::Int(run.threads as i64)),
        ("wall_secs".to_string(), Value::Float(run.wall.as_secs_f64())),
        ("paths".to_string(), Value::Int(run.paths as i64)),
        ("nodes".to_string(), Value::Int(run.stats.nodes as i64)),
        ("dead_hits".to_string(), Value::Int(run.stats.dead_hits as i64)),
        ("dead_shared_hits".to_string(), Value::Int(run.stats.dead_shared_hits as i64)),
        ("dead_misses".to_string(), Value::Int(run.stats.dead_misses as i64)),
        ("dead_evicted".to_string(), Value::Int(run.stats.dead_evicted as i64)),
        ("allocs".to_string(), Value::Int(run.allocs as i64)),
        (
            "allocs_per_node".to_string(),
            Value::Float(if run.stats.nodes == 0 {
                0.0
            } else {
                run.allocs as f64 / run.stats.nodes as f64
            }),
        ),
    ];
    if let Some(serial) = serial {
        pairs.push((
            "bit_identical_to_serial".to_string(),
            Value::Bool(
                run.stream_hash == serial.stream_hash && run.paths == serial.paths,
            ),
        ));
        pairs.push((
            "speedup_vs_serial".to_string(),
            Value::Float(serial.wall.as_secs_f64() / run.wall.as_secs_f64().max(1e-9)),
        ));
    }
    Value::Object(pairs)
}

/// The "easy suite": the eight Slack rows of Table 2.
fn easy_suite(
    engine: &Engine,
    max_len: usize,
    threads: usize,
    timeout_secs: u64,
) -> (Duration, Vec<BenchOutcome>) {
    let mut cfg = default_run_config(timeout_secs, max_len);
    cfg.synthesis.threads = threads;
    let start = Instant::now();
    let outcomes: Vec<BenchOutcome> = benchmarks()
        .iter()
        .filter(|b| b.api == Api::Slack)
        .map(|b| run_benchmark(engine, b, &cfg))
        .collect();
    (start.elapsed(), outcomes)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let opt = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let smoke = has("--smoke");
    let max_len: usize = opt("--max-len")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 5 } else { 6 });
    let thread_counts: Vec<usize> = opt("--threads")
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_else(|| if smoke { vec![2] } else { vec![2, 4, 8] });
    let out_path = opt("--out").unwrap_or_else(|| "BENCH_pr10.json".to_string());

    eprintln!("preparing slack engine (analysis phase)...");
    let prepared = prepare_api(Api::Slack, &default_analyze_config());
    let engine = prepared.engine;

    // Every measured run reports through one enabled registry; its final
    // snapshot goes into the report.
    let telemetry = Telemetry::enabled();

    // Phase 1: path search, serial then parallel.
    eprintln!("path search: emails_of_channel, depth {max_len}, serial...");
    let serial = run_search(&engine, max_len, 1, &telemetry);
    eprintln!(
        "  serial: {:.3}s, {} paths, {} nodes, {:.4} allocs/node",
        serial.wall.as_secs_f64(),
        serial.paths,
        serial.stats.nodes,
        serial.allocs as f64 / serial.stats.nodes.max(1) as f64
    );
    let mut parallel_runs = Vec::new();
    for &threads in &thread_counts {
        eprintln!("path search: {threads} threads...");
        let run = run_search(&engine, max_len, threads, &telemetry);
        eprintln!(
            "  {} threads: {:.3}s, bit-identical: {}",
            threads,
            run.wall.as_secs_f64(),
            run.stream_hash == serial.stream_hash && run.paths == serial.paths
        );
        parallel_runs.push(run);
    }

    // Node parity: the shared dead-set exists so a parallel run prunes
    // (almost) everything the serial memo prunes. Re-exploration from
    // racing inserts and frontier stitching is allowed a 10% budget;
    // beyond that the sharing is broken and the run fails.
    let node_parity: Vec<Value> = parallel_runs
        .iter()
        .map(|r| {
            Value::obj(vec![
                ("threads", Value::Int(r.threads as i64)),
                ("parallel_nodes", Value::Int(r.stats.nodes as i64)),
                ("serial_nodes", Value::Int(serial.stats.nodes as i64)),
                (
                    "ratio",
                    Value::Float(r.stats.nodes as f64 / serial.stats.nodes.max(1) as f64),
                ),
            ])
        })
        .collect();
    let parity_broken = parallel_runs
        .iter()
        .any(|r| r.stats.nodes as f64 > serial.stats.nodes as f64 * 1.10);
    for r in &parallel_runs {
        eprintln!(
            "  node parity {} threads: {} vs serial {} ({:.3}x)",
            r.threads,
            r.stats.nodes,
            serial.stats.nodes,
            r.stats.nodes as f64 / serial.stats.nodes.max(1) as f64
        );
    }

    // Micro-bench: the registry's cost on the serial search. The
    // disabled run exercises the exact same instrumented code with the
    // no-op handles. Runs are interleaved disabled/enabled and the best
    // wall per mode is compared, so a background load spike hits both
    // modes instead of masquerading as (negative) overhead. Tier-1
    // acceptance wants the disabled path within 2% of free — which we
    // can only bound from the enabled side: if even the *enabled*
    // registry is within noise of the disabled one, the disabled path
    // is too.
    eprintln!("telemetry micro-bench: serial search, registry disabled vs enabled...");
    let pairs = if smoke { 1 } else { 2 };
    let mut disabled_secs = f64::INFINITY;
    let mut enabled_secs = serial.wall.as_secs_f64();
    for _ in 0..pairs {
        let disabled_run = run_search(&engine, max_len, 1, &Telemetry::default());
        if disabled_run.stream_hash != serial.stream_hash || disabled_run.paths != serial.paths
        {
            eprintln!("ERROR: telemetry changed the emitted path stream");
            std::process::exit(1);
        }
        disabled_secs = disabled_secs.min(disabled_run.wall.as_secs_f64());
        let enabled_run = run_search(&engine, max_len, 1, &telemetry);
        enabled_secs = enabled_secs.min(enabled_run.wall.as_secs_f64());
    }
    let overhead_pct = (enabled_secs - disabled_secs) / disabled_secs.max(1e-9) * 100.0;
    eprintln!(
        "  disabled {disabled_secs:.3}s vs enabled {enabled_secs:.3}s \
         ({overhead_pct:+.2}% with the registry on; best of {pairs} interleaved pairs)"
    );

    // Phase 2: end-to-end synthesis over the Slack suite.
    let e2e_len = max_len.min(6);
    let e2e_timeout = if smoke { 10 } else { 30 };
    let par_threads = thread_counts.iter().copied().max().unwrap_or(2).min(4);
    eprintln!("easy suite (8 slack benchmarks), depth {e2e_len}, serial...");
    let (e2e_serial_wall, e2e_serial) = easy_suite(&engine, e2e_len, 1, e2e_timeout);
    eprintln!("easy suite, {par_threads} threads...");
    let (e2e_par_wall, e2e_par) = easy_suite(&engine, e2e_len, par_threads, e2e_timeout);
    // Rank agreement is only meaningful for rows that finished well
    // inside the wall-clock on both runs: a deadline cuts a slower run
    // earlier in the (identical) candidate stream, which is
    // timing-dependence by design, not nondeterminism.
    let comfortably = Duration::from_secs(e2e_timeout).mul_f64(0.9);
    let mut rows_compared = 0usize;
    let mut rows_deadline_limited = 0usize;
    let mut ranks_agree = e2e_serial.len() == e2e_par.len();
    for (a, b) in e2e_serial.iter().zip(&e2e_par) {
        if a.total_time >= comfortably || b.total_time >= comfortably {
            rows_deadline_limited += 1;
            continue;
        }
        rows_compared += 1;
        ranks_agree &= a.id == b.id
            && a.solved == b.solved
            && a.r_orig == b.r_orig
            && a.r_re == b.r_re
            && a.r_to == b.r_to
            && a.n_candidates == b.n_candidates;
    }
    let solved = e2e_serial.iter().filter(|o| o.solved).count();
    eprintln!(
        "easy suite: serial {:.1}s vs parallel {:.1}s, solved {solved}/8, \
         ranks agree: {ranks_agree} ({rows_compared} rows compared, \
         {rows_deadline_limited} deadline-limited)",
        e2e_serial_wall.as_secs_f64(),
        e2e_par_wall.as_secs_f64()
    );

    // Seed baseline: the depth-6 search workload measured on the pre-PR
    // tree (commit 21982af, serial-only engine) on the PR 3 container.
    // Only attached when this run measures the *same* workload (full
    // mode, depth 6) — a smoke run or another depth would make the
    // before/after comparison meaningless.
    let seed_baseline_secs =
        if !smoke && max_len == 6 { Some(167.47_f64) } else { None };
    let best_parallel = parallel_runs
        .iter()
        .map(|r| r.wall.as_secs_f64())
        .fold(f64::INFINITY, f64::min)
        .min(serial.wall.as_secs_f64());

    let report = Value::obj(vec![
        ("bench", Value::Str("perf-baseline (PR 10)".into())),
        ("workload", Value::Str(format!(
            "emails_of_channel (Table 2 benchmark 1.1, slack): full TTN level \
             enumeration depths 1..={max_len} + 8-benchmark slack easy suite at depth {e2e_len}"
        ))),
        ("smoke", Value::Bool(smoke)),
        ("machine", Value::obj(vec![
            ("cpus", Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64))),
            ("note", Value::Str(
                "single-core container: parallel runs validate determinism and \
                 measure pool overhead; multi-core wall-clock scaling requires >1 CPU"
                    .into(),
            )),
        ])),
        ("seed_baseline", match seed_baseline_secs {
            Some(secs) => Value::obj(vec![
                ("wall_secs", Value::Float(secs)),
                ("commit", Value::Str("21982af (pre-PR serial engine)".into())),
                ("workload", Value::Str("identical depth-6 search workload".into())),
            ]),
            None => Value::Null,
        }),
        ("path_search", Value::obj(vec![
            ("serial", search_run_json(&serial, None)),
            (
                "parallel",
                Value::Array(
                    parallel_runs.iter().map(|r| search_run_json(r, Some(&serial))).collect(),
                ),
            ),
            (
                "speedup_vs_seed_baseline",
                match seed_baseline_secs {
                    Some(secs) => Value::Float(secs / best_parallel.max(1e-9)),
                    None => Value::Null,
                },
            ),
        ])),
        ("node_parity", Value::Array(node_parity)),
        ("easy_suite", Value::obj(vec![
            ("serial_wall_secs", Value::Float(e2e_serial_wall.as_secs_f64())),
            ("parallel_wall_secs", Value::Float(e2e_par_wall.as_secs_f64())),
            ("parallel_threads", Value::Int(par_threads as i64)),
            ("per_benchmark_timeout_secs", Value::Int(e2e_timeout as i64)),
            ("solved", Value::Int(solved as i64)),
            ("ranks_agree_serial_vs_parallel", Value::Bool(ranks_agree)),
            ("rows_compared", Value::Int(rows_compared as i64)),
            ("rows_deadline_limited", Value::Int(rows_deadline_limited as i64)),
        ])),
        ("telemetry_overhead", Value::obj(vec![
            ("workload", Value::Str(format!(
                "serial emails_of_channel search, depths 1..={max_len}"
            ))),
            ("disabled_wall_secs", Value::Float(disabled_secs)),
            ("enabled_wall_secs", Value::Float(enabled_secs)),
            ("enabled_overhead_pct", Value::Float(overhead_pct)),
            ("bit_identical", Value::Bool(true)),
        ])),
        ("metrics", telemetry.snapshot_value()),
    ]);
    std::fs::write(&out_path, report.to_json()).expect("write bench report");
    eprintln!("wrote {out_path}");

    if parallel_runs
        .iter()
        .any(|r| r.stream_hash != serial.stream_hash || r.paths != serial.paths)
    {
        eprintln!("ERROR: a parallel run diverged from the serial path stream");
        std::process::exit(1);
    }
    if !ranks_agree {
        eprintln!("ERROR: parallel easy-suite ranks diverged from serial");
        std::process::exit(1);
    }
    if parity_broken {
        eprintln!(
            "ERROR: a parallel run explored >10% more nodes than serial \
             (shared dead-set not pruning)"
        );
        std::process::exit(1);
    }
}
