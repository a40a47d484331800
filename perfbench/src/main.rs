//! `perfbench` — the end-to-end and per-layer benchmark of the `synthd`
//! serving path.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. One run:
//!
//! 1. sets up several times — starts the daemon (`run_net_daemon`, 2
//!    slots) on a unix socket, runs the paper's analysis phase for every
//!    service of the workload, registers each client's copies with the
//!    mined witnesses inline, and waits for `analysis_ready` — and keeps
//!    the last daemon;
//! 2. drives the workload from this process (at most 2 threads, one
//!    connection each, closed loop) for at least `--seconds`, in whole
//!    passes of the workload's query mix;
//! 3. checks every output against `expected.tsv` and the paper's gold
//!    programs;
//! 4. with `--trace 1`, replays the same operations in this process with
//!    a span around every layer call (see `trace.rs`) and derives the
//!    per-layer metrics;
//! 5. prints every metric by name and unit, then one JSON result line.
//!
//! The exit code is 0 only if every operation succeeded and every check
//! passed. `--record` rewrites the workload's rows of `expected.tsv`
//! from the run instead of checking them.

mod procfs;
mod trace;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use apiphany_repro::benchmarks::{default_analyze_config, prepare_api};
use apiphany_repro::json::Value;
use apiphany_repro::lang::anf::{canonicalize, AnfProgram};
use apiphany_repro::lang::parse_program;
use apiphany_repro::net::{install_term_flag, ListenAddr, Listener, NetConfig, NetServer};
use apiphany_repro::server::{run_net_daemon, NetOptions};
use apiphany_repro::spec::codec::library_to_value;
use apiphany_repro::spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_repro::spec::{witnesses_to_json, Library, Witness};

use procfs::{status_field, Daemon, ThreadSampler};
use trace::{Layer, ReplayLog, Tracer};
use wire::{await_ready, register_request, run_client, service_name, ClientLog, Conn, Window};
use workload::{ServiceKind, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Where runs leave sockets, span dumps and nothing else.
const OUT_DIR: &str = "perfbench/out";
/// The recorded candidate counts, stream digests and gold ranks.
const EXPECTED: &str = include_str!("../expected.tsv");
const EXPECTED_PATH: &str = "perfbench/expected.tsv";
/// End-to-end metrics that are printed but left out of the result line,
/// and so carry no bound. On a 2-vCPU VM the machine's own speed drifts
/// by 25-80 % within minutes, so over ten seeds every latency and
/// throughput figure spread past the largest bound the benchmark may set
/// (0.25) in some sets; the latency percentiles, each the time of one or
/// two particular query instances, did in most. Speed claims compare
/// them in paired, alternating runs instead. `failed_frac` is 0 on every
/// passing run; `attempted` and `failed` carry it.
const PRINTED_ONLY: [&str; 8] = [
    "ttfc_ms.p50",
    "ttfc_ms.tail",
    "finish_ms.p50",
    "finish_ms.tail",
    "queries_per_s",
    "candidates_per_s",
    "analysis_ms.p50",
    "failed_frac",
];

/// FNV-1a 64 over a sequence of strings (each followed by a newline):
/// the order-sensitive digest of a candidate stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, s: &str) {
        for b in s.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The running example's analysis inputs: the Fig. 7 library and its
/// recorded Fig. 4 witnesses.
pub fn fig7_inputs() -> (Library, Vec<Witness>) {
    (fig7_library(), fig4_witnesses())
}

#[derive(Debug)]
struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--record]",
        workload::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--serve") {
        return match args.get(2) {
            Some(socket) => serve(socket),
            None => usage("--serve needs a socket path"),
        };
    }
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        record: false,
    };
    let mut i = 1;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => opts.workload = v.to_string(),
            ("--seed", Some(v)) => match v.parse() {
                Ok(n) => opts.seed = n,
                Err(_) => return usage("--seed needs an integer"),
            },
            ("--seconds", Some(v)) => match v.parse() {
                Ok(n) if n > 0 => opts.seconds = n,
                _ => return usage("--seconds needs a positive integer"),
            },
            ("--trace", Some("0" | "1")) => opts.trace = value == Some("1"),
            ("--record", _) => {
                opts.record = true;
                i += 1;
                continue;
            }
            (flag, _) => return usage(&format!("bad argument '{flag}'")),
        }
        i += 2;
    }
    let Some(workload) = workload::workload(&opts.workload) else {
        return usage("--workload is required");
    };
    if opts.seconds == 0 {
        return usage("--seconds is required");
    }
    match run(&workload, &opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Serving mode: the `synthd` socket loop with 2 slots, until a
/// `shutdown` request drains it.
fn serve(socket: &str) -> ExitCode {
    let mut opts = NetOptions::default();
    opts.daemon.slots = 2;
    let listener = match Listener::bind(&ListenAddr::Unix(PathBuf::from(socket))) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench daemon: cannot bind {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = NetConfig {
        write_deadline: opts.write_deadline,
        ..NetConfig::default()
    };
    let server = NetServer::start_with(vec![listener], cfg);
    match run_net_daemon(server, &opts, &install_term_flag()) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `library` + `witnesses` a client registers for `kind`: for the
/// simulated APIs, the output of the paper's analysis phase (scenario
/// capture plus `Engine::analyze` against the sandbox).
fn registration_inputs(kind: ServiceKind) -> Value {
    let (library, witnesses) = match kind {
        ServiceKind::Api(api) => {
            let prepared = prepare_api(api, &default_analyze_config());
            (prepared.library, prepared.witnesses)
        }
        ServiceKind::Fig7 => fig7_inputs(),
    };
    Value::obj([
        ("library", library_to_value(&library)),
        ("witnesses", witnesses_to_json(&witnesses)),
    ])
}

fn io_err(message: String) -> std::io::Error {
    std::io::Error::other(message)
}

/// One set-up: the daemon, the client connections, the registration
/// inputs and each registration's register → ready time.
struct Setup {
    daemon: Daemon,
    conns: Vec<Conn>,
    inputs: Vec<Value>,
    ready_ms: Vec<f64>,
}

/// Daemon start → socket ready → every client's services registered and
/// analysed.
fn set_up(workload: &Workload, socket: &Path) -> std::io::Result<Setup> {
    let daemon = Daemon::start(socket.to_path_buf())?;
    let inputs: Vec<Value> = workload
        .services
        .iter()
        .map(|&k| registration_inputs(k))
        .collect();
    let mut conns = Vec::with_capacity(workload.clients);
    let mut ready_ms = Vec::new();
    for client in 0..workload.clients {
        let mut conn = Conn::connect(&daemon.addr)?;
        for (kind, input) in workload.services.iter().zip(&inputs) {
            let name = service_name(client, kind.name());
            let sent = conn.send(register_request(&name, input))?;
            if !await_ready(&mut conn, &name)? {
                return Err(io_err(format!("registering {name} failed")));
            }
            ready_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        conns.push(conn);
    }
    Ok(Setup {
        daemon,
        conns,
        inputs,
        ready_ms,
    })
}

/// Asks the daemon to drain and waits for it to exit. An idle daemon may
/// close the connection before its `ok` reply is flushed, so the reply
/// is not awaited: the process exiting cleanly is the success signal.
fn shut_down(daemon: Daemon, mut conns: Vec<Conn>) -> std::io::Result<()> {
    conns[0].send(vec![("op", Value::from("shutdown"))])?;
    drop(conns);
    if daemon.wait_exit(Duration::from_secs(30)) {
        Ok(())
    } else {
        Err(io_err("daemon did not exit cleanly after shutdown".into()))
    }
}

/// Median and tail of a sample: the tail is the highest percentile with
/// at least ten samples beyond it (the maximum when there are fewer than
/// eleven samples). An empty sample (a layer the workload never reaches)
/// summarizes to zeros.
struct Summary {
    n: usize,
    p50: f64,
    tail: f64,
    tail_pct: f64,
}

fn summarize(values: &[f64]) -> Summary {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            n,
            p50: 0.0,
            tail: 0.0,
            tail_pct: 0.0,
        };
    }
    let p50 = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let (tail, tail_pct) = if n > 10 {
        (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (v[n - 1], 100.0)
    };
    Summary {
        n,
        p50,
        tail,
        tail_pct,
    }
}

fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The expected outcome of one query, from `expected.tsv`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expected {
    n_candidates: usize,
    digest: u64,
    /// 1-based position of the gold program in the stream.
    gold_r_orig: Option<usize>,
    /// 1-based rank of the gold program in the final top ten.
    gold_rank: Option<usize>,
}

fn parse_expected(text: &str) -> BTreeMap<String, Expected> {
    let opt = |s: &str| s.parse().ok();
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let e = Expected {
                n_candidates: f.get(1)?.parse().ok()?,
                digest: u64::from_str_radix(f.get(2)?, 16).ok()?,
                gold_r_orig: opt(f.get(3)?),
                gold_rank: opt(f.get(4)?),
            };
            Some((f[0].to_string(), e))
        })
        .collect()
}

fn write_expected(rows: &BTreeMap<String, Expected>) -> std::io::Result<()> {
    let show = |v: Option<usize>| v.map_or("-".to_string(), |n| n.to_string());
    let mut text = String::from(
        "# query\tcandidates\tstream digest (FNV-1a 64)\tgold position in stream\tgold rank in final top ten\n",
    );
    for (key, e) in rows {
        text.push_str(&format!(
            "{key}\t{}\t{:016x}\t{}\t{}\n",
            e.n_candidates,
            e.digest,
            show(e.gold_r_orig),
            show(e.gold_rank)
        ));
    }
    std::fs::write(EXPECTED_PATH, text)
}

fn canonical(program: &str) -> Option<AnfProgram> {
    parse_program(program).ok().map(|p| canonicalize(&p))
}

/// Where the gold program appears in a stream and in the final top ten.
fn gold_positions(
    gold: &str,
    stream: &[String],
    ranked: &[String],
) -> (Option<usize>, Option<usize>) {
    let gold = canonical(gold).expect("gold programs parse");
    let find = |list: &[String]| {
        list.iter()
            .position(|p| canonical(p).as_ref() == Some(&gold))
    };
    (find(stream).map(|i| i + 1), find(ranked).map(|i| i + 1))
}

/// One named, unit-carrying metric value.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

fn metric(name: &str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        note: note.into(),
    }
}

fn run(workload: &Workload, opts: &Options) -> std::io::Result<bool> {
    if !Path::new("perfbench/Cargo.toml").is_file() {
        return Err(io_err("run from the repository root".into()));
    }
    std::fs::create_dir_all(OUT_DIR)?;
    let socket = PathBuf::from(OUT_DIR).join(format!("synthd-{}.sock", std::process::id()));
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;

    // 1. Set-ups; the last one's daemon serves the measurement.
    let mut setup_s = Vec::new();
    let mut setup_ready_ms = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let setup = set_up(workload, &socket)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        attempted += setup.ready_ms.len();
        setup_ready_ms.extend(&setup.ready_ms);
        if i + 1 < SETUPS {
            shut_down(setup.daemon, setup.conns)?;
        } else {
            live = Some(setup);
        }
    }
    let Setup {
        daemon,
        mut conns,
        inputs,
        ..
    } = live.expect("at least one set-up");
    let pid = daemon.pid();

    // 2. The measured window.
    let mut sampler = ThreadSampler::new(pid);
    sampler.sample();
    let bytes_before: Vec<u64> = conns.iter().map(Conn::bytes_in).collect();
    let window = Window {
        workload,
        registrations: &inputs,
        seed: opts.seed,
        start: Instant::now(),
        length: Duration::from_secs(opts.seconds),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let (first, rest) = conns.split_first_mut().expect("at least one client");
        let window = &window;
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| scope.spawn(move || run_client(conn, window, i + 1, None)))
            .collect();
        let mut logs = vec![run_client(first, window, 0, Some(&mut sampler))];
        logs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        logs
    });
    let wall = window.start.elapsed().as_secs_f64();
    let bytes_in: u64 = conns
        .iter()
        .zip(&bytes_before)
        .map(|(c, before)| c.bytes_in() - before)
        .sum();
    sampler.sample();
    let peak_threads = sampler.peak;
    let peak_rss_kb = status_field(pid, "VmHWM").unwrap_or(0);
    let daemon_metrics = match conns[0].call(vec![("op", Value::from("metrics"))]) {
        Ok(reply) => reply.get("metrics").cloned().unwrap_or(Value::Null),
        Err(e) => {
            failures.push(format!("metrics request: {e}"));
            Value::Null
        }
    };
    attempted += 2;
    if let Err(e) = shut_down(daemon, conns) {
        failures.push(format!("shutdown: {e}"));
    }

    // 3. Output checks.
    let expected = parse_expected(EXPECTED);
    let mut observed: BTreeMap<String, Expected> = BTreeMap::new();
    let records: Vec<&wire::QueryRecord> = logs.iter().flat_map(|l| &l.queries).collect();
    for log in &logs {
        attempted += log.reregistrations;
        failures.extend(log.other_failures.iter().cloned());
    }
    for rec in &records {
        attempted += 1;
        let def = &workload.queries[rec.query];
        let fail = |why: String| format!("query {} (client {}): {why}", def.key, rec.client);
        if let Some(e) = &rec.error {
            failures.push(fail(e.clone()));
            continue;
        }
        if rec.outcome != "exhausted" {
            failures.push(fail(format!("outcome {}", rec.outcome)));
            continue;
        }
        if rec.finished_n != rec.n_candidates {
            failures.push(fail(format!(
                "finished reports {} candidates, stream had {}",
                rec.finished_n, rec.n_candidates
            )));
            continue;
        }
        let mut seen = Expected {
            n_candidates: rec.n_candidates,
            digest: rec.digest,
            gold_r_orig: None,
            gold_rank: None,
        };
        if let (Some(stream), Some(gold)) = (&rec.programs, &def.gold) {
            (seen.gold_r_orig, seen.gold_rank) = gold_positions(gold, stream, &rec.ranked);
        } else if let Some(prior) = observed.get(&def.key) {
            (seen.gold_r_orig, seen.gold_rank) = (prior.gold_r_orig, prior.gold_rank);
        }
        if opts.record {
            observed.insert(def.key.clone(), seen);
            continue;
        }
        match expected.get(&def.key) {
            None => failures.push(fail("no expected values recorded".into())),
            Some(e) if *e != seen => failures.push(fail(format!("expected {e:?}, got {seen:?}"))),
            Some(_) => {
                observed.insert(def.key.clone(), seen);
            }
        }
    }
    if opts.record {
        let mut rows = parse_expected(&std::fs::read_to_string(EXPECTED_PATH)?);
        rows.extend(observed.clone());
        write_expected(&rows)?;
    }

    // 4. The traced replay.
    let replays = if opts.trace {
        Some(replay(workload, opts, &logs, &mut failures)?)
    } else {
        None
    };

    // 5. Metrics.
    let finished: Vec<&&wire::QueryRecord> = records.iter().filter(|r| r.error.is_none()).collect();
    let ttfc = summarize(
        &finished
            .iter()
            .filter_map(|r| r.ttfc_ms)
            .collect::<Vec<_>>(),
    );
    let finish = summarize(&finished.iter().map(|r| r.finish_ms).collect::<Vec<_>>());
    let candidate_frames: usize = logs.iter().map(|l| l.candidate_frames).sum();
    let reregistration_ms: Vec<f64> = logs.iter().flat_map(|l| l.analysis_ms.clone()).collect();
    let (analysis_ms, analysis_src) = if reregistration_ms.is_empty() {
        (summarize(&setup_ready_ms), "set-up registrations")
    } else {
        (
            summarize(&reregistration_ms),
            "re-registrations in the window",
        )
    };
    let gold_found = observed
        .values()
        .filter(|e| e.gold_r_orig.is_some())
        .count();
    let gold_top10 = observed.values().filter(|e| e.gold_rank.is_some()).count();
    let failed = failures.len();
    let passes: Vec<String> = logs.iter().map(|l| l.passes.to_string()).collect();

    let e2e = vec![
        metric(
            "setup_s",
            "s",
            median(&setup_s),
            format!("median of {SETUPS} set-ups"),
        ),
        metric(
            "ttfc_ms.p50",
            "ms",
            ttfc.p50,
            format!("n={} queries with a candidate", ttfc.n),
        ),
        metric(
            "ttfc_ms.tail",
            "ms",
            ttfc.tail,
            format!("p{:.1}, n={}", ttfc.tail_pct, ttfc.n),
        ),
        metric("finish_ms.p50", "ms", finish.p50, format!("n={}", finish.n)),
        metric(
            "finish_ms.tail",
            "ms",
            finish.tail,
            format!("p{:.1}, n={}", finish.tail_pct, finish.n),
        ),
        metric(
            "queries_per_s",
            "1/s",
            finished.len() as f64 / wall,
            format!("{} finished in {wall:.2} s", finished.len()),
        ),
        metric(
            "candidates_per_s",
            "1/s",
            candidate_frames as f64 / wall,
            format!("{candidate_frames} candidate frames"),
        ),
        metric(
            "analysis_ms.p50",
            "ms",
            analysis_ms.p50,
            format!("n={}, {analysis_src}", analysis_ms.n),
        ),
        metric(
            "gold_found",
            "count",
            gold_found as f64,
            format!("of {} distinct queries", workload.queries.len()),
        ),
        metric(
            "gold_top10",
            "count",
            gold_top10 as f64,
            "gold ranked <= 10 in finished",
        ),
        metric(
            "peak_rss_mb",
            "MB",
            peak_rss_kb as f64 / 1024.0,
            "daemon VmHWM",
        ),
        metric(
            "peak_threads",
            "count",
            peak_threads as f64,
            "daemon Threads, sampled",
        ),
        metric(
            "failed_frac",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
            format!("{failed}/{attempted}"),
        ),
    ];
    println!(
        "perfbench: workload {} seed {} window {} s, passes per client [{}], wall {wall:.2} s",
        workload.name,
        opts.seed,
        opts.seconds,
        passes.join(", ")
    );
    print_metrics("end-to-end", &e2e);

    let mut reported: Vec<&Metric> = Vec::new();
    let layer_metrics;
    if let Some(replays) = &replays {
        layer_metrics = per_layer(&logs, replays, bytes_in, &daemon_metrics);
        print_metrics("per-layer (traced run)", &layer_metrics);
        reported.extend(layer_metrics.iter());
    } else {
        reported.extend(
            e2e.iter()
                .filter(|m| !PRINTED_ONLY.contains(&m.name.as_str())),
        );
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    let correct = failures.is_empty();
    let metrics = Value::Object(
        reported
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::obj([
                        ("value", Value::Float(m.value)),
                        ("unit", Value::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_json());
    Ok(correct)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!(
            "  {:<28} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// Replays every client's operations with tracing, checks the replayed
/// streams against the wire, and writes the spans out.
fn replay(
    workload: &Workload,
    opts: &Options,
    logs: &[ClientLog],
    failures: &mut Vec<String>,
) -> std::io::Result<Vec<ReplayLog>> {
    let origin = Instant::now();
    let replays: Vec<ReplayLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(c, log)| {
                scope
                    .spawn(move || trace::replay_client(workload, opts.seed, c, log.passes, origin))
            })
            .collect();
        let mut out = vec![trace::replay_client(
            workload,
            opts.seed,
            0,
            logs[0].passes,
            origin,
        )];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked")),
        );
        out
    });
    for (client, (log, rep)) in logs.iter().zip(&replays).enumerate() {
        if log.queries.len() != rep.queries.len() {
            failures.push(format!(
                "replay of client {client} ran {} queries, the wire {}",
                rep.queries.len(),
                log.queries.len()
            ));
            continue;
        }
        for (w, r) in log.queries.iter().zip(&rep.queries) {
            if w.error.is_some() {
                continue;
            }
            if (w.query, w.digest, w.n_candidates, &w.ranked)
                != (r.query, r.digest, r.n_candidates, &r.ranked)
            {
                failures.push(format!(
                    "query {} (client {}): replayed stream differs from the wire stream",
                    workload.queries[w.query].key, w.client
                ));
            }
        }
    }
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.tsv", workload.name));
    let tracers: Vec<&Tracer> = replays.iter().map(|r| &r.tracer).collect();
    Tracer::write(&tracers, &path)?;
    Ok(replays)
}

/// Derives the per-layer metrics from the replay and the wire.
fn per_layer(
    logs: &[ClientLog],
    replays: &[ReplayLog],
    bytes_in: u64,
    daemon_metrics: &Value,
) -> Vec<Metric> {
    let qs: Vec<&trace::ReplayRecord> = replays.iter().flat_map(|r| &r.queries).collect();
    let regs: Vec<&trace::RegRecord> = replays.iter().flat_map(|r| &r.registrations).collect();
    let analyses: Vec<&trace::AnalysisRecord> = replays.iter().flat_map(|r| &r.analyses).collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let self_ms = |layer: Layer| mean(qs.iter().map(|q| ms(q.self_ns[layer as usize])));
    let total = |layer: Layer| qs.iter().map(|q| q.self_ns[layer as usize]).sum::<u64>();
    let sum = |f: &dyn Fn(&trace::ReplayRecord) -> f64| qs.iter().map(|q| f(q)).sum::<f64>();
    let per_query = |f: &dyn Fn(&trace::ReplayRecord) -> f64| mean(qs.iter().map(|q| f(q)));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let search_s = total(Layer::Search) as f64 / 1e9;
    let hits = sum(&|q| q.search.dead_hits as f64);
    let misses = sum(&|q| q.search.dead_misses as f64);
    let programs = sum(&|q| q.programs as f64);
    let candidates = sum(&|q| q.n_candidates as f64);
    let re_us: Vec<f64> = qs
        .iter()
        .flat_map(|q| q.re_cost_us.iter().copied())
        .collect();
    let call_us: Vec<f64> = analyses
        .iter()
        .flat_map(|a| a.call_us.iter().copied())
        .collect();

    // Wire vs replay, query by query (the two lists are aligned).
    let wire: Vec<&wire::QueryRecord> = logs.iter().flat_map(|l| &l.queries).collect();
    let pairs: Vec<(&wire::QueryRecord, &trace::ReplayRecord)> = wire
        .iter()
        .copied()
        .zip(qs.iter().copied())
        .filter(|(w, _)| w.error.is_none())
        .collect();
    let overhead: Vec<f64> = pairs
        .iter()
        .map(|(w, r)| w.finish_ms - r.total_ms)
        .collect();
    let unattributed: Vec<f64> = pairs
        .iter()
        .map(|(w, r)| {
            let layers: u64 = Layer::QUERY[1..]
                .iter()
                .map(|&l| r.self_ns[l as usize])
                .sum();
            w.finish_ms - ms(layers)
        })
        .collect();
    let traced_total: f64 = pairs.iter().map(|(_, r)| r.total_ms).sum();
    let untraced_total: f64 = pairs.iter().map(|(w, _)| w.total_ms).sum();
    let lags: Vec<f64> = wire
        .iter()
        .flat_map(|w| w.event_lag_ms.iter().copied())
        .collect();
    let hist = |name: &str, field: &str| {
        daemon_metrics
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(Value::as_int)
            .unwrap_or(0) as f64
    };
    let counter = |name: &str| {
        daemon_metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_int)
            .unwrap_or(0) as f64
    };
    let analyze_count = hist("catalog.analyze_us", "count");

    let mut out = vec![
        metric(
            "mining.analyze_ms",
            "ms",
            mean(analyses.iter().map(|a| a.analyze_ms)),
            format!("n={} analysis phases", analyses.len()),
        ),
        metric(
            "mining.mine_types_ms",
            "ms",
            mean(regs.iter().map(|r| r.mine_ms)),
            format!("n={} registrations", regs.len()),
        ),
        metric(
            "mining.witnesses",
            "count",
            mean(regs.iter().map(|r| r.witnesses as f64)),
            "per registration",
        ),
        metric(
            "services.calls",
            "count",
            mean(analyses.iter().map(|a| a.call_us.len() as f64)),
            "per analysis phase",
        ),
        metric(
            "services.call_us.p50",
            "us",
            median(&call_us),
            format!("n={}", call_us.len()),
        ),
        metric(
            "ttn.build_ms",
            "ms",
            mean(regs.iter().map(|r| r.build_ms)),
            "per registration",
        ),
        metric(
            "ttn.transitions",
            "count",
            mean(regs.iter().map(|r| r.transitions as f64)),
            "per registration",
        ),
        metric(
            "analysis.lint_ms",
            "ms",
            mean(regs.iter().map(|r| r.lint_ms)),
            "per registration",
        ),
        metric(
            "analysis.reach_us.p50",
            "us",
            median(&qs.iter().map(|q| q.reach_us).collect::<Vec<_>>()),
            format!("n={}", qs.len()),
        ),
        metric(
            "analysis.dead_transitions",
            "count",
            per_query(&|q| q.dead_transitions as f64),
            "per query",
        ),
        metric("search.self_ms", "ms", self_ms(Layer::Search), "per query"),
        metric(
            "search.nodes",
            "count",
            per_query(&|q| q.search.nodes as f64),
            "per query",
        ),
        metric(
            "search.nodes_per_s",
            "1/s",
            ratio(sum(&|q| q.search.nodes as f64), search_s),
            "nodes / search self time",
        ),
        metric(
            "search.paths",
            "count",
            per_query(&|q| q.paths as f64),
            "per query",
        ),
        metric(
            "search.dead_hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
            "hits / (hits + misses)",
        ),
        metric(
            "search.dead_shared_frac",
            "ratio",
            ratio(sum(&|q| q.search.dead_shared_hits as f64), hits),
            "shared hits / hits",
        ),
        metric(
            "search.level_ms.last",
            "ms",
            per_query(&|q| q.level_ms.last().copied().unwrap_or(0.0)),
            "deepest level, per query",
        ),
        metric(
            "synth.progs_self_ms",
            "ms",
            self_ms(Layer::Progs),
            "per query",
        ),
        metric(
            "synth.programs",
            "count",
            per_query(&|q| q.programs as f64),
            "per query",
        ),
        metric(
            "synth.lift_self_ms",
            "ms",
            self_ms(Layer::Lift),
            "per query",
        ),
        metric(
            "synth.typecheck_self_ms",
            "ms",
            self_ms(Layer::TypeCheck),
            "per query",
        ),
        metric(
            "synth.ill_typed",
            "count",
            per_query(&|q| q.ill_typed as f64),
            "per query",
        ),
        metric(
            "synth.canon_dedup_self_ms",
            "ms",
            self_ms(Layer::Canon),
            "per query",
        ),
        metric(
            "synth.duplicates",
            "count",
            per_query(&|q| q.duplicates as f64),
            "per query",
        ),
        metric(
            "synth.yield",
            "ratio",
            ratio(candidates, programs),
            "candidates / programs",
        ),
        metric("re.self_ms", "ms", self_ms(Layer::Re), "per query"),
        metric(
            "re.cost_us.p50",
            "us",
            median(&re_us),
            format!("n={} candidates", re_us.len()),
        ),
        metric(
            "re.failed_round_frac",
            "ratio",
            ratio(
                sum(&|q| q.re_failed_rounds as f64),
                sum(&|q| q.re_rounds as f64),
            ),
            "failed / run rounds",
        ),
        metric(
            "serving.overhead_ms.p50",
            "ms",
            median(&overhead),
            "wire finish - traced query total",
        ),
        metric(
            "net.event_lag_ms.p50",
            "ms",
            median(&lags),
            format!("n={} candidate frames", lags.len()),
        ),
        metric(
            "jobs.queue_wait_ms.p50",
            "ms",
            hist("jobs.queue_us", "p50") / 1e3,
            "daemon histogram, bucket upper bound",
        ),
        metric(
            "catalog.analyze_ms",
            "ms",
            ratio(hist("catalog.analyze_us", "sum"), analyze_count) / 1e3,
            format!("daemon mean over {analyze_count} analyses"),
        ),
        metric(
            "net.frames_out",
            "count",
            counter("net.frames_out"),
            "daemon counter, whole daemon life",
        ),
        metric(
            "net.bytes_in.per_query",
            "B",
            ratio(bytes_in as f64, pairs.len() as f64),
            "bytes the clients received / query",
        ),
        metric(
            "trace.unattributed_ms.p50",
            "ms",
            median(&unattributed),
            "wire finish - sum of layer self times",
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            ratio(traced_total, untraced_total) - 1.0,
            "traced query totals / daemon total_ms - 1",
        ),
    ];
    let all: u64 = Layer::QUERY.iter().map(|&l| total(l)).sum();
    for layer in Layer::QUERY {
        let name = if layer == Layer::Query {
            "other"
        } else {
            layer.name()
        };
        out.push(metric(
            &format!("share.{name}"),
            "ratio",
            ratio(total(layer) as f64, all as f64),
            "share of traced query time",
        ));
    }
    out
}
