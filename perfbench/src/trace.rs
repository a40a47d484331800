//! The traced run: replays a client's exact operation sequence by
//! calling each layer's public functions from here, nested the way
//! `Synthesizer::synthesize` and the engine session nest them, with a
//! span around every call.
//!
//! Spans (name, start, end, parent, query id) are kept in memory and
//! written out at the end; a layer's self time is its spans' duration
//! minus the part their child spans cover. Nothing inside the program is
//! instrumented.

use std::cell::RefCell;
use std::collections::HashSet;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use apiphany_repro::analysis::{lint_service, Reachability};
use apiphany_repro::benchmarks::{default_analyze_config, Api};
use apiphany_repro::core::Engine;
use apiphany_repro::json::Value;
use apiphany_repro::lang::anf::{canonicalize, AnfProgram};
use apiphany_repro::lang::compact;
use apiphany_repro::mining::{mine_types, parse_query, MiningConfig, Query, SemLib};
use apiphany_repro::re::{cost_of, CostParams, Ranker, ReContext};
use apiphany_repro::services::{Slack, Square, Stripe};
use apiphany_repro::spec::{CallError, Library, Service, Witness};
use apiphany_repro::synth::{enumerate_programs, lift, type_check};
use apiphany_repro::ttn::{
    build_ttn, enumerate_search, query_markings, Backend, BuildOptions, CancelToken, PlaceId,
    SearchConfig, SearchEvent, SearchStats, Ttn,
};

use crate::workload::{Op, QueryDef, ServiceKind, Workload};
use crate::Fnv;

/// The span names, one per layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Engine::analyze` against the sandbox (the paper's analysis phase).
    Analyze,
    /// One `Service::call` made by the analysis phase.
    ServiceCall,
    /// `mine_types` over the full witness set (what `register` runs).
    MineTypes,
    BuildTtn,
    Lint,
    /// One whole query; its self time is the replay's own glue.
    Query,
    /// `Reachability::compute` plus `prune`.
    Reach,
    /// `enumerate_search`, excluding the path callbacks below it.
    Search,
    /// `enumerate_programs` for one path.
    Progs,
    Lift,
    TypeCheck,
    /// `canonicalize` plus the dedup set.
    Canon,
    /// `re::cost_of` of one candidate.
    Re,
}

impl Layer {
    pub const ALL: [Layer; 13] = [
        Layer::Analyze,
        Layer::ServiceCall,
        Layer::MineTypes,
        Layer::BuildTtn,
        Layer::Lint,
        Layer::Query,
        Layer::Reach,
        Layer::Search,
        Layer::Progs,
        Layer::Lift,
        Layer::TypeCheck,
        Layer::Canon,
        Layer::Re,
    ];

    /// The layers a query's time is split into.
    pub const QUERY: [Layer; 8] = [
        Layer::Query,
        Layer::Reach,
        Layer::Search,
        Layer::Progs,
        Layer::Lift,
        Layer::TypeCheck,
        Layer::Canon,
        Layer::Re,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Analyze => "analyze",
            Layer::ServiceCall => "service_call",
            Layer::MineTypes => "mine_types",
            Layer::BuildTtn => "build_ttn",
            Layer::Lint => "lint",
            Layer::Query => "query",
            Layer::Reach => "reach",
            Layer::Search => "search",
            Layer::Progs => "progs",
            Layer::Lift => "lift",
            Layer::TypeCheck => "typecheck",
            Layer::Canon => "canon_dedup",
            Layer::Re => "re",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    /// Query (or registration) id the span belongs to.
    op: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    /// Time covered by direct children.
    child_ns: u64,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(origin: Instant, first_op: u32) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: first_op,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, layer: Layer) {
        let span = Span {
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            child_ns: 0,
        };
        self.open.push(self.spans.len() as u32);
        self.spans.push(span);
    }

    /// Closes the innermost span and returns its duration.
    fn exit(&mut self) -> Duration {
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter") as usize;
        self.spans[idx].end_ns = end;
        let dur = end - self.spans[idx].start_ns;
        if let Some(parent) = self.spans[idx].parent {
            self.spans[parent as usize].child_ns += dur;
        }
        Duration::from_nanos(dur)
    }

    fn next_op(&mut self) {
        self.op += 1;
    }

    /// Self time per layer of the spans of `op`, in ns.
    fn self_ns(&self, op: u32, from: usize) -> [u64; Layer::ALL.len()] {
        let mut out = [0u64; Layer::ALL.len()];
        for s in self.spans[from..].iter().filter(|s| s.op == op) {
            out[s.layer as usize] += (s.end_ns - s.start_ns) - s.child_ns;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `op  index  parent  name  start_ns  end_ns`.
    pub fn write(tracers: &[&Tracer], path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (t, tracer) in tracers.iter().enumerate() {
            for (i, s) in tracer.spans.iter().enumerate() {
                let parent = s.parent.map_or("-".to_string(), |p| format!("{t}.{p}"));
                writeln!(
                    out,
                    "{}\t{t}.{i}\t{parent}\t{}\t{}\t{}",
                    s.op,
                    s.layer.name(),
                    s.start_ns,
                    s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

/// A `Service` wrapper that puts a span around every call.
struct TracedService<'t, S> {
    inner: S,
    tracer: &'t RefCell<Tracer>,
    call_us: Vec<f64>,
}

impl<S: Service> Service for TracedService<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn library(&self) -> &Library {
        self.inner.library()
    }

    fn call(&mut self, method: &str, args: &[(String, Value)]) -> Result<Value, CallError> {
        self.tracer.borrow_mut().enter(Layer::ServiceCall);
        let out = self.inner.call(method, args);
        let d = self.tracer.borrow_mut().exit();
        self.call_us.push(d.as_secs_f64() * 1e6);
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// One traced analysis phase (scenario capture + `Engine::analyze`).
#[derive(Debug, Clone)]
pub struct AnalysisRecord {
    pub analyze_ms: f64,
    pub call_us: Vec<f64>,
}

/// One traced registration: the mining, TTN build and lint the daemon
/// runs for `register`.
#[derive(Debug, Clone)]
pub struct RegRecord {
    pub mine_ms: f64,
    pub build_ms: f64,
    pub lint_ms: f64,
    pub transitions: usize,
    pub witnesses: usize,
}

/// One replayed query.
#[derive(Debug, Clone)]
pub struct ReplayRecord {
    /// Index into the workload's queries.
    pub query: usize,
    pub digest: u64,
    pub n_candidates: usize,
    /// Top ten of the final ranking, as compact programs.
    pub ranked: Vec<String>,
    pub total_ms: f64,
    /// Self time per layer, indexed like `Layer::ALL`.
    pub self_ns: [u64; Layer::ALL.len()],
    pub search: SearchStats,
    pub paths: usize,
    pub programs: usize,
    pub ill_typed: usize,
    pub duplicates: usize,
    pub reach_us: f64,
    pub dead_transitions: usize,
    /// Wall time of each searched level, from its `DepthExhausted` event.
    pub level_ms: Vec<f64>,
    pub re_cost_us: Vec<f64>,
    pub re_failed_rounds: usize,
    pub re_rounds: usize,
}

/// A registered service as the replay holds it.
struct Served {
    witnesses: Vec<Witness>,
    semlib: SemLib,
    net: Ttn,
}

/// Runs the paper's analysis phase for `api` with every service call
/// traced (the same steps as `apiphany_benchmarks::prepare_api`).
fn traced_analysis(api: Api, tracer: &RefCell<Tracer>) -> (Library, Vec<Witness>, AnalysisRecord) {
    fn run<S: Service>(
        mut svc: TracedService<'_, S>,
        w0: Vec<Witness>,
    ) -> (Library, Vec<Witness>, AnalysisRecord) {
        svc.tracer.borrow_mut().enter(Layer::Analyze);
        let engine = Engine::analyze(
            &mut svc,
            &w0,
            &MiningConfig::default(),
            &default_analyze_config(),
            &BuildOptions::default(),
        );
        let d = svc.tracer.borrow_mut().exit();
        let witnesses = engine.witnesses().to_vec();
        let rec = AnalysisRecord {
            analyze_ms: d.as_secs_f64() * 1e3,
            call_us: svc.call_us,
        };
        (svc.inner.library().clone(), witnesses, rec)
    }
    match api {
        Api::Slack => {
            let mut inner = Slack::new();
            let w0 = inner.scenario();
            run(
                TracedService {
                    inner,
                    tracer,
                    call_us: Vec::new(),
                },
                w0,
            )
        }
        Api::Stripe => {
            let mut inner = Stripe::new();
            let w0 = inner.scenario();
            run(
                TracedService {
                    inner,
                    tracer,
                    call_us: Vec::new(),
                },
                w0,
            )
        }
        Api::Square => {
            let mut inner = Square::new();
            let w0 = inner.scenario();
            run(
                TracedService {
                    inner,
                    tracer,
                    call_us: Vec::new(),
                },
                w0,
            )
        }
    }
}

/// What `register` does with a library and witness set, traced.
fn traced_register(
    library: &Library,
    witnesses: Vec<Witness>,
    tracer: &RefCell<Tracer>,
) -> (Served, RegRecord) {
    let mut t = tracer.borrow_mut();
    t.enter(Layer::MineTypes);
    let semlib = mine_types(library, &witnesses, &MiningConfig::default());
    let mine = t.exit();
    t.enter(Layer::BuildTtn);
    let net = build_ttn(&semlib, &BuildOptions::default());
    let build = t.exit();
    t.enter(Layer::Lint);
    std::hint::black_box(lint_service(&semlib, &net));
    let lint = t.exit();
    let rec = RegRecord {
        mine_ms: mine.as_secs_f64() * 1e3,
        build_ms: build.as_secs_f64() * 1e3,
        lint_ms: lint.as_secs_f64() * 1e3,
        transitions: net.n_transitions(),
        witnesses: witnesses.len(),
    };
    (
        Served {
            witnesses,
            semlib,
            net,
        },
        rec,
    )
}

/// Everything one replayed client produced.
#[derive(Debug)]
pub struct ReplayLog {
    pub tracer: Tracer,
    pub analyses: Vec<AnalysisRecord>,
    pub registrations: Vec<RegRecord>,
    pub queries: Vec<ReplayRecord>,
}

/// Replays client `client`: its set-up (analysis phase and registration
/// of each service), then `passes` passes of exactly the ops the wire
/// client ran.
pub fn replay_client(
    workload: &Workload,
    seed: u64,
    client: usize,
    passes: usize,
    origin: Instant,
) -> ReplayLog {
    let tracer = RefCell::new(Tracer::new(origin, (client as u32) << 24));
    let mut analyses = Vec::new();
    let mut registrations = Vec::new();
    let mut queries = Vec::new();
    let mut inputs: Vec<(Library, Vec<Witness>)> = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    for &kind in &workload.services {
        let (library, witnesses) = match kind {
            ServiceKind::Api(api) => {
                let (library, witnesses, rec) = traced_analysis(api, &tracer);
                analyses.push(rec);
                (library, witnesses)
            }
            ServiceKind::Fig7 => crate::fig7_inputs(),
        };
        tracer.borrow_mut().next_op();
        let (s, rec) = traced_register(&library, witnesses.clone(), &tracer);
        registrations.push(rec);
        served.push(s);
        inputs.push((library, witnesses));
    }
    for pass in 0..passes {
        for op in workload.pass(seed, client, pass) {
            tracer.borrow_mut().next_op();
            match op {
                Op::Reregister(s) => {
                    let (library, witnesses) = &inputs[s];
                    let (fresh, rec) = traced_register(library, witnesses.clone(), &tracer);
                    served[s] = fresh;
                    registrations.push(rec);
                }
                Op::Query(q) => {
                    let s = &served[workload.service_of(q)];
                    queries.push(replay_query(s, &workload.queries[q], q, &tracer));
                }
            }
        }
    }
    ReplayLog {
        tracer: tracer.into_inner(),
        analyses,
        registrations,
        queries,
    }
}

/// One query, nested exactly as `Synthesizer::synthesize` nests the
/// layers, ranked as the engine session ranks (`re::cost_of` per
/// candidate, `Ranker` for the final order).
fn replay_query(
    served: &Served,
    def: &QueryDef,
    query_index: usize,
    tracer: &RefCell<Tracer>,
) -> ReplayRecord {
    let query: Query = parse_query(&served.semlib, &def.text).expect("workload query parses");
    let net = &served.net;
    let semlib = &served.semlib;
    let from = tracer.borrow().spans.len();
    let op = tracer.borrow().op;
    tracer.borrow_mut().enter(Layer::Query);
    let start = Instant::now();
    let mut rec = ReplayRecord {
        query: query_index,
        digest: Fnv::default().0,
        n_candidates: 0,
        ranked: Vec::new(),
        total_ms: 0.0,
        self_ns: [0; Layer::ALL.len()],
        search: SearchStats::default(),
        paths: 0,
        programs: 0,
        ill_typed: 0,
        duplicates: 0,
        reach_us: 0.0,
        dead_transitions: 0,
        level_ms: Vec::new(),
        re_cost_us: Vec::new(),
        re_failed_rounds: 0,
        re_rounds: 0,
    };
    let markings = query_markings(net, &query);
    let params: Option<Vec<(String, PlaceId)>> = query
        .params
        .iter()
        .map(|(n, t)| net.place_of(t).map(|p| (n.clone(), p)))
        .collect();
    if let (Some((init, fin)), Some(params)) = (markings, params) {
        tracer.borrow_mut().enter(Layer::Reach);
        let reach = Reachability::compute(net, params.iter().map(|&(_, p)| p));
        let out_place = net
            .place_of(&query.output)
            .expect("query_markings resolved it");
        let distance = reach.distance(out_place);
        rec.dead_transitions = reach.n_dead();
        let pruned = (distance.is_some() && reach.n_dead() > 0).then(|| reach.prune(net));
        rec.reach_us = tracer.borrow_mut().exit().as_secs_f64() * 1e6;
        if let Some(d) = distance {
            let search_net = pruned.as_ref().unwrap_or(net);
            run_search(
                served,
                semlib,
                search_net,
                &query,
                def,
                (init, fin),
                &params,
                d,
                start,
                tracer,
                &mut rec,
            );
        }
    }
    rec.total_ms = tracer.borrow_mut().exit().as_secs_f64() * 1e3;
    rec.self_ns = tracer.borrow().self_ns(op, from);
    rec
}

#[allow(clippy::too_many_arguments)]
fn run_search(
    served: &Served,
    semlib: &SemLib,
    net: &Ttn,
    query: &Query,
    def: &QueryDef,
    (init, fin): (apiphany_repro::ttn::Marking, apiphany_repro::ttn::Marking),
    params: &[(String, PlaceId)],
    distance: u32,
    start: Instant,
    tracer: &RefCell<Tracer>,
    rec: &mut ReplayRecord,
) {
    let ctx = ReContext::new(semlib, &served.witnesses);
    let cost_params = CostParams::default();
    let mut ranker: Ranker<String> = Ranker::new();
    let mut seen: HashSet<AnfProgram> = HashSet::new();
    let mut digest = Fnv::default();
    // The same search configuration the synthesizer derives from a
    // wire query's budget (150 s safety net, 60000-candidate cap).
    let deadline = Some(start + Duration::from_secs(150));
    let cfg = SearchConfig {
        max_len: def.depth,
        start_len: (distance as usize).max(1),
        max_paths: usize::MAX,
        deadline,
        backend: Backend::Dfs,
        threads: def.threads,
        dead_set_cap: SearchConfig::default().dead_set_cap,
        telemetry: Default::default(),
    };
    let mut level_start = Instant::now();
    let mut stopped = false;
    tracer.borrow_mut().enter(Layer::Search);
    let report = enumerate_search(net, &init, &fin, &cfg, &CancelToken::new(), &mut |event| {
        let path = match event {
            SearchEvent::Path(path) => path,
            SearchEvent::DepthExhausted { depth } => {
                if depth >= cfg.start_len {
                    rec.level_ms.push(level_start.elapsed().as_secs_f64() * 1e3);
                }
                level_start = Instant::now();
                return true;
            }
        };
        rec.paths += 1;
        tracer.borrow_mut().enter(Layer::Progs);
        let cont = enumerate_programs(net, path, params, 64, &mut |anf| {
            rec.programs += 1;
            let mut t = tracer.borrow_mut();
            t.enter(Layer::Lift);
            let lifted = lift(semlib, query, &anf);
            t.exit();
            let Ok(lifted) = lifted else {
                return true;
            };
            t.enter(Layer::TypeCheck);
            let typed = type_check(semlib, &lifted, query);
            t.exit();
            if typed.is_err() {
                rec.ill_typed += 1;
                return true;
            }
            t.enter(Layer::Canon);
            let fresh = seen.insert(canonicalize(&lifted));
            t.exit();
            if !fresh {
                rec.duplicates += 1;
                return true;
            }
            t.enter(Layer::Re);
            let cost = cost_of(&ctx, &lifted, query, &cost_params);
            let re = t.exit();
            drop(t);
            rec.re_cost_us.push(re.as_secs_f64() * 1e6);
            rec.re_failed_rounds += cost.n_failed;
            rec.re_rounds += cost_params.rounds;
            let index = rec.n_candidates;
            rec.n_candidates += 1;
            let shown = compact(&lifted).to_string();
            digest.add(&shown);
            ranker.insert(shown, index, cost);
            if rec.n_candidates >= 60_000 {
                stopped = true;
                return false;
            }
            true
        });
        tracer.borrow_mut().exit();
        cont && !stopped
    });
    tracer.borrow_mut().exit();
    rec.search = report.stats;
    rec.digest = digest.0;
    rec.ranked = ranker
        .into_entries()
        .into_iter()
        .take(10)
        .map(|e| e.item)
        .collect();
}
