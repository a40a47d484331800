//! The daemon core: client-keyed serving state over one shared
//! [`JobRuntime`](apiphany_core::JobRuntime) — synthesis sessions as
//! `Search` jobs, analyze-once phases as `Analysis` jobs — plus the
//! stdio front end ([`run_daemon`]) that drives it for a single client.
//!
//! **No analysis (and no other blocking work) ever runs on the loop
//! thread.** A cold service's first query enqueues behind that service's
//! analysis job: when the job settles, its continuation submits the
//! session (on the settling worker, before the pool picks its next job),
//! so warm queries keep streaming — by construction, not by luck — while
//! a large service mines. The loop observes analysis jobs and reports
//! their transitions as `analysis_started` / `analysis_ready` /
//! `analysis_failed` events.
//!
//! All per-query state lives in one table, a [`BTreeMap`] keyed by
//! [`QKey`] — a client id plus the client's own query id — so many
//! connections can serve overlapping id namespaces from one daemon. Every
//! per-query operation is a lookup or a per-client range scan of that
//! table: a dropped connection cancels exactly its own work
//! ([`Daemon::drop_client`]), and the session pump sweeps the table
//! round-robin from the key it served last. The stdio front end is the
//! one-client special case (client 0); the socket front end in
//! [`crate::netd`] drives the same core for many.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Write};
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::time::Duration;

use apiphany_core::{
    Budget, CatalogSubmission, Engine, EngineError, Event, FaultPlane, Job, JobRuntime, JobState,
    QuerySpec, RetryPolicy, Scheduler, ServiceCatalog, ServiceLookup, Session, Telemetry,
};
use apiphany_json::Value;

use crate::proto::{
    analysis_failed_value, analysis_ready_value, analysis_started_value, cancelled_finished_value,
    coded_error_response, error_event, error_response, event_value, job_value, lint_fields,
    ok_response, service_info_value, Request, RegisterSource,
    CODE_PARSE_ERROR,
};

/// Configuration of one daemon run.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Concurrent job slots (the runtime's pool size, shared by search
    /// and analysis jobs; analysis occupies at most `max(1, slots - 1)`).
    pub slots: usize,
    /// Artifact cache directory for the catalog (analyses persist across
    /// daemon restarts).
    pub cache_dir: Option<PathBuf>,
    /// How transient analysis failures are retried (attempt count and
    /// backoff base).
    pub retry: RetryPolicy,
    /// The fault-injection plane wired into the catalog's analysis jobs
    /// and the scheduler's search workers. Disabled by default (a no-op
    /// in production).
    pub fault: FaultPlane,
    /// The observability plane (metrics registry + flight recorder)
    /// every subsystem reports into; the `metrics` and `dump-recorder`
    /// ops read it back. Enabled by default — its hot-path cost is a few
    /// relaxed atomics per job transition.
    pub telemetry: Telemetry,
}

impl Default for DaemonOptions {
    fn default() -> DaemonOptions {
        DaemonOptions {
            slots: 2,
            cache_dir: None,
            retry: RetryPolicy::default(),
            fault: FaultPlane::disabled(),
            telemetry: Telemetry::enabled(),
        }
    }
}

/// What a finished daemon run processed (returned for tests and logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Request lines/frames handled (including malformed ones).
    pub requests: usize,
    /// Session and analysis events streamed out.
    pub events: usize,
}

/// The identity of one in-flight query: which connection asked, and the
/// id that connection chose. Clients own independent id namespaces — two
/// connections can both run a query called `q1`. Ordered by client
/// first, so one client's queries form a contiguous range of the table.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct QKey {
    client: u64,
    id: String,
}

impl QKey {
    fn new(client: u64, id: impl Into<String>) -> QKey {
        QKey { client, id: id.into() }
    }
}

/// One in-flight query: its reporting cap and where it stands.
struct QueryEntry {
    top_k: Option<usize>,
    state: QueryState,
}

enum QueryState {
    /// Queued behind its service's analysis job; the job's continuation
    /// delivers the session.
    Waiting,
    /// Streaming from a live session.
    Live(Session),
}

/// Where protocol lines go: the stdio loop writes every client-0 line to
/// its one output; the socket loop routes each line to its client's
/// connection (and drops lines addressed to a client that is gone).
pub(crate) trait Sink {
    /// Writes one protocol line for `client`.
    ///
    /// # Errors
    ///
    /// Implementations return an error only for conditions fatal to the
    /// whole serving loop (stdio output gone); a single client's dead
    /// connection is not one.
    fn emit(&mut self, client: u64, value: &Value) -> std::io::Result<()>;
}

/// The stdio sink: one output stream, one implicit client.
pub(crate) struct LineSink<'a, W: Write>(pub(crate) &'a mut W);

impl<W: Write> Sink for LineSink<'_, W> {
    fn emit(&mut self, _client: u64, value: &Value) -> std::io::Result<()> {
        write_line(self.0, value)
    }
}

/// An analysis job the loop reports transitions for, with the clients
/// subscribed to its lifecycle events.
struct Watch {
    service: String,
    job: Job<Engine>,
    last: JobState,
    subscribers: Vec<u64>,
}

/// Per-service accumulated search cost across finished queries (the
/// `inspect` reply's `search` block — the dead-set counters the paper's
/// §5.2 pruning ablation reads).
#[derive(Debug, Clone, Copy, Default)]
struct SearchTotals {
    queries: u64,
    nodes: u64,
    dead_hits: u64,
    dead_shared_hits: u64,
    dead_misses: u64,
    dead_evicted: u64,
}

/// Per-client occupancy: how much of the daemon a client is using (the
/// admission-control input, and the `status` reply's `clients` block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Occupancy {
    /// Live (session-backed) queries.
    pub(crate) live: usize,
    /// Queries still queued behind their service's analysis.
    pub(crate) waiting: usize,
}

impl Occupancy {
    fn count(&mut self, entry: &QueryEntry) {
        match entry.state {
            QueryState::Live(_) => self.live += 1,
            QueryState::Waiting => self.waiting += 1,
        }
    }
}

/// The daemon core: the catalog and the scheduler share one
/// [`JobRuntime`](apiphany_core::JobRuntime), so analysis and search
/// schedule through the same two-lane pool; every in-flight query is one
/// entry of the `queries` table.
pub(crate) struct Daemon {
    // Fields drop in declaration order. The sessions in `queries` and
    // `done_rx` (a late delivery for a cancelled query can sit there when
    // the loop exits) must drop before the runtime handles in `catalog`
    // and `scheduler`: the last handle joins the pool's workers, and a
    // search worker stays blocked on its session's rendezvous send until
    // that session drops.
    /// Every acked query that has not had its terminal event yet.
    queries: BTreeMap<QKey, QueryEntry>,
    /// Hands sessions from analysis-job continuations to the loop.
    done_rx: Receiver<Delivery>,
    done_tx: Sender<Delivery>,
    /// The key the session pump served last; the next sweep starts after
    /// it, so ready sessions take turns.
    cursor: Option<QKey>,
    catalog: ServiceCatalog,
    scheduler: Scheduler,
    /// Analysis jobs being reported to clients.
    watchers: Vec<Watch>,
    /// The observability plane (shared with the runtime, catalog, and
    /// fault plane); the `metrics`/`dump-recorder` ops read it.
    telemetry: Telemetry,
    /// Accumulated search cost per service, from finished queries.
    search_totals: HashMap<String, SearchTotals>,
    pub(crate) summary: DaemonSummary,
}

/// What an analysis-job continuation delivers back to the loop.
type Delivery = (QKey, Result<Session, EngineError>);

/// Server policy on what a wire query may claim: its search team never
/// outgrows the daemon's slot count, and its wall clock never exceeds the
/// default budget's (an absent limit, `null` on the wire, gets that
/// default). Streams are bit-identical at every thread count.
fn admit(spec: &mut QuerySpec, slots: usize) {
    spec.threads = spec.threads.min(slots);
    let cap = Budget::default().wall_clock.expect("the default budget has a wall clock");
    spec.budget.wall_clock = Some(spec.budget.wall_clock.map_or(cap, |limit| limit.min(cap)));
}

/// Runs the daemon over a request stream and a response sink until the
/// input is exhausted (or a `shutdown` request arrives) *and* every open
/// session has drained and every watched analysis job has settled. Each
/// input line is handled in order; session events interleave between
/// request handling, tagged with their query id, round-robin across
/// concurrent queries.
///
/// The query ack is written when the request is accepted — for a cold
/// service it carries the name of the analysis the query is queued
/// behind — and always precedes the query's first event. Every acked
/// query id receives exactly one terminal line: a `finished` event, an
/// `error` event, or (for a query cancelled while still queued behind an
/// analysis) an empty cancelled `finished`.
///
/// A line that is not valid JSON (including invalid UTF-8 bytes) costs a
/// structured `parse_error` response, never the loop: the reader
/// re-synchronizes at the next newline.
///
/// `shutdown` cancels queued jobs promptly, drains running ones, and
/// emits terminal events for every in-flight id before the loop exits.
///
/// # Errors
///
/// Returns the first I/O error of the response sink. (Input errors end
/// the request stream like a clean EOF.)
pub fn run_daemon<R, W>(
    input: R,
    output: &mut W,
    opts: &DaemonOptions,
) -> std::io::Result<DaemonSummary>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    const CLIENT: u64 = 0;
    let mut daemon = Daemon::new(opts);
    let mut sink = LineSink(output);

    // The reader thread turns the blocking input into a pollable channel,
    // so one slow/absent request line never stalls event pumping. It
    // reads raw bytes per line: a line of invalid UTF-8 must reach the
    // parser (to earn its parse_error reply), not kill the reader.
    let (req_tx, req_rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        let mut input = input;
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match input.read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let line = String::from_utf8_lossy(&buf).trim_end().to_string();
                    if req_tx.send(line).is_err() {
                        break;
                    }
                }
            }
        }
    });

    let mut closing = false; // no more requests (EOF or shutdown)
    loop {
        let mut progressed = false;
        if !closing {
            match req_rx.try_recv() {
                Ok(line) => {
                    progressed = true;
                    if line.trim().is_empty() {
                        // Blank lines are keep-alives; ignore.
                    } else {
                        daemon.summary.requests += 1;
                        let responses = match Request::parse(&line) {
                            Err(message) => {
                                vec![coded_error_response(
                                    None,
                                    None,
                                    CODE_PARSE_ERROR,
                                    &message,
                                )]
                            }
                            Ok(Request::Shutdown) => {
                                closing = true;
                                let mut lines = vec![ok_response("shutdown", [])];
                                lines.extend(
                                    daemon.cancel_all().into_iter().map(|(_, v)| v),
                                );
                                lines
                            }
                            Ok(request) => daemon.handle(CLIENT, request),
                        };
                        for response in responses {
                            sink.emit(CLIENT, &response)?;
                        }
                    }
                }
                Err(TryRecvError::Disconnected) => closing = true,
                Err(TryRecvError::Empty) => {}
            }
        }
        progressed |= daemon.pump(&mut sink)?;
        if closing && daemon.is_idle() {
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    drop(req_rx); // unblocks a reader parked in send
    if reader.is_finished() {
        let _ = reader.join();
    }
    // A reader still parked in a blocking read (shutdown op with the
    // input left open) is detached: it exits on the next line or EOF,
    // and its send fails harmlessly. Joining it here would hang the
    // documented `shutdown` op until the client closed its pipe.
    sink.0.flush()?;
    Ok(daemon.summary)
}

impl Daemon {
    /// A fresh daemon core.
    pub(crate) fn new(opts: &DaemonOptions) -> Daemon {
        let runtime = JobRuntime::new(opts.slots).with_telemetry(opts.telemetry.clone());
        opts.fault.set_telemetry(opts.telemetry.clone());
        let scheduler = Scheduler::with_runtime(runtime).with_fault(opts.fault.clone());
        let catalog = {
            let mut catalog = ServiceCatalog::new()
                .with_runtime(scheduler.runtime().clone())
                .with_retry(opts.retry)
                .with_fault(opts.fault.clone());
            if let Some(dir) = &opts.cache_dir {
                catalog = catalog.with_cache_dir(dir);
            }
            catalog
        };
        let (done_tx, done_rx) = mpsc::channel::<Delivery>();
        Daemon {
            queries: BTreeMap::new(),
            done_rx,
            done_tx,
            cursor: None,
            catalog,
            scheduler,
            watchers: Vec::new(),
            telemetry: opts.telemetry.clone(),
            search_totals: HashMap::new(),
            summary: DaemonSummary { requests: 0, events: 0 },
        }
    }

    /// Whether every stream has drained: no in-flight queries and no
    /// watched analysis jobs. The exit condition of every serving loop.
    pub(crate) fn is_idle(&self) -> bool {
        self.queries.is_empty() && self.watchers.is_empty()
    }

    /// One client's in-flight queries, in id order.
    fn client_queries(&self, client: u64) -> impl Iterator<Item = (&QKey, &QueryEntry)> {
        self.queries
            .range(QKey::new(client, "")..)
            .take_while(move |(key, _)| key.client == client)
    }

    /// The global queued-search backlog (the socket loop's high-water
    /// admission input).
    pub(crate) fn queued_search(&self) -> usize {
        self.scheduler.runtime().stats().queued_search
    }

    /// The daemon's observability plane (the socket front end records
    /// transport counters and admission decisions into it).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// How much of the daemon one client is using.
    pub(crate) fn occupancy(&self, client: u64) -> Occupancy {
        let mut occupancy = Occupancy::default();
        for (_, entry) in self.client_queries(client) {
            occupancy.count(entry);
        }
        occupancy
    }

    /// Handles one well-formed, non-shutdown request from `client`,
    /// returning the response lines to write to that client. Nothing here
    /// blocks: cold-service queries are chained onto their analysis job,
    /// registrations with `prewarm` start the job and return.
    pub(crate) fn handle(&mut self, client: u64, request: Request) -> Vec<Value> {
        let op = request.op();
        match request {
            Request::Register { service, source, prewarm } => {
                let registered = match source {
                    RegisterSource::Builtin(name) => match crate::builtin(&name) {
                        None => Err(format!(
                            "unknown builtin '{name}' (available: {})",
                            crate::BUILTIN_NAMES.join(", ")
                        )),
                        Some((library, witnesses)) => self
                            .catalog
                            .register_spec(&service, library, witnesses)
                            .map_err(|e| e.to_string()),
                    },
                    RegisterSource::Artifact(artifact) => self
                        .catalog
                        .register_artifact(&service, *artifact)
                        .map_err(|e| e.to_string()),
                    RegisterSource::ArtifactPath(path) => std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))
                        .and_then(|text| {
                            apiphany_core::AnalysisArtifact::from_json(&text)
                                .map_err(|e| format!("{}: {e}", path.display()))
                        })
                        .and_then(|artifact| {
                            self.catalog
                                .register_artifact(&service, artifact)
                                .map_err(|e| e.to_string())
                        }),
                    RegisterSource::Spec { library, witnesses } => self
                        .catalog
                        .register_spec(&service, *library, witnesses)
                        .map_err(|e| e.to_string()),
                };
                match registered {
                    Err(message) => vec![error_response(Some(op), None, &message)],
                    Ok(()) => {
                        let mut fields = Vec::new();
                        if prewarm {
                            match self.catalog.prewarm(&service) {
                                // Registration succeeded either way; a
                                // prewarm failure would need an already
                                // concurrently-evicted name.
                                Err(_) => {}
                                Ok(job) => {
                                    fields.push((
                                        "job",
                                        job_value(job.id(), job.kind(), &job.state()),
                                    ));
                                    self.watch(client, &service, job);
                                }
                            }
                        }
                        let info = self.catalog.inspect(&service).expect("just registered");
                        fields.insert(0, ("service", service_info_value(&info)));
                        vec![ok_response(op, fields)]
                    }
                }
            }
            Request::Query { id, mut spec } => {
                admit(&mut spec, self.scheduler.slots());
                let key = QKey::new(client, id.clone());
                if self.queries.contains_key(&key) {
                    return vec![error_response(
                        Some(op),
                        Some(&id),
                        &format!("query id '{id}' is already in use"),
                    )];
                }
                let done_tx = self.done_tx.clone();
                let deliver_key = key.clone();
                let submission = self.scheduler.submit_catalog_async(
                    &self.catalog,
                    &spec,
                    move |result| {
                        let _ = done_tx.send((deliver_key, result));
                    },
                );
                let (state, ack) = match submission {
                    Err(e) => return vec![error_response(Some(op), Some(&id), &e.to_string())],
                    Ok(CatalogSubmission::Started(session)) => (
                        QueryState::Live(session),
                        ok_response(op, [("id", Value::from(id.as_str()))]),
                    ),
                    Ok(CatalogSubmission::Pending(job)) => {
                        let service = job.label().to_string();
                        let ack = ok_response(
                            op,
                            [
                                ("id", Value::from(id.as_str())),
                                ("analysis", Value::from(service.as_str())),
                            ],
                        );
                        self.watch(client, &service, job);
                        (QueryState::Waiting, ack)
                    }
                };
                self.queries.insert(key, QueryEntry { top_k: spec.top_k, state });
                vec![ack]
            }
            Request::Cancel { id } => {
                let key = QKey::new(client, id.clone());
                let found = self.queries.contains_key(&key);
                let mut lines = vec![ok_response(
                    op,
                    [("id", Value::from(id.as_str())), ("active", Value::Bool(found))],
                )];
                match self.queries.get(&key).map(|entry| &entry.state) {
                    // A cancelled running session still streams its
                    // Finished event.
                    Some(QueryState::Live(session)) => session.cancel(),
                    // Still queued behind an analysis: terminate promptly
                    // with an empty cancelled finish; the continuation's
                    // late delivery is discarded on arrival.
                    Some(QueryState::Waiting) => {
                        self.queries.remove(&key);
                        self.summary.events += 1;
                        lines.push(cancelled_finished_value(&id));
                    }
                    None => {}
                }
                lines
            }
            Request::List => {
                let services: Vec<Value> =
                    self.catalog.list().iter().map(service_info_value).collect();
                vec![ok_response(op, [("services", Value::Array(services))])]
            }
            Request::Inspect { service } => match self.catalog.inspect(&service) {
                None => vec![error_response(
                    Some(op),
                    None,
                    &format!("unknown service '{service}'"),
                )],
                Some(info) => {
                    let mut fields = vec![("service", service_info_value(&info))];
                    if let Some(t) = self.search_totals.get(&service) {
                        fields.push((
                            "search",
                            Value::obj([
                                ("queries", Value::Int(t.queries.min(i64::MAX as u64) as i64)),
                                ("nodes", Value::Int(t.nodes.min(i64::MAX as u64) as i64)),
                                (
                                    "dead_hits",
                                    Value::Int(t.dead_hits.min(i64::MAX as u64) as i64),
                                ),
                                (
                                    "dead_shared_hits",
                                    Value::Int(t.dead_shared_hits.min(i64::MAX as u64) as i64),
                                ),
                                (
                                    "dead_misses",
                                    Value::Int(t.dead_misses.min(i64::MAX as u64) as i64),
                                ),
                                (
                                    "dead_evicted",
                                    Value::Int(t.dead_evicted.min(i64::MAX as u64) as i64),
                                ),
                            ]),
                        ));
                    }
                    vec![ok_response(op, fields)]
                }
            },
            Request::Lint { service } => match self.catalog.lookup(&service) {
                Err(e) => vec![error_response(Some(op), None, &e.to_string())],
                // Warm: the engine computed its diagnostics at analysis
                // time — answer inline, nothing blocks.
                Ok(ServiceLookup::Ready(engine)) => {
                    vec![ok_response(op, lint_fields(&service, engine.diagnostics()))]
                }
                // Cold: the lookup claimed the entry and started (or
                // joined) the analysis job. Report it as pending — the
                // client re-asks after the `analysis_ready` event.
                Ok(ServiceLookup::Pending(job)) => {
                    let ack = ok_response(
                        op,
                        [
                            ("service", Value::from(service.as_str())),
                            ("pending", Value::Bool(true)),
                            ("job", job_value(job.id(), job.kind(), &job.state())),
                        ],
                    );
                    self.watch(client, &service, job);
                    vec![ack]
                }
            },
            Request::Evict { service } => {
                let removed = self.catalog.evict(&service);
                vec![ok_response(
                    op,
                    [
                        ("service", Value::from(service.as_str())),
                        ("removed", Value::Bool(removed)),
                    ],
                )]
            }
            Request::Status => vec![self.status(client)],
            Request::Metrics => {
                vec![ok_response(op, [("metrics", self.telemetry.snapshot_value())])]
            }
            Request::DumpRecorder => {
                vec![ok_response(op, [("events", self.telemetry.recorder_dump_value())])]
            }
            Request::Shutdown => unreachable!("handled by the serving loop"),
        }
    }

    /// The `status` reply for `client`: runtime occupancy with a
    /// per-lane breakdown, per-service state (with any live analysis
    /// job), the *requesting client's* in-flight query ids with their
    /// states, and every client's occupancy.
    fn status(&self, client: u64) -> Value {
        let stats = self.scheduler.runtime().stats();
        let search_running = stats.running - stats.analysis_running;
        let runtime = Value::obj([
            ("slots", Value::Int(stats.slots as i64)),
            ("queued_search", Value::Int(stats.queued_search as i64)),
            ("queued_analysis", Value::Int(stats.queued_analysis as i64)),
            ("running", Value::Int(stats.running as i64)),
            ("analysis_running", Value::Int(stats.analysis_running as i64)),
            ("analysis_retries", Value::Int(stats.analysis_retries.min(i64::MAX as u64) as i64)),
        ]);
        let lanes = Value::obj([
            (
                "search",
                Value::obj([
                    ("queued", Value::Int(stats.queued_search as i64)),
                    ("running", Value::Int(search_running as i64)),
                    ("cap", Value::Int(stats.slots as i64)),
                ]),
            ),
            (
                "analysis",
                Value::obj([
                    ("queued", Value::Int(stats.queued_analysis as i64)),
                    ("running", Value::Int(stats.analysis_running as i64)),
                    ("cap", Value::Int(stats.analysis_cap as i64)),
                ]),
            ),
        ]);
        let services: Vec<Value> =
            self.catalog.list().iter().map(service_info_value).collect();
        let queries: Vec<Value> = self
            .client_queries(client)
            .map(|(key, entry)| {
                let state = match &entry.state {
                    QueryState::Waiting => "waiting_analysis",
                    QueryState::Live(session) => {
                        session.job_state().map_or("running", |s| match s {
                            JobState::Queued => "queued",
                            JobState::Running => "running",
                            // Terminal but not yet drained by the client.
                            _ => "draining",
                        })
                    }
                };
                Value::obj([("id", Value::from(key.id.as_str())), ("state", Value::from(state))])
            })
            .collect();
        let mut by_client: BTreeMap<u64, Occupancy> = BTreeMap::new();
        for (key, entry) in &self.queries {
            by_client.entry(key.client).or_default().count(entry);
        }
        let clients: Vec<Value> = by_client
            .into_iter()
            .map(|(id, occ)| {
                Value::obj([
                    ("client", Value::Int(id as i64)),
                    ("live", Value::Int(occ.live as i64)),
                    ("waiting", Value::Int(occ.waiting as i64)),
                ])
            })
            .collect();
        ok_response(
            "status",
            [
                ("runtime", runtime),
                ("lanes", lanes),
                ("services", Value::Array(services)),
                ("queries", Value::Array(queries)),
                ("clients", Value::Array(clients)),
            ],
        )
    }

    /// Starts reporting an analysis job to `client` (deduplicated by job
    /// id — many queries, and many clients, can queue behind one job).
    fn watch(&mut self, client: u64, service: &str, job: Job<Engine>) {
        if let Some(watch) = self.watchers.iter_mut().find(|w| w.job.id() == job.id()) {
            if !watch.subscribers.contains(&client) {
                watch.subscribers.push(client);
            }
            return;
        }
        self.watchers.push(Watch {
            service: service.to_string(),
            job,
            last: JobState::Queued,
            subscribers: vec![client],
        });
    }

    /// One serving step after request handling: installs a session an
    /// analysis-job continuation delivered, reports analysis transitions,
    /// and streams one session event. Both front ends call it once per
    /// loop iteration. Returns whether anything happened.
    pub(crate) fn pump(&mut self, sink: &mut impl Sink) -> std::io::Result<bool> {
        let mut progressed = false;
        if let Ok((key, submitted)) = self.done_rx.try_recv() {
            progressed = true;
            self.install_submission(sink, key, submitted)?;
        }
        progressed |= self.pump_watchers(sink)?;
        progressed |= self.pump_sessions(sink)?;
        Ok(progressed)
    }

    /// A session (or submission error) delivered by an analysis-job
    /// continuation: install it, or report the terminal error. Deliveries
    /// for keys no longer waiting (cancelled in the meantime) are
    /// discarded.
    fn install_submission(
        &mut self,
        sink: &mut impl Sink,
        key: QKey,
        submitted: Result<Session, EngineError>,
    ) -> std::io::Result<()> {
        let entry = match self.queries.get_mut(&key) {
            Some(entry) if matches!(entry.state, QueryState::Waiting) => entry,
            // Cancelled (or shut down / disconnected) while waiting: the
            // terminal event was already handled; reap the session.
            _ => {
                if let Ok(session) = submitted {
                    session.cancel();
                }
                return Ok(());
            }
        };
        match submitted {
            Err(e) => {
                self.queries.remove(&key);
                self.summary.events += 1;
                sink.emit(key.client, &error_event(&key.id, &e.to_string()))
            }
            Ok(session) => {
                entry.state = QueryState::Live(session);
                Ok(())
            }
        }
    }

    /// Reports analysis-job transitions as `analysis_*` events to every
    /// subscribed client; settles and drops watchers whose job reached a
    /// terminal state. Returns whether anything was written.
    fn pump_watchers(&mut self, sink: &mut impl Sink) -> std::io::Result<bool> {
        let mut lines: Vec<(Vec<u64>, Value)> = Vec::new();
        let Daemon { watchers, catalog, .. } = self;
        watchers.retain_mut(|w| {
            let state = w.job.state();
            if state == w.last {
                return true;
            }
            if state == JobState::Running {
                lines.push((
                    w.subscribers.clone(),
                    analysis_started_value(&w.service, w.job.id()),
                ));
                w.last = state;
                return true;
            }
            // Terminal. A job observed Queued → Done/Failed ran without
            // the loop seeing it start; emit the start first so clients
            // always see a consistent pair.
            if w.last == JobState::Queued && !matches!(state, JobState::Cancelled) {
                lines.push((
                    w.subscribers.clone(),
                    analysis_started_value(&w.service, w.job.id()),
                ));
            }
            match &state {
                JobState::Done => {
                    let info = catalog.inspect(&w.service);
                    lines.push((
                        w.subscribers.clone(),
                        analysis_ready_value(&w.service, w.job.id(), info.as_ref()),
                    ));
                }
                JobState::Failed(msg) => {
                    lines.push((
                        w.subscribers.clone(),
                        analysis_failed_value(&w.service, w.job.id(), msg),
                    ));
                }
                JobState::Cancelled => {
                    lines.push((
                        w.subscribers.clone(),
                        analysis_failed_value(&w.service, w.job.id(), "analysis cancelled"),
                    ));
                }
                JobState::Queued | JobState::Running => unreachable!("terminal state"),
            }
            false
        });
        let progressed = !lines.is_empty();
        for (subscribers, line) in lines {
            self.summary.events += 1;
            for client in subscribers {
                sink.emit(client, &line)?;
            }
        }
        Ok(progressed)
    }

    /// One round-robin sweep over live sessions, starting after the key
    /// served last: streams the first ready event, or closes out a query
    /// whose worker died without a `Finished` event. Returns whether
    /// anything was written.
    fn pump_sessions(&mut self, sink: &mut impl Sink) -> std::io::Result<bool> {
        let polled = match &self.cursor {
            None => poll_first(self.queries.iter_mut()),
            Some(last) => {
                poll_first(self.queries.range_mut((Bound::Excluded(last), Bound::Unbounded)))
                    .or_else(|| poll_first(self.queries.range_mut(..=last)))
            }
        };
        let Some((key, event)) = polled else {
            return Ok(false);
        };
        self.cursor = Some(key.clone());
        self.summary.events += 1;
        let Some(event) = event else {
            // The worker died without a Finished event (a panic): close
            // the query out with the settled job's structured reason so
            // the client stops waiting and the key frees up.
            let entry = self.queries.remove(&key).expect("polled key is in the table");
            let message = match job_of(&entry).map(Job::state) {
                Some(JobState::Failed(reason)) => format!("search worker panicked: {reason}"),
                _ => "session worker terminated unexpectedly".to_string(),
            };
            return sink.emit(key.client, &error_event(&key.id, &message)).map(|()| true);
        };
        let top_k = self.queries[&key].top_k;
        sink.emit(key.client, &event_value(&key.id, &event, top_k))?;
        if let Event::Finished(result) = &event {
            let entry = self.queries.remove(&key).expect("polled key is in the table");
            // Fold the query's search cost into its service's `inspect`
            // accumulation (the search job's label is the service name).
            let service = job_of(&entry).map_or("", Job::label);
            if !service.is_empty() {
                let t = self.search_totals.entry(service.to_string()).or_default();
                t.queries += 1;
                t.nodes += result.stats.search.nodes;
                t.dead_hits += result.stats.search.dead_hits;
                t.dead_shared_hits += result.stats.search.dead_shared_hits;
                t.dead_misses += result.stats.search.dead_misses;
                t.dead_evicted += result.stats.search.dead_evicted;
            }
        }
        Ok(true)
    }

    /// Cancels everything: every running session, every watched analysis
    /// job (queued ones settle as prompt no-ops), and every
    /// analysis-queued query — the latter terminate immediately with the
    /// returned client-tagged empty cancelled finishes. The loop then
    /// drains: running sessions stream out their cancelled `Finished`,
    /// running analyses complete and report, and the process exits only
    /// when every in-flight key has had its terminal event.
    pub(crate) fn cancel_all(&mut self) -> Vec<(u64, Value)> {
        for w in &self.watchers {
            w.job.cancel();
        }
        let mut lines = Vec::new();
        self.queries.retain(|key, entry| match &entry.state {
            QueryState::Live(session) => {
                session.cancel();
                true
            }
            QueryState::Waiting => {
                lines.push((key.client, cancelled_finished_value(&key.id)));
                false
            }
        });
        self.summary.events += lines.len();
        lines
    }

    /// A client's connection is gone: cancel exactly that client's
    /// running sessions, discard its analysis-queued queries, and
    /// unsubscribe it from analysis watches. Other clients' work —
    /// including shared analysis jobs — is untouched.
    pub(crate) fn drop_client(&mut self, client: u64) {
        let mut waiting = Vec::new();
        for (key, entry) in self.client_queries(client) {
            match &entry.state {
                QueryState::Live(session) => session.cancel(),
                QueryState::Waiting => waiting.push(key.clone()),
            }
        }
        for key in waiting {
            self.queries.remove(&key);
        }
        for w in &mut self.watchers {
            w.subscribers.retain(|&c| c != client);
        }
        // A watch every subscriber abandoned still has to settle before
        // the daemon can exit, but nobody needs its events; keep it so
        // `is_idle` stays honest. The cancelled sessions drain through
        // `pump_sessions` (their events go to a gone client — the socket
        // sink drops them) and free their keys on `Finished`.
    }
}

/// The first entry of `entries` with a live session that has something
/// to report: `Some(event)` when it has an event ready, `None` when its
/// worker died without a `Finished` event. Never blocks.
fn poll_first<'a>(
    mut entries: impl Iterator<Item = (&'a QKey, &'a mut QueryEntry)>,
) -> Option<(QKey, Option<Event>)> {
    entries.find_map(|(key, entry)| {
        let QueryState::Live(session) = &mut entry.state else {
            return None;
        };
        match session.try_next() {
            Some(event) => Some((key.clone(), Some(event))),
            None if session.is_finished() => Some((key.clone(), None)),
            None => None,
        }
    })
}

/// The search job a live query's session runs as.
fn job_of(entry: &QueryEntry) -> Option<&Job<()>> {
    match &entry.state {
        QueryState::Live(session) => session.job(),
        QueryState::Waiting => None,
    }
}

pub(crate) fn write_line(output: &mut impl Write, value: &Value) -> std::io::Result<()> {
    let mut line = value.to_json();
    debug_assert!(!line.contains('\n'), "response must be a single line");
    line.push('\n');
    output.write_all(line.as_bytes())?;
    output.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wire query can claim neither more search threads than the
    /// daemon has slots nor more wall-clock time than the default budget.
    #[test]
    fn admission_caps_threads_and_wall_clock() {
        let cap = Budget::default().wall_clock;
        let admitted = |wall_clock_ms: &str| {
            let line = format!(
                r#"{{"op":"query","id":"q","service":"s","output":"[C]","threads":64,"budget":{{"wall_clock_ms":{wall_clock_ms}}}}}"#
            );
            let Ok(Request::Query { mut spec, .. }) = Request::parse(&line) else {
                panic!("not a query: {line}");
            };
            admit(&mut spec, 2);
            assert_eq!(spec.threads, 2);
            spec.budget.wall_clock
        };
        assert_eq!(admitted("null"), cap, "no limit gets the default");
        assert_eq!(admitted("9000000000000"), cap, "a huge limit is capped");
        assert_eq!(admitted("1500"), Some(Duration::from_millis(1500)), "a normal limit stays");
    }
}
