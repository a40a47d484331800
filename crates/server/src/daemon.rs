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
//! Every piece of per-query state is keyed by [`QKey`] — a client id
//! plus the client's own query id — so many connections can serve
//! overlapping id namespaces from one daemon, and a dropped connection
//! cancels exactly its own work ([`Daemon::drop_client`], backed by the
//! core's [`CancelScopes`]). The stdio front end is the one-client
//! special case (client 0); the socket front end in [`crate::netd`]
//! drives the same core for many.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::time::Duration;

use apiphany_core::{
    CancelScopes, CatalogSubmission, Engine, EngineError, Event, FaultPlane, Job, JobRuntime,
    JobState, Multiplexer, RetryPolicy, Scheduler, ScopeTicket, ServiceCatalog, ServiceLookup,
    Session, Telemetry,
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
/// connections can both run a query called `q1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct QKey {
    pub(crate) client: u64,
    pub(crate) id: String,
}

impl QKey {
    pub(crate) fn new(client: u64, id: impl Into<String>) -> QKey {
        QKey { client, id: id.into() }
    }
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

/// The daemon core: the catalog and the scheduler share one
/// [`JobRuntime`](apiphany_core::JobRuntime), so analysis and search
/// schedule through the same two-lane pool; every per-query map is keyed
/// by [`QKey`].
pub(crate) struct Daemon {
    catalog: ServiceCatalog,
    scheduler: Scheduler,
    mux: Multiplexer<QKey>,
    /// Reporting caps of *live* (session-backed) queries; together with
    /// `pending` this is the in-use key set.
    top_k: HashMap<QKey, Option<usize>>,
    /// Queries queued behind their service's analysis job (value = the
    /// spec's reporting cap, installed once the session arrives).
    pending: HashMap<QKey, Option<usize>>,
    /// Live queries' search-job handles, kept so a worker that dies
    /// without a `Finished` event can be closed out with the job's
    /// structured failure reason instead of a generic message.
    jobs: HashMap<QKey, Job<()>>,
    /// Analysis jobs being reported to clients.
    watchers: Vec<Watch>,
    /// Client-scoped cancellation: every live session's token, filed
    /// under its client id, so a dropped connection cancels exactly that
    /// client's work.
    scopes: CancelScopes,
    tickets: HashMap<QKey, ScopeTicket>,
    /// Hands sessions from analysis-job continuations to the loop.
    done_tx: Sender<(QKey, Result<Session, EngineError>)>,
    /// The observability plane (shared with the runtime, catalog, and
    /// fault plane); the `metrics`/`dump-recorder` ops read it.
    telemetry: Telemetry,
    /// Accumulated search cost per service, from finished queries.
    search_totals: HashMap<String, SearchTotals>,
    pub(crate) summary: DaemonSummary,
}

/// What an analysis-job continuation delivers back to the loop.
pub(crate) type Delivery = (QKey, Result<Session, EngineError>);

/// Runs the daemon over a request stream and a response sink until the
/// input is exhausted (or a `shutdown` request arrives) *and* every open
/// session has drained and every watched analysis job has settled. Each
/// input line is handled in order; session events interleave between
/// request handling, tagged with their query id, with the
/// [`Multiplexer`]'s round-robin fairness across concurrent queries.
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
    let (mut daemon, done_rx) = Daemon::new(opts);
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
        // Sessions delivered by analysis-job continuations.
        if let Ok((key, submitted)) = done_rx.try_recv() {
            progressed = true;
            daemon.install_submission(&mut sink, key, submitted)?;
        }
        // Analysis job transitions → analysis_* events.
        progressed |= daemon.pump_watchers(&mut sink)?;
        // Session events, round-robin across live queries.
        progressed |= daemon.pump_sessions(&mut sink)?;
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
    /// A fresh daemon core plus the receiving end of its analysis-job
    /// continuation channel (the serving loop polls it).
    pub(crate) fn new(opts: &DaemonOptions) -> (Daemon, Receiver<Delivery>) {
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
        let daemon = Daemon {
            catalog,
            scheduler,
            mux: Multiplexer::new(),
            top_k: HashMap::new(),
            pending: HashMap::new(),
            jobs: HashMap::new(),
            watchers: Vec::new(),
            scopes: CancelScopes::new(),
            tickets: HashMap::new(),
            done_tx,
            telemetry: opts.telemetry.clone(),
            search_totals: HashMap::new(),
            summary: DaemonSummary { requests: 0, events: 0 },
        };
        (daemon, done_rx)
    }

    /// Whether every stream has drained: no live sessions, no queries
    /// waiting on analysis, no watched analysis jobs. The exit condition
    /// of every serving loop.
    pub(crate) fn is_idle(&self) -> bool {
        self.mux.is_empty() && self.pending.is_empty() && self.watchers.is_empty()
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
        Occupancy {
            live: self.top_k.keys().filter(|k| k.client == client).count(),
            waiting: self.pending.keys().filter(|k| k.client == client).count(),
        }
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
                // A query's search team never outgrows the daemon's slot
                // count: the wire field cannot claim unbounded OS threads,
                // and streams are bit-identical at every thread count.
                spec.threads = spec.threads.min(self.scheduler.slots());
                let key = QKey::new(client, id.clone());
                if self.top_k.contains_key(&key) || self.pending.contains_key(&key) {
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
                match submission {
                    Err(e) => vec![error_response(Some(op), Some(&id), &e.to_string())],
                    Ok(CatalogSubmission::Started(session)) => {
                        let ack = ok_response(op, [("id", Value::from(id.as_str()))]);
                        self.install_session(key, spec.top_k, session);
                        vec![ack]
                    }
                    Ok(CatalogSubmission::Pending(job)) => {
                        self.pending.insert(key, spec.top_k);
                        let service = job.label().to_string();
                        let ack = ok_response(
                            op,
                            [
                                ("id", Value::from(id.as_str())),
                                ("analysis", Value::from(service.as_str())),
                            ],
                        );
                        self.watch(client, &service, job);
                        vec![ack]
                    }
                }
            }
            Request::Cancel { id } => {
                let key = QKey::new(client, id.clone());
                let mut found = false;
                self.mux.for_each_session(|tag, session| {
                    if *tag == key {
                        session.cancel();
                        found = true;
                    }
                });
                let mut lines = Vec::new();
                if self.pending.remove(&key).is_some() {
                    // Still queued behind an analysis: terminate promptly
                    // with an empty cancelled finish; the continuation's
                    // late delivery is discarded on arrival.
                    found = true;
                    self.summary.events += 1;
                    lines.push(cancelled_finished_value(&id));
                }
                // A cancelled running session still streams its Finished
                // event; the response only reports whether the id was
                // live.
                lines.insert(
                    0,
                    ok_response(
                        op,
                        [("id", Value::from(id.as_str())), ("active", Value::Bool(found))],
                    ),
                );
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
        let mut queries: Vec<(String, Value)> = Vec::new();
        self.mux.for_each_session(|tag, session| {
            if tag.client != client {
                return;
            }
            let state = session
                .job_state()
                .map_or("running", |s| match s {
                    JobState::Queued => "queued",
                    JobState::Running => "running",
                    // Terminal but not yet drained by the client.
                    _ => "draining",
                });
            queries.push((
                tag.id.clone(),
                Value::obj([
                    ("id", Value::from(tag.id.as_str())),
                    ("state", Value::from(state)),
                ]),
            ));
        });
        for key in self.pending.keys().filter(|k| k.client == client) {
            queries.push((
                key.id.clone(),
                Value::obj([
                    ("id", Value::from(key.id.as_str())),
                    ("state", Value::from("waiting_analysis")),
                ]),
            ));
        }
        queries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut by_client: HashMap<u64, Occupancy> = HashMap::new();
        for key in self.top_k.keys() {
            by_client.entry(key.client).or_default().live += 1;
        }
        for key in self.pending.keys() {
            by_client.entry(key.client).or_default().waiting += 1;
        }
        let mut clients: Vec<(u64, Occupancy)> = by_client.into_iter().collect();
        clients.sort_unstable_by_key(|(id, _)| *id);
        let clients: Vec<Value> = clients
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
                (
                    "queries",
                    Value::Array(queries.into_iter().map(|(_, v)| v).collect()),
                ),
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

    /// Installs a live session under `key`: registers its cancel token in
    /// the client's cancellation scope and starts pumping its events.
    fn install_session(&mut self, key: QKey, cap: Option<usize>, session: Session) {
        let ticket = self.scopes.register(key.client, session.cancel_token());
        self.tickets.insert(key.clone(), ticket);
        self.top_k.insert(key.clone(), cap);
        if let Some(job) = session.job() {
            self.jobs.insert(key.clone(), job.clone());
        }
        self.mux.push(key, session);
    }

    /// Forgets a settled query's client-scope registration.
    fn release_ticket(&mut self, key: &QKey) {
        if let Some(ticket) = self.tickets.remove(key) {
            self.scopes.release(ticket);
        }
    }

    /// A session (or submission error) delivered by an analysis-job
    /// continuation: install it, or report the terminal error. Deliveries
    /// for keys cancelled in the meantime are discarded.
    pub(crate) fn install_submission(
        &mut self,
        sink: &mut impl Sink,
        key: QKey,
        submitted: Result<Session, EngineError>,
    ) -> std::io::Result<()> {
        let Some(cap) = self.pending.remove(&key) else {
            // Cancelled (or shut down / disconnected) while waiting: the
            // terminal event was already handled; reap the session.
            if let Ok(session) = submitted {
                session.cancel();
            }
            return Ok(());
        };
        match submitted {
            Err(e) => {
                self.summary.events += 1;
                sink.emit(key.client, &error_event(&key.id, &e.to_string()))
            }
            Ok(session) => {
                self.install_session(key, cap, session);
                Ok(())
            }
        }
    }

    /// Reports analysis-job transitions as `analysis_*` events to every
    /// subscribed client; settles and drops watchers whose job reached a
    /// terminal state. Returns whether anything was written.
    pub(crate) fn pump_watchers(&mut self, sink: &mut impl Sink) -> std::io::Result<bool> {
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

    /// One round-robin sweep over live sessions; also closes out queries
    /// whose worker died without a `Finished` event. Returns whether
    /// anything was written.
    pub(crate) fn pump_sessions(&mut self, sink: &mut impl Sink) -> std::io::Result<bool> {
        if let Some((key, event)) = self.mux.poll() {
            self.summary.events += 1;
            let cap = self.top_k.get(&key).copied().flatten();
            sink.emit(key.client, &event_value(&key.id, &event, cap))?;
            if let Event::Finished(result) = &event {
                // Fold the query's search cost into its service's
                // `inspect` accumulation (the search job's label is the
                // service name; catalog-less submissions have none).
                if let Some(job) = self.jobs.remove(&key) {
                    let service = job.label();
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
                self.top_k.remove(&key);
                self.release_ticket(&key);
            }
            return Ok(true);
        }
        if self.top_k.len() > self.mux.len() {
            // A session died without a Finished event (worker panic) and
            // the multiplexer pruned it: close the query out with a
            // terminal error event so the client stops waiting and the
            // key frees up.
            let mut live: Vec<QKey> = Vec::new();
            self.mux.for_each_session(|tag, _| live.push(tag.clone()));
            let dead: Vec<QKey> =
                self.top_k.keys().filter(|key| !live.contains(key)).cloned().collect();
            let progressed = !dead.is_empty();
            for key in dead {
                self.summary.events += 1;
                self.top_k.remove(&key);
                self.release_ticket(&key);
                // The settled job carries the panic's message: close the
                // query out with the structured reason.
                let message = match self.jobs.remove(&key).map(|job| job.state()) {
                    Some(JobState::Failed(reason)) => {
                        format!("search worker panicked: {reason}")
                    }
                    _ => "session worker terminated unexpectedly".to_string(),
                };
                sink.emit(key.client, &error_event(&key.id, &message))?;
            }
            return Ok(progressed);
        }
        Ok(false)
    }

    /// Cancels everything: every running session, every watched analysis
    /// job (queued ones settle as prompt no-ops), and every
    /// analysis-queued query — the latter terminate immediately with the
    /// returned client-tagged empty cancelled finishes. The loop then
    /// drains: running sessions stream out their cancelled `Finished`,
    /// running analyses complete and report, and the process exits only
    /// when every in-flight key has had its terminal event.
    pub(crate) fn cancel_all(&mut self) -> Vec<(u64, Value)> {
        self.mux.for_each_session(|_, session| session.cancel());
        for w in &self.watchers {
            w.job.cancel();
        }
        let mut waiting: Vec<QKey> = self.pending.drain().map(|(key, _)| key).collect();
        waiting.sort_by(|a, b| (a.client, &a.id).cmp(&(b.client, &b.id)));
        let mut lines = Vec::new();
        for key in waiting {
            self.summary.events += 1;
            lines.push((key.client, cancelled_finished_value(&key.id)));
        }
        lines
    }

    /// A client's connection is gone: cancel exactly that client's
    /// running sessions (through its cancellation scope), discard its
    /// analysis-queued queries, and unsubscribe it from analysis watches.
    /// Other clients' work — including shared analysis jobs — is
    /// untouched. Returns how many queries were cancelled or discarded.
    pub(crate) fn drop_client(&mut self, client: u64) -> usize {
        let cancelled = self.scopes.cancel_scope(client);
        self.tickets.retain(|key, _| key.client != client);
        let before = self.pending.len();
        self.pending.retain(|key, _| key.client != client);
        let discarded = before - self.pending.len();
        for w in &mut self.watchers {
            w.subscribers.retain(|&c| c != client);
        }
        // A watch every subscriber abandoned still has to settle before
        // the daemon can exit, but nobody needs its events; keep it so
        // `is_idle` stays honest. The cancelled sessions drain through
        // `pump_sessions` (their events go to a gone client — the socket
        // sink drops them) and free their keys on `Finished`.
        cancelled + discarded
    }
}

pub(crate) fn write_line(output: &mut impl Write, value: &Value) -> std::io::Result<()> {
    let mut line = value.to_json();
    debug_assert!(!line.contains('\n'), "response must be a single line");
    line.push('\n');
    output.write_all(line.as_bytes())?;
    output.flush()
}
