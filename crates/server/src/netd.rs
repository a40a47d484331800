//! The socket front end: many framed connections over one daemon core.
//!
//! [`run_net_daemon`] turns the [`Daemon`](crate::daemon) core into a
//! multi-client network daemon on an [`apiphany_net::NetServer`]:
//!
//! * every accepted connection gets a `hello` frame announcing the
//!   protocol version and this server's limits, then speaks the same ops
//!   as the stdio protocol (each request additionally carries a `"v"`
//!   protocol-version field);
//! * per-query state is keyed by (client, id), so clients own
//!   independent id namespaces and each one's event stream is exactly
//!   the stream a dedicated daemon would produce;
//! * a dropped connection promptly cancels exactly that client's pending
//!   and running queries — everyone else's work is untouched;
//! * **admission control**: per-client quotas (max live queries, max
//!   queries queued behind analyses) and a global high-water mark on the
//!   search lane's backlog shed new queries with structured
//!   `overloaded` errors instead of letting one client bury the daemon;
//! * **graceful drain**: SIGTERM (via [`apiphany_net::TermFlag`]) or the
//!   `shutdown` op stops accepting, announces `draining` to every
//!   client, lets in-flight work finish until the deadline, then cancels
//!   the rest — every acked query id still receives exactly one terminal
//!   event before the loop returns.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use apiphany_core::telemetry::Counter;
use apiphany_core::Telemetry;
use apiphany_json::Value;
use apiphany_net::{
    check_version, ClientId, DisconnectReason, FrameError, NetEvent, NetServer, TermFlag,
    PROTOCOL_VERSION,
};

use crate::daemon::{Daemon, DaemonOptions, DaemonSummary, Sink};
use crate::proto::{
    coded_error_response, ok_response, Request, CODE_BAD_VERSION, CODE_DRAINING, CODE_OVERLOADED,
    CODE_PARSE_ERROR, CODE_UNAUTHORIZED,
};

/// Configuration of the socket front end.
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// The daemon core's options (slots, cache dir).
    pub daemon: DaemonOptions,
    /// Per-client cap on live (session-backed) queries.
    pub max_client_live: usize,
    /// Per-client cap on queries queued behind a service's analysis.
    pub max_client_waiting: usize,
    /// Global high-water mark on the search lane's queued backlog; at or
    /// above it, *every* new query is shed with `overloaded`.
    pub search_high_water: usize,
    /// How long a drain lets in-flight work keep running before
    /// cancelling the remainder.
    pub drain_grace: Duration,
    /// How long a client's oldest undrained outbound frame may wait
    /// before the transport disconnects it as stalled (the
    /// [`apiphany_net::NetConfig::write_deadline`] the binary passes to
    /// the transport).
    pub write_deadline: Duration,
    /// Shared secret required from every connection before any request
    /// is served. `None` (the default) disables authentication. When
    /// set, the `hello` frame announces `"auth": true` and a client's
    /// first frame must carry a matching `"auth"` field — anything else
    /// gets a structured `unauthorized` error and is disconnected. The
    /// stdio front end is unaffected (it is already inside the trust
    /// boundary).
    pub auth_token: Option<String>,
}

impl Default for NetOptions {
    fn default() -> NetOptions {
        NetOptions {
            daemon: DaemonOptions::default(),
            max_client_live: 8,
            max_client_waiting: 16,
            search_high_water: 64,
            drain_grace: Duration::from_secs(10),
            write_deadline: Duration::from_secs(5),
            auth_token: None,
        }
    }
}

/// What a finished network daemon run processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetSummary {
    /// The daemon core's request/event counts.
    pub daemon: DaemonSummary,
    /// Connections accepted over the run's lifetime.
    pub clients: usize,
    /// Queries shed by admission control (`overloaded` / `draining`).
    pub shed: usize,
    /// Connections the transport cut for not keeping up (write deadline
    /// exceeded, or outbound queue overflow).
    pub stalled: usize,
}

/// Routes each protocol line to its client's connection. A send to a
/// client that disconnected mid-stream is dropped silently — the
/// disconnect event (which cancels that client's work) is already in
/// flight.
struct NetSink<'a> {
    server: &'a NetServer,
    frames_out: Counter,
}

impl Sink for NetSink<'_> {
    fn emit(&mut self, client: u64, value: &Value) -> std::io::Result<()> {
        self.frames_out.inc();
        let _ = self.server.send(apiphany_net::ClientId(client), value);
        Ok(())
    }
}

/// The `hello` frame sent on connect: protocol version, server identity,
/// and the limits admission control will hold this client to.
fn hello_value(opts: &NetOptions) -> Value {
    Value::obj([
        ("event", Value::from("hello")),
        ("v", Value::Int(PROTOCOL_VERSION)),
        ("server", Value::from("synthd")),
        ("auth", Value::Bool(opts.auth_token.is_some())),
        (
            "limits",
            Value::obj([
                ("max_live", Value::Int(opts.max_client_live as i64)),
                ("max_waiting", Value::Int(opts.max_client_waiting as i64)),
            ]),
        ),
    ])
}

/// The `draining` notice broadcast when a drain starts.
fn draining_value(grace: Duration) -> Value {
    Value::obj([
        ("event", Value::from("draining")),
        ("grace_ms", Value::Int(grace.as_millis().min(i64::MAX as u128) as i64)),
    ])
}

/// Runs the network daemon over an already-started [`NetServer`] until a
/// drain (SIGTERM through `term`, or a `shutdown` op) completes. See the
/// module docs for the serving semantics.
///
/// # Errors
///
/// Returns the first fatal I/O error of the serving loop (individual
/// client connections failing is not one).
pub fn run_net_daemon(
    mut server: NetServer,
    opts: &NetOptions,
    term: &TermFlag,
) -> std::io::Result<NetSummary> {
    let mut daemon = Daemon::new(&opts.daemon);
    let telemetry = daemon.telemetry().clone();
    let frames_in = telemetry.counter("net.frames_in");
    let frames_out = telemetry.counter("net.frames_out");
    let stalled_counter = telemetry.counter("net.stalled");
    let outbox_gauge = telemetry.gauge("net.outbox_high_water");
    let mut clients = 0usize;
    let mut shed = 0usize;
    let mut stalled = 0usize;
    let mut authed: HashSet<u64> = HashSet::new();
    let mut draining = false;
    let mut drain_deadline: Option<Instant> = None;
    let mut cancelled_rest = false;

    loop {
        let mut progressed = false;

        // 1. Transport events: connects, frames, decode errors, drops.
        while let Some(event) = server.try_recv() {
            progressed = true;
            match event {
                NetEvent::Connected(client) => {
                    clients += 1;
                    frames_out.inc();
                    server.send(client, &hello_value(opts));
                    if draining {
                        frames_out.inc();
                        server.send(client, &draining_value(opts.drain_grace));
                    }
                }
                NetEvent::BadFrame(client, err) => {
                    daemon.summary.requests += 1;
                    frames_in.inc();
                    if reject_unauthorized(&server, opts, &telemetry, &frames_out, &authed, client)
                    {
                        continue;
                    }
                    let code = match err {
                        FrameError::Oversize { .. } => CODE_PARSE_ERROR,
                        FrameError::Malformed(_) => CODE_PARSE_ERROR,
                    };
                    frames_out.inc();
                    server.send(
                        client,
                        &coded_error_response(None, None, code, &err.to_string()),
                    );
                }
                NetEvent::Disconnected(client, reason) => {
                    if matches!(
                        reason,
                        DisconnectReason::WriteStalled | DisconnectReason::QueueOverflow
                    ) {
                        stalled += 1;
                        stalled_counter.inc();
                    }
                    telemetry.record(
                        "net.disconnect",
                        [("client", client.0.to_string()), ("reason", reason.name().to_string())],
                    );
                    authed.remove(&client.0);
                    daemon.drop_client(client.0);
                }
                NetEvent::Request(client, msg) => {
                    daemon.summary.requests += 1;
                    frames_in.inc();
                    if let Some(token) = &opts.auth_token {
                        if !authed.contains(&client.0) {
                            if msg.get("auth").and_then(Value::as_str) == Some(token.as_str()) {
                                authed.insert(client.0);
                            } else {
                                reject_unauthorized(
                                    &server,
                                    opts,
                                    &telemetry,
                                    &frames_out,
                                    &authed,
                                    client,
                                );
                                continue;
                            }
                        }
                    }
                    let replies = handle_frame(
                        &mut daemon,
                        opts,
                        &telemetry,
                        client.0,
                        &msg,
                        &mut draining,
                        &mut shed,
                    );
                    for reply in replies {
                        frames_out.inc();
                        server.send(client, &reply);
                    }
                    if draining && drain_deadline.is_none() {
                        // The shutdown op just started the drain.
                        start_drain(&mut server, opts, &frames_out, &mut drain_deadline);
                    }
                }
            }
        }

        // 2. A delivered SIGTERM/SIGINT starts the drain.
        if term.is_raised() && !draining {
            draining = true;
            start_drain(&mut server, opts, &frames_out, &mut drain_deadline);
            progressed = true;
        }

        // 3. Delivered sessions, analysis transitions and session events.
        let mut sink = NetSink { server: &server, frames_out: frames_out.clone() };
        progressed |= daemon.pump(&mut sink)?;

        // 4. Drain bookkeeping: past the grace deadline, cancel whatever
        // is still in flight (each key gets its terminal event); exit
        // once every stream has drained.
        if draining {
            if !cancelled_rest
                && drain_deadline.is_some_and(|deadline| Instant::now() >= deadline)
            {
                cancelled_rest = true;
                progressed = true;
                for (client, line) in daemon.cancel_all() {
                    sink.emit(client, &line)?;
                }
            }
            if daemon.is_idle() {
                break;
            }
        }

        outbox_gauge.set(server.outbox_high_water().min(i64::MAX as usize) as i64);

        if !progressed {
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    // Streams are drained; deliver every frame still queued (terminal
    // events included), then close each connection and return.
    server.close_all();
    // A run that tripped injected faults dumps the flight recorder so the
    // post-mortem (which jobs were affected, in what order) is on stderr
    // even when the process is about to exit.
    if opts.daemon.fault.fired() > 0 {
        telemetry.dump_to_stderr("drain");
    }
    Ok(NetSummary { daemon: daemon.summary, clients, shed, stalled })
}

/// Sends `unauthorized` and drops the connection if `client` has not
/// presented the shared secret; returns whether it did so. A no-op
/// (returning `false`) when authentication is disabled.
fn reject_unauthorized(
    server: &NetServer,
    opts: &NetOptions,
    telemetry: &Telemetry,
    frames_out: &Counter,
    authed: &HashSet<u64>,
    client: ClientId,
) -> bool {
    if opts.auth_token.is_none() || authed.contains(&client.0) {
        return false;
    }
    telemetry.record(
        "net.admission",
        [("client", client.0.to_string()), ("decision", CODE_UNAUTHORIZED.to_string())],
    );
    frames_out.inc();
    server.send(
        client,
        &coded_error_response(
            None,
            None,
            CODE_UNAUTHORIZED,
            "authentication required: first frame must carry a valid \"auth\" token",
        ),
    );
    server.close_after_flush(client);
    true
}

/// Stops accepting and announces the drain to every connected client.
fn start_drain(
    server: &mut NetServer,
    opts: &NetOptions,
    frames_out: &Counter,
    deadline: &mut Option<Instant>,
) {
    server.stop_accepting();
    *deadline = Some(Instant::now() + opts.drain_grace);
    let notice = draining_value(opts.drain_grace);
    for client in server.client_ids() {
        frames_out.inc();
        server.send(client, &notice);
    }
}

/// Decodes and executes one framed request: version check, parse,
/// admission control, then the shared daemon core. Returns the reply
/// lines for this client.
fn handle_frame(
    daemon: &mut Daemon,
    opts: &NetOptions,
    telemetry: &Telemetry,
    client: u64,
    msg: &Value,
    draining: &mut bool,
    shed: &mut usize,
) -> Vec<Value> {
    // One shed query: bump the counters, log the admission decision in
    // the flight recorder, and build the structured refusal.
    let shed_query = |shed: &mut usize, id: &str, code: &str, message: String| {
        *shed += 1;
        telemetry.counter("net.shed").inc();
        telemetry.record(
            "net.admission",
            [
                ("client", client.to_string()),
                ("id", id.to_string()),
                ("decision", code.to_string()),
            ],
        );
        vec![coded_error_response(Some("query"), Some(id), code, &message)]
    };
    if let Err(message) = check_version(msg) {
        return vec![coded_error_response(None, None, CODE_BAD_VERSION, &message)];
    }
    let request = match Request::from_value(msg) {
        Err(message) => {
            return vec![coded_error_response(None, None, CODE_PARSE_ERROR, &message)];
        }
        Ok(request) => request,
    };
    match request {
        Request::Shutdown => {
            *draining = true;
            vec![ok_response("shutdown", [])]
        }
        Request::Query { id, spec } => {
            if *draining {
                return shed_query(
                    shed,
                    &id,
                    CODE_DRAINING,
                    "daemon is draining for shutdown; no new queries".to_string(),
                );
            }
            let occupancy = daemon.occupancy(client);
            if occupancy.live >= opts.max_client_live {
                return shed_query(
                    shed,
                    &id,
                    CODE_OVERLOADED,
                    format!(
                        "client has {} live queries (limit {}); retry after one finishes",
                        occupancy.live, opts.max_client_live
                    ),
                );
            }
            if occupancy.waiting >= opts.max_client_waiting {
                return shed_query(
                    shed,
                    &id,
                    CODE_OVERLOADED,
                    format!(
                        "client has {} queries waiting on analyses (limit {})",
                        occupancy.waiting, opts.max_client_waiting
                    ),
                );
            }
            let backlog = daemon.queued_search();
            if backlog >= opts.search_high_water {
                return shed_query(
                    shed,
                    &id,
                    CODE_OVERLOADED,
                    format!(
                        "search backlog at high water ({backlog} queued, limit {}); \
                         retry after the backlog drains",
                        opts.search_high_water
                    ),
                );
            }
            daemon.handle(client, Request::Query { id, spec })
        }
        other => daemon.handle(client, other),
    }
}
