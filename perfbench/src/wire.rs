//! The load generator's side of the socket: one framed connection per
//! client, and the closed loop that drives a client's passes.

use std::io::{self, Read};
use std::time::{Duration, Instant};

use apiphany_repro::json::Value;
use apiphany_repro::net::{
    read_frame, write_frame, ListenAddr, Stream, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};

use crate::procfs::ThreadSampler;
use crate::workload::{Op, QueryDef, Workload};
use crate::Fnv;

/// How long a client waits for any one frame before it counts the
/// daemon as hung. Longer than the longest query of every workload,
/// shorter than the run's own 180 s limit.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// A `Read` that counts the bytes it hands out (`net.bytes_in`).
struct Counting {
    stream: Stream,
    bytes: u64,
}

impl Read for Counting {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// One client connection to the daemon.
pub struct Conn {
    reader: Counting,
    writer: Stream,
}

impl Conn {
    /// Connects and consumes the `hello` frame.
    pub fn connect(addr: &ListenAddr) -> io::Result<Conn> {
        let stream = Stream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        let mut conn = Conn {
            reader: Counting { stream, bytes: 0 },
            writer,
        };
        let hello = conn.recv()?;
        if hello.get("event").and_then(Value::as_str) != Some("hello") {
            return Err(io::Error::other(format!(
                "expected hello, got {}",
                hello.to_json()
            )));
        }
        Ok(conn)
    }

    /// Bytes received so far.
    pub fn bytes_in(&self) -> u64 {
        self.reader.bytes
    }

    /// Sends one request (the protocol version is added here) and returns
    /// the moment the frame was written.
    pub fn send(&mut self, fields: Vec<(&str, Value)>) -> io::Result<Instant> {
        let mut pairs = vec![("v".to_string(), Value::Int(PROTOCOL_VERSION))];
        pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        write_frame(&mut self.writer, &Value::Object(pairs))?;
        Ok(Instant::now())
    }

    /// Receives the next frame; a disconnect or undecodable frame is an
    /// error.
    pub fn recv(&mut self) -> io::Result<Value> {
        match read_frame(&mut self.reader, DEFAULT_MAX_FRAME)? {
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon disconnected",
            )),
            Some(Err(e)) => Err(io::Error::other(format!("bad frame from daemon: {e}"))),
            Some(Ok(v)) => Ok(v),
        }
    }

    /// Sends a request and waits for its `ok` response, skipping
    /// nothing else: callers use this only when no stream is open.
    pub fn call(&mut self, fields: Vec<(&str, Value)>) -> io::Result<Value> {
        self.send(fields)?;
        let reply = self.recv()?;
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(io::Error::other(format!(
                "request failed: {}",
                reply.to_json()
            )));
        }
        Ok(reply)
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

/// The `register` request for a client's copy of a service.
pub fn register_request(service: &str, inputs: &Value) -> Vec<(&'static str, Value)> {
    vec![
        ("op", Value::from("register")),
        ("service", Value::from(service)),
        (
            "library",
            inputs
                .get("library")
                .cloned()
                .expect("inputs carry a library"),
        ),
        (
            "witnesses",
            inputs
                .get("witnesses")
                .cloned()
                .expect("inputs carry witnesses"),
        ),
        ("prewarm", Value::Bool(true)),
    ]
}

/// Reads frames until `service`'s analysis settles; returns whether it
/// became ready. Frames of other kinds are unexpected here.
pub fn await_ready(conn: &mut Conn, service: &str) -> io::Result<bool> {
    loop {
        let frame = conn.recv()?;
        if let Some(false) = frame.get("ok").and_then(Value::as_bool) {
            return Ok(false);
        }
        match str_field(&frame, "event") {
            Some("analysis_ready") if str_field(&frame, "service") == Some(service) => {
                return Ok(true)
            }
            Some("analysis_failed") if str_field(&frame, "service") == Some(service) => {
                return Ok(false)
            }
            _ => {}
        }
    }
}

/// What the wire showed of one query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub client: usize,
    pub query: usize,
    /// Failure reason, when the query failed on the wire.
    pub error: Option<String>,
    pub ttfc_ms: Option<f64>,
    pub finish_ms: f64,
    pub n_candidates: usize,
    /// Order-sensitive digest of the streamed candidate programs.
    pub digest: u64,
    /// `arrival - send - elapsed_ms` of every candidate frame.
    pub event_lag_ms: Vec<f64>,
    /// `finished.outcome`, `finished.n_candidates`, `finished.total_ms`.
    pub outcome: String,
    pub finished_n: usize,
    pub total_ms: f64,
    /// Programs of the `finished` ranking, in rank order.
    pub ranked: Vec<String>,
    /// The streamed programs (kept for a client's first run of a query
    /// only; later runs are held to the same digest).
    pub programs: Option<Vec<String>>,
}

/// What one client did in the measured window.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub queries: Vec<QueryRecord>,
    /// register → `analysis_ready` of each re-registration, in ms.
    pub analysis_ms: Vec<f64>,
    /// Operations that failed that are not queries (re-registrations,
    /// a connection lost between queries).
    pub other_failures: Vec<String>,
    pub reregistrations: usize,
    pub passes: usize,
    pub candidate_frames: usize,
}

/// The measured window every client of a run shares.
pub struct Window<'a> {
    pub workload: &'a Workload,
    /// Registration inputs per service, for re-registrations.
    pub registrations: &'a [Value],
    pub seed: u64,
    pub start: Instant,
    pub length: Duration,
}

/// Runs client `client`'s closed loop: whole passes, each op after the
/// previous one completed, until the window has elapsed and the
/// workload's minimum number of passes is done.
pub fn run_client(
    conn: &mut Conn,
    window: &Window<'_>,
    client: usize,
    mut sampler: Option<&mut ThreadSampler>,
) -> ClientLog {
    let workload = window.workload;
    let mut log = ClientLog::default();
    let mut seen = vec![false; workload.queries.len()];
    let mut next_id = 0usize;
    while window.start.elapsed() < window.length || log.passes < workload.min_passes() {
        for op in workload.pass(window.seed, client, log.passes) {
            match op {
                Op::Reregister(s) => {
                    log.reregistrations += 1;
                    let name = service_name(client, workload.services[s].name());
                    match reregister(conn, &name, &window.registrations[s]) {
                        Ok(ms) => log.analysis_ms.push(ms),
                        Err(e) => log.other_failures.push(format!("re-register {name}: {e}")),
                    }
                }
                Op::Query(q) => {
                    let id = format!("c{client}-{next_id}");
                    next_id += 1;
                    let keep = !seen[q];
                    seen[q] = true;
                    let rec = run_query(
                        conn,
                        &id,
                        client,
                        q,
                        &workload.queries[q],
                        keep,
                        sampler.as_deref_mut(),
                    );
                    log.candidate_frames += rec.n_candidates;
                    log.queries.push(rec);
                }
            }
        }
        log.passes += 1;
    }
    log
}

/// The daemon-side name of client `client`'s copy of a service.
pub fn service_name(client: usize, service: &str) -> String {
    format!("c{client}.{service}")
}

fn reregister(conn: &mut Conn, name: &str, inputs: &Value) -> io::Result<f64> {
    conn.call(vec![
        ("op", Value::from("evict")),
        ("service", Value::from(name)),
    ])?;
    let sent = conn.send(register_request(name, inputs))?;
    if !await_ready(conn, name)? {
        return Err(io::Error::other("analysis did not become ready"));
    }
    Ok(sent.elapsed().as_secs_f64() * 1e3)
}

fn query_request(id: &str, client: usize, def: &QueryDef) -> Vec<(&'static str, Value)> {
    let (inputs, output) = def.signature();
    vec![
        ("op", Value::from("query")),
        ("id", Value::from(id)),
        (
            "service",
            Value::from(service_name(client, def.service.name()).as_str()),
        ),
        (
            "inputs",
            Value::Object(
                inputs
                    .into_iter()
                    .map(|(n, t)| (n, Value::from(t.as_str())))
                    .collect(),
            ),
        ),
        ("output", Value::from(output.as_str())),
        ("depth", Value::Int(def.depth as i64)),
        ("threads", Value::Int(def.threads as i64)),
        ("top_k", Value::Int(10)),
        (
            "budget",
            Value::obj([("max_candidates", Value::Int(60_000))]),
        ),
    ]
}

/// Sends one query and consumes its stream up to the terminal event.
/// The client does only bookkeeping while the stream is open; checking
/// happens after the window.
fn run_query(
    conn: &mut Conn,
    id: &str,
    client: usize,
    query: usize,
    def: &QueryDef,
    keep_programs: bool,
    mut sampler: Option<&mut ThreadSampler>,
) -> QueryRecord {
    let mut rec = QueryRecord {
        client,
        query,
        error: None,
        ttfc_ms: None,
        finish_ms: 0.0,
        n_candidates: 0,
        digest: Fnv::default().0,
        event_lag_ms: Vec::new(),
        outcome: String::new(),
        finished_n: 0,
        total_ms: 0.0,
        ranked: Vec::new(),
        programs: keep_programs.then(Vec::new),
    };
    let sent = match conn.send(query_request(id, client, def)) {
        Ok(t) => t,
        Err(e) => {
            rec.error = Some(format!("send: {e}"));
            return rec;
        }
    };
    let mut digest = Fnv::default();
    loop {
        let frame = match conn.recv() {
            Ok(f) => f,
            Err(e) => {
                rec.error = Some(format!("stream: {e}"));
                return rec;
            }
        };
        let since_send = sent.elapsed().as_secs_f64() * 1e3;
        if let Some(s) = sampler.as_deref_mut() {
            s.maybe_sample();
        }
        if str_field(&frame, "id") != Some(id) {
            continue;
        }
        if frame.get("ok").and_then(Value::as_bool) == Some(false) {
            rec.error = Some(format!("error reply: {}", frame.to_json()));
            return rec;
        }
        match str_field(&frame, "event") {
            Some("candidate") => {
                let program = str_field(&frame, "program").unwrap_or_default();
                digest.add(program);
                rec.n_candidates += 1;
                if rec.ttfc_ms.is_none() {
                    rec.ttfc_ms = Some(since_send);
                }
                let elapsed = frame.get("elapsed_ms").and_then(Value::as_int).unwrap_or(0);
                rec.event_lag_ms.push(since_send - elapsed as f64);
                if let Some(programs) = &mut rec.programs {
                    programs.push(program.to_string());
                }
            }
            Some("finished") => {
                rec.finish_ms = since_send;
                rec.digest = digest.0;
                rec.outcome = str_field(&frame, "outcome").unwrap_or_default().to_string();
                rec.finished_n = frame
                    .get("n_candidates")
                    .and_then(Value::as_int)
                    .unwrap_or(-1) as usize;
                rec.total_ms = frame.get("total_ms").and_then(Value::as_int).unwrap_or(0) as f64;
                rec.ranked = frame
                    .get("ranked")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|r| str_field(r, "program").map(str::to_string))
                    .collect();
                return rec;
            }
            Some("error") => {
                rec.error = Some(format!("error event: {}", frame.to_json()));
                return rec;
            }
            _ => {}
        }
    }
}
