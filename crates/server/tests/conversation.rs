//! End-to-end `synthd` conversations over in-memory pipes: the daemon
//! loop is driven exactly as the binary drives it, minus the process
//! boundary.

use std::io::Cursor;

use apiphany_json::{parse, Value};
use apiphany_core::FaultPlane;
use apiphany_server::{run_daemon, DaemonOptions};

/// Runs a scripted conversation and returns the parsed response lines.
fn converse(script: &str, opts: &DaemonOptions) -> Vec<Value> {
    let input = Cursor::new(script.to_string().into_bytes());
    let mut output = Vec::new();
    run_daemon(input, &mut output, opts).expect("daemon i/o is in-memory");
    String::from_utf8(output)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}")))
        .collect()
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

#[test]
fn register_query_stream_and_finish() {
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"query","id":"q1","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7,"top_k":1}
"#,
        &DaemonOptions::default(),
    );
    // Register ack with catalog info.
    assert_eq!(lines[0].get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(str_field(&lines[0], "op"), "register");
    // Query ack.
    assert_eq!(str_field(&lines[1], "op"), "query");
    assert_eq!(str_field(&lines[1], "id"), "q1");
    // Streamed events: two candidates, depth markers, one finished.
    let candidates: Vec<&Value> = lines
        .iter()
        .filter(|l| str_field(l, "event") == "candidate")
        .collect();
    assert_eq!(candidates.len(), 2);
    assert!(candidates.iter().all(|c| str_field(c, "id") == "q1"));
    assert!(str_field(candidates[0], "program").contains("c_list"));
    let finished: Vec<&Value> = lines
        .iter()
        .filter(|l| str_field(l, "event") == "finished")
        .collect();
    assert_eq!(finished.len(), 1);
    assert_eq!(str_field(finished[0], "outcome"), "exhausted");
    assert_eq!(finished[0].get("n_candidates").and_then(Value::as_int), Some(2));
    // top_k = 1 caps the reported ranking, not the search.
    let ranked = finished[0].get("ranked").and_then(Value::as_array).unwrap();
    assert_eq!(ranked.len(), 1);
    // The top-ranked program is the paper's Fig. 2 solution (generated
    // second, ranked first).
    assert_eq!(ranked[0].get("r_orig").and_then(Value::as_int), Some(2));
    // The finished event is the last line.
    assert_eq!(str_field(lines.last().unwrap(), "event"), "finished");
}

#[test]
fn cancel_ends_a_deep_query_with_a_cancelled_finish() {
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"query","id":"deep","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":12}
{"op":"cancel","id":"deep"}
"#,
        &DaemonOptions::default(),
    );
    let cancel = lines
        .iter()
        .find(|l| str_field(l, "op") == "cancel")
        .expect("cancel response");
    assert_eq!(cancel.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(cancel.get("active").and_then(Value::as_bool), Some(true));
    let finished = lines
        .iter()
        .find(|l| str_field(l, "event") == "finished")
        .expect("cancelled query still finishes");
    assert_eq!(str_field(finished, "id"), "deep");
    assert_eq!(str_field(finished, "outcome"), "cancelled");
}

#[test]
fn concurrent_queries_interleave_with_tagged_events() {
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"query","id":"a","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}
{"op":"query","id":"b","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}
"#,
        &DaemonOptions { slots: 2, ..DaemonOptions::default() },
    );
    for id in ["a", "b"] {
        let events: Vec<String> = lines
            .iter()
            .filter(|l| str_field(l, "id") == id && !str_field(l, "event").is_empty())
            .map(|l| {
                format!(
                    "{} {} {}",
                    str_field(l, "event"),
                    l.get("depth").and_then(Value::as_int).unwrap_or(-1),
                    l.get("r_orig").and_then(Value::as_int).unwrap_or(-1),
                )
            })
            .collect();
        // Each stream individually is the full dedicated-run sequence:
        // 7 depth markers, 2 candidates, 1 finished.
        assert_eq!(events.len(), 10, "{id}: {events:?}");
        assert_eq!(events.last().unwrap(), "finished -1 -1", "{id}");
    }
}

#[test]
fn list_inspect_evict_lifecycle() {
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"list"}
{"op":"inspect","service":"demo"}
{"op":"evict","service":"demo"}
{"op":"list"}
{"op":"inspect","service":"demo"}
"#,
        &DaemonOptions::default(),
    );
    let services = lines[1].get("services").and_then(Value::as_array).unwrap();
    assert_eq!(services.len(), 1);
    assert_eq!(str_field(&services[0], "name"), "demo");
    assert_eq!(str_field(lines[2].get("service").unwrap(), "name"), "demo");
    assert_eq!(lines[3].get("removed").and_then(Value::as_bool), Some(true));
    assert_eq!(lines[4].get("services").and_then(Value::as_array).unwrap().len(), 0);
    assert_eq!(lines[5].get("ok").and_then(Value::as_bool), Some(false));
}

#[test]
fn errors_are_reported_per_line_and_do_not_kill_the_daemon() {
    let lines = converse(
        r#"this is not json
{"op":"query","id":"q","service":"ghost","output":"[Profile.email]"}
{"op":"register","service":"demo","builtin":"nope"}
{"op":"register","service":"demo","builtin":"fig7"}
{"op":"register","service":"demo","builtin":"fig7"}
{"op":"list"}
"#,
        &DaemonOptions::default(),
    );
    assert_eq!(lines.len(), 6);
    // The unknown-service query error arrives asynchronously (submission
    // runs on its own thread), so match responses by content, not index.
    let has_error = |needle: &str| {
        lines.iter().any(|l| str_field(l, "error").contains(needle))
    };
    assert!(has_error("not a JSON object"));
    assert!(has_error("unknown service"));
    assert!(has_error("unknown builtin"));
    assert!(has_error("already registered"));
    let list = lines
        .iter()
        .find(|l| str_field(l, "op") == "list")
        .expect("list response");
    assert_eq!(list.get("services").and_then(Value::as_array).unwrap().len(), 1);
    assert!(lines
        .iter()
        .any(|l| str_field(l, "op") == "register"
            && l.get("ok").and_then(Value::as_bool) == Some(true)));
}

#[test]
fn duplicate_live_query_ids_are_rejected() {
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"query","id":"q","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":12}
{"op":"query","id":"q","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}
{"op":"cancel","id":"q"}
"#,
        &DaemonOptions::default(),
    );
    let dup = lines
        .iter()
        .find(|l| !str_field(l, "error").is_empty())
        .expect("duplicate id error");
    assert!(str_field(dup, "error").contains("already in use"));
}

#[test]
fn shutdown_cancels_active_queries_and_exits() {
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"query","id":"q","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":12}
{"op":"shutdown"}
{"op":"list"}
"#,
        &DaemonOptions::default(),
    );
    // The shutdown is acknowledged, the deep query finishes cancelled,
    // and the post-shutdown request is never processed.
    assert!(lines.iter().any(|l| str_field(l, "op") == "shutdown"));
    let finished = lines
        .iter()
        .find(|l| str_field(l, "event") == "finished")
        .expect("query drains");
    assert_eq!(str_field(finished, "outcome"), "cancelled");
    assert!(!lines.iter().any(|l| str_field(l, "op") == "list"));
}

#[test]
fn prewarm_register_reports_the_analysis_lifecycle() {
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7","prewarm":true}
"#,
        &DaemonOptions::default(),
    );
    // The register ack carries the analysis job.
    let reg = &lines[0];
    assert_eq!(reg.get("ok").and_then(Value::as_bool), Some(true));
    let job = reg.get("job").expect("prewarm ack names its job");
    assert_eq!(str_field(job, "kind"), "analysis");
    let job_id = job.get("id").and_then(Value::as_int).unwrap();
    // The loop reports the job's lifecycle: started, then ready — and the
    // daemon does not exit until the job has settled.
    let started = lines
        .iter()
        .position(|l| str_field(l, "event") == "analysis_started")
        .expect("analysis_started event");
    let ready = lines
        .iter()
        .position(|l| str_field(l, "event") == "analysis_ready")
        .expect("analysis_ready event");
    assert!(started < ready);
    assert_eq!(str_field(&lines[ready], "service"), "demo");
    assert_eq!(lines[ready].get("job").and_then(Value::as_int), Some(job_id));
    // The ready event surfaces the mining cost.
    assert!(lines[ready].get("analyze_ms").and_then(Value::as_int).is_some());
    let stats = lines[ready].get("stats").expect("mining stats");
    assert!(stats.get("n_witnesses").and_then(Value::as_int).unwrap() > 0);
}

/// The acceptance property of the job runtime, asserted **by event
/// ordering, not timing**: with one slot, a query against the warm
/// service streams its candidates strictly before the cold service's
/// `analysis_ready` — guaranteed by the analysis-job continuation (the
/// queued query enters the search lane before the pool picks its next
/// job) and the pool's lane alternation, not by mining being slow.
#[test]
fn warm_query_streams_before_a_cold_service_is_ready() {
    let lines = converse(
        r#"{"op":"register","service":"warm","builtin":"fig7","prewarm":true}
{"op":"query","id":"qw","service":"warm","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}
{"op":"register","service":"cold","builtin":"fig7","prewarm":true}
"#,
        &DaemonOptions { slots: 1, ..DaemonOptions::default() },
    );
    let first_candidate = lines
        .iter()
        .position(|l| str_field(l, "event") == "candidate" && str_field(l, "id") == "qw")
        .expect("warm query streams candidates");
    let cold_ready = lines
        .iter()
        .position(|l| {
            str_field(l, "event") == "analysis_ready" && str_field(l, "service") == "cold"
        })
        .expect("cold service eventually warms");
    assert!(
        first_candidate < cold_ready,
        "warm candidates (line {first_candidate}) must precede the cold \
         service's analysis_ready (line {cold_ready})"
    );
    // The warm query ran to completion, and both services became ready.
    assert!(lines
        .iter()
        .any(|l| str_field(l, "event") == "finished" && str_field(l, "id") == "qw"));
    assert!(lines.iter().any(|l| {
        str_field(l, "event") == "analysis_ready" && str_field(l, "service") == "warm"
    }));
}

/// Cancelling a query still queued behind its service's analysis
/// terminates it promptly (empty cancelled `finished`), well before the
/// analysis itself settles.
#[test]
fn cancel_of_a_query_queued_behind_analysis_is_prompt() {
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"query","id":"qa","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":12}
{"op":"register","service":"other","builtin":"fig7","prewarm":true}
{"op":"query","id":"qb","service":"other","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}
{"op":"cancel","id":"qb"}
{"op":"cancel","id":"qa"}
"#,
        &DaemonOptions { slots: 1, ..DaemonOptions::default() },
    );
    // qb's ack shows it queued behind `other`'s analysis.
    let qb_ack = lines
        .iter()
        .find(|l| str_field(l, "op") == "query" && str_field(l, "id") == "qb")
        .expect("qb ack");
    assert_eq!(str_field(qb_ack, "analysis"), "other");
    // Its cancel is acknowledged as active and terminates with an empty
    // cancelled finish *before* `other` is ever ready.
    let qb_cancel = lines
        .iter()
        .find(|l| str_field(l, "op") == "cancel" && str_field(l, "id") == "qb")
        .expect("qb cancel ack");
    assert_eq!(qb_cancel.get("active").and_then(Value::as_bool), Some(true));
    let qb_finished = lines
        .iter()
        .position(|l| str_field(l, "event") == "finished" && str_field(l, "id") == "qb")
        .expect("prompt terminal event");
    assert_eq!(str_field(&lines[qb_finished], "outcome"), "cancelled");
    assert_eq!(
        lines[qb_finished].get("n_candidates").and_then(Value::as_int),
        Some(0)
    );
    let other_ready = lines
        .iter()
        .position(|l| {
            str_field(l, "event") == "analysis_ready" && str_field(l, "service") == "other"
        })
        .expect("the orphaned analysis still completes");
    assert!(qb_finished < other_ready);
    // qa drains with a regular cancelled finish.
    let qa_finished = lines
        .iter()
        .find(|l| str_field(l, "event") == "finished" && str_field(l, "id") == "qa")
        .expect("qa terminal event");
    assert_eq!(str_field(qa_finished, "outcome"), "cancelled");
}

#[test]
fn status_reports_runtime_services_and_queries() {
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"query","id":"q1","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":12}
{"op":"status"}
{"op":"cancel","id":"q1"}
"#,
        &DaemonOptions::default(),
    );
    let status = lines
        .iter()
        .find(|l| str_field(l, "op") == "status")
        .expect("status reply");
    let runtime = status.get("runtime").expect("runtime block");
    assert_eq!(runtime.get("slots").and_then(Value::as_int), Some(2));
    assert!(runtime.get("queued_analysis").and_then(Value::as_int).is_some());
    let services = status.get("services").and_then(Value::as_array).unwrap();
    assert_eq!(services.len(), 1);
    assert_eq!(str_field(&services[0], "name"), "demo");
    let queries = status.get("queries").and_then(Value::as_array).unwrap();
    assert_eq!(queries.len(), 1);
    assert_eq!(str_field(&queries[0], "id"), "q1");
    assert!(!str_field(&queries[0], "state").is_empty());
    // Inspect on a warm service (after everything drains) reports the
    // analyze-once cost.
    let last_info = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7","prewarm":true}
{"op":"inspect","service":"demo"}
"#,
        &DaemonOptions::default(),
    );
    let inspected = last_info
        .iter()
        .rfind(|l| str_field(l, "op") == "inspect")
        .expect("inspect reply");
    let service = inspected.get("service").unwrap();
    // The inspect may race the prewarm: either the job is still listed,
    // or the service is analyzed with its stats.
    assert!(
        service.get("job").map(|j| !matches!(j, Value::Null)).unwrap_or(false)
            || service.get("analysis").map(|a| !matches!(a, Value::Null)).unwrap_or(false),
        "inspect surfaces the analysis job or its stats: {inspected:?}"
    );
}

/// `shutdown` with work at every stage: a running (or analysis-queued)
/// query, a query queued behind a *queued* analysis, and the queued
/// analysis itself — every in-flight id gets a terminal event, the
/// queued analysis is cancelled, and the daemon exits.
#[test]
fn shutdown_drains_and_terminates_every_in_flight_id() {
    let lines = converse(
        r#"{"op":"register","service":"a","builtin":"fig7","prewarm":true}
{"op":"query","id":"qa","service":"a","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":12}
{"op":"register","service":"b","builtin":"fig7","prewarm":true}
{"op":"query","id":"qb","service":"b","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}
{"op":"shutdown"}
{"op":"list"}
"#,
        &DaemonOptions { slots: 1, ..DaemonOptions::default() },
    );
    assert!(lines.iter().any(|l| str_field(l, "op") == "shutdown"));
    // Every acked query id has exactly one cancelled terminal event.
    for id in ["qa", "qb"] {
        let finishes: Vec<&Value> = lines
            .iter()
            .filter(|l| str_field(l, "event") == "finished" && str_field(l, "id") == id)
            .collect();
        assert_eq!(finishes.len(), 1, "{id} gets exactly one terminal event");
        assert_eq!(str_field(finishes[0], "outcome"), "cancelled", "{id}");
    }
    // The queued analysis of `b` was cancelled and reported terminally.
    let b_terminal = lines.iter().any(|l| {
        str_field(l, "service") == "b"
            && (str_field(l, "event") == "analysis_failed"
                || str_field(l, "event") == "analysis_ready")
    });
    assert!(b_terminal, "b's analysis job settles before exit");
    // The post-shutdown request is never processed.
    assert!(!lines.iter().any(|l| str_field(l, "op") == "list"));
}

#[test]
fn artifact_registration_roundtrips_through_the_wire() {
    use apiphany_core::Engine;
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

    let artifact =
        Engine::from_witnesses(fig7_library(), fig4_witnesses()).save_analysis();
    let script = format!(
        "{}\n{}\n",
        Value::obj([
            ("op", Value::from("register")),
            ("service", Value::from("snap")),
            ("artifact", artifact.to_value()),
        ])
        .to_json(),
        r#"{"op":"query","id":"q","service":"snap","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}"#,
    );
    let lines = converse(&script, &DaemonOptions::default());
    assert_eq!(lines[0].get("ok").and_then(Value::as_bool), Some(true));
    let finished = lines
        .iter()
        .find(|l| str_field(l, "event") == "finished")
        .expect("query finishes");
    assert_eq!(finished.get("n_candidates").and_then(Value::as_int), Some(2));
}

/// The `metrics` and `dump-recorder` ops over stdio, and the
/// deterministic post-drain view: once `run_daemon` returns every job
/// has settled, so the options' shared telemetry handle must hold the
/// run's full counts.
#[test]
fn metrics_ops_respond_and_the_registry_holds_the_run() {
    let opts = DaemonOptions::default();
    let telemetry = opts.telemetry.clone();
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"query","id":"q1","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}
{"op":"metrics"}
{"op":"dump-recorder"}
"#,
        &opts,
    );
    // The in-flight snapshot has the right shape (its counts race the
    // query, so only the shape is asserted here).
    let metrics = lines
        .iter()
        .find(|l| str_field(l, "op") == "metrics")
        .expect("metrics reply");
    assert_eq!(metrics.get("ok").and_then(Value::as_bool), Some(true));
    let snap = metrics.get("metrics").expect("snapshot object");
    assert!(snap.get("uptime_ms").and_then(Value::as_int).is_some());
    assert!(snap.get("counters").is_some());
    let dump = lines
        .iter()
        .find(|l| str_field(l, "op") == "dump-recorder")
        .expect("dump-recorder reply");
    assert!(dump.get("events").and_then(Value::as_array).is_some());
    // Post-drain, deterministically: the search ran and its jobs
    // settled, all visible through the shared registry.
    let snap = telemetry.snapshot();
    assert!(snap.counter("search.nodes").unwrap_or(0) > 0, "search counted nodes");
    assert!(snap.counter("jobs.completed").unwrap_or(0) >= 2, "analysis + search settled");
    let events = telemetry.recorder_dump();
    assert!(
        events.iter().any(|e| e.kind == "job"
            && e.field("kind") == Some("search")
            && e.field("state") == Some("done")),
        "recorder holds the search job's terminal transition: {events:?}"
    );
}

/// The per-query `finished` event surfaces the dead-set counters: the
/// second identical query on the warm engine must report the same node
/// count (the dead-end cache is per-run, so streams stay deterministic).
#[test]
fn finished_events_carry_search_stats() {
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"query","id":"q1","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}
"#,
        &DaemonOptions::default(),
    );
    let finished = lines
        .iter()
        .find(|l| str_field(l, "event") == "finished")
        .expect("finished event");
    let search = finished.get("search").expect("search stats block");
    assert!(search.get("nodes").and_then(Value::as_int).unwrap_or(0) > 0);
    for key in ["dead_hits", "dead_shared_hits", "dead_misses", "dead_evicted"] {
        assert!(search.get(key).and_then(Value::as_int).is_some(), "missing {key}");
    }
}

/// The daemon's slot count bounds the threads a wire query can claim: a
/// `threads: 2000` query at `--slots 2` runs at most two search workers,
/// so the process stays under slots plus a fixed overhead, and it streams
/// exactly what the same query at `threads: 1` streams.
#[cfg(target_os = "linux")]
#[test]
fn wire_threads_are_capped_at_the_slot_count() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    use std::time::Duration;

    const SLOTS: usize = 2;
    // Main thread, stdin reader, and the two queries' search teams
    // (the capped one at `SLOTS` workers), with room to spare.
    const OVERHEAD: usize = 8;
    let mut child = Command::new(env!("CARGO_BIN_EXE_synthd"))
        .args(["--stdio", "--slots", &SLOTS.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("start synthd");
    // Sample the daemon's thread count until the process is reaped.
    let status = format!("/proc/{}/status", child.id());
    let sampler = std::thread::spawn(move || {
        let mut peak = 0usize;
        while let Ok(text) = std::fs::read_to_string(&status) {
            let threads = text
                .lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|n| n.trim().parse().ok());
            peak = peak.max(threads.unwrap_or(0));
            std::thread::sleep(Duration::from_millis(2));
        }
        peak
    });
    let query = |id: &str, threads: usize| {
        format!(
            r#"{{"op":"query","id":"{id}","service":"demo","inputs":{{"channel_name":"Channel.name"}},"output":"[Profile.email]","depth":8,"threads":{threads}}}"#
        )
    };
    let script = format!(
        "{}\n{}\n{}\n",
        r#"{"op":"register","service":"demo","builtin":"fig7"}"#,
        query("wide", 2000),
        query("one", 1),
    );
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script.as_bytes())
        .expect("send the script");
    let output = child.wait_with_output().expect("synthd exits");
    assert!(output.status.success(), "synthd failed: {:?}", output.status);
    let peak = sampler.join().expect("sampler thread");
    assert!(peak > 0, "the thread count was sampled");
    assert!(peak <= SLOTS + OVERHEAD, "synthd ran {peak} threads at --slots {SLOTS}");

    let lines: Vec<Value> = String::from_utf8(output.stdout)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}")))
        .collect();
    // One query's events, minus its id, wall-clock fields and search
    // counters (node counts are a per-thread-count cost, not output).
    const VARYING: [&str; 5] = ["id", "elapsed_ms", "total_ms", "re_ms", "search"];
    let stream = |id: &str| -> Vec<String> {
        lines
            .iter()
            .filter(|l| str_field(l, "id") == id && !str_field(l, "event").is_empty())
            .map(|l| {
                let fields = l.as_object().expect("events are objects");
                let kept = fields
                    .iter()
                    .filter(|(k, _)| !VARYING.contains(&k.as_str()))
                    .map(|(k, v)| (k.clone(), v.clone()));
                Value::obj(kept).to_json()
            })
            .collect()
    };
    let wide = stream("wide");
    assert!(wide.last().is_some_and(|l| l.contains("\"finished\"")), "{wide:?}");
    assert_eq!(wide, stream("one"));
}

/// A search worker that dies without a `Finished` event closes its query
/// out with an `error` event carrying the failed job's reason.
#[test]
fn a_dead_search_worker_reports_why_it_died() {
    let opts = DaemonOptions {
        fault: FaultPlane::parse(1, "worker_start=panic").expect("valid fault spec"),
        ..DaemonOptions::default()
    };
    let lines = converse(
        r#"{"op":"register","service":"demo","builtin":"fig7"}
{"op":"query","id":"q1","service":"demo","inputs":{"channel_name":"Channel.name"},"output":"[Profile.email]","depth":7}
"#,
        &opts,
    );
    let terminal: Vec<&Value> = lines
        .iter()
        .filter(|l| str_field(l, "id") == "q1" && ["error", "finished"].contains(&str_field(l, "event")))
        .collect();
    assert_eq!(terminal.len(), 1, "exactly one terminal event: {lines:?}");
    assert_eq!(str_field(terminal[0], "event"), "error");
    let message = str_field(terminal[0], "error");
    assert!(message.starts_with("search worker panicked: "), "{message}");
    assert!(message.contains("injected fault"), "{message}");
}
