//! The session scheduler: many concurrent queries over one bounded pool.
//!
//! An [`Engine::session`](crate::Engine::session) gives every query a
//! dedicated worker thread — fine for one caller, unbounded for a
//! serving front door. A [`Scheduler`] instead submits every session as
//! a `Search` [`Job`] on a [`JobRuntime`] — **one shared
//! [`SharedPool`](apiphany_ttn::pool::SharedPool)** with a fixed number
//! of slots: at most `slots` jobs execute at once, later search
//! submissions queue FIFO, and each freed slot goes to the oldest
//! waiting session (alternating fairly with any analysis jobs a
//! [`ServiceCatalog::with_runtime`] catalog queues on the same runtime).
//! Budgets stay per-session (a session's wall-clock starts when its job
//! starts, not while it waits), and cancellation works exactly as for
//! dedicated sessions — cancelling a *queued* session makes its job a
//! prompt no-op.
//!
//! The scheduler changes **where** a session runs, never **what** it
//! emits: a scheduled session's event stream — candidates, their order,
//! every rank and cost, the depth markers, the final ranking — is
//! identical to a dedicated [`Engine::session`](crate::Engine::session)
//! run of the same query and config (only the wall-clock `elapsed` /
//! `re_time` measurements differ, as they do between any two runs).
//! `tests/serving.rs` property-tests this guarantee, including under
//! concurrent interleaving.
//!
//! A consumer of many scheduled sessions polls them round-robin with
//! [`Session::try_next`], so one stalled (or still queued) session never
//! blocks the others' events:
//!
//! ```
//! use apiphany_core::{Engine, Event, QuerySpec, Scheduler};
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//!
//! let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
//! let scheduler = Scheduler::new(2);
//! let spec = QuerySpec::output("[Profile.email]")
//!     .input("channel_name", "Channel.name")
//!     .depth(7);
//! let mut sessions: Vec<_> = (0..3).map(|_| scheduler.submit(&engine, &spec).unwrap()).collect();
//! let mut finished = 0;
//! while !sessions.is_empty() {
//!     for session in &mut sessions {
//!         if let Some(Event::Finished(_)) = session.try_next() {
//!             finished += 1;
//!         }
//!     }
//!     sessions.retain(|session| !session.is_finished());
//!     std::thread::yield_now();
//! }
//! assert_eq!(finished, 3);
//! ```

use std::sync::Arc;

use apiphany_ttn::pool::SharedPool;

use crate::fault::FaultPlane;
use crate::job::{Job, JobKind, JobOutcome, JobRuntime};
use crate::{Engine, EngineError, QuerySpec, ServiceCatalog, ServiceLookup, Session};

/// How [`Scheduler::submit_catalog_async`] dispatched a query.
#[derive(Debug)]
pub enum CatalogSubmission {
    /// The service was warm: the session was submitted synchronously.
    Started(Session),
    /// The service is cold: the query is queued behind this analysis
    /// [`Job`] and the session will reach the `deliver` callback when it
    /// settles.
    Pending(Job<Engine>),
}

/// Multiplexes concurrent synthesis sessions — as `Search` [`Job`]s on a
/// [`JobRuntime`] — over one shared worker pool. See the module docs.
#[derive(Debug, Clone)]
pub struct Scheduler {
    runtime: JobRuntime,
    fault: FaultPlane,
}

impl Scheduler {
    /// A scheduler with its own runtime of `slots` worker threads.
    pub fn new(slots: usize) -> Scheduler {
        Scheduler { runtime: JobRuntime::new(slots), fault: FaultPlane::disabled() }
    }

    /// A scheduler over an existing pool (to share slots with other
    /// schedulers or pool users).
    pub fn with_pool(pool: SharedPool) -> Scheduler {
        Scheduler { runtime: JobRuntime::with_pool(pool), fault: FaultPlane::disabled() }
    }

    /// A scheduler over an existing [`JobRuntime`] — the way to share one
    /// job queue (and one id space) with a
    /// [`ServiceCatalog::with_runtime`] catalog, so search and analysis
    /// jobs schedule through the same two-lane pool.
    pub fn with_runtime(runtime: JobRuntime) -> Scheduler {
        Scheduler { runtime, fault: FaultPlane::disabled() }
    }

    /// Installs a fault-injection plane: search workers trip the
    /// `worker_start` point as they begin (testing/chaos only; the
    /// default disabled plane costs one branch per worker start).
    #[must_use]
    pub fn with_fault(mut self, fault: FaultPlane) -> Scheduler {
        self.fault = fault;
        self
    }

    /// The number of sessions that can run concurrently.
    pub fn slots(&self) -> usize {
        self.runtime.slots()
    }

    /// Sessions submitted but still waiting for a slot.
    pub fn queued(&self) -> usize {
        self.runtime.pool().queued_lane(apiphany_ttn::pool::Lane::Search)
    }

    /// The underlying pool handle.
    pub fn pool(&self) -> &SharedPool {
        self.runtime.pool()
    }

    /// The job runtime this scheduler submits through.
    pub fn runtime(&self) -> &JobRuntime {
        &self.runtime
    }

    /// Submits a typed query against an explicit engine; returns the
    /// streaming [`Session`] immediately (its worker occupies a pool slot
    /// once one frees up). The session is tracked as a `Search` job —
    /// [`Session::job_state`] observes it, and cancelling the session
    /// cancels the job.
    ///
    /// # Errors
    ///
    /// [`EngineError::Query`] when a type fails to resolve,
    /// [`EngineError::Budget`] when the spec's budget is invalid.
    pub fn submit(&self, engine: &Engine, spec: &QuerySpec) -> Result<Session, EngineError> {
        let query = spec.resolve(engine.semlib())?;
        let mut cfg = spec.run_config();
        cfg.synthesis.budget.validate()?;
        cfg.synthesis.telemetry = self.runtime.telemetry().clone();
        let label = spec.service.clone().unwrap_or_default();
        let job = self.runtime.new_job(JobKind::Search, label);
        Ok(Session::spawn_job(
            &self.runtime,
            job,
            Arc::clone(&engine.inner),
            query,
            cfg,
            self.fault.clone(),
        ))
    }

    /// Submits a catalog-routed spec: looks the service up (**blocking**
    /// on its analyze-once job if this is first use), then submits as
    /// [`Scheduler::submit`]. For the non-blocking twin see
    /// [`Scheduler::submit_catalog_async`].
    ///
    /// # Errors
    ///
    /// Additionally [`EngineError::Spec`] when the spec names no service,
    /// [`EngineError::UnknownService`] for unregistered names, and
    /// [`EngineError::Analysis`] when the analysis job fails.
    pub fn submit_catalog(
        &self,
        catalog: &ServiceCatalog,
        spec: &QuerySpec,
    ) -> Result<Session, EngineError> {
        let name = spec
            .service
            .as_deref()
            .ok_or_else(|| EngineError::Spec("catalog queries must name a service".into()))?;
        self.submit(&catalog.engine(name)?, spec)
    }

    /// The never-blocking catalog submission: a warm service's session is
    /// submitted immediately ([`CatalogSubmission::Started`]); a cold
    /// service's query **enqueues behind its analysis job** — when the
    /// job settles, the continuation submits the session (or produces the
    /// analysis error) and hands it to `deliver`.
    ///
    /// `deliver` runs on the thread that settles the analysis job, and it
    /// runs *before* the pool worker picks its next job — so the queued
    /// query enters the search lane ahead of any analysis job submitted
    /// after it, which is what makes "warm queries stream while a cold
    /// service mines" an ordering guarantee rather than a timing one.
    ///
    /// # Errors
    ///
    /// Synchronously: [`EngineError::Spec`] (no service named),
    /// [`EngineError::UnknownService`], and — for warm services — the
    /// [`Scheduler::submit`] errors. Cold-service resolution/budget
    /// errors arrive through `deliver`.
    pub fn submit_catalog_async(
        &self,
        catalog: &ServiceCatalog,
        spec: &QuerySpec,
        deliver: impl FnOnce(Result<Session, EngineError>) + Send + 'static,
    ) -> Result<CatalogSubmission, EngineError> {
        let name = spec
            .service
            .as_deref()
            .ok_or_else(|| EngineError::Spec("catalog queries must name a service".into()))?;
        match catalog.lookup(name)? {
            ServiceLookup::Ready(engine) => {
                Ok(CatalogSubmission::Started(self.submit(&engine, spec)?))
            }
            ServiceLookup::Pending(job) => {
                let scheduler = self.clone();
                let spec = spec.clone();
                let service = name.to_string();
                job.on_terminal(move |outcome| {
                    let submitted = match outcome {
                        JobOutcome::Done(engine) => scheduler.submit(engine, &spec),
                        JobOutcome::Failed(reason) => Err(EngineError::Analysis {
                            service,
                            reason: reason.clone(),
                        }),
                        JobOutcome::Cancelled => Err(EngineError::Analysis {
                            service,
                            reason: "analysis cancelled".into(),
                        }),
                    };
                    deliver(submitted);
                });
                Ok(CatalogSubmission::Pending(job))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

    fn engine() -> Engine {
        Engine::from_witnesses(fig7_library(), fig4_witnesses())
    }

    fn email_spec() -> QuerySpec {
        QuerySpec::output("[Profile.email]").input("channel_name", "Channel.name").depth(7)
    }

    /// The semantic fingerprint of an event stream: everything except the
    /// wall-clock measurements.
    fn fingerprint(events: &[Event]) -> Vec<String> {
        events
            .iter()
            .map(|e| match e {
                Event::CandidateFound { canonical, r_orig, r_re_now, cost, .. } => {
                    format!("cand {r_orig} {r_re_now} {cost:.6} {canonical:?}")
                }
                Event::DepthExhausted { depth } => format!("depth {depth}"),
                Event::BudgetExhausted => "budget".to_string(),
                Event::Finished(result) => format!(
                    "finished {:?} {:?}",
                    result.stats.outcome,
                    result
                        .ranked
                        .iter()
                        .map(|r| (r.gen_index, r.rank_at_generation))
                        .collect::<Vec<_>>()
                ),
            })
            .collect()
    }

    #[test]
    fn scheduled_sessions_match_dedicated_sessions() {
        let engine = engine();
        let spec = email_spec();
        let dedicated: Vec<Event> = engine.open(&spec).unwrap().collect();
        let scheduler = Scheduler::new(2);
        let scheduled: Vec<Event> = scheduler.submit(&engine, &spec).unwrap().collect();
        assert_eq!(fingerprint(&scheduled), fingerprint(&dedicated));
    }

    /// More sessions than slots: everyone completes, each stream intact.
    #[test]
    fn oversubscribed_scheduler_completes_every_session() {
        let engine = engine();
        let spec = email_spec();
        let reference = fingerprint(&engine.open(&spec).unwrap().collect::<Vec<_>>());
        let scheduler = Scheduler::new(2);
        let mut sessions: Vec<(usize, Session)> =
            (0..6).map(|id| (id, scheduler.submit(&engine, &spec).unwrap())).collect();
        let mut streams: Vec<Vec<Event>> = (0..6).map(|_| Vec::new()).collect();
        while !sessions.is_empty() {
            for (id, session) in &mut sessions {
                if let Some(event) = session.try_next() {
                    streams[*id].push(event);
                }
            }
            sessions.retain(|(_, session)| !session.is_finished());
            std::thread::yield_now();
        }
        for (id, stream) in streams.iter().enumerate() {
            assert_eq!(fingerprint(stream), reference, "session {id}");
        }
    }

    #[test]
    fn cancelling_a_queued_session_is_prompt() {
        let engine = engine();
        // One slot, occupied by a deep session; the queued one is
        // cancelled before it ever starts.
        let scheduler = Scheduler::new(1);
        let deep = email_spec().depth(12);
        let running = scheduler.submit(&engine, &deep).unwrap();
        let queued = scheduler.submit(&engine, &deep).unwrap();
        queued.cancel();
        // Unblock the slot.
        running.cancel();
        let drained = running.drain();
        assert_eq!(drained.stats.outcome, apiphany_synth::Outcome::Cancelled);
        let result = queued.drain();
        assert_eq!(result.stats.outcome, apiphany_synth::Outcome::Cancelled);
        assert!(result.ranked.is_empty());
    }

    #[test]
    fn submit_validates_spec_and_budget() {
        let engine = engine();
        let scheduler = Scheduler::new(1);
        let bad_type = QuerySpec::output("[Nope]").depth(7);
        assert!(matches!(
            scheduler.submit(&engine, &bad_type),
            Err(EngineError::Query(_))
        ));
        let bad_budget = email_spec().depth(0);
        assert!(matches!(
            scheduler.submit(&engine, &bad_budget),
            Err(EngineError::Budget(_))
        ));
    }

    #[test]
    fn submit_catalog_routes_by_name() {
        let catalog = ServiceCatalog::new();
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        let scheduler = Scheduler::new(2);
        let spec = email_spec().service("demo");
        let result = scheduler.submit_catalog(&catalog, &spec).unwrap().drain();
        assert_eq!(result.ranked.len(), 2);
        assert!(matches!(
            scheduler.submit_catalog(&catalog, &email_spec().service("nope")),
            Err(EngineError::UnknownService(_))
        ));
        assert!(matches!(
            scheduler.submit_catalog(&catalog, &email_spec()),
            Err(EngineError::Spec(_))
        ));
    }

    /// Scheduled sessions are tracked as `Search` jobs: the job state
    /// mirrors the session lifecycle and shares its cancel token.
    #[test]
    fn sessions_are_tracked_as_search_jobs() {
        use crate::job::JobState;
        let engine = engine();
        let scheduler = Scheduler::new(1);
        let session = scheduler.submit(&engine, &email_spec()).unwrap();
        let job = session.job().expect("scheduled sessions carry a job").clone();
        assert_eq!(job.kind().name(), "search");
        let result = session.drain();
        assert_eq!(result.ranked.len(), 2);
        assert_eq!(job.wait(), JobState::Done);
        // A cancelled session's job settles Cancelled.
        let deep = scheduler.submit(&engine, &email_spec().depth(12)).unwrap();
        let deep_job = deep.job().unwrap().clone();
        deep.cancel();
        let _ = deep.drain();
        assert_eq!(deep_job.wait(), JobState::Cancelled);
    }

    /// An injected worker-start panic settles the session's job `Failed`
    /// with a structured reason — subscribers observe why the stream
    /// stopped instead of hanging on a worker that died silently.
    #[test]
    fn panicking_search_worker_settles_its_job_failed() {
        use crate::job::JobState;
        let engine = engine();
        let scheduler = Scheduler::new(1)
            .with_fault(crate::FaultPlane::parse(1, "worker_start=panic").unwrap());
        let session = scheduler.submit(&engine, &email_spec()).unwrap();
        let job = session.job().unwrap().clone();
        let events: Vec<Event> = session.collect();
        assert!(
            events.iter().all(|e| !matches!(e, Event::Finished(_))),
            "a dead worker delivers no Finished"
        );
        match job.wait() {
            JobState::Failed(reason) => assert!(reason.contains("injected fault"), "{reason}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    /// A warm service submits synchronously; a cold one enqueues behind
    /// its analysis job and the continuation delivers the session.
    #[test]
    fn submit_catalog_async_chains_on_analysis() {
        use std::sync::mpsc;
        let runtime = crate::JobRuntime::new(2);
        let catalog = ServiceCatalog::new().with_runtime(runtime.clone());
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        let scheduler = Scheduler::with_runtime(runtime);
        let spec = email_spec().service("demo");
        let (tx, rx) = mpsc::channel();
        let submission = scheduler
            .submit_catalog_async(&catalog, &spec, move |res| tx.send(res).unwrap())
            .unwrap();
        let CatalogSubmission::Pending(job) = submission else {
            panic!("cold service must go through its analysis job");
        };
        assert_eq!(job.label(), "demo");
        let session = rx.recv().unwrap().expect("analysis succeeds, session submits");
        assert_eq!(session.drain().ranked.len(), 2);
        // Now warm: the same call starts synchronously.
        let (tx2, _rx2) = mpsc::channel();
        match scheduler
            .submit_catalog_async(&catalog, &spec, move |res| tx2.send(res).unwrap())
            .unwrap()
        {
            CatalogSubmission::Started(session) => {
                assert_eq!(session.drain().ranked.len(), 2);
            }
            CatalogSubmission::Pending(_) => panic!("warm service must start synchronously"),
        }
    }

    /// Cancelling the analysis job a query is queued behind delivers a
    /// structured error instead of a session.
    #[test]
    fn cancelled_analysis_fails_queued_queries() {
        use std::sync::mpsc;
        // One slot, held by a long search the consumer never pulls past
        // its first event: the analysis job behind it stays queued.
        let runtime = crate::JobRuntime::new(1);
        let catalog = ServiceCatalog::new().with_runtime(runtime.clone());
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        let scheduler = Scheduler::with_runtime(runtime);
        let blocker_engine = engine();
        let blocker = scheduler.submit(&blocker_engine, &email_spec().depth(12)).unwrap();
        let (tx, rx) = mpsc::channel();
        let submission = scheduler
            .submit_catalog_async(&catalog, &email_spec().service("demo"), move |res| {
                tx.send(res).unwrap()
            })
            .unwrap();
        let CatalogSubmission::Pending(job) = submission else {
            panic!("cold service must be pending");
        };
        job.cancel();
        // Unblock the slot so the pool reaches the cancelled job.
        blocker.cancel();
        let _ = blocker.drain();
        match rx.recv().unwrap() {
            Err(EngineError::Analysis { service, reason }) => {
                assert_eq!(service, "demo");
                assert!(reason.contains("cancelled"));
            }
            other => panic!("expected cancelled-analysis error, got {other:?}"),
        }
        // The cancelled job unregistered the cold service.
        assert!(catalog.inspect("demo").is_none());
    }

    /// `top_k` is a reporting cap, not a search cap: the underlying run
    /// is identical, the caller just truncates.
    #[test]
    fn top_k_trims_reporting_only() {
        let engine = engine();
        let spec = email_spec().top_k(1);
        let result = engine.open(&spec).unwrap().drain();
        assert_eq!(result.ranked.len(), 2);
        assert_eq!(result.top(spec.top_k.unwrap()).len(), 1);
    }
}
