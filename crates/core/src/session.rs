//! Synthesis sessions: a pull-based event stream over one synthesis run.
//!
//! A [`Session`] is created by [`crate::Engine::session`] and implements
//! `Iterator<Item = Event>`: candidates arrive as they are generated and
//! RE-ranked (paper Fig. 1, right half), interleaved with progress markers,
//! and the final [`Event::Finished`] carries the complete
//! [`RunResult`]. The stream is *live* — the first
//! [`Event::CandidateFound`] is observable long before the budget elapses —
//! and *step-driven*: the search runs on a dedicated worker thread behind a
//! rendezvous channel, so it only advances past an event when the consumer
//! pulls it.
//!
//! Cancellation is cooperative: [`Session::cancel`] (or any clone of
//! [`Session::cancel_token`]) flips a flag the TTN search polls at every
//! node. A cancelled session still delivers its final `Finished` event with
//! everything ranked so far, and dropping a session mid-stream cancels and
//! reaps the worker.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apiphany_lang::anf::AnfProgram;
use apiphany_lang::Program;
use apiphany_mining::Query;
use apiphany_re::{cost_of, ReContext, Ranker};
use apiphany_synth::{CancelToken, Outcome, SynthEvent};

use crate::fault::{FaultPlane, FaultPoint};
use crate::job::{panic_message, Job, JobOutcome, JobRuntime, JobState};
use crate::{EngineInner, RankedProgram, RunConfig, RunResult};

/// One notification from a [`Session`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A distinct well-typed candidate, ranked by retrospective execution
    /// at the moment it was generated.
    CandidateFound {
        /// The synthesized, well-typed `λ_A` program.
        program: Program,
        /// The canonical (alpha-renamed ANF) form of `program`, computed
        /// once during synthesis — compare against a canonicalized gold
        /// instead of re-canonicalizing the streamed program.
        canonical: AnfProgram,
        /// 1-based generation rank (the paper's `r_orig`).
        r_orig: usize,
        /// 1-based RE rank at this moment (the paper's `r_RE`).
        r_re_now: usize,
        /// Total cost (AST size + penalties).
        cost: f64,
        /// Time since the session started when the candidate appeared.
        elapsed: Duration,
    },
    /// Every TTN path of length `depth` has been processed; any further
    /// candidate comes from a longer path.
    DepthExhausted {
        /// The completed iterative-deepening level.
        depth: usize,
    },
    /// The budget ran out (wall-clock elapsed or candidate cap reached).
    /// Followed by the final `Finished` event.
    BudgetExhausted,
    /// The run is over; carries the final ranking. Always the last event.
    Finished(RunResult),
}

/// A cancellable, streaming synthesis run: an `Iterator<Item = Event>`
/// over one query's candidates, created by [`crate::Engine::session`].
#[derive(Debug)]
pub struct Session {
    rx: Option<Receiver<Event>>,
    cancel: CancelToken,
    worker: Option<JoinHandle<()>>,
    /// The scheduler-tracked job, when the session runs on a
    /// [`JobRuntime`] rather than a dedicated thread.
    job: Option<Job<()>>,
    finished: bool,
}

impl Session {
    pub(crate) fn spawn(inner: Arc<EngineInner>, query: Query, cfg: RunConfig) -> Session {
        // A rendezvous channel: the worker blocks on every send until the
        // consumer pulls, so the search is step-driven by the iterator.
        let (tx, rx) = sync_channel(0);
        let cancel = CancelToken::new();
        let worker_cancel = cancel.clone();
        let worker = std::thread::spawn(move || {
            run_worker(&inner, &query, &cfg, &worker_cancel, &tx);
        });
        Session { rx: Some(rx), cancel, worker: Some(worker), job: None, finished: false }
    }

    /// Like [`Session::spawn`], but the worker body runs as a tracked
    /// `Search` [`Job`] on a [`JobRuntime`]'s shared pool instead of a
    /// dedicated thread: when every pool slot is busy the session waits
    /// its turn (FIFO within the search lane), and its wall-clock budget
    /// starts counting only once the job actually starts. This is how
    /// [`crate::Scheduler`] multiplexes many concurrent sessions over a
    /// bounded thread count; the event stream is produced by the same
    /// worker body, so it is identical to a dedicated-thread run of the
    /// same query and config.
    ///
    /// The job and the session share one cancellation token, and the job
    /// settles when the worker body returns: `Cancelled` if the token was
    /// raised, `Done` otherwise — and `Failed` (with the panic's message)
    /// if the body panicked, so subscribers observe a structured reason
    /// instead of a stream that just stops.
    pub(crate) fn spawn_job(
        runtime: &JobRuntime,
        job: Job<()>,
        inner: Arc<EngineInner>,
        query: Query,
        cfg: RunConfig,
        fault: FaultPlane,
    ) -> Session {
        let (tx, rx) = sync_channel(0);
        let cancel = job.cancel_token();
        let worker_cancel = cancel.clone();
        let worker_job = job.clone();
        runtime.spawn(worker_job.kind(), move || {
            // A cancelled-while-queued session still runs its body: the
            // search observes the token immediately and the consumer gets
            // its final `Finished` event (outcome `Cancelled`).
            worker_job.mark_running();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // The worker-start injection point: a panic here is a
                // worker dying before it streams anything.
                fault.trip(FaultPoint::WorkerStart);
                run_worker(&inner, &query, &cfg, &worker_cancel, &tx)
            }));
            worker_job.settle(match outcome {
                // An abandoned stream (consumer dropped mid-run) counts
                // as cancelled: the run did not complete.
                Ok(Some(Outcome::Cancelled) | None) => JobOutcome::Cancelled,
                Ok(Some(_)) => JobOutcome::Done(()),
                Err(payload) => {
                    JobOutcome::Failed(panic_message(payload.as_ref()))
                }
            });
        });
        // No JoinHandle: the pool owns the thread. Dropping the session
        // cancels the token and closes the channel, which makes the job
        // finish promptly and free its slot.
        Session { rx: Some(rx), cancel, worker: None, job: Some(job), finished: false }
    }

    /// The state of the session's [`Job`], when it was submitted through
    /// a [`crate::Scheduler`] (`None` for dedicated-thread sessions,
    /// which are not scheduled units).
    pub fn job_state(&self) -> Option<JobState> {
        self.job.as_ref().map(Job::state)
    }

    /// The session's scheduler job handle, when it has one.
    pub fn job(&self) -> Option<&Job<()>> {
        self.job.as_ref()
    }

    /// Non-blocking pull: the next event if the worker has one ready (it
    /// is parked on the rendezvous send), `None` when it is still
    /// searching — or still waiting for a pool slot. Returns `None`
    /// forever once [`Event::Finished`] has been delivered.
    ///
    /// This is the primitive a consumer of many sessions round-robins
    /// over (the `synthd` daemon does): a blocked `recv` on one session
    /// must never starve the others.
    pub fn try_next(&mut self) -> Option<Event> {
        if self.finished {
            return None;
        }
        let rx = self.rx.as_ref()?;
        match rx.try_recv() {
            Ok(event) => {
                if matches!(event, Event::Finished(_)) {
                    self.finished = true;
                }
                Some(event)
            }
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                self.finished = true;
                None
            }
        }
    }

    /// Whether the final [`Event::Finished`] has been delivered (the
    /// iterator and [`Session::try_next`] will yield nothing more).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Requests cooperative cancellation. The session keeps yielding any
    /// in-flight events and then delivers [`Event::Finished`] with
    /// everything ranked so far (its stats report
    /// [`Outcome::Cancelled`]).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clonable handle for cancelling this session from elsewhere (a
    /// request handler's shutdown hook, another thread, a timeout reaper).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Consumes the rest of the stream and returns the final result.
    ///
    /// # Panics
    ///
    /// Panics if the session's worker terminated abnormally (a bug — the
    /// worker always delivers `Finished`, even when cancelled).
    pub fn drain(mut self) -> RunResult {
        for event in &mut self {
            if let Event::Finished(result) = event {
                return result;
            }
        }
        panic!("session worker terminated without a Finished event");
    }
}

impl Iterator for Session {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if self.finished {
            return None;
        }
        let rx = self.rx.as_ref()?;
        match rx.recv() {
            Ok(event) => {
                if matches!(event, Event::Finished(_)) {
                    self.finished = true;
                }
                Some(event)
            }
            Err(_) => {
                // Worker gone without Finished: only possible if it
                // panicked; surface as end-of-stream (drain() panics).
                self.finished = true;
                None
            }
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.cancel.cancel();
        // Close the channel first so a worker blocked on the rendezvous
        // send unblocks immediately, then reap it.
        self.rx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The session body: synthesize, rank each candidate as it appears, stream
/// events, and finish with the complete ranking. Returns the synthesis
/// outcome, or `None` when the consumer abandoned the stream mid-run.
fn run_worker(
    inner: &EngineInner,
    query: &Query,
    cfg: &RunConfig,
    cancel: &CancelToken,
    tx: &SyncSender<Event>,
) -> Option<Outcome> {
    let start = Instant::now();
    let ctx = ReContext::new(inner.synthesizer.semlib(), &inner.witnesses);
    let mut ranker: Ranker<RankedProgram> = Ranker::new();
    let mut abandoned = false;
    let stats = inner.synthesizer.synthesize(query, &cfg.synthesis, cancel, &mut |event| {
        let to_send = match event {
            SynthEvent::Candidate(cand) => {
                let cost = cost_of(&ctx, &cand.program, query, &cfg.cost);
                let rank_now = ranker.rank_if_inserted(&cost, cand.index);
                let notification = Event::CandidateFound {
                    program: cand.program.clone(),
                    canonical: cand.canonical.clone(),
                    r_orig: cand.index + 1,
                    r_re_now: rank_now,
                    cost: cost.total(),
                    elapsed: cand.elapsed,
                };
                let entry = RankedProgram {
                    program: cand.program,
                    canonical: cand.canonical,
                    gen_index: cand.index,
                    rank_at_generation: rank_now,
                    cost: cost.total(),
                    path_len: cand.path_len,
                    elapsed: cand.elapsed,
                };
                let index = cand.index;
                ranker.insert(entry, index, cost);
                notification
            }
            SynthEvent::DepthExhausted { depth } => Event::DepthExhausted { depth },
        };
        if tx.send(to_send).is_err() {
            // Consumer dropped the session: stop working.
            abandoned = true;
            return false;
        }
        true
    });
    if abandoned {
        return None;
    }
    let re_time = ranker.total_re_time();
    let ranked: Vec<RankedProgram> =
        ranker.into_entries().into_iter().map(|entry| entry.item).collect();
    let candidate_cap_hit = cfg
        .synthesis
        .budget
        .max_candidates
        .is_some_and(|cap| stats.candidates >= cap);
    // A cancel can race the cap check: if the outcome says Cancelled,
    // report cancellation, not budget exhaustion.
    let budget_exhausted = stats.outcome == Outcome::TimedOut
        || (stats.outcome == Outcome::Stopped && candidate_cap_hit);
    let outcome = stats.outcome;
    let result = RunResult { ranked, stats, re_time, total_time: start.elapsed() };
    if budget_exhausted && tx.send(Event::BudgetExhausted).is_err() {
        return None;
    }
    if tx.send(Event::Finished(result)).is_err() {
        return None;
    }
    Some(outcome)
}
