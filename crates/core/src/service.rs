//! The BIST verdict service: a persistent worker pool for sharded
//! (standard × carrier × DUT) verdict campaigns.
//!
//! One [`BistEngine::try_run_with`] call serves one capture; a
//! production line serves many DUTs against many deployments at
//! once. The service keeps a pool of long-lived worker threads, each
//! owning its [`BistScratch`] arena for the life of the pool. Every
//! job runs its verdict (reconstruction feed included) sequentially on
//! a warm arena, and the cores are saturated by running many jobs, not
//! by splitting one.
//!
//! Jobs flow through a bounded queue ([`ServiceConfig::queue_depth`])
//! so a fast submitter gets backpressure instead of unbounded memory
//! growth: [`VerdictService::try_submit`] blocks while the queue is
//! full and no job is ever dropped. A job whose attempt panics is
//! retried in place once, then surfaced as a typed
//! [`BistError::WorkerPanic`] — the pool itself survives every panic
//! (the worker catches the unwind and moves to the next job). This is the only retry layer: the fault-coverage
//! [`campaign`](crate::campaign) runs its verdicts on this pool too.
//!
//! The byte-level companion is [`wire`](crate::wire): sample blocks
//! and partial reports cross a transport as length-prefixed frames.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use rfbist_rfchain::impairments::TxImpairments;
use rfbist_rfchain::txchain::HomodyneTx;
use rfbist_signal::prelude::*;

use crate::bist::{BistConfig, BistEngine, BistScratch};
use crate::campaign::Deployment;
use crate::error::BistError;
use crate::mask::{MaskLibrary, SpectralMask};
use crate::report::BistReport;

/// A stimulus shared across jobs and worker threads.
pub type SharedSignal = Arc<dyn ContinuousSignal + Send + Sync>;

/// How many times a job whose attempt panics is retried on the same
/// worker before the panic is surfaced as a typed
/// [`BistError::WorkerPanic`].
const MAX_RETRIES: u32 = 1;

/// Sizing of the verdict worker pool and its job queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker thread count; `0` resolves to the machine's available
    /// parallelism (see [`resolved_workers`](Self::resolved_workers)).
    pub workers: usize,
    /// Bounded job-queue depth: a submitter blocks once this many
    /// jobs are waiting (backpressure, not drops). Must be ≥ 1.
    pub queue_depth: usize,
}

impl ServiceConfig {
    /// Auto-sized pool: one worker per core, a 16-deep queue, one
    /// retry for panicked jobs.
    pub fn paper_default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_depth: 16,
        }
    }

    /// Sets the worker thread count (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded job-queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// The worker count [`workers`](Self::workers) resolves to on
    /// this machine: the configured value, or — for the `0` auto
    /// default — one worker per available core.
    pub fn resolved_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            w => w,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One (standard × carrier × DUT) verdict job.
#[derive(Clone)]
pub struct VerdictJob {
    /// Caller-chosen correlation id; outcomes are sorted by it.
    pub job_id: u64,
    /// Which DUT on the line this job scores.
    pub dut: u32,
    /// Mask-library standard name (for triage; the mask itself rides
    /// along below).
    pub standard: String,
    /// The engine configuration for this deployment.
    pub config: BistConfig,
    /// The emission mask to score against.
    pub mask: SpectralMask,
    /// The DUT's RF output.
    pub stimulus: SharedSignal,
    /// Optional clean reference for the Δε reconstruction-error
    /// metric.
    pub reference: Option<SharedSignal>,
}

impl std::fmt::Debug for VerdictJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerdictJob")
            .field("job_id", &self.job_id)
            .field("dut", &self.dut)
            .field("standard", &self.standard)
            .finish_non_exhaustive()
    }
}

/// The service's answer for one job.
#[derive(Clone, Debug)]
pub struct VerdictOutcome {
    /// The job's correlation id.
    pub job_id: u64,
    /// The job's DUT id.
    pub dut: u32,
    /// The job's standard name.
    pub standard: String,
    /// Attempts the job took (1 on the clean path).
    pub attempts: u32,
    /// `true` when at least one attempt panicked and was supervised
    /// (the result below is then either a retried clean verdict or a
    /// typed [`BistError::WorkerPanic`]).
    pub recovered_panic: bool,
    /// The verdict, or the typed failure.
    pub result: Result<BistReport, BistError>,
}

/// The persistent verdict worker pool.
///
/// ```ignore
/// let mut service = VerdictService::try_start(ServiceConfig::paper_default())?;
/// let jobs = try_campaign_jobs(&Deployment::builtin_five(), &library, &duts)?;
/// let outcomes = service.try_run_all(jobs)?;
/// service.shutdown();
/// ```
pub struct VerdictService {
    jobs_tx: Option<SyncSender<VerdictJob>>,
    results_rx: Receiver<VerdictOutcome>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    in_flight: usize,
}

impl VerdictService {
    /// Spawns the worker pool. Fails fast with
    /// [`BistError::InvalidConfig`] on a zero queue depth.
    pub fn try_start(cfg: ServiceConfig) -> Result<Self, BistError> {
        if cfg.queue_depth == 0 {
            return Err(BistError::InvalidConfig {
                reason: "verdict service queue depth must be at least 1".into(),
            });
        }
        let workers = cfg.resolved_workers();
        let (jobs_tx, jobs_rx) = sync_channel::<VerdictJob>(cfg.queue_depth);
        let (results_tx, results_rx) = channel::<VerdictOutcome>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let jobs_rx = Arc::clone(&jobs_rx);
            let results_tx: Sender<VerdictOutcome> = results_tx.clone();
            handles.push(std::thread::spawn(move || {
                // The worker's scratch arena lives as long as the
                // pool: repeated verdicts reuse its grid, stream and
                // scan buffers instead of reallocating per job.
                let mut scratch = BistScratch::new();
                loop {
                    // Take the next job, releasing the receiver lock
                    // before the (long) verdict runs.
                    let job = match lock_unpoisoned(&jobs_rx).recv() {
                        Ok(job) => job,
                        Err(_) => break, // queue closed: shut down
                    };
                    let (attempts, recovered_panic, result) = run_job(&job, &mut scratch);
                    let outcome = VerdictOutcome {
                        job_id: job.job_id,
                        dut: job.dut,
                        standard: job.standard,
                        attempts,
                        recovered_panic,
                        result,
                    };
                    if results_tx.send(outcome).is_err() {
                        break; // collector hung up: shut down
                    }
                }
            }));
        }
        Ok(VerdictService {
            jobs_tx: Some(jobs_tx),
            results_rx,
            handles,
            workers,
            in_flight: 0,
        })
    }

    /// The pool's worker thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs submitted but not yet collected.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Enqueues one job, **blocking** while the bounded queue is full
    /// (backpressure — the job is never dropped). Fails only when the
    /// whole pool is gone.
    pub fn try_submit(&mut self, job: VerdictJob) -> Result<(), BistError> {
        let Some(tx) = self.jobs_tx.as_ref() else {
            return Err(BistError::InvalidConfig {
                reason: "verdict service is shut down".into(),
            });
        };
        tx.send(job).map_err(|_| BistError::WorkerPanic {
            detail: "verdict service worker pool is gone (all workers exited)".into(),
        })?;
        self.in_flight += 1;
        Ok(())
    }

    /// Blocks for the next completed outcome (any job order — workers
    /// finish as they finish).
    pub fn try_collect(&mut self) -> Result<VerdictOutcome, BistError> {
        if self.in_flight == 0 {
            return Err(BistError::InvalidConfig {
                reason: "no verdict jobs in flight".into(),
            });
        }
        let outcome = self.results_rx.recv().map_err(|_| BistError::WorkerPanic {
            detail: "verdict service worker pool is gone (all workers exited)".into(),
        })?;
        self.in_flight -= 1;
        Ok(outcome)
    }

    /// Submits every job and collects every outcome, returned sorted
    /// by `job_id`. Per-job failures are values inside
    /// [`VerdictOutcome::result`]; the `Err` arm here means the pool
    /// itself died.
    pub fn try_run_all(&mut self, jobs: Vec<VerdictJob>) -> Result<Vec<VerdictOutcome>, BistError> {
        let n = jobs.len();
        let mut outcomes = Vec::with_capacity(n);
        // Submission blocks on the bounded queue while workers drain
        // it; the unbounded results channel keeps workers from ever
        // blocking on the other side, so this cannot deadlock.
        for job in jobs {
            self.try_submit(job)?;
        }
        for _ in 0..n {
            outcomes.push(self.try_collect()?);
        }
        outcomes.sort_by_key(|o| o.job_id);
        Ok(outcomes)
    }

    /// Closes the queue and joins every worker. Outstanding jobs are
    /// finished first (workers drain the queue before seeing the
    /// close); their outcomes are discarded — collect before shutting
    /// down if they matter.
    pub fn shutdown(mut self) {
        self.jobs_tx = None; // close the queue: workers drain and exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for VerdictService {
    fn drop(&mut self) {
        // Mirror `shutdown` for the early-return/test paths: close
        // the queue and reap the threads so no worker outlives the
        // handle.
        self.jobs_tx = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs one job on the calling worker thread: supervised
/// (`catch_unwind`), with in-place retries for panicked attempts.
/// Returns `(attempts, saw_panic, result)`.
fn run_job(
    job: &VerdictJob,
    scratch: &mut BistScratch,
) -> (u32, bool, Result<BistReport, BistError>) {
    let mut attempts = 0u32;
    let mut saw_panic = false;
    loop {
        attempts += 1;
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if chaos::take_job_panic() {
                // Deliberate mid-job death: exercises the pool's
                // supervision exactly where a real fault would land.
                // analysis: allow(naked-panic) — chaos fault injection for the supervision tests
                panic!("chaos: injected verdict worker panic (job {})", job.job_id);
            }
            BistEngine::new(job.config.clone()).try_run_with(
                &job.stimulus,
                &job.mask,
                job.reference.as_ref(),
                scratch,
            )
        }));
        match attempt {
            Ok(result) => return (attempts, saw_panic, result),
            Err(payload) => {
                saw_panic = true;
                if attempts <= MAX_RETRIES {
                    continue; // re-run the job in place ("requeue once")
                }
                let detail = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                return (
                    attempts,
                    saw_panic,
                    Err(BistError::WorkerPanic {
                        detail: format!("verdict worker panicked: {detail}"),
                    }),
                );
            }
        }
    }
}

/// Lock a mutex, recovering from poisoning: the protected receiver is
/// valid in any state a panicking holder can leave it in (worker
/// panics are caught before they can unwind through the lock, but the
/// pool must not deadlock even if that invariant slips).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One DUT position on the line: its payload seed and its impairment
/// state (the thing the verdict is supposed to catch).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DutSpec {
    /// DUT id, carried into every outcome.
    pub dut: u32,
    /// PRBS seed for the DUT's payload stimulus.
    pub payload_seed: u64,
    /// Tx impairments this DUT exhibits.
    pub impairments: TxImpairments,
}

impl DutSpec {
    /// A healthy DUT with typical (in-spec) impairments.
    pub fn nominal(dut: u32, payload_seed: u64) -> Self {
        DutSpec {
            dut,
            payload_seed,
            impairments: TxImpairments::typical(),
        }
    }

    /// Overrides the DUT's impairment state.
    pub fn with_impairments(mut self, impairments: TxImpairments) -> Self {
        self.impairments = impairments;
        self
    }
}

/// Builds the (standard × carrier × DUT) job matrix for the service:
/// per deployment, one wideband skew calibration (burst payload seed
/// `0xACE1`; the estimate is a hardware property shared by every DUT
/// stimulus the front end captures), then one job per DUT with the
/// deployment's mask and a payload stimulus shaped at the standard's
/// symbol rate.
///
/// A standard whose symbol rate is not finite and positive, or whose
/// roll-off is not in `[0, 1]`, is a [`BistError::InvalidConfig`]
/// naming it, returned before any calibration runs.
pub fn try_campaign_jobs(
    deployments: &[Deployment],
    library: &MaskLibrary,
    duts: &[DutSpec],
) -> Result<Vec<VerdictJob>, BistError> {
    let mut jobs = Vec::with_capacity(deployments.len() * duts.len());
    for dep in deployments {
        let Some(standard) = library.get(&dep.standard) else {
            return Err(BistError::UnknownStandard {
                name: dep.standard.clone(),
                known: library.names().map(str::to_string).collect(),
            });
        };
        let rate_ok = standard.symbol_rate.is_finite() && standard.symbol_rate > 0.0;
        if !rate_ok || !(0.0..=1.0).contains(&standard.rolloff) {
            return Err(BistError::InvalidConfig {
                reason: format!(
                    "standard `{}` cannot shape a payload: symbol rate {} Hz must be finite \
                     and positive, roll-off {} must be in [0, 1]",
                    dep.standard, standard.symbol_rate, standard.rolloff
                ),
            });
        }
        let cfg = dep.try_calibrate(dep.try_bist_config()?, 0xACE1)?;
        for dut in duts {
            let bb = dep.payload(
                cfg.fast_start,
                standard.symbol_rate,
                standard.rolloff,
                dut.payload_seed,
            );
            let tx = HomodyneTx::builder(bb, dep.carrier_hz)
                .impairments(dut.impairments)
                .build();
            jobs.push(VerdictJob {
                job_id: jobs.len() as u64,
                dut: dut.dut,
                standard: dep.standard.clone(),
                config: cfg.clone(),
                mask: standard.mask.clone(),
                stimulus: Arc::new(tx.rf_output()),
                reference: None,
            });
        }
    }
    Ok(jobs)
}

/// Fault-injection hooks for the chaos test suite. Not part of the
/// public API contract; an armed panic fires at the top of the next
/// job attempt (across all workers), exercising the pool's
/// `catch_unwind` supervision and the in-place retry path.
#[doc(hidden)]
pub mod chaos {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static JOB_PANICS: AtomicUsize = AtomicUsize::new(0);

    /// Arm the next `n` job attempts (across all workers and
    /// services) to panic. `0` disarms.
    pub fn arm_job_panics(n: usize) {
        JOB_PANICS.store(n, Ordering::SeqCst);
    }

    /// Consume one armed panic, if any.
    pub(super) fn take_job_panic() -> bool {
        JOB_PANICS
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_queue_depth_is_rejected() {
        let err = VerdictService::try_start(ServiceConfig::paper_default().with_queue_depth(0))
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default();
        assert!(err.contains("queue depth"), "{err}");
    }

    #[test]
    fn config_resolves_workers() {
        let cfg = ServiceConfig::paper_default();
        assert!(cfg.resolved_workers() >= 1);
        assert_eq!(cfg.with_workers(3).resolved_workers(), 3);
    }

    #[test]
    fn collect_without_submissions_is_a_typed_error() {
        let mut svc = VerdictService::try_start(ServiceConfig::paper_default().with_workers(1))
            .expect("start");
        let err = svc.try_collect().expect_err("nothing in flight");
        assert!(err.to_string().contains("in flight"), "{err}");
        svc.shutdown();
    }

    #[test]
    fn unknown_standard_is_rejected_when_building_jobs() {
        let library = MaskLibrary::builtin();
        let mut dep = Deployment::builtin_five().remove(0);
        dep.standard = "dvb-t2".into();
        let err = try_campaign_jobs(&[dep], &library, &[DutSpec::nominal(0, 1)])
            .expect_err("unknown standard");
        assert!(matches!(err, BistError::UnknownStandard { .. }), "{err}");
    }

    /// The builtin library with its Section V standard's stimulus
    /// replaced by `symbol_rate` and `rolloff`, and that deployment.
    fn library_with_stimulus(symbol_rate: f64, rolloff: f64) -> (MaskLibrary, Deployment) {
        let mut library = MaskLibrary::builtin();
        let dep = Deployment::builtin_five().remove(1);
        let mut standard = library.get(&dep.standard).expect("builtin").clone();
        standard.symbol_rate = symbol_rate;
        standard.rolloff = rolloff;
        library.register(standard);
        (library, dep)
    }

    fn assert_invalid_stimulus(symbol_rate: f64, rolloff: f64) {
        let (library, dep) = library_with_stimulus(symbol_rate, rolloff);
        let err = try_campaign_jobs(
            std::slice::from_ref(&dep),
            &library,
            &[DutSpec::nominal(0, 1)],
        )
        .expect_err("unusable stimulus");
        assert!(matches!(err, BistError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains(&dep.standard), "{err}");
    }

    #[test]
    fn zero_symbol_rate_is_rejected_when_building_jobs() {
        assert_invalid_stimulus(0.0, 0.5);
        assert_invalid_stimulus(f64::INFINITY, 0.5);
    }

    #[test]
    fn out_of_range_rolloff_is_rejected_when_building_jobs() {
        assert_invalid_stimulus(10e6, 1.5);
        assert_invalid_stimulus(10e6, f64::NAN);
    }

    #[test]
    fn empty_dut_list_yields_no_jobs() {
        let library = MaskLibrary::builtin();
        let deps = vec![Deployment::builtin_five().remove(1)];
        let jobs = try_campaign_jobs(&deps, &library, &[]).expect("no DUTs is fine");
        assert!(jobs.is_empty());
    }
}
