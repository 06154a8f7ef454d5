//! Equivalence and scheduling contracts of the verdict service: every
//! outcome the persistent worker pool produces must be **bit-identical**
//! to a single-shot [`BistEngine::try_run_with`] on the same job —
//! regardless of worker count, queue depth, submission order or a
//! supervised worker panic along the way. The scheduler edge cases
//! (zero DUTs, one worker, queue-full backpressure, panic-then-retry)
//! are pinned here too, and so is the fault-coverage campaign's
//! supervision, since its verdicts run on the pool.

mod common;

use common::{paper_mask, paper_tx_seeded, PAPER_PRBS_SEED, PAPER_TX_SYMBOLS};
use rfbist::core::report::BistReport;
use rfbist::core::service::chaos;
use rfbist::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Serializes every test that runs a service: the chaos hook is
/// process-wide, so an armed panic must only ever fire in the test
/// that armed it.
static SERVICE_LOCK: Mutex<()> = Mutex::new(());

/// A small calibrated-skew job on the paper's Section V fixture —
/// cheap enough to run many times.
fn paper_job(job_id: u64, dut: u32) -> VerdictJob {
    let mut cfg = BistConfig::paper_default().with_calibrated_skew(180e-12);
    cfg.grid_len = 2048;
    VerdictJob {
        job_id,
        dut,
        standard: "qpsk-10msym-srrc0.5".into(),
        config: cfg,
        mask: paper_mask(),
        stimulus: Arc::new(paper_tx_for_dut(dut).rf_output()),
        reference: None,
    }
}

fn paper_tx_for_dut(dut: u32) -> HomodyneTx<ShapedBaseband> {
    paper_tx_seeded(
        TxImpairments::typical(),
        PAPER_TX_SYMBOLS,
        PAPER_PRBS_SEED ^ u64::from(dut),
    )
}

/// The single-shot reference verdict for a job.
fn direct_verdict(job: &VerdictJob) -> Result<BistReport, BistError> {
    BistEngine::new(job.config.clone()).try_run_with(
        &job.stimulus,
        &job.mask,
        job.reference.as_ref(),
        &mut BistScratch::new(),
    )
}

#[test]
fn service_verdicts_are_bit_identical_to_single_shot_runs() {
    let _guard = SERVICE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let jobs: Vec<VerdictJob> = (0..6).map(|i| paper_job(i, i as u32)).collect();
    let direct: Vec<_> = jobs.iter().map(direct_verdict).collect();
    for workers in [1usize, 2, 3] {
        let mut svc =
            VerdictService::try_start(ServiceConfig::paper_default().with_workers(workers))
                .expect("start");
        let outcomes = svc.try_run_all(jobs.clone()).expect("pool alive");
        svc.shutdown();
        assert_eq!(outcomes.len(), jobs.len());
        for (outcome, want) in outcomes.iter().zip(&direct) {
            assert_eq!(outcome.attempts, 1);
            assert!(!outcome.recovered_panic);
            let got = outcome.result.as_ref().expect("clean job");
            let want = want.as_ref().expect("clean direct run");
            // BistReport derives PartialEq: bit-identical or bust
            assert_eq!(got, want, "job {} workers {workers}", outcome.job_id);
        }
    }
}

#[test]
fn campaign_jobs_cover_all_five_standards_and_match_single_shot() {
    let _guard = SERVICE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let library = MaskLibrary::builtin();
    let deployments = Deployment::builtin_five();
    let duts = [DutSpec::nominal(0, 0x51ce)];
    let jobs = try_campaign_jobs(&deployments, &library, &duts).expect("valid campaign");
    assert_eq!(jobs.len(), 5, "one job per standard");
    let names: Vec<&str> = jobs.iter().map(|j| j.standard.as_str()).collect();
    for dep in &deployments {
        assert!(names.contains(&dep.standard.as_str()), "{}", dep.standard);
    }
    let direct: Vec<_> = jobs.iter().map(direct_verdict).collect();
    let mut svc =
        VerdictService::try_start(ServiceConfig::paper_default().with_workers(2)).expect("start");
    let outcomes = svc.try_run_all(jobs).expect("pool alive");
    svc.shutdown();
    for (outcome, want) in outcomes.iter().zip(&direct) {
        let got = outcome.result.as_ref().expect("clean job");
        let want = want.as_ref().expect("clean direct run");
        assert_eq!(got, want, "standard {}", outcome.standard);
        assert!(got.passed(), "healthy DUT fails {}", outcome.standard);
    }
}

#[test]
fn zero_duts_yield_zero_jobs_and_an_empty_run() {
    let _guard = SERVICE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let library = MaskLibrary::builtin();
    let deployments = vec![Deployment::builtin_five().remove(1)];
    let jobs = try_campaign_jobs(&deployments, &library, &[]).expect("zero DUTs is valid");
    assert!(jobs.is_empty());
    let mut svc =
        VerdictService::try_start(ServiceConfig::paper_default().with_workers(1)).expect("start");
    let outcomes = svc.try_run_all(jobs).expect("empty run");
    assert!(outcomes.is_empty());
    svc.shutdown();
}

#[test]
fn one_worker_serves_more_jobs_than_queue_depth() {
    let _guard = SERVICE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // queue depth 1 with 4 jobs: submissions necessarily block and
    // resume as the single worker drains — nothing is dropped.
    let mut svc = VerdictService::try_start(
        ServiceConfig::paper_default()
            .with_workers(1)
            .with_queue_depth(1),
    )
    .expect("start");
    assert_eq!(svc.workers(), 1);
    let jobs: Vec<VerdictJob> = (0..4).map(|i| paper_job(i, 0)).collect();
    let outcomes = svc.try_run_all(jobs).expect("pool alive");
    svc.shutdown();
    assert_eq!(outcomes.len(), 4);
    assert_eq!(
        outcomes.iter().map(|o| o.job_id).collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "outcomes sorted by job id"
    );
    let first = outcomes[0].result.as_ref().expect("clean");
    for o in &outcomes[1..] {
        // same DUT seed ⇒ same verdict, through a reused scratch
        assert_eq!(o.result.as_ref().expect("clean"), first);
    }
}

/// A stimulus whose evaluation blocks until the gate opens — holds a
/// worker inside a job so the queue behind it fills up.
struct GatedSignal<S> {
    inner: S,
    open: Arc<(Mutex<bool>, Condvar, AtomicBool)>,
}

impl<S: ContinuousSignal> ContinuousSignal for GatedSignal<S> {
    fn eval(&self, t: f64) -> f64 {
        let (lock, cvar, fast) = &*self.open;
        if !fast.load(Ordering::Acquire) {
            let mut open = lock.lock().unwrap_or_else(|e| e.into_inner());
            while !*open {
                open = cvar.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }
        self.inner.eval(t)
    }
}

#[test]
fn full_queue_applies_backpressure_without_dropping_jobs() {
    let _guard = SERVICE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let gate = Arc::new((Mutex::new(false), Condvar::new(), AtomicBool::new(false)));
    let mut svc = VerdictService::try_start(
        ServiceConfig::paper_default()
            .with_workers(1)
            .with_queue_depth(1),
    )
    .expect("start");

    let gate_for_jobs = Arc::clone(&gate);
    let gated_job = move |job_id: u64| {
        let mut job = paper_job(job_id, 0);
        job.stimulus = Arc::new(GatedSignal {
            inner: paper_tx_for_dut(0).rf_output(),
            open: Arc::clone(&gate_for_jobs),
        });
        job
    };
    // job 0 occupies the worker (blocked on the gate), job 1 fills
    // the depth-1 queue.
    svc.try_submit(gated_job(0)).expect("worker takes job 0");
    svc.try_submit(gated_job(1)).expect("queue holds job 1");

    // job 2 must block: hand the service to a submitter thread and
    // verify it does not complete while the gate is closed.
    let (done_tx, done_rx) = mpsc::channel();
    let submitter = std::thread::spawn(move || {
        svc.try_submit(gated_job(2)).expect("backpressured submit");
        done_tx.send(()).expect("report submission");
        svc
    });
    assert!(
        done_rx.recv_timeout(Duration::from_millis(300)).is_err(),
        "submission must block while the queue is full"
    );

    // open the gate: the worker drains, the submission lands, and all
    // three jobs complete — none dropped.
    {
        let (lock, cvar, fast) = &*gate;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        fast.store(true, Ordering::Release);
        cvar.notify_all();
    }
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("blocked submission completes once the queue drains");
    let mut svc = submitter.join().expect("submitter thread");
    let mut ids = Vec::new();
    for _ in 0..3 {
        let outcome = svc.try_collect().expect("pool alive");
        assert!(outcome.result.is_ok(), "job {} failed", outcome.job_id);
        ids.push(outcome.job_id);
    }
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2], "every job exactly once");
    svc.shutdown();
}

#[test]
fn panicked_job_is_retried_once_and_matches_the_clean_verdict() {
    let _guard = SERVICE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let job = paper_job(7, 3);
    let want = direct_verdict(&job).expect("clean direct run");
    let mut svc =
        VerdictService::try_start(ServiceConfig::paper_default().with_workers(1)).expect("start");
    chaos::arm_job_panics(1);
    let outcomes = svc.try_run_all(vec![job.clone()]).expect("pool alive");
    chaos::arm_job_panics(0);
    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];
    assert_eq!(outcome.attempts, 2, "one panic, one retry");
    assert!(outcome.recovered_panic);
    assert_eq!(
        outcome.result.as_ref().expect("retried verdict"),
        &want,
        "recovered verdict is bit-identical to the clean path"
    );
    // the pool survived: it serves the next job cleanly
    let outcomes = svc.try_run_all(vec![job]).expect("pool alive");
    assert_eq!(outcomes[0].attempts, 1);
    assert!(!outcomes[0].recovered_panic);
    svc.shutdown();
}

#[test]
fn exhausted_retries_surface_a_typed_error_and_the_pool_survives() {
    let _guard = SERVICE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let job = paper_job(11, 5);
    let mut svc =
        VerdictService::try_start(ServiceConfig::paper_default().with_workers(1)).expect("start");
    // the pool retries a panicked job once: two armed panics exhaust it
    chaos::arm_job_panics(2);
    let outcomes = svc.try_run_all(vec![job.clone()]).expect("pool alive");
    chaos::arm_job_panics(0);
    let outcome = &outcomes[0];
    assert_eq!(outcome.attempts, 2);
    assert!(outcome.recovered_panic);
    let err = outcome.result.as_ref().expect_err("budget exhausted");
    assert!(
        matches!(err, BistError::WorkerPanic { .. }),
        "typed worker-panic error, got {err}"
    );
    assert!(err.to_string().contains("chaos"), "{err}");
    assert!(err.is_transient(), "a panicked job may be resubmitted");
    // the pool is intact: the same job now runs clean
    let outcomes = svc.try_run_all(vec![job]).expect("pool alive");
    assert!(outcomes[0].result.is_ok());
    svc.shutdown();
}

#[test]
fn submissions_are_tracked_in_flight_until_collected() {
    let _guard = SERVICE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut svc =
        VerdictService::try_start(ServiceConfig::paper_default().with_workers(2)).expect("start");
    assert_eq!(svc.in_flight(), 0);
    svc.try_submit(paper_job(0, 1)).expect("submit");
    svc.try_submit(paper_job(1, 2)).expect("submit");
    assert_eq!(svc.in_flight(), 2);
    let first = svc.try_collect().expect("pool alive");
    assert_eq!(svc.in_flight(), 1);
    let second = svc.try_collect().expect("pool alive");
    assert_eq!(svc.in_flight(), 0);
    let mut ids = vec![first.job_id, second.job_id];
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1]);
    svc.shutdown();
}

/// The paper standard with two gross faults and one trial: a one-cell
/// campaign of three verdicts.
fn one_cell_campaign() -> CampaignConfig {
    CampaignConfig {
        deployments: vec![Deployment::builtin_five().remove(1)],
        faults: vec![
            Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.25 }),
            Fault::new(FaultKind::IqGainImbalance { gain_db: 3.0 }),
        ],
        trials: 1,
        jitter_rms: vec![3e-12],
        eps_ratio: 3.0,
        ..CampaignConfig::paper_default()
    }
}

#[test]
fn campaign_verdict_panic_is_retried_to_the_clean_matrix() {
    let _guard = SERVICE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = one_cell_campaign();
    let clean = try_run_campaign(&cfg).expect("clean campaign");
    chaos::arm_job_panics(1);
    let recovered = try_run_campaign(&cfg);
    chaos::arm_job_panics(0);
    let recovered = recovered.expect("a retried panic does not stop the campaign");
    assert_eq!(recovered.to_json(), clean.to_json());
}

#[test]
fn campaign_scores_exhausted_verdicts_as_errored_runs() {
    let _guard = SERVICE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = one_cell_campaign();
    chaos::arm_job_panics(usize::MAX);
    let matrix = try_run_campaign(&cfg);
    chaos::arm_job_panics(0);
    let matrix = matrix.expect("the campaign outlives verdicts that always panic");
    let s = &matrix.standards[0];
    assert_eq!(s.errored_runs, 1 + cfg.faults.len(), "every run errored");
    assert_eq!(s.healthy_runs, 0);
    assert_eq!(s.fault_runs(), 0);
    assert_eq!(s.false_alarms, 0);
}
