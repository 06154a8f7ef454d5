//! `cal_line`: the five built-in deployments × 8 DUTs on calibrated
//! skew, served by the persistent verdict pool with exactly `workers`
//! jobs in flight — a multi-site tester where each site waits for its
//! verdict. Also holds the job-building helpers `wire_scan` reuses.

use std::time::Instant;

use rfbist_core::campaign::{CALIBRATION_SYMBOL_RATE, CAMPAIGN_B};
use rfbist_core::report::BistReport;
use rfbist_core::service::try_campaign_jobs;
use rfbist_core::{
    try_run_campaign_supervised, BistEngine, BistScratch, CampaignConfig, Deployment, DutSpec,
    MaskLibrary, ServiceConfig, VerdictJob, VerdictOutcome, VerdictService,
};
use rfbist_rfchain::faults::{Fault, FaultKind};
use rfbist_rfchain::impairments::TxImpairments;
use rfbist_rfchain::txchain::HomodyneTx;
use rfbist_signal::bandpass::BandpassSignal;
use rfbist_signal::baseband::ShapedBaseband;

use crate::layers::{since, Layers};
use crate::replica::Replica;
use crate::{latency_metrics, mix, repeated_setup, Args, Outcome, Samples, MIN_OPS};

/// DUTs per deployment; every fourth one has an early-compressing PA.
pub const DUTS: usize = 8;

/// Payload seeds are drawn from this stream of the workload seed, so
/// `cal_line` and `sectionv_uncal` get unrelated payloads.
const PAYLOAD_STREAM: u64 = 1 << 32;

fn dut_specs(seed: u64) -> Vec<DutSpec> {
    (0..DUTS)
        .map(|i| {
            let spec = DutSpec::nominal(i as u32, mix(seed, PAYLOAD_STREAM + i as u64));
            if i % 4 == 3 {
                let fault = Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.25 });
                spec.with_impairments(fault.inject(TxImpairments::typical()))
            } else {
                spec
            }
        })
        .collect()
}

/// The 40 calibrated jobs, deployment-major (`job_id = dep · DUTS + dut`);
/// builds one wideband skew calibration per deployment.
pub fn campaign_jobs(seed: u64) -> Result<Vec<VerdictJob>, String> {
    try_campaign_jobs(
        &Deployment::builtin_five(),
        &MaskLibrary::builtin(),
        &dut_specs(seed),
    )
    .map_err(|e| format!("building jobs: {e}"))
}

/// Job indices in DUT-major order: each unit runs all five standards
/// back to back.
pub fn dut_major(deployments: usize) -> Vec<usize> {
    (0..DUTS)
        .flat_map(|dut| (0..deployments).map(move |dep| dep * DUTS + dut))
        .collect()
}

/// Capture span (s) the stimulus of a deployment must cover, as
/// `try_campaign_jobs` computes it.
fn span(dep: &Deployment) -> f64 {
    (rfbist_core::BistConfig::paper_default().fast_start as f64 + dep.fast_len as f64) / CAMPAIGN_B
        * 1.2
}

/// The wideband calibration burst `try_campaign_jobs` calibrates on.
fn calibration_burst(dep: &Deployment) -> HomodyneTx<ShapedBaseband> {
    let syms = ((span(dep) * CALIBRATION_SYMBOL_RATE) as usize + 30).max(96);
    let bb = ShapedBaseband::qpsk_prbs(CALIBRATION_SYMBOL_RATE, 0.5, 12, syms, 0xACE1);
    HomodyneTx::builder(bb, dep.carrier_hz)
        .impairments(TxImpairments::typical())
        .build()
}

/// Times one `try_calibrate_skew` per deployment and replays it; both
/// must give the skew the deployment's jobs were built with (`skews`).
pub fn trace_calibrations(
    skews: &[Option<f64>],
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    for (dep, &want) in Deployment::builtin_five().iter().zip(skews) {
        let cfg = dep.try_bist_config().map_err(|e| e.to_string())?;
        let burst = calibration_burst(dep).rf_output();
        let start = Instant::now();
        let direct = BistEngine::new(cfg.clone()).try_calibrate_skew(&burst);
        layers.calibrate_skew.add(since(start));
        let replayed = Replica::calibrate(&cfg, &burst, layers);
        match (direct, replayed) {
            (Ok(a), Ok(b)) if Some(a.delay) == want && a == b => {}
            _ => out.fail(format!("{}: calibration replay differs", dep.standard)),
        }
    }
    Ok(())
}

/// Feeds jobs to the pool keeping at most `workers` in flight. `next`
/// gets the number completed so far and names the next job index;
/// `done` gets each outcome with its submit → collect time in ms.
fn closed_loop(
    service: &mut VerdictService,
    jobs: &[VerdictJob],
    mut next: impl FnMut(usize) -> Option<usize>,
    mut done: impl FnMut(usize, f64, VerdictOutcome),
) -> Result<(), String> {
    let mut submitted: Vec<Option<Instant>> = vec![None; jobs.len()];
    let (mut in_flight, mut completed) = (0usize, 0usize);
    loop {
        while in_flight < service.workers() {
            let Some(j) = next(completed) else { break };
            submitted[j] = Some(Instant::now());
            service
                .try_submit(jobs[j].clone())
                .map_err(|e| format!("submit: {e}"))?;
            in_flight += 1;
        }
        if in_flight == 0 {
            return Ok(());
        }
        let outcome = service.try_collect().map_err(|e| format!("collect: {e}"))?;
        let j = outcome.job_id as usize;
        let sent = submitted
            .get_mut(j)
            .and_then(Option::take)
            .ok_or_else(|| format!("outcome for job {j}, which is not in flight"))?;
        in_flight -= 1;
        completed += 1;
        done(j, since(sent) as f64 / 1e6, outcome);
    }
}

struct Setup {
    jobs: Vec<VerdictJob>,
    order: Vec<usize>,
    service: VerdictService,
    /// First pool report per job in this run.
    first: Vec<Option<BistReport>>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let jobs = campaign_jobs(seed)?;
    let deployments = jobs.len() / DUTS;
    let mut service = VerdictService::try_start(ServiceConfig::paper_default())
        .map_err(|e| format!("starting the pool: {e}"))?;
    let mut first = vec![None; jobs.len()];
    // warm-up: one job per deployment
    let mut warm = (0..deployments).map(|d| d * DUTS);
    let mut err = None;
    closed_loop(
        &mut service,
        &jobs,
        |_| warm.next(),
        |j, _, o| match o.result {
            Ok(r) => first[j] = Some(r),
            Err(e) => err = Some(format!("warm-up job {j}: {e}")),
        },
    )?;
    if let Some(e) = err {
        return Err(e);
    }
    Ok(Setup {
        order: dut_major(deployments),
        jobs,
        service,
        first,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut s = if args.trace {
        let s = setup(args.seed)?;
        let skews: Vec<_> = (0..s.jobs.len() / DUTS)
            .map(|d| s.jobs[d * DUTS].config.calibrated_skew)
            .collect();
        trace_calibrations(&skews, &mut layers, &mut out)?;
        s
    } else {
        repeated_setup(&mut out, || setup(args.seed))?
    };

    // the timed window: closed loop, in flight == workers
    let mut verdict_ms = Samples::default();
    let mut sojourn_by_job = vec![Samples::default(); s.jobs.len()];
    let mut outcomes_by_job = vec![0u64; s.jobs.len()];
    let mut differs_by_job = vec![0u64; s.jobs.len()];
    let start = Instant::now();
    let mut k = 0usize;
    let order = &s.order;
    let first = &mut s.first;
    closed_loop(
        &mut s.service,
        &s.jobs,
        |completed| {
            let more = start.elapsed().as_secs_f64() < args.seconds || completed < MIN_OPS;
            k += 1;
            more.then(|| order[(k - 1) % order.len()])
        },
        |j, ms, o| {
            out.attempted += 1;
            layers.retries += u64::from(o.attempts.saturating_sub(1));
            layers.recovered_panics += u64::from(o.recovered_panic);
            match o.result {
                Ok(r) => {
                    verdict_ms.push(ms);
                    sojourn_by_job[j].push(ms);
                    outcomes_by_job[j] += 1;
                    match &first[j] {
                        Some(f) if *f != r => {
                            differs_by_job[j] += 1;
                            out.fail(format!("job {j}: pool report differs from its first"));
                        }
                        Some(_) => {}
                        None => first[j] = Some(r),
                    }
                }
                Err(e) => out.fail(format!("job {j}: {e}")),
            }
        },
    )?;
    let window_s = start.elapsed().as_secs_f64();
    let workers = s.service.workers();
    s.service.shutdown();

    // after the window: every job once more directly (on the traced
    // run twice, interleaved with the replica); a pool report that is
    // not the direct one fails every outcome of that job
    let passes = if args.trace { 2 } else { 1 };
    let mut scratch = BistScratch::new();
    let mut replica = Replica::default();
    let mut direct_by_job = vec![Samples::default(); s.jobs.len()];
    for _ in 0..passes {
        for &j in &s.order {
            let job = &s.jobs[j];
            let engine = BistEngine::new(job.config.clone());
            let t = Instant::now();
            let direct = engine.try_run_with(
                &job.stimulus,
                &job.mask,
                job.reference.as_ref(),
                &mut scratch,
            );
            let ns = since(t);
            let direct = match direct {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("job {j}: direct verdict failed: {e}"));
                    continue;
                }
            };
            direct_by_job[j].push(ns as f64 / 1e6);
            if s.first[j].as_ref().is_some_and(|f| *f != direct) {
                let wrong = outcomes_by_job[j] - differs_by_job[j];
                for _ in 0..wrong {
                    out.fail(format!(
                        "job {j}: pool report differs from the direct verdict"
                    ));
                }
                differs_by_job[j] = outcomes_by_job[j];
            }
            if args.trace {
                layers.untraced.add(ns);
                match replica.verdict(engine.config(), &job.stimulus, &job.mask, &mut layers) {
                    Ok(r) if r.matches(&direct) => layers.staged_ns += r.staged_ns,
                    Ok(_) => out.fail(format!("job {j}: replica report differs from the engine's")),
                    Err(e) => out.fail(format!("job {j}: replica failed: {e}")),
                }
            }
        }
    }
    layers.mask_fail_inputs = s.first.iter().flatten().filter(|r| !r.mask.passed).count() as u64;
    out.notes.push(format!(
        "mask.fail_verdicts {} of {} jobs; retries {}, recovered panics {}",
        layers.mask_fail_inputs,
        s.jobs.len(),
        layers.retries,
        layers.recovered_panics
    ));

    for d in 0..s.jobs.len() / DUTS {
        let mut times = Samples::default();
        for sojourns in &sojourn_by_job[d * DUTS..(d + 1) * DUTS] {
            times.0.extend_from_slice(&sojourns.0);
        }
        out.notes.push(format!(
            "{}: verdict_ms p50 {:.4}",
            s.jobs[d * DUTS].standard,
            times.median()
        ));
    }
    let completed = verdict_ms.len() as f64;
    let verdicts_per_s = completed / window_s;
    if !args.trace {
        latency_metrics(&mut out, &verdict_ms);
        out.notes.push(format!(
            "verdicts_per_s {verdicts_per_s:.2} over {window_s:.2} s with {workers} workers"
        ));
        return Ok(out);
    }

    // service layer: sojourn against the direct time of the same jobs
    let (mut overhead_ms, mut serial_ms) = (0.0, 0.0);
    for (j, sojourns) in sojourn_by_job.iter().enumerate() {
        let direct = direct_by_job[j].mean();
        overhead_ms += sojourns.0.iter().map(|ms| ms - direct).sum::<f64>();
        serial_ms += direct * sojourns.len() as f64;
    }
    layers.verdicts_per_s = verdicts_per_s;
    layers.service_overhead_ms = overhead_ms / completed;
    layers.parallel_efficiency = verdicts_per_s / (workers as f64 * completed / (serial_ms / 1e3));

    trace_delta_eps(&s.jobs, args.seed, &mut layers, &mut out)?;
    trace_campaign(args.seed, &mut layers, &mut out)?;
    layers.check_coverage(&mut out);
    layers.emit(&mut out);
    Ok(out)
}

/// Times every job's verdict with and without its golden reference
/// (the Δε path the fault campaign runs on every verdict).
fn trace_delta_eps(
    jobs: &[VerdictJob],
    seed: u64,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let library = MaskLibrary::builtin();
    let specs = dut_specs(seed);
    let mut scratch = BistScratch::new();
    let (mut with_ref, mut without_ref) = (0u64, 0u64);
    for (d, dep) in Deployment::builtin_five().iter().enumerate() {
        let standard = library
            .get(&dep.standard)
            .ok_or_else(|| format!("unknown standard {}", dep.standard))?;
        let n_sym = ((span(dep) * standard.symbol_rate) as usize + 30).max(96);
        for (i, spec) in specs.iter().enumerate() {
            let job = &jobs[d * DUTS + i];
            let bb = ShapedBaseband::qpsk_prbs(
                standard.symbol_rate,
                standard.rolloff,
                12,
                n_sym,
                spec.payload_seed,
            );
            let reference = HomodyneTx::builder(bb, dep.carrier_hz)
                .impairments(spec.impairments)
                .build()
                .ideal_rf_output();
            let engine = BistEngine::new(job.config.clone());
            let t = Instant::now();
            let a = engine.try_run_with(&job.stimulus, &job.mask, Some(&reference), &mut scratch);
            with_ref += since(t);
            let t = Instant::now();
            let b = engine.try_run_with(
                &job.stimulus,
                &job.mask,
                None::<&BandpassSignal<ShapedBaseband>>,
                &mut scratch,
            );
            without_ref += since(t);
            match (a, b) {
                (Ok(a), Ok(b)) if a.mask == b.mask && a.reconstruction_error.is_some() => {}
                _ => out.fail(format!(
                    "job {}: the reference changed the verdict",
                    job.job_id
                )),
            }
        }
    }
    layers.delta_eps_ms = (with_ref as f64 - without_ref as f64) / jobs.len() as f64 / 1e6;
    Ok(())
}

/// One full fault-coverage campaign seeded by the workload seed, with
/// each (deployment, jitter) cell timed by the supervision observer.
fn trace_campaign(seed: u64, layers: &mut Layers, out: &mut Outcome) -> Result<(), String> {
    let cfg = CampaignConfig {
        base_seed: seed,
        ..CampaignConfig::paper_default()
    };
    let start = Instant::now();
    let mut last = start;
    let cells = &mut layers.cell_s;
    let matrix = try_run_campaign_supervised(&cfg, None, false, &mut |_| {
        cells.push(last.elapsed().as_secs_f64());
        last = Instant::now();
        true
    })
    .map_err(|e| format!("campaign: {e}"))?;
    layers.campaign_s = start.elapsed().as_secs_f64();
    out.attempted += 1;
    for s in &matrix.standards {
        layers.campaign_runs += (s.healthy_runs + s.fault_runs()) as u64;
        layers.campaign_errored += s.errored_runs as u64;
        layers.false_alarms += s.false_alarms as u64;
    }
    layers.detection_rate = matrix.overall_detection_rate();
    if layers.campaign_errored > 0 {
        out.fail(format!(
            "campaign: {} errored runs",
            layers.campaign_errored
        ));
    }
    out.notes.push(format!(
        "campaign detection {:.4}, false alarms {}, worst skew error {:.3} ps",
        layers.detection_rate,
        layers.false_alarms,
        matrix.worst_skew_error() * 1e12
    ));
    Ok(())
}
