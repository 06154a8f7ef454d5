//! `sectionv_uncal`: paper Section V verdicts with a per-run LMS, one
//! client on one reused scratch — the workload where the LMS is most
//! of the verdict.

use std::time::Instant;

use rfbist_core::report::BistReport;
use rfbist_core::{BistConfig, BistEngine, BistScratch, SpectralMask};
use rfbist_rfchain::faults::{Fault, FaultKind};
use rfbist_rfchain::impairments::TxImpairments;
use rfbist_rfchain::txchain::{HomodyneTx, ImpairedEnvelope};
use rfbist_signal::bandpass::BandpassSignal;
use rfbist_signal::baseband::ShapedBaseband;

use crate::layers::{since, Layers};
use crate::replica::Replica;
use crate::{latency_metrics, mix, repeated_setup, Args, Outcome, Samples, MIN_OPS};

/// DUTs on the line; every fourth one has an early-compressing PA.
const DUTS: usize = 16;

/// A skew further than this from the true delay fails the op: the
/// worst seen over 240 DUTs and 5 seeds is ~3.1 ps, the narrowband
/// trap ~166 ps.
const MAX_SKEW_ERR: f64 = 5e-12;

struct Dut {
    rf: BandpassSignal<ImpairedEnvelope<ShapedBaseband>>,
    ideal: BandpassSignal<ShapedBaseband>,
}

fn duts(seed: u64) -> Vec<Dut> {
    (0..DUTS)
        .map(|i| {
            let mut imp = TxImpairments::typical();
            if i % 4 == 3 {
                imp = Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.25 }).inject(imp);
            }
            let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 160, mix(seed, i as u64));
            let tx = HomodyneTx::builder(bb, 1e9).impairments(imp).build();
            Dut {
                rf: tx.rf_output(),
                ideal: tx.ideal_rf_output(),
            }
        })
        .collect()
}

struct Setup {
    duts: Vec<Dut>,
    engine: BistEngine,
    mask: SpectralMask,
    scratch: BistScratch,
    /// First report per DUT in this run.
    first: Vec<Option<BistReport>>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut s = Setup {
        duts: duts(seed),
        engine: BistEngine::new(BistConfig::paper_default()),
        mask: SpectralMask::qpsk_10msym(),
        scratch: BistScratch::new(),
        first: vec![None; DUTS],
    };
    // warm-up: one verdict for the single configuration
    let r = s
        .engine
        .try_run_with(
            &s.duts[0].rf,
            &s.mask,
            None::<&BandpassSignal<ShapedBaseband>>,
            &mut s.scratch,
        )
        .map_err(|e| format!("warm-up verdict: {e}"))?;
    s.first[0] = Some(r);
    Ok(s)
}

/// Checks one report against the run's first report for the same DUT
/// and against the true delay.
fn check(out: &mut Outcome, first: &mut Option<BistReport>, i: usize, report: BistReport) {
    let err = report.skew_abs_error();
    if err > MAX_SKEW_ERR {
        out.fail(format!(
            "DUT {i}: skew {:.2} ps from the true delay",
            err * 1e12
        ));
    }
    match first {
        Some(f) if *f != report => out.fail(format!("DUT {i}: report differs from its first")),
        Some(_) => {}
        None => *first = Some(report),
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut s = if args.trace {
        setup(args.seed)?
    } else {
        repeated_setup(&mut out, || setup(args.seed))?
    };
    let none = None::<&BandpassSignal<ShapedBaseband>>;
    let mut layers = Layers::default();
    let mut replica = Replica::default();
    let mut verdict_ms = Samples::default();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds || out.attempted < MIN_OPS as u64 {
        let d = i % DUTS;
        i += 1;
        out.attempted += 1;
        let t = Instant::now();
        let result = s
            .engine
            .try_run_with(&s.duts[d].rf, &s.mask, none, &mut s.scratch);
        let ns = since(t);
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("DUT {d}: {e}"));
                continue;
            }
        };
        verdict_ms.push(ns as f64 / 1e6);
        if args.trace {
            layers.untraced.add(ns);
            match replica.verdict(s.engine.config(), &s.duts[d].rf, &s.mask, &mut layers) {
                Ok(r) if r.matches(&report) => layers.staged_ns += r.staged_ns,
                Ok(_) => out.fail(format!("DUT {d}: replica report differs from the engine's")),
                Err(e) => out.fail(format!("DUT {d}: replica failed: {e}")),
            }
        }
        check(&mut out, &mut s.first[d], d, report);
    }

    // after the window: quality counts, and on the traced run the cost
    // of the golden-reference (Δε) path
    let mut with_ref = 0u64;
    let mut without_ref = 0u64;
    for (d, dut) in s.duts.iter().enumerate() {
        if s.first[d].as_ref().is_some_and(|r| !r.mask.passed) {
            layers.mask_fail_inputs += 1;
        }
        if args.trace {
            let t = Instant::now();
            let a = s
                .engine
                .try_run_with(&dut.rf, &s.mask, Some(&dut.ideal), &mut s.scratch);
            with_ref += since(t);
            let t = Instant::now();
            let b = s
                .engine
                .try_run_with(&dut.rf, &s.mask, none, &mut s.scratch);
            without_ref += since(t);
            match (a, b) {
                (Ok(a), Ok(b)) if a.mask == b.mask && a.skew == b.skew => {}
                _ => out.fail(format!("DUT {d}: the reference changed the verdict")),
            }
        }
    }
    out.notes.push(format!(
        "mask.fail_verdicts {} of {DUTS} DUTs, lms skew error max {:.3} ps",
        layers.mask_fail_inputs,
        s.first
            .iter()
            .flatten()
            .map(|r| r.skew_abs_error() * 1e12)
            .fold(0.0, f64::max)
    ));
    if args.trace {
        layers.delta_eps_ms = (with_ref as f64 - without_ref as f64) / DUTS as f64 / 1e6;
        layers.check_coverage(&mut out);
        layers.emit(&mut out);
    } else {
        latency_metrics(&mut out, &verdict_ms);
    }
    Ok(out)
}
