//! Headless perf-trajectory harness: times the PNBS reconstruction
//! kernels (planned engine vs the direct eq. 6 reference, measured in
//! the same run) and the verdict pipeline around them, writes
//! `BENCH_recon.json`, then judges its gates.
//!
//! ```sh
//! cargo run --release -p rfbist-bench --bin perf_report            # full
//! cargo run --release -p rfbist-bench --bin perf_report -- --quick # CI smoke
//! cargo run --release -p rfbist-bench --bin perf_report -- --out some.json
//! ```
//!
//! Every floor and contract is one row of [`GATES`]: the reading it
//! judges, its (full, quick) bound, what the host must offer before it
//! is judged (the FMA dispatch, two cores), and whether CI compares the
//! reading against the committed `BENCH_recon.json`. The report lists
//! those compared fields under `"compared"`; after writing it the
//! binary names every failed gate and exits non-zero.
//!
//! Sections, each timed against a reference in the same run, with
//! medians a machine can diff across commits:
//!
//! 1. **point_reconstruct** — one eq. 6 evaluation (61 taps, Kaiser
//!    β = 8): `try_reconstruct_at_reference` vs the planned single-point
//!    `try_reconstruct_at`, which fills the plan's tables over the whole
//!    capture per call. Reported, not gated: no verdict path makes
//!    single-point calls.
//! 2. **cost_grid** — the Fig. 5 sweep on the paper's random probes
//!    (paper front-end): `evaluate_reference` per candidate vs
//!    `eval_grid`, which combines the `D̂`-separable probe sums the
//!    cost built once. The per-candidate speedup is gated and the
//!    build is reported as its own field, `build_median_ns`. The same
//!    run also gates the NRMSE between the planned and reference
//!    grids — the ≤ 1e-9 equivalence contract.
//! 3. **lms** — Algorithm 1 on the same fixture: the median time of
//!    one `estimate_skew_lms` *with the cost build included*, its
//!    iteration and cost-evaluation counts, and `speedup_vs_reference`
//!    = evaluations × the reference's time per candidate / that LMS
//!    time. Both sides are measured in the same run and neither
//!    depends on the core count; the ratio is gated. The build and
//!    LMS timings run last, after the service section, so their
//!    allocations cannot disturb the others.
//! 4. **grid_reconstruct** — the analysis-grid workload of
//!    `BistEngine::try_run` (12288 uniform points at 4 GHz in both modes, a
//!    9/400 lattice of the sample period): the direct reference per
//!    point vs the planned grid (`PnbsGridPlan::try_reconstruct_grid`,
//!    phase-major on this rational grid, with the runtime-dispatched
//!    SIMD kernels), gated at ≤ 1e-9 NRMSE against the reference, with
//!    a speedup floor everywhere and a higher one where the AVX2/
//!    AVX-512+FMA kernels can dispatch. The same grid also runs on the
//!    portable kernel (`try_reconstruct_grid_on`), timed interleaved
//!    with the dispatched one: `simd_speedup`, gated where the FMA
//!    dispatch is active. Reported, not gated: the grid at 4096 and
//!    16384 points on an 800-pair capture (each one batch chunk of 400
//!    row builds), fitted to `row_build_ns` per row and `ns_per_dot`
//!    per point. Then `rows_once_speedup`: the 12288-point grid
//!    through the early-stop feed (8192-point chunks, 800 row builds)
//!    over the default feed (one chunk, 400 row builds), interleaved,
//!    the two checked bit-identical and the ratio gated on every arm.
//! 5. **mask_scan** — one spectral-mask verdict, FFT-Welch vs the
//!    banked Goertzel scan. The speedup is gated only when the
//!    AVX2+FMA kernels can dispatch (on plain SSE2/NEON the bank loses
//!    to the FFT by design); agreement is gated everywhere.
//! 6. **stream_bist** — the end-to-end verdict pipeline
//!    (reconstruction → scan), full-grid batch (the pre-streaming
//!    engine: materialize the grid, construct the scanner, scan) vs
//!    the streaming single pass (block feed → push-style scan with
//!    engine-held scratch), plus the early-exit case on a grossly
//!    failing unit, on the early-stop feed as the engine runs an armed
//!    early verdict. Verdict agreement is gated everywhere (the paths
//!    are bit-identical by construction); the sequential stream must
//!    not regress below the batch (with the Welch window folded inside
//!    the banked pass the streamed verdict sits at ~0.95–1.0× of a
//!    batch that additionally pays per-verdict allocation and scanner
//!    construction), and the early exit must beat the batch outright
//!    (SIMD-free and core-count-free — reconstruction stops at the
//!    first completed segment).
//! 7. **service** — the sharded verdict service: a batch of identical
//!    calibrated-skew jobs through the persistent worker pool at 1, 2
//!    and 4 workers vs the direct `try_run_with` loop on one reused
//!    scratch, all four timed interleaved inside one rep loop. Every
//!    outcome must be bit-identical to the direct verdict. The
//!    core-count-free gates are the 1-worker throughput (verdicts/s)
//!    and `overhead_1w` (the pool's queue, clone and channel overhead
//!    must stay a small fraction of a verdict); `scaling_2w` is gated
//!    only where ≥ 2 cores exist to express it.
//! 8. **capture** — stage 1 of every simulated verdict: one Section V
//!    capture pair (fast 380 + slow 200 pairs, paper front-end,
//!    `TxImpairments::typical()`) through `rf_output()`, whose SRRC
//!    baseband runs the angle-sum tap table, vs the same chain on the
//!    direct per-tap baseband (`fixtures::reference_rf_output`), timed
//!    interleaved in one rep loop. The two captures must be
//!    bit-identical, and the speedup is gated. Timed last, after the
//!    LMS and the probe sums, so it cannot move any other section's
//!    readings.
//! 9. **probe_sums** — the `cost_grid` fixture's probe sums built and
//!    evaluated on the dispatched kernel arm and on the portable one
//!    (`ProbeSums::{try_new_on, eval_into_on}`), interleaved:
//!    `build_simd_speedup` and `eval_simd_speedup`, gated where the
//!    FMA dispatch is active. Then the engine's Section V captures and
//!    the 300 probes of its lattice schedule, summed in grid order
//!    (`ProbeSums::try_new_grid`, each residue's weights shared) and in
//!    the instants order on the same times, interleaved:
//!    `lattice_build_speedup` and `lattice_eval_speedup`, gated on
//!    every arm, with the two orders within 1e-9 of each other.
//! 10. **fma_bound** — informational, not gated: each eight-lane
//!     kernel's counted multiply-adds per op (a grid point's dot
//!     product, a probe row's build, a probe's evaluation) and the
//!     fraction of an in-run peak (`FmaPeak`: eight register-resident
//!     accumulator chains on the dispatched arm) its measured time
//!     reaches, beside an in-run eight-lane divide peak (`DivPeak`).
//! 11. **stages** — one uncalibrated and one calibrated Section V
//!     verdict, each timed untraced (`try_run_with`) and traced into a
//!     `StageLedger` (`try_run_traced`), interleaved: the per-stage
//!     medians, and the median over reps of the stage sum over the
//!     untraced verdict timed beside it, gated within 10 % of 1.

use rfbist::fixtures::reference_rf_output;
use rfbist_bench::{interleaved_medians, median, paper_cost, paper_stimulus, paper_tx, Frontend};
use rfbist_converter::bptiadc::BpTiadc;
use rfbist_converter::calibration::auto_calibrate;
use rfbist_core::bist::{welch_segmentation, BistConfig, BistEngine, BistScratch};
use rfbist_core::cost::DualRateCost;
use rfbist_core::lms::{estimate_skew_lms, LmsConfig};
use rfbist_core::mask::SpectralMask;
use rfbist_core::scan::{EarlyVerdict, MaskScanEngine, ScanFeed, StreamScratch};
use rfbist_core::trace::{StageLedger, VerdictStage};
use rfbist_dsp::psd::welch;
use rfbist_dsp::simd::{Arm, F64x8, Kernel};
use rfbist_dsp::window::Window;
use rfbist_math::stats::nrmse;
use rfbist_rfchain::impairments::TxImpairments;
use rfbist_rfchain::txchain::{HomodyneTx, ImpairedEnvelope};
use rfbist_sampling::band::BandSpec;
use rfbist_sampling::gridplan::{GridBlocks, GridScratch, ProbeSums, PROBE_TAPS};
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
use rfbist_signal::bandpass::BandpassSignal;
use rfbist_signal::baseband::ShapedBaseband;
use rfbist_signal::tone::{MultiTone, Tone};
use rfbist_signal::traits::ContinuousSignal;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use Arming::{FmaDispatch, TwoCores};
use Cmp::{Above, AtLeast, AtMost};

const FC: f64 = 1e9;
const B: f64 = 90e6;
const D: f64 = 180e-12;

/// Rate of the engine's Section V analysis grid: a 9/400 lattice of
/// the sample period.
const FS_GRID: f64 = 4e9;

/// How a gate compares its reading with its bound.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cmp {
    AtLeast,
    /// Strictly above.
    Above,
    AtMost,
}

/// What the host must offer before a gate is judged; elsewhere the
/// reading is reported, not judged.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Arming {
    Always,
    /// The dispatched kernels run an FMA arm: false on scalar hardware
    /// and under `RFBIST_FORCE_SCALAR`.
    FmaDispatch,
    /// At least two workers can run at once.
    TwoCores,
}

/// One row of [`GATES`].
#[derive(Clone, Copy, Debug)]
struct Gate {
    /// The reading it judges: the report's `section.field` where the
    /// report has one.
    name: &'static str,
    cmp: Cmp,
    /// The bound in full and in quick mode.
    bound: (f64, f64),
    arming: Arming,
    /// Whether CI compares the reading against the committed
    /// `BENCH_recon.json`.
    compared: bool,
}

impl Gate {
    const fn new(name: &'static str, cmp: Cmp, bound: (f64, f64)) -> Self {
        Gate {
            name,
            cmp,
            bound,
            arming: Arming::Always,
            compared: false,
        }
    }

    /// A contract that held (reading 1) or not (0).
    const fn check(name: &'static str) -> Self {
        Gate::new(name, AtLeast, (1.0, 1.0))
    }

    const fn armed(self, arming: Arming) -> Self {
        Gate { arming, ..self }
    }

    const fn compared(self) -> Self {
        Gate {
            compared: true,
            ..self
        }
    }

    /// The bound this run's mode judges against.
    fn bound(&self, quick: bool) -> f64 {
        if quick {
            self.bound.1
        } else {
            self.bound.0
        }
    }
}

/// Every gate, in the order they are judged. Readings quoted come from
/// a 2-core AVX-512 VM.
const GATES: &[Gate] = &[
    Gate::new(
        "cost_grid_sweep.planned_vs_reference_nrmse",
        AtMost,
        (1e-9, 1e-9),
    ),
    // Single-threaded ratios, so the gates pin the probe sums, not the
    // core count. Reads 573–1210x full (24 runs) and 532–994x quick
    // (17 runs), 903–968x quick under RFBIST_FORCE_SCALAR; a regression
    // that rebuilds a weight row per probe and candidate falls back to
    // the ~40–70x per-instant level.
    Gate::new("cost_grid_sweep.speedup", AtLeast, (200.0, 150.0)).compared(),
    // Counts the cost build: an evaluation that got cheap by moving work
    // into the build cannot pass. Reads 209–405x full and 202–448x quick
    // over the same runs, 238–258x quick under RFBIST_FORCE_SCALAR.
    Gate::new("lms.speedup_vs_reference", AtLeast, (100.0, 80.0)).compared(),
    Gate::new(
        "grid_reconstruct.grid_vs_reference_nrmse",
        AtMost,
        (1e-9, 1e-9),
    ),
    // Both floors sit far under the ~350–680x of the phase-major path;
    // they catch a grid that silently falls back to a per-instant cost.
    // The higher one needs the FMA kernels.
    Gate::new("grid_reconstruct.speedup", AtLeast, (12.0, 9.0)).compared(),
    Gate::new("grid_reconstruct.speedup", AtLeast, (33.0, 24.0)).armed(FmaDispatch),
    // Each dispatched lane kernel against its portable instantiation on
    // the same inputs, timed interleaved: a kernel that LLVM compiles
    // 2-wide or scalar falls under its floor. Readings on the AVX-512
    // arm (the AVX2 arm reads about the same), against the same kernels
    // with `[f64; 8]` array accumulators, which LLVM compiled 2-wide or
    // scalar:
    //
    // | ratio | quick | full | arrays |
    // |---|---|---|---|
    // | `grid_reconstruct.simd_speedup` | 1.77–2.29x | 1.91–2.25x | 1.22–1.45x |
    // | `probe_sums.build_simd_speedup` | 2.49–3.11x | 2.07–3.09x | 1.33–1.52x |
    // | `probe_sums.eval_simd_speedup` | 1.11–1.48x | 1.21–1.54x | 0.87–0.99x |
    //
    // An evaluation's fixed cost (its weights and basis) weighs more
    // with quick mode's 80 probes, hence the lower quick eval ratio.
    Gate::new("grid_reconstruct.simd_speedup", AtLeast, (1.6, 1.5))
        .armed(FmaDispatch)
        .compared(),
    Gate::new("probe_sums.build_simd_speedup", AtLeast, (1.75, 1.9))
        .armed(FmaDispatch)
        .compared(),
    Gate::new("probe_sums.eval_simd_speedup", AtLeast, (1.1, 1.05))
        .armed(FmaDispatch)
        .compared(),
    // The lattice schedule's probe sums in grid order follow the
    // instants order on the same times (the probe sums' 1e-9 contract)
    // and beat it, on every arm: both orders run the same kernels, and a
    // grid order that built one probe per residue would read ~1x. Build
    // 3.2–3.9x and evaluation 1.4–1.8x on the AVX-512 arm (16 runs,
    // quick and full), 1.51–1.54x and 1.58–1.63x on the portable one,
    // whose per-probe passes weigh more against the shared ones.
    Gate::new(
        "probe_sums.lattice_vs_instants_max_diff",
        AtMost,
        (1e-9, 1e-9),
    ),
    Gate::new("probe_sums.lattice_build_speedup", AtLeast, (1.3, 1.3)).compared(),
    Gate::new("probe_sums.lattice_eval_speedup", AtLeast, (1.2, 1.2)).compared(),
    // Both feeds yield the same bits, and the default feed (one chunk,
    // 400 row builds) beats the early-stop feed (two chunks, 800), on
    // every arm; a producer that went back to building its rows per
    // 8192-point chunk would read ~1x. Reads 1.27–1.38x quick (20 runs)
    // and 1.28–1.69x full (24) on the AVX-512 arm, 1.18–1.22x quick (7)
    // and 1.11–1.30x full (12) on the portable one, whose slower dot
    // products leave the rows a smaller share.
    Gate::check("grid_reconstruct.rows_once_bit_identical"),
    Gate::new("grid_reconstruct.rows_once_speedup", AtLeast, (1.1, 1.1)).compared(),
    // |stage sum / untraced − 1| per verdict: a traced verdict's stages
    // account for the untraced verdict's time, each rep's pair compared
    // (the medians of ~1 ms verdicts drift apart by up to ~10 % over a
    // quick run).
    Gate::new("stages.uncalibrated.stage_sum_error", AtMost, (0.1, 0.1)),
    Gate::new("stages.calibrated.stage_sum_error", AtMost, (0.1, 0.1)),
    // The banked Goertzel scan probes the FFT-Welch reference's bins, so
    // 0.5 dB is ~9 orders of magnitude of headroom. Its speedup floors
    // sit well under the ~1.5x a quiet x86 machine reads (the FFT side's
    // large allocations make single runs noisy) and arm only with the
    // FMA kernels: on plain SSE2/NEON the O(bins·N) bank loses to the
    // O(N log N) FFT.
    Gate::check("mask_scan.verdicts_agree"),
    Gate::new("mask_scan.worst_margin_delta_db", AtMost, (0.5, 0.5)),
    Gate::new("mask_scan.speedup", Above, (1.25, 1.0)).armed(FmaDispatch),
    // The block feed reproduces the batch wave bit for bit and the
    // streamed scan the batched scan, so the margin delta sits at zero.
    // The stream floors are SIMD-independent (both pipelines run the
    // same dispatched kernels). The single pass does the batch's
    // arithmetic minus its per-verdict allocation, wave and scanner
    // construction (~0.95–1.0x on one shared core): its floor catches a
    // quadratic carry, a per-block table rebuild or a staging pass, not
    // noise. The early exit skips a third of the reconstruction, so it
    // beats the batch on any core count.
    Gate::check("stream_bist.verdicts_agree"),
    Gate::new("stream_bist.worst_margin_delta_db", AtMost, (1e-9, 1e-9)),
    Gate::new("stream_bist.stream_speedup", AtLeast, (0.95, 0.9)),
    Gate::check("stream_bist.early_exit_fired"),
    Gate::check("stream_bist.early_exit_before_full_grid"),
    Gate::new("stream_bist.early_exit_speedup", AtLeast, (1.2, 1.1)).compared(),
    // The angle-sum table reproduces the direct per-tap baseband's
    // 10-bit captures exactly and beats it; both paths are plain scalar
    // code, and per-tap trig would read ~1x. Reads 2.63–3.22x full and
    // 2.47–3.02x quick (21 runs each), 2.54–4.25x under
    // RFBIST_FORCE_SCALAR (12 runs across both modes).
    Gate::check("capture.bit_identical"),
    Gate::new("capture.speedup", AtLeast, (1.6, 1.5)).compared(),
    // Every pool outcome equals the direct verdict. The 1-worker
    // throughput floor sits an order of magnitude under one slow shared
    // core (a per-job reallocation storm or a serialized queue
    // collapses it by that much), and the pool's queue, clone and
    // channel cost stays within 30 % of a verdict; both are
    // core-count-free. Scaling needs two cores to express.
    Gate::check("service.bit_identical"),
    Gate::new("service.verdicts_per_sec_1w", AtLeast, (50.0, 25.0)),
    Gate::new("service.overhead_1w", AtLeast, (0.7, 0.7)).compared(),
    Gate::new("service.scaling_2w", Above, (1.3, 1.3))
        .armed(TwoCores)
        .compared(),
];

/// The fields CI compares against the committed `BENCH_recon.json`.
fn compared_fields() -> Vec<&'static str> {
    GATES
        .iter()
        .filter(|g| g.compared)
        .map(|g| g.name)
        .collect()
}

/// What the host offers the gates' arming conditions.
#[derive(Clone, Copy, Debug)]
struct Host {
    fma_dispatch: bool,
    workers: usize,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Outcome {
    Passed,
    Failed,
    /// Reported, not judged: the host lacks what the gate needs.
    Unarmed,
}

struct Judged {
    gate: &'static Gate,
    reading: f64,
    outcome: Outcome,
}

impl Judged {
    /// The line a gate that did not pass prints.
    fn line(&self, quick: bool) -> Option<String> {
        let (gate, reading) = (self.gate, self.reading);
        let cmp = match gate.cmp {
            AtLeast => ">=",
            Above => ">",
            AtMost => "<=",
        };
        let bound = gate.bound(quick);
        match self.outcome {
            Outcome::Passed => None,
            Outcome::Failed => Some(format!(
                "gate FAILED: {} = {reading}, needs {cmp} {bound}",
                gate.name
            )),
            Outcome::Unarmed => Some(format!(
                "gate {} ({cmp} {bound}) not judged without {:?}: measured {reading}",
                gate.name, gate.arming
            )),
        }
    }
}

/// Judges every row of [`GATES`] on `readings` (each gate's reading by
/// name; a check reads 1 when it held), in table order. An unarmed
/// gate is reported, not failed, and a failed one does not stop the
/// rows after it.
///
/// # Panics
///
/// Panics if a gate has no reading.
fn judge(readings: &[(&str, f64)], quick: bool, host: Host) -> Vec<Judged> {
    GATES
        .iter()
        .map(|gate| {
            let reading = readings
                .iter()
                .find(|(name, _)| *name == gate.name)
                .unwrap_or_else(|| panic!("no reading for gate {}", gate.name))
                .1;
            let armed = match gate.arming {
                Arming::Always => true,
                FmaDispatch => host.fma_dispatch,
                TwoCores => host.workers >= 2,
            };
            let bound = gate.bound(quick);
            let passed = match gate.cmp {
                AtLeast => reading >= bound,
                Above => reading > bound,
                AtMost => reading <= bound,
            };
            let outcome = match (armed, passed) {
                (false, _) => Outcome::Unarmed,
                (true, true) => Outcome::Passed,
                (true, false) => Outcome::Failed,
            };
            Judged {
                gate,
                reading,
                outcome,
            }
        })
        .collect()
}

/// Evaluation sweeps per interleaved rep of `probe_sums`: one sweep of
/// the candidates takes only tens of microseconds.
const EVAL_SWEEPS: usize = 8;

/// Interleaved reps per `cfg.reps` of the ratios timed through
/// [`interleaved_medians`] (each rep times ~10 ms of work or less).
const SIMD_RATIO_REPS: usize = 4;

/// Multiply-adds of one grid point's dot product: both streams' taps.
const GRID_DOT_FMAS: usize = 2 * PROBE_TAPS;

/// Multiply-adds of one probe row's build: one six-plane pass over the
/// 64 zero-padded taps for the even stream and one per Chebyshev node
/// (9) for the odd one.
const PROBE_BUILD_FMAS: usize = (1 + 9) * 6 * 64;

/// Multiply-adds of one probe's evaluation: its `6 + 6·9`-value row
/// dotted with the weight vector.
const PROBE_EVAL_FMAS: usize = 6 + 6 * 9;

struct Config {
    quick: bool,
    out: String,
    /// timing samples per kernel; the reported figure is their median
    reps: usize,
    probes: usize,
    candidates: usize,
}

/// The typical-impairment Section V DUT's RF output.
type Dut = BandpassSignal<ImpairedEnvelope<ShapedBaseband>>;

/// The Section V fixtures the sections share, built once.
struct SectionV {
    /// The paper stimulus (96 symbols).
    stimulus: BandpassSignal<ShapedBaseband>,
    /// Its 380-pair ideal capture and the paper reconstructor.
    cap: NonuniformCapture,
    rec: PnbsReconstructor,
    /// The analysis grid on `cap`: its first instant and its length at
    /// [`FS_GRID`] (the engine's 12288 points).
    lo: f64,
    points: usize,
    /// The typical-impairment DUT and its RF output.
    tx: HomodyneTx<ShapedBaseband>,
    dut: Arc<Dut>,
    /// The Fig. 5 cost: `cfg.probes` random probes, paper front-end.
    cost: DualRateCost,
}

impl SectionV {
    fn new(cfg: &Config) -> Self {
        let stimulus = paper_stimulus(96, 0xACE1);
        let cap = NonuniformCapture::from_signal(&stimulus, 1.0 / B, D, 80, 380);
        let rec =
            PnbsReconstructor::paper_default(BandSpec::centered(FC, B), D).expect("valid delay");
        let (lo, hi) = rec.coverage(&cap).expect("capture too short");
        // Both modes time the whole grid: the batch grid builds its 400
        // rows once, so a shorter quick grid would weigh them more per
        // point than the full-mode baseline CI compares it with.
        let points = 12288usize.min(((hi - lo) / (1.0 / FS_GRID)) as usize);
        let tx = paper_tx(TxImpairments::typical(), 160, 0xACE1);
        let dut = Arc::new(tx.rf_output());
        SectionV {
            stimulus,
            cap,
            rec,
            lo,
            points,
            tx,
            dut,
            cost: paper_cost(Frontend::Paper, cfg.probes, 42),
        }
    }
}

fn bench_point_reconstruct(cfg: &Config, fx: &SectionV) -> (f64, f64) {
    let tone = Tone::unit(0.987e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -60, 400);
    let rec = &fx.rec;
    let points = if cfg.quick { 2_000 } else { 10_000 };
    let times: Vec<f64> = (0..points)
        .map(|i| 1.0e-6 + (i % 192) as f64 * 7.7e-9)
        .collect();

    let mut reference = || {
        for &t in &times {
            black_box(
                rec.try_reconstruct_at_reference(&cap, black_box(t))
                    .expect("instant inside the capture coverage"),
            );
        }
    };
    let [reference_ns] = interleaved_medians(cfg.reps, points, [&mut reference]);
    let mut planned = || {
        for &t in &times {
            black_box(
                rec.try_reconstruct_at(&cap, black_box(t))
                    .expect("instant inside the capture coverage"),
            );
        }
    };
    let [planned_ns] = interleaved_medians(cfg.reps, points, [&mut planned]);
    (reference_ns, planned_ns)
}

struct CostGridResult {
    reference_ns: f64,
    planned_ns: f64,
    nrmse: f64,
}

fn bench_cost_grid(cfg: &Config, fx: &SectionV) -> CostGridResult {
    let cost = &fx.cost;
    let candidates = cost
        .try_sweep_candidates(cfg.candidates)
        .expect("at least two candidates");

    let mut reference_grid = Vec::new();
    let mut reference = || {
        reference_grid = candidates
            .iter()
            .map(|&d| cost.evaluate_reference(d))
            .collect();
        black_box(&reference_grid);
    };
    let [reference_ns] = interleaved_medians(cfg.reps, candidates.len(), [&mut reference]);

    // Per candidate, single-threaded like the reference: the probe
    // sums are built with the cost, outside this timing.
    let mut planned_grid = Vec::new();
    let mut planned = || {
        planned_grid = cost.eval_grid(&candidates);
        black_box(&planned_grid);
    };
    let [planned_ns] = interleaved_medians(cfg.reps, candidates.len(), [&mut planned]);

    CostGridResult {
        reference_ns,
        planned_ns,
        nrmse: nrmse(&planned_grid, &reference_grid),
    }
}

struct LmsResultNs {
    /// Median ns per cost build (both captures' probe sums).
    build_ns: f64,
    /// Median ns per LMS run with its cost build.
    ns: f64,
    iterations: usize,
    evaluations: usize,
}

/// The cost build and Algorithm 1 on the `cost_grid` fixture, from the
/// paper's 60 ps start, each run paying for its own cost build as a
/// verdict does. Run after every other section: in a full-mode A/B on
/// the 2-core VM, timing these first moved the next section's
/// `stream_bist.stream_speedup` median from ~1.01 to ~0.97.
fn bench_lms(cfg: &Config, fx: &SectionV) -> LmsResultNs {
    let cost = &fx.cost;
    let rebuild = || {
        DualRateCost::try_new(
            cost.fast_capture().clone(),
            cost.slow_capture().clone(),
            *cost.config(),
            cost.times().to_vec(),
        )
        .expect("a well-formed configuration")
    };
    let mut build = || {
        black_box(rebuild());
    };
    let [build_ns] = interleaved_medians(cfg.reps, 1, [&mut build]);
    let lms_config = LmsConfig::paper_default(60e-12);
    let mut run = estimate_skew_lms(cost, lms_config);
    let mut run_lms = || {
        run = estimate_skew_lms(&rebuild(), lms_config);
        black_box(&run);
    };
    let [ns] = interleaved_medians(cfg.reps, 1, [&mut run_lms]);
    LmsResultNs {
        build_ns,
        ns,
        iterations: run.iterations,
        evaluations: run.evaluations,
    }
}

struct CaptureResult {
    /// Median ns per capture pair through the direct per-tap baseband.
    reference_ns: f64,
    /// Median ns per capture pair through `rf_output()`.
    ns: f64,
    /// Samples per capture pair, both channels of both rates.
    samples: usize,
    /// Whether both paths gave the same bits on every sample.
    bit_identical: bool,
}

/// Both Section V captures of `signal` through the paper front-end,
/// as raw sample bits.
fn capture_pair_bits<S: ContinuousSignal>(signal: &S, bist: &BistConfig) -> Vec<u64> {
    let fast = BpTiadc::new(bist.frontend_fast).capture(signal, bist.fast_start, bist.fast_len);
    let slow = BpTiadc::new(bist.frontend_slow).capture(signal, bist.slow_start, bist.slow_len);
    [fast.even(), fast.odd(), slow.even(), slow.odd()]
        .concat()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// The capture stage of a Section V verdict: the DUT waveform
/// evaluated at every sampling instant of the fast and slow captures.
/// `rf_output()` vs the reference chain, each timed over a few pairs
/// per rep, interleaved inside one rep loop as `stream_bist` does.
fn bench_capture(cfg: &Config, fx: &SectionV) -> CaptureResult {
    let bist = BistConfig::paper_default();
    let (rf, reference) = (&*fx.dut, reference_rf_output(&fx.tx));
    let pairs = if cfg.quick { 4 } else { 8 };
    let bits = capture_pair_bits(rf, &bist);
    let bit_identical = bits == capture_pair_bits(&reference, &bist);

    let [reference_ns, ns] = interleaved_medians(
        3 * cfg.reps,
        pairs,
        [
            &mut || {
                for _ in 0..pairs {
                    black_box(capture_pair_bits(&reference, &bist));
                }
            },
            &mut || {
                for _ in 0..pairs {
                    black_box(capture_pair_bits(rf, &bist));
                }
            },
        ],
    );
    CaptureResult {
        reference_ns,
        ns,
        samples: bits.len(),
        bit_identical,
    }
}

struct GridReconResult {
    reference_ns: f64,
    grid_ns: f64,
    /// Median ns/pt of the same grid on the portable kernel
    /// (`try_reconstruct_grid_on(Arm::Portable, ..)`), timed interleaved
    /// with `grid_ns`.
    portable_ns: f64,
    nrmse: f64,
    points: usize,
}

/// The analysis-grid workload: `BistEngine::try_run` step 4 reconstructs
/// the RF waveform on a dense uniform grid (~12288 points at 4 GHz)
/// before every mask verdict. The direct reference
/// (`try_reconstruct_at_reference`: four kernel cosines and two Kaiser
/// Bessel series per tap per point) vs the planned grid
/// (`try_reconstruct_grid`: the 4 GHz grid is a 9/400 lattice of the
/// sample period, so it runs phase-major — 400 weight rows for the
/// whole batch grid, one dot product per point, reusing its scratch
/// across repetitions exactly as the engine does across verdicts).
fn bench_grid_reconstruct(cfg: &Config, fx: &SectionV) -> GridReconResult {
    let (rec, cap, lo, points) = (&fx.rec, &fx.cap, fx.lo, fx.points);
    let dt = 1.0 / FS_GRID;

    let mut reference_wave = vec![0.0; points];
    let mut reference = || {
        for (i, slot) in reference_wave.iter_mut().enumerate() {
            *slot = rec
                .try_reconstruct_at_reference(cap, black_box(lo + i as f64 * dt))
                .expect("instant inside the capture coverage");
        }
        black_box(&reference_wave);
    };
    let [reference_ns] = interleaved_medians(cfg.reps, points, [&mut reference]);

    // The dispatched and the portable kernel, interleaved in one rep
    // loop so drift on a shared machine cancels out of their ratio.
    let plan = rec.grid_plan();
    let mut grid_scratch = GridScratch::new();
    let mut portable_scratch = GridScratch::new();
    let [grid_ns, portable_ns] = interleaved_medians(
        SIMD_RATIO_REPS * cfg.reps,
        points,
        [
            &mut || {
                black_box(
                    rec.try_reconstruct_grid(cap, lo, dt, points, &mut grid_scratch)
                        .expect("grid inside the capture coverage"),
                );
            },
            &mut || {
                black_box(plan.try_reconstruct_grid_on(
                    Arm::Portable,
                    cap,
                    lo,
                    dt,
                    points,
                    &mut portable_scratch,
                ));
            },
        ],
    );
    let grid_wave = grid_scratch.values();

    GridReconResult {
        reference_ns,
        grid_ns,
        portable_ns,
        nrmse: nrmse(grid_wave, &reference_wave),
        points,
    }
}

/// Grid lengths of the row-build split: two one-chunk batch grids of
/// the 4 GHz Section V lattice, each building its 400 rows once.
const SPLIT_POINTS: [usize; 2] = [4096, 16384];

/// Row builds per batch grid of the 4 GHz grid: its 9/400 lattice of
/// the sample period has 400 residues.
const SPLIT_ROWS: f64 = 400.0;

struct GridSplit {
    /// Median ns per grid at each of [`SPLIT_POINTS`], timed
    /// interleaved.
    grid_ns: [f64; 2],
    /// The fitted ns per 122-tap row build and per point.
    row_build_ns: f64,
    ns_per_dot: f64,
}

/// Where a grid point's time goes: the Section V grid at
/// [`SPLIT_POINTS`] on one 800-pair capture, each a batch grid (one
/// chunk, so 400 row builds either way), interleaved. The two times
/// fit `rows · row_build + points · per_point`: their difference is
/// all points.
fn bench_grid_split(cfg: &Config, fx: &SectionV) -> GridSplit {
    let stim = paper_stimulus(160, 0xACE1);
    let cap = NonuniformCapture::from_signal(&stim, 1.0 / B, D, 80, 800);
    let rec = &fx.rec;
    let (lo, hi) = rec.coverage(&cap).expect("capture too short");
    let dt = 1.0 / FS_GRID;
    assert!(
        (hi - lo) / dt >= SPLIT_POINTS[1] as f64,
        "capture covers both grids"
    );
    let (mut short, mut long) = (GridScratch::new(), GridScratch::new());
    let grid_ns = interleaved_medians(
        SIMD_RATIO_REPS * cfg.reps,
        1,
        [
            &mut || {
                black_box(
                    rec.try_reconstruct_grid(&cap, lo, dt, SPLIT_POINTS[0], &mut short)
                        .expect("grid inside the capture coverage"),
                );
            },
            &mut || {
                black_box(
                    rec.try_reconstruct_grid(&cap, lo, dt, SPLIT_POINTS[1], &mut long)
                        .expect("grid inside the capture coverage"),
                );
            },
        ],
    );
    let [p0, p1] = SPLIT_POINTS.map(|p| p as f64);
    // t₀ = R·rows + P·p₀ and t₁ = R·rows + P·p₁
    let ns_per_dot = (grid_ns[1] - grid_ns[0]) / (p1 - p0);
    GridSplit {
        grid_ns,
        row_build_ns: (grid_ns[0] - p0 * ns_per_dot) / SPLIT_ROWS,
        ns_per_dot,
    }
}

struct RowsOnce {
    points: usize,
    /// Median ns per grid through the early-stop feed and through the
    /// default feed, timed interleaved.
    stoppable_ns: f64,
    default_ns: f64,
    bit_identical: bool,
}

/// Drains a block feed, handing each block to `sink`.
fn drain_feed(mut blocks: GridBlocks<'_>, mut sink: impl FnMut(&[f64])) {
    while let Some(block) = blocks.next_block() {
        sink(block);
    }
}

/// What building each residue's row once per chunk saves: the
/// 12288-point Section V grid (9/400 lattice) through the early-stop
/// feed (8192-point chunks, 800 row builds) and through the default
/// feed (one chunk, 400), interleaved, in both modes. The two feeds
/// must yield the same bits.
fn bench_rows_once(cfg: &Config, fx: &SectionV) -> RowsOnce {
    let (rec, cap, lo, points) = (&fx.rec, &fx.cap, fx.lo, fx.points);
    let dt = 1.0 / FS_GRID;
    let (mut stoppable, mut default) = (GridScratch::new(), GridScratch::new());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    drain_feed(
        rec.grid_plan()
            .try_reconstruct_stoppable_blocks(cap, lo, dt, points, &mut stoppable)
            .expect("grid inside the capture coverage"),
        |block| a.extend_from_slice(block),
    );
    drain_feed(
        rec.grid_plan()
            .try_reconstruct_blocks(cap, lo, dt, points, &mut default)
            .expect("grid inside the capture coverage"),
        |block| b.extend_from_slice(block),
    );
    let [stoppable_ns, default_ns] = interleaved_medians(
        SIMD_RATIO_REPS * cfg.reps,
        1,
        [
            &mut || {
                drain_feed(
                    rec.grid_plan()
                        .try_reconstruct_stoppable_blocks(cap, lo, dt, points, &mut stoppable)
                        .expect("grid inside the capture coverage"),
                    |block| {
                        black_box(block);
                    },
                );
            },
            &mut || {
                drain_feed(
                    rec.grid_plan()
                        .try_reconstruct_blocks(cap, lo, dt, points, &mut default)
                        .expect("grid inside the capture coverage"),
                    |block| {
                        black_box(block);
                    },
                );
            },
        ],
    );
    RowsOnce {
        points,
        stoppable_ns,
        default_ns,
        bit_identical: a.len() == points && a == b,
    }
}

struct MaskScanResult {
    fft_welch_ns: f64,
    banked_ns: f64,
    probed_bins: usize,
    total_bins: usize,
    margin_delta_db: f64,
    verdicts_agree: bool,
}

/// The scanner `BistEngine::try_run` builds for `mask` on the Section V
/// analysis grid, Welch-segmented as `(seg, overlap)`.
fn section_v_scanner(mask: &SpectralMask, seg: usize, overlap: usize) -> MaskScanEngine {
    MaskScanEngine::try_build(
        mask,
        FC,
        FS_GRID,
        seg,
        overlap,
        Window::BlackmanHarris,
        None,
    )
    .expect("the Section V mask is resolvable on the analysis grid")
}

/// The mask-bin workload: one Section V reconstruction-grid waveform →
/// one spectral-mask verdict, FFT-Welch (full PSD + check) vs the
/// banked-Goertzel scan (mask bins only). Both paths share the
/// engine's `welch_segmentation` and window, and both timed regions
/// include their per-verdict setup exactly as `BistEngine::try_run` pays
/// it — `welch` regenerates its window per call, and the banked side
/// rebuilds the `MaskScanEngine` (window, bin table, coefficient
/// bank) per verdict — so the recorded speedup is what the engine
/// actually gains.
fn bench_mask_scan(cfg: &Config, fx: &SectionV) -> MaskScanResult {
    let n = 12288; // the BistConfig::paper_default analysis grid
    let wave = fx.stimulus.sample_uniform(1.0e-6, 1.0 / FS_GRID, n);
    let mask = SpectralMask::qpsk_10msym();
    let (seg, overlap) = welch_segmentation(n);

    let verdicts = if cfg.quick { 2 } else { 6 };
    let mut fft_report = None;
    let mut fft_welch = || {
        for _ in 0..verdicts {
            let psd = welch(&wave, FS_GRID, seg, overlap, Window::BlackmanHarris);
            fft_report = Some(black_box(
                mask.try_check(&psd, FC)
                    .expect("benchmark PSD is well-formed"),
            ));
        }
    };
    let [fft_welch_ns] = interleaved_medians(cfg.reps, verdicts, [&mut fft_welch]);
    let mut banked_report = None;
    let mut banked = || {
        for _ in 0..verdicts {
            let scan = section_v_scanner(&mask, seg, overlap);
            banked_report = Some(black_box(
                scan.try_scan(&wave)
                    .expect("benchmark wave spans a segment"),
            ));
        }
    };
    let [banked_ns] = interleaved_medians(cfg.reps, verdicts, [&mut banked]);
    let scan = section_v_scanner(&mask, seg, overlap);

    let fft_report = fft_report.expect("fft verdict");
    let banked_report = banked_report.expect("banked verdict");
    MaskScanResult {
        fft_welch_ns,
        banked_ns,
        probed_bins: scan.probed_bins(),
        total_bins: seg / 2 + 1,
        margin_delta_db: (fft_report.worst_margin_db - banked_report.worst_margin_db).abs(),
        verdicts_agree: fft_report.passed == banked_report.passed,
    }
}

struct StreamBistResult {
    points: usize,
    batch_ns: f64,
    stream_ns: f64,
    early_ns: f64,
    margin_delta_db: f64,
    verdicts_agree: bool,
    early_fired: bool,
    early_points: usize,
}

/// The end-to-end verdict pipeline on the Section V capture:
/// full-grid batch (fresh grid scratch, wave materialized, scanner
/// constructed per verdict — exactly what `BistEngine::try_run` paid
/// before the streaming refactor) vs the streaming single pass (block
/// feed pushed straight into the scan, everything reused — the
/// `try_run_with` steady state). The early-exit case times a grossly
/// violating unit under the default guard on the early-stop feed, as
/// the engine runs an armed early verdict: the feed stops at the
/// first completed Welch segment, skipping a third of the
/// reconstruction — the hottest loop of the whole pipeline.
fn bench_stream_bist(cfg: &Config, fx: &SectionV) -> StreamBistResult {
    let (rec, cap, lo, points) = (&fx.rec, &fx.cap, fx.lo, fx.points);
    let dt = 1.0 / FS_GRID;
    let mask = SpectralMask::qpsk_10msym();
    let (seg, overlap) = welch_segmentation(points);
    let verdicts = if cfg.quick { 2 } else { 4 };

    // The three configurations are timed interleaved, each with its
    // own scratch, so slow drift on a shared machine (the dominant
    // noise source at ~10 ms per verdict) hits every configuration
    // equally and cancels out of the ratios.
    let scan = section_v_scanner(&mask, seg, overlap);
    let (mut grid, mut stream_scratch) = (GridScratch::new(), StreamScratch::new());
    let (mut early_grid, mut early_scratch) = (GridScratch::new(), StreamScratch::new());
    // Early-exit fixture: a gross in-mask spur (−10 dBc at 15 MHz
    // offset) stops the feed at the first completed segment.
    let spur = MultiTone::new(vec![
        Tone::unit(FC),
        Tone::new(FC + 15e6, 10f64.powf(-10.0 / 20.0), 0.3),
    ]);
    let spur_cap = NonuniformCapture::from_signal(&spur, 1.0 / B, D, 80, 380);
    let (spur_lo, _) = rec.coverage(&spur_cap).expect("capture too short");

    let mut batch_report = None;
    let mut stream_report = None;
    let mut early_fired = false;
    let mut early_points = 0usize;
    let [batch_ns, stream_ns, early_ns] = interleaved_medians(
        SIMD_RATIO_REPS * cfg.reps,
        verdicts,
        [
            // Full-grid batch: per-verdict allocation and construction
            // included, exactly as the engine paid it before streaming.
            &mut || {
                for _ in 0..verdicts {
                    let mut batch_grid = GridScratch::new();
                    rec.try_reconstruct_grid(cap, lo, dt, points, &mut batch_grid)
                        .expect("grid inside the capture coverage");
                    let wave = batch_grid.into_values();
                    let batch_scan = section_v_scanner(&mask, seg, overlap);
                    batch_report = Some(black_box(
                        batch_scan
                            .try_scan(&wave)
                            .expect("benchmark wave spans a segment"),
                    ));
                }
            },
            // Streaming single pass, scratch and scanner held across
            // verdicts (the `try_run_with` steady state).
            &mut || {
                for _ in 0..verdicts {
                    let mut stream = scan
                        .stream(&mut stream_scratch, None)
                        .with_capture_len(points);
                    let mut blocks = rec
                        .grid_plan()
                        .try_reconstruct_blocks(cap, lo, dt, points, &mut grid)
                        .expect("grid inside the capture coverage");
                    while let Some(block) = blocks.next_block() {
                        if stream.push(block) == ScanFeed::EarlyStop {
                            break;
                        }
                    }
                    stream_report = Some(black_box(
                        stream
                            .try_finish()
                            .expect("stream fed at least one segment"),
                    ));
                }
            },
            // Early exit on the gross-violation fixture.
            &mut || {
                for _ in 0..verdicts {
                    let mut stream = scan
                        .stream(&mut early_scratch, Some(EarlyVerdict::paper_default()))
                        .with_capture_len(points);
                    let mut blocks = rec
                        .grid_plan()
                        .try_reconstruct_stoppable_blocks(
                            &spur_cap,
                            spur_lo,
                            dt,
                            points,
                            &mut early_grid,
                        )
                        .expect("grid inside the capture coverage");
                    let mut produced = 0usize;
                    while let Some(block) = blocks.next_block() {
                        produced += block.len();
                        if stream.push(block) == ScanFeed::EarlyStop {
                            break;
                        }
                    }
                    early_fired = stream.early_stopped();
                    early_points = produced;
                    black_box(
                        stream
                            .try_finish()
                            .expect("stream fed at least one segment"),
                    );
                }
            },
        ],
    );

    let batch_report = batch_report.expect("batch verdict");
    let stream_report = stream_report.expect("streamed verdict");
    StreamBistResult {
        points,
        batch_ns,
        stream_ns,
        early_ns,
        margin_delta_db: (batch_report.worst_margin_db - stream_report.worst_margin_db).abs(),
        verdicts_agree: batch_report.passed == stream_report.passed,
        early_fired,
        early_points,
    }
}

struct ServiceResult {
    available_workers: usize,
    jobs_per_batch: usize,
    /// Whether every pool outcome equalled the direct verdict.
    bit_identical: bool,
    direct_ns: f64,
    /// `(workers, median ns/verdict through the service)`.
    saturation: [(usize, f64); 3],
}

/// The verdict-service workload: a batch of identical calibrated-skew
/// jobs (short 2048-point analysis grid) through the persistent pool at
/// 1, 2 and 4 workers, against the direct `try_run_with` loop on one
/// reused scratch. Each pool is warmed with one untimed batch (thread
/// start + scratch growth), whose outcomes are compared with the
/// direct verdict bit for bit. The direct loop and the three pools are
/// then timed over whole submit-all/collect-all batches *interleaved*
/// inside one rep loop, as `stream_bist` does, so slow drift on a
/// shared machine hits every configuration alike and cancels out of
/// the ratios.
fn bench_service(cfg: &Config, fx: &SectionV) -> ServiceResult {
    use rfbist_core::service::{ServiceConfig, SharedSignal, VerdictJob, VerdictService};

    let mut bist = BistConfig::paper_default()
        .try_with_calibrated_skew(D)
        .expect("a positive skew");
    bist.grid_len = 2048;
    let mask = SpectralMask::qpsk_10msym();
    let stimulus: SharedSignal = fx.dut.clone();
    let jobs_per_batch = if cfg.quick { 4 } else { 8 };
    let make_jobs = |n: usize| -> Vec<VerdictJob> {
        (0..n as u64)
            .map(|job_id| VerdictJob {
                job_id,
                dut: job_id as u32,
                standard: "qpsk-10msym-srrc0.5".into(),
                config: bist.clone(),
                mask: mask.clone(),
                stimulus: Arc::clone(&stimulus),
                reference: None,
            })
            .collect()
    };

    // Direct single-shot loop on one warm scratch — what the service's
    // workers do minus the queue, clones and channels.
    let mut scratch = BistScratch::new();
    let template = make_jobs(1).remove(0);
    let mut run_direct = || {
        let mut report = None;
        for _ in 0..jobs_per_batch {
            report = Some(black_box(
                BistEngine::new(template.config.clone())
                    .try_run_with(
                        &template.stimulus,
                        &template.mask,
                        template.reference.as_ref(),
                        &mut scratch,
                    )
                    .expect("clean direct verdict"),
            ));
        }
        report.expect("direct verdict")
    };
    let direct_report = run_direct();

    let pool_sizes = [1usize, 2, 4];
    let mut bit_identical = true;
    let mut pools = pool_sizes.map(|workers| {
        let mut svc =
            VerdictService::try_start(ServiceConfig::paper_default().with_workers(workers))
                .expect("verdict service starts");
        // warm batch: thread start, per-worker scratch growth — and
        // the equivalence check, once per worker count
        let outcomes = svc
            .try_run_all(make_jobs(jobs_per_batch))
            .expect("pool alive");
        bit_identical &= outcomes
            .iter()
            .all(|outcome| outcome.result.as_ref().ok() == Some(&direct_report));
        svc
    });

    let run_pool = |svc: &mut VerdictService| {
        black_box(
            svc.try_run_all(make_jobs(jobs_per_batch))
                .expect("pool alive"),
        );
    };
    let [one, two, four] = &mut pools;
    let [direct_ns, one_ns, two_ns, four_ns] = interleaved_medians(
        cfg.reps,
        jobs_per_batch,
        [
            &mut || {
                run_direct();
            },
            &mut || run_pool(one),
            &mut || run_pool(two),
            &mut || run_pool(four),
        ],
    );
    for svc in pools {
        svc.shutdown();
    }

    ServiceResult {
        available_workers: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        jobs_per_batch,
        bit_identical,
        direct_ns,
        saturation: [
            (pool_sizes[0], one_ns),
            (pool_sizes[1], two_ns),
            (pool_sizes[2], four_ns),
        ],
    }
}

struct ProbeSumsResult {
    probes: usize,
    /// Median ns per build of both captures' probe sums, dispatched and
    /// on the portable kernel, timed interleaved.
    build_ns: f64,
    build_portable_ns: f64,
    /// Median ns per evaluation of both captures' sums at one
    /// candidate, dispatched and portable, timed interleaved.
    eval_ns: f64,
    eval_portable_ns: f64,
}

/// The `cost_grid` fixture's probe sums, built and evaluated on the
/// dispatched kernel arm and on the portable one (`ProbeSums`'
/// `try_new_on`/`eval_into_on` hooks), interleaved in one rep loop.
/// Run after every other section but `capture`, as `lms` is: the
/// builds allocate.
fn bench_probe_sums(cfg: &Config, fx: &SectionV) -> ProbeSumsResult {
    let cost = &fx.cost;
    let dual = *cost.config();
    let captures = [
        (dual.fast_band(), cost.fast_capture()),
        (dual.slow_band(), cost.slow_capture()),
    ];
    let build = |arm: Arm| {
        captures.map(|(band, cap)| {
            ProbeSums::try_new_on(arm, band, cap, cost.times(), dual.m_bound())
                .expect("probes inside coverage")
        })
    };
    let arm = Arm::detect();
    let reps = SIMD_RATIO_REPS * cfg.reps;
    let [build_ns, build_portable_ns] = interleaved_medians(
        reps,
        1,
        [
            &mut || {
                black_box(build(arm));
            },
            &mut || {
                black_box(build(Arm::Portable));
            },
        ],
    );
    let sums = build(arm);
    let candidates = cost
        .try_sweep_candidates(cfg.candidates)
        .expect("at least two candidates");
    let eval = |arm: Arm, out: &mut Vec<f64>| {
        for _ in 0..EVAL_SWEEPS {
            for &d in &candidates {
                for s in &sums {
                    s.eval_into_on(arm, d, out);
                    black_box(&*out);
                }
            }
        }
    };
    let (mut out, mut portable_out) = (Vec::new(), Vec::new());
    let [eval_ns, eval_portable_ns] = interleaved_medians(
        reps,
        EVAL_SWEEPS * candidates.len(),
        [&mut || eval(arm, &mut out), &mut || {
            eval(Arm::Portable, &mut portable_out)
        }],
    );
    ProbeSumsResult {
        probes: cfg.probes,
        build_ns,
        build_portable_ns,
        eval_ns,
        eval_portable_ns,
    }
}

struct ProbeLatticeResult {
    probes: usize,
    /// Lattice residues of the fast and the slow capture's grid order.
    residues: (usize, usize),
    /// Median ns per build of both captures' probe sums on the lattice
    /// schedule, in grid order and in the instants order on the same
    /// times, timed interleaved.
    build_grid_ns: f64,
    build_instants_ns: f64,
    /// Median ns per evaluation of both captures' sums at one
    /// candidate, grid order and instants order, timed interleaved.
    eval_grid_ns: f64,
    eval_instants_ns: f64,
    /// Largest |grid − instants| over every probe and candidate,
    /// relative to the value or absolute below 1.
    max_diff: f64,
}

/// The engine's Section V captures (`BistConfig::paper_default()`, the
/// typical-impairment DUT, both channels calibrated) and the 300 probes
/// of its lattice schedule (`DualRateCost::try_probe_lattice`), summed
/// in grid order, whose residues share their weights, and in the
/// instants order on the same times, interleaved in one rep loop. Run
/// beside `probe_sums`: the builds allocate.
fn bench_probe_lattice(cfg: &Config, fx: &SectionV) -> ProbeLatticeResult {
    const PROBES: usize = 300;
    let bist = BistConfig::paper_default();
    let dual = bist.dual;
    let rf = &*fx.dut;
    let calibrated =
        |frontend, start, len| auto_calibrate(&BpTiadc::new(frontend).capture(rf, start, len)).0;
    let fast = calibrated(bist.frontend_fast, bist.fast_start, bist.fast_len);
    let slow = calibrated(bist.frontend_slow, bist.slow_start, bist.slow_len);
    let (t0, step) = DualRateCost::try_probe_lattice(&fast, &slow, &dual, PROBES)
        .expect("the engine's captures cover the probes");
    let times: Vec<f64> = (0..PROBES).map(|i| t0 + i as f64 * step).collect();
    let m = dual.m_bound();
    let captures = [(dual.fast_band(), &fast), (dual.slow_band(), &slow)];
    let grid = || {
        captures.map(|(band, cap)| {
            ProbeSums::try_new_grid(band, cap, t0, step, PROBES, m).expect("probes inside coverage")
        })
    };
    let instants = || {
        captures.map(|(band, cap)| {
            ProbeSums::try_new(band, cap, &times, m).expect("probes inside coverage")
        })
    };
    let reps = SIMD_RATIO_REPS * cfg.reps;
    let [build_grid_ns, build_instants_ns] = interleaved_medians(
        reps,
        1,
        [
            &mut || {
                black_box(grid());
            },
            &mut || {
                black_box(instants());
            },
        ],
    );
    let (grid_sums, instant_sums) = (grid(), instants());
    let candidates: Vec<f64> = (0..cfg.candidates)
        .map(|i| m * (i as f64 + 0.5) / cfg.candidates as f64)
        .chain([0.5e-12, m - 0.5e-12])
        .collect();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut max_diff = 0.0f64;
    for (g, i) in grid_sums.iter().zip(&instant_sums) {
        for &d in &candidates {
            g.eval_into(d, &mut a);
            i.eval_into(d, &mut b);
            for (&x, &y) in a.iter().zip(&b) {
                max_diff = max_diff.max((x - y).abs() / y.abs().max(1.0));
            }
        }
    }
    let eval = |sums: &[ProbeSums; 2], out: &mut Vec<f64>| {
        for _ in 0..EVAL_SWEEPS {
            for &d in &candidates {
                for s in sums {
                    s.eval_into(d, out);
                    black_box(&*out);
                }
            }
        }
    };
    let [eval_grid_ns, eval_instants_ns] = interleaved_medians(
        reps,
        EVAL_SWEEPS * candidates.len(),
        [&mut || eval(&grid_sums, &mut a), &mut || {
            eval(&instant_sums, &mut b)
        }],
    );
    ProbeLatticeResult {
        probes: PROBES,
        residues: (grid_sums[0].residues(), grid_sums[1].residues()),
        build_grid_ns,
        build_instants_ns,
        eval_grid_ns,
        eval_instants_ns,
        max_diff,
    }
}

struct StagesResult {
    /// Median ns of the untraced verdict, uncalibrated and calibrated.
    untraced_ns: [f64; 2],
    /// Median ns of the traced verdict's stage sum, and of each stage
    /// (`VerdictStage::ALL` order), uncalibrated and calibrated.
    sum_ns: [f64; 2],
    stage_ns: [[f64; 6]; 2],
    /// Median over reps of the stage sum over the untraced verdict
    /// timed beside it.
    sum_ratio: [f64; 2],
    /// The uncalibrated verdict's LMS iterations and cost evaluations.
    lms_iterations: usize,
    lms_evaluations: usize,
}

/// One Section V verdict (`BistConfig::paper_default()`, the
/// typical-impairment DUT, no reference) per engine, uncalibrated
/// (per-run LMS) and on a calibrated skew: each timed untraced
/// (`try_run_with`) and traced into a `StageLedger`
/// (`try_run_traced`), interleaved in one rep loop, the two in
/// alternating order so neither always follows the other engine.
fn bench_stages(cfg: &Config, fx: &SectionV) -> StagesResult {
    let bist = BistConfig::paper_default();
    let dut = &*fx.dut;
    let mask = SpectralMask::qpsk_10msym();
    let calibration = BistEngine::new(bist.clone())
        .try_calibrate_skew(dut)
        .expect("the Section V DUT calibrates");
    let engines = [
        BistEngine::new(bist.clone()),
        BistEngine::new(
            bist.try_with_calibrated_skew(calibration.delay)
                .expect("a positive skew"),
        ),
    ];
    let none: Option<&Tone> = None;
    let mut scratch = BistScratch::new();
    let reps = 8 * cfg.reps;
    let mut untraced = [Vec::new(), Vec::new()];
    let mut sums = [Vec::new(), Vec::new()];
    let mut ratios = [Vec::new(), Vec::new()];
    let mut stages: [[Vec<f64>; 6]; 2] = Default::default();
    let (mut lms_iterations, mut lms_evaluations) = (0, 0);
    for rep in 0..reps {
        for (k, engine) in engines.iter().enumerate() {
            let mut untraced_ns = 0.0;
            let mut ledger = StageLedger::new();
            for traced in [rep % 2 == 0, rep % 2 != 0] {
                if traced {
                    black_box(
                        engine
                            .try_run_traced(dut, &mask, none, &mut scratch, &mut ledger)
                            .expect("clean verdict"),
                    );
                } else {
                    let start = Instant::now();
                    black_box(
                        engine
                            .try_run_with(dut, &mask, none, &mut scratch)
                            .expect("clean verdict"),
                    );
                    untraced_ns = start.elapsed().as_nanos() as f64;
                }
            }
            let sum_ns = ledger.sum().as_nanos() as f64;
            untraced[k].push(untraced_ns);
            sums[k].push(sum_ns);
            ratios[k].push(sum_ns / untraced_ns);
            for (samples, stage) in stages[k].iter_mut().zip(VerdictStage::ALL) {
                samples.push(ledger.total(stage).as_nanos() as f64);
            }
            if let Some(lms) = ledger.lms() {
                (lms_iterations, lms_evaluations) = (lms.iterations, lms.evaluations);
            }
        }
    }
    StagesResult {
        untraced_ns: untraced.map(median),
        sum_ns: sums.map(median),
        stage_ns: stages.map(|per_stage| per_stage.map(median)),
        sum_ratio: ratios.map(median),
        lms_iterations,
        lms_evaluations,
    }
}

/// Verdict `k`'s `stages` JSON object: the untraced time, the traced
/// stage sum and each stage, in µs, and the median paired ratio of the
/// two.
fn stages_json(result: &StagesResult, k: usize) -> String {
    let stages: Vec<String> = VerdictStage::ALL
        .iter()
        .zip(&result.stage_ns[k])
        .map(|(stage, ns)| format!(r#""{}_us": {:.2}"#, stage.name(), ns / 1e3))
        .collect();
    format!(
        r#"{{ "untraced_us": {:.2}, "stage_sum_us": {:.2}, "stage_sum_ratio": {:.4}, {} }}"#,
        result.untraced_ns[k] / 1e3,
        result.sum_ns[k] / 1e3,
        result.sum_ratio[k],
        stages.join(", ")
    )
}

/// `rounds` rounds of eight independent lane multiply-adds, all
/// operands in registers, returning the lanes' total: the in-run peak
/// the `fma_bound` report times the eight-lane kernels against.
struct FmaPeak(usize);

impl Kernel for FmaPeak {
    type Output = f64;

    #[inline(always)]
    fn run<L: F64x8>(self, lanes: L) -> f64 {
        let (a, b) = black_box(([0.5; 8], [0.5; 8]));
        let mut acc = [lanes.zero(); 8];
        for _ in 0..self.0 {
            for x in acc.iter_mut() {
                *x = x.mul_add(&a, &b);
            }
        }
        let mut total = 0.0;
        for x in acc {
            total += x.sum();
        }
        total
    }
}

/// `rounds` rounds of eight independent eight-lane divides, all
/// operands in registers, returning the lanes' total: the divide
/// throughput the row builders' and the probe build's `1/τ` passes run
/// against. LLVM keeps the eight chains in vector registers of the
/// arm's width.
struct DivPeak(usize);

impl Kernel for DivPeak {
    type Output = f64;

    #[inline(always)]
    fn run<L: F64x8>(self, _lanes: L) -> f64 {
        // opaque starts, or LLVM merges the eight identical chains into one
        let d = black_box([1.000_000_1; 8]);
        let mut acc = black_box([[1.0f64; 8]; 8]);
        for _ in 0..self.0 {
            for x in acc.iter_mut() {
                for (v, &dv) in x.iter_mut().zip(&d) {
                    *v /= dv;
                }
            }
        }
        acc.iter().flatten().sum()
    }
}

/// Median ns per eight-lane divide of the register-resident
/// [`DivPeak`] kernel on the dispatched arm.
fn bench_div_peak(cfg: &Config) -> f64 {
    const ROUNDS: usize = 25_000;
    let mut run = || {
        black_box(Arm::detect().run(DivPeak(black_box(ROUNDS))));
    };
    interleaved_medians(SIMD_RATIO_REPS * cfg.reps, 8 * ROUNDS, [&mut run])[0]
}

/// Median ns per eight-lane multiply-add of the register-resident
/// [`FmaPeak`] kernel on the dispatched arm.
fn bench_fma_peak(cfg: &Config) -> f64 {
    const ROUNDS: usize = 250_000;
    let mut run = || {
        black_box(Arm::detect().run(FmaPeak(black_box(ROUNDS))));
    };
    interleaved_medians(SIMD_RATIO_REPS * cfg.reps, 8 * ROUNDS, [&mut run])[0]
}

/// One kernel's line of the counted-FMA report: `fmas` scalar
/// multiply-adds per op in `ns` ns, against `peak` ns per eight-lane
/// multiply-add.
fn fma_bound_json(fmas: usize, ns: f64, peak: f64) -> String {
    format!(
        r#"{{ "fmas_per_op": {fmas}, "ns_per_op": {ns:.2}, "peak_fraction": {:.3} }}"#,
        fmas as f64 / 8.0 * peak / ns
    )
}

fn main() {
    let (mut quick, mut out) = (false, "BENCH_recon.json".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_report [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let (reps, probes, candidates) = if quick { (3, 80, 12) } else { (5, 300, 32) };
    let cfg = Config {
        quick,
        out,
        reps,
        probes,
        candidates,
    };

    println!(
        "perf_report ({} mode): {} reps/kernel, {} probes, {} grid candidates",
        if cfg.quick { "quick" } else { "full" },
        cfg.reps,
        cfg.probes,
        cfg.candidates
    );

    let fx = SectionV::new(&cfg);
    let (pt_ref, pt_plan) = bench_point_reconstruct(&cfg, &fx);
    let pt_speedup = pt_ref / pt_plan;
    println!(
        "point_reconstruct  {pt_ref:>10.1} ns/op reference  {pt_plan:>10.1} ns/op planned  ({pt_speedup:.2}x)",
    );
    let grid = bench_cost_grid(&cfg, &fx);
    let grid_speedup = grid.reference_ns / grid.planned_ns;
    println!(
        "cost_grid          {:>10.1} us/cand reference  {:>10.1} us/cand planned  ({grid_speedup:.2}x, nrmse {:.3e})",
        grid.reference_ns / 1e3,
        grid.planned_ns / 1e3,
        grid.nrmse,
    );
    let grid_recon = bench_grid_reconstruct(&cfg, &fx);
    let grid_recon_speedup = grid_recon.reference_ns / grid_recon.grid_ns;
    println!(
        "grid_reconstruct   {:>10.1} ns/pt reference  {:>10.1} ns/pt grid plan  ({grid_recon_speedup:.2}x over {} points, nrmse {:.3e})",
        grid_recon.reference_ns,
        grid_recon.grid_ns,
        grid_recon.points,
        grid_recon.nrmse,
    );
    let grid_simd_speedup = grid_recon.portable_ns / grid_recon.grid_ns;
    println!(
        "grid_reconstruct   {:>10.1} ns/pt portable   {:>10.1} ns/pt {:?} arm  ({grid_simd_speedup:.2}x)",
        grid_recon.portable_ns,
        grid_recon.grid_ns,
        Arm::detect(),
    );
    let split = bench_grid_split(&cfg, &fx);
    println!(
        "grid_reconstruct   {:>10.1} ns/row build {:>10.1} ns/point  ({} and {} points: {:.1} and {:.1} us)",
        split.row_build_ns,
        split.ns_per_dot,
        SPLIT_POINTS[0],
        SPLIT_POINTS[1],
        split.grid_ns[0] / 1e3,
        split.grid_ns[1] / 1e3,
    );
    let rows_once = bench_rows_once(&cfg, &fx);
    let rows_once_speedup = rows_once.stoppable_ns / rows_once.default_ns;
    println!(
        "grid_reconstruct   {:>10.1} us early-stop feed {:>7.1} us default feed  ({rows_once_speedup:.2}x over {} points)",
        rows_once.stoppable_ns / 1e3,
        rows_once.default_ns / 1e3,
        rows_once.points,
    );
    let mask_scan = bench_mask_scan(&cfg, &fx);
    let scan_speedup = mask_scan.fft_welch_ns / mask_scan.banked_ns;
    println!(
        "mask_scan          {:>10.1} us/verdict fft-welch  {:>10.1} us/verdict banked  ({scan_speedup:.2}x, {} of {} bins, margin delta {:.3e} dB)",
        mask_scan.fft_welch_ns / 1e3,
        mask_scan.banked_ns / 1e3,
        mask_scan.probed_bins,
        mask_scan.total_bins,
        mask_scan.margin_delta_db,
    );

    let stream = bench_stream_bist(&cfg, &fx);
    let stream_seq_speedup = stream.batch_ns / stream.stream_ns;
    let stream_early_speedup = stream.batch_ns / stream.early_ns;
    println!(
        "stream_bist        {:>10.1} us/verdict batch      {:>10.1} us/verdict streamed  ({stream_seq_speedup:.2}x over {} points)",
        stream.batch_ns / 1e3,
        stream.stream_ns / 1e3,
        stream.points,
    );
    println!(
        "stream_bist early  {:>10.1} us/verdict early-exit ({stream_early_speedup:.2}x vs batch, stopped after {} of {} points)",
        stream.early_ns / 1e3,
        stream.early_points,
        stream.points,
    );

    let service = bench_service(&cfg, &fx);
    let service_1w_ns = service.saturation[0].1;
    let (svc_vps, svc_overhead) = (1e9 / service_1w_ns, service.direct_ns / service_1w_ns);
    let svc_scaling = service_1w_ns / service.saturation[1].1;
    println!(
        "service            {:>10.1} us/verdict direct     {:>10.1} us/verdict 1 worker ({svc_overhead:.2}x overhead ratio, {svc_vps:.0} verdicts/s)",
        service.direct_ns / 1e3,
        service_1w_ns / 1e3,
    );
    for &(workers, ns) in &service.saturation[1..] {
        println!(
            "service {workers}w         {:>10.1} us/verdict across {workers} worker(s) ({:.2}x vs 1 worker, {:.0} verdicts/s)",
            ns / 1e3,
            service_1w_ns / ns,
            1e9 / ns,
        );
    }

    let lms = bench_lms(&cfg, &fx);
    println!(
        "cost_grid build    {:>10.1} us/cost (both captures' probe sums)",
        lms.build_ns / 1e3,
    );
    let lms_speedup = lms.evaluations as f64 * grid.reference_ns / lms.ns;
    println!(
        "lms                {:>10.1} us/run with the build ({} iterations, {} evaluations, {:.2}x vs reference evaluations)",
        lms.ns / 1e3,
        lms.iterations,
        lms.evaluations,
        lms_speedup,
    );

    let probe_sums = bench_probe_sums(&cfg, &fx);
    let build_simd_speedup = probe_sums.build_portable_ns / probe_sums.build_ns;
    let eval_simd_speedup = probe_sums.eval_portable_ns / probe_sums.eval_ns;
    println!(
        "probe_sums build   {:>10.1} us/cost portable  {:>10.1} us/cost {:?} arm  ({build_simd_speedup:.2}x)",
        probe_sums.build_portable_ns / 1e3,
        probe_sums.build_ns / 1e3,
        Arm::detect(),
    );
    println!(
        "probe_sums eval    {:>10.2} us/cand portable  {:>10.2} us/cand {:?} arm  ({eval_simd_speedup:.2}x)",
        probe_sums.eval_portable_ns / 1e3,
        probe_sums.eval_ns / 1e3,
        Arm::detect(),
    );
    let lattice = bench_probe_lattice(&cfg, &fx);
    let lattice_build_speedup = lattice.build_instants_ns / lattice.build_grid_ns;
    let lattice_eval_speedup = lattice.eval_instants_ns / lattice.eval_grid_ns;
    println!(
        "probe_sums lattice {:>10.1} us/cost instants  {:>10.1} us/cost grid order  ({lattice_build_speedup:.2}x, {} probes on {}/{} residues)",
        lattice.build_instants_ns / 1e3,
        lattice.build_grid_ns / 1e3,
        lattice.probes,
        lattice.residues.0,
        lattice.residues.1,
    );
    println!(
        "probe_sums lattice {:>10.2} us/cand instants  {:>10.2} us/cand grid order  ({lattice_eval_speedup:.2}x, max diff {:.2e})",
        lattice.eval_instants_ns / 1e3,
        lattice.eval_grid_ns / 1e3,
        lattice.max_diff,
    );
    // Informational: how close each eight-lane kernel runs to the
    // register-resident lane-FMA peak, counting its dot-product
    // multiply-adds only (a grid point also pays its share of row
    // builds, a probe row its divides and window fills).
    let peak = bench_fma_peak(&cfg);
    let per_probe = 2.0 * probe_sums.probes as f64;
    let fma_kernels = [
        ("grid_dot", GRID_DOT_FMAS, grid_recon.grid_ns),
        (
            "probe_build",
            PROBE_BUILD_FMAS,
            probe_sums.build_ns / per_probe,
        ),
        (
            "probe_eval",
            PROBE_EVAL_FMAS,
            probe_sums.eval_ns / per_probe,
        ),
    ];
    println!("fma_bound          {peak:>10.3} ns per 8-lane FMA at the in-run peak");
    let div_peak_ns = bench_div_peak(&cfg);
    println!("fma_bound          {div_peak_ns:>10.3} ns per 8-lane divide at the in-run peak");
    for (name, fmas, ns) in fma_kernels {
        println!(
            "fma_bound {name:<12} {fmas:>5} FMAs/op {ns:>9.1} ns/op  ({:.1} % of peak)",
            100.0 * fmas as f64 / 8.0 * peak / ns
        );
    }

    let stages = bench_stages(&cfg, &fx);
    for (k, name) in ["uncalibrated", "calibrated"].into_iter().enumerate() {
        let parts: Vec<String> = VerdictStage::ALL
            .iter()
            .zip(&stages.stage_ns[k])
            .filter(|&(_, &ns)| ns > 0.0)
            .map(|(stage, ns)| format!("{} {:.0}", stage.name(), ns / 1e3))
            .collect();
        println!(
            "stages {name:<12} {:>8.1} us untraced  {:>8.1} us stage sum  (x{:.3} paired; {} us)",
            stages.untraced_ns[k] / 1e3,
            stages.sum_ns[k] / 1e3,
            stages.sum_ratio[k],
            parts.join(", "),
        );
    }
    let capture = bench_capture(&cfg, &fx);
    let capture_speedup = capture.reference_ns / capture.ns;
    println!(
        "capture            {:>10.1} us/pair reference   {:>10.1} us/pair rf_output  ({:.2}x over {} samples, bit-identical {})",
        capture.reference_ns / 1e3,
        capture.ns / 1e3,
        capture_speedup,
        capture.samples,
        capture.bit_identical,
    );

    let saturation_json = service
        .saturation
        .iter()
        .map(|&(workers, ns)| {
            format!(
                r#"      {{ "workers": {workers}, "median_ns_per_verdict": {ns:.2}, "verdicts_per_sec": {vps:.2}, "speedup_vs_1w": {speedup:.3} }}"#,
                vps = 1e9 / ns,
                speedup = service_1w_ns / ns,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        r#"{{
  "generator": "perf_report",
  "mode": "{mode}",
  "reps": {reps},
  "compared": [{compared}],
  "point_reconstruct": {{
    "reference_median_ns_per_op": {pt_ref:.2},
    "planned_median_ns_per_op": {pt_plan:.2},
    "speedup": {pt_speedup:.3}
  }},
  "cost_grid_sweep": {{
    "probes": {probes},
    "candidates": {candidates},
    "reference_median_ns_per_candidate": {grid_ref:.2},
    "planned_median_ns_per_candidate": {grid_plan:.2},
    "speedup": {grid_speedup:.3},
    "build_median_ns": {grid_build:.2},
    "planned_vs_reference_nrmse": {nrmse:.3e}
  }},
  "lms": {{
    "median_ns_per_run": {lms_ns:.2},
    "iterations": {lms_iterations},
    "evaluations": {lms_evaluations},
    "speedup_vs_reference": {lms_speedup:.3}
  }},
  "grid_reconstruct": {{
    "points": {grid_recon_points},
    "reference_median_ns_per_point": {grid_recon_ref:.2},
    "grid_plan_median_ns_per_point": {grid_recon_grid:.2},
    "speedup": {grid_recon_speedup:.3},
    "portable_median_ns_per_point": {grid_recon_portable:.2},
    "simd_speedup": {grid_simd_speedup:.3},
    "grid_vs_reference_nrmse": {grid_recon_nrmse:.3e},
    "split_points": [{split_p0}, {split_p1}],
    "split_median_ns": [{split_t0:.2}, {split_t1:.2}],
    "row_build_ns": {split_row:.2},
    "ns_per_dot": {split_dot:.2},
    "rows_once_points": {rows_once_points},
    "stoppable_feed_median_ns": {rows_once_stoppable:.2},
    "default_feed_median_ns": {rows_once_default:.2},
    "rows_once_speedup": {rows_once_speedup:.3}
  }},
  "probe_sums": {{
    "probes": {ps_probes},
    "build_median_ns": {ps_build:.2},
    "build_portable_median_ns": {ps_build_portable:.2},
    "build_simd_speedup": {build_simd_speedup:.3},
    "eval_median_ns_per_candidate": {ps_eval:.2},
    "eval_portable_median_ns_per_candidate": {ps_eval_portable:.2},
    "eval_simd_speedup": {eval_simd_speedup:.3},
    "lattice_probes": {lat_probes},
    "lattice_residues": [{lat_res_fast}, {lat_res_slow}],
    "lattice_build_median_ns": {lat_build:.2},
    "lattice_instants_build_median_ns": {lat_build_instants:.2},
    "lattice_build_speedup": {lattice_build_speedup:.3},
    "lattice_eval_median_ns_per_candidate": {lat_eval:.2},
    "lattice_instants_eval_median_ns_per_candidate": {lat_eval_instants:.2},
    "lattice_eval_speedup": {lattice_eval_speedup:.3},
    "lattice_vs_instants_max_diff": {lat_diff:.3e}
  }},
  "fma_bound": {{
    "arm": "{fma_arm:?}",
    "peak_ns_per_lane_fma": {peak:.4},
    "div_peak_ns_per_lane_div": {div_peak_ns:.4},
    "grid_dot": {fma_grid},
    "probe_build": {fma_build},
    "probe_eval": {fma_eval}
  }},
  "mask_scan": {{
    "probed_bins": {scan_bins},
    "total_bins": {scan_total},
    "fft_welch_median_ns_per_verdict": {scan_fft:.2},
    "banked_median_ns_per_verdict": {scan_banked:.2},
    "speedup": {scan_speedup:.3},
    "worst_margin_delta_db": {scan_delta:.3e}
  }},
  "stream_bist": {{
    "points": {stream_points},
    "batch_median_ns_per_verdict": {stream_batch:.2},
    "stream_median_ns_per_verdict": {stream_seq:.2},
    "stream_speedup": {stream_seq_speedup:.3},
    "early_exit_median_ns_per_verdict": {stream_early:.2},
    "early_exit_speedup": {stream_early_speedup:.3},
    "early_exit_points": {stream_early_points},
    "worst_margin_delta_db": {stream_delta:.3e}
  }},
  "service": {{
    "available_workers": {svc_workers},
    "jobs_per_batch": {svc_jobs},
    "direct_median_ns_per_verdict": {svc_direct:.2},
    "service_1w_median_ns_per_verdict": {svc_1w:.2},
    "verdicts_per_sec_1w": {svc_vps:.2},
    "overhead_1w": {svc_overhead:.3},
    "scaling_2w": {svc_scaling:.3},
    "saturation": [
{saturation_json}
    ]
  }},
  "stages": {{
    "uncalibrated_us": {stages_uncal_us:.2},
    "calibrated_us": {stages_cal_us:.2},
    "lms_iterations": {stages_lms_iterations},
    "lms_evaluations": {stages_lms_evaluations},
    "uncalibrated": {stages_uncal},
    "calibrated": {stages_cal}
  }},
  "capture": {{
    "samples_per_pair": {capture_samples},
    "reference_median_ns": {capture_ref:.2},
    "median_ns": {capture_ns:.2},
    "speedup": {capture_speedup:.3}
  }}
}}
"#,
        mode = if cfg.quick { "quick" } else { "full" },
        reps = cfg.reps,
        compared = compared_fields()
            .iter()
            .map(|field| format!(r#""{field}""#))
            .collect::<Vec<_>>()
            .join(", "),
        probes = cfg.probes,
        candidates = cfg.candidates,
        grid_ref = grid.reference_ns,
        grid_plan = grid.planned_ns,
        grid_build = lms.build_ns,
        nrmse = grid.nrmse,
        lms_ns = lms.ns,
        lms_iterations = lms.iterations,
        lms_evaluations = lms.evaluations,
        grid_recon_points = grid_recon.points,
        grid_recon_ref = grid_recon.reference_ns,
        grid_recon_grid = grid_recon.grid_ns,
        grid_recon_nrmse = grid_recon.nrmse,
        grid_recon_portable = grid_recon.portable_ns,
        split_p0 = SPLIT_POINTS[0],
        split_p1 = SPLIT_POINTS[1],
        split_t0 = split.grid_ns[0],
        split_t1 = split.grid_ns[1],
        split_row = split.row_build_ns,
        split_dot = split.ns_per_dot,
        rows_once_points = rows_once.points,
        rows_once_stoppable = rows_once.stoppable_ns,
        rows_once_default = rows_once.default_ns,
        ps_probes = probe_sums.probes,
        ps_build = probe_sums.build_ns,
        ps_build_portable = probe_sums.build_portable_ns,
        ps_eval = probe_sums.eval_ns,
        ps_eval_portable = probe_sums.eval_portable_ns,
        lat_probes = lattice.probes,
        lat_res_fast = lattice.residues.0,
        lat_res_slow = lattice.residues.1,
        lat_build = lattice.build_grid_ns,
        lat_build_instants = lattice.build_instants_ns,
        lat_eval = lattice.eval_grid_ns,
        lat_eval_instants = lattice.eval_instants_ns,
        lat_diff = lattice.max_diff,
        fma_arm = Arm::detect(),
        fma_grid = fma_bound_json(fma_kernels[0].1, fma_kernels[0].2, peak),
        fma_build = fma_bound_json(fma_kernels[1].1, fma_kernels[1].2, peak),
        fma_eval = fma_bound_json(fma_kernels[2].1, fma_kernels[2].2, peak),
        scan_bins = mask_scan.probed_bins,
        scan_total = mask_scan.total_bins,
        scan_fft = mask_scan.fft_welch_ns,
        scan_banked = mask_scan.banked_ns,
        scan_delta = mask_scan.margin_delta_db,
        stream_points = stream.points,
        stream_batch = stream.batch_ns,
        stream_seq = stream.stream_ns,
        stream_early = stream.early_ns,
        stream_early_points = stream.early_points,
        stream_delta = stream.margin_delta_db,
        svc_workers = service.available_workers,
        svc_jobs = service.jobs_per_batch,
        svc_direct = service.direct_ns,
        svc_1w = service_1w_ns,
        stages_uncal_us = stages.untraced_ns[0] / 1e3,
        stages_cal_us = stages.untraced_ns[1] / 1e3,
        stages_lms_iterations = stages.lms_iterations,
        stages_lms_evaluations = stages.lms_evaluations,
        stages_uncal = stages_json(&stages, 0),
        stages_cal = stages_json(&stages, 1),
        capture_samples = capture.samples,
        capture_ref = capture.reference_ns,
        capture_ns = capture.ns,
    );
    std::fs::write(&cfg.out, json).expect("write bench report");
    println!("wrote {}", cfg.out);

    let readings = [
        ("cost_grid_sweep.planned_vs_reference_nrmse", grid.nrmse),
        ("cost_grid_sweep.speedup", grid_speedup),
        ("lms.speedup_vs_reference", lms_speedup),
        ("grid_reconstruct.grid_vs_reference_nrmse", grid_recon.nrmse),
        ("grid_reconstruct.speedup", grid_recon_speedup),
        ("grid_reconstruct.simd_speedup", grid_simd_speedup),
        ("probe_sums.build_simd_speedup", build_simd_speedup),
        ("probe_sums.eval_simd_speedup", eval_simd_speedup),
        ("probe_sums.lattice_vs_instants_max_diff", lattice.max_diff),
        ("probe_sums.lattice_build_speedup", lattice_build_speedup),
        ("probe_sums.lattice_eval_speedup", lattice_eval_speedup),
        (
            "grid_reconstruct.rows_once_bit_identical",
            rows_once.bit_identical.into(),
        ),
        ("grid_reconstruct.rows_once_speedup", rows_once_speedup),
        (
            "stages.uncalibrated.stage_sum_error",
            (stages.sum_ratio[0] - 1.0).abs(),
        ),
        (
            "stages.calibrated.stage_sum_error",
            (stages.sum_ratio[1] - 1.0).abs(),
        ),
        ("mask_scan.verdicts_agree", mask_scan.verdicts_agree.into()),
        ("mask_scan.worst_margin_delta_db", mask_scan.margin_delta_db),
        ("mask_scan.speedup", scan_speedup),
        ("stream_bist.verdicts_agree", stream.verdicts_agree.into()),
        ("stream_bist.worst_margin_delta_db", stream.margin_delta_db),
        ("stream_bist.stream_speedup", stream_seq_speedup),
        ("stream_bist.early_exit_fired", stream.early_fired.into()),
        (
            "stream_bist.early_exit_before_full_grid",
            (stream.early_points < stream.points).into(),
        ),
        ("stream_bist.early_exit_speedup", stream_early_speedup),
        ("capture.bit_identical", capture.bit_identical.into()),
        ("capture.speedup", capture_speedup),
        ("service.bit_identical", service.bit_identical.into()),
        ("service.verdicts_per_sec_1w", svc_vps),
        ("service.overhead_1w", svc_overhead),
        ("service.scaling_2w", svc_scaling),
    ];
    let host = Host {
        fma_dispatch: Arm::detect() != Arm::Portable,
        workers: service.available_workers,
    };
    let judged = judge(&readings, cfg.quick, host);
    for line in judged.iter().filter_map(|j| j.line(cfg.quick)) {
        println!("{line}");
    }
    let failed: Vec<&str> = judged
        .iter()
        .filter(|j| j.outcome == Outcome::Failed)
        .map(|j| j.gate.name)
        .collect();
    println!(
        "gates: {} judged, {} failed",
        judged
            .iter()
            .filter(|j| j.outcome != Outcome::Unarmed)
            .count(),
        failed.len()
    );
    if !failed.is_empty() {
        eprintln!("perf_report: failed gates: {}", failed.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every gate's reading passes, but those named in `overrides`.
    fn readings_with(overrides: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
        let passing = |gate: &Gate| match gate.cmp {
            AtLeast | Above => 1e6,
            AtMost => 0.0,
        };
        overrides
            .iter()
            .copied()
            .chain(GATES.iter().map(|gate| (gate.name, passing(gate))))
            .collect()
    }

    fn named(judged: &[Judged], outcome: Outcome) -> Vec<&'static str> {
        judged
            .iter()
            .filter(|j| j.outcome == outcome)
            .map(|j| j.gate.name)
            .collect()
    }

    #[test]
    fn an_unarmed_gate_is_reported_and_does_not_fail() {
        // Under every floor that needs an FMA arm or a second core.
        let readings = readings_with(&[
            ("grid_reconstruct.speedup", 20.0),
            ("grid_reconstruct.simd_speedup", 1.0),
            ("probe_sums.build_simd_speedup", 1.0),
            ("probe_sums.eval_simd_speedup", 1.0),
            ("mask_scan.speedup", 1.0),
            ("service.scaling_2w", 1.0),
        ]);
        let gated = [
            "grid_reconstruct.speedup",
            "grid_reconstruct.simd_speedup",
            "probe_sums.build_simd_speedup",
            "probe_sums.eval_simd_speedup",
            "mask_scan.speedup",
            "service.scaling_2w",
        ];
        for quick in [false, true] {
            let scalar_one_core = Host {
                fma_dispatch: false,
                workers: 1,
            };
            let judged = judge(&readings, quick, scalar_one_core);
            assert!(named(&judged, Outcome::Failed).is_empty());
            assert_eq!(named(&judged, Outcome::Unarmed), gated);
            for j in judged.iter().filter(|j| j.outcome == Outcome::Unarmed) {
                let line = j.line(quick).expect("an unarmed gate is reported");
                assert!(line.contains(j.gate.name) && line.contains("not judged"));
            }
            let armed = Host {
                fma_dispatch: true,
                workers: 2,
            };
            assert_eq!(
                named(&judge(&readings, quick, armed), Outcome::Failed),
                gated
            );
        }
    }

    #[test]
    fn a_failed_gate_is_named_and_the_rows_after_it_are_judged() {
        let readings = readings_with(&[
            ("cost_grid_sweep.speedup", 199.0),
            ("capture.speedup", 1.55),
            // at the floor: `>=` passes, a strict `>` fails
            ("service.overhead_1w", 0.7),
            ("service.scaling_2w", 1.3),
        ]);
        let host = Host {
            fma_dispatch: true,
            workers: 2,
        };
        let full = judge(&readings, false, host);
        assert_eq!(full.len(), GATES.len());
        assert!(named(&full, Outcome::Unarmed).is_empty());
        assert_eq!(
            named(&full, Outcome::Failed),
            [
                "cost_grid_sweep.speedup",
                "capture.speedup",
                "service.scaling_2w"
            ]
        );
        let line = full[1].line(false).expect("a failed gate is reported");
        assert!(line.contains("cost_grid_sweep.speedup") && line.contains("needs >= 200"));
        // quick mode's floors: 150x and 1.5x
        assert_eq!(
            named(&judge(&readings, true, host), Outcome::Failed),
            ["service.scaling_2w"]
        );
    }

    #[test]
    fn ci_compares_the_twelve_ratios_and_the_two_worker_scaling() {
        let mut compared = compared_fields();
        compared.sort_unstable();
        let mut expected = vec![
            "cost_grid_sweep.speedup",
            "lms.speedup_vs_reference",
            "grid_reconstruct.speedup",
            "grid_reconstruct.simd_speedup",
            "probe_sums.build_simd_speedup",
            "probe_sums.eval_simd_speedup",
            "probe_sums.lattice_build_speedup",
            "probe_sums.lattice_eval_speedup",
            "grid_reconstruct.rows_once_speedup",
            "capture.speedup",
            "stream_bist.early_exit_speedup",
            "service.overhead_1w",
            "service.scaling_2w",
        ];
        expected.sort_unstable();
        assert_eq!(compared, expected);
    }
}
