//! Headless perf-trajectory harness: times the PNBS reconstruction
//! kernels (planned engine vs the direct eq. 6 reference, measured in
//! the same run) and the verdict pipeline around them, and writes
//! `BENCH_recon.json`.
//!
//! ```sh
//! cargo run --release -p rfbist-bench --bin perf_report            # full
//! cargo run --release -p rfbist-bench --bin perf_report -- --quick # CI smoke
//! cargo run --release -p rfbist-bench --bin perf_report -- --out some.json
//! ```
//!
//! Sections, mirroring the criterion benches but with medians a
//! machine can diff across commits:
//!
//! 1. **point_reconstruct** — one eq. 6 evaluation (61 taps, Kaiser
//!    β = 8): `reconstruct_at_reference` vs the planned single-point
//!    `reconstruct_at`, which fills the plan's tables over the whole
//!    capture per call. Reported, not gated: no verdict path makes
//!    single-point calls.
//! 2. **cost_grid** — the Fig. 5 sweep on the paper's random probes
//!    (paper front-end): `evaluate_reference` per candidate vs
//!    `eval_grid`, which combines the `D̂`-separable probe sums the
//!    cost built once. The per-candidate speedup is asserted (≥ 200×
//!    full / ≥ 150× quick) and the build is reported as its own
//!    field, `build_median_ns`. The same run also reports the NRMSE
//!    between the planned and reference grids — the ≤ 1e-9
//!    equivalence contract, asserted.
//! 3. **lms** — Algorithm 1 on the same fixture: the median time of
//!    one `estimate_skew_lms` *with the cost build included*, its
//!    iteration and cost-evaluation counts, and `speedup_vs_reference`
//!    = evaluations × the reference's time per candidate / that LMS
//!    time. Both sides are measured in the same run and neither
//!    depends on the core count; the ratio is asserted (≥ 100× full /
//!    ≥ 80× quick). The build and LMS timings run last, after the
//!    service section, so their allocations cannot disturb the others.
//! 4. **grid_reconstruct** — the analysis-grid workload of
//!    `BistEngine::run` (12288 uniform points at 4 GHz in both modes, a
//!    9/400 lattice of the sample period): the direct reference per
//!    point vs the planned grid (`PnbsGridPlan::reconstruct_grid`,
//!    phase-major on this rational grid, with the runtime-dispatched
//!    SIMD kernels). Asserted ≥ 12× (full) / ≥ 9× (quick) at ≤ 1e-9 NRMSE
//!    against the reference everywhere and ≥ 33× (full) / ≥ 24×
//!    (quick) where the AVX2/AVX-512+FMA kernels can dispatch (the
//!    mask_scan-style feature gate; the ratio is reported either way
//!    on scalar hardware or under `RFBIST_FORCE_SCALAR`). The same grid
//!    also runs on the portable kernel (`try_reconstruct_grid_on`),
//!    timed interleaved with the dispatched one: `simd_speedup` is
//!    asserted (floors in `GRID_SIMD_FLOOR`) where the FMA dispatch is
//!    active. Reported, not gated: the grid at 4096 and 16384 points
//!    on an 800-pair capture (each one batch chunk of 400 row builds),
//!    fitted to `row_build_ns` per row and `ns_per_dot` per point.
//!    Then `rows_once_speedup`: the 12288-point grid through the
//!    early-stop feed (8192-point chunks, 800 row builds) over the
//!    default feed (one chunk, 400 row builds), interleaved, the two
//!    asserted bit-identical and the ratio asserted on every arm
//!    (`ROWS_ONCE_FLOOR`).
//! 5. **mask_scan** — one spectral-mask verdict, FFT-Welch vs the
//!    banked Goertzel scan. The speedup floor is asserted only when
//!    the AVX2+FMA kernels can dispatch (on plain SSE2/NEON the bank
//!    loses to the FFT by design); agreement is asserted everywhere.
//! 6. **stream_bist** — the end-to-end verdict pipeline
//!    (reconstruction → scan), full-grid batch (the pre-streaming
//!    engine: materialize the grid, construct the scanner, scan) vs
//!    the streaming single pass (block feed → push-style scan with
//!    engine-held scratch), plus the early-exit case on a grossly
//!    failing unit, on the early-stop feed as the engine runs an armed
//!    early verdict. Verdict agreement is
//!    asserted everywhere (the paths are bit-identical by
//!    construction); the sequential stream must no longer regress
//!    below the batch (floor 0.9× quick / 0.95× full — with the Welch
//!    window folded inside the banked pass the streamed verdict sits
//!    at ~0.95–1.0× of a batch that additionally pays per-verdict
//!    allocation and scanner construction),
//!    and the early exit must beat the batch outright (SIMD-free and
//!    core-count-free — reconstruction stops at the first completed
//!    segment).
//! 7. **service** — the sharded verdict service: a batch of identical
//!    calibrated-skew jobs through the persistent worker pool at 1, 2
//!    and 4 workers vs the direct `try_run_with` loop on one reused
//!    scratch, all four timed interleaved inside one rep loop. Every
//!    outcome is asserted bit-identical to the direct verdict. The
//!    core-count-free gates are the 1-worker throughput floor
//!    (verdicts/s) and `overhead_1w` ≥ 0.7 (the pool's queue, clone and
//!    channel overhead must stay a small fraction of a verdict); the
//!    `scaling_2w` > 1.3× gate is asserted only where ≥ 2 cores exist
//!    to express it.
//! 8. **capture** — stage 1 of every simulated verdict: one Section V
//!    capture pair (fast 380 + slow 200 pairs, paper front-end,
//!    `TxImpairments::typical()`) through `rf_output()`, whose SRRC
//!    baseband runs the angle-sum tap table, vs the same chain on the
//!    direct per-tap baseband (`fixtures::reference_rf_output`), timed
//!    interleaved in one rep loop. The two captures must be
//!    bit-identical, and the speedup is asserted (≥ 1.6× full / ≥ 1.5×
//!    quick). Timed last, after the LMS and the probe sums, so it
//!    cannot move any other section's readings.
//! 9. **probe_sums** — the `cost_grid` fixture's probe sums built and
//!    evaluated on the dispatched kernel arm and on the portable one
//!    (`ProbeSums::{try_new_on, eval_into_on}`), interleaved:
//!    `build_simd_speedup` and `eval_simd_speedup`, asserted where the
//!    FMA dispatch is active (`PROBE_BUILD_SIMD_FLOOR`,
//!    `PROBE_EVAL_SIMD_FLOOR`). Then the engine's Section V captures
//!    and the 300 probes of its lattice schedule, summed in grid order
//!    (`ProbeSums::try_new_grid`, each residue's weights shared) and in
//!    the instants order on the same times, interleaved:
//!    `lattice_build_speedup` and `lattice_eval_speedup`, asserted on
//!    every arm (`LATTICE_BUILD_FLOOR`, `LATTICE_EVAL_FLOOR`), with the
//!    two orders within 1e-9 of each other.
//! 10. **fma_bound** — informational, not gated: each eight-lane
//!     kernel's counted multiply-adds per op (a grid point's dot
//!     product, a probe row's build, a probe's evaluation) and the
//!     fraction of an in-run peak (`fma_peak`: eight register-resident
//!     accumulator chains on the dispatched arm) its measured time
//!     reaches, beside an in-run eight-lane divide peak (`div_peak`).
//! 11. **stages** — one uncalibrated and one calibrated Section V
//!     verdict, each timed untraced (`try_run_with`) and traced into a
//!     `StageLedger` (`try_run_traced`), interleaved: the per-stage
//!     medians, and the median over reps of the stage sum over the
//!     untraced verdict timed beside it, asserted within 10 % of 1.

use rfbist::fixtures::reference_rf_output;
use rfbist_bench::{paper_cost, paper_stimulus, paper_tx, Frontend};
use rfbist_converter::bptiadc::BpTiadc;
use rfbist_converter::calibration::auto_calibrate;
use rfbist_core::bist::{welch_segmentation, BistConfig, BistEngine, BistScratch};
use rfbist_core::cost::DualRateCost;
use rfbist_core::lms::{estimate_skew_lms, LmsConfig};
use rfbist_core::mask::SpectralMask;
use rfbist_core::scan::{EarlyVerdict, MaskScanEngine, ScanFeed, StreamScratch};
use rfbist_core::trace::{StageLedger, VerdictStage};
use rfbist_dsp::psd::welch;
use rfbist_dsp::simd::{Arm, F64x8, Portable};
use rfbist_dsp::window::Window;
use rfbist_math::stats::nrmse;
use rfbist_rfchain::impairments::TxImpairments;
use rfbist_sampling::band::BandSpec;
use rfbist_sampling::gridplan::{GridBlocks, GridScratch, ProbeSums, PROBE_TAPS};
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
use rfbist_signal::tone::{MultiTone, Tone};
use rfbist_signal::traits::ContinuousSignal;
use std::hint::black_box;
use std::time::Instant;

const FC: f64 = 1e9;
const B: f64 = 90e6;
const D: f64 = 180e-12;

/// `cost_grid` speedup floors (full, quick). Readings on a 2-core
/// AVX-512 VM: 573–1210x full (24 runs) and 532–994x quick (17 runs),
/// 903–968x quick under `RFBIST_FORCE_SCALAR`.
const COST_GRID_FLOOR: (f64, f64) = (200.0, 150.0);

/// `lms.speedup_vs_reference` floors (full, quick). Readings on the
/// same VM: 209–405x full and 202–448x quick over the same runs,
/// 238–258x quick under `RFBIST_FORCE_SCALAR`.
const LMS_FLOOR: (f64, f64) = (100.0, 80.0);

/// `capture.speedup` floors (full, quick). Readings on the same VM:
/// 2.63–3.22x full and 2.47–3.02x quick (21 runs each), 2.54–4.25x
/// under `RFBIST_FORCE_SCALAR` (12 runs across both modes).
const CAPTURE_FLOOR: (f64, f64) = (1.6, 1.5);

/// Floors (full, quick) of the dispatched eight-lane kernels' speedup
/// over their portable instantiation on the same inputs, asserted
/// where the FMA dispatch is active. Readings on a 2-core AVX-512 VM
/// (AVX-512 arm; the AVX2 arm reads about the same there), against
/// the same kernels with `[f64; 8]` array accumulators, which LLVM
/// compiled 2-wide or scalar:
///
/// | ratio | quick | full | arrays |
/// |---|---|---|---|
/// | `grid_reconstruct.simd_speedup` | 1.77–2.29x | 1.91–2.25x | 1.22–1.45x |
/// | `probe_sums.build_simd_speedup` | 2.49–3.11x | 2.07–3.09x | 1.33–1.52x |
/// | `probe_sums.eval_simd_speedup` | 1.11–1.48x | 1.21–1.54x | 0.87–0.99x |
///
/// An evaluation's fixed cost (its weights and basis) weighs more
/// with quick mode's 80 probes, hence the lower quick eval ratio.
const GRID_SIMD_FLOOR: (f64, f64) = (1.6, 1.5);
const PROBE_BUILD_SIMD_FLOOR: (f64, f64) = (1.75, 1.9);
const PROBE_EVAL_SIMD_FLOOR: (f64, f64) = (1.1, 1.05);

/// Floors (full, quick) of the lattice schedule's probe sums in grid
/// order over the instants order on the same 300 times
/// (`probe_sums.lattice_build_speedup`, `lattice_eval_speedup`),
/// asserted on every arm: both orders run the same kernels, and a grid
/// order that built one probe per residue would read ~1x. Readings on
/// a 2-core AVX-512 VM: build 3.2–3.9x and evaluation 1.4–1.8x on the
/// AVX-512 arm (16 runs, quick and full), 1.51–1.54x and 1.58–1.63x
/// on the portable one (`RFBIST_FORCE_SCALAR`, whose per-probe passes
/// weigh more against the shared ones).
const LATTICE_BUILD_FLOOR: (f64, f64) = (1.3, 1.3);
const LATTICE_EVAL_FLOOR: (f64, f64) = (1.2, 1.2);

/// Floors (full, quick) of `grid_reconstruct.rows_once_speedup`: the
/// 12288-point Section V grid through the early-stop feed (two chunks,
/// 800 row builds) over the same grid through the default feed (one
/// chunk, 400), asserted on every arm. A producer that went back to
/// building its rows per 8192-point chunk would read ~1x. Readings on
/// a 2-core AVX-512 VM: 1.27–1.38x quick (20 runs) and 1.28–1.69x full
/// (24) on the AVX-512 arm; 1.18–1.22x quick (7) and 1.11–1.30x full
/// (12) on the portable one (`RFBIST_FORCE_SCALAR`), whose slower dot
/// products leave the rows a smaller share.
const ROWS_ONCE_FLOOR: (f64, f64) = (1.1, 1.1);

/// Largest relative gap between a traced verdict's stage sum and the
/// untraced verdict's time.
const STAGE_SUM_TOLERANCE: f64 = 0.1;

/// Evaluation sweeps per interleaved rep of `probe_sums`: one sweep of
/// the candidates takes only tens of microseconds.
const EVAL_SWEEPS: usize = 8;

/// Interleaved reps per `cfg.reps` of the dispatched-vs-portable
/// ratios (each rep times a few milliseconds of work or less).
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

/// Runs each closure of `work` (each performing `ops` operations) once
/// per rep, in turn, `reps` times, and returns each one's median ns/op:
/// slow drift on a shared machine hits all of them alike.
fn interleaved_medians<const K: usize>(
    reps: usize,
    ops: usize,
    mut work: [&mut dyn FnMut(); K],
) -> [f64; K] {
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (w, sample) in work.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            w();
            sample.push(start.elapsed().as_nanos() as f64 / ops as f64);
        }
    }
    samples.map(|mut v| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    })
}

/// Runs `work` (a closure performing `ops` operations) `reps` times and
/// returns the median ns/op.
fn median_ns_per_op<F: FnMut()>(reps: usize, ops: usize, mut work: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn bench_point_reconstruct(cfg: &Config) -> (f64, f64) {
    let band = BandSpec::centered(FC, B);
    let tone = Tone::unit(0.987e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -60, 400);
    let rec = PnbsReconstructor::paper_default(band, D).expect("valid delay");
    let points = if cfg.quick { 2_000 } else { 10_000 };
    let times: Vec<f64> = (0..points)
        .map(|i| 1.0e-6 + (i % 192) as f64 * 7.7e-9)
        .collect();

    let reference = median_ns_per_op(cfg.reps, points, || {
        for &t in &times {
            black_box(rec.reconstruct_at_reference(&cap, black_box(t)));
        }
    });
    let planned = median_ns_per_op(cfg.reps, points, || {
        for &t in &times {
            black_box(rec.reconstruct_at(&cap, black_box(t)));
        }
    });
    (reference, planned)
}

struct CostGridResult {
    reference_ns: f64,
    planned_ns: f64,
    nrmse: f64,
}

fn bench_cost_grid(cfg: &Config) -> CostGridResult {
    let cost = paper_cost(Frontend::Paper, cfg.probes, 42);
    let candidates = cost.sweep_candidates(cfg.candidates);

    let mut reference_grid = Vec::new();
    let reference_ns = median_ns_per_op(cfg.reps, candidates.len(), || {
        reference_grid = candidates
            .iter()
            .map(|&d| cost.evaluate_reference(d))
            .collect();
        black_box(&reference_grid);
    });

    // Per candidate, single-threaded like the reference: the probe
    // sums are built with the cost, outside this timing.
    let mut planned_grid = Vec::new();
    let planned_ns = median_ns_per_op(cfg.reps, candidates.len(), || {
        planned_grid = cost.eval_grid(&candidates);
        black_box(&planned_grid);
    });

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
fn bench_lms(cfg: &Config) -> LmsResultNs {
    let cost = paper_cost(Frontend::Paper, cfg.probes, 42);
    let rebuild = || {
        DualRateCost::new(
            cost.fast_capture().clone(),
            cost.slow_capture().clone(),
            *cost.config(),
            cost.times().to_vec(),
        )
    };
    let build_ns = median_ns_per_op(cfg.reps, 1, || {
        black_box(rebuild());
    });
    let lms_config = LmsConfig::paper_default(60e-12);
    let mut run = estimate_skew_lms(&cost, lms_config);
    let ns = median_ns_per_op(cfg.reps, 1, || {
        run = estimate_skew_lms(&rebuild(), lms_config);
        black_box(&run);
    });
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
fn bench_capture(cfg: &Config) -> CaptureResult {
    let bist = BistConfig::paper_default();
    let tx = paper_tx(TxImpairments::typical(), 160, 0xACE1);
    let (rf, reference) = (tx.rf_output(), reference_rf_output(&tx));
    let pairs = if cfg.quick { 4 } else { 8 };
    let bits = capture_pair_bits(&rf, &bist);
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
                    black_box(capture_pair_bits(&rf, &bist));
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

/// The analysis-grid workload: `BistEngine::run` step 4 reconstructs
/// the RF waveform on a dense uniform grid (~12288 points at 4 GHz)
/// before every mask verdict. The direct reference
/// (`reconstruct_at_reference`: four kernel cosines and two Kaiser
/// Bessel series per tap per point) vs the planned grid
/// (`reconstruct_grid`: the 4 GHz grid is a 9/400 lattice of the
/// sample period, so it runs phase-major — 400 weight rows for the
/// whole batch grid, one dot product per point, reusing its scratch
/// across repetitions exactly as the engine does across verdicts).
fn bench_grid_reconstruct(cfg: &Config) -> GridReconResult {
    const FS_GRID: f64 = 4e9;
    let band = BandSpec::centered(FC, B);
    let stim = paper_stimulus(96, 0xACE1);
    let cap = NonuniformCapture::from_signal(&stim, 1.0 / B, D, 80, 380);
    let rec = PnbsReconstructor::paper_default(band, D).expect("valid delay");
    let (lo, hi) = rec.coverage(&cap).expect("capture too short");
    let dt = 1.0 / FS_GRID;
    // Both modes time the whole grid: the batch grid builds its 400
    // rows once, so a shorter quick grid would weigh them more per
    // point than the full-mode baseline CI compares it with.
    let points = 12288usize.min(((hi - lo) / dt) as usize);

    let mut reference_wave = vec![0.0; points];
    let reference_ns = median_ns_per_op(cfg.reps, points, || {
        for (i, slot) in reference_wave.iter_mut().enumerate() {
            *slot = rec.reconstruct_at_reference(&cap, black_box(lo + i as f64 * dt));
        }
        black_box(&reference_wave);
    });

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
                black_box(rec.reconstruct_grid(&cap, lo, dt, points, &mut grid_scratch));
            },
            &mut || {
                black_box(plan.try_reconstruct_grid_on(
                    Arm::Portable,
                    &cap,
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
fn bench_grid_split(cfg: &Config) -> GridSplit {
    const FS_GRID: f64 = 4e9;
    let band = BandSpec::centered(FC, B);
    let stim = paper_stimulus(160, 0xACE1);
    let cap = NonuniformCapture::from_signal(&stim, 1.0 / B, D, 80, 800);
    let rec = PnbsReconstructor::paper_default(band, D).expect("valid delay");
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
                black_box(rec.reconstruct_grid(&cap, lo, dt, SPLIT_POINTS[0], &mut short));
            },
            &mut || {
                black_box(rec.reconstruct_grid(&cap, lo, dt, SPLIT_POINTS[1], &mut long));
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
fn bench_rows_once(cfg: &Config) -> RowsOnce {
    const FS_GRID: f64 = 4e9;
    let band = BandSpec::centered(FC, B);
    let stim = paper_stimulus(96, 0xACE1);
    let cap = NonuniformCapture::from_signal(&stim, 1.0 / B, D, 80, 380);
    let rec = PnbsReconstructor::paper_default(band, D).expect("valid delay");
    let (lo, hi) = rec.coverage(&cap).expect("capture too short");
    let dt = 1.0 / FS_GRID;
    let points = 12288usize.min(((hi - lo) / dt) as usize);
    let (mut stoppable, mut default) = (GridScratch::new(), GridScratch::new());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    drain_feed(
        rec.reconstruct_stoppable_blocks(&cap, lo, dt, points, &mut stoppable),
        |block| a.extend_from_slice(block),
    );
    drain_feed(
        rec.reconstruct_blocks(&cap, lo, dt, points, &mut default),
        |block| b.extend_from_slice(block),
    );
    let [stoppable_ns, default_ns] = interleaved_medians(
        SIMD_RATIO_REPS * cfg.reps,
        1,
        [
            &mut || {
                drain_feed(
                    rec.reconstruct_stoppable_blocks(&cap, lo, dt, points, &mut stoppable),
                    |block| {
                        black_box(block);
                    },
                );
            },
            &mut || {
                drain_feed(
                    rec.reconstruct_blocks(&cap, lo, dt, points, &mut default),
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

/// The mask-bin workload: one Section V reconstruction-grid waveform →
/// one spectral-mask verdict, FFT-Welch (full PSD + check) vs the
/// banked-Goertzel scan (mask bins only). Both paths share the
/// engine's `welch_segmentation` and window, and both timed regions
/// include their per-verdict setup exactly as `BistEngine::run` pays
/// it — `welch` regenerates its window per call, and the banked side
/// rebuilds the `MaskScanEngine` (window, bin table, coefficient
/// bank) per verdict — so the recorded speedup is what the engine
/// actually gains.
fn bench_mask_scan(cfg: &Config) -> MaskScanResult {
    const FS_GRID: f64 = 4e9;
    let n = 12288; // the BistConfig::paper_default analysis grid
    let wave = paper_stimulus(96, 0xACE1).sample_uniform(1.0e-6, 1.0 / FS_GRID, n);
    let mask = SpectralMask::qpsk_10msym();
    let (seg, overlap) = welch_segmentation(n);

    let verdicts = if cfg.quick { 2 } else { 6 };
    let mut fft_report = None;
    let fft_welch_ns = median_ns_per_op(cfg.reps, verdicts, || {
        for _ in 0..verdicts {
            let psd = welch(&wave, FS_GRID, seg, overlap, Window::BlackmanHarris);
            fft_report = Some(black_box(
                mask.try_check(&psd, FC)
                    .expect("benchmark PSD is well-formed"),
            ));
        }
    });
    let mut banked_report = None;
    let banked_ns = median_ns_per_op(cfg.reps, verdicts, || {
        for _ in 0..verdicts {
            let scan =
                MaskScanEngine::new(&mask, FC, FS_GRID, seg, overlap, Window::BlackmanHarris);
            banked_report = Some(black_box(
                scan.try_scan(&wave)
                    .expect("benchmark wave spans a segment"),
            ));
        }
    });
    let scan = MaskScanEngine::new(&mask, FC, FS_GRID, seg, overlap, Window::BlackmanHarris);

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
/// constructed per verdict — exactly what `BistEngine::run` paid
/// before the streaming refactor) vs the streaming single pass (block
/// feed pushed straight into the scan, everything reused — the
/// `run_with` steady state). The early-exit case times a grossly
/// violating unit under the default guard on the early-stop feed, as
/// the engine runs an armed early verdict: the feed stops at the
/// first completed Welch segment, skipping a third of the
/// reconstruction — the hottest loop of the whole pipeline.
fn bench_stream_bist(cfg: &Config) -> StreamBistResult {
    const FS_GRID: f64 = 4e9;
    let band = BandSpec::centered(FC, B);
    let stim = paper_stimulus(96, 0xACE1);
    let cap = NonuniformCapture::from_signal(&stim, 1.0 / B, D, 80, 380);
    let rec = PnbsReconstructor::paper_default(band, D).expect("valid delay");
    let (lo, hi) = rec.coverage(&cap).expect("capture too short");
    let dt = 1.0 / FS_GRID;
    let points = 12288usize.min(((hi - lo) / dt) as usize);
    let mask = SpectralMask::qpsk_10msym();
    let (seg, overlap) = welch_segmentation(points);
    let verdicts = if cfg.quick { 2 } else { 4 };

    // The three configurations are timed inside the *same* rep loop,
    // interleaved, so slow drift on a shared machine (the dominant
    // noise source at ~10 ms per verdict) hits every configuration
    // equally and cancels out of the ratios.
    let scan = MaskScanEngine::new(&mask, FC, FS_GRID, seg, overlap, Window::BlackmanHarris);
    let mut grid = GridScratch::new();
    let mut stream_scratch = StreamScratch::new();
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
    let mut samples: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..cfg.reps {
        // Full-grid batch: per-verdict allocation and construction
        // included, exactly as the engine paid it before streaming.
        let start = Instant::now();
        for _ in 0..verdicts {
            let mut batch_grid = GridScratch::new();
            rec.reconstruct_grid(&cap, lo, dt, points, &mut batch_grid);
            let wave = batch_grid.into_values();
            let batch_scan =
                MaskScanEngine::new(&mask, FC, FS_GRID, seg, overlap, Window::BlackmanHarris);
            batch_report = Some(black_box(
                batch_scan
                    .try_scan(&wave)
                    .expect("benchmark wave spans a segment"),
            ));
        }
        samples[0].push(start.elapsed().as_nanos() as f64 / verdicts as f64);

        // Streaming single pass, scratch and scanner held across
        // verdicts (the `run_with` steady state).
        let start = Instant::now();
        for _ in 0..verdicts {
            let mut stream = scan
                .stream(&mut stream_scratch, None)
                .with_capture_len(points);
            let mut blocks = rec.reconstruct_blocks(&cap, lo, dt, points, &mut grid);
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
        samples[1].push(start.elapsed().as_nanos() as f64 / verdicts as f64);

        // Early exit on the gross-violation fixture.
        let start = Instant::now();
        for _ in 0..verdicts {
            let mut stream = scan
                .stream(&mut stream_scratch, Some(EarlyVerdict::paper_default()))
                .with_capture_len(points);
            let mut blocks =
                rec.reconstruct_stoppable_blocks(&spur_cap, spur_lo, dt, points, &mut grid);
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
        samples[2].push(start.elapsed().as_nanos() as f64 / verdicts as f64);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    let [mut s0, mut s1, mut s2] = samples;
    let (batch_ns, stream_ns, early_ns) = (median(&mut s0), median(&mut s1), median(&mut s2));

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
    direct_ns: f64,
    /// `(workers, median ns/verdict through the service)`.
    saturation: Vec<(usize, f64)>,
}

/// The verdict-service workload: a batch of identical calibrated-skew
/// jobs (short 2048-point analysis grid) through the persistent pool at
/// 1, 2 and 4 workers, against the direct `try_run_with` loop on one
/// reused scratch. Each pool is warmed with one untimed batch (thread
/// start + scratch growth), and every outcome is asserted
/// bit-identical to the direct verdict before any number is reported.
/// The direct loop and the three pools are then timed over whole
/// submit-all/collect-all batches *interleaved* inside one rep loop,
/// as `stream_bist` does, so slow drift on a shared machine hits every
/// configuration alike and cancels out of the ratios.
fn bench_service(cfg: &Config) -> ServiceResult {
    use rfbist_core::bist::{BistConfig, BistEngine, BistScratch};
    use rfbist_core::service::{ServiceConfig, SharedSignal, VerdictJob, VerdictService};
    use std::sync::Arc;

    let mut bist = BistConfig::paper_default().with_calibrated_skew(D);
    bist.grid_len = 2048;
    let mask = SpectralMask::qpsk_10msym();
    let stimulus: SharedSignal = Arc::new(
        rfbist_bench::paper_tx(
            rfbist_rfchain::impairments::TxImpairments::typical(),
            160,
            0xACE1,
        )
        .rf_output(),
    );
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
    let mut pools: Vec<VerdictService> = pool_sizes
        .iter()
        .map(|&workers| {
            let mut svc =
                VerdictService::try_start(ServiceConfig::paper_default().with_workers(workers))
                    .expect("verdict service starts");
            // warm batch: thread start, per-worker scratch growth — and
            // the equivalence assertion, once per worker count
            let outcomes = svc
                .try_run_all(make_jobs(jobs_per_batch))
                .expect("pool alive");
            for outcome in &outcomes {
                let report = outcome.result.as_ref().expect("clean service verdict");
                assert_eq!(
                    report, &direct_report,
                    "service verdict diverged from the direct run at {workers} worker(s)"
                );
            }
            svc
        })
        .collect();

    // samples[0] is the direct loop, samples[1 + k] pool k
    let mut samples = vec![Vec::with_capacity(cfg.reps); 1 + pools.len()];
    for _ in 0..cfg.reps {
        let start = Instant::now();
        run_direct();
        samples[0].push(start.elapsed().as_nanos() as f64 / jobs_per_batch as f64);
        for (svc, sample) in pools.iter_mut().zip(&mut samples[1..]) {
            let start = Instant::now();
            let outcomes = svc
                .try_run_all(make_jobs(jobs_per_batch))
                .expect("pool alive");
            black_box(&outcomes);
            sample.push(start.elapsed().as_nanos() as f64 / jobs_per_batch as f64);
        }
    }
    for svc in pools {
        svc.shutdown();
    }
    let mut medians = samples.into_iter().map(|mut v| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    });
    let direct_ns = medians.next().expect("direct samples");
    let saturation = pool_sizes.into_iter().zip(medians).collect();

    ServiceResult {
        available_workers: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        jobs_per_batch,
        direct_ns,
        saturation,
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
fn bench_probe_sums(cfg: &Config) -> ProbeSumsResult {
    let cost = paper_cost(Frontend::Paper, cfg.probes, 42);
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
    let candidates = cost.sweep_candidates(cfg.candidates);
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
fn bench_probe_lattice(cfg: &Config) -> ProbeLatticeResult {
    const PROBES: usize = 300;
    let bist = BistConfig::paper_default();
    let dual = bist.dual;
    let rf = paper_tx(TxImpairments::typical(), 160, 0xACE1).rf_output();
    let calibrated =
        |frontend, start, len| auto_calibrate(&BpTiadc::new(frontend).capture(&rf, start, len)).0;
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
fn bench_stages(cfg: &Config) -> StagesResult {
    let bist = BistConfig::paper_default();
    let dut = paper_tx(TxImpairments::typical(), 160, 0xACE1).rf_output();
    let mask = SpectralMask::qpsk_10msym();
    let calibration = BistEngine::new(bist.clone())
        .try_calibrate_skew(&dut)
        .expect("the Section V DUT calibrates");
    let engines = [
        BistEngine::new(bist.clone()),
        BistEngine::new(bist.with_calibrated_skew(calibration.delay)),
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
                            .try_run_traced(&dut, &mask, none, &mut scratch, &mut ledger)
                            .expect("clean verdict"),
                    );
                } else {
                    let start = Instant::now();
                    black_box(
                        engine
                            .try_run_with(&dut, &mask, none, &mut scratch)
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
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    StagesResult {
        untraced_ns: untraced.map(median),
        sum_ns: sums.map(median),
        stage_ns: stages.map(|per_stage| per_stage.map(median)),
        sum_ratio: ratios.map(median),
        lms_iterations,
        lms_evaluations,
    }
}

/// One verdict's `stages` JSON object: the untraced time, the traced
/// stage sum and each stage, in µs, and the median paired ratio of the
/// two.
fn stages_json(untraced_ns: f64, sum_ns: f64, ratio: f64, stage_ns: &[f64; 6]) -> String {
    let stages: Vec<String> = VerdictStage::ALL
        .iter()
        .zip(stage_ns)
        .map(|(stage, ns)| format!(r#""{}_us": {:.2}"#, stage.name(), ns / 1e3))
        .collect();
    format!(
        r#"{{ "untraced_us": {:.2}, "stage_sum_us": {:.2}, "stage_sum_ratio": {ratio:.4}, {} }}"#,
        untraced_ns / 1e3,
        sum_ns / 1e3,
        stages.join(", ")
    )
}

/// Runs `rounds` rounds of eight independent lane multiply-adds on
/// kernel arm `arm` (the portable one where this CPU lacks it), all
/// operands in registers, and returns the lanes' total: the in-run
/// peak the `fma_bound` report times the eight-lane kernels against.
fn fma_peak(arm: Arm, rounds: usize) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        if arm == Arm::Avx512 && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F + FMA support was just verified at
            // runtime by is_x86_feature_detected!.
            return unsafe { fma_peak_avx512(rounds) };
        }
        if arm == Arm::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 + FMA support was just verified at runtime
            // by is_x86_feature_detected!.
            return unsafe { fma_peak_avx2(rounds) };
        }
    }
    fma_peak_body(Portable::ZERO, rounds)
}

/// [`fma_peak_body`] compiled with AVX2 + FMA.
///
/// # Safety
///
/// The caller must have verified AVX2 and FMA support on the running
/// CPU (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_peak_avx2(rounds: usize) -> f64 {
    // SAFETY: this function's own contract.
    fma_peak_body(unsafe { rfbist_dsp::simd::Fma256::new() }, rounds)
}

/// [`fma_peak_body`] compiled with AVX-512F + FMA.
///
/// # Safety
///
/// The caller must have verified AVX-512F and FMA support on the
/// running CPU (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn fma_peak_avx512(rounds: usize) -> f64 {
    // SAFETY: this function's own contract.
    fma_peak_body(unsafe { rfbist_dsp::simd::Fma512::new() }, rounds)
}

/// [`fma_peak`]'s kernel: eight accumulator chains, each one lane
/// multiply-add per round.
#[inline(always)]
fn fma_peak_body<L: F64x8>(lanes: L, rounds: usize) -> f64 {
    let (a, b) = black_box(([0.5; 8], [0.5; 8]));
    let mut acc = [lanes.zero(); 8];
    for _ in 0..rounds {
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

/// Runs `rounds` rounds of eight independent eight-lane divides on
/// kernel arm `arm` (the portable one where this CPU lacks it), all
/// operands in registers, and returns the lanes' total: the divide
/// throughput the row builders' and the probe build's `1/τ` passes
/// run against.
fn div_peak(arm: Arm, rounds: usize) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        if arm == Arm::Avx512 && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F + FMA support was just verified at
            // runtime by is_x86_feature_detected!.
            return unsafe { div_peak_avx512(rounds) };
        }
        if arm == Arm::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 + FMA support was just verified at runtime
            // by is_x86_feature_detected!.
            return unsafe { div_peak_avx2(rounds) };
        }
    }
    div_peak_body(rounds)
}

/// [`div_peak_body`] compiled with AVX2 + FMA.
///
/// # Safety
///
/// The caller must have verified AVX2 and FMA support on the running
/// CPU (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn div_peak_avx2(rounds: usize) -> f64 {
    div_peak_body(rounds)
}

/// [`div_peak_body`] compiled with AVX-512F + FMA.
///
/// # Safety
///
/// The caller must have verified AVX-512F and FMA support on the
/// running CPU (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn div_peak_avx512(rounds: usize) -> f64 {
    div_peak_body(rounds)
}

/// [`div_peak`]'s kernel: eight chains of eight-lane divides, which
/// LLVM keeps in vector registers of the instantiation's width.
#[inline(always)]
fn div_peak_body(rounds: usize) -> f64 {
    // opaque starts, or LLVM merges the eight identical chains into one
    let d = black_box([1.000_000_1; 8]);
    let mut acc = black_box([[1.0f64; 8]; 8]);
    for _ in 0..rounds {
        for x in acc.iter_mut() {
            for (v, &dv) in x.iter_mut().zip(&d) {
                *v /= dv;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// Median ns per eight-lane divide of the register-resident
/// [`div_peak`] kernel on the dispatched arm.
fn bench_div_peak(cfg: &Config) -> f64 {
    const ROUNDS: usize = 25_000;
    median_ns_per_op(SIMD_RATIO_REPS * cfg.reps, 8 * ROUNDS, || {
        black_box(div_peak(Arm::detect(), black_box(ROUNDS)));
    })
}

/// Median ns per eight-lane multiply-add of the register-resident
/// [`fma_peak`] kernel on the dispatched arm.
fn bench_fma_peak(cfg: &Config) -> f64 {
    const ROUNDS: usize = 250_000;
    median_ns_per_op(SIMD_RATIO_REPS * cfg.reps, 8 * ROUNDS, || {
        black_box(fma_peak(Arm::detect(), black_box(ROUNDS)));
    })
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
    let mut cfg = Config {
        quick: false,
        out: "BENCH_recon.json".to_string(),
        reps: 0,
        probes: 0,
        candidates: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--out" => cfg.out = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_report [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    if cfg.quick {
        cfg.reps = 3;
        cfg.probes = 80;
        cfg.candidates = 12;
    } else {
        cfg.reps = 5;
        cfg.probes = 300;
        cfg.candidates = 32;
    }

    println!(
        "perf_report ({} mode): {} reps/kernel, {} probes, {} grid candidates",
        if cfg.quick { "quick" } else { "full" },
        cfg.reps,
        cfg.probes,
        cfg.candidates
    );

    let (pt_ref, pt_plan) = bench_point_reconstruct(&cfg);
    println!(
        "point_reconstruct  {pt_ref:>10.1} ns/op reference  {pt_plan:>10.1} ns/op planned  ({:.2}x)",
        pt_ref / pt_plan
    );
    let grid = bench_cost_grid(&cfg);
    println!(
        "cost_grid          {:>10.1} us/cand reference  {:>10.1} us/cand planned  ({:.2}x, nrmse {:.3e})",
        grid.reference_ns / 1e3,
        grid.planned_ns / 1e3,
        grid.reference_ns / grid.planned_ns,
        grid.nrmse,
    );
    let grid_recon = bench_grid_reconstruct(&cfg);
    println!(
        "grid_reconstruct   {:>10.1} ns/pt reference  {:>10.1} ns/pt grid plan  ({:.2}x over {} points, nrmse {:.3e})",
        grid_recon.reference_ns,
        grid_recon.grid_ns,
        grid_recon.reference_ns / grid_recon.grid_ns,
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
    let split = bench_grid_split(&cfg);
    println!(
        "grid_reconstruct   {:>10.1} ns/row build {:>10.1} ns/point  ({} and {} points: {:.1} and {:.1} us)",
        split.row_build_ns,
        split.ns_per_dot,
        SPLIT_POINTS[0],
        SPLIT_POINTS[1],
        split.grid_ns[0] / 1e3,
        split.grid_ns[1] / 1e3,
    );
    let rows_once = bench_rows_once(&cfg);
    let rows_once_speedup = rows_once.stoppable_ns / rows_once.default_ns;
    println!(
        "grid_reconstruct   {:>10.1} us early-stop feed {:>7.1} us default feed  ({rows_once_speedup:.2}x over {} points)",
        rows_once.stoppable_ns / 1e3,
        rows_once.default_ns / 1e3,
        rows_once.points,
    );
    let mask_scan = bench_mask_scan(&cfg);
    println!(
        "mask_scan          {:>10.1} us/verdict fft-welch  {:>10.1} us/verdict banked  ({:.2}x, {} of {} bins, margin delta {:.3e} dB)",
        mask_scan.fft_welch_ns / 1e3,
        mask_scan.banked_ns / 1e3,
        mask_scan.fft_welch_ns / mask_scan.banked_ns,
        mask_scan.probed_bins,
        mask_scan.total_bins,
        mask_scan.margin_delta_db,
    );

    let stream = bench_stream_bist(&cfg);
    println!(
        "stream_bist        {:>10.1} us/verdict batch      {:>10.1} us/verdict streamed  ({:.2}x over {} points)",
        stream.batch_ns / 1e3,
        stream.stream_ns / 1e3,
        stream.batch_ns / stream.stream_ns,
        stream.points,
    );
    println!(
        "stream_bist early  {:>10.1} us/verdict early-exit ({:.2}x vs batch, stopped after {} of {} points)",
        stream.early_ns / 1e3,
        stream.batch_ns / stream.early_ns,
        stream.early_points,
        stream.points,
    );

    let service = bench_service(&cfg);
    let service_1w_ns = service.saturation[0].1;
    println!(
        "service            {:>10.1} us/verdict direct     {:>10.1} us/verdict 1 worker ({:.2}x overhead ratio, {:.0} verdicts/s)",
        service.direct_ns / 1e3,
        service_1w_ns / 1e3,
        service.direct_ns / service_1w_ns,
        1e9 / service_1w_ns,
    );
    for &(workers, ns) in &service.saturation[1..] {
        println!(
            "service {workers}w         {:>10.1} us/verdict across {workers} worker(s) ({:.2}x vs 1 worker, {:.0} verdicts/s)",
            ns / 1e3,
            service_1w_ns / ns,
            1e9 / ns,
        );
    }

    let lms = bench_lms(&cfg);
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

    let probe_sums = bench_probe_sums(&cfg);
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
    let lattice = bench_probe_lattice(&cfg);
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

    let stages = bench_stages(&cfg);
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
    let capture = bench_capture(&cfg);
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
        pt_ref = pt_ref,
        pt_plan = pt_plan,
        pt_speedup = pt_ref / pt_plan,
        probes = cfg.probes,
        candidates = cfg.candidates,
        grid_ref = grid.reference_ns,
        grid_plan = grid.planned_ns,
        grid_speedup = grid.reference_ns / grid.planned_ns,
        grid_build = lms.build_ns,
        nrmse = grid.nrmse,
        lms_ns = lms.ns,
        lms_iterations = lms.iterations,
        lms_evaluations = lms.evaluations,
        grid_recon_points = grid_recon.points,
        grid_recon_ref = grid_recon.reference_ns,
        grid_recon_grid = grid_recon.grid_ns,
        grid_recon_speedup = grid_recon.reference_ns / grid_recon.grid_ns,
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
        scan_speedup = mask_scan.fft_welch_ns / mask_scan.banked_ns,
        scan_delta = mask_scan.margin_delta_db,
        stream_points = stream.points,
        stream_batch = stream.batch_ns,
        stream_seq = stream.stream_ns,
        stream_seq_speedup = stream.batch_ns / stream.stream_ns,
        stream_early = stream.early_ns,
        stream_early_speedup = stream.batch_ns / stream.early_ns,
        stream_early_points = stream.early_points,
        stream_delta = stream.margin_delta_db,
        svc_workers = service.available_workers,
        svc_jobs = service.jobs_per_batch,
        svc_direct = service.direct_ns,
        svc_1w = service_1w_ns,
        svc_vps = 1e9 / service_1w_ns,
        svc_overhead = service.direct_ns / service_1w_ns,
        svc_scaling = service_1w_ns / service.saturation[1].1,
        stages_uncal_us = stages.untraced_ns[0] / 1e3,
        stages_cal_us = stages.untraced_ns[1] / 1e3,
        stages_lms_iterations = stages.lms_iterations,
        stages_lms_evaluations = stages.lms_evaluations,
        stages_uncal = stages_json(
            stages.untraced_ns[0],
            stages.sum_ns[0],
            stages.sum_ratio[0],
            &stages.stage_ns[0]
        ),
        stages_cal = stages_json(
            stages.untraced_ns[1],
            stages.sum_ns[1],
            stages.sum_ratio[1],
            &stages.stage_ns[1]
        ),
        capture_samples = capture.samples,
        capture_ref = capture.reference_ns,
        capture_ns = capture.ns,
    );
    std::fs::write(&cfg.out, json).expect("write bench report");
    println!("wrote {}", cfg.out);

    // The harness enforces its own contracts so CI fails loudly when
    // either regresses.
    assert!(
        grid.nrmse <= 1e-9,
        "planned cost grid diverged from the scalar baseline: nrmse {}",
        grid.nrmse
    );
    // Asserted on single-threaded ratios so the gates pin the probe
    // sums themselves, not the core count. Quick mode (80 probes,
    // 3-rep medians on shared CI runners) gets softer floors. The
    // floors sit two to four times under the lowest readings, portable
    // kernels included; a regression that rebuilds a weight row per
    // probe and candidate falls back to the ~40-70x per-instant level.
    let floor = if cfg.quick {
        COST_GRID_FLOOR.1
    } else {
        COST_GRID_FLOOR.0
    };
    assert!(
        grid.reference_ns / grid.planned_ns >= floor,
        "cost-grid speedup below the {floor}x floor: {:.2}x",
        grid.reference_ns / grid.planned_ns
    );
    // The LMS gate counts the build: an evaluation that got cheap by
    // moving work into the build cannot pass it.
    let lms_floor = if cfg.quick { LMS_FLOOR.1 } else { LMS_FLOOR.0 };
    assert!(
        lms_speedup >= lms_floor,
        "LMS speedup over reference evaluations below the {lms_floor}x floor: {lms_speedup:.2}x"
    );
    // Grid-reconstruct contracts: the planned grid must agree with the
    // direct reference on the analysis-grid workload, and two floors
    // pin its cost. The scalar floor (no vector width needed) holds
    // unconditionally; the SIMD floor pins the runtime-dispatched
    // kernels and is asserted only where they can engage — the
    // mask_scan gate applied to the grid plan — with the ratio
    // reported either way on scalar hardware or under
    // RFBIST_FORCE_SCALAR. Both floors sit far under what the
    // phase-major path measures (~220–260x on a 2-core AVX-512 VM);
    // they catch a grid that silently falls back to a per-instant cost.
    assert!(
        grid_recon.nrmse <= 1e-9,
        "grid plan diverged from the direct reference: nrmse {}",
        grid_recon.nrmse
    );
    let grid_floor = if cfg.quick { 9.0 } else { 12.0 };
    assert!(
        grid_recon.reference_ns / grid_recon.grid_ns >= grid_floor,
        "grid-reconstruct speedup below the {grid_floor}x floor: {:.2}x",
        grid_recon.reference_ns / grid_recon.grid_ns
    );
    let grid_simd_floor = if cfg.quick { 24.0 } else { 33.0 };
    if scan_simd_available() {
        assert!(
            grid_recon.reference_ns / grid_recon.grid_ns >= grid_simd_floor,
            "SIMD grid-reconstruct speedup below the {grid_simd_floor}x floor: {:.2}x",
            grid_recon.reference_ns / grid_recon.grid_ns
        );
    } else {
        println!(
            "grid_reconstruct SIMD floor (>= {grid_simd_floor}x) not asserted: no AVX2+FMA \
             dispatch on this CPU (measured {:.2}x)",
            grid_recon.reference_ns / grid_recon.grid_ns
        );
    }
    // Vector-width contracts: each dispatched lane kernel against its
    // portable instantiation, on the same inputs and timed interleaved.
    // A kernel that LLVM compiles 2-wide or scalar again falls under
    // its floor; the floors arm only where the FMA dispatch runs.
    let simd_ratios = [
        (
            "grid_reconstruct.simd_speedup",
            grid_simd_speedup,
            GRID_SIMD_FLOOR,
        ),
        (
            "probe_sums.build_simd_speedup",
            build_simd_speedup,
            PROBE_BUILD_SIMD_FLOOR,
        ),
        (
            "probe_sums.eval_simd_speedup",
            eval_simd_speedup,
            PROBE_EVAL_SIMD_FLOOR,
        ),
    ];
    for (name, ratio, (full, quick)) in simd_ratios {
        let floor = if cfg.quick { quick } else { full };
        if Arm::detect() != Arm::Portable {
            assert!(
                ratio >= floor,
                "{name} below the {floor}x floor: {ratio:.2}x"
            );
        } else {
            println!(
                "{name} floor (>= {floor}x) not asserted: no FMA dispatch (measured {ratio:.2}x)"
            );
        }
    }
    // Lattice contracts: the grid order follows the instants order on
    // the same times (the probe sums' 1e-9 contract), and sharing each
    // residue's weights must pay.
    assert!(
        lattice.max_diff <= 1e-9,
        "lattice probe sums diverged from the instants order: {:.3e}",
        lattice.max_diff
    );
    for (name, ratio, (full, quick)) in [
        (
            "probe_sums.lattice_build_speedup",
            lattice_build_speedup,
            LATTICE_BUILD_FLOOR,
        ),
        (
            "probe_sums.lattice_eval_speedup",
            lattice_eval_speedup,
            LATTICE_EVAL_FLOOR,
        ),
    ] {
        let floor = if cfg.quick { quick } else { full };
        assert!(
            ratio >= floor,
            "{name} below the {floor}x floor: {ratio:.2}x"
        );
    }
    // Rows-once contract: both feeds yield the same bits, and the
    // default feed, building each residue's row once on this grid,
    // must beat the early-stop feed's two builds per residue.
    assert!(
        rows_once.bit_identical,
        "the early-stop and default feeds diverged"
    );
    let rows_once_floor = if cfg.quick {
        ROWS_ONCE_FLOOR.1
    } else {
        ROWS_ONCE_FLOOR.0
    };
    assert!(
        rows_once_speedup >= rows_once_floor,
        "grid_reconstruct.rows_once_speedup below the {rows_once_floor}x floor: {rows_once_speedup:.2}x"
    );
    // Stage-ledger contract: a traced verdict's stages account for the
    // untraced verdict's time, each rep's pair compared (the medians of
    // ~1 ms verdicts drift apart by up to ~10 % over a quick run).
    for (k, name) in ["uncalibrated", "calibrated"].into_iter().enumerate() {
        assert!(
            (stages.sum_ratio[k] - 1.0).abs() <= STAGE_SUM_TOLERANCE,
            "{name} verdict: stage sum {:.3}x the untraced verdict",
            stages.sum_ratio[k]
        );
    }
    // Mask-scan contracts: the banked Goertzel path must agree with the
    // FFT-Welch reference on the Section V fixture (they probe the same
    // bins, so the budgeted 0.5 dB is ~9 orders of magnitude of
    // headroom) and must beat it on wall clock — the whole point of
    // evaluating only the bins the mask constrains.
    assert!(
        mask_scan.verdicts_agree && mask_scan.margin_delta_db <= 0.5,
        "mask-scan verdict diverged from FFT-Welch: agree {}, |Δmargin| {} dB",
        mask_scan.verdicts_agree,
        mask_scan.margin_delta_db
    );
    // Floors sit well under the ~1.5x a quiet x86 machine measures:
    // the FFT side's large allocations make single runs noisy, and the
    // banked side's FMA kernel needs the runtime-dispatched SIMD path
    // (any AVX2+FMA-era core) to win at all. On plain SSE2/NEON
    // hardware the Goertzel bank genuinely loses to the FFT (it trades
    // O(N log N) for O(bins·N) and needs vector width to come out
    // ahead), so the speedup floor is asserted only where the AVX2+FMA
    // kernels can dispatch; the measured ratio is reported either way.
    let scan_floor = if cfg.quick { 1.0 } else { 1.25 };
    if scan_simd_available() {
        assert!(
            mask_scan.fft_welch_ns / mask_scan.banked_ns > scan_floor,
            "banked mask scan must beat FFT-Welch (>{scan_floor}x): {:.2}x",
            mask_scan.fft_welch_ns / mask_scan.banked_ns
        );
    } else {
        println!(
            "mask_scan speedup floor (> {scan_floor}x) not asserted: no AVX2+FMA on this CPU \
             (measured {:.2}x)",
            mask_scan.fft_welch_ns / mask_scan.banked_ns
        );
    }
    // Stream-BIST contracts. Agreement is structural — the block feed
    // reproduces the batch wave bit for bit and the streamed scan the
    // batched scan — so the margin delta must sit at exactly zero
    // (budgeted 1e-9, the acceptance contract). The stream floors are
    // SIMD-*independent*: both pipelines run the same runtime-
    // dispatched grid-plan and scan kernels (whichever arm the CPU
    // selects), so vector width cancels out of every ratio.
    assert!(
        stream.verdicts_agree && stream.margin_delta_db <= 1e-9,
        "streamed verdict diverged from batch: agree {}, |Δmargin| {} dB",
        stream.verdicts_agree,
        stream.margin_delta_db
    );
    // The sequential single pass does the same arithmetic as the batch
    // minus the per-verdict allocation, wave materialization and
    // scanner construction; with the Welch window folded inside the
    // banked pass (no per-chunk staging copy) the streamed verdict no
    // longer regresses below batch (measured ~0.95–1.0x on a single
    // shared core). The floor guards against real regressions (a
    // quadratic carry, a per-block table rebuild, a reintroduced
    // staging pass), not noise.
    let seq_floor = if cfg.quick { 0.9 } else { 0.95 };
    assert!(
        stream.batch_ns / stream.stream_ns >= seq_floor,
        "sequential streaming regressed below batch (>{seq_floor}x): {:.2}x",
        stream.batch_ns / stream.stream_ns
    );
    // Early exit skips a third of the reconstruction — the dominant
    // cost — so it must beat the batch outright on any core count.
    let early_floor = if cfg.quick { 1.1 } else { 1.2 };
    assert!(
        stream.early_fired,
        "early-verdict policy failed to fire on the gross-violation fixture"
    );
    assert!(
        stream.early_points < stream.points,
        "early exit must stop before the full grid ({} of {})",
        stream.early_points,
        stream.points
    );
    assert!(
        stream.batch_ns / stream.early_ns >= early_floor,
        "early-exit verdict below the {early_floor}x floor: {:.2}x",
        stream.batch_ns / stream.early_ns
    );
    // Capture contracts: the angle-sum table must reproduce the direct
    // per-tap baseband's 10-bit captures exactly, and beat it. The
    // ratio is SIMD-free (both paths are plain scalar code), and a
    // regression that brings back per-tap trig falls to ~1x.
    assert!(
        capture.bit_identical,
        "rf_output() capture differs from the reference waveform's"
    );
    let capture_floor = if cfg.quick {
        CAPTURE_FLOOR.1
    } else {
        CAPTURE_FLOOR.0
    };
    assert!(
        capture_speedup >= capture_floor,
        "capture speedup below the {capture_floor}x floor: {capture_speedup:.2}x"
    );
    // Verdict-service contracts. Equivalence was asserted inside the
    // bench (every pool outcome bit-identical to the direct verdict);
    // the gates here are throughput-shaped. The 1-worker floors are
    // core-count-free: the absolute verdicts/s floor sits an order of
    // magnitude under what one slow shared core measures (a real
    // regression — a per-job reallocation storm, a serialized queue —
    // collapses it by that much), and overhead_1w pins the pool's
    // per-job queue/clone/channel cost to ≤ 30 % of a verdict.
    let vps_floor = if cfg.quick { 25.0 } else { 50.0 };
    assert!(
        1e9 / service_1w_ns >= vps_floor,
        "1-worker service throughput below the {vps_floor} verdicts/s floor: {:.1}/s",
        1e9 / service_1w_ns
    );
    assert!(
        service.direct_ns / service_1w_ns >= 0.7,
        "verdict service overhead at 1 worker exceeds 30% of a verdict: {:.2}x",
        service.direct_ns / service_1w_ns
    );
    // Scaling needs at least two cores to express; mirroring the other
    // core-gated floors, single-core machines report without asserting.
    let scaling_2w = service_1w_ns / service.saturation[1].1;
    if service.available_workers >= 2 {
        assert!(
            scaling_2w > 1.3,
            "2-worker service scaling below the 1.3x floor: {scaling_2w:.2}x"
        );
    } else {
        println!(
            "service scaling floor (> 1.3x at 2 workers) not asserted: single core \
             (measured {scaling_2w:.2}x)"
        );
    }
}

/// Whether the runtime-dispatched AVX2+FMA kernels — the banked
/// Goertzel scan (`rfbist_dsp::goertzel`) and the grid-plan kernels
/// (`rfbist_sampling::gridplan`) share the dispatch predicate — can
/// engage in this process: the precondition for the scan and SIMD
/// grid-reconstruct speedup floors. False under `RFBIST_FORCE_SCALAR`
/// regardless of hardware.
fn scan_simd_available() -> bool {
    if rfbist_dsp::simd::force_scalar() {
        // RFBIST_FORCE_SCALAR pins every runtime dispatch to the
        // portable kernels, so the SIMD floors cannot be expressed
        // even on capable hardware.
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
