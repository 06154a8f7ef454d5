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
//!    `BistEngine::run` (~12288 uniform points at 4 GHz, a 9/400
//!    lattice of the sample period): the direct reference per point vs
//!    the planned grid (`PnbsGridPlan::reconstruct_grid`, phase-major
//!    on this rational grid, with the runtime-dispatched SIMD
//!    kernels). Asserted ≥ 12× (full) / ≥ 9× (quick) at ≤ 1e-9 NRMSE
//!    against the reference everywhere and ≥ 33× (full) / ≥ 24×
//!    (quick) where the AVX2/AVX-512+FMA kernels can dispatch (the
//!    mask_scan-style feature gate; the ratio is reported either way
//!    on scalar hardware or under `RFBIST_FORCE_SCALAR`).
//! 5. **mask_scan** — one spectral-mask verdict, FFT-Welch vs the
//!    banked Goertzel scan. The speedup floor is asserted only when
//!    the AVX2+FMA kernels can dispatch (on plain SSE2/NEON the bank
//!    loses to the FFT by design); agreement is asserted everywhere.
//! 6. **stream_bist** — the end-to-end verdict pipeline
//!    (reconstruction → scan), full-grid batch (the pre-streaming
//!    engine: materialize the grid, construct the scanner, scan) vs
//!    the streaming single pass (block feed → push-style scan with
//!    engine-held scratch), plus the early-exit case on a grossly
//!    failing unit. Verdict agreement is
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
//!    quick). Timed last, after the LMS, so it cannot move any other
//!    section's readings.

use rfbist::fixtures::reference_rf_output;
use rfbist_bench::{paper_cost, paper_stimulus, paper_tx, Frontend};
use rfbist_converter::bptiadc::BpTiadc;
use rfbist_core::bist::{welch_segmentation, BistConfig};
use rfbist_core::cost::DualRateCost;
use rfbist_core::lms::{estimate_skew_lms, LmsConfig};
use rfbist_core::mask::SpectralMask;
use rfbist_core::scan::{EarlyVerdict, MaskScanEngine, ScanFeed, StreamScratch};
use rfbist_dsp::psd::welch;
use rfbist_dsp::window::Window;
use rfbist_math::stats::nrmse;
use rfbist_rfchain::impairments::TxImpairments;
use rfbist_sampling::band::BandSpec;
use rfbist_sampling::gridplan::GridScratch;
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

struct Config {
    quick: bool,
    out: String,
    /// timing samples per kernel; the reported figure is their median
    reps: usize,
    probes: usize,
    candidates: usize,
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

    let mut samples: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..3 * cfg.reps {
        let start = Instant::now();
        for _ in 0..pairs {
            black_box(capture_pair_bits(&reference, &bist));
        }
        samples[0].push(start.elapsed().as_nanos() as f64 / pairs as f64);
        let start = Instant::now();
        for _ in 0..pairs {
            black_box(capture_pair_bits(&rf, &bist));
        }
        samples[1].push(start.elapsed().as_nanos() as f64 / pairs as f64);
    }
    let [reference_ns, ns] = samples.map(|mut v| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    });
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
    nrmse: f64,
    points: usize,
}

/// The analysis-grid workload: `BistEngine::run` step 4 reconstructs
/// the RF waveform on a dense uniform grid (~12288 points at 4 GHz)
/// before every mask verdict. The direct reference
/// (`reconstruct_at_reference`: four kernel cosines and two Kaiser
/// Bessel series per tap per point) vs the planned grid
/// (`reconstruct_grid`: the 4 GHz grid is a 9/400 lattice of the
/// sample period, so it runs phase-major — 400 weight rows per
/// super-block, one dot product per point, reusing its scratch across
/// repetitions exactly as the engine does across verdicts).
fn bench_grid_reconstruct(cfg: &Config) -> GridReconResult {
    const FS_GRID: f64 = 4e9;
    let band = BandSpec::centered(FC, B);
    let stim = paper_stimulus(96, 0xACE1);
    let cap = NonuniformCapture::from_signal(&stim, 1.0 / B, D, 80, 380);
    let rec = PnbsReconstructor::paper_default(band, D).expect("valid delay");
    let (lo, hi) = rec.coverage(&cap).expect("capture too short");
    let dt = 1.0 / FS_GRID;
    let points = if cfg.quick { 4096 } else { 12288 }.min(((hi - lo) / dt) as usize);

    let mut reference_wave = vec![0.0; points];
    let reference_ns = median_ns_per_op(cfg.reps, points, || {
        for (i, slot) in reference_wave.iter_mut().enumerate() {
            *slot = rec.reconstruct_at_reference(&cap, black_box(lo + i as f64 * dt));
        }
        black_box(&reference_wave);
    });

    let mut grid_scratch = GridScratch::new();
    let grid_ns = median_ns_per_op(cfg.reps, points, || {
        black_box(rec.reconstruct_grid(&cap, lo, dt, points, &mut grid_scratch));
    });
    let grid_wave = grid_scratch.values();

    GridReconResult {
        reference_ns,
        grid_ns,
        nrmse: nrmse(grid_wave, &reference_wave),
        points,
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
/// violating unit under the default guard: the feed stops at the
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
            let mut stream = scan.stream(&mut stream_scratch, None);
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
            let mut stream = scan.stream(&mut stream_scratch, Some(EarlyVerdict::paper_default()));
            let mut blocks = rec.reconstruct_blocks(&spur_cap, spur_lo, dt, points, &mut grid);
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
    "grid_vs_reference_nrmse": {grid_recon_nrmse:.3e}
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
