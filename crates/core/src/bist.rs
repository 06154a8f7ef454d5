//! The end-to-end BIST engine.
//!
//! Orchestrates the full strategy the paper proposes:
//!
//! 1. capture the PA output with the BP-TIADC at two rates `B`, `B1`,
//! 2. background-calibrate offset/gain mismatches,
//! 3. estimate the inter-channel skew with the LMS algorithm,
//! 4. reconstruct the RF waveform on a dense uniform grid,
//! 5. estimate its PSD and check spectral-mask compliance.
//!
//! Steps 4–5 are the "complete RF BIST strategy" the paper's conclusion
//! points to; the engine makes them concrete.

use crate::cost::DualRateCost;
use crate::error::BistError;
use crate::health::{CaptureHealth, HealthPolicy};
use crate::lms::{estimate_skew_lms, LmsConfig, LmsResult};
use crate::mask::SpectralMask;
use crate::report::BistReport;
use crate::scan::{EarlyVerdict, MaskScanEngine, ScanFeed, StreamScratch};
use crate::skew::SkewEstimate;
use crate::trace::{NoTrace, StageClock, VerdictStage, VerdictTrace};
use rfbist_converter::bptiadc::{BpTiadc, BpTiadcConfig};
use rfbist_converter::calibration::auto_calibrate;
use rfbist_dsp::window::Window;
use rfbist_sampling::dualrate::DualRateConfig;
use rfbist_sampling::gridplan::GridScratch;
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
use rfbist_signal::traits::ContinuousSignal;

/// How the engine places the cost function's probe times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProbeSchedule {
    /// The paper's `N` random draws over the coverage intersection —
    /// the schedule the originally published Section V fixtures were
    /// pinned against, kept selectable for reproducing them.
    Random,
    /// A uniform grid on a short rational lattice of the fast period,
    /// `p/q·T` with `q ≤ 16`, centred in the coverage intersection
    /// ([`DualRateCost::grid_probes`]) — the default. Statistically
    /// equivalent to the random draws for skew estimation (pinned by
    /// `grid_probe_schedule_matches_random_schedule`); the probes of
    /// each lattice residue share their probe-sum weights, so its cost
    /// builds in about a third of the random schedule's time and
    /// evaluates in about half. The Section V skew fixtures are pinned
    /// against this schedule.
    #[default]
    UniformGrid,
}

/// Acceptance gate on the per-run skew estimate, folded into
/// [`BistReport::passed`]: a diverged LMS (or one stranded at a huge
/// residual cost) reconstructs a distorted waveform, and a mask
/// verdict on that waveform is meaningless — it must not report PASS.
/// Runs on an externally calibrated skew
/// ([`BistConfig::calibrated_skew`]) skip the gate; the calibration
/// run itself carried it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SkewGate {
    /// Require the LMS iteration to have met its convergence
    /// criterion.
    pub require_convergence: bool,
    /// Maximum acceptable residual cost at the estimate, in the cost
    /// function's raw amplitude² units ([`DualRateCost`] is
    /// unnormalized). `None` accepts any residual.
    pub max_residual_cost: Option<f64>,
}

impl SkewGate {
    /// The default gate: LMS convergence required, no residual bound.
    pub fn paper_default() -> Self {
        SkewGate {
            require_convergence: true,
            max_residual_cost: None,
        }
    }
}

impl Default for SkewGate {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Noise-figure measurement configuration: the engine measures the
/// mean reconstructed density over an out-of-band offset window and
/// reports its excess over a reference floor as the noise figure —
/// the same low-cost PSD-reuse NF strategy of Barragan et al. (see
/// PAPERS.md), riding the Welch/Goertzel machinery the mask verdict
/// already runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseFigureConfig {
    /// Measurement band lower edge, as an absolute offset from the
    /// carrier in Hz (both sidebands are measured).
    pub offset_lo: f64,
    /// Measurement band upper edge (offset from the carrier, Hz). Must
    /// stay inside the reconstruction band (±B/2 around the carrier).
    pub offset_hi: f64,
    /// Reference (design) noise density in dB/Hz;
    /// `NF = measured density − reference`.
    pub reference_density_dbhz: f64,
    /// Verdict gate: maximum acceptable noise figure in dB, folded
    /// into [`BistReport::passed`] when set.
    pub max_nf_db: Option<f64>,
}

impl NoiseFigureConfig {
    /// A measurement band over `[offset_lo, offset_hi]` Hz from the
    /// carrier against the reference noise floor
    /// `reference_density_dbhz` (dB/Hz), with no verdict limit; a
    /// malformed band is [`BistError::InvalidConfig`].
    pub fn try_new(
        offset_lo: f64,
        offset_hi: f64,
        reference_density_dbhz: f64,
    ) -> Result<Self, BistError> {
        if !(offset_lo >= 0.0 && offset_hi > offset_lo) {
            return Err(BistError::InvalidConfig {
                reason: "noise band offsets must satisfy 0 <= lo < hi".into(),
            });
        }
        Ok(NoiseFigureConfig {
            offset_lo,
            offset_hi,
            reference_density_dbhz,
            max_nf_db: None,
        })
    }

    /// Builder-style: arm the verdict limit `max_nf_db` (dB).
    pub fn with_max_nf(mut self, max_nf_db: f64) -> Self {
        self.max_nf_db = Some(max_nf_db);
        self
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct BistConfig {
    /// Dual-rate sampling plan (carrier, `B`, `B1`, DCDE delay target).
    pub dual: DualRateConfig,
    /// Fast-channel front-end configuration.
    pub frontend_fast: BpTiadcConfig,
    /// Slow-channel front-end configuration.
    pub frontend_slow: BpTiadcConfig,
    /// First fast-capture sample index.
    pub fast_start: i64,
    /// Fast-capture length in pairs.
    pub fast_len: usize,
    /// First slow-capture sample index.
    pub slow_start: i64,
    /// Slow-capture length in pairs.
    pub slow_len: usize,
    /// Number of random probe times for the cost function.
    pub probe_count: usize,
    /// Seed for the probe-time draw.
    pub probe_seed: u64,
    /// LMS starting estimate in seconds.
    pub lms_initial: f64,
    /// Dense reconstruction grid rate for PSD estimation, Hz.
    pub grid_rate: f64,
    /// Number of grid samples for PSD estimation.
    pub grid_len: usize,
    /// How the cost function's probe times are placed.
    pub probe_schedule: ProbeSchedule,
    /// Early-verdict policy for the streamed mask scan: stop
    /// reconstructing as soon as a provisional violation exceeds its
    /// limit by the guard margin. `None` (the default) always measures
    /// the full capture.
    pub early_verdict: Option<EarlyVerdict>,
    /// Externally calibrated skew in seconds: when set, the engine
    /// skips the per-run cost/LMS estimation and reconstructs with
    /// this delay. Skew is a hardware property of the sampler, not of
    /// the stimulus — estimate it once on a wideband calibration burst
    /// ([`BistEngine::try_calibrate_skew`]) and reuse it across
    /// per-standard verdicts. This closes the narrowband trap: a
    /// GSM-like 270 ksym/s carrier leaves the dual-rate cost surface
    /// nearly flat and the LMS settles ~170 ps off, while a 10 Msym/s
    /// burst through the *same* front-end recovers it to sub-ps.
    pub calibrated_skew: Option<f64>,
    /// Acceptance gate on the per-run skew estimate, folded into the
    /// overall verdict.
    pub skew_gate: SkewGate,
    /// Optional noise-figure measurement and verdict limit.
    pub noise_figure: Option<NoiseFigureConfig>,
    /// Capture health thresholds: every raw capture is pre-scanned
    /// ([`CaptureHealth::scan`]) before calibration, and unusable
    /// captures (NaN, saturation, dead channels) are rejected with a
    /// typed error rather than scored.
    pub health: HealthPolicy,
}

impl BistConfig {
    /// The paper's Section V setup around a DCDE target of 180 ps, with
    /// the 3 ps-jitter 10-bit front-end and a 4 GHz analysis grid.
    pub fn paper_default() -> Self {
        let dual = DualRateConfig::paper_section_v();
        BistConfig {
            dual,
            frontend_fast: BpTiadcConfig::paper_section_v(dual.delay()),
            frontend_slow: BpTiadcConfig::paper_section_v(dual.delay())
                .with_sample_rate(dual.slow_rate())
                .with_seed(0x51DE),
            fast_start: 80,
            fast_len: 380,
            slow_start: 40,
            slow_len: 200,
            probe_count: 300,
            probe_seed: 0xBEEF,
            lms_initial: 100e-12,
            grid_rate: 4e9,
            grid_len: 12288,
            probe_schedule: ProbeSchedule::default(),
            early_verdict: None,
            calibrated_skew: None,
            skew_gate: SkewGate::paper_default(),
            noise_figure: None,
            health: HealthPolicy::paper_default(),
        }
    }

    /// Disables front-end noise (ideal clocks, 24-bit converters) —
    /// used to separate algorithmic from front-end error.
    pub fn with_ideal_frontend(mut self) -> Self {
        self.frontend_fast = BpTiadcConfig::ideal(self.dual.fast_rate(), self.dual.delay());
        self.frontend_slow = BpTiadcConfig::ideal(self.dual.slow_rate(), self.dual.delay());
        self
    }

    /// Builder-style: select the cost probe schedule.
    pub fn with_probe_schedule(mut self, schedule: ProbeSchedule) -> Self {
        self.probe_schedule = schedule;
        self
    }

    /// Builder-style: arm the streaming early-verdict policy.
    pub fn with_early_verdict(mut self, policy: EarlyVerdict) -> Self {
        self.early_verdict = Some(policy);
        self
    }

    /// Builder-style: reuse an externally calibrated skew (seconds),
    /// bypassing the per-run LMS estimation; a non-positive or
    /// non-finite delay is [`BistError::InvalidConfig`].
    pub fn try_with_calibrated_skew(mut self, delay: f64) -> Result<Self, BistError> {
        if !(delay.is_finite() && delay > 0.0) {
            return Err(BistError::InvalidConfig {
                reason: "calibrated skew must be a positive delay".into(),
            });
        }
        self.calibrated_skew = Some(delay);
        Ok(self)
    }

    /// Builder-style: set the skew acceptance gate.
    pub fn with_skew_gate(mut self, gate: SkewGate) -> Self {
        self.skew_gate = gate;
        self
    }

    /// Builder-style: arm the noise-figure measurement.
    pub fn with_noise_figure(mut self, nf: NoiseFigureConfig) -> Self {
        self.noise_figure = Some(nf);
        self
    }

    /// Builder-style: set the capture health thresholds.
    pub fn with_health_policy(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }
}

/// The Welch segmentation the engine applies to a `grid_len`-sample
/// reconstruction: segment length chosen for ≲ 1 MHz resolution
/// bandwidth at the default 4 GHz grid (so mask segments a few MHz
/// wide are resolved), 50 % overlap. Shared by the engine's scan, the
/// perf harness and the FFT-Welch test oracle, so every consumer
/// measures the same estimator.
pub fn welch_segmentation(grid_len: usize) -> (usize, usize) {
    let seg = (grid_len / 2).next_power_of_two().clamp(256, 8192);
    let seg = seg.min(grid_len);
    (seg, seg / 2)
}

/// Reusable engine buffers: grid-reconstruction scratch, streaming-scan
/// scratch and the prepared [`MaskScanEngine`] (cached against its
/// configuration), so sweep loops
/// ([`try_run_with`](BistEngine::try_run_with)) stop paying per-verdict
/// allocation and scanner construction. One fresh instance per
/// [`try_run`](BistEngine::try_run) preserves the allocating
/// convenience form.
#[derive(Clone, Debug, Default)]
pub struct BistScratch {
    grid: GridScratch,
    stream: StreamScratch,
    scan_cache: Option<ScanCacheEntry>,
}

impl BistScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A cached [`MaskScanEngine`] keyed by everything its construction
/// depends on.
#[derive(Clone, Debug)]
struct ScanCacheEntry {
    mask: SpectralMask,
    carrier_hz: f64,
    fs: f64,
    segment_len: usize,
    overlap: usize,
    noise_band: Option<(f64, f64)>,
    engine: MaskScanEngine,
}

/// Returns the cached scanner for this configuration, rebuilding it
/// only when the mask, scan geometry or noise band changed since the
/// last verdict.
#[allow(clippy::too_many_arguments)]
fn scan_engine_cached<'a>(
    cache: &'a mut Option<ScanCacheEntry>,
    mask: &SpectralMask,
    carrier_hz: f64,
    fs: f64,
    segment_len: usize,
    overlap: usize,
    noise_band: Option<(f64, f64)>,
) -> Result<&'a MaskScanEngine, BistError> {
    // the entry is taken out first, so a failed rebuild leaves the
    // cache empty rather than holding a stale hit; a stale entry is
    // freed before its replacement is built, so two scanners are never
    // alive at once
    let entry = match cache.take() {
        Some(e)
            if e.mask == *mask
                && e.carrier_hz == carrier_hz
                && e.fs == fs
                && e.segment_len == segment_len
                && e.overlap == overlap
                && e.noise_band == noise_band =>
        {
            e
        }
        stale => {
            drop(stale);
            ScanCacheEntry {
                mask: mask.clone(),
                carrier_hz,
                fs,
                segment_len,
                overlap,
                noise_band,
                engine: MaskScanEngine::try_build(
                    mask,
                    carrier_hz,
                    fs,
                    segment_len,
                    overlap,
                    Window::BlackmanHarris,
                    noise_band,
                )?,
            }
        }
    };
    Ok(&cache.insert(entry).engine)
}

/// The BIST engine.
#[derive(Clone, Debug)]
pub struct BistEngine {
    config: BistConfig,
}

impl BistEngine {
    /// Creates an engine from a configuration.
    pub fn new(config: BistConfig) -> Self {
        BistEngine { config }
    }

    /// The configuration.
    pub fn config(&self) -> &BistConfig {
        &self.config
    }

    /// Runs the full BIST sequence against the device-under-test output
    /// `dut`, checking `mask`, allocating fresh scratch. When
    /// `reference` is given, the report also carries the relative RMS
    /// error between the reconstruction and that reference (Δε in the
    /// paper's Table I). Sweep loops should prefer
    /// [`try_run_with`](Self::try_run_with).
    pub fn try_run<S: ContinuousSignal, R: ContinuousSignal>(
        &self,
        dut: &S,
        mask: &SpectralMask,
        reference: Option<&R>,
    ) -> Result<BistReport, BistError> {
        self.try_run_with(dut, mask, reference, &mut BistScratch::new())
    }

    /// [`try_run`](Self::try_run) with caller-owned [`BistScratch`], so
    /// repeated verdicts (fault sweeps, multi-standard loops, benches)
    /// reuse the grid and scan buffers and the prepared scanner
    /// instead of reallocating them per call. Parallelism belongs at
    /// the job level: run many verdicts on the
    /// [`VerdictService`](crate::service::VerdictService) pool.
    ///
    /// Every failure is a typed [`BistError`]:
    ///
    /// - raw captures are health-scanned **before** calibration
    ///   ([`CaptureHealth::scan`]; NaN would poison the calibration
    ///   means), rejecting NaN/saturated/dead captures and annotating
    ///   marginal clipping on the report;
    /// - geometry problems (capture too short for the tap window or
    ///   the analysis grid, scan grid without mask coverage) come back
    ///   as values.
    ///
    /// The analysis grid is streamed: reconstruction blocks feed the
    /// banked-Goertzel mask scan as they are produced, the full grid
    /// never materializes, and an armed [`BistConfig::early_verdict`]
    /// stops reconstruction as soon as the verdict is decided (the
    /// report's `early_exit` flag records this; Δε then covers only the
    /// reconstructed prefix).
    pub fn try_run_with<S: ContinuousSignal, R: ContinuousSignal>(
        &self,
        dut: &S,
        mask: &SpectralMask,
        reference: Option<&R>,
        scratch: &mut BistScratch,
    ) -> Result<BistReport, BistError> {
        self.try_run_traced(dut, mask, reference, scratch, &mut NoTrace)
    }

    /// [`try_run_with`](Self::try_run_with), reporting each stage's
    /// wall time and the LMS result to `trace` (see
    /// [`VerdictTrace`]). The report is the untraced one's.
    pub fn try_run_traced<S: ContinuousSignal, R: ContinuousSignal>(
        &self,
        dut: &S,
        mask: &SpectralMask,
        reference: Option<&R>,
        scratch: &mut BistScratch,
        trace: &mut dyn VerdictTrace,
    ) -> Result<BistReport, BistError> {
        let cfg = &self.config;
        let mut clock = StageClock::new(trace);

        // 1 + 2. fast-rate capture, pre-calibration health guard, and
        //        offset/gain background calibration (the slow channel
        //        is only needed when the skew must be estimated on
        //        this run)
        let (fast_cap, capture_health, true_delay) = clock.time(VerdictStage::Capture, || {
            self.calibrated_capture(dut, &cfg.frontend_fast, cfg.fast_start, cfg.fast_len)
        })?;

        // 3. skew: reuse the calibrated value when one is supplied
        //    (skew is a hardware property — the wideband calibration
        //    burst already measured it), otherwise estimate per run
        //    with the LMS on the dual-rate cost
        let (skew, skew_ok) = match cfg.calibrated_skew {
            Some(delay) => (SkewEstimate::from_delay(delay), true),
            None => {
                let lms = self.estimate_skew(dut, fast_cap.clone(), &mut clock)?;
                let ok = (!cfg.skew_gate.require_convergence || lms.converged)
                    && cfg
                        .skew_gate
                        .max_residual_cost
                        .is_none_or(|max| lms.cost <= max);
                (lms.to_estimate(), ok)
            }
        };

        // 4. dense reconstruction from the fast capture
        let plan_start = clock.start();
        let rec = PnbsReconstructor::new_unchecked(
            cfg.dual.fast_band(),
            skew.delay,
            61,
            Window::Kaiser(8.0),
        );
        let Some((lo, hi)) = rec.coverage(&fast_cap) else {
            return Err(BistError::CaptureTooShort {
                reason: "fast capture too short for reconstruction".to_string(),
            });
        };
        let dt = 1.0 / cfg.grid_rate;
        let usable = ((hi - lo) / dt) as usize;
        if usable == 0 {
            return Err(BistError::CaptureTooShort {
                reason: format!(
                    "capture too short for the analysis grid: reconstruction coverage \
                     [{lo:.3e}, {hi:.3e}] s spans less than one sample at {:.3e} Hz",
                    cfg.grid_rate
                ),
            });
        }
        let n_grid = cfg.grid_len.min(usable);
        clock.stop(VerdictStage::Reconstruction, plan_start);

        // 4 + 5. reconstruction and mask verdict in one streamed pass:
        // the grid-plan block feed drives the banked-Goertzel scan
        // (the [`welch_segmentation`] Welch bins the mask reads, under
        // a Blackman–Harris window) segment by segment, with no
        // full-grid buffer, and the early-verdict policy can stop
        // reconstruction as soon as the verdict is decided. The feed
        // runs the batch grid's producer, and no value depends on where
        // a chunk ends, so the verdict is bit-identical to scanning the
        // batch reconstruction.
        let (seg, overlap) = welch_segmentation(n_grid);
        let carrier = cfg.dual.fast_band().center();
        let noise_band = cfg.noise_figure.map(|nf| (nf.offset_lo, nf.offset_hi));
        let BistScratch {
            grid,
            stream,
            scan_cache,
        } = scratch;
        let scan_start = clock.start();
        let engine = scan_engine_cached(
            scan_cache,
            mask,
            carrier,
            cfg.grid_rate,
            seg,
            overlap,
            noise_band,
        )?;
        let mut scan = engine
            .stream(stream, cfg.early_verdict)
            .with_capture_len(n_grid);
        clock.stop(VerdictStage::Scan, scan_start);
        // Δε accumulators, summed in grid order so a full capture
        // reproduces `nrmse` over the batch wave bit-for-bit.
        let (mut err_num, mut err_den) = (0.0f64, 0.0f64);
        let mut produced = 0usize;
        let mut feed_start = clock.start();
        // An armed early verdict takes the early-stop feed, whose
        // shorter chunks let a stop skip the rest of the grid; a full
        // scan takes the default feed, which builds fewer rows.
        let plan = rec.grid_plan();
        let blocks = if cfg.early_verdict.is_some() {
            plan.try_reconstruct_stoppable_blocks(&fast_cap, lo, dt, n_grid, grid)
        } else {
            plan.try_reconstruct_blocks(&fast_cap, lo, dt, n_grid, grid)
        };
        let Some(mut blocks) = blocks else {
            return Err(BistError::CaptureTooShort {
                reason: "fast capture does not cover the analysis grid".to_string(),
            });
        };
        loop {
            let Some(block) = blocks.next_block() else {
                clock.stop(VerdictStage::Reconstruction, feed_start);
                break;
            };
            if let Some(r) = reference {
                for (i, &g) in block.iter().enumerate() {
                    let rv = r.eval(lo + (produced + i) as f64 * dt);
                    err_num += (g - rv) * (g - rv);
                    err_den += rv * rv;
                }
            }
            produced += block.len();
            clock.stop(VerdictStage::Reconstruction, feed_start);
            let feed = clock.time(VerdictStage::Scan, || scan.push(block));
            feed_start = clock.start();
            if feed != ScanFeed::Continue {
                break;
            }
        }
        let fold_start = clock.start();
        let early_exit = scan.early_stopped();
        let noise_density_dbhz = scan.noise_density_dbhz();
        let mask_report = scan.try_finish()?;
        let reconstruction_error = reference.map(|_| {
            if err_den == 0.0 {
                if err_num == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (err_num / err_den).sqrt()
            }
        });

        let (noise_figure_db, nf_ok) = match (cfg.noise_figure, noise_density_dbhz) {
            (Some(nf), Some(density)) => {
                let figure = density - nf.reference_density_dbhz;
                (Some(figure), nf.max_nf_db.is_none_or(|max| figure <= max))
            }
            _ => (None, true),
        };

        let report = BistReport {
            skew,
            true_delay,
            mask: mask_report,
            reconstruction_error,
            early_exit,
            skew_ok,
            noise_figure_db,
            nf_ok,
            capture_health: Some(capture_health),
        };
        clock.stop(VerdictStage::Fold, fold_start);
        Ok(report)
    }

    /// Runs only the front half of the BIST — capture at both rates,
    /// background calibration, dual-rate cost, LMS — against a
    /// calibration `stimulus`, returning the skew estimate with its
    /// residual/iteration metadata.
    ///
    /// Skew is a property of the sampler hardware (DCDE setting, clock
    /// routing), not of the stimulus, but its *identifiability* is: a
    /// narrowband carrier leaves the dual-rate cost surface nearly
    /// flat and the LMS can settle far from the true delay (~170 ps
    /// off for a GSM-like 270 ksym/s stimulus) while a wideband burst
    /// through the same front-end pins it to sub-ps. Calibrate once on
    /// a wideband burst at the deployment carrier, then run
    /// per-standard verdicts with
    /// [`BistConfig::try_with_calibrated_skew`].
    ///
    /// Both raw captures are health-scanned before calibration, and
    /// the probe window is verified before the cost is built; every
    /// failure is a typed [`BistError`].
    pub fn try_calibrate_skew<S: ContinuousSignal>(
        &self,
        stimulus: &S,
    ) -> Result<SkewEstimate, BistError> {
        self.try_calibrate_skew_traced(stimulus, &mut NoTrace)
    }

    /// [`try_calibrate_skew`](Self::try_calibrate_skew), reporting each
    /// stage's wall time (captures, cost build, LMS) and the LMS result
    /// to `trace`.
    pub fn try_calibrate_skew_traced<S: ContinuousSignal>(
        &self,
        stimulus: &S,
        trace: &mut dyn VerdictTrace,
    ) -> Result<SkewEstimate, BistError> {
        let cfg = &self.config;
        let mut clock = StageClock::new(trace);
        let (fast_cap, _, _) = clock.time(VerdictStage::Capture, || {
            self.calibrated_capture(stimulus, &cfg.frontend_fast, cfg.fast_start, cfg.fast_len)
        })?;
        Ok(self
            .estimate_skew(stimulus, fast_cap, &mut clock)?
            .to_estimate())
    }

    /// One channel of the front half: captures `len` pairs from sample
    /// `start` through `frontend` and health-scans the raw capture
    /// **before** calibration (NaN would poison the calibration means).
    /// Returns the offset/gain-calibrated capture, its health summary
    /// and the sampler's physical delay.
    fn calibrated_capture<S: ContinuousSignal>(
        &self,
        signal: &S,
        frontend: &BpTiadcConfig,
        start: i64,
        len: usize,
    ) -> Result<(NonuniformCapture, CaptureHealth, f64), BistError> {
        let mut adc = BpTiadc::new(*frontend);
        let raw = adc.capture(signal, start, len);
        let health = CaptureHealth::scan(&raw, frontend, &self.config.health)?;
        Ok((auto_calibrate(&raw).0, health, adc.true_delay()))
    }

    /// The rest of the front half, shared by the per-run LMS and
    /// [`try_calibrate_skew`](Self::try_calibrate_skew): the slow-rate
    /// capture, the dual-rate cost on the configured probe schedule
    /// and the LMS descent.
    fn estimate_skew<S: ContinuousSignal>(
        &self,
        signal: &S,
        fast_cap: NonuniformCapture,
        clock: &mut StageClock<'_>,
    ) -> Result<LmsResult, BistError> {
        let cfg = &self.config;
        let (slow_cap, _, _) = clock.time(VerdictStage::Capture, || {
            self.calibrated_capture(signal, &cfg.frontend_slow, cfg.slow_start, cfg.slow_len)
        })?;
        // the typed constructors, so an undersized capture or a cost
        // the probe sums cannot build is an error value, not a panic
        let cost = clock.time(VerdictStage::CostBuild, || match cfg.probe_schedule {
            ProbeSchedule::Random => DualRateCost::try_paper_probes(
                fast_cap,
                slow_cap,
                cfg.dual,
                cfg.probe_count,
                cfg.probe_seed,
            ),
            ProbeSchedule::UniformGrid => {
                DualRateCost::try_grid_probes(fast_cap, slow_cap, cfg.dual, cfg.probe_count)
            }
        })?;
        let lms_config = LmsConfig::paper_default(cfg.lms_initial);
        let lms = clock.time(VerdictStage::Lms, || estimate_skew_lms(&cost, lms_config));
        clock.lms(&lms);
        Ok(lms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, Deployment};
    use crate::mask::MaskLibrary;
    use rfbist_rfchain::faults::{Fault, FaultKind};
    use rfbist_rfchain::impairments::TxImpairments;
    use rfbist_rfchain::txchain::{HomodyneTx, ImpairedEnvelope};
    use rfbist_signal::bandpass::BandpassSignal;
    use rfbist_signal::baseband::ShapedBaseband;
    use rfbist_signal::noise::BandlimitedNoise;
    use rfbist_signal::traits::Sum;

    fn paper_tx(imp: TxImpairments) -> HomodyneTx<ShapedBaseband> {
        let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 160, 0xACE1);
        HomodyneTx::builder(bb, 1e9).impairments(imp).build()
    }

    #[test]
    fn healthy_transmitter_passes_and_skew_is_found() {
        let tx = paper_tx(TxImpairments::typical());
        let engine = BistEngine::new(BistConfig::paper_default());
        let ideal = tx.ideal_rf_output();
        let report = engine
            .try_run(&tx.rf_output(), &SpectralMask::qpsk_10msym(), Some(&ideal))
            .unwrap();
        assert!(
            report.mask.passed,
            "worst margin {}",
            report.mask.worst_margin_db
        );
        // The paper front-end wanders the skew itself (3 ps rms DCDE
        // jitter) and quantizes to 10 bits, so the estimate's noise
        // floor is a couple of ps; the ideal-front-end test below pins
        // the algorithmic accuracy to sub-0.3 ps.
        assert!(
            (report.skew.delay - report.true_delay).abs() < 2.5e-12,
            "skew {} vs true {}",
            report.skew.delay * 1e12,
            report.true_delay * 1e12
        );
        let err = report.reconstruction_error.unwrap();
        assert!(err < 0.05, "reconstruction error {err}");
    }

    #[test]
    fn gross_compression_fault_fails_the_mask() {
        let healthy = TxImpairments::typical();
        let faulty =
            Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.05 }).inject(healthy);
        let tx = paper_tx(faulty);
        let engine = BistEngine::new(BistConfig::paper_default());
        let report = engine
            .try_run(
                &tx.rf_output(),
                &SpectralMask::qpsk_10msym(),
                None::<&BandpassSignal<ShapedBaseband>>,
            )
            .unwrap();
        assert!(
            !report.mask.passed,
            "expected regrowth violation, margin {}",
            report.mask.worst_margin_db
        );
    }

    #[test]
    fn report_margins_degrade_with_fault_severity() {
        let engine = BistEngine::new(BistConfig::paper_default());
        let margin_for = |vf: f64| {
            let imp = Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: vf })
                .inject(TxImpairments::typical());
            let tx = paper_tx(imp);
            engine
                .try_run(
                    &tx.rf_output(),
                    &SpectralMask::qpsk_10msym(),
                    None::<&BandpassSignal<ShapedBaseband>>,
                )
                .unwrap()
                .mask
                .worst_margin_db
        };
        let mild = margin_for(0.5);
        let severe = margin_for(0.1);
        assert!(severe < mild, "severe {severe} !< mild {mild}");
    }

    #[test]
    fn ideal_frontend_recovers_skew_sub_picosecond() {
        let tx = paper_tx(TxImpairments::typical());
        let engine = BistEngine::new(BistConfig::paper_default().with_ideal_frontend());
        let report = engine
            .try_run(
                &tx.rf_output(),
                &SpectralMask::qpsk_10msym(),
                None::<&BandpassSignal<ShapedBaseband>>,
            )
            .unwrap();
        assert!(
            (report.skew.delay - report.true_delay).abs() < 0.3e-12,
            "skew {} vs true {}",
            report.skew.delay * 1e12,
            report.true_delay * 1e12
        );
    }

    #[test]
    fn half_period_search_bound_runs_through_the_typed_path() {
        // fc = 60 MHz on the 90/45 MHz rate pair: k⁺ = 2, so the search
        // bound m = 1/(2B) is half the fast capture's sample period
        let dep = crate::campaign::Deployment {
            standard: "vhf-60m".to_string(),
            carrier_hz: 60e6,
            grid_rate: 300e6,
            grid_len: 8192,
            fast_len: 2600,
            slow_len: 1400,
        };
        let cfg = dep.try_bist_config().expect("eq. 9 holds at 60 MHz");
        assert!((cfg.dual.m_bound() * cfg.dual.fast_rate() - 0.5).abs() < 1e-12);
        let bb = dep.payload(cfg.fast_start, 10e6, 0.5, 0xACE1);
        let tx = HomodyneTx::builder(bb, dep.carrier_hz)
            .impairments(TxImpairments::typical())
            .build();
        let report = BistEngine::new(cfg)
            .try_run(
                &tx.rf_output(),
                &SpectralMask::gsm_like(),
                None::<&BandpassSignal<ShapedBaseband>>,
            )
            .expect("a typed verdict");
        assert!(
            (report.skew.delay - report.true_delay).abs() < 5e-12,
            "skew {} vs true {} ps",
            report.skew.delay * 1e12,
            report.true_delay * 1e12
        );
    }

    #[test]
    fn grid_probe_schedule_matches_random_schedule() {
        // The uniform-grid probe schedule routes every LMS cost
        // evaluation through the grid-aware reconstruction plan; the
        // verdict and the skew estimate must stay as accurate as the
        // paper's random draws.
        let tx = paper_tx(TxImpairments::typical());
        let engine = BistEngine::new(
            BistConfig::paper_default().with_probe_schedule(ProbeSchedule::UniformGrid),
        );
        assert_eq!(
            engine.config().probe_schedule,
            ProbeSchedule::UniformGrid,
            "builder must select the schedule"
        );
        let ideal = tx.ideal_rf_output();
        let report = engine
            .try_run(&tx.rf_output(), &SpectralMask::qpsk_10msym(), Some(&ideal))
            .unwrap();
        assert!(
            report.mask.passed,
            "worst margin {}",
            report.mask.worst_margin_db
        );
        assert!(
            (report.skew.delay - report.true_delay).abs() < 2.5e-12,
            "skew {} vs true {}",
            report.skew.delay * 1e12,
            report.true_delay * 1e12
        );
        assert!(report.reconstruction_error.unwrap() < 0.05);
    }

    #[test]
    fn too_coarse_grid_fails_early_with_clear_error() {
        // a grid sample longer than the whole reconstruction coverage
        // used to surface as a panic deep inside the Welch estimator;
        // the engine must reject it at the reconstruction step
        let tx = paper_tx(TxImpairments::typical());
        let mut cfg = BistConfig::paper_default();
        cfg.grid_rate = 1e5; // 10 µs per grid sample vs ~3.5 µs coverage
        let engine = BistEngine::new(cfg);
        let err = engine
            .try_run(
                &tx.rf_output(),
                &SpectralMask::qpsk_10msym(),
                None::<&BandpassSignal<ShapedBaseband>>,
            )
            .unwrap_err();
        assert!(matches!(err, BistError::CaptureTooShort { .. }), "{err:?}");
        // the fast capture's 61-tap coverage runs from pair 80 + 30 to
        // pair 80 + 380 − 1 − 30 of the 90 MHz sampler
        let (lo, hi) = (110.0 / 90e6, 429.0 / 90e6);
        assert_eq!(
            err.to_string(),
            format!(
                "capture too short for the analysis grid: reconstruction coverage \
                 [{lo:.3e}, {hi:.3e}] s spans less than one sample at 1.000e5 Hz"
            )
        );
    }

    #[test]
    fn run_with_scratch_reuse_is_exact() {
        // a sweep loop sharing one BistScratch (grid buffers, stream
        // states, cached scanner) must reproduce fresh-scratch runs
        // bit for bit, healthy and faulty alike
        let engine = BistEngine::new(BistConfig::paper_default());
        let healthy = paper_tx(TxImpairments::typical());
        let faulty = paper_tx(
            Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.05 })
                .inject(TxImpairments::typical()),
        );
        let mut scratch = BistScratch::new();
        for tx in [&healthy, &faulty, &healthy] {
            let reused = engine
                .try_run_with(
                    &tx.rf_output(),
                    &SpectralMask::qpsk_10msym(),
                    Some(&tx.ideal_rf_output()),
                    &mut scratch,
                )
                .unwrap();
            let fresh = engine
                .try_run(
                    &tx.rf_output(),
                    &SpectralMask::qpsk_10msym(),
                    Some(&tx.ideal_rf_output()),
                )
                .unwrap();
            assert_eq!(reused.mask, fresh.mask);
            assert_eq!(reused.reconstruction_error, fresh.reconstruction_error);
            assert_eq!(reused.skew.delay, fresh.skew.delay);
        }
    }

    #[test]
    fn early_verdict_skips_nothing_on_healthy_units() {
        // An armed early verdict that does not fire must equal the
        // unarmed verdict, whole report for whole report. The armed run
        // takes the early-stop feed and the unarmed one the default
        // feed, which chunk every grid longer than SUPER_BLOCK_LEN
        // differently. Section V with the per-run LMS first, then every
        // builtin deployment on its calibrated skew.
        let tx = paper_tx(TxImpairments::typical());
        let armed = BistEngine::new(
            BistConfig::paper_default().with_early_verdict(EarlyVerdict::paper_default()),
        );
        let unarmed = BistEngine::new(BistConfig::paper_default());
        let a = armed
            .try_run(
                &tx.rf_output(),
                &SpectralMask::qpsk_10msym(),
                None::<&BandpassSignal<ShapedBaseband>>,
            )
            .unwrap();
        let b = unarmed
            .try_run(
                &tx.rf_output(),
                &SpectralMask::qpsk_10msym(),
                None::<&BandpassSignal<ShapedBaseband>>,
            )
            .unwrap();
        assert!(!a.early_exit, "policy must not fire on a passing unit");
        assert_eq!(a, b, "armed run must match the full verdict");

        let campaign = CampaignConfig::paper_default();
        let library = MaskLibrary::builtin();
        for dep in Deployment::builtin_five() {
            let standard = library.get(&dep.standard).expect("builtin standard");
            let cfg = dep
                .try_calibrate(dep.try_bist_config().unwrap(), campaign.base_seed)
                .expect("the calibration burst converges");
            let bb = dep.payload(
                cfg.fast_start,
                standard.symbol_rate,
                standard.rolloff,
                campaign.trial_seed(0),
            );
            let tx = HomodyneTx::builder(bb, dep.carrier_hz)
                .impairments(TxImpairments::typical())
                .build();
            let (dut, ideal) = (tx.rf_output(), tx.ideal_rf_output());
            let armed = BistEngine::new(
                cfg.clone()
                    .with_early_verdict(EarlyVerdict::paper_default()),
            );
            let a = armed.try_run(&dut, &standard.mask, Some(&ideal)).unwrap();
            let b = BistEngine::new(cfg)
                .try_run(&dut, &standard.mask, Some(&ideal))
                .unwrap();
            assert!(a.passed(), "{}: healthy unit fails\n{a}", dep.standard);
            assert!(!a.early_exit, "{}: policy fired", dep.standard);
            assert_eq!(a, b, "{}: armed run differs", dep.standard);
        }
    }

    #[test]
    fn early_verdict_stops_gross_failures_mid_capture() {
        let faulty = Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.05 })
            .inject(TxImpairments::typical());
        let tx = paper_tx(faulty);
        let engine = BistEngine::new(
            BistConfig::paper_default().with_early_verdict(EarlyVerdict::paper_default()),
        );
        let report = engine
            .try_run(
                &tx.rf_output(),
                &SpectralMask::qpsk_10msym(),
                None::<&BandpassSignal<ShapedBaseband>>,
            )
            .unwrap();
        assert!(report.early_exit, "gross regrowth must decide early");
        assert!(!report.mask.passed);
        assert!(report.mask.worst_margin_db < -EarlyVerdict::paper_default().guard_db);
    }

    #[test]
    fn welch_segmentation_tracks_grid_length() {
        assert_eq!(welch_segmentation(12288), (8192, 4096));
        assert_eq!(welch_segmentation(100_000), (8192, 4096));
        assert_eq!(welch_segmentation(1000), (512, 256));
        // short grids: the segment never exceeds the signal
        assert_eq!(welch_segmentation(100), (100, 50));
    }

    #[test]
    fn ideal_frontend_improves_reconstruction_error() {
        let tx = paper_tx(TxImpairments::ideal());
        let ideal_ref = tx.ideal_rf_output();
        let noisy = BistEngine::new(BistConfig::paper_default());
        let clean = BistEngine::new(BistConfig::paper_default().with_ideal_frontend());
        let r_noisy = noisy
            .try_run(
                &tx.rf_output(),
                &SpectralMask::qpsk_10msym(),
                Some(&ideal_ref),
            )
            .unwrap();
        let r_clean = clean
            .try_run(
                &tx.rf_output(),
                &SpectralMask::qpsk_10msym(),
                Some(&ideal_ref),
            )
            .unwrap();
        assert!(r_clean.reconstruction_error.unwrap() < r_noisy.reconstruction_error.unwrap());
    }

    /// Healthy paper transmitter plus injected band-limited noise of
    /// known one-sided density, and that density in dB/Hz. The chain
    /// is impairment-free so the probe band holds only the injected
    /// floor — typical-impairment regrowth shoulders would add a
    /// couple of dB on top of it and mask the density physics under
    /// test.
    fn noisy_paper_tx(
        rms: f64,
    ) -> (
        Sum<BandpassSignal<ImpairedEnvelope<ShapedBaseband>>, BandlimitedNoise>,
        f64,
    ) {
        let tx = paper_tx(TxImpairments::ideal());
        // span the whole ±44 MHz reconstruction band around the
        // carrier so the density is flat across the NF probe offsets
        let (f_lo, f_hi) = (1e9 - 44e6, 1e9 + 44e6);
        let noise = BandlimitedNoise::new(f_lo, f_hi, 600, rms, 0xF107);
        let density_dbhz = 10.0 * (rms * rms / (f_hi - f_lo)).log10();
        (Sum::new(tx.rf_output(), noise), density_dbhz)
    }

    #[test]
    fn noise_figure_tracks_injected_noise_density() {
        // with the reference floor set at the injected density the
        // measured figure must come out near 0 dB — the densities the
        // two PSD paths report agree with rms²/BW physics. The
        // front-end must be ideal here: the paper front-end's 3 ps
        // DCDE jitter smears the carrier into a real ≈ −117 dB/Hz
        // floor that sits right on top of the injected one.
        let (dut, density_dbhz) = noisy_paper_tx(0.01);
        let nf_cfg = NoiseFigureConfig::try_new(25e6, 40e6, density_dbhz).unwrap();
        let engine = BistEngine::new(
            BistConfig::paper_default()
                .with_ideal_frontend()
                .with_noise_figure(nf_cfg),
        );
        let report = engine
            .try_run(
                &dut,
                &SpectralMask::qpsk_10msym(),
                None::<&BandpassSignal<ShapedBaseband>>,
            )
            .unwrap();
        let nf = report.noise_figure_db.expect("NF was configured");
        assert!(nf.abs() < 1.5, "noise figure off by {nf} dB");
        assert!(report.nf_ok, "no limit configured, gate must stay open");
        assert!(report.mask.passed, "injected floor must not trip the mask");
    }

    #[test]
    fn noise_figure_limit_fails_the_verdict() {
        let (dut, density_dbhz) = noisy_paper_tx(0.01);
        // reference 10 dB below the injected density → NF ≈ 10 dB,
        // over a 5 dB limit
        let nf_cfg = NoiseFigureConfig::try_new(25e6, 40e6, density_dbhz - 10.0)
            .unwrap()
            .with_max_nf(5.0);
        let engine = BistEngine::new(BistConfig::paper_default().with_noise_figure(nf_cfg));
        let report = engine
            .try_run(
                &dut,
                &SpectralMask::qpsk_10msym(),
                None::<&BandpassSignal<ShapedBaseband>>,
            )
            .unwrap();
        assert!(report.mask.passed, "mask itself is still clean");
        assert!(
            !report.nf_ok,
            "NF {:?} must exceed the 5 dB limit",
            report.noise_figure_db
        );
        assert!(!report.passed(), "NF gate must fail the overall verdict");
    }

    #[test]
    fn skew_gate_residual_limit_fails_the_verdict() {
        // an impossible residual requirement: the mask still passes but
        // the skew acceptance gate pulls the overall verdict down
        let tx = paper_tx(TxImpairments::typical());
        let gate = SkewGate {
            require_convergence: true,
            max_residual_cost: Some(1e-30),
        };
        let engine = BistEngine::new(BistConfig::paper_default().with_skew_gate(gate));
        let report = engine
            .try_run(
                &tx.rf_output(),
                &SpectralMask::qpsk_10msym(),
                None::<&BandpassSignal<ShapedBaseband>>,
            )
            .unwrap();
        assert!(report.mask.passed);
        assert!(!report.skew_ok);
        assert!(!report.passed());
    }

    #[test]
    fn calibrated_skew_is_reused_and_stays_accurate() {
        let tx = paper_tx(TxImpairments::typical());
        let base = BistConfig::paper_default();
        let est = BistEngine::new(base.clone())
            .try_calibrate_skew(&tx.rf_output())
            .unwrap();
        let engine = BistEngine::new(base.try_with_calibrated_skew(est.delay).unwrap());
        let report = engine
            .try_run(
                &tx.rf_output(),
                &SpectralMask::qpsk_10msym(),
                Some(&tx.ideal_rf_output()),
            )
            .unwrap();
        assert!(report.passed(), "calibrated healthy run must pass");
        assert!(report.skew_ok, "calibrated skew carries the gate");
        assert!(
            report.skew_abs_error() < 2.5e-12,
            "calibrated skew error {} ps",
            report.skew_abs_error() * 1e12
        );
    }

    #[test]
    fn traced_verdicts_report_every_stage_and_the_untraced_result() {
        use crate::trace::StageLedger;
        use std::time::Duration;
        let tx = paper_tx(TxImpairments::typical());
        let dut = tx.rf_output();
        let mask = SpectralMask::qpsk_10msym();
        let base = BistConfig::paper_default();
        let engine = BistEngine::new(base.clone());
        let mut scratch = BistScratch::new();
        let none: Option<&BandpassSignal<ShapedBaseband>> = None;
        let untraced = engine
            .try_run_with(&dut, &mask, none, &mut scratch)
            .unwrap();
        let mut ledger = StageLedger::new();
        let traced = engine
            .try_run_traced(&dut, &mask, none, &mut scratch, &mut ledger)
            .unwrap();
        assert_eq!(traced, untraced);
        for stage in VerdictStage::ALL {
            assert!(ledger.total(stage) > Duration::ZERO, "{}", stage.name());
        }
        let lms = ledger.lms().expect("the LMS result is reported");
        assert_eq!(lms.estimate, untraced.skew.delay);
        assert_eq!(lms.trace.len(), lms.iterations + 1);
        assert!(lms.evaluations > lms.iterations);

        // a calibrated verdict runs no cost and no LMS
        let calibration = engine.try_calibrate_skew(&dut).unwrap();
        let mut cal_ledger = StageLedger::new();
        assert_eq!(
            engine
                .try_calibrate_skew_traced(&dut, &mut cal_ledger)
                .unwrap(),
            calibration
        );
        assert!(cal_ledger.total(VerdictStage::CostBuild) > Duration::ZERO);
        assert_eq!(
            cal_ledger.total(VerdictStage::Reconstruction),
            Duration::ZERO
        );
        let calibrated = BistEngine::new(base.try_with_calibrated_skew(calibration.delay).unwrap());
        let mut ledger = StageLedger::new();
        let report = calibrated
            .try_run_traced(&dut, &mask, none, &mut scratch, &mut ledger)
            .unwrap();
        assert_eq!(
            report,
            calibrated
                .try_run_with(&dut, &mask, none, &mut scratch)
                .unwrap()
        );
        assert_eq!(ledger.total(VerdictStage::CostBuild), Duration::ZERO);
        assert_eq!(ledger.total(VerdictStage::Lms), Duration::ZERO);
        assert!(ledger.lms().is_none());
        assert!(ledger.total(VerdictStage::Reconstruction) > Duration::ZERO);
    }
}
