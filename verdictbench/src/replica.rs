//! The traced replica of `BistEngine::try_run_with` and
//! `try_calibrate_skew`: the same sequence of public calls the engine
//! makes on its default path (banked Goertzel scan, in-thread block
//! feed), with a timer around each call. Its reports are compared with
//! the engine's bit for bit, so a replica that drifts from the engine
//! fails the run instead of mis-attributing time.

use std::time::Instant;

use rfbist_converter::bptiadc::BpTiadc;
use rfbist_converter::calibration::auto_calibrate;
use rfbist_core::bist::{welch_segmentation, BistConfig, ProbeSchedule};
use rfbist_core::report::BistReport;
use rfbist_core::scan::ScanFeed;
use rfbist_core::skew::SkewEstimate;
use rfbist_core::{
    estimate_skew_lms, BistError, CaptureHealth, DualRateCost, LmsConfig, MaskReport,
    MaskScanEngine, SpectralMask, StreamScratch,
};
use rfbist_dsp::window::Window;
use rfbist_sampling::gridplan::GridScratch;
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
use rfbist_signal::traits::ContinuousSignal;

use crate::layers::{since, timed, Layers};

/// Everything the engine's scan cache is keyed by.
struct ScanKey {
    mask: SpectralMask,
    carrier_hz: f64,
    fs: f64,
    segment_len: usize,
    overlap: usize,
    noise_band: Option<(f64, f64)>,
}

/// Replica-owned scratch, mirroring `BistScratch` (whose fields are
/// private): grid buffers, stream state and a one-entry scanner cache.
#[derive(Default)]
pub struct Replica {
    grid: GridScratch,
    stream: StreamScratch,
    scan_cache: Option<(ScanKey, MaskScanEngine)>,
}

/// A replayed verdict: every field of the report the engine should
/// have produced that a verdict without a reference sets, and the sum
/// of the replica's stage times.
pub struct Replayed {
    skew: SkewEstimate,
    true_delay: f64,
    mask: MaskReport,
    early_exit: bool,
    skew_ok: bool,
    noise_figure_db: Option<f64>,
    nf_ok: bool,
    capture_health: CaptureHealth,
    pub staged_ns: u64,
}

impl Replayed {
    /// Whether the engine's `report` is this verdict, bit for bit.
    pub fn matches(&self, report: &BistReport) -> bool {
        self.skew == report.skew
            && self.true_delay.to_bits() == report.true_delay.to_bits()
            && self.mask == report.mask
            && self.early_exit == report.early_exit
            && self.skew_ok == report.skew_ok
            && self.noise_figure_db == report.noise_figure_db
            && self.nf_ok == report.nf_ok
            && report.capture_health == Some(self.capture_health)
            && report.reconstruction_error.is_none()
    }
}

/// The analysis-grid geometry of one verdict.
struct GridSpec {
    t0: f64,
    dt: f64,
    n: usize,
}

impl Replica {
    /// Fast-channel capture, health scan and offset/gain calibration.
    fn front_end<S: ContinuousSignal>(
        cfg: &BistConfig,
        dut: &S,
        l: &mut Layers,
        staged: &mut u64,
    ) -> Result<(NonuniformCapture, CaptureHealth, f64), BistError> {
        let (raw, true_delay) = timed(&mut l.capture, staged, || {
            let mut adc = BpTiadc::new(cfg.frontend_fast);
            let raw = adc.capture(dut, cfg.fast_start, cfg.fast_len);
            (raw, adc.true_delay())
        });
        l.captured_samples += 2 * raw.len() as u64;
        let health = timed(&mut l.health, staged, || {
            CaptureHealth::scan(&raw, &cfg.frontend_fast, &cfg.health)
        })?;
        let (cap, _) = timed(&mut l.calibrate, staged, || auto_calibrate(&raw));
        Ok((cap, health, true_delay))
    }

    /// Slow-channel capture, health scan and calibration.
    fn slow_channel<S: ContinuousSignal>(
        cfg: &BistConfig,
        dut: &S,
        l: &mut Layers,
        staged: &mut u64,
    ) -> Result<NonuniformCapture, BistError> {
        let raw = timed(&mut l.capture, staged, || {
            BpTiadc::new(cfg.frontend_slow).capture(dut, cfg.slow_start, cfg.slow_len)
        });
        l.captured_samples += 2 * raw.len() as u64;
        timed(&mut l.health, staged, || {
            CaptureHealth::scan(&raw, &cfg.frontend_slow, &cfg.health)
        })?;
        Ok(timed(&mut l.calibrate, staged, || auto_calibrate(&raw)).0)
    }

    /// Dual-rate cost and LMS. `fast` is cloned inside the cost timer
    /// when the caller still needs it, as the engine does.
    fn estimate(
        cfg: &BistConfig,
        fast: &NonuniformCapture,
        slow: NonuniformCapture,
        true_delay: f64,
        l: &mut Layers,
        staged: &mut u64,
    ) -> Result<(SkewEstimate, bool), BistError> {
        let cost = timed(&mut l.cost_build, staged, || {
            DualRateCost::try_probe_window(fast, &slow, &cfg.dual)
                .map_err(|reason| BistError::CaptureTooShort { reason })?;
            Ok::<_, BistError>(match cfg.probe_schedule {
                ProbeSchedule::Random => DualRateCost::paper_probes(
                    fast.clone(),
                    slow,
                    cfg.dual,
                    cfg.probe_count,
                    cfg.probe_seed,
                ),
                ProbeSchedule::UniformGrid => {
                    DualRateCost::grid_probes(fast.clone(), slow, cfg.dual, cfg.probe_count)
                }
            })
        })?;
        let lms = timed(&mut l.lms, staged, || {
            estimate_skew_lms(&cost, LmsConfig::paper_default(cfg.lms_initial))
        });
        l.lms_iterations += lms.iterations as u64;
        l.skew_err_ps_max = l
            .skew_err_ps_max
            .max((lms.estimate - true_delay).abs() * 1e12);
        // One warm cost evaluation at the estimate, outside the stage
        // sum: the unit the LMS time is counted in.
        let mut eval = cost.evaluator();
        eval.eval(lms.estimate);
        let start = Instant::now();
        std::hint::black_box(eval.eval(lms.estimate));
        l.cost_eval.add(since(start));
        let ok = (!cfg.skew_gate.require_convergence || lms.converged)
            && cfg
                .skew_gate
                .max_residual_cost
                .is_none_or(|max| lms.cost <= max);
        Ok((lms.to_estimate(), ok))
    }

    /// Replays `try_calibrate_skew`; returns the skew estimate.
    pub fn calibrate<S: ContinuousSignal>(
        cfg: &BistConfig,
        stimulus: &S,
        l: &mut Layers,
    ) -> Result<SkewEstimate, BistError> {
        let mut staged = 0;
        let (fast, _, true_delay) = Self::front_end(cfg, stimulus, l, &mut staged)?;
        let slow = Self::slow_channel(cfg, stimulus, l, &mut staged)?;
        Ok(Self::estimate(cfg, &fast, slow, true_delay, l, &mut staged)?.0)
    }

    /// Plans the analysis grid exactly as the engine does.
    fn plan_grid(
        cfg: &BistConfig,
        delay: f64,
        fast: &NonuniformCapture,
        l: &mut Layers,
        staged: &mut u64,
    ) -> Result<(PnbsReconstructor, GridSpec), BistError> {
        let (rec, coverage) = timed(&mut l.plan_build, staged, || {
            let rec = PnbsReconstructor::new_unchecked(
                cfg.dual.fast_band(),
                delay,
                61,
                Window::Kaiser(8.0),
            );
            let coverage = rec.coverage(fast);
            (rec, coverage)
        });
        let Some((lo, hi)) = coverage else {
            return Err(BistError::CaptureTooShort {
                reason: "fast capture too short for reconstruction".to_string(),
            });
        };
        let dt = 1.0 / cfg.grid_rate;
        let usable = ((hi - lo) / dt) as usize;
        if usable == 0 {
            return Err(BistError::CaptureTooShort {
                reason: "capture too short for the analysis grid".to_string(),
            });
        }
        let n = cfg.grid_len.min(usable);
        Ok((rec, GridSpec { t0: lo, dt, n }))
    }

    /// Reconstructs the analysis grid a calibrated verdict on `dut`
    /// would scan, appending it to `out`.
    pub fn analysis_grid<S: ContinuousSignal>(
        &mut self,
        cfg: &BistConfig,
        dut: &S,
        out: &mut Vec<f64>,
        l: &mut Layers,
    ) -> Result<(), BistError> {
        let mut staged = 0;
        let delay = cfg
            .calibrated_skew
            .ok_or_else(|| BistError::InvalidConfig {
                reason: "analysis grids are built for calibrated deployments".into(),
            })?;
        let (fast, _, _) = Self::front_end(cfg, dut, l, &mut staged)?;
        let (rec, g) = Self::plan_grid(cfg, delay, &fast, l, &mut staged)?;
        let start = Instant::now();
        let mut blocks = rec.reconstruct_blocks(&fast, g.t0, g.dt, g.n, &mut self.grid);
        while let Some(block) = blocks.next_block() {
            out.extend_from_slice(block);
        }
        l.recon.add(since(start));
        l.recon_points += g.n as u64;
        Ok(())
    }

    /// Replays `try_run_with(dut, mask, None, scratch)`.
    pub fn verdict<S: ContinuousSignal>(
        &mut self,
        cfg: &BistConfig,
        dut: &S,
        mask: &SpectralMask,
        l: &mut Layers,
    ) -> Result<Replayed, BistError> {
        let mut staged = 0u64;
        let (fast, capture_health, true_delay) = Self::front_end(cfg, dut, l, &mut staged)?;
        let (skew, skew_ok) = match cfg.calibrated_skew {
            Some(delay) => (SkewEstimate::from_delay(delay), true),
            None => {
                let slow = Self::slow_channel(cfg, dut, l, &mut staged)?;
                Self::estimate(cfg, &fast, slow, true_delay, l, &mut staged)?
            }
        };
        let (rec, g) = Self::plan_grid(cfg, skew.delay, &fast, l, &mut staged)?;

        let (seg, overlap) = welch_segmentation(g.n);
        let carrier = cfg.dual.fast_band().center();
        let noise_band = cfg.noise_figure.map(|nf| (nf.offset_lo, nf.offset_hi));
        let Replica {
            grid,
            stream,
            scan_cache,
        } = self;
        let stale = !matches!(
            scan_cache,
            Some((k, _))
                if k.mask == *mask
                    && k.carrier_hz == carrier
                    && k.fs == cfg.grid_rate
                    && k.segment_len == seg
                    && k.overlap == overlap
                    && k.noise_band == noise_band
        );
        if stale {
            *scan_cache = None;
            let engine = timed(&mut l.scan_build, &mut staged, || {
                MaskScanEngine::try_build(
                    mask,
                    carrier,
                    cfg.grid_rate,
                    seg,
                    overlap,
                    Window::BlackmanHarris,
                    noise_band,
                )
            })?;
            l.probed_bins += engine.probed_bins() as u64;
            let key = ScanKey {
                mask: mask.clone(),
                carrier_hz: carrier,
                fs: cfg.grid_rate,
                segment_len: seg,
                overlap,
                noise_band,
            };
            *scan_cache = Some((key, engine));
        }
        let Some((_, engine)) = scan_cache.as_ref() else {
            unreachable!("scan cache filled above");
        };

        // The produce/consume interleaving of the in-thread feed: each
        // block is timed as reconstruction, each push as scan.
        let (mut recon_ns, mut push_ns) = (0u64, 0u64);
        let start = Instant::now();
        let mut scan = engine.stream(stream, cfg.early_verdict);
        push_ns += since(start);
        let start = Instant::now();
        let mut blocks = rec.reconstruct_blocks(&fast, g.t0, g.dt, g.n, grid);
        recon_ns += since(start);
        let mut produced = 0usize;
        loop {
            let t_block = Instant::now();
            let Some(block) = blocks.next_block() else {
                recon_ns += since(t_block);
                break;
            };
            let t_push = Instant::now();
            recon_ns += (t_push - t_block).as_nanos() as u64;
            produced += block.len();
            let feed = scan.push(block);
            push_ns += since(t_push);
            if feed != ScanFeed::Continue {
                break;
            }
        }
        l.recon.add(recon_ns);
        l.recon_points += produced as u64;
        l.push.add(push_ns);
        l.pushed_samples += produced as u64;
        l.segments += scan.segments_completed() as u64;
        staged += recon_ns + push_ns;

        let early_exit = scan.early_stopped();
        let noise_density = scan.noise_density_dbhz();
        let mask_report = timed(&mut l.fold, &mut staged, || scan.try_finish())?;

        let (noise_figure_db, nf_ok) = match (cfg.noise_figure, noise_density) {
            (Some(nf), Some(density)) => {
                let figure = density - nf.reference_density_dbhz;
                (Some(figure), nf.max_nf_db.is_none_or(|max| figure <= max))
            }
            _ => (None, true),
        };
        Ok(Replayed {
            skew,
            true_delay,
            mask: mask_report,
            early_exit,
            skew_ok,
            noise_figure_db,
            nf_ok,
            capture_health,
            staged_ns: staged,
        })
    }
}
