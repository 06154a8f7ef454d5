//! Shared integration-test fixtures.
//!
//! Thin re-export of [`rfbist::fixtures`] so every test file builds the
//! paper's Section V scenario from one canonical definition instead of
//! repeating the stimulus/engine/mask parameters inline, plus the batch
//! FFT-Welch verdict pipeline the engine's streamed scan is checked
//! against.

#[allow(unused_imports)]
pub use rfbist::fixtures::*;

use rfbist::converter::calibration::auto_calibrate;
use rfbist::core::bist::welch_segmentation;
use rfbist::core::service::SharedSignal;
use rfbist::core::MaskReport;
use rfbist::dsp::psd::welch;
use rfbist::dsp::window::Window;
use rfbist::math::stats::nrmse;
use rfbist::prelude::*;
use std::sync::Arc;

/// What the FFT-Welch oracle measures on one capture.
#[allow(dead_code)]
pub struct WelchVerdict {
    /// The mask verdict on the full Welch PSD.
    pub mask: MaskReport,
    /// Δε against the reference on the analysis grid.
    pub reconstruction_error: Option<f64>,
    /// Noise figure over the configured band, dB.
    pub noise_figure_db: Option<f64>,
}

/// The batch FFT-Welch verdict pipeline, a test oracle for the
/// engine's streamed banked-Goertzel scan: capture the fast channel as
/// the engine does, reconstruct the whole analysis grid with skew
/// `delay` (pass the engine's estimate, so only the scan path
/// differs), estimate every Welch bin and check the mask on that PSD.
/// Δε is `nrmse` against the reference sampled on the same grid.
#[allow(dead_code)]
pub fn fft_welch_verdict<S: ContinuousSignal, R: ContinuousSignal>(
    cfg: &BistConfig,
    delay: f64,
    dut: &S,
    mask: &SpectralMask,
    reference: Option<&R>,
) -> WelchVerdict {
    let raw = BpTiadc::new(cfg.frontend_fast).capture(dut, cfg.fast_start, cfg.fast_len);
    let (cap, _) = auto_calibrate(&raw);
    let rec =
        PnbsReconstructor::new_unchecked(cfg.dual.fast_band(), delay, 61, Window::Kaiser(8.0));
    let (lo, hi) = rec.coverage(&cap).expect("capture covers the tap window");
    let dt = 1.0 / cfg.grid_rate;
    let n = cfg.grid_len.min(((hi - lo) / dt) as usize);
    let mut grid = GridScratch::default();
    let wave = rec
        .try_reconstruct_grid(&cap, lo, dt, n, &mut grid)
        .unwrap();
    let (seg, overlap) = welch_segmentation(n);
    let psd = welch(wave, cfg.grid_rate, seg, overlap, Window::BlackmanHarris);
    let carrier = cfg.dual.fast_band().center();
    WelchVerdict {
        mask: mask.try_check(&psd, carrier).unwrap(),
        reconstruction_error: reference.map(|r| nrmse(wave, &r.sample_uniform(lo, dt, n))),
        noise_figure_db: cfg.noise_figure.and_then(|nf| {
            psd.mean_density_in_offset_band(carrier, nf.offset_lo, nf.offset_hi)
                .map(|d| 10.0 * d.max(1e-30).log10() - nf.reference_density_dbhz)
        }),
    }
}

/// One end-to-end oracle case: an engine configuration, the DUT
/// output and its golden reference.
#[allow(dead_code)]
pub struct OracleCase {
    pub name: &'static str,
    pub config: BistConfig,
    pub dut: SharedSignal,
    pub reference: SharedSignal,
}

/// The Section V units the end-to-end oracle tests run on the paper
/// engine: a healthy one, a grossly compressed one, and an
/// impairment-free one over injected band-limited noise of known
/// density (±44 MHz around the carrier, 0.01 rms) with the noise
/// figure measured against that density.
#[allow(dead_code)]
pub fn oracle_cases() -> Vec<OracleCase> {
    let case = |name, config, tx: &HomodyneTx<ShapedBaseband>, dut: SharedSignal| OracleCase {
        name,
        config,
        dut,
        reference: Arc::new(tx.ideal_rf_output()),
    };
    let healthy = paper_tx(TxImpairments::typical());
    let faulty = paper_tx(
        Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.05 })
            .inject(TxImpairments::typical()),
    );
    let clean = paper_tx(TxImpairments::ideal());
    let (f_lo, f_hi, rms) = (PAPER_CARRIER - 44e6, PAPER_CARRIER + 44e6, 0.01);
    let noise = BandlimitedNoise::new(f_lo, f_hi, 600, rms, 0xF107);
    let density_dbhz = 10.0 * (rms * rms / (f_hi - f_lo)).log10();
    let nf = NoiseFigureConfig::try_new(25e6, 40e6, density_dbhz).unwrap();
    vec![
        case(
            "healthy",
            BistConfig::paper_default(),
            &healthy,
            Arc::new(healthy.rf_output()),
        ),
        case(
            "compressed",
            BistConfig::paper_default(),
            &faulty,
            Arc::new(faulty.rf_output()),
        ),
        case(
            "noisy",
            BistConfig::paper_default().with_noise_figure(nf),
            &clean,
            Arc::new(Sum::new(clean.rf_output(), noise)),
        ),
    ]
}

/// [`paper_cost_fixture`]'s stimulus and capture spans through the
/// paper's Section V front-end (10-bit converters, 3 ps rms skew
/// jitter), with `n_probes` random probes drawn from `seed`.
#[allow(dead_code)]
pub fn paper_frontend_cost_fixture(n_probes: usize, seed: u64) -> DualRateCost {
    let cfg = DualRateConfig::paper_section_v();
    let tx = paper_stimulus_seeded(96, PAPER_PRBS_SEED);
    let mut fast = BpTiadc::new(BpTiadcConfig::paper_section_v(cfg.delay()));
    let mut slow = BpTiadc::new(
        BpTiadcConfig::paper_section_v(cfg.delay())
            .with_sample_rate(cfg.slow_rate())
            .with_seed(0x51DE),
    );
    DualRateCost::paper_probes(
        fast.capture(&tx, 80, 260),
        slow.capture(&tx, 40, 160),
        cfg,
        n_probes,
        seed,
    )
}

/// The gsm-like-270k campaign deployment's dual-rate cost: a 100 MHz
/// carrier on the 90/45 MHz rate pair, so the search bound `m` is a
/// third of the fast sample period (Section V has `m/T ≈ 0.043`).
/// Captures of a 10 Msym/s QPSK burst through the deployment's paper
/// front-end (10-bit converters, 3 ps rms skew jitter), with
/// `n_probes` random probes drawn from `seed`.
#[allow(dead_code)]
pub fn gsm_cost_fixture(n_probes: usize, seed: u64) -> DualRateCost {
    let dep = Deployment::builtin_five().remove(0);
    assert_eq!(dep.standard, "gsm-like-270k");
    let cfg = dep.try_bist_config().unwrap();
    let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 96, PAPER_PRBS_SEED);
    let tx = BandpassSignal::new(bb, dep.carrier_hz);
    let mut fast = BpTiadc::new(cfg.frontend_fast);
    let mut slow = BpTiadc::new(cfg.frontend_slow);
    DualRateCost::paper_probes(
        fast.capture(&tx, 80, 260),
        slow.capture(&tx, 40, 160),
        cfg.dual,
        n_probes,
        seed,
    )
}

/// The same captures and configuration as `cost`, probed on the
/// uniform midpoint grid of `n` points.
#[allow(dead_code)]
pub fn grid_probed(cost: &DualRateCost, n: usize) -> DualRateCost {
    DualRateCost::grid_probes(
        cost.fast_capture().clone(),
        cost.slow_capture().clone(),
        *cost.config(),
        n,
    )
}

/// Asserts `cost`'s evaluation against its direct reference at the
/// candidates 0.1 ps and 0.5 ps inside each end of `]0, m[`, where the
/// `1/sin(kπBD̂)` weights drive ε to ~1e5 — relative to ε, since an
/// absolute bound would ask ~1e-14 relative agreement there.
#[allow(dead_code)]
pub fn assert_clamp_edges_match_reference(cost: &DualRateCost) {
    let m = cost.config().m_bound();
    for d in [0.1e-12, 0.5e-12, m - 0.5e-12, m - 0.1e-12] {
        let planned = cost.evaluate(d);
        let reference = cost.evaluate_reference(d);
        let rel = (planned - reference).abs() / reference.abs();
        assert!(
            rel <= 1e-10,
            "D̂ = {:.2} ps: cost {planned} vs reference {reference} (relative {rel:e})",
            d * 1e12
        );
    }
}
