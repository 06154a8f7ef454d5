//! Independent-oracle checks: properties of the verdict pipeline that
//! are checked against something other than the code's own earlier
//! version, so a bug shared by a fast path and its twin cannot pass.
//!
//! - The LMS skew estimate (paper Algorithm 1 on the dual-rate cost of
//!   the Section V QPSK stimulus) against the Jamal sine-fit estimate
//!   on a single tone through the same front-end: two estimators that
//!   share no code past the converter model.
//! - Whole-sample shift invariance of the dual-rate cost: relabelling
//!   both captures' sample indices and shifting the probes by the same
//!   time leaves ε unchanged, which pins the phase origins of the
//!   cost's probe sums without the direct reference.
//! - A known spur: a bin-centred tone of closed-form density added to a
//!   healthy Section V DUT sets the verdict's worst margin to the mask
//!   limit minus its level, within a bound derived from the
//!   Welch/Blackman–Harris estimator.
//! - Amplitude scaling (a metamorphic relation): the verdict is
//!   reference-relative, so scaling a DUT's output by `g` moves the
//!   0 dBc reference by 20·log10 g and leaves every margin where it
//!   was.

mod common;

use rfbist::core::bist::welch_segmentation;
use rfbist::prelude::*;

/// The paper's true inter-channel delay.
const D: f64 = 180e-12;

/// The Section V dual-rate cost of the QPSK stimulus through the paper
/// front-end (10-bit converters, 3 ps rms skew jitter) with
/// realization `seed`, probed on the engine's default uniform grid.
fn qpsk_cost(seed: u64) -> DualRateCost {
    let cfg = DualRateConfig::paper_section_v();
    let tx = common::paper_stimulus_seeded(96, common::PAPER_PRBS_SEED ^ seed);
    let mut fast = BpTiadc::new(BpTiadcConfig::paper_section_v(cfg.delay()).with_seed(seed));
    let mut slow = BpTiadc::new(
        BpTiadcConfig::paper_section_v(cfg.delay())
            .with_sample_rate(cfg.slow_rate())
            .with_seed(0x51DE ^ seed),
    );
    DualRateCost::grid_probes(
        fast.capture(&tx, 80, 260),
        slow.capture(&tx, 40, 160),
        cfg,
        300,
    )
}

/// The Jamal sine-fit estimate on a tone whose alias lands at 0.46·B
/// (the paper's Table I placement), through the same front-end with
/// realization `seed`.
fn jamal_estimate(seed: u64) -> f64 {
    let cfg = DualRateConfig::paper_section_v();
    let f_rf = test_tone_for_ratio(1e9, cfg.fast_rate(), 0.46);
    let mut adc = BpTiadc::new(BpTiadcConfig::paper_section_v(D).with_seed(seed));
    let cap = adc.capture(&Tone::new(f_rf, 0.9, 0.37), 0, 300);
    estimate_skew_jamal(&cap, f_rf).delay
}

/// Realizations the skew cross-check runs over.
const SEEDS: u64 = 8;

/// Tolerances of the skew cross-check, set from the spread over
/// `SEEDS` realizations (measured: LMS error ≤ 1.06 ps, median 0.31 ps;
/// sine fit ≤ 0.38 ps, median 0.11 ps; the two ≤ 1.28 ps apart) with
/// about 2x margin. The LMS spreads wider because the paper front-end
/// puts its 3 ps rms jitter on the delay line, so the skew a capture
/// realizes wanders with the capture (paper Table I: ~0.3 ps for the
/// sine fit at 0.46·B, sub-ps for the LMS).
const LMS_TOL: f64 = 2e-12;
const JAMAL_TOL: f64 = 1e-12;
const APART_TOL: f64 = 2.5e-12;

#[test]
fn lms_and_sine_fit_agree_on_the_skew() {
    let mut lms_errs = Vec::new();
    let mut jamal_errs = Vec::new();
    for seed in 0..SEEDS {
        let cost = qpsk_cost(seed);
        let lms = estimate_skew_lms(&cost, LmsConfig::paper_default(100e-12)).estimate;
        let jamal = jamal_estimate(seed);
        assert!(
            (lms - D).abs() <= LMS_TOL,
            "seed {seed}: LMS {:.3} ps from the true delay",
            (lms - D) * 1e12
        );
        assert!(
            (jamal - D).abs() <= JAMAL_TOL,
            "seed {seed}: sine fit {:.3} ps from the true delay",
            (jamal - D) * 1e12
        );
        assert!(
            (lms - jamal).abs() <= APART_TOL,
            "seed {seed}: LMS and sine fit {:.3} ps apart",
            (lms - jamal).abs() * 1e12
        );
        lms_errs.push((lms - D).abs());
        jamal_errs.push((jamal - D).abs());
    }
    // Table I's scale: sub-ps medians for both estimators
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    assert!(median(lms_errs) < 1e-12);
    assert!(median(jamal_errs) < 0.5e-12);
}

/// `cap` with its sample indices relabelled by `shift`: the same
/// samples, taken `shift` periods later.
fn relabelled(cap: &NonuniformCapture, shift: i64) -> NonuniformCapture {
    NonuniformCapture::from_streams(
        cap.period(),
        cap.delay(),
        cap.n_start() + shift,
        cap.even().to_vec(),
        cap.odd().to_vec(),
    )
}

#[test]
fn whole_sample_shift_leaves_the_cost_unchanged() {
    // Relabel the fast capture by 2k samples and the slow one by k
    // (B1 = B/2, so both move by 2k·T) and shift the probes by 2k·T:
    // every reconstruction, hence ε, is unchanged up to the rounding
    // of the shifted times (measured ≤ 2.5e-11 relative).
    let cost = common::paper_frontend_cost_fixture(300, 42);
    let t_fast = cost.fast_capture().period();
    assert_eq!(cost.slow_capture().period(), 2.0 * t_fast);
    for k in [1i64, 7, 120] {
        let shifted = DualRateCost::new(
            relabelled(cost.fast_capture(), 2 * k),
            relabelled(cost.slow_capture(), k),
            *cost.config(),
            cost.times()
                .iter()
                .map(|&t| t + (2 * k) as f64 * t_fast)
                .collect(),
        );
        for d in cost.sweep_candidates(30) {
            let (a, b) = (cost.evaluate(d), shifted.evaluate(d));
            assert!(
                (a - b).abs() <= 1e-10 * a,
                "k = {k}, D̂ = {:.1} ps: {a} vs {b}",
                d * 1e12
            );
        }
    }
}

/// The Blackman–Harris equivalent noise bandwidth of an `n`-point
/// segment in bins, `n·Σw²/(Σw)²`, from the window's closed form.
fn blackman_harris_enbw(n: usize) -> f64 {
    let w = |i: usize| {
        let x = 2.0 * std::f64::consts::PI * i as f64 / (n - 1) as f64;
        0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos() - 0.01168 * (3.0 * x).cos()
    };
    let (sum, sum_sq) = (0..n).fold((0.0, 0.0), |(s, q), i| (s + w(i), q + w(i) * w(i)));
    n as f64 * sum_sq / (sum * sum)
}

#[test]
fn a_known_spur_sets_the_worst_margin() {
    // A tone at carrier + 31 Welch bins (15.14 MHz, inside the
    // −38 dBc segment), −10 dBc against the healthy run's reference, on
    // the default configuration (lattice probe schedule, per-run LMS).
    // Its one-sided density in its bin is (A²/2)/(ENBW·Δf); the verdict
    // reports limit − level there, off by what the DUT's own spectrum
    // adds to that bin.
    let cfg = BistConfig::paper_default();
    let mask = SpectralMask::qpsk_10msym();
    let engine = BistEngine::new(cfg.clone());
    let tx = common::paper_tx(TxImpairments::typical());
    let none: Option<&Tone> = None;
    let healthy = engine.run(&tx.rf_output(), &mask, none);
    assert!(healthy.passed(), "the healthy DUT passes");

    let (seg, overlap) = welch_segmentation(cfg.grid_len);
    let df = cfg.grid_rate / seg as f64;
    let carrier = cfg.dual.fast_band().center();
    assert_eq!((carrier / df).fract(), 0.0, "the carrier sits on a bin");
    let f_spur = carrier + 31.0 * df;
    let limit = -38.0;
    let enbw_hz = blackman_harris_enbw(seg) * df;
    let density_db = |amp: f64| 10.0 * (amp * amp / 2.0 / enbw_hz).log10();
    let amp = (2.0 * enbw_hz * 10f64.powf((healthy.mask.reference_db - 10.0) / 10.0)).sqrt();
    let dut = Sum::new(tx.rf_output(), Tone::new(f_spur, amp, 0.7));
    let report = engine.run(&dut, &mask, none);
    let level = density_db(amp) - report.mask.reference_db;

    // Tolerance. In each of the K Welch segments the bin holds the
    // tone's DFT S plus the DUT's own N_k, so the averaged periodogram
    // lies within |S|²·(1 ± √(K·r))², r the DUT's averaged density
    // there relative to the tone's: no segment holds more than K times
    // the average. The healthy verdict bounds the DUT's density in
    // this segment by limit − its worst margin. A further 0.1 dB
    // covers the reconstruction's and the front-end's gain at the tone.
    let segments = 1 + (cfg.grid_len - seg) / (seg - overlap);
    let r = 10f64.powf((limit - healthy.mask.worst_margin_db - level) / 10.0);
    let tolerance = -20.0 * (1.0 - (segments as f64 * r).sqrt()).log10() + 0.1;
    let expected = limit - level;
    assert!(
        (report.mask.worst_margin_db - expected).abs() <= tolerance,
        "worst margin {:.3} dB, limit − level {expected:.3} dB, tolerance {tolerance:.3} dB",
        report.mask.worst_margin_db
    );
    assert!(
        (report.mask.worst_frequency_hz - f_spur).abs() < 0.5 * df,
        "worst margin at {:.4} MHz, spur at {:.4} MHz",
        report.mask.worst_frequency_hz / 1e6,
        f_spur / 1e6
    );
    assert!(!report.passed());
}

/// Tolerance of the amplitude-scaling relation, dB. Measured: the
/// scaled runs' margins, violation levels and shifted reference sit
/// at most 1.22e-3 dB from the unscaled run's (the compressed unit's
/// band-edge violations; 1.2e-4 dB on the worst margins), with about
/// 2x margin. The deviation is the 24-bit quantizer's rounding, which
/// does not scale with the signal: on a 32-bit quantizer it falls to
/// 4.6e-6 dB.
const SCALING_TOL_DB: f64 = 2.5e-3;

#[test]
fn amplitude_scaling_leaves_the_margins_unchanged() {
    // The ideal front end (24-bit converters, no jitter) with the skew
    // calibrated at its true delay: no LMS decision can differ between
    // the runs, and nothing in the chain but the quantizer depends on
    // the amplitude.
    let engine = BistEngine::new(
        BistConfig::paper_default()
            .with_ideal_frontend()
            .with_calibrated_skew(D),
    );
    let mask = SpectralMask::qpsk_10msym();
    let none: Option<&Tone> = None;
    let healthy = common::paper_tx(TxImpairments::typical());
    let compressed = common::paper_tx(
        Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.05 })
            .inject(TxImpairments::typical()),
    );
    for (name, tx, passes) in [
        ("healthy", &healthy, true),
        ("compressed", &compressed, false),
    ] {
        let base = engine.run(&tx.rf_output(), &mask, none).mask;
        assert_eq!(base.passed, passes, "{name}: unscaled verdict");
        assert_eq!(base.violations.is_empty(), passes, "{name}: violations");
        for g in [0.5, 0.25] {
            let scaled = engine.run(&Gain::new(tx.rf_output(), g), &mask, none).mask;
            let near = |a: f64, b: f64, what: &str| {
                assert!(
                    (a - b).abs() <= SCALING_TOL_DB,
                    "{name} × {g}: {what} {a} dB, unscaled {b} dB"
                );
            };
            assert_eq!(scaled.passed, base.passed, "{name} × {g}: verdict");
            near(scaled.worst_margin_db, base.worst_margin_db, "worst margin");
            assert_eq!(
                scaled.worst_frequency_hz, base.worst_frequency_hz,
                "{name} × {g}"
            );
            near(
                scaled.reference_db - 20.0 * g.log10(),
                base.reference_db,
                "reference less 20·log10 g",
            );
            assert_eq!(scaled.violation_count, base.violation_count, "{name} × {g}");
            assert_eq!(
                scaled.violations.len(),
                base.violations.len(),
                "{name} × {g}"
            );
            for (vs, vb) in scaled.violations.iter().zip(&base.violations) {
                assert_eq!(vs.frequency, vb.frequency, "{name} × {g}");
                near(vs.measured_dbc, vb.measured_dbc, "violation level");
            }
        }
    }
}
