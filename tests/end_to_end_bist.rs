//! Integration test: the complete BIST pipeline across crates —
//! transmitter model → BP-TIADC capture → calibration → LMS skew
//! estimation → PNBS reconstruction → PSD → mask verdict.

use rfbist::prelude::*;

mod common;
use common::{paper_engine, paper_mask, paper_tx};

#[test]
fn healthy_unit_passes_with_margin() {
    let tx = paper_tx(TxImpairments::typical());
    let engine = paper_engine();
    let report = engine.run(&tx.rf_output(), &paper_mask(), Some(&tx.ideal_rf_output()));
    assert!(report.passed(), "margin {}", report.mask.worst_margin_db);
    assert!(
        report.mask.worst_margin_db > 1.0,
        "needs real margin, not luck"
    );
    // skew recovered to ~1 ps against the DCDE ground truth
    assert!(report.skew_abs_error() < 2e-12);
    // reconstruction quality in the paper's ballpark (Δε ≈ 1–2 %)
    let eps = report.reconstruction_error.expect("reference provided");
    assert!(eps < 0.03, "delta_eps {eps}");
}

#[test]
fn compressing_pa_fails_mask_and_healthy_margin_orders_by_severity() {
    let engine = paper_engine();
    let mask = paper_mask();
    let margin = |vf: f64| {
        let imp = Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: vf })
            .inject(TxImpairments::typical());
        let tx = paper_tx(imp);
        engine
            .run(&tx.rf_output(), &mask, Some(&tx.ideal_rf_output()))
            .mask
            .worst_margin_db
    };
    let healthy = {
        let tx = paper_tx(TxImpairments::typical());
        engine
            .run(&tx.rf_output(), &mask, Some(&tx.ideal_rf_output()))
            .mask
            .worst_margin_db
    };
    let mild = margin(0.4);
    let severe = margin(0.05);
    assert!(severe < mild, "severe {severe} !< mild {mild}");
    assert!(mild < healthy, "mild {mild} !< healthy {healthy}");
    assert!(
        severe < 0.0,
        "gross compression must fail the mask: {severe}"
    );
}

#[test]
fn in_band_faults_are_caught_by_golden_comparison() {
    let engine = paper_engine();
    let mask = paper_mask();
    let healthy_tx = paper_tx(TxImpairments::typical());
    let healthy_eps = engine
        .run(
            &healthy_tx.rf_output(),
            &mask,
            Some(&healthy_tx.ideal_rf_output()),
        )
        .reconstruction_error
        .expect("reference provided");

    // a gross IQ imbalance stays inside the occupied band...
    let imp =
        Fault::new(FaultKind::IqGainImbalance { gain_db: 3.0 }).inject(TxImpairments::typical());
    let tx = paper_tx(imp);
    let report = engine.run(&tx.rf_output(), &mask, Some(&tx.ideal_rf_output()));
    // ...so the emission mask alone does not flag it...
    assert!(
        report.passed(),
        "IQ imbalance should not trip an emission mask"
    );
    // ...but the golden-waveform deviation does.
    let eps = report.reconstruction_error.expect("reference provided");
    assert!(
        eps > 3.0 * healthy_eps,
        "golden comparison must flag the fault: {eps} vs healthy {healthy_eps}"
    );
}

#[test]
fn engine_is_deterministic() {
    let tx = paper_tx(TxImpairments::typical());
    let engine = paper_engine();
    let a = engine.run(&tx.rf_output(), &paper_mask(), Some(&tx.ideal_rf_output()));
    let b = engine.run(&tx.rf_output(), &paper_mask(), Some(&tx.ideal_rf_output()));
    assert_eq!(a.skew.delay, b.skew.delay);
    assert_eq!(a.mask.worst_margin_db, b.mask.worst_margin_db);
    assert_eq!(a.reconstruction_error, b.reconstruction_error);
}

/// Both channels' raw bits of a capture of `signal` through `frontend`.
fn capture_bits<S: ContinuousSignal>(
    signal: &S,
    frontend: BpTiadcConfig,
    start: i64,
    len: usize,
) -> Vec<u64> {
    let cap = BpTiadc::new(frontend).capture(signal, start, len);
    cap.even()
        .iter()
        .chain(cap.odd())
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn captures_match_the_reference_waveform_bit_for_bit() {
    use rfbist::core::campaign::CAMPAIGN_B;
    use rfbist::fixtures::reference_rf_output;

    // (label, payload, carrier, engine configuration): the Section V
    // fixture, then every builtin deployment on its standard's payload
    let mut cases = vec![(
        "section-v".to_string(),
        paper_tx(TxImpairments::ideal()).baseband().clone(),
        1e9,
        BistConfig::paper_default(),
    )];
    let library = MaskLibrary::builtin();
    for dep in Deployment::builtin_five() {
        let standard = library.get(&dep.standard).expect("builtin standard");
        let cfg = dep.try_bist_config().expect("builtin deployment");
        let span = (cfg.fast_start as f64 + cfg.fast_len as f64) / CAMPAIGN_B * 1.2;
        let symbols = ((span * standard.symbol_rate) as usize + 30).max(96);
        let payload =
            ShapedBaseband::qpsk_prbs(standard.symbol_rate, standard.rolloff, 12, symbols, 0xACE1);
        cases.push((dep.standard.clone(), payload, dep.carrier_hz, cfg));
    }

    let compressed = Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.25 })
        .inject(TxImpairments::typical());
    for (label, payload, carrier, cfg) in cases {
        for imp in [TxImpairments::typical(), compressed] {
            let tx = HomodyneTx::builder(payload.clone(), carrier)
                .impairments(imp)
                .build();
            let (fast, reference) = (tx.rf_output(), reference_rf_output(&tx));
            for (frontend, start, len) in [
                (cfg.frontend_fast, cfg.fast_start, cfg.fast_len),
                (cfg.frontend_slow, cfg.slow_start, cfg.slow_len),
            ] {
                assert_eq!(
                    capture_bits(&fast, frontend, start, len),
                    capture_bits(&reference, frontend, start, len),
                    "{label}, {:?}: capture differs from the reference waveform's",
                    imp.pa
                );
            }
        }
    }
}
