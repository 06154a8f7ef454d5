//! Fault-injection ("chaos") suite for the fail-safe verdict
//! pipeline: every injected failure — NaN/Inf corruption, saturation,
//! dead channels, truncated captures, malformed campaign
//! configurations, stopped campaigns — must surface as a typed
//! [`BistError`] or as a verdict bit-identical to the clean path. A
//! corrupted capture silently PASSing is the one outcome a self-test
//! must never produce.

mod common;

use common::{paper_mask, paper_tx, paper_tx_seeded, PAPER_TX_SYMBOLS};
use proptest::prelude::*;
use rfbist::prelude::*;

/// Engine configured like the paper's Section V run but with an
/// externally calibrated skew (no slow-channel capture, so the chaos
/// applies to exactly one capture path) and a short analysis grid.
fn chaos_config() -> BistConfig {
    let mut cfg = BistConfig::paper_default()
        .try_with_calibrated_skew(180e-12)
        .unwrap();
    cfg.grid_len = 2048;
    cfg
}

/// [`chaos_config`] estimating the skew per run with the LMS instead:
/// the engine's other skew path. The capture health guard runs before
/// the two diverge.
fn chaos_config_lms() -> BistConfig {
    BistConfig {
        calibrated_skew: None,
        ..chaos_config()
    }
}

/// Corruption kinds the proptest sweeps over, applied from `t = 0`
/// (the whole capture).
#[derive(Clone, Copy, Debug)]
enum Corruption {
    Nan,
    Inf,
    Dead,
}

struct Corrupt<S> {
    inner: S,
    kind: Corruption,
}

impl<S: ContinuousSignal> ContinuousSignal for Corrupt<S> {
    fn eval(&self, t: f64) -> f64 {
        match self.kind {
            Corruption::Nan => f64::NAN,
            Corruption::Inf => f64::INFINITY,
            Corruption::Dead => 0.0 * self.inner.eval(t),
        }
    }
}

#[test]
fn nan_capture_is_rejected_identically_by_both_strategies() {
    let tx = paper_tx(TxImpairments::typical());
    let dut = Corrupt {
        inner: tx.rf_output(),
        kind: Corruption::Nan,
    };
    let golden = tx.ideal_rf_output();
    let calibrated = BistEngine::new(chaos_config())
        .try_run(&dut, &paper_mask(), Some(&golden))
        .unwrap_err();
    let estimated = BistEngine::new(chaos_config_lms())
        .try_run(&dut, &paper_mask(), Some(&golden))
        .unwrap_err();
    assert!(
        matches!(
            calibrated,
            BistError::NonFiniteCapture { first_index: 0, .. }
        ),
        "{calibrated:?}"
    );
    // the health guard runs before the skew strategies diverge, so
    // the typed rejection is identical calibrated vs per-run LMS
    assert_eq!(calibrated, estimated);
    assert!(
        calibrated.to_string().contains("non-finite"),
        "{calibrated}"
    );
}

#[test]
fn saturated_capture_is_rejected_with_clip_statistics() {
    let tx = paper_tx(TxImpairments::typical());
    // ×50 drives nearly the whole capture onto the quantizer rails —
    // far past the 2 % default budget
    let dut = Gain::new(tx.rf_output(), 50.0);
    let err = BistEngine::new(chaos_config())
        .try_run(&dut, &paper_mask(), Some(&tx.ideal_rf_output()))
        .unwrap_err();
    match err {
        BistError::SaturatedCapture {
            clip_fraction,
            max_clip_fraction,
        } => {
            assert!(clip_fraction > max_clip_fraction);
            assert!(clip_fraction > 0.5, "clip fraction {clip_fraction}");
        }
        other => panic!("expected SaturatedCapture, got {other:?}"),
    }
}

#[test]
fn dead_capture_is_rejected_not_passed() {
    // a dead transmitter emits nothing — trivially "inside" every
    // emission mask, which is exactly the silent PASS the dead-signal
    // guard exists to forbid
    let tx = paper_tx(TxImpairments::typical());
    let dut = Corrupt {
        inner: tx.rf_output(),
        kind: Corruption::Dead,
    };
    let err = BistEngine::new(chaos_config())
        .try_run(&dut, &paper_mask(), Some(&tx.ideal_rf_output()))
        .unwrap_err();
    assert!(matches!(err, BistError::DeadCapture { .. }), "{err:?}");
}

#[test]
fn truncated_capture_is_a_typed_error_on_both_paths() {
    let tx = paper_tx(TxImpairments::typical());
    let golden = tx.ideal_rf_output();
    // far below the 61-tap reconstruction window: the calibrated path
    // trips the reconstruction coverage, the LMS path its probe window
    let truncated = |cfg: BistConfig| BistConfig {
        fast_len: 20,
        ..cfg
    };
    for cfg in [truncated(chaos_config()), truncated(chaos_config_lms())] {
        let err = BistEngine::new(cfg)
            .try_run(&tx.rf_output(), &paper_mask(), Some(&golden))
            .unwrap_err();
        assert!(matches!(err, BistError::CaptureTooShort { .. }), "{err:?}");
        assert!(err.to_string().contains("too short"), "{err}");
    }
}

#[test]
fn marginal_clipping_is_annotated_but_not_fatal() {
    let tx = paper_tx(TxImpairments::typical());
    // mild overdrive: some rail hits, nowhere near unusable
    let dut = Gain::new(tx.rf_output(), 3.0);
    let policy = HealthPolicy {
        max_clip_fraction: 1.0,  // never reject on clipping…
        warn_clip_fraction: 0.0, // …but annotate any rail hit
        ..HealthPolicy::paper_default()
    };
    let report = BistEngine::new(chaos_config().with_health_policy(policy))
        .try_run(&dut, &paper_mask(), Some(&tx.ideal_rf_output()))
        .expect("marginal capture still produces a verdict");
    let health = report.capture_health.expect("engine reports attach health");
    assert!(health.clipped > 0, "{health:?}");
    assert!(health.marginal, "{health:?}");
    assert!(report.to_string().contains("MARGINAL"), "{report}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// Whatever the corruption and payload, both skew strategies
    /// reject the capture with the *same* typed error — never a
    /// verdict, never a panic, never a strategy-dependent answer.
    #[test]
    fn corrupted_captures_never_silently_pass(
        kind_ix in 0usize..3,
        seed in 0u64..4,
    ) {
        let kind = [Corruption::Nan, Corruption::Inf, Corruption::Dead][kind_ix];
        let tx = paper_tx_seeded(TxImpairments::typical(), PAPER_TX_SYMBOLS, 0xACE1 + seed);
        let dut = Corrupt { inner: tx.rf_output(), kind };
        let golden = tx.ideal_rf_output();
        let calibrated = BistEngine::new(chaos_config())
            .try_run(&dut, &paper_mask(), Some(&golden))
            .expect_err("corrupted capture must not produce a verdict");
        let estimated = BistEngine::new(chaos_config_lms())
            .try_run(&dut, &paper_mask(), Some(&golden))
            .expect_err("corrupted capture must not produce a verdict");
        prop_assert_eq!(&calibrated, &estimated);
        match kind {
            Corruption::Nan => prop_assert!(
                matches!(calibrated, BistError::NonFiniteCapture { .. }), "{:?}", calibrated),
            // Inf clamps onto the quantizer rails: a saturation fault
            Corruption::Inf => prop_assert!(
                matches!(calibrated, BistError::SaturatedCapture { .. }), "{:?}", calibrated),
            Corruption::Dead => prop_assert!(
                matches!(calibrated, BistError::DeadCapture { .. }), "{:?}", calibrated),
        }
    }
}

/// A 2-standard, 1-trial, 1-jitter, gross-faults-only campaign: small
/// enough for an integration test, real enough to cross a cell
/// boundary (where the observer can stop the sweep).
fn two_cell_campaign() -> CampaignConfig {
    let deployments: Vec<Deployment> = Deployment::builtin_five()
        .into_iter()
        .filter(|d| d.standard == "qpsk-10msym-srrc0.5" || d.standard == "wcdma-like-3g84")
        .collect();
    assert_eq!(deployments.len(), 2);
    CampaignConfig {
        deployments,
        faults: vec![
            Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.25 }),
            Fault::new(FaultKind::IqGainImbalance { gain_db: 3.0 }),
        ],
        trials: 1,
        base_seed: 0xACE1,
        jitter_rms: vec![3e-12],
        eps_ratio: 3.0,
    }
}

#[test]
fn observer_stop_is_a_typed_interrupt() {
    let cfg = two_cell_campaign();
    // the observer refusing to continue after the first cell models an
    // operator stopping the sweep between cells
    let mut seen = Vec::new();
    let err = try_run_campaign_supervised(&cfg, None, false, &mut |p| {
        seen.push(p.clone());
        p.completed_cells < 1
    })
    .expect_err("a stopped sweep must not return a matrix");
    assert_eq!(
        err,
        BistError::Interrupted {
            completed_cells: 1,
            total_cells: 2,
        }
    );
    assert_eq!(
        seen,
        vec![CampaignProgress {
            completed_cells: 1,
            total_cells: 2,
            standard: "qpsk-10msym-srrc0.5".to_string(),
            jitter_rms: 3e-12,
        }],
        "the sweep must stop at the first refusal"
    );
}

#[test]
fn retired_checkpoint_arguments_are_rejected() {
    let cfg = two_cell_campaign();
    let path =
        std::env::temp_dir().join(format!("rfbist-chaos-retired-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut cells = 0;
    for (checkpoint, resume) in [(Some(path.as_path()), false), (None, true)] {
        let err = try_run_campaign_supervised(&cfg, checkpoint, resume, &mut |_| {
            cells += 1;
            true
        })
        .expect_err("checkpoint/resume arguments must be refused");
        assert!(
            matches!(err, BistError::InvalidConfig { .. }),
            "{checkpoint:?}, resume {resume}: {err:?}"
        );
    }
    assert_eq!(cells, 0, "refused before the first cell");
    assert!(!path.exists(), "no file may appear at the retired path");
}

#[test]
fn malformed_campaign_configs_are_typed_errors() {
    let base = two_cell_campaign();

    let mut cfg = base.clone();
    cfg.deployments.clear();
    assert!(matches!(
        try_run_campaign(&cfg),
        Err(BistError::InvalidConfig { .. })
    ));

    let mut cfg = base.clone();
    cfg.eps_ratio = 0.5;
    assert!(matches!(
        try_run_campaign(&cfg),
        Err(BistError::InvalidConfig { .. })
    ));

    let mut cfg = base.clone();
    cfg.deployments[0].standard = "no-such-standard".into();
    match try_run_campaign(&cfg) {
        Err(BistError::UnknownStandard { name, known }) => {
            assert_eq!(name, "no-such-standard");
            assert!(
                known.iter().any(|k| k == "qpsk-10msym-srrc0.5"),
                "known standards must be listed: {known:?}"
            );
        }
        other => panic!("expected UnknownStandard, got {other:?}"),
    }
}
