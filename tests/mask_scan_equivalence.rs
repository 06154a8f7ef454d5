//! Equivalence contract of the banked-Goertzel [`MaskScanEngine`]
//! against the FFT-Welch reference on the paper's Section V fixtures:
//! the two must agree to well within 0.5 dB worst-margin — in practice
//! they probe the same Welch bins with the same window and
//! normalization, so agreement is at numerical noise. The full Welch
//! PSD is a test oracle; the engine runs only the banked scan, which
//! pays off because every builtin deployment's mask reads a small
//! fraction of its Welch bins.

use rfbist::prelude::*;
use rfbist_core::bist::welch_segmentation;
use rfbist_dsp::psd::welch;
use rfbist_dsp::window::Window;
use rfbist_signal::traits::ContinuousSignal;

mod common;
use common::{fft_welch_verdict, oracle_cases, paper_mask, paper_tx, PAPER_CARRIER};

/// The Section V waveform the verdict paths consume: the transmitter
/// output sampled on the engine's default 4 GHz analysis grid.
fn section_v_wave(imp: TxImpairments, n: usize) -> Vec<f64> {
    let tx = paper_tx(imp);
    tx.rf_output().sample_uniform(1.0e-6, 1.0 / 4e9, n)
}

fn both_verdicts(wave: &[f64]) -> (rfbist_core::MaskReport, rfbist_core::MaskReport) {
    let mask = paper_mask();
    let (seg, overlap) = welch_segmentation(wave.len());
    let scan = MaskScanEngine::new(
        &mask,
        PAPER_CARRIER,
        4e9,
        seg,
        overlap,
        Window::BlackmanHarris,
    );
    let banked = scan.scan(wave);
    let psd = welch(wave, 4e9, seg, overlap, Window::BlackmanHarris);
    let reference = mask.check(&psd, PAPER_CARRIER);
    (banked, reference)
}

#[test]
fn healthy_unit_verdicts_agree_within_half_db() {
    let wave = section_v_wave(TxImpairments::typical(), 12288);
    let (banked, reference) = both_verdicts(&wave);
    assert!(banked.passed && reference.passed);
    assert!(
        (banked.worst_margin_db - reference.worst_margin_db).abs() <= 0.5,
        "margins {} vs {}",
        banked.worst_margin_db,
        reference.worst_margin_db
    );
    // the paths probe identical bins, so agreement is actually at
    // numerical-noise level, far inside the contract
    assert!(
        (banked.worst_margin_db - reference.worst_margin_db).abs() < 1e-6,
        "margins {} vs {}",
        banked.worst_margin_db,
        reference.worst_margin_db
    );
    assert_eq!(banked.worst_frequency_hz, reference.worst_frequency_hz);
}

#[test]
fn regrowth_fault_verdicts_agree_and_truncation_is_visible() {
    let faulty = Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.03 })
        .inject(TxImpairments::typical());
    let wave = section_v_wave(faulty, 12288);
    let (banked, reference) = both_verdicts(&wave);
    assert!(!banked.passed && !reference.passed);
    assert!(
        (banked.worst_margin_db - reference.worst_margin_db).abs() <= 0.5,
        "margins {} vs {}",
        banked.worst_margin_db,
        reference.worst_margin_db
    );
    assert_eq!(banked.violation_count, reference.violation_count);
    assert_eq!(banked.violations.len(), reference.violations.len());
    // the wideband regrowth of a grossly compressed PA violates far
    // more bins than the report carries — the total must say so
    assert!(
        banked.violation_count > banked.violations.len(),
        "expected truncation: {} total, {} reported",
        banked.violation_count,
        banked.violations.len()
    );
    assert_eq!(banked.violations.len(), 64);
}

#[test]
fn engine_strategies_agree_end_to_end() {
    // full pipeline (capture → calibrate → LMS → reconstruct → verdict)
    // against the FFT-Welch oracle reconstructing with the engine's
    // skew: the grids are identical, so the verdicts differ only by the
    // scan path
    let mask = paper_mask();
    for case in oracle_cases() {
        let a = BistEngine::new(case.config.clone()).run(&case.dut, &mask, Some(&case.reference));
        let b = fft_welch_verdict(
            &case.config,
            a.skew.delay,
            &case.dut,
            &mask,
            Some(&case.reference),
        );
        assert_eq!(
            a.reconstruction_error.map(f64::to_bits),
            b.reconstruction_error.map(f64::to_bits),
            "{}: Δε",
            case.name
        );
        assert_eq!(a.mask.passed, b.mask.passed, "{}", case.name);
        assert!(
            (a.mask.worst_margin_db - b.mask.worst_margin_db).abs() <= 0.5,
            "{}: margins {} vs {}",
            case.name,
            a.mask.worst_margin_db,
            b.mask.worst_margin_db
        );
        assert_eq!(
            a.mask.violation_count, b.mask.violation_count,
            "{}",
            case.name
        );
        match (a.noise_figure_db, b.noise_figure_db) {
            (Some(nf_a), Some(nf_b)) => assert!(
                (nf_a - nf_b).abs() < 0.5,
                "{}: banked {nf_a} dB vs welch {nf_b} dB",
                case.name
            ),
            (None, None) => assert!(case.config.noise_figure.is_none(), "{}", case.name),
            other => panic!("{}: noise figure {other:?}", case.name),
        }
    }
}

#[test]
fn scan_probes_a_small_bin_subset() {
    // the banked scan beats the FFT only while the mask reads well
    // under ~N/8 of the Welch bins; every builtin deployment, the
    // paper's Section V grid among them, stays far below that
    let library = MaskLibrary::builtin();
    for dep in Deployment::builtin_five() {
        let mask = &library.get(&dep.standard).expect("builtin standard").mask;
        let (seg, overlap) = welch_segmentation(dep.grid_len);
        let scan = MaskScanEngine::new(
            mask,
            dep.carrier_hz,
            dep.grid_rate,
            seg,
            overlap,
            Window::BlackmanHarris,
        );
        let full_bins = seg / 2 + 1;
        assert!(
            scan.probed_bins() * 10 < full_bins,
            "{}: {} of {} bins",
            dep.standard,
            scan.probed_bins(),
            full_bins
        );
    }
}
