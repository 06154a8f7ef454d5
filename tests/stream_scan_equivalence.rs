//! Equivalence contract of the streaming mask-scan pipeline: feeding a
//! capture chunk by chunk through [`StreamingMaskScan`] must reproduce
//! the batched [`MaskScanEngine::scan`] verdict on the full capture —
//! bit-identically, because the windowed products, per-bin Goertzel
//! recurrences and segment folds perform the same operations in the
//! same order regardless of chunking. The early-verdict policy must
//! never fire on passing fixtures, and the engine's streamed
//! block-feed path must match the batch FFT-Welch oracle.

use proptest::prelude::*;
use rfbist::prelude::*;
use rfbist_core::bist::welch_segmentation;
use rfbist_core::mask::MaskSegment;
use rfbist_core::scan::StreamingMaskScan;
use rfbist_dsp::window::Window;
use rfbist_signal::traits::ContinuousSignal;
use std::f64::consts::PI;

mod common;
use common::{fft_welch_verdict, oracle_cases, paper_mask, paper_tx, PAPER_CARRIER};

/// The Section V waveform on the engine's default 4 GHz analysis grid.
fn section_v_wave(imp: TxImpairments, n: usize) -> Vec<f64> {
    paper_tx(imp)
        .rf_output()
        .sample_uniform(1.0e-6, 1.0 / 4e9, n)
}

fn paper_scan_engine(n: usize) -> MaskScanEngine {
    let (seg, overlap) = welch_segmentation(n);
    MaskScanEngine::new(
        &paper_mask(),
        PAPER_CARRIER,
        4e9,
        seg,
        overlap,
        Window::BlackmanHarris,
    )
}

fn stream_chunks(
    scan: &MaskScanEngine,
    wave: &[f64],
    chunk: usize,
    early: Option<EarlyVerdict>,
) -> (rfbist_core::MaskReport, bool) {
    let mut scratch = StreamScratch::new();
    let mut stream = scan.stream(&mut scratch, early);
    for piece in wave.chunks(chunk) {
        if stream.push(piece) == ScanFeed::EarlyStop {
            break;
        }
    }
    let stopped = stream.early_stopped();
    (stream.finish(), stopped)
}

#[test]
fn streamed_verdicts_match_batched_scan_on_section_v_fixtures() {
    let healthy = section_v_wave(TxImpairments::typical(), 12288);
    let faulty = section_v_wave(
        Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.03 })
            .inject(TxImpairments::typical()),
        12288,
    );
    let scan = paper_scan_engine(12288);
    for wave in [&healthy, &faulty] {
        let batched = scan.scan(wave);
        // the engine's reconstruction-block size, segment-size and
        // off-boundary chunkings must all agree bit for bit (a far
        // stronger pin than the ≤ 1e-9 contract)
        for chunk in [GRID_BLOCK_LEN, 4096, 12288, 1000, 13] {
            let (streamed, stopped) = stream_chunks(&scan, wave, chunk, None);
            assert!(!stopped);
            assert_eq!(streamed, batched, "chunk {chunk}");
            assert!(
                (streamed.worst_margin_db - batched.worst_margin_db).abs() <= 1e-9,
                "≤ 1e-9 contract"
            );
        }
    }
}

#[test]
fn fused_window_scan_stays_bit_identical_across_scan_windows() {
    // The window product is folded into the banked Goertzel advance at
    // the quad head (no per-chunk staging buffer), so a chunk boundary
    // can land anywhere inside a window row or the 4-sample unroll.
    // Chunked streaming must remain bit-identical to the batch scan
    // for every window shape the scan may carry.
    let wave = section_v_wave(TxImpairments::typical(), 12288);
    let (seg, overlap) = welch_segmentation(12288);
    for window in [
        Window::Rectangular,
        Window::Hann,
        Window::Hamming,
        Window::BlackmanHarris,
        Window::Kaiser(8.0),
    ] {
        let scan = MaskScanEngine::new(&paper_mask(), PAPER_CARRIER, 4e9, seg, overlap, window);
        let batched = scan.scan(&wave);
        for chunk in [1usize, 3, 255, 256, 257, 4096] {
            let (streamed, stopped) = stream_chunks(&scan, &wave, chunk, None);
            assert!(!stopped);
            assert_eq!(streamed, batched, "window {window:?} chunk {chunk}");
        }
    }
}

#[test]
fn early_exit_never_fires_on_passing_fixtures() {
    let wave = section_v_wave(TxImpairments::typical(), 12288);
    let scan = paper_scan_engine(12288);
    for guard in [0.0, 3.0, 6.0] {
        let (report, stopped) =
            stream_chunks(&scan, &wave, 256, Some(EarlyVerdict::with_guard(guard)));
        assert!(!stopped, "guard {guard} dB fired on a passing unit");
        assert!(report.passed);
        assert_eq!(report, scan.scan(&wave), "full verdict must be unchanged");
    }
}

#[test]
fn early_exit_stops_gross_failures_and_keeps_marginal_units_complete() {
    let gross = section_v_wave(
        Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.03 })
            .inject(TxImpairments::typical()),
        12288,
    );
    let scan = paper_scan_engine(12288);
    let batched = scan.scan(&gross);
    assert!(
        batched.worst_margin_db < -10.0,
        "fixture must be a gross failure: {}",
        batched.worst_margin_db
    );
    let mut scratch = StreamScratch::new();
    let mut stream: StreamingMaskScan =
        scan.stream(&mut scratch, Some(EarlyVerdict::paper_default()));
    let mut fed = 0usize;
    for piece in gross.chunks(GRID_BLOCK_LEN) {
        fed += piece.len();
        if stream.push(piece) == ScanFeed::EarlyStop {
            break;
        }
    }
    assert!(stream.early_stopped());
    assert_eq!(
        fed, 8192,
        "verdict decided at the first completed Welch segment"
    );
    let partial = stream.finish();
    assert!(!partial.passed);
    // the partial report carries the full violation machinery
    assert_eq!(partial.violation_count > partial.violations.len(), {
        partial.truncated
    });
}

#[test]
fn engine_streamed_path_matches_fft_welch_reference_end_to_end() {
    // streamed banked verdict vs the batch FFT-Welch oracle on the
    // engine's skew: same reconstruction bits (blocks re-seed exactly),
    // so Δε agrees exactly and margins agree to numerical noise
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
        assert!(!a.early_exit, "{}", case.name);
        assert_eq!(a.mask.passed, b.mask.passed, "{}", case.name);
        assert!(
            (a.mask.worst_margin_db - b.mask.worst_margin_db).abs() < 1e-6,
            "{}: margins {} vs {}",
            case.name,
            a.mask.worst_margin_db,
            b.mask.worst_margin_db
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

/// A compact spur fixture for the proptests: carrier plus one spur at
/// a mask-constrained offset.
fn spur_wave(n: usize, fs: f64, fc: f64, spur_offset: f64, spur_dbc: f64) -> Vec<f64> {
    let amp = 10f64.powf(spur_dbc / 20.0);
    (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            (2.0 * PI * fc * t).sin() + amp * (2.0 * PI * (fc + spur_offset) * t).sin()
        })
        .collect()
}

proptest! {
    // Pinned seed and a modest case budget, matching the repo's other
    // equivalence proptests.
    #![proptest_config(ProptestConfig::with_cases_and_seed(16, 0x2026_0730))]

    /// Streamed == batched for arbitrary segment length, overlap phase
    /// and block size — including blocks off every alignment (segment,
    /// hop, Goertzel 4-sample unroll).
    #[test]
    fn streamed_scan_matches_batched_for_any_blocking(
        seg_exp in 7usize..10,          // segment 128..512
        overlap_num in 1usize..8,       // overlap = seg * num / 8
        block in 1usize..600,
        tail in 0usize..97,
        spur_db in -60.0f64..-10.0,
    ) {
        let fs = 400e6;
        let fc = 100e6;
        let seg = 1usize << seg_exp;
        let overlap = seg * overlap_num / 8;
        let mask = SpectralMask::new(
            "prop",
            20e6,
            vec![MaskSegment { offset_lo: 30e6, offset_hi: 80e6, limit_dbc: -30.0 }],
        );
        let scan = MaskScanEngine::new(&mask, fc, fs, seg, overlap, Window::BlackmanHarris);
        let wave = spur_wave(3 * seg + tail, fs, fc, 50e6, spur_db);
        let batched = scan.scan(&wave);
        let (streamed, _) = stream_chunks(&scan, &wave, block, None);
        prop_assert_eq!(streamed, batched);
    }
}
