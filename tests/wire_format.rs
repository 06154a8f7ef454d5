//! End-to-end contract of the verdict-service wire protocol: a capture
//! encoded as `SampleBlock` frames, shipped through the incremental
//! [`FrameDecoder`] under arbitrary transport chunking, and replayed
//! into a [`WireVerdictSession`] must yield the **bit-identical**
//! verdict of the batched [`MaskScanEngine::scan`] on the same
//! samples — floats cross the wire as IEEE-754 LE bit patterns, so no
//! precision is lost. Protocol violations and malformed bytes must
//! surface as typed [`BistError::Wire`] values, never as panics.

mod common;

use common::{paper_mask, paper_tx, PAPER_CARRIER};
use rfbist::core::bist::welch_segmentation;
use rfbist::dsp::window::Window;
use rfbist::prelude::*;
use rfbist::signal::traits::ContinuousSignal;

/// The Section V waveform on the engine's default 4 GHz analysis grid.
fn section_v_wave(imp: TxImpairments, n: usize) -> Vec<f64> {
    paper_tx(imp)
        .rf_output()
        .sample_uniform(1.0e-6, 1.0 / 4e9, n)
}

fn paper_scan_engine(n: usize) -> MaskScanEngine {
    let (seg, overlap) = welch_segmentation(n);
    MaskScanEngine::try_build(
        &paper_mask(),
        PAPER_CARRIER,
        4e9,
        seg,
        overlap,
        Window::BlackmanHarris,
        None,
    )
    .unwrap()
}

/// Encodes the wave as `SampleBlock` frames of `block` samples, then
/// replays the byte stream through a decoder in `chunk`-byte transport
/// reads into a fresh wire session. Returns the final report.
fn verdict_over_the_wire(
    scan: &MaskScanEngine,
    wave: &[f64],
    block: usize,
    chunk: usize,
    early: Option<EarlyVerdict>,
) -> rfbist::core::MaskReport {
    let job_id = 42;
    let mut bytes = Vec::new();
    for samples in wave.chunks(block) {
        let frame = WireFrame::SampleBlock {
            job_id,
            samples: samples.to_vec(),
        };
        bytes.extend_from_slice(&frame.encode());
    }
    let mut scratch = StreamScratch::new();
    let mut session = WireVerdictSession::new(job_id, scan.stream(&mut scratch, early));
    let mut decoder = FrameDecoder::new();
    for piece in bytes.chunks(chunk) {
        decoder.feed(piece);
        while let Some(frame) = decoder.try_next_frame().expect("well-formed stream") {
            let response = session.try_handle(&frame).expect("protocol-legal frame");
            assert!(response.is_none(), "sample blocks have no response");
        }
    }
    assert_eq!(decoder.buffered(), 0, "stream ends on a frame boundary");
    match session.try_close().expect("verdict") {
        WireFrame::FinalReport { job_id: id, report } => {
            assert_eq!(id, job_id);
            report
        }
        other => panic!("expected FinalReport, got {other:?}"),
    }
}

#[test]
fn wire_verdict_is_bit_identical_to_the_batched_scan() {
    let healthy = section_v_wave(TxImpairments::typical(), 12288);
    let faulty = section_v_wave(
        Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.03 })
            .inject(TxImpairments::typical()),
        12288,
    );
    let scan = paper_scan_engine(12288);
    for wave in [&healthy, &faulty] {
        let batched = scan.try_scan(wave).unwrap();
        // sample-block sizes off every alignment × transport chunkings
        // down to single bytes: framing must be invisible to the verdict
        for (block, chunk) in [(GRID_BLOCK_LEN, 4096), (1000, 1), (12288, 7), (13, 64)] {
            let report = verdict_over_the_wire(&scan, wave, block, chunk, None);
            assert_eq!(report, batched, "block {block} chunk {chunk}");
        }
    }
}

#[test]
fn partial_reports_stream_back_mid_capture() {
    let wave = section_v_wave(TxImpairments::typical(), 12288);
    let scan = paper_scan_engine(12288);
    let batched = scan.try_scan(&wave).unwrap();
    let job_id = 9;
    let mut scratch = StreamScratch::new();
    let mut session = WireVerdictSession::new(job_id, scan.stream(&mut scratch, None));
    assert_eq!(session.job_id(), job_id);

    // before any Welch segment completes, a report request is a
    // protocol error — there is nothing defensible to report
    let err = session
        .try_handle(&WireFrame::ReportRequest { job_id })
        .expect_err("no segment yet");
    assert!(matches!(err, BistError::Wire { .. }), "{err}");
    assert!(
        err.to_string().contains("before any Welch segment"),
        "{err}"
    );

    // feed one full segment (8192 samples at the paper segmentation),
    // then the request yields a partial verdict
    let (seg, _) = welch_segmentation(12288);
    session
        .try_handle(&WireFrame::SampleBlock {
            job_id,
            samples: wave[..seg].to_vec(),
        })
        .expect("feed");
    let response = session
        .try_handle(&WireFrame::ReportRequest { job_id })
        .expect("segment complete")
        .expect("partial report response");
    match &response {
        WireFrame::PartialReport {
            job_id: id,
            segments,
            report,
        } => {
            assert_eq!(*id, job_id);
            assert!(*segments >= 1, "segments {segments}");
            assert_eq!(report.mask_name, batched.mask_name);
        }
        other => panic!("expected PartialReport, got {other:?}"),
    }
    // the partial report round-trips the wire bit-exactly
    let mut dec = FrameDecoder::new();
    dec.feed(&response.encode());
    assert_eq!(
        dec.try_next_frame().expect("decode").expect("complete"),
        response
    );

    // finishing after the rest of the capture still matches the batch
    session
        .try_handle(&WireFrame::SampleBlock {
            job_id,
            samples: wave[seg..].to_vec(),
        })
        .expect("feed tail");
    match session.try_close().expect("verdict") {
        WireFrame::FinalReport { report, .. } => assert_eq!(report, batched),
        other => panic!("expected FinalReport, got {other:?}"),
    }
}

#[test]
fn early_verdict_policy_works_over_the_wire() {
    let gross = section_v_wave(
        Fault::new(FaultKind::PaEarlyCompression { v_sat_factor: 0.03 })
            .inject(TxImpairments::typical()),
        12288,
    );
    let scan = paper_scan_engine(12288);
    let job_id = 3;
    let mut scratch = StreamScratch::new();
    let mut session = WireVerdictSession::new(
        job_id,
        scan.stream(&mut scratch, Some(EarlyVerdict::paper_default())),
    );
    assert!(!session.early_stopped());
    for samples in gross.chunks(GRID_BLOCK_LEN) {
        session
            .try_handle(&WireFrame::SampleBlock {
                job_id,
                samples: samples.to_vec(),
            })
            .expect("feed");
        if session.early_stopped() {
            break;
        }
    }
    assert!(
        session.early_stopped(),
        "gross failure must trip the early verdict"
    );
    match session.try_close().expect("verdict") {
        WireFrame::FinalReport { report, .. } => assert!(!report.passed),
        other => panic!("expected FinalReport, got {other:?}"),
    }
}

#[test]
fn protocol_violations_are_typed_wire_errors() {
    let scan = paper_scan_engine(12288);
    let mut scratch = StreamScratch::new();
    let mut session = WireVerdictSession::new(5, scan.stream(&mut scratch, None));

    // a frame routed to the wrong session
    let err = session
        .try_handle(&WireFrame::ReportRequest { job_id: 6 })
        .expect_err("wrong job");
    assert!(err.to_string().contains("routed to session"), "{err}");

    // re-opening an open job
    let err = session
        .try_handle(&WireFrame::JobOpen {
            job_id: 5,
            standard: "qpsk-10msym-srrc0.5".into(),
        })
        .expect_err("double open");
    assert!(err.to_string().contains("already open"), "{err}");

    // worker→caller frame types arriving inbound
    for frame in [
        WireFrame::Error {
            job_id: 5,
            reason: "spoofed".into(),
        },
        WireFrame::FinalReport {
            job_id: 5,
            report: scan
                .try_scan(&section_v_wave(TxImpairments::typical(), 12288))
                .unwrap(),
        },
    ] {
        let err = session.try_handle(&frame).expect_err("outbound type");
        assert!(matches!(err, BistError::Wire { .. }), "{err}");
        assert!(!err.is_transient(), "wire errors are not retryable");
    }
}

#[test]
fn malformed_transport_bytes_never_panic_the_decoder() {
    // truncations at every prefix of a valid multi-frame stream are
    // simply "need more bytes" — no error, no panic
    let mut stream = Vec::new();
    stream.extend_from_slice(
        &WireFrame::JobOpen {
            job_id: 1,
            standard: "lte5-like".into(),
        }
        .encode(),
    );
    stream.extend_from_slice(
        &WireFrame::SampleBlock {
            job_id: 1,
            samples: vec![1.0, -2.0, 3.0],
        }
        .encode(),
    );
    for cut in 0..stream.len() {
        let mut dec = FrameDecoder::new();
        dec.feed(&stream[..cut]);
        // drain whatever is complete; the tail must be a clean "more
        // bytes needed", never an error on a truncated-but-honest stream
        loop {
            match dec.try_next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => panic!("cut {cut}: {e}"),
            }
        }
    }

    // flipping the type byte of a well-formed frame is a typed error
    let mut bytes = WireFrame::JobClose { job_id: 1 }.encode();
    bytes[4] = 0x6e;
    let mut dec = FrameDecoder::new();
    dec.feed(&bytes);
    let err = dec.try_next_frame().expect_err("unknown type");
    assert!(err.to_string().contains("unknown frame type"), "{err}");
}
