//! `wire_scan`: each `cal_line` job's analysis grid, reconstructed once
//! in set-up and framed for the wire, is fed through one connection's
//! `FrameDecoder` in seeded read sizes and scored by a
//! `WireVerdictSession` — the timed path has no LMS and no
//! reconstruction, only frame decode and the Goertzel scan.

use std::time::Instant;

use rfbist_core::bist::welch_segmentation;
use rfbist_core::{
    BistError, FrameDecoder, MaskReport, MaskScanEngine, StreamScratch, WireFrame,
    WireVerdictSession,
};
use rfbist_dsp::window::Window;
use rfbist_sampling::gridplan::GRID_BLOCK_LEN;

use crate::cal_line::{campaign_jobs, dut_major, trace_calibrations, DUTS};
use crate::layers::{since, Layers};
use crate::replica::Replica;
use crate::{latency_metrics, mix, repeated_setup, Args, Outcome, Samples, MIN_OPS};

/// Transport read sizes: one TCP segment, a socket-buffer drain, a
/// large pipe read.
const READ_SIZES: [usize; 3] = [1448, 16384, 65536];

/// Read sizes are drawn from this stream of the workload seed.
const READ_STREAM: u64 = 2 << 32;

/// One framed job.
struct WireJob {
    standard: String,
    engine: usize,
    samples: Vec<f64>,
    bytes: Vec<u8>,
    report_requests: u64,
}

struct Setup {
    jobs: Vec<WireJob>,
    engines: Vec<MaskScanEngine>,
    order: Vec<usize>,
    conn: Connection,
    /// Calibrated skew of each deployment's jobs.
    skews: Vec<Option<f64>>,
    first: Vec<Option<MaskReport>>,
}

/// Frames one job: `JobOpen`, one `SampleBlock` per grid block, a
/// `ReportRequest` after each completed Welch segment, `JobClose`.
fn frame(job_id: u64, standard: &str, samples: &[f64], seg: usize, hop: usize) -> (Vec<u8>, u64) {
    let mut bytes = WireFrame::JobOpen {
        job_id,
        standard: standard.to_string(),
    }
    .encode();
    let (mut pushed, mut requested) = (0usize, 0usize);
    for block in samples.chunks(GRID_BLOCK_LEN) {
        bytes.extend(
            WireFrame::SampleBlock {
                job_id,
                samples: block.to_vec(),
            }
            .encode(),
        );
        pushed += block.len();
        let completed = if pushed < seg {
            0
        } else {
            (pushed - seg) / hop + 1
        };
        while requested < completed {
            bytes.extend(WireFrame::ReportRequest { job_id }.encode());
            requested += 1;
        }
    }
    bytes.extend(WireFrame::JobClose { job_id }.encode());
    (bytes, requested as u64)
}

fn setup(seed: u64, layers: &mut Layers) -> Result<Setup, String> {
    let jobs = campaign_jobs(seed)?;
    let deployments = jobs.len() / DUTS;
    let mut replica = Replica::default();
    let mut engines = Vec::with_capacity(deployments);
    let mut wire_jobs = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let mut samples = Vec::new();
        replica
            .analysis_grid(&job.config, &job.stimulus, &mut samples, layers)
            .map_err(|e| format!("job {}: grid: {e}", job.job_id))?;
        let (seg, overlap) = welch_segmentation(samples.len());
        let dep = job.job_id as usize / DUTS;
        if engines.len() == dep {
            let cfg = &job.config;
            let start = Instant::now();
            let engine = MaskScanEngine::try_build(
                &job.mask,
                cfg.dual.fast_band().center(),
                cfg.grid_rate,
                seg,
                overlap,
                Window::BlackmanHarris,
                None,
            )
            .map_err(|e| format!("{}: scanner: {e}", job.standard))?;
            layers.scan_build.add(since(start));
            layers.probed_bins += engine.probed_bins() as u64;
            engines.push(engine);
        }
        let (bytes, report_requests) =
            frame(job.job_id, &job.standard, &samples, seg, seg - overlap);
        wire_jobs.push(WireJob {
            standard: job.standard.clone(),
            engine: dep,
            samples,
            bytes,
            report_requests,
        });
    }
    let mut s = Setup {
        jobs: wire_jobs,
        engines,
        order: dut_major(deployments),
        conn: Connection {
            decoder: FrameDecoder::new(),
            stream: StreamScratch::new(),
            seed,
            read: 0,
        },
        skews: (0..deployments)
            .map(|d| jobs[d * DUTS].config.calibrated_skew)
            .collect(),
        first: vec![None; jobs.len()],
    };
    // warm-up: one job per deployment through the connection
    for d in 0..deployments {
        let served = s
            .conn
            .serve(&s.jobs[d * DUTS], &s.engines, None)
            .map_err(|e| format!("warm-up job {}: {e}", d * DUTS))?;
        s.first[d * DUTS] = Some(served.report);
    }
    Ok(s)
}

/// What serving one job produced.
struct Served {
    report: MaskReport,
    partial_reports: u64,
}

/// The call sites a traced job is split into.
#[derive(Clone, Copy)]
enum Site {
    /// `FrameDecoder::feed` and `try_next_frame`.
    Decode,
    /// `try_handle` on a `SampleBlock`: the scan push.
    Push,
    /// `try_handle` on a `ReportRequest`, and `try_close`: mask folds.
    Fold,
    /// `WireFrame::encode` of the response frames.
    Encode,
}

/// Per-job wall time of each call site (traced run).
#[derive(Default)]
struct Probe {
    ns: [u64; 4],
    frames: u64,
}

fn tick(probe: &Option<&mut Probe>) -> Option<Instant> {
    probe.is_some().then(Instant::now)
}

fn charge(probe: &mut Option<&mut Probe>, start: Option<Instant>, site: Site) {
    if let (Some(p), Some(t)) = (probe.as_deref_mut(), start) {
        p.ns[site as usize] += since(t);
    }
}

/// The receiving end of one connection.
struct Connection {
    decoder: FrameDecoder,
    stream: StreamScratch,
    /// Workload seed the transport read sizes are drawn from.
    seed: u64,
    /// Reads so far. Sizes are drawn afresh for every read rather than
    /// cycled from a table: a cycled table can lock each job onto the
    /// same few read sizes, which made the medians depend on the seed.
    read: u64,
}

impl Connection {
    /// Feeds `job`'s bytes in the connection's read sizes and runs its
    /// session to the `FinalReport`, encoding every response frame.
    /// With a probe, each call site is timed.
    fn serve(
        &mut self,
        job: &WireJob,
        engines: &[MaskScanEngine],
        mut probe: Option<&mut Probe>,
    ) -> Result<Served, BistError> {
        let Connection {
            decoder,
            stream,
            seed,
            read,
        } = self;
        let bytes = &job.bytes[..];
        let mut pos = 0usize;
        // the next decoded frame, reading from the transport as needed
        let mut next = |probe: &mut Option<&mut Probe>| -> Result<WireFrame, BistError> {
            loop {
                let t = tick(probe);
                let frame = decoder.try_next_frame();
                charge(probe, t, Site::Decode);
                if let Some(frame) = frame? {
                    if let Some(p) = probe.as_deref_mut() {
                        p.frames += 1;
                    }
                    return Ok(frame);
                }
                if pos == bytes.len() {
                    return Err(BistError::Wire {
                        reason: "connection ended inside a job".into(),
                    });
                }
                let size = READ_SIZES[(mix(*seed, READ_STREAM + *read) % 3) as usize];
                let n = size.min(bytes.len() - pos);
                *read += 1;
                let t = tick(probe);
                decoder.feed(&bytes[pos..pos + n]);
                charge(probe, t, Site::Decode);
                pos += n;
            }
        };
        let WireFrame::JobOpen { job_id, standard } = next(&mut probe)? else {
            return Err(BistError::Wire {
                reason: "job does not start with JobOpen".into(),
            });
        };
        if standard != job.standard {
            return Err(BistError::Wire {
                reason: format!("JobOpen names {standard}, expected {}", job.standard),
            });
        }
        let mut session = WireVerdictSession::new(job_id, engines[job.engine].stream(stream, None));
        let mut partial_reports = 0u64;
        loop {
            let frame = next(&mut probe)?;
            if matches!(frame, WireFrame::JobClose { .. }) {
                break;
            }
            let t = tick(&probe);
            let response = session.try_handle(&frame)?;
            let site = match frame {
                WireFrame::SampleBlock { .. } => Site::Push,
                _ => Site::Fold,
            };
            charge(&mut probe, t, site);
            if let Some(response) = response {
                partial_reports += 1;
                let t = tick(&probe);
                std::hint::black_box(response.encode());
                charge(&mut probe, t, Site::Encode);
            }
        }
        let t = tick(&probe);
        let closed = session.try_close()?;
        charge(&mut probe, t, Site::Fold);
        let t = tick(&probe);
        std::hint::black_box(closed.encode());
        charge(&mut probe, t, Site::Encode);
        match closed {
            WireFrame::FinalReport { report, .. } => Ok(Served {
                report,
                partial_reports,
            }),
            _ => Err(BistError::Wire {
                reason: "session closed without a FinalReport".into(),
            }),
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut s = if args.trace {
        let s = setup(args.seed, &mut layers)?;
        trace_calibrations(&s.skews, &mut layers, &mut out)?;
        s
    } else {
        repeated_setup(&mut out, || setup(args.seed, &mut Layers::default()))?
    };

    let mut verdict_ms = Samples::default();
    let mut by_standard = vec![Samples::default(); s.engines.len()];
    let mut outcomes_by_job = vec![0u64; s.jobs.len()];
    let mut differs_by_job = vec![0u64; s.jobs.len()];
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds || out.attempted < MIN_OPS as u64 {
        let j = s.order[k % s.order.len()];
        k += 1;
        out.attempted += 1;
        let job = &s.jobs[j];
        let t = Instant::now();
        let served = s.conn.serve(job, &s.engines, None);
        let ns = since(t);
        let served = match served {
            Ok(served) => served,
            Err(e) => {
                out.fail(format!("job {j}: {e}"));
                // framing is lost with the error: open a new connection
                s.conn.decoder = FrameDecoder::new();
                continue;
            }
        };
        verdict_ms.push(ns as f64 / 1e6);
        by_standard[job.engine].push(ns as f64 / 1e6);
        if served.partial_reports != job.report_requests {
            out.fail(format!(
                "job {j}: {} partial reports for {} requests",
                served.partial_reports, job.report_requests
            ));
        }
        if args.trace {
            layers.untraced.add(ns);
            let mut probe = Probe::default();
            match s.conn.serve(job, &s.engines, Some(&mut probe)) {
                Ok(traced) if traced.report == served.report => {
                    let [decode, push, fold, encode] = probe.ns;
                    layers.staged_ns += decode + push + fold + encode;
                    layers.decode.add(decode);
                    layers.handle.add(push + fold);
                    layers.push.add(push);
                    layers.fold.ns += fold;
                    layers.fold.calls += traced.partial_reports + 1;
                    layers.encode.add(encode);
                    layers.wire_bytes += job.bytes.len() as u64;
                    layers.wire_frames += probe.frames;
                    layers.partial_reports += traced.partial_reports;
                    layers.pushed_samples += job.samples.len() as u64;
                    layers.segments += job.report_requests;
                }
                Ok(_) => out.fail(format!(
                    "job {j}: traced report differs from the untraced one"
                )),
                Err(e) => out.fail(format!("job {j}: traced session failed: {e}")),
            }
        }
        outcomes_by_job[j] += 1;
        match &s.first[j] {
            Some(f) if *f != served.report => {
                differs_by_job[j] += 1;
                out.fail(format!("job {j}: FinalReport differs from its first"));
            }
            Some(_) => {}
            None => s.first[j] = Some(served.report),
        }
    }

    // after the window: each job's first FinalReport against the batch
    // scan of the same samples
    for (j, job) in s.jobs.iter().enumerate() {
        let batch = s.engines[job.engine].try_scan(&job.samples);
        let agrees = matches!((&batch, &s.first[j]), (Ok(b), Some(f)) if b == f);
        if !agrees && s.first[j].is_some() {
            for _ in differs_by_job[j]..outcomes_by_job[j] {
                out.fail(format!("job {j}: FinalReport differs from try_scan"));
            }
        }
        if s.first[j].as_ref().is_some_and(|r| !r.passed) {
            layers.mask_fail_inputs += 1;
        }
    }
    out.notes.push(format!(
        "mask.fail_verdicts {} of {} jobs",
        layers.mask_fail_inputs,
        s.jobs.len()
    ));
    for (d, times) in by_standard.iter().enumerate() {
        out.notes.push(format!(
            "{}: verdict_ms p50 {:.4}",
            s.jobs[d * DUTS].standard,
            times.median()
        ));
    }
    if args.trace {
        layers.check_coverage(&mut out);
        layers.emit(&mut out);
    } else {
        latency_metrics(&mut out, &verdict_ms);
    }
    Ok(out)
}
