//! Verdict-service saturation-curve driver: sweeps the persistent
//! worker pool across worker counts on a fixed batch of calibrated-skew
//! jobs and writes the throughput curve as JSON — the CI artifact that
//! records how verdicts/s saturates with pool size on each runner
//! flavor (AVX2 and forced-scalar).
//!
//! ```sh
//! cargo run --release -p rfbist-bench --bin verdict_service -- --quick --out service-saturation.json
//! ```
//!
//! Unlike `perf_report`, this binary asserts no speedup floors — the
//! curve's *shape* is machine-dependent by nature (a single-core
//! runner saturates at 1 worker) and the throughput gates live in
//! `perf_report`'s `service` section. What it does assert, on every
//! worker count it sweeps, is the service's reason to exist: every
//! pool outcome must be **bit-identical** to the direct
//! `try_run_with` verdict for the same job.

use rfbist_bench::interleaved_medians;
use rfbist_core::bist::{BistConfig, BistEngine, BistScratch};
use rfbist_core::mask::SpectralMask;
use rfbist_core::service::{ServiceConfig, SharedSignal, VerdictJob, VerdictService};
use rfbist_rfchain::impairments::TxImpairments;
use std::hint::black_box;
use std::sync::Arc;

struct Config {
    quick: bool,
    out: String,
}

fn main() {
    let mut cfg = Config {
        quick: false,
        out: "service-saturation.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--out" => cfg.out = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: verdict_service [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let (reps, jobs_per_batch) = if cfg.quick { (3, 4) } else { (5, 8) };
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // 1, 2, 4, … up to the first power of two at or above the core
    // count, so the artifact always shows where the curve flattens.
    let mut worker_counts = vec![1usize];
    while *worker_counts.last().expect("non-empty") < available.min(16) {
        worker_counts.push(worker_counts.last().expect("non-empty") * 2);
    }

    let mut bist = BistConfig::paper_default()
        .try_with_calibrated_skew(180e-12)
        .expect("a positive skew");
    bist.grid_len = 2048;
    let mask = SpectralMask::qpsk_10msym();
    let stimulus: SharedSignal =
        Arc::new(rfbist_bench::paper_tx(TxImpairments::typical(), 160, 0xACE1).rf_output());
    let make_jobs = |n: usize| -> Vec<VerdictJob> {
        (0..n as u64)
            .map(|job_id| VerdictJob {
                job_id,
                dut: job_id as u32,
                standard: "qpsk-10msym-srrc0.5".into(),
                config: bist.clone(),
                mask: mask.clone(),
                stimulus: Arc::clone(&stimulus),
                reference: None,
            })
            .collect()
    };
    // Direct single-shot reference: the per-verdict cost without the
    // pool, and the report every service outcome must reproduce.
    let template = make_jobs(1).remove(0);
    let mut scratch = BistScratch::new();
    let direct_report = BistEngine::new(template.config.clone())
        .try_run_with(
            &template.stimulus,
            &template.mask,
            template.reference.as_ref(),
            &mut scratch,
        )
        .expect("clean direct verdict");
    let [direct_ns] = interleaved_medians(
        reps,
        jobs_per_batch,
        [&mut || {
            for _ in 0..jobs_per_batch {
                black_box(
                    BistEngine::new(template.config.clone())
                        .try_run_with(
                            &template.stimulus,
                            &template.mask,
                            template.reference.as_ref(),
                            &mut scratch,
                        )
                        .expect("clean direct verdict"),
                );
            }
        }],
    );

    println!(
        "verdict_service ({} mode): {} jobs/batch, {} reps, workers {:?} (machine has {})",
        if cfg.quick { "quick" } else { "full" },
        jobs_per_batch,
        reps,
        worker_counts,
        available,
    );
    println!(
        "direct             {:>10.1} us/verdict ({:.0} verdicts/s)",
        direct_ns / 1e3,
        1e9 / direct_ns,
    );

    let mut curve = Vec::new();
    for &workers in &worker_counts {
        let mut svc =
            VerdictService::try_start(ServiceConfig::paper_default().with_workers(workers))
                .expect("verdict service starts");
        // warm batch (thread start, scratch growth) doubles as the
        // equivalence assertion for this worker count
        let outcomes = svc
            .try_run_all(make_jobs(jobs_per_batch))
            .expect("pool alive");
        for outcome in &outcomes {
            assert_eq!(
                outcome.result.as_ref().expect("clean service verdict"),
                &direct_report,
                "service verdict diverged from the direct run at {workers} worker(s)"
            );
        }
        let [ns] = interleaved_medians(
            reps,
            jobs_per_batch,
            [&mut || {
                black_box(
                    svc.try_run_all(make_jobs(jobs_per_batch))
                        .expect("pool alive"),
                );
            }],
        );
        svc.shutdown();
        println!(
            "service {workers:>2}w        {:>10.1} us/verdict ({:.0} verdicts/s)",
            ns / 1e3,
            1e9 / ns,
        );
        curve.push((workers, ns));
    }

    let one_w_ns = curve[0].1;
    let curve_json = curve
        .iter()
        .map(|&(workers, ns)| {
            format!(
                r#"    {{ "workers": {workers}, "median_ns_per_verdict": {ns:.2}, "verdicts_per_sec": {vps:.2}, "speedup_vs_1w": {speedup:.3} }}"#,
                vps = 1e9 / ns,
                speedup = one_w_ns / ns,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        r#"{{
  "generator": "verdict_service",
  "mode": "{mode}",
  "reps": {reps},
  "jobs_per_batch": {jobs_per_batch},
  "available_workers": {available},
  "force_scalar": {force_scalar},
  "direct_median_ns_per_verdict": {direct_ns:.2},
  "saturation": [
{curve_json}
  ]
}}
"#,
        mode = if cfg.quick { "quick" } else { "full" },
        force_scalar = std::env::var_os("RFBIST_FORCE_SCALAR").is_some(),
    );
    std::fs::write(&cfg.out, json).expect("write saturation curve");
    println!("wrote {}", cfg.out);
}
