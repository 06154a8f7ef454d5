//! Fault-coverage campaign driver: runs the Monte-Carlo campaign
//! (fault corpus × five standards × jitter profiles) and writes the
//! detection-coverage / false-alarm matrix as
//! `BENCH_fault_coverage.json`.
//!
//! ```sh
//! cargo run --release -p rfbist-bench --bin fault_coverage             # full
//! cargo run --release -p rfbist-bench --bin fault_coverage -- --quick  # gross faults, one trial
//! cargo run --release -p rfbist-bench --bin fault_coverage -- --out some.json
//! ```
//!
//! Full mode sweeps [`standard_fault_set`] at two payload trials over
//! two in-spec clock profiles (1.5 ps and the paper's 3 ps DCDE
//! jitter); quick mode keeps all five standards (the claim is
//! per-standard) but only the gross fault grades at one trial. Both modes calibrate the sampler
//! skew per (standard, jitter) cell on a wideband burst — the fix for
//! the narrowband trap where a GSM-shaped stimulus leaves the LMS
//! ~170 ps wrong while the mask still passes — and both end in the
//! acceptance self-asserts: every gross fault detected on every
//! standard, zero false alarms, calibrated skew at the picosecond
//! hardware floor. The verdicts run on the verdict-service pool, one
//! worker per available core; the matrix is the same at any worker
//! count (`taskset -c 0` pins it to one). The campaign keeps no
//! checkpoint: the full sweep takes under a second on a 2-core
//! machine, so a killed run is simply rerun.

use rfbist_core::campaign::{try_run_campaign_supervised, CampaignConfig, CampaignProgress};
use rfbist_rfchain::faults::standard_fault_set;
use std::time::Instant;

struct Config {
    quick: bool,
    out: String,
}

fn main() {
    let mut cfg = Config {
        quick: false,
        out: "BENCH_fault_coverage.json".to_string(),
    };
    let usage = "usage: fault_coverage [--quick] [--out PATH]";
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--out" => cfg.out = args.next().expect("--out requires a path"),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }

    let campaign = if cfg.quick {
        CampaignConfig::quick()
    } else {
        CampaignConfig::paper_default()
    };
    let runs_per_standard =
        campaign.trials * campaign.jitter_rms.len() * (campaign.faults.len() + 1);
    println!(
        "fault-coverage campaign ({} mode): {} standards × {} runs each ({} faults + healthy, {} trials, {} jitter profiles)",
        if cfg.quick { "quick" } else { "full" },
        campaign.deployments.len(),
        runs_per_standard,
        campaign.faults.len(),
        campaign.trials,
        campaign.jitter_rms.len(),
    );

    let mut observer = |p: &CampaignProgress| {
        println!(
            "  cell {}/{} done: {} @ {:.1} ps jitter",
            p.completed_cells,
            p.total_cells,
            p.standard,
            p.jitter_rms * 1e12
        );
        true
    };

    let t0 = Instant::now();
    let matrix = match try_run_campaign_supervised(&campaign, None, false, &mut observer) {
        Ok(matrix) => matrix,
        Err(e) => {
            eprintln!("fault_coverage: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = t0.elapsed().as_secs_f64();

    println!(
        "\n{:<24} {:>8} {:>7} {:>7} {:>10} {:>9} {:>12}",
        "standard", "healthy", "alarms", "errors", "fault runs", "detected", "skew err ps"
    );
    for s in &matrix.standards {
        println!(
            "{:<24} {:>8} {:>7} {:>7} {:>10} {:>9} {:>12.3}",
            s.standard,
            s.healthy_runs,
            s.false_alarms,
            s.errored_runs,
            s.fault_runs(),
            s.detected(),
            s.worst_skew_error * 1e12,
        );
    }
    println!(
        "\noverall detection {:.1} % | gross detection {:.1} % | false alarms {:.1} % | worst skew {:.3} ps | {:.1} s",
        matrix.overall_detection_rate() * 100.0,
        matrix.gross_detection_rate() * 100.0,
        matrix.overall_false_alarm_rate() * 100.0,
        matrix.worst_skew_error() * 1e12,
        elapsed,
    );

    std::fs::write(&cfg.out, matrix.to_json()).expect("write coverage matrix");
    println!("wrote {}", cfg.out);

    // acceptance self-asserts — a red exit code is the point of a
    // coverage campaign
    assert_eq!(
        matrix.gross_detection_rate(),
        1.0,
        "a gross fault escaped on some standard"
    );
    assert_eq!(
        matrix.overall_false_alarm_rate(),
        0.0,
        "a healthy unit was condemned"
    );
    let errored: usize = matrix.standards.iter().map(|s| s.errored_runs).sum();
    assert_eq!(errored, 0, "{errored} runs errored out instead of scoring");
    assert!(
        matrix.worst_skew_error() < 2.5e-12,
        "calibrated skew error {} ps exceeds the 2.5 ps hardware floor",
        matrix.worst_skew_error() * 1e12
    );
    if !cfg.quick {
        // the graded corpus deliberately includes marginal severities
        // (−1 dB gain steps, small IQ errors) that sit below both the
        // mask and the golden-comparison floor — that frontier is the
        // campaign's product, not a defect. The floor only pins the
        // measured rate against regression (84.0 % at this corpus).
        let rate = matrix.overall_detection_rate();
        assert!(
            rate >= 0.8,
            "graded-corpus detection fell to {:.1} % (corpus size {})",
            rate * 100.0,
            standard_fault_set().len()
        );
    }
    println!("fault_coverage: all acceptance gates green");
}
