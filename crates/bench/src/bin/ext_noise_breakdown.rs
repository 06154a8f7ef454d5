//! **Extension experiment**: decomposition of the LMS skew-estimation
//! error into its front-end causes.
//!
//! Runs the estimator under combinations of quantizer resolution and
//! jitter model/placement, reporting median |D̂ − D| across seeds.
//! This explains the gap between the paper's "< 0.1 ps" Table I entry
//! and what a literal skew-jitter reading of the front-end allows: with
//! jitter *on the DCDE*, the physical skew wanders by the realized mean
//! jitter (~3 ps/√N), and no estimator can beat that floor against the
//! nominal D.

use rfbist_bench::{paper_stimulus, print_header, print_row};
use rfbist_converter::bptiadc::{BpTiadc, BpTiadcConfig, JitterPlacement};
use rfbist_converter::clock::JitterModel;
use rfbist_core::cost::DualRateCost;
use rfbist_core::lms::{estimate_skew_lms, LmsConfig};
use rfbist_sampling::dualrate::DualRateConfig;

const SEEDS: u64 = 7;

fn median_err(bits: u32, jitter: JitterModel, placement: JitterPlacement) -> f64 {
    let cfg = DualRateConfig::paper_section_v();
    let tx = paper_stimulus(96, 0xACE1);
    let mut errs: Vec<f64> = (0..SEEDS)
        .map(|seed| {
            let mut fast_cfg = BpTiadcConfig::paper_section_v(cfg.delay())
                .with_seed(0x5EED ^ seed.rotate_left(17))
                .with_jitter_placement(placement);
            fast_cfg.bits = bits;
            let mut slow_cfg = fast_cfg
                .with_sample_rate(cfg.slow_rate())
                .with_seed(0x51DE ^ seed);
            slow_cfg.bits = bits;
            slow_cfg.jitter = jitter;
            fast_cfg.jitter = jitter;
            let mut fast = BpTiadc::new(fast_cfg);
            let mut slow = BpTiadc::new(slow_cfg);
            let cost = DualRateCost::paper_probes(
                fast.capture(&tx, 80, 260),
                slow.capture(&tx, 40, 160),
                cfg,
                300,
                42 + seed,
            );
            let r = estimate_skew_lms(&cost, LmsConfig::paper_default(100e-12));
            (r.estimate - cfg.delay()).abs() * 1e12
        })
        .collect();
    errs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    errs[errs.len() / 2]
}

fn main() {
    println!("# Extension — LMS skew-error breakdown by front-end effect");
    println!("(median |D_hat − D| over {SEEDS} seeds; true D = 180 ps)");
    println!();
    print_header(&["quantizer", "jitter", "placement", "median |err| [ps]"]);
    let j = JitterModel::paper_default();
    let cases: [(&str, u32, JitterModel, JitterPlacement); 5] = [
        ("24-bit", 24, JitterModel::None, JitterPlacement::DcdeOnly),
        ("10-bit", 10, JitterModel::None, JitterPlacement::DcdeOnly),
        ("24-bit", 24, j, JitterPlacement::DcdeOnly),
        ("10-bit", 10, j, JitterPlacement::DcdeOnly),
        ("10-bit", 10, j, JitterPlacement::CommonMode),
    ];
    for (qlabel, bits, jit, place) in cases {
        let jlabel = match jit {
            JitterModel::None => "none",
            JitterModel::Gaussian { .. } => "3 ps rms",
        };
        let plabel = match place {
            JitterPlacement::DcdeOnly => "DCDE (skew wanders)",
            JitterPlacement::CommonMode => "common-mode (skew exact)",
        };
        print_row(&[
            qlabel.to_string(),
            jlabel.to_string(),
            plabel.to_string(),
            format!("{:.3}", median_err(bits, jit, place)),
        ]);
    }
    println!();
    println!("Reading: quantization alone costs < 0.1 ps (the paper's Table I number);");
    println!("DCDE-placed jitter sets a physical floor ≈ 3 ps/√N that the estimator");
    println!("correctly *tracks* — its estimate follows the realized mean skew.");
}
