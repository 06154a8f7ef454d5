//! Regenerates paper **Table I**: time-skew estimation analysis.
//!
//! Rows 1–2: the sine-fit baseline (adapted from Jamal et al. \[14\])
//! with test tones whose aliases land at ω₀ = 0.4·B and 0.46·B.
//! Rows 3–4: the paper's LMS technique started from D̂₀ = 50 ps and
//! 400 ps.
//!
//! Columns: `|D̂ − D|`, `|1 − D̂/D|`, and `Δε(f^T_D̂(t))` — the relative
//! RMS error of reconstructing the QPSK test signal with the estimate.
//!
//! Shape to reproduce: both techniques give usable estimates, but the
//! baseline is sensitive to ω₀ (the rational 0.4·B tone revisits only 5
//! phases, so quantization bias stops averaging out), while LMS is
//! sub-0.1-ps accurate regardless of the starting point and needs no
//! dedicated test tone.

use rfbist_bench::{paper_cost, paper_stimulus, print_header, print_row, Frontend};
use rfbist_converter::bptiadc::{BpTiadc, BpTiadcConfig};
use rfbist_core::jamal::{estimate_skew_jamal, test_tone_for_ratio};
use rfbist_core::lms::{estimate_skew_lms, LmsConfig};
use rfbist_core::skew::skew_error_with_reconstruction;
use rfbist_math::rng::Randomizer;
use rfbist_sampling::dualrate::DualRateConfig;
use rfbist_signal::tone::Tone;

const D_TRUE: f64 = 180e-12;
/// Number of independent noise realizations per table row.
const SEEDS: usize = 9;

fn main() {
    let dual = DualRateConfig::paper_section_v();
    let stimulus = paper_stimulus(96, 0xACE1);

    // Reconstruction capture used for the Δε column (QPSK stimulus
    // through the paper front-end at rate B).
    let mut recon_adc = BpTiadc::new(BpTiadcConfig::paper_section_v(D_TRUE));
    let recon_cap = recon_adc.capture(&stimulus, 80, 260);
    let mut rng = Randomizer::from_seed(0x7AB1);
    let band = dual.fast_band();
    let probe_lo = (80 + 31) as f64 / dual.fast_rate();
    let probe_hi = (80 + 260 - 32) as f64 / dual.fast_rate();
    let times: Vec<f64> = (0..300).map(|_| rng.uniform(probe_lo, probe_hi)).collect();

    let metrics = |d_hat: f64| {
        skew_error_with_reconstruction(D_TRUE, d_hat, band, &recon_cap, &stimulus, &times)
    };

    println!("# Table I — time-skew estimation analysis (true D = 180 ps)");
    println!("(median of {SEEDS} independent jitter/quantization realizations)");
    println!();
    print_header(&[
        "method",
        "|D_hat − D| [ps]",
        "|1 − D_hat/D| [%]",
        "delta_eps [%]",
    ]);

    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };

    // Rows 1–2: sine-fit baseline at the paper's two tone placements.
    for ratio in [0.4, 0.46] {
        let f_rf = test_tone_for_ratio(1e9, dual.fast_rate(), ratio);
        let estimates: Vec<f64> = (0..SEEDS)
            .map(|seed| {
                let mut adc =
                    BpTiadc::new(BpTiadcConfig::paper_section_v(D_TRUE).with_seed(seed as u64));
                let cap = adc.capture(&Tone::new(f_rf, 0.9, 0.37), 0, 300);
                estimate_skew_jamal(&cap, f_rf).delay
            })
            .collect();
        let med_abs = median(estimates.iter().map(|d| (d - D_TRUE).abs()).collect());
        let d_median = median(estimates.clone());
        let m = metrics(d_median);
        print_row(&[
            format!("Jamal [14], w0 = {ratio}B"),
            format!("{:.3}", med_abs * 1e12),
            format!("{:.3}", med_abs / D_TRUE * 100.0),
            format!("{:.3}", m.reconstruction_error.unwrap() * 100.0),
        ]);
    }

    // Rows 3–4: LMS from the paper's two starting points, under both
    // readings of where the 3 ps jitter physically lives (the paper's
    // Fig. 4 has a single clock generator; its sub-0.1 ps accuracy is
    // consistent with common-mode base-clock jitter, while literal
    // "time-skew jitter" on the DCDE makes the *skew itself* wander by
    // the realized mean jitter — which the estimator then correctly
    // tracks).
    for (frontend, tag) in [
        (Frontend::Paper, "skew jitter on DCDE"),
        (Frontend::PaperCommonMode, "common-mode clock jitter"),
    ] {
        for d0_ps in [50.0, 400.0] {
            let estimates: Vec<f64> = (0..SEEDS)
                .map(|seed| {
                    let cost = paper_cost(frontend, 300, 42 + seed as u64);
                    estimate_skew_lms(&cost, LmsConfig::paper_default(d0_ps * 1e-12)).estimate
                })
                .collect();
            let med_abs = median(estimates.iter().map(|d| (d - D_TRUE).abs()).collect());
            let d_median = median(estimates.clone());
            let m = metrics(d_median);
            print_row(&[
                format!("LMS, D0 = {d0_ps} ps ({tag})"),
                format!("{:.3}", med_abs * 1e12),
                format!("{:.3}", med_abs / D_TRUE * 100.0),
                format!("{:.3}", m.reconstruction_error.unwrap() * 100.0),
            ]);
        }
    }

    println!();
    println!("Paper reference values:");
    println!("| w0 = 0.4B   | 5 ps    | 2.8 % | 3.5 %  |");
    println!("| w0 = 0.46B  | 0.3 ps  | 0.1 % | 1 %    |");
    println!("| D0 = 50 ps  | <0.1 ps | <0.1% | 0.84 % |");
    println!("| D0 = 400 ps | <0.1 ps | <0.1% | 0.84 % |");
}
