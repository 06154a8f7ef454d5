//! Validates paper **eq. (4)** numerically and reproduces the
//! **eq. (5)** worked example.
//!
//! Eq. (4) predicts the relative spectral error of a PNBS
//! reconstruction whose delay estimate is off by ΔD:
//! `ΔF ≈ π·B·(k+1)·ΔD`. This binary sweeps ΔD, measures the actual
//! reconstruction error on an in-band tone, and prints both series —
//! the measured error should track the analytic line until it
//! saturates.

use rfbist_bench::{print_header, print_row};
use rfbist_math::rng::Randomizer;
use rfbist_math::stats::nrmse;
use rfbist_sampling::band::BandSpec;
use rfbist_sampling::error::{paper_eq5_example, skew_budget, spectral_error_bound};
use rfbist_sampling::gridplan::GridScratch;
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
use rfbist_signal::tone::Tone;
use rfbist_signal::traits::ContinuousSignal;

fn main() {
    let band = BandSpec::centered(1e9, 90e6);
    let d_true = 180e-12;
    let tone = Tone::new(0.9871e9, 1.0, 0.3);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / 90e6, d_true, -60, 400);
    let mut rng = Randomizer::from_seed(17);
    let times: Vec<f64> = (0..250).map(|_| rng.uniform(0.5e-6, 2.5e-6)).collect();
    let truth = tone.sample(&times);
    let mut scratch = GridScratch::new();

    println!("# Eq. (4) — reconstruction sensitivity to skew-knowledge error");
    println!("band: fc = 1 GHz, B = 90 MHz, k+1 = {}", band.k() + 1);
    println!();
    print_header(&["dD [ps]", "measured dF [%]", "analytic piB(k+1)dD [%]"]);
    for dd_ps in [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
        let dd = dd_ps * 1e-12;
        let rec = PnbsReconstructor::new_unchecked(
            band,
            d_true + dd,
            61,
            rfbist_dsp::window::Window::Kaiser(8.0),
        );
        let got = rec
            .grid_plan()
            .try_reconstruct_instants(&cap, &times, &mut scratch)
            .expect("probe times inside the capture's coverage");
        let measured = nrmse(got, &truth);
        let analytic = spectral_error_bound(band, dd);
        print_row(&[
            format!("{dd_ps:.2}"),
            format!("{:.3}", measured * 100.0),
            format!("{:.3}", analytic * 100.0),
        ]);
    }

    println!();
    println!("# Eq. (5) — worked example");
    let budget = paper_eq5_example();
    println!(
        "fc = 1 GHz, B = 80 MHz (k+1 = 25), target dF = 1 % -> dD <= {:.3} ps (paper: ~2 ps)",
        budget * 1e12
    );
    println!(
        "Same target on the Section V band (B = 90 MHz, k+1 = 23): dD <= {:.3} ps",
        skew_budget(BandSpec::centered(1e9, 90e6), 0.01) * 1e12
    );
}
