//! Equivalence suite for planned PNBS reconstruction at arbitrary
//! instants: the plan's per-instant order (`reconstruct_at`, and the
//! scratch-reusing `reconstruct_batch`, bit-identical to each other)
//! must match the direct eq. 6 evaluation (`*_reference`) to ≤ 1e-9 on
//! the paper's Section V fixtures — tones, the QPSK stimulus,
//! deliberately wrong delay estimates, and the random-probe dual-rate
//! cost across the whole search interval `]0, m[`.

mod common;

use proptest::prelude::*;
use rfbist::dsp::window::Window;
use rfbist::math::rng::Randomizer;
use rfbist::math::stats::nrmse;
use rfbist::prelude::*;
use rfbist::sampling::kohlenberg::check_delay;

const FC: f64 = 1e9;
const B: f64 = 90e6;
const D: f64 = 180e-12;
/// The suite's equivalence budget (the ISSUE's acceptance bound).
const TOL: f64 = 1e-9;

fn band() -> BandSpec {
    BandSpec::centered(FC, B)
}

fn probe_times(n: usize, t0: f64, t1: f64, seed: u64) -> Vec<f64> {
    let mut rng = Randomizer::from_seed(seed);
    (0..n).map(|_| rng.uniform(t0, t1)).collect()
}

/// Asserts scalar-planned, batch-planned and reference agreement on
/// one capture over `times`.
fn assert_equivalent(rec: &PnbsReconstructor, cap: &NonuniformCapture, times: &[f64]) {
    let mut scratch = GridScratch::new();
    let batch = rec.reconstruct_batch(cap, times, &mut scratch).to_vec();
    let mut planned = Vec::with_capacity(times.len());
    let mut reference = Vec::with_capacity(times.len());
    for (i, &t) in times.iter().enumerate() {
        let p = rec.reconstruct_at(cap, t);
        let r = rec.reconstruct_at_reference(cap, t);
        assert_eq!(batch[i], p, "batch vs scalar planned at t = {t:e}");
        assert!(
            (p - r).abs() <= TOL,
            "planned vs reference at t = {t:e}: {p} vs {r} (diff {:e})",
            (p - r).abs()
        );
        planned.push(p);
        reference.push(r);
    }
    let err = nrmse(&planned, &reference);
    assert!(err <= TOL, "nrmse {err:e} above the 1e-9 budget");
}

#[test]
fn tone_fixture_planned_matches_reference() {
    let tone = Tone::unit(0.98e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    assert_equivalent(&rec, &cap, &probe_times(200, 0.5e-6, 2.0e-6, 21));
}

#[test]
fn multitone_fixture_planned_matches_reference() {
    let sig = MultiTone::new(vec![
        Tone::new(0.96e9, 0.5, 0.3),
        Tone::new(0.99e9, 1.0, 1.1),
        Tone::new(1.02e9, 0.7, 2.0),
        Tone::new(1.04e9, 0.4, 0.7),
    ]);
    let cap = NonuniformCapture::from_signal(&sig, 1.0 / B, D, -50, 350);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    assert_equivalent(&rec, &cap, &probe_times(200, 0.5e-6, 2.0e-6, 22));
}

#[test]
fn qpsk_fixture_planned_matches_reference() {
    let tx = common::paper_stimulus(96);
    let cap = NonuniformCapture::from_signal(&tx, 1.0 / B, D, 80, 350);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    let (t0, t1) = tx.steady_time_range();
    let (c0, c1) = rec.coverage(&cap).unwrap();
    let times = probe_times(300, t0.max(c0), t1.min(c1), 23);
    assert_equivalent(&rec, &cap, &times);
}

#[test]
fn wrong_delay_estimate_planned_matches_reference() {
    // The equivalence must hold even where the reconstruction itself is
    // bad (D̂ ≠ D) — the cost function spends most of its evaluations
    // there.
    let tone = Tone::unit(0.99e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
    for wrong_ps in [-40.0, -10.0, 10.0, 60.0, 150.0] {
        let d_hat = D + wrong_ps * 1e-12;
        let rec = PnbsReconstructor::new_unchecked(band(), d_hat, 61, Window::Kaiser(8.0));
        assert_equivalent(&rec, &cap, &probe_times(120, 0.5e-6, 2.0e-6, 24));
    }
}

#[test]
fn nondefault_taps_and_windows_match_reference() {
    let tone = Tone::unit(1.01e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -120, 600);
    let times = probe_times(80, 1.0e-6, 2.5e-6, 25);
    for (taps, window) in [
        (21usize, Window::Kaiser(5.0)),
        (121, Window::Kaiser(12.0)),
        (61, Window::Hann),
        (61, Window::Rectangular),
        (61, Window::BlackmanHarris),
    ] {
        let rec = PnbsReconstructor::new(band(), D, taps, window).unwrap();
        assert_equivalent(&rec, &cap, &times);
    }
}

#[test]
fn integer_positioned_band_planned_matches_reference() {
    // B = 80 MHz at 1 GHz: the s₀ term vanishes and the plan drops it.
    let band80 = BandSpec::centered(FC, 80e6);
    let tone = Tone::unit(0.99e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / 80e6, 200e-12, -50, 350);
    let rec = PnbsReconstructor::paper_default(band80, 200e-12).unwrap();
    assert_equivalent(&rec, &cap, &probe_times(120, 0.5e-6, 2.0e-6, 26));
}

#[test]
fn dual_rate_cost_grid_planned_matches_reference() {
    // The Fig. 5 shape: the batched+planned grid and the preserved
    // scalar baseline must agree to 1e-9 NRMSE across ]0, m[.
    let cost = common::paper_cost_fixture(80, 27);
    let candidates = cost.sweep_candidates(24);
    let planned = cost.eval_grid(&candidates);
    let reference: Vec<f64> = candidates
        .iter()
        .map(|&d| cost.evaluate_reference(d))
        .collect();
    let err = nrmse(&planned, &reference);
    assert!(err <= TOL, "cost-grid nrmse {err:e}");
}

#[test]
fn random_probe_cost_matches_reference_across_the_search_interval() {
    // The LMS's random-probe cost on the paper fixture, at every
    // candidate of a dense sweep of ]0, m[: near the interval ends the
    // 1/sin(kπBD̂) weights amplify any phase error of the planned
    // kernel, so each probe of both captures must still sit within the
    // per-point budget, and each cost within 1e-9 of the reference.
    let cost = common::paper_cost_fixture(300, 42);
    let cfg = *cost.config();
    let planned = cost.eval_grid(&cost.sweep_candidates(99));
    for (d, planned) in cost.sweep_candidates(99).into_iter().zip(planned) {
        for (band, cap) in [
            (cfg.fast_band(), cost.fast_capture()),
            (cfg.slow_band(), cost.slow_capture()),
        ] {
            let rec = PnbsReconstructor::new_unchecked(band, d, 61, Window::Kaiser(8.0));
            assert_equivalent(&rec, cap, cost.times());
        }
        let reference = cost.evaluate_reference(d);
        assert!(
            (planned - reference).abs() <= TOL,
            "D̂ = {:.1} ps: planned cost {planned} vs reference {reference}",
            d * 1e12
        );
    }
    // The same sweep through the paper's front-end (10-bit converters,
    // 3 ps rms skew jitter), where quantization and jitter noise stay
    // in every probe sum, and on the gsm-like deployment, whose search
    // bound is a third of the fast sample period (m/T ≈ 0.043 above);
    // then the clamp edges of every fixture, where ε reaches ~1e5, to
    // a relative bound.
    let noisy = common::paper_frontend_cost_fixture(300, 42);
    let gsm = common::gsm_cost_fixture(300, 42);
    for (name, fixture) in [("paper front-end", &noisy), ("gsm-like", &gsm)] {
        let candidates = fixture.sweep_candidates(99);
        for (d, planned) in candidates.iter().zip(fixture.eval_grid(&candidates)) {
            let reference = fixture.evaluate_reference(*d);
            assert!(
                (planned - reference).abs() <= TOL,
                "{name}, D̂ = {:.1} ps: planned cost {planned} vs reference {reference}",
                d * 1e12
            );
        }
    }
    for fixture in [&cost, &noisy, &gsm] {
        common::assert_clamp_edges_match_reference(fixture);
    }
}

proptest! {
    // Pinned seed and a modest case budget, matching the repo's other
    // property suites.
    #![proptest_config(ProptestConfig::with_cases_and_seed(16, 0x2026_0730))]

    /// Planned reconstruction equals the reference on random in-band
    /// tones and random admissible delays.
    #[test]
    fn random_tone_planned_matches_reference(
        fc_mhz in 300.0f64..2500.0,
        rel_tone in 0.15f64..0.85,
        rel_delay in 0.1f64..0.9,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let band = BandSpec::centered(fc_mhz * 1e6, B);
        let m = 1.0 / (band.k_plus() as f64 * B);
        let d = rel_delay * m;
        prop_assume!(check_delay(band, d).is_ok());
        let tone = Tone::new(band.f_lo() + rel_tone * B, 1.0, phase);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, d, -50, 350);
        let rec = PnbsReconstructor::paper_default(band, d).expect("valid delay");
        let mut rng = Randomizer::from_seed(31);
        for _ in 0..40 {
            let t = rng.uniform(0.5e-6, 2.0e-6);
            let p = rec.reconstruct_at(&cap, t);
            let r = rec.reconstruct_at_reference(&cap, t);
            prop_assert!(
                (p - r).abs() <= 1e-9,
                "band {} D {:e} t {:e}: {} vs {}",
                band, d, t, p, r
            );
        }
    }
}
