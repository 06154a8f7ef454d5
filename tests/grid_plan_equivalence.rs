//! Equivalence suite for planned PNBS reconstruction on uniform grids:
//! `PnbsGridPlan::try_reconstruct_grid` (phase-major reconstruction, on
//! the step's rational lattice or the one-period lattice) must match both
//! the plan's arbitrary-instant order (`try_reconstruct_instants`) and the direct
//! eq. 6 evaluation (`*_reference`) to ≤ 1e-9 on the
//! paper's Section V fixtures — including long grids that exercise the
//! grid-step rotors' renormalization/re-seed machinery, grids that land
//! exactly on sample instants (the kernel-origin branch), random
//! band/delay/step combinations, and the analysis grid of every
//! builtin deployment, checked against the direct reference.

mod common;

use proptest::prelude::*;
use rfbist::dsp::simd::Arm;
use rfbist::dsp::window::Window;
use rfbist::math::stats::nrmse;
use rfbist::prelude::*;
use rfbist::sampling::gridplan::{FEED_CHUNK_LEN, SUPER_BLOCK_LEN};
use rfbist::sampling::kohlenberg::check_delay;

const FC: f64 = 1e9;
const B: f64 = 90e6;
const D: f64 = 180e-12;
/// The suite's equivalence budget (the ISSUE's acceptance bound).
const TOL: f64 = 1e-9;

fn band() -> BandSpec {
    BandSpec::centered(FC, B)
}

fn grid_times(t0: f64, step: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| t0 + i as f64 * step).collect()
}

/// Asserts grid-plan, per-point-planned and reference agreement on one
/// capture over the uniform grid `t0, t0 + step, …`.
fn assert_grid_equivalent(
    rec: &PnbsReconstructor,
    cap: &NonuniformCapture,
    t0: f64,
    step: f64,
    n: usize,
) {
    let mut grid_scratch = GridScratch::new();
    let grid = rec
        .try_reconstruct_grid(cap, t0, step, n, &mut grid_scratch)
        .unwrap()
        .to_vec();
    let times = grid_times(t0, step, n);
    let mut batch_scratch = GridScratch::new();
    let batch = rec
        .grid_plan()
        .try_reconstruct_instants(cap, &times, &mut batch_scratch)
        .unwrap();
    let mut reference = Vec::with_capacity(n);
    for (i, &t) in times.iter().enumerate() {
        let r = rec.try_reconstruct_at_reference(cap, t).unwrap();
        assert!(
            (grid[i] - batch[i]).abs() <= TOL,
            "grid vs per-point at t = {t:e}: {} vs {} (diff {:e})",
            grid[i],
            batch[i],
            (grid[i] - batch[i]).abs()
        );
        assert!(
            (grid[i] - r).abs() <= TOL,
            "grid vs reference at t = {t:e}: {} vs {r} (diff {:e})",
            grid[i],
            (grid[i] - r).abs()
        );
        reference.push(r);
    }
    let err = nrmse(&grid, &reference);
    assert!(err <= TOL, "nrmse {err:e} above the 1e-9 budget");
}

/// Asserts the runtime-dispatched grid producer (AVX-512/AVX2 + FMA where
/// detected) against the scalar kernel pinned in-process via the
/// `try_reconstruct_grid_on(Arm::Portable, ..)` hook. On hosts without
/// the features — or under `RFBIST_FORCE_SCALAR` — both sides run the
/// same scalar kernel and the comparison degenerates to bit-equality,
/// so the suite is green on every CI leg.
fn assert_simd_matches_scalar(
    rec: &PnbsReconstructor,
    cap: &NonuniformCapture,
    t0: f64,
    step: f64,
    n: usize,
) {
    let plan = rec.grid_plan();
    let mut dispatched_scratch = GridScratch::new();
    let dispatched = plan
        .try_reconstruct_grid(cap, t0, step, n, &mut dispatched_scratch)
        .expect("grid inside coverage")
        .to_vec();
    let mut scalar_scratch = GridScratch::new();
    let scalar = plan
        .try_reconstruct_grid_on(Arm::Portable, cap, t0, step, n, &mut scalar_scratch)
        .expect("grid inside coverage");
    for i in 0..n {
        assert!(
            (dispatched[i] - scalar[i]).abs() <= TOL,
            "dispatched vs scalar at point {i}: {} vs {} (diff {:e})",
            dispatched[i],
            scalar[i],
            (dispatched[i] - scalar[i]).abs()
        );
    }
    let err = nrmse(&dispatched, scalar);
    assert!(
        err <= TOL,
        "simd-vs-scalar nrmse {err:e} above the 1e-9 budget"
    );
}

#[test]
fn simd_grid_matches_scalar_grid_on_fixture_grids() {
    let tone = Tone::unit(0.98e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -60, 400);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    // Long grid: crosses many 256-point re-seed boundaries, so rotor
    // renormalization drift in either kernel would surface.
    assert_simd_matches_scalar(&rec, &cap, 0.5e-6, 2.5e-10, 8192);
    // Short remainder tail: exercises the vector kernels' scalar
    // cleanup loop.
    assert_simd_matches_scalar(&rec, &cap, 0.7e-6, 3.1e-10, 261);
}

#[test]
fn simd_grid_matches_scalar_grid_across_windows() {
    // Smooth windows ride the planar row fill the vector kernels use;
    // the kinked Bartlett shape must agree trivially (both sides fall
    // back to the scalar row fill).
    let tone = Tone::unit(1.01e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -120, 600);
    for (taps, window) in [
        (61usize, Window::Kaiser(8.0)),
        (21, Window::Kaiser(5.0)),
        (61, Window::Hann),
        (61, Window::BlackmanHarris),
        (61, Window::Bartlett),
    ] {
        let rec = PnbsReconstructor::new(band(), D, taps, window).unwrap();
        assert_simd_matches_scalar(&rec, &cap, 1.1e-6, 4.1e-10, 700);
    }
}

#[test]
fn tone_fixture_grid_matches_per_point_and_reference() {
    let tone = Tone::unit(0.98e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    assert_grid_equivalent(&rec, &cap, 0.6e-6, 2.5e-10, 1500);
}

#[test]
fn qpsk_fixture_grid_matches_per_point_and_reference() {
    let tx = common::paper_stimulus(96);
    let cap = NonuniformCapture::from_signal(&tx, 1.0 / B, D, 80, 350);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    let (t0, t1) = tx.steady_time_range();
    let (c0, c1) = rec.coverage(&cap).unwrap();
    let lo = t0.max(c0);
    let hi = t1.min(c1);
    let n = 800;
    let step = (hi - lo) / n as f64;
    assert_grid_equivalent(&rec, &cap, lo + 0.5 * step, step, n);
}

#[test]
fn wrong_delay_estimates_grid_matches_per_point() {
    // The equivalence must hold where the reconstruction itself is bad
    // (D̂ ≠ D) — grid-probed cost functions spend most evaluations there.
    let tone = Tone::unit(0.99e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
    for wrong_ps in [-40.0, -10.0, 10.0, 60.0, 150.0] {
        let d_hat = D + wrong_ps * 1e-12;
        let rec = PnbsReconstructor::new_unchecked(band(), d_hat, 61, Window::Kaiser(8.0));
        assert_grid_equivalent(&rec, &cap, 0.7e-6, 3.3e-10, 600);
    }
}

#[test]
fn long_grid_survives_rotor_renormalization_drift() {
    // ≥ 4096 points: the time phasors cross many renormalization and
    // exact-re-seed boundaries (every 256 points); drift must stay far
    // inside the 1e-9 budget across the whole grid. 8192 points at the
    // engine's 4 GHz analysis rate also covers the BistEngine workload
    // shape.
    let tone = Tone::unit(1.01e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -60, 400);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    assert_grid_equivalent(&rec, &cap, 0.5e-6, 2.5e-10, 8192);
}

#[test]
fn grid_on_sample_instants_hits_origin_branch() {
    // t0 an exact multiple of T with a commensurate step: grid points
    // land exactly on sample instants, where the kernel takes its
    // origin limit rather than the factored 1/τ form.
    let tone = Tone::unit(0.97e9);
    let t_s = 1.0 / B;
    let cap = NonuniformCapture::from_signal(&tone, t_s, D, -50, 350);
    let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
    assert_grid_equivalent(&rec, &cap, 80.0 * t_s, t_s / 8.0, 512);
}

#[test]
fn nondefault_taps_and_windows_grid_matches() {
    // Includes the kinked Bartlett shape, which exercises the window
    // table's direct-sampler fallback inside the grid producer.
    let tone = Tone::unit(1.01e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -120, 600);
    for (taps, window) in [
        (21usize, Window::Kaiser(5.0)),
        (121, Window::Kaiser(12.0)),
        (61, Window::Hann),
        (61, Window::Rectangular),
        (61, Window::Bartlett),
        (61, Window::BlackmanHarris),
    ] {
        let rec = PnbsReconstructor::new(band(), D, taps, window).unwrap();
        assert_grid_equivalent(&rec, &cap, 1.1e-6, 4.1e-10, 400);
    }
}

#[test]
fn integer_positioned_band_grid_matches() {
    // B = 80 MHz at 1 GHz: the s₀ term vanishes; the factored tables
    // must carry zero weights for the dropped family.
    let band80 = BandSpec::centered(FC, 80e6);
    let tone = Tone::unit(0.99e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / 80e6, 200e-12, -50, 350);
    let rec = PnbsReconstructor::paper_default(band80, 200e-12).unwrap();
    assert_grid_equivalent(&rec, &cap, 0.6e-6, 2.9e-10, 700);
}

#[test]
fn grid_probed_cost_matches_reference_across_candidates() {
    // End-to-end: a grid-probed dual-rate cost evaluated through its
    // probe sums equals the direct-reference cost to 1e-9 at every
    // candidate of a Fig. 5 sweep, on ideal captures, through the
    // paper's front-end (10-bit converters, 3 ps rms skew jitter) and
    // on the gsm-like deployment (m = T/3 on the fast capture), and to
    // 1e-10 relative at the clamp edges, where ε reaches ~1e5.
    let ideal = common::grid_probed(&common::paper_cost_fixture(80, 27), 80);
    let noisy = common::grid_probed(&common::paper_frontend_cost_fixture(300, 42), 300);
    let gsm = common::grid_probed(&common::gsm_cost_fixture(300, 42), 300);
    for (cost, n) in [(&ideal, 24), (&noisy, 24), (&gsm, 99)] {
        let candidates = cost.try_sweep_candidates(n).unwrap();
        let planned = cost.eval_grid(&candidates);
        let reference: Vec<f64> = candidates
            .iter()
            .map(|&d| cost.evaluate_reference(d))
            .collect();
        for (i, &d) in candidates.iter().enumerate() {
            assert!(
                (planned[i] - reference[i]).abs() <= TOL,
                "{} probes, candidate {:.1} ps: grid {} vs reference {}",
                cost.times().len(),
                d * 1e12,
                planned[i],
                reference[i]
            );
        }
        let err = nrmse(&planned, &reference);
        assert!(err <= TOL, "cost-grid nrmse {err:e}");
        common::assert_clamp_edges_match_reference(cost);
    }
}

proptest! {
    // Pinned seed and a modest case budget, matching the repo's other
    // property suites.
    #![proptest_config(ProptestConfig::with_cases_and_seed(16, 0x2026_0731))]

    /// Grid reconstruction equals the per-instant order over random
    /// bands, admissible delays and grid steps — including steps
    /// commensurate and incommensurate with the sample period, and
    /// grids dense enough to put many points inside one period.
    #[test]
    fn random_band_delay_step_grid_matches_per_point(
        fc_mhz in 300.0f64..2500.0,
        b_mhz in 40.0f64..120.0,
        rel_delay in 0.1f64..0.9,
        rel_tone in 0.15f64..0.85,
        step_frac in 0.021f64..0.9,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let b = b_mhz * 1e6;
        let band = BandSpec::centered(fc_mhz * 1e6, b);
        let m = 1.0 / (band.k_plus() as f64 * b);
        let d = rel_delay * m;
        prop_assume!(check_delay(band, d).is_ok());
        let tone = Tone::new(band.f_lo() + rel_tone * b, 1.0, phase);
        let t_s = 1.0 / b;
        let cap = NonuniformCapture::from_signal(&tone, t_s, d, -50, 350);
        let rec = PnbsReconstructor::paper_default(band, d).expect("valid delay");
        let step = step_frac * t_s;
        let n = 200;
        let t0 = 0.6e-6;
        let mut grid_scratch = GridScratch::new();
        let grid = rec
            .try_reconstruct_grid(&cap, t0, step, n, &mut grid_scratch)
            .unwrap()
            .to_vec();
        let times = grid_times(t0, step, n);
        let mut batch_scratch = GridScratch::new();
        let batch = rec
            .grid_plan()
            .try_reconstruct_instants(&cap, &times, &mut batch_scratch)
            .unwrap();
        for i in 0..n {
            prop_assert!(
                (grid[i] - batch[i]).abs() <= TOL,
                "band {} D {:e} step {:e}: point {} diff {:e}",
                band, d, step, i, (grid[i] - batch[i]).abs()
            );
        }
    }

    /// The runtime-dispatched SIMD producer equals the in-process scalar
    /// kernel over random bands, admissible delays and grid steps —
    /// NRMSE within the 1e-9 budget at every sampled configuration
    /// (bit-equal wherever no vector unit is dispatched).
    #[test]
    fn simd_grid_matches_scalar_over_random_band_delay_step(
        fc_mhz in 300.0f64..2500.0,
        b_mhz in 40.0f64..120.0,
        rel_delay in 0.1f64..0.9,
        rel_tone in 0.15f64..0.85,
        step_frac in 0.021f64..0.9,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let b = b_mhz * 1e6;
        let band = BandSpec::centered(fc_mhz * 1e6, b);
        let m = 1.0 / (band.k_plus() as f64 * b);
        let d = rel_delay * m;
        prop_assume!(check_delay(band, d).is_ok());
        let tone = Tone::new(band.f_lo() + rel_tone * b, 1.0, phase);
        let t_s = 1.0 / b;
        let cap = NonuniformCapture::from_signal(&tone, t_s, d, -50, 350);
        let rec = PnbsReconstructor::paper_default(band, d).expect("valid delay");
        assert_simd_matches_scalar(&rec, &cap, 0.6e-6, step_frac * t_s, 200);
    }
}

/// The analysis-grid geometry of one builtin deployment, as the engine
/// plans it: its carrier and grid on the fixed 90 MHz sampler, the
/// `D = 1/(4·fc)` DCDE target, `t0` at the coverage start (a sample
/// instant) and the grid clipped to the coverage.
struct DeploymentGrid {
    standard: String,
    rec: PnbsReconstructor,
    cap: NonuniformCapture,
    t0: f64,
    step: f64,
    n: usize,
    /// Sample periods per grid step, `p/q`.
    ratio: (usize, usize),
}

fn deployment_grids() -> Vec<DeploymentGrid> {
    let fast_start = BistConfig::paper_default().fast_start;
    Deployment::builtin_five()
        .into_iter()
        .map(|dep| {
            let fc = dep.carrier_hz;
            let band = BandSpec::centered(fc, B);
            let d = dep.delay_target();
            // two in-band tones, off the carrier and each other's
            // harmonics
            let sig = MultiTone::new(vec![
                Tone::new(fc - 0.31 * B, 1.0, 0.4),
                Tone::new(fc + 0.17 * B, 0.6, 1.3),
            ]);
            let cap = NonuniformCapture::from_signal(&sig, 1.0 / B, d, fast_start, dep.fast_len);
            let rec = PnbsReconstructor::paper_default(band, d).expect("DCDE target is admissible");
            let (lo, hi) = rec.coverage(&cap).expect("capture covers the taps");
            let step = 1.0 / dep.grid_rate;
            let n = dep.grid_len.min(((hi - lo) / step) as usize);
            // step/T = B/grid_rate in lowest terms
            let (p, q) = ((B / 1e6) as usize, (dep.grid_rate / 1e6) as usize);
            let g = (1..=p)
                .rev()
                .find(|g| p % g == 0 && q % g == 0)
                .unwrap_or(1);
            DeploymentGrid {
                standard: dep.standard,
                rec,
                cap,
                t0: lo,
                step,
                n,
                ratio: (p / g, q / g),
            }
        })
        .collect()
}

/// Drains the default block feed, or the early-stop feed when
/// `stoppable`, over the grid's first `n` points.
fn block_feed(
    g: &DeploymentGrid,
    n: usize,
    stoppable: bool,
    scratch: &mut GridScratch,
) -> Vec<f64> {
    let mut blocks = if stoppable {
        g.rec
            .grid_plan()
            .try_reconstruct_stoppable_blocks(&g.cap, g.t0, g.step, n, scratch)
            .unwrap()
    } else {
        g.rec.reconstruct_blocks(&g.cap, g.t0, g.step, n, scratch)
    };
    let mut got = Vec::with_capacity(n);
    while let Some(block) = blocks.next_block() {
        got.extend_from_slice(block);
    }
    got
}

#[test]
fn deployment_grids_match_the_direct_reference() {
    let grids = deployment_grids();
    let ratios: Vec<(usize, usize)> = grids.iter().map(|g| g.ratio).collect();
    assert_eq!(
        ratios,
        [(3, 10), (9, 400), (9, 400), (9, 500), (9, 650)],
        "builtin grid ratios"
    );
    for g in &grids {
        let got = block_feed(g, g.n, false, &mut GridScratch::new());
        assert_eq!(got.len(), g.n);
        // The tie residue: t0 is a sample instant, so the residue with
        // r·p ≡ q/2 (mod q) sits half a sample off, where round(t/T)
        // follows float noise point by point.
        let (p, q) = g.ratio;
        let tie = (0..q)
            .find(|r| r * p % q == q / 2)
            .expect("even q has a tie");
        let checked = (0..g.n).step_by(97).chain((tie..g.n).step_by(q));
        for i in checked {
            let t = g.t0 + i as f64 * g.step;
            let want = g
                .rec
                .try_reconstruct_at_reference(&g.cap, t)
                .expect("grid inside coverage");
            assert!(
                (got[i] - want).abs() <= TOL,
                "{} point {i}: {} vs reference {want} (diff {:e})",
                g.standard,
                got[i],
                (got[i] - want).abs()
            );
        }
    }
}

#[test]
fn deployment_block_feeds_are_bit_identical_to_batch_grids() {
    for g in deployment_grids() {
        let mut scratch = GridScratch::new();
        let batch = g
            .rec
            .try_reconstruct_grid(&g.cap, g.t0, g.step, g.n, &mut scratch)
            .unwrap()
            .to_vec();
        for stoppable in [false, true] {
            let streamed = block_feed(&g, g.n, stoppable, &mut scratch);
            assert_eq!(streamed, batch, "{} stoppable {stoppable}", g.standard);
        }
        // Grids cut one point either side of the early-stop feed's
        // chunk boundary and of the default feed's (and mid-way into
        // the next chunk) reproduce the full grid's prefix bit for bit,
        // through the batch and both feeds: values never depend on
        // where a chunk ends.
        let cuts = [
            SUPER_BLOCK_LEN - 1,
            SUPER_BLOCK_LEN,
            SUPER_BLOCK_LEN + 1,
            SUPER_BLOCK_LEN + 3 * GRID_BLOCK_LEN + 17,
            FEED_CHUNK_LEN - 1,
            FEED_CHUNK_LEN,
            FEED_CHUNK_LEN + 1,
            FEED_CHUNK_LEN + 3 * GRID_BLOCK_LEN + 17,
        ];
        for cut in cuts.into_iter().filter(|&c| c <= g.n) {
            let prefix = g
                .rec
                .try_reconstruct_grid(&g.cap, g.t0, g.step, cut, &mut scratch)
                .unwrap()
                .to_vec();
            assert_eq!(prefix, batch[..cut], "{} cut at {cut}", g.standard);
            for stoppable in [false, true] {
                let fed = block_feed(&g, cut, stoppable, &mut scratch);
                assert_eq!(
                    fed, prefix,
                    "{} feed cut at {cut}, stoppable {stoppable}",
                    g.standard
                );
            }
        }
    }
}
