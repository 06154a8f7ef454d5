//! Paper-derived numeric invariants and property-based tests on the
//! sampling core.

use proptest::prelude::*;
use rfbist::math::rng::Randomizer;
use rfbist::math::stats::nrmse;
use rfbist::prelude::*;
use rfbist::sampling::error::{paper_eq5_example, spectral_error_bound};
use rfbist::sampling::kohlenberg::{check_delay, forbidden_delays, optimal_delay};
use rfbist::sampling::pbs;

#[test]
fn section_v_constants() {
    // fl = 955 MHz, k = 22, k+ = 23
    let fast = BandSpec::centered(1e9, 90e6);
    assert!((fast.f_lo() - 955e6).abs() < 1.0);
    assert_eq!(fast.k(), 22);
    assert_eq!(fast.k_plus(), 23);
    // B1 = 45 MHz band: k1 = 44
    let slow = BandSpec::centered(1e9, 45e6);
    assert_eq!(slow.k(), 44);
    // m = 483 ps, paper's D = 180 ps admissible, optimal D = 250 ps
    let dual = DualRateConfig::paper_section_v();
    assert!((dual.m_bound() * 1e12 - 483.09).abs() < 0.1);
    assert!(check_delay(fast, 180e-12).is_ok());
    assert!((optimal_delay(fast) * 1e12 - 250.0).abs() < 1e-6);
    // eq. 5: ΔD ≈ 2 ps for 1 % at fc = 1 GHz, B = 80 MHz
    assert!(paper_eq5_example() < 2.1e-12);
}

/// Eq. (4) across the builtin deployments' carriers, through the
/// planned grid: each deployment's band and analysis grid (the 3/10,
/// 9/400, 9/500 and 9/650 lattices of the 90 MHz sampler) reconstructed
/// by the engine's block feed with rows built for `D̂ = D + ΔD`, against
/// the analytic tone. The relative error must sit in
/// `[bound/3, bound]`. Measured err/bound: 0.66–0.72 on the four bands
/// with `k ≥ 22`, near the `1/√2` of a tone's RMS error against eq. 4's
/// peak relative error; 0.39–0.75 on gsm-like's `k = 2` band, where
/// the `k + 1` factor is coarse and the ratio follows the tone's place
/// in the band.
#[test]
fn eq4_bound_tracks_grid_error_on_every_deployment() {
    let fast_start = BistConfig::paper_default().fast_start;
    let b = 90e6;
    for dep in Deployment::builtin_five() {
        let band = BandSpec::centered(dep.carrier_hz, b);
        let d = dep.delay_target();
        let step = 1.0 / dep.grid_rate;
        for rel_tone in [0.2, 0.8] {
            let tone = Tone::new(band.f_lo() + rel_tone * b, 1.0, 0.7);
            let cap = NonuniformCapture::from_signal(&tone, 1.0 / b, d, fast_start, dep.fast_len);
            for dd_ps in [0.5, 2.0, 8.0] {
                let rec =
                    PnbsReconstructor::paper_default(band, d + dd_ps * 1e-12).expect("valid delay");
                let (lo, hi) = rec.coverage(&cap).expect("capture covers the taps");
                let n = dep.grid_len.min(((hi - lo) / step) as usize);
                let mut scratch = GridScratch::new();
                let mut blocks = rec.reconstruct_blocks(&cap, lo, step, n, &mut scratch);
                let (mut got, mut want) = (Vec::with_capacity(n), Vec::with_capacity(n));
                while let Some(block) = blocks.next_block() {
                    for &v in block {
                        want.push(tone.eval(lo + got.len() as f64 * step));
                        got.push(v);
                    }
                }
                let ratio = nrmse(&got, &want) / spectral_error_bound(band, dd_ps * 1e-12);
                assert!(
                    (1.0 / 3.0..=1.0).contains(&ratio),
                    "{} tone at {rel_tone} of B, ΔD = {dd_ps} ps: err/bound {ratio:.3}",
                    dep.standard
                );
            }
        }
    }
}

#[test]
fn forbidden_delays_sit_outside_search_interval() {
    // By construction of m, no kernel singularity lies inside ]0, m[
    // for either rate — the property that makes the LMS search safe.
    let dual = DualRateConfig::paper_section_v();
    let m = dual.m_bound();
    for band in [dual.fast_band(), dual.slow_band()] {
        let inside = forbidden_delays(band, m * 0.999);
        assert!(
            inside.is_empty(),
            "forbidden delays {inside:?} inside ]0, m[ for {band}"
        );
    }
}

proptest! {
    // CI budget: 12 cases per property, and a pinned generation seed so
    // any failure reproduces identically on every machine.
    #![proptest_config(ProptestConfig::with_cases_and_seed(12, 0xDA7E_2014))]

    /// PNBS reconstructs any in-band tone placed anywhere in any
    /// reasonably-positioned band, for any valid delay.
    #[test]
    fn pnbs_reconstructs_random_inband_tones(
        fc_mhz in 300.0f64..2500.0,
        rel_tone in 0.15f64..0.85,
        rel_delay in 0.1f64..0.9,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let b = 90e6;
        let band = BandSpec::centered(fc_mhz * 1e6, b);
        let m = 1.0 / (band.k_plus() as f64 * b);
        let d = rel_delay * m;
        prop_assume!(check_delay(band, d).is_ok());
        let f_tone = band.f_lo() + rel_tone * b;
        let tone = Tone::new(f_tone, 1.0, phase);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / b, d, -50, 350);
        let rec = PnbsReconstructor::paper_default(band, d).expect("valid delay");
        let mut rng = Randomizer::from_seed(11);
        let times: Vec<f64> = (0..60).map(|_| rng.uniform(0.5e-6, 2.0e-6)).collect();
        let err = nrmse(&rec.reconstruct(&cap, &times), &tone.sample(&times));
        prop_assert!(err < 0.02, "nrmse {} for band {} tone {}", err, band, f_tone);
    }

    /// Eq. (4): measured reconstruction error grows linearly with the
    /// delay-knowledge error, within a factor of the analytic bound.
    #[test]
    fn eq4_bound_tracks_measured_error(dd_ps in 0.5f64..8.0) {
        let band = BandSpec::centered(1e9, 90e6);
        let d = 180e-12;
        let tone = Tone::unit(0.9871e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / 90e6, d, -50, 350);
        let rec = PnbsReconstructor::paper_default(band, d + dd_ps * 1e-12)
            .expect("valid delay");
        let mut rng = Randomizer::from_seed(13);
        let times: Vec<f64> = (0..60).map(|_| rng.uniform(0.5e-6, 2.0e-6)).collect();
        let err = nrmse(&rec.reconstruct(&cap, &times), &tone.sample(&times));
        let bound = spectral_error_bound(band, dd_ps * 1e-12);
        // same order: within 3x either way
        prop_assert!(err < 3.0 * bound, "err {} vs bound {}", err, bound);
        prop_assert!(err > bound / 3.0, "err {} vs bound {}", err, bound);
    }

    /// PBS feasibility is consistent: rates inside a valid wedge are
    /// alias-free, rates between wedges are not.
    #[test]
    fn pbs_wedges_partition_rates(flo_rel in 1.0f64..20.0) {
        let b = 30e6;
        let band = BandSpec::new(flo_rel * b, flo_rel * b + b);
        let ranges = pbs::valid_rate_ranges(band);
        for w in &ranges {
            if w.fs_max.is_finite() {
                let mid = 0.5 * (w.fs_min + w.fs_max);
                prop_assert!(pbs::is_alias_free(band, mid));
            }
        }
        // midpoints BETWEEN consecutive wedges alias
        for pair in ranges.windows(2) {
            if pair[0].fs_max.is_finite() {
                let gap_mid = 0.5 * (pair[0].fs_max + pair[1].fs_min);
                if gap_mid > pair[0].fs_max && gap_mid < pair[1].fs_min {
                    prop_assert!(!pbs::is_alias_free(band, gap_mid));
                }
            }
        }
    }

    /// The quantizer never moves a sample by more than half an LSB
    /// (inside range) and is monotone.
    #[test]
    fn quantizer_monotone_and_bounded(
        bits in 4u32..14,
        a in -0.999f64..0.999,
        b in -0.999f64..0.999,
    ) {
        use rfbist::converter::quantizer::Quantizer;
        let q = Quantizer::new(bits, 1.0);
        // The half-LSB bound only holds below the clip point: the top
        // code sits at (2^b/2 − 1)·lsb, so inputs between it and ±FS
        // legitimately move by up to a full LSB when clipped.
        if !q.clips(a) {
            prop_assert!((q.quantize(a) - a).abs() <= q.lsb() / 2.0 + 1e-15);
        }
        if a <= b {
            prop_assert!(q.quantize(a) <= q.quantize(b));
        }
    }
}
