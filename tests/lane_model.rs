//! The lane-model check of the eight-lane kernels: the grid plan's dot
//! product, the probe sums' rows and their evaluation, on every kernel
//! arm this host can run, bit for bit against the same kernels on a
//! scalar model of the documented lane order (`rfbist::dsp::simd`):
//! lane `i` accumulates `a[i]·b[i] + lane[i]` in call order — one
//! `f64::mul_add` per lane for the FMA arms, `*` then `+` for the
//! portable one — and the lanes reduce pairwise,
//! `((l₀ + l₄) + (l₁ + l₅)) + ((l₂ + l₆) + (l₃ + l₇))`.
//!
//! The model runs through the `*_lanes` hooks outside any
//! `#[target_feature]` recompilation, where `f64::mul_add` is libm's
//! correctly rounded `fma`: the same bits as the hardware instruction.
//! So any difference is an arm computing another function than the
//! documented one (a permuted lane, a reordered reduction), which is
//! also what would break bit-identity with earlier builds. An AVX-512
//! host checks the AVX2 arm too, the one CI's runners dispatch to.

mod common;

use common::*;
use rfbist::converter::calibration::auto_calibrate;
use rfbist::dsp::simd::{Arm, F64x8};
use rfbist::dsp::window::Window;
use rfbist::prelude::*;
use rfbist::sampling::gridplan::ProbeSums;
use rfbist::signal::tone::Tone;

/// The scalar lane model; `FUSED` picks the FMA arms' rounding.
#[derive(Clone, Copy, Debug)]
struct Model<const FUSED: bool>([f64; 8]);

const UNFUSED: Model<false> = Model([0.0; 8]);
const FUSED: Model<true> = Model([0.0; 8]);

impl<const F: bool> F64x8 for Model<F> {
    const FUSED: bool = F;

    fn zero(self) -> Self {
        Model([0.0; 8])
    }

    fn mul_add(self, a: &[f64; 8], b: &[f64; 8]) -> Self {
        let mut lanes = self.0;
        for i in 0..8 {
            lanes[i] = if F {
                a[i].mul_add(b[i], lanes[i])
            } else {
                a[i] * b[i] + lanes[i]
            };
        }
        Model(lanes)
    }

    fn sum(self) -> f64 {
        let [l0, l1, l2, l3, l4, l5, l6, l7] = self.0;
        ((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7))
    }
}

/// Every arm this CPU can run.
fn arms() -> Vec<Arm> {
    let arms: Vec<Arm> = [Arm::Portable, Arm::Avx2, Arm::Avx512]
        .into_iter()
        .filter(|arm| arm.supported())
        .collect();
    assert!(arms.contains(&Arm::detect()));
    arms
}

fn assert_bits_eq(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: lengths");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}, value {i}: {g:e} vs {w:e}"
        );
    }
}

/// One grid on every arm against the model, and the dispatched grid
/// against its arm's.
fn check_grid(
    name: &str,
    plan: &PnbsGridPlan,
    cap: &NonuniformCapture,
    (t0, step, n): (f64, f64, usize),
) {
    let (mut scratch, mut model) = (GridScratch::new(), GridScratch::new());
    for arm in arms() {
        let got = plan
            .try_reconstruct_grid_on(arm, cap, t0, step, n, &mut scratch)
            .expect("grid inside coverage");
        let want = if arm == Arm::Portable {
            plan.try_reconstruct_grid_lanes(UNFUSED, cap, t0, step, n, &mut model)
        } else {
            plan.try_reconstruct_grid_lanes(FUSED, cap, t0, step, n, &mut model)
        }
        .expect("grid inside coverage");
        assert_eq!(got.len(), n);
        assert_bits_eq(&format!("{name} grid, {arm:?} arm"), got, want);
    }
    let dispatched = plan
        .try_reconstruct_grid(cap, t0, step, n, &mut scratch)
        .expect("grid inside coverage")
        .to_vec();
    let on_arm = plan
        .try_reconstruct_grid_on(Arm::detect(), cap, t0, step, n, &mut model)
        .expect("grid inside coverage");
    assert_bits_eq(&format!("{name} grid, dispatched"), &dispatched, on_arm);
}

#[test]
fn section_v_grid_matches_the_lane_model_on_every_arm() {
    // the engine's fast capture and analysis grid of the Section V DUT
    let cfg = BistConfig::paper_default();
    let dut = paper_tx(TxImpairments::typical()).rf_output();
    let raw = BpTiadc::new(cfg.frontend_fast).capture(&dut, cfg.fast_start, cfg.fast_len);
    let (cap, _) = auto_calibrate(&raw);
    let plan = PnbsGridPlan::new(
        cfg.dual.fast_band(),
        cfg.dual.delay(),
        61,
        Window::Kaiser(8.0),
    );
    let (lo, hi) = plan.coverage(&cap).expect("capture covers the tap window");
    let step = 1.0 / cfg.grid_rate;
    let n = cfg.grid_len.min(((hi - lo) / step) as usize);
    assert_eq!(n, 12288);
    check_grid("Section V", &plan, &cap, (lo, step, n));
}

#[test]
fn tie_residue_grid_matches_the_lane_model_on_every_arm() {
    // t0 on a sample instant and step 9T/400: one residue sits half a
    // sample off, so some of its points take the second, shifted row;
    // two super-blocks, 21 taps (two whole chunks and a tail) and 61
    let b = 90e6;
    let band = BandSpec::centered(1e9, b);
    let t_s = 1.0 / b;
    let cap = NonuniformCapture::from_signal(&Tone::unit(1.01e9), t_s, 180e-12, -50, 800);
    for taps in [61, 21] {
        let plan = PnbsGridPlan::new(band, 180e-12, taps, Window::Kaiser(8.0));
        check_grid(
            &format!("tie-residue {taps}-tap"),
            &plan,
            &cap,
            (80.0 * t_s, 2.5e-10, 16000),
        );
    }
}

#[test]
fn probe_sums_match_the_lane_model_on_every_arm() {
    let cost = paper_cost_fixture(300, 7);
    let cfg = *cost.config();
    let m = cfg.m_bound();
    let candidates: Vec<f64> = (1..40).map(|i| m * i as f64 / 40.0).collect();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (band, cap, rate) in [
        (cfg.fast_band(), cost.fast_capture(), "fast"),
        (cfg.slow_band(), cost.slow_capture(), "slow"),
    ] {
        for arm in arms() {
            let sums = ProbeSums::try_new_on(arm, band, cap, cost.times(), m).expect("covered");
            assert!(
                sums.exact_taps() > 0,
                "the {rate} fixture must have exact taps"
            );
            let model = if arm == Arm::Portable {
                ProbeSums::try_new_lanes(UNFUSED, band, cap, cost.times(), m)
            } else {
                ProbeSums::try_new_lanes(FUSED, band, cap, cost.times(), m)
            }
            .expect("covered");
            assert_eq!(sums.exact_taps(), model.exact_taps());
            assert_bits_eq(
                &format!("{rate} probe rows, {arm:?} arm"),
                sums.rows(),
                model.rows(),
            );
            for &d in &candidates {
                sums.eval_into_on(arm, d, &mut got);
                if arm == Arm::Portable {
                    sums.eval_into_lanes(UNFUSED, d, &mut want);
                } else {
                    sums.eval_into_lanes(FUSED, d, &mut want);
                }
                let what = format!("{rate} probe values at {:.1} ps, {arm:?} arm", d * 1e12);
                assert_bits_eq(&what, &got, &want);
            }
        }
        let dispatched = ProbeSums::try_new(band, cap, cost.times(), m).expect("covered");
        let on_arm =
            ProbeSums::try_new_on(Arm::detect(), band, cap, cost.times(), m).expect("covered");
        assert_bits_eq(
            &format!("{rate} rows, dispatched"),
            dispatched.rows(),
            on_arm.rows(),
        );
        dispatched.eval_into(candidates[7], &mut got);
        on_arm.eval_into_on(Arm::detect(), candidates[7], &mut want);
        assert_bits_eq(&format!("{rate} values, dispatched"), &got, &want);
    }
}
