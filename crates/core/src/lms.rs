//! The LMS time-skew estimator (paper Algorithm 1).
//!
//! A normalized steepest-descent search on the dual-rate cost with
//! finite-difference gradients and a variable step:
//!
//! 1. gradient by finite differences (the paper's eq. 10 replaces the
//!    intractable analytic derivative with a finite difference; this
//!    implementation uses a *symmetric* local difference with a probe
//!    width tied to the current step, which preserves the algorithm's
//!    cost/behaviour while avoiding the secant's wrong-way sign when an
//!    iterate straddles the minimum),
//! 2. normalized update `D̂ᵢ₊₁ = D̂ᵢ − µ·∇ᵢ / max|∇ᵢ|` (eq. 11) — the
//!    normalization reduces the gradient to its sign, so µ is directly
//!    the step in seconds,
//! 3. if the cost increased: halve µ and retry the update (Algorithm 1
//!    step 5's "go to Step 3"), otherwise double µ (step 6).
//!
//! The paper starts µ at 1e-12 (i.e. 1 ps steps after normalization) and
//! reports convergence in fewer than 20 iterations from any starting
//! point in `]0, 480[` ps; this implementation meets the same budget.

use crate::cost::DualRateCost;
use crate::skew::SkewEstimate;

/// Initial step size µ in seconds (paper: 1e-12).
const INITIAL_STEP: f64 = 1e-12;

/// Iteration cap (the "maximum limit" of Algorithm 1).
const MAX_ITERATIONS: usize = 40;

/// Stop once the cost falls below this absolute level.
const COST_TOLERANCE: f64 = 0.0;

/// Stop after two consecutive accepted steps whose relative cost
/// improvement falls below this ratio (the cost has plateaued at the
/// front-end noise floor).
const RELATIVE_TOLERANCE: f64 = 5e-4;

/// Stop once µ collapses below this step (seconds) — the estimate can
/// no longer move meaningfully.
const MIN_STEP: f64 = 1e-17;

/// Perturbation used to bootstrap the first finite difference.
const BOOTSTRAP_DELTA: f64 = 1e-12;

/// Cap on step-5 retries within one iteration.
const MAX_RETRIES: usize = 60;

/// Configuration of Algorithm 1: its starting point. The tuning values
/// are the paper's (µ₀ = 1e-12, up to 40 iterations) for every run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LmsConfig {
    /// Initial estimate `D̂₀` in seconds.
    pub initial_estimate: f64,
}

impl LmsConfig {
    /// The paper's configuration with the given starting estimate:
    /// µ₀ = 1e-12, up to 40 iterations.
    pub fn paper_default(initial_estimate: f64) -> Self {
        LmsConfig { initial_estimate }
    }
}

/// One recorded LMS iteration (drives the paper's Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LmsIteration {
    /// Iteration index (0 is the initial point).
    pub index: usize,
    /// The estimate `D̂ᵢ` in seconds.
    pub estimate: f64,
    /// The cost `ε(D̂ᵢ)`.
    pub cost: f64,
    /// Step size µ in force after this iteration.
    pub step: f64,
}

/// Result of an LMS run.
#[derive(Clone, Debug)]
pub struct LmsResult {
    /// Final estimate `D̂` in seconds.
    pub estimate: f64,
    /// Final cost value.
    pub cost: f64,
    /// Number of gradient iterations performed.
    pub iterations: usize,
    /// `true` when the run stopped on tolerance/step collapse rather
    /// than the iteration cap.
    pub converged: bool,
    /// Per-iteration history (index 0 is the starting point).
    pub trace: Vec<LmsIteration>,
    /// Cost evaluations the descent made: the starting point, two
    /// gradient probes per iteration and every update attempt.
    pub evaluations: usize,
}

impl LmsResult {
    /// Converts to the shared estimate record.
    pub fn to_estimate(&self) -> SkewEstimate {
        SkewEstimate {
            delay: self.estimate,
            residual_cost: Some(self.cost),
            iterations: Some(self.iterations),
        }
    }
}

/// Runs Algorithm 1 against a bound cost function.
///
/// # Panics
///
/// Panics if the initial estimate is non-positive.
pub fn estimate_skew_lms(cost: &DualRateCost, config: LmsConfig) -> LmsResult {
    assert!(
        config.initial_estimate > 0.0,
        "initial estimate must be positive"
    );

    let m = cost.config().m_bound();
    let clamp = |d: f64| d.clamp(0.5e-12, m - 0.5e-12);

    // One evaluator for the whole descent: every candidate probed below
    // reuses its scratch buffers instead of reallocating per call.
    let mut eval = cost.evaluator();

    let mut d_cur = clamp(config.initial_estimate);
    let mut e_cur = eval.eval(d_cur);
    let mut evaluations = 1;

    let mut mu = INITIAL_STEP;
    let mut trace = vec![LmsIteration {
        index: 0,
        estimate: d_cur,
        cost: e_cur,
        step: mu,
    }];
    let mut converged = false;
    let mut iterations = 0;
    let mut plateau_count = 0usize;

    for i in 1..=MAX_ITERATIONS {
        // Step 2: finite-difference gradient. The probe width follows
        // the step size (floored at the bootstrap delta scale) so the
        // difference stays informative as the search zooms in. The
        // probes go through the evaluator's batch entry point, shared
        // with `eval_grid` sweeps; each candidate only combines the
        // probe sums the cost built once, so a probe costs about as
        // much as one step.
        let delta = (mu / 4.0).max(BOOTSTRAP_DELTA / 20.0).max(1e-16);
        let probes = eval.eval_grid(&[clamp(d_cur + delta), clamp(d_cur - delta)]);
        evaluations += probes.len();
        let (e_plus, e_minus) = (probes[0], probes[1]);
        let grad = (e_plus - e_minus) / (2.0 * delta);
        if grad == 0.0 {
            converged = true;
            break;
        }

        // Steps 3–5: normalized update (the gradient reduces to its
        // sign) with halving retries on cost increase.
        let direction = grad.signum();
        let mut accepted = false;
        let mut d_next = d_cur;
        let mut e_next = e_cur;
        for _ in 0..MAX_RETRIES {
            d_next = clamp(d_cur - mu * direction);
            e_next = eval.eval(d_next);
            evaluations += 1;
            if e_next <= e_cur {
                accepted = true;
                break;
            }
            mu /= 2.0;
            if mu < MIN_STEP {
                break;
            }
        }
        iterations = i;
        if !accepted {
            // µ collapsed without improvement: we are at the minimum to
            // within the probe resolution.
            converged = true;
            trace.push(LmsIteration {
                index: i,
                estimate: d_cur,
                cost: e_cur,
                step: mu,
            });
            break;
        }

        // Step 6: reward success.
        mu *= 2.0;

        let improvement = (e_cur - e_next) / e_cur.max(1e-300);
        if improvement < RELATIVE_TOLERANCE {
            plateau_count += 1;
        } else {
            plateau_count = 0;
        }

        d_cur = d_next;
        e_cur = e_next;
        trace.push(LmsIteration {
            index: i,
            estimate: d_cur,
            cost: e_cur,
            step: mu,
        });

        if e_cur <= COST_TOLERANCE || mu < MIN_STEP || plateau_count >= 2 {
            converged = true;
            break;
        }
    }

    LmsResult {
        estimate: d_cur,
        cost: e_cur,
        iterations,
        converged,
        trace,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfbist_converter::bptiadc::{BpTiadc, BpTiadcConfig};
    use rfbist_sampling::dualrate::DualRateConfig;
    use rfbist_signal::bandpass::BandpassSignal;
    use rfbist_signal::baseband::ShapedBaseband;

    fn paper_cost(ideal: bool) -> DualRateCost {
        let cfg = DualRateConfig::paper_section_v();
        let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 96, 0xACE1);
        let tx = BandpassSignal::new(bb, 1e9);
        let (fast_cfg, slow_cfg) = if ideal {
            (
                BpTiadcConfig::ideal(cfg.fast_rate(), cfg.delay()),
                BpTiadcConfig::ideal(cfg.slow_rate(), cfg.delay()),
            )
        } else {
            (
                BpTiadcConfig::paper_section_v(cfg.delay()),
                BpTiadcConfig::paper_section_v(cfg.delay())
                    .with_sample_rate(cfg.slow_rate())
                    .with_seed(0x51DE),
            )
        };
        let mut fast = BpTiadc::new(fast_cfg);
        let mut slow = BpTiadc::new(slow_cfg);
        DualRateCost::paper_probes(
            fast.capture(&tx, 80, 260),
            slow.capture(&tx, 40, 160),
            cfg,
            120,
            7,
        )
    }

    #[test]
    fn converges_from_paper_starting_points_ideal() {
        let cost = paper_cost(true);
        for d0_ps in [50.0, 100.0, 350.0, 400.0] {
            let result = estimate_skew_lms(&cost, LmsConfig::paper_default(d0_ps * 1e-12));
            let err_ps = (result.estimate - 180e-12).abs() * 1e12;
            assert!(
                err_ps < 0.1,
                "from {d0_ps} ps: estimate {} ps (err {err_ps} ps)",
                result.estimate * 1e12
            );
        }
    }

    #[test]
    fn converges_with_paper_frontend_noise() {
        // 10-bit converters + 3 ps rms jitter: Table I still reports
        // sub-0.1 ps accuracy for the LMS method.
        let cost = paper_cost(false);
        for d0_ps in [50.0, 400.0] {
            let result = estimate_skew_lms(&cost, LmsConfig::paper_default(d0_ps * 1e-12));
            let err_ps = (result.estimate - 180e-12).abs() * 1e12;
            assert!(
                err_ps < 1.0,
                "from {d0_ps} ps: estimate {} ps",
                result.estimate * 1e12
            );
        }
    }

    #[test]
    fn converges_in_fewer_than_20_iterations_to_1ps() {
        // Paper: "converges, every time, in less than 20 iterations".
        let cost = paper_cost(true);
        for d0_ps in [50.0, 100.0, 350.0, 400.0] {
            let result = estimate_skew_lms(&cost, LmsConfig::paper_default(d0_ps * 1e-12));
            let hit = result
                .trace
                .iter()
                .find(|it| (it.estimate - 180e-12).abs() < 1e-12)
                .map(|it| it.index);
            assert!(
                matches!(hit, Some(i) if i < 20),
                "from {d0_ps} ps: 1 ps accuracy reached at {hit:?}"
            );
        }
    }

    #[test]
    fn converges_on_grid_probed_cost() {
        // The uniform-grid probe schedule sends every gradient probe
        // and update evaluation through the grid-aware reconstruction
        // plan; Algorithm 1 must converge exactly as it does on the
        // paper's random probe times.
        let random = paper_cost(true);
        let cost = DualRateCost::grid_probes(
            random.fast_capture().clone(),
            random.slow_capture().clone(),
            *random.config(),
            120,
        );
        for d0_ps in [50.0, 400.0] {
            let result = estimate_skew_lms(&cost, LmsConfig::paper_default(d0_ps * 1e-12));
            let err_ps = (result.estimate - 180e-12).abs() * 1e12;
            assert!(
                err_ps < 0.1,
                "from {d0_ps} ps: estimate {} ps (err {err_ps} ps)",
                result.estimate * 1e12
            );
            assert!(result.converged);
        }
    }

    #[test]
    fn cost_decreases_monotonically_along_trace() {
        let cost = paper_cost(true);
        let result = estimate_skew_lms(&cost, LmsConfig::paper_default(100e-12));
        for w in result.trace.windows(2) {
            assert!(
                w[1].cost <= w[0].cost + 1e-15,
                "cost rose from {} to {}",
                w[0].cost,
                w[1].cost
            );
        }
    }

    #[test]
    fn trace_records_initial_point() {
        let cost = paper_cost(true);
        let result = estimate_skew_lms(&cost, LmsConfig::paper_default(350e-12));
        assert_eq!(result.trace[0].index, 0);
        assert!((result.trace[0].estimate - 350e-12).abs() < 1e-15);
        assert!(result.converged);
        assert!(result.iterations <= 40);
    }

    #[test]
    fn evaluation_count_covers_probes_and_attempts() {
        // every counted iteration makes two gradient probes and at
        // least one update attempt, on top of the starting point
        let cost = paper_cost(false);
        let result = estimate_skew_lms(&cost, LmsConfig::paper_default(60e-12));
        assert!(result.evaluations > 3 * result.iterations);
        assert!(result.evaluations <= 1 + (2 + MAX_RETRIES) * (result.iterations + 1));
    }

    #[test]
    fn to_estimate_carries_metadata() {
        let cost = paper_cost(true);
        let result = estimate_skew_lms(&cost, LmsConfig::paper_default(100e-12));
        let est = result.to_estimate();
        assert_eq!(est.delay, result.estimate);
        assert_eq!(est.iterations, Some(result.iterations));
        assert!(est.residual_cost.unwrap() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "initial estimate must be positive")]
    fn non_positive_start_panics() {
        let cost = paper_cost(true);
        let _ = estimate_skew_lms(&cost, LmsConfig::paper_default(0.0));
    }
}
