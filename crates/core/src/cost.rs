//! The dual-rate self-consistency cost function (paper eqs. 7–8).
//!
//! Two captures of the *same* transmitter output, taken at rates `B` and
//! `B1` with the same physical skew `D`, are each reconstructed assuming
//! a candidate `D̂`. The mean-squared disagreement between the two
//! reconstructions over a probe-time set `t`,
//!
//! ```text
//! ε(D̂) = (1/N) Σᵢ ( f^T_D̂(tᵢ) − f^{T1}_D̂(tᵢ) )²
//! ```
//!
//! vanishes only when `D̂ = D` (both reconstructions then equal the true
//! signal), and under the eq. (9) conditions has a *unique* minimum on
//! `]0, m[` — no reference signal required.

use crate::error::BistError;
use rfbist_dsp::window::Window;
use rfbist_math::rng::Randomizer;
use rfbist_sampling::dualrate::DualRateConfig;
use rfbist_sampling::gridplan::{GridScratch, PnbsGridPlan};
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};

/// The paper's probe-schedule reconstruction configuration (61 taps,
/// Kaiser β = 8), shared by the coverage-window computation and both
/// generated schedules so they can never drift apart.
const PAPER_PROBE_TAPS: usize = 61;
const PAPER_PROBE_WINDOW: Window = Window::Kaiser(8.0);

/// A bound cost function: captures + probe times + filter settings.
#[derive(Clone, Debug)]
pub struct DualRateCost {
    fast: NonuniformCapture,
    slow: NonuniformCapture,
    config: DualRateConfig,
    times: Vec<f64>,
    /// `Some((t0, step))` when `times` is the uniform grid
    /// `t0, t0 + step, …` — the schedule that routes every cost
    /// evaluation through the plan's grid walk ([`PnbsGridPlan`])
    /// instead of its arbitrary-instant order.
    grid: Option<(f64, f64)>,
    num_taps: usize,
    window: Window,
}

impl DualRateCost {
    /// Builds the cost from explicit probe times.
    ///
    /// # Panics
    ///
    /// Panics if `times` is empty, if either capture's rate disagrees
    /// with `config`, or if any probe time falls outside both captures'
    /// reconstruction coverage (checked against the paper's 61-tap
    /// filter span).
    pub fn new(
        fast: NonuniformCapture,
        slow: NonuniformCapture,
        config: DualRateConfig,
        times: Vec<f64>,
        num_taps: usize,
        window: Window,
    ) -> Self {
        Self::try_new(fast, slow, config, times, num_taps, window).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) in typed form: every contract violation
    /// surfaces as [`BistError::InvalidConfig`] (with the same message
    /// the panicking constructor raises) instead of a panic.
    pub fn try_new(
        fast: NonuniformCapture,
        slow: NonuniformCapture,
        config: DualRateConfig,
        times: Vec<f64>,
        num_taps: usize,
        window: Window,
    ) -> Result<Self, BistError> {
        if times.is_empty() {
            return Err(BistError::InvalidConfig {
                reason: "at least one probe time required".to_string(),
            });
        }
        if (1.0 / fast.period() - config.fast_rate()).abs() >= 1e-3 {
            return Err(BistError::InvalidConfig {
                reason: "fast capture rate disagrees with config".to_string(),
            });
        }
        if (1.0 / slow.period() - config.slow_rate()).abs() >= 1e-3 {
            return Err(BistError::InvalidConfig {
                reason: "slow capture rate disagrees with config".to_string(),
            });
        }
        let cost = DualRateCost {
            fast,
            slow,
            config,
            times,
            grid: None,
            num_taps,
            window,
        };
        // verify coverage with a representative (valid) delay, through
        // the reconstructors' own tap-window predicate
        let probe = cost.config.delay().min(cost.config.m_bound() * 0.5);
        let (fast_rec, slow_rec) = cost.reconstructors(probe);
        for &t in &cost.times {
            if !fast_rec.grid_plan().covers(&cost.fast, t) {
                return Err(BistError::InvalidConfig {
                    reason: format!("probe time {t:.3e} s outside fast-capture coverage"),
                });
            }
            if !slow_rec.grid_plan().covers(&cost.slow, t) {
                return Err(BistError::InvalidConfig {
                    reason: format!("probe time {t:.3e} s outside slow-capture coverage"),
                });
            }
        }
        Ok(cost)
    }

    /// The coverage check behind every probe schedule, in typed form:
    /// `Err` carries the same message the panicking constructors raise
    /// ("… capture too short" / "captures do not overlap in time"), so
    /// the engine's `try_*` paths can reject an undersized capture as
    /// a value before the cost is built.
    pub fn try_probe_window(
        fast: &NonuniformCapture,
        slow: &NonuniformCapture,
        config: &DualRateConfig,
    ) -> Result<(f64, f64), String> {
        let num_taps = PAPER_PROBE_TAPS;
        let window = PAPER_PROBE_WINDOW;
        let probe_delay = config.delay().min(config.m_bound() * 0.5);
        let fast_rec = PnbsReconstructor::new(config.fast_band(), probe_delay, num_taps, window)
            .map_err(|_| "valid probe delay".to_string())?;
        let slow_rec = PnbsReconstructor::new(config.slow_band(), probe_delay, num_taps, window)
            .map_err(|_| "valid probe delay".to_string())?;
        let (f_lo, f_hi) = fast_rec
            .coverage(fast)
            .ok_or("fast capture too short")
            .map_err(str::to_string)?;
        let (s_lo, s_hi) = slow_rec
            .coverage(slow)
            .ok_or("slow capture too short")
            .map_err(str::to_string)?;
        let lo = f_lo.max(s_lo);
        let hi = f_hi.min(s_hi);
        if hi <= lo {
            return Err("captures do not overlap in time".to_string());
        }
        Ok((lo, hi))
    }

    /// The paper's probe setup: `n` random times drawn uniformly from
    /// the intersection of both captures' coverage (the paper uses
    /// N = 300 over a 1230 ns window), 61-tap Kaiser reconstruction.
    pub fn paper_probes(
        fast: NonuniformCapture,
        slow: NonuniformCapture,
        config: DualRateConfig,
        n: usize,
        seed: u64,
    ) -> Self {
        Self::try_paper_probes(fast, slow, config, n, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`paper_probes`](Self::paper_probes) in typed form: an empty
    /// schedule or an undersized capture surfaces as a
    /// [`BistError`] (with the panicking constructor's message)
    /// instead of a panic.
    pub fn try_paper_probes(
        fast: NonuniformCapture,
        slow: NonuniformCapture,
        config: DualRateConfig,
        n: usize,
        seed: u64,
    ) -> Result<Self, BistError> {
        if n == 0 {
            return Err(BistError::InvalidConfig {
                reason: "at least one probe time required".to_string(),
            });
        }
        let (lo, hi) = Self::try_probe_window(&fast, &slow, &config)
            .map_err(|reason| BistError::CaptureTooShort { reason })?;
        let mut rng = Randomizer::from_seed(seed);
        let times = (0..n).map(|_| rng.uniform(lo, hi)).collect();
        Ok(DualRateCost {
            fast,
            slow,
            config,
            times,
            grid: None,
            num_taps: PAPER_PROBE_TAPS,
            window: PAPER_PROBE_WINDOW,
        })
    }

    /// Uniform-grid probe schedule: `n` probe times at the midpoints of
    /// a uniform subdivision of both captures' coverage intersection
    /// (so the singular coverage edges are never touched), 61-tap
    /// Kaiser reconstruction.
    ///
    /// Functionally interchangeable with
    /// [`paper_probes`](Self::paper_probes) — the cost keeps its unique
    /// minimum at the true delay — but the uniform spacing lets every
    /// evaluation reconstruct both captures through the plan's grid
    /// walk ([`PnbsGridPlan`]): the time phasors advance *across* probe
    /// points instead of being re-seeded per point, which is where LMS
    /// descents and Fig. 5 sweeps spend their time.
    pub fn grid_probes(
        fast: NonuniformCapture,
        slow: NonuniformCapture,
        config: DualRateConfig,
        n: usize,
    ) -> Self {
        Self::try_grid_probes(fast, slow, config, n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`grid_probes`](Self::grid_probes) in typed form: an empty
    /// schedule or an undersized capture surfaces as a
    /// [`BistError`] (with the panicking constructor's message)
    /// instead of a panic.
    pub fn try_grid_probes(
        fast: NonuniformCapture,
        slow: NonuniformCapture,
        config: DualRateConfig,
        n: usize,
    ) -> Result<Self, BistError> {
        if n == 0 {
            return Err(BistError::InvalidConfig {
                reason: "at least one probe time required".to_string(),
            });
        }
        let (lo, hi) = Self::try_probe_window(&fast, &slow, &config)
            .map_err(|reason| BistError::CaptureTooShort { reason })?;
        let step = (hi - lo) / n as f64;
        let t0 = lo + 0.5 * step;
        let times = (0..n).map(|i| t0 + i as f64 * step).collect();
        Ok(DualRateCost {
            fast,
            slow,
            config,
            times,
            grid: Some((t0, step)),
            num_taps: PAPER_PROBE_TAPS,
            window: PAPER_PROBE_WINDOW,
        })
    }

    /// `Some((t0, step))` when the probe times form a uniform grid (the
    /// [`grid_probes`](Self::grid_probes) schedule), enabling the
    /// grid walk inside every evaluation.
    pub fn probe_grid(&self) -> Option<(f64, f64)> {
        self.grid
    }

    /// The dual-rate configuration.
    pub fn config(&self) -> &DualRateConfig {
        &self.config
    }

    /// The probe times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The fast-rate capture.
    pub fn fast_capture(&self) -> &NonuniformCapture {
        &self.fast
    }

    /// The slow-rate capture.
    pub fn slow_capture(&self) -> &NonuniformCapture {
        &self.slow
    }

    fn reconstructors(&self, d_hat: f64) -> (PnbsReconstructor, PnbsReconstructor) {
        (
            PnbsReconstructor::new_unchecked(
                self.config.fast_band(),
                d_hat,
                self.num_taps,
                self.window,
            ),
            PnbsReconstructor::new_unchecked(
                self.config.slow_band(),
                d_hat,
                self.num_taps,
                self.window,
            ),
        )
    }

    /// Evaluates `ε(D̂)` (paper eq. 8) through the planned engine.
    ///
    /// Candidates are clamped into the open search interval `]0, m[`
    /// with a 0.1 ps margin, so optimizer overshoot cannot hit the
    /// kernel singularities at the interval ends.
    // analysis: allow(typed-error-parity) — cannot panic: candidates are clamped into ]0, m[ and the `::new` tokens the fixpoint matches are the plan/scratch constructors, not the panicking sibling `new`
    pub fn evaluate(&self, d_hat: f64) -> f64 {
        self.evaluator().eval(d_hat)
    }

    /// [`evaluate`](Self::evaluate) through the preserved direct
    /// reconstruction path (four kernel cosines + two Bessel series per
    /// tap) — the oracle and baseline the planned engine is measured
    /// against.
    pub fn evaluate_reference(&self, d_hat: f64) -> f64 {
        let d = self.clamp_candidate(d_hat);
        let (fast_rec, slow_rec) = self.reconstructors(d);
        let mut acc = 0.0;
        for &t in &self.times {
            let a = fast_rec.reconstruct_at_reference(&self.fast, t);
            let b = slow_rec.reconstruct_at_reference(&self.slow, t);
            acc += (a - b) * (a - b);
        }
        acc / self.times.len() as f64
    }

    /// The shared clamping contract of every evaluation path: the open
    /// search interval `]0, m[` with a 0.1 ps margin, so optimizer
    /// overshoot cannot hit the kernel singularities at the ends.
    fn clamp_candidate(&self, d_hat: f64) -> f64 {
        let margin = 0.1e-12;
        d_hat.clamp(margin, self.config.m_bound() - margin)
    }

    /// A reusable evaluator holding the scratch buffers one cost
    /// evaluation needs, so grid sweeps and LMS runs allocate once
    /// instead of per candidate.
    // analysis: allow(typed-error-parity) — cannot panic: candidates are clamped into ]0, m[ and the `::new` tokens the fixpoint matches are the plan/scratch constructors, not the panicking sibling `new`
    pub fn evaluator(&self) -> CostEvaluator<'_> {
        CostEvaluator {
            cost: self,
            fast_grid: GridScratch::new(),
            slow_grid: GridScratch::new(),
        }
    }

    /// Evaluates `ε(D̂)` for every candidate in `candidates`, reusing
    /// one pair of scratch buffers (and one plan per candidate) across
    /// the whole grid — the batched form of the Fig. 5 sweep.
    // analysis: allow(typed-error-parity) — cannot panic: candidates are clamped into ]0, m[ and the `::new` tokens the fixpoint matches are the plan/scratch constructors, not the panicking sibling `new`
    pub fn eval_grid(&self, candidates: &[f64]) -> Vec<f64> {
        self.evaluator().eval_grid(candidates)
    }

    /// The uniform grid of `n` candidates across `]0, m[` the paper's
    /// Fig. 5 sweeps (midpoint placement, so the singular endpoints are
    /// never touched).
    pub fn sweep_candidates(&self, n: usize) -> Vec<f64> {
        self.try_sweep_candidates(n)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`sweep_candidates`](Self::sweep_candidates) in typed form:
    /// returns [`BistError::InvalidConfig`] on a degenerate grid
    /// instead of panicking.
    pub fn try_sweep_candidates(&self, n: usize) -> Result<Vec<f64>, BistError> {
        if n < 2 {
            return Err(BistError::InvalidConfig {
                reason: "sweep needs at least two points".to_string(),
            });
        }
        let m = self.config.m_bound();
        Ok((0..n).map(|i| m * (i as f64 + 0.5) / n as f64).collect())
    }

    /// Evaluates the cost on a uniform grid of `n` candidates across
    /// `]0, m[` — the paper's Fig. 5 sweep.
    pub fn sweep(&self, n: usize) -> Vec<(f64, f64)> {
        self.try_sweep(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`sweep`](Self::sweep) in typed form: returns
    /// [`BistError::InvalidConfig`] on a degenerate grid instead of
    /// panicking.
    pub fn try_sweep(&self, n: usize) -> Result<Vec<(f64, f64)>, BistError> {
        let candidates = self.try_sweep_candidates(n)?;
        let values = self.eval_grid(&candidates);
        Ok(candidates.into_iter().zip(values).collect())
    }
}

/// A cost evaluator bound to one [`DualRateCost`], carrying the scratch
/// buffers the planned reconstruction engine reuses across candidates.
///
/// Built by [`DualRateCost::evaluator`]; the LMS estimator keeps one
/// for its whole descent, and [`DualRateCost::eval_grid`] keeps one for
/// a whole grid.
#[derive(Clone, Debug)]
pub struct CostEvaluator<'a> {
    cost: &'a DualRateCost,
    fast_grid: GridScratch,
    slow_grid: GridScratch,
}

impl CostEvaluator<'_> {
    /// Evaluates `ε(D̂)` with the same clamping contract as
    /// [`DualRateCost::evaluate`].
    ///
    /// Uniform-grid probe schedules
    /// ([`DualRateCost::grid_probes`]) run the plan's grid walk; random
    /// schedules run its arbitrary-instant order. Both agree with the
    /// direct reference to ≤ 1e-9.
    // analysis: allow(typed-error-parity) — cannot panic: candidates are clamped into ]0, m[ and the `::new` tokens the fixpoint matches are the plan/scratch constructors, not the panicking sibling `new`
    pub fn eval(&mut self, d_hat: f64) -> f64 {
        let cost = self.cost;
        let d = cost.clamp_candidate(d_hat);
        let n = cost.times.len();
        let fast_plan = PnbsGridPlan::new(cost.config.fast_band(), d, cost.num_taps, cost.window);
        let slow_plan = PnbsGridPlan::new(cost.config.slow_band(), d, cost.num_taps, cost.window);
        let (a, b) = match cost.grid {
            Some((t0, step)) => (
                fast_plan.reconstruct_grid(&cost.fast, t0, step, n, &mut self.fast_grid),
                slow_plan.reconstruct_grid(&cost.slow, t0, step, n, &mut self.slow_grid),
            ),
            None => (
                fast_plan.reconstruct_instants(&cost.fast, &cost.times, &mut self.fast_grid),
                slow_plan.reconstruct_instants(&cost.slow, &cost.times, &mut self.slow_grid),
            ),
        };
        let acc: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        acc / n as f64
    }

    /// Evaluates a batch of candidates through this evaluator's scratch
    /// buffers — the entry point [`DualRateCost::eval_grid`] and the
    /// LMS gradient probes share, so plan setup and scratch reuse
    /// amortize across every candidate of a descent or sweep.
    // analysis: allow(typed-error-parity) — cannot panic: candidates are clamped into ]0, m[ and the `::new` tokens the fixpoint matches are the plan/scratch constructors, not the panicking sibling `new`
    pub fn eval_grid(&mut self, candidates: &[f64]) -> Vec<f64> {
        candidates.iter().map(|&d| self.eval(d)).collect()
    }

    /// The bound cost function.
    pub fn cost(&self) -> &DualRateCost {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfbist_converter::bptiadc::{BpTiadc, BpTiadcConfig};
    use rfbist_signal::bandpass::BandpassSignal;
    use rfbist_signal::baseband::ShapedBaseband;

    fn paper_setup(ideal: bool) -> DualRateCost {
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
    fn cost_vanishes_at_true_delay_ideal_frontend() {
        let cost = paper_setup(true);
        let at_truth = cost.evaluate(180e-12);
        let away = cost.evaluate(120e-12);
        assert!(at_truth < 1e-3, "cost at truth {at_truth}");
        assert!(away > 20.0 * at_truth, "contrast {away} vs {at_truth}");
    }

    #[test]
    fn minimum_is_at_true_delay() {
        let cost = paper_setup(true);
        let sweep = cost.sweep(60);
        let (d_min, _) = sweep
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!(
            (d_min - 180e-12).abs() < 5e-12,
            "minimum at {} ps",
            d_min * 1e12
        );
    }

    #[test]
    fn minimum_is_unique_on_the_interval() {
        // count strict local minima of the sweep — conditions (9) promise one
        let cost = paper_setup(true);
        let sweep = cost.sweep(80);
        let mut minima = 0;
        for w in sweep.windows(3) {
            if w[1].1 < w[0].1 && w[1].1 < w[2].1 {
                minima += 1;
            }
        }
        assert_eq!(minima, 1, "expected exactly one local minimum");
    }

    #[test]
    fn noisy_frontend_keeps_minimum_near_truth() {
        let cost = paper_setup(false);
        let sweep = cost.sweep(60);
        let (d_min, _) = sweep
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!(
            (d_min - 180e-12).abs() < 10e-12,
            "minimum at {} ps",
            d_min * 1e12
        );
    }

    #[test]
    fn cost_is_finite_across_search_interval() {
        let cost = paper_setup(true);
        for (d, v) in cost.sweep(40) {
            assert!(v.is_finite(), "cost at {} ps is {v}", d * 1e12);
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn clamping_protects_interval_ends() {
        let cost = paper_setup(true);
        // m and 0 are outside ]0, m[; evaluation must still be finite
        assert!(cost.evaluate(0.0).is_finite());
        assert!(cost.evaluate(cost.config().m_bound()).is_finite());
        assert!(cost.evaluate(-5e-12).is_finite());
    }

    #[test]
    fn accessors_expose_setup() {
        let cost = paper_setup(true);
        assert_eq!(cost.times().len(), 120);
        assert_eq!(cost.fast_capture().len(), 260);
        assert_eq!(cost.slow_capture().len(), 160);
        assert!((cost.config().m_bound() * 1e12 - 483.09).abs() < 0.1);
    }

    #[test]
    fn planned_cost_matches_reference_cost() {
        let cost = paper_setup(false);
        for d_ps in [50.0, 120.0, 180.0, 250.0, 400.0] {
            let planned = cost.evaluate(d_ps * 1e-12);
            let reference = cost.evaluate_reference(d_ps * 1e-12);
            // Absolute tolerance: near the minimum the cost is a tiny
            // squared residual, so a relative bound would demand more
            // agreement of ε than the reconstructions themselves carry.
            assert!(
                (planned - reference).abs() <= 1e-9,
                "D̂ = {d_ps} ps: planned {planned} vs reference {reference}"
            );
        }
    }

    #[test]
    fn eval_grid_matches_pointwise_evaluation() {
        let cost = paper_setup(true);
        let candidates: Vec<f64> = (1..=10).map(|i| i as f64 * 40e-12).collect();
        let grid = cost.eval_grid(&candidates);
        for (i, &d) in candidates.iter().enumerate() {
            assert_eq!(grid[i], cost.evaluate(d), "grid diverges at {d:e}");
        }
        // the evaluator's batch entry point (shared with the LMS
        // gradient probes) is the same computation
        let mut ev = cost.evaluator();
        assert_eq!(ev.eval_grid(&candidates), grid);
    }

    fn paper_grid_setup(ideal: bool) -> DualRateCost {
        let random = paper_setup(ideal);
        DualRateCost::grid_probes(
            random.fast_capture().clone(),
            random.slow_capture().clone(),
            *random.config(),
            120,
        )
    }

    #[test]
    fn grid_probes_form_a_uniform_midpoint_grid() {
        let cost = paper_grid_setup(true);
        let (t0, step) = cost.probe_grid().expect("grid schedule");
        assert!(step > 0.0);
        assert_eq!(cost.times().len(), 120);
        for (i, &t) in cost.times().iter().enumerate() {
            assert_eq!(t, t0 + i as f64 * step, "probe {i} off the grid");
        }
        // random schedules expose no grid
        assert!(paper_setup(true).probe_grid().is_none());
    }

    #[test]
    fn grid_probed_cost_keeps_minimum_at_true_delay() {
        let cost = paper_grid_setup(true);
        let sweep = cost.sweep(60);
        let (d_min, _) = sweep
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!(
            (d_min - 180e-12).abs() < 5e-12,
            "minimum at {} ps",
            d_min * 1e12
        );
        let at_truth = cost.evaluate(180e-12);
        let away = cost.evaluate(120e-12);
        assert!(away > 20.0 * at_truth, "contrast {away} vs {at_truth}");
    }

    #[test]
    fn grid_probed_cost_matches_reference_cost() {
        // The grid-aware reconstruction path inside the evaluator must
        // agree with the direct reference over the same probe times.
        let cost = paper_grid_setup(false);
        for d_ps in [50.0, 120.0, 180.0, 250.0, 400.0] {
            let planned = cost.evaluate(d_ps * 1e-12);
            let reference = cost.evaluate_reference(d_ps * 1e-12);
            assert!(
                (planned - reference).abs() <= 1e-9,
                "D̂ = {d_ps} ps: grid {planned} vs reference {reference}"
            );
        }
    }

    #[test]
    fn grid_probed_eval_grid_matches_pointwise_evaluation() {
        let cost = paper_grid_setup(true);
        let candidates: Vec<f64> = (1..=8).map(|i| i as f64 * 50e-12).collect();
        let grid = cost.eval_grid(&candidates);
        for (i, &d) in candidates.iter().enumerate() {
            assert_eq!(grid[i], cost.evaluate(d), "grid diverges at {d:e}");
        }
        let mut ev = cost.evaluator();
        assert_eq!(ev.eval_grid(&candidates), grid);
    }

    #[test]
    fn sweep_uses_midpoint_candidates() {
        let cost = paper_setup(true);
        let sweep = cost.sweep(10);
        let candidates = cost.sweep_candidates(10);
        let m = cost.config().m_bound();
        assert_eq!(sweep.len(), 10);
        for (i, ((d, _), dc)) in sweep.iter().zip(&candidates).enumerate() {
            assert_eq!(d, dc);
            assert!((d - m * (i as f64 + 0.5) / 10.0).abs() < 1e-24);
        }
    }

    #[test]
    #[should_panic(expected = "rate disagrees")]
    fn mismatched_rates_panic() {
        let cfg = DualRateConfig::paper_section_v();
        let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 96, 1);
        let tx = BandpassSignal::new(bb, 1e9);
        let mut fast = BpTiadc::new(BpTiadcConfig::ideal(80e6, cfg.delay()));
        let mut slow = BpTiadc::new(BpTiadcConfig::ideal(45e6, cfg.delay()));
        let _ = DualRateCost::new(
            fast.capture(&tx, 80, 200),
            slow.capture(&tx, 40, 160),
            cfg,
            vec![1.5e-6],
            61,
            Window::Kaiser(8.0),
        );
    }
}
