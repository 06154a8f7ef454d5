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
//!
//! # Evaluation
//!
//! The eq. 2 kernel depends on `D̂` only through its numerator weights
//! and the odd stream's shift, so every constructor summarizes each
//! capture once at the probe times
//! ([`ProbeSums`](rfbist_sampling::gridplan::ProbeSums)): six exact
//! even-stream sums per probe, six odd-stream sums at the nine
//! Chebyshev nodes of `[0, m]`, and the few taps the fit cannot
//! reproduce (poles near `[0, m]`, window support edges) kept exact.
//! An evaluation then costs one 60-term dot product per probe and
//! capture, plus the exact taps: ~20–25 µs for the
//! Section V cost against ~0.3–0.4 ms for two 2 × 61-tap weight rows
//! per probe, after a ~1.3–2.6 ms build (2-core AVX-512 VM). Both
//! probe schedules evaluate the same way and agree with the direct
//! reference ([`evaluate_reference`](DualRateCost::evaluate_reference))
//! to ≤ 1e-9 across `]0, m[`.

use crate::error::BistError;
use rfbist_math::rng::Randomizer;
use rfbist_sampling::dualrate::DualRateConfig;
use rfbist_sampling::gridplan::{ProbeSums, ProbeSumsError, PROBE_TAPS, PROBE_WINDOW};
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};

/// A bound cost function: captures + probe times, with each capture's
/// `D̂`-independent probe sums built once at construction.
#[derive(Clone, Debug)]
pub struct DualRateCost {
    fast: NonuniformCapture,
    slow: NonuniformCapture,
    config: DualRateConfig,
    times: Vec<f64>,
    fast_sums: ProbeSums,
    slow_sums: ProbeSums,
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
    ) -> Self {
        Self::try_new(fast, slow, config, times).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) in typed form: every contract violation
    /// surfaces as [`BistError::InvalidConfig`] (with the same message
    /// the panicking constructor raises) instead of a panic.
    pub fn try_new(
        fast: NonuniformCapture,
        slow: NonuniformCapture,
        config: DualRateConfig,
        times: Vec<f64>,
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
        Self::build(fast, slow, config, times)
    }

    /// Builds both captures' probe sums over `times` — the one place
    /// every constructor pays for, so an evaluation only combines them.
    fn build(
        fast: NonuniformCapture,
        slow: NonuniformCapture,
        config: DualRateConfig,
        times: Vec<f64>,
    ) -> Result<Self, BistError> {
        let sums = |band, capture: &NonuniformCapture, channel: &str| {
            ProbeSums::try_new(band, capture, &times, config.m_bound()).map_err(|e| {
                BistError::InvalidConfig {
                    reason: match e {
                        ProbeSumsError::OutsideCoverage { time } => {
                            format!("probe time {time:.3e} s outside {channel}-capture coverage")
                        }
                        other => other.to_string(),
                    },
                }
            })
        };
        let fast_sums = sums(config.fast_band(), &fast, "fast")?;
        let slow_sums = sums(config.slow_band(), &slow, "slow")?;
        Ok(DualRateCost {
            fast,
            slow,
            config,
            times,
            fast_sums,
            slow_sums,
        })
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
        let probe_delay = config.delay().min(config.m_bound() * 0.5);
        let fast_rec =
            PnbsReconstructor::new(config.fast_band(), probe_delay, PROBE_TAPS, PROBE_WINDOW)
                .map_err(|_| "valid probe delay".to_string())?;
        let slow_rec =
            PnbsReconstructor::new(config.slow_band(), probe_delay, PROBE_TAPS, PROBE_WINDOW)
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
        Self::build(fast, slow, config, times)
    }

    /// Uniform-grid probe schedule: `n` probe times at the midpoints of
    /// a uniform subdivision of both captures' coverage intersection
    /// (so the singular coverage edges are never touched), 61-tap
    /// Kaiser reconstruction.
    ///
    /// Functionally interchangeable with
    /// [`paper_probes`](Self::paper_probes): the cost keeps its unique
    /// minimum at the true delay, and both schedules evaluate through
    /// the same probe sums at the same price.
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
        Self::build(fast, slow, config, times)
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
                PROBE_TAPS,
                PROBE_WINDOW,
            ),
            PnbsReconstructor::new_unchecked(
                self.config.slow_band(),
                d_hat,
                PROBE_TAPS,
                PROBE_WINDOW,
            ),
        )
    }

    /// Evaluates `ε(D̂)` (paper eq. 8) from the probe sums.
    ///
    /// Candidates are clamped into the open search interval `]0, m[`
    /// with a 0.1 ps margin, so optimizer overshoot cannot hit the
    /// kernel singularities at the interval ends.
    pub fn evaluate(&self, d_hat: f64) -> f64 {
        self.evaluator().eval(d_hat)
    }

    /// [`evaluate`](Self::evaluate) through the preserved direct
    /// reconstruction path (four kernel cosines + two Bessel series per
    /// tap) — the oracle and baseline the probe sums are measured
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

    /// A reusable evaluator holding the two value buffers one cost
    /// evaluation fills, sized to the probe count, so grid sweeps and
    /// LMS runs allocate once instead of per candidate. Cheap: the
    /// probe sums were built with the cost.
    pub fn evaluator(&self) -> CostEvaluator<'_> {
        CostEvaluator {
            cost: self,
            fast: Vec::with_capacity(self.times.len()),
            slow: Vec::with_capacity(self.times.len()),
        }
    }

    /// Evaluates `ε(D̂)` for every candidate in `candidates` through one
    /// evaluator — the batched form of the Fig. 5 sweep.
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

/// A cost evaluator bound to one [`DualRateCost`], carrying the two
/// per-probe value buffers it reuses across candidates.
///
/// Built by [`DualRateCost::evaluator`]; the LMS estimator keeps one
/// for its whole descent, and [`DualRateCost::eval_grid`] keeps one for
/// a whole grid.
#[derive(Clone, Debug)]
pub struct CostEvaluator<'a> {
    cost: &'a DualRateCost,
    fast: Vec<f64>,
    slow: Vec<f64>,
}

impl CostEvaluator<'_> {
    /// Evaluates `ε(D̂)` with the same clamping contract as
    /// [`DualRateCost::evaluate`]: both captures' probe sums at the
    /// clamped candidate, then the mean squared disagreement. Agrees
    /// with the direct reference to ≤ 1e-9 on either probe schedule.
    pub fn eval(&mut self, d_hat: f64) -> f64 {
        let cost = self.cost;
        let d = cost.clamp_candidate(d_hat);
        cost.fast_sums.eval_into(d, &mut self.fast);
        cost.slow_sums.eval_into(d, &mut self.slow);
        let acc: f64 = self
            .fast
            .iter()
            .zip(&self.slow)
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        acc / cost.times.len() as f64
    }

    /// Evaluates a batch of candidates through this evaluator's
    /// buffers — the entry point [`DualRateCost::eval_grid`] and the
    /// LMS gradient probes share.
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
        let (lo, hi) =
            DualRateCost::try_probe_window(cost.fast_capture(), cost.slow_capture(), cost.config())
                .expect("covered");
        let step = (hi - lo) / 120.0;
        let t0 = lo + 0.5 * step;
        assert!(step > 0.0);
        assert_eq!(cost.times().len(), 120);
        for (i, &t) in cost.times().iter().enumerate() {
            assert_eq!(t, t0 + i as f64 * step, "probe {i} off the grid");
        }
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
    fn uncovered_probe_times_are_typed_errors_per_capture() {
        let cost = paper_setup(true);
        let (fast, slow) = (cost.fast_capture(), cost.slow_capture());
        // past the fast capture's end, but inside the slow one's
        let late = (fast.n_start() + fast.len() as i64) as f64 * fast.period();
        for (t, channel) in [(late, "fast"), (0.0, "fast"), (cost.times()[0], "")] {
            let result = DualRateCost::try_new(fast.clone(), slow.clone(), *cost.config(), vec![t]);
            match result {
                Err(BistError::InvalidConfig { reason }) => {
                    assert!(reason.contains(&format!("outside {channel}-capture coverage")))
                }
                Ok(_) => assert!(channel.is_empty(), "{t:e} accepted"),
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        let slow_short = NonuniformCapture::from_streams(
            slow.period(),
            slow.delay(),
            slow.n_start(),
            slow.even()[..80].to_vec(),
            slow.odd()[..80].to_vec(),
        );
        let err = DualRateCost::try_new(fast.clone(), slow_short, *cost.config(), vec![late * 0.9])
            .unwrap_err();
        assert!(
            err.to_string().contains("outside slow-capture coverage"),
            "{err}"
        );
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
        );
    }
}
