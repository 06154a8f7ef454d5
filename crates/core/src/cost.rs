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
//! capture, plus the exact taps. The uniform-grid schedule puts its
//! probes on a short rational lattice of `T`
//! ([`grid_probes`](DualRateCost::grid_probes)), so each capture's
//! sums are built in grid order: the probes of one lattice residue
//! share their window fills, divides and exact-tap geometry. On the
//! engine's Section V cost (300 probes, 2-core AVX-512 VM) that build
//! takes ~0.25–0.33 ms against ~0.9–1.2 ms for the same times as
//! arbitrary instants (the paper's random schedule's cost), and an
//! evaluation ~5–8 µs against ~8–14 µs, where two 2 × 61-tap weight
//! rows per probe cost ~0.3–0.4 ms. Both schedules agree with the
//! direct reference ([`evaluate_reference`](DualRateCost::evaluate_reference))
//! to ≤ 1e-9 across `]0, m[`.

use crate::error::BistError;
use rfbist_math::rng::Randomizer;
use rfbist_sampling::dualrate::DualRateConfig;
use rfbist_sampling::gridplan::{ProbeSums, ProbeSumsError, PROBE_TAPS, PROBE_WINDOW};
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};

/// Largest lattice denominator `q` of the
/// [`grid_probes`](DualRateCost::grid_probes) schedule's step `p/q·T`:
/// small enough that each residue holds tens of the paper's 300 probes,
/// large enough that the step stays within 0.4 % of the midpoint
/// schedule's on Section V.
pub const MAX_PROBE_LATTICE_PHASES: usize = 16;

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
        Self::build(fast, slow, config, times, None)
    }

    /// Builds both captures' probe sums over `times` — the one place
    /// every constructor pays for, so an evaluation only combines them.
    /// With `grid = Some((t0, step))`, `times` is the uniform grid
    /// `t0 + i·step` and the sums are built in grid order.
    fn build(
        fast: NonuniformCapture,
        slow: NonuniformCapture,
        config: DualRateConfig,
        times: Vec<f64>,
        grid: Option<(f64, f64)>,
    ) -> Result<Self, BistError> {
        let sums = |band, capture: &NonuniformCapture, channel: &str| {
            let m = config.m_bound();
            match grid {
                Some((t0, step)) => {
                    ProbeSums::try_new_grid(band, capture, t0, step, times.len(), m)
                }
                None => ProbeSums::try_new(band, capture, &times, m),
            }
            .map_err(|e| BistError::InvalidConfig {
                reason: match e {
                    ProbeSumsError::OutsideCoverage { time } => {
                        format!("probe time {time:.3e} s outside {channel}-capture coverage")
                    }
                    other => other.to_string(),
                },
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
    ///
    /// The window is where both captures hold the whole
    /// [`PROBE_TAPS`]-tap support of every probe: it depends on the
    /// captures alone, so `_config` (its delay included) plays no part.
    pub fn try_probe_window(
        fast: &NonuniformCapture,
        slow: &NonuniformCapture,
        _config: &DualRateConfig,
    ) -> Result<(f64, f64), String> {
        let (f_lo, f_hi) = fast
            .coverage(PROBE_TAPS)
            .ok_or("fast capture too short")
            .map_err(str::to_string)?;
        let (s_lo, s_hi) = slow
            .coverage(PROBE_TAPS)
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
        Self::build(fast, slow, config, times, None)
    }

    /// Uniform-grid probe schedule: `n` probe times on a short rational
    /// lattice of the fast sample period `T`, centred in both captures'
    /// coverage intersection (so the singular coverage edges are never
    /// touched), 61-tap Kaiser reconstruction. The step is `p/q·T`, the
    /// largest fraction not above `window/(n·T)` with
    /// `q ≤` [`MAX_PROBE_LATTICE_PHASES`] ([`try_probe_lattice`](Self::try_probe_lattice)):
    /// `12/13·T` on Section V (`6/13·T₁` on the slow capture), so the
    /// probes of each lattice residue share their weights and the
    /// probe sums are built in grid order at about half the cost of
    /// arbitrary instants.
    ///
    /// Functionally interchangeable with
    /// [`paper_probes`](Self::paper_probes): the cost keeps its unique
    /// minimum at the true delay, and both schedules evaluate through
    /// the same probe sums.
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
        let (t0, step) = Self::try_probe_lattice(&fast, &slow, &config, n)?;
        let times = (0..n).map(|i| t0 + i as f64 * step).collect();
        Self::build(fast, slow, config, times, Some((t0, step)))
    }

    /// The first probe time and the step of the
    /// [`grid_probes`](Self::grid_probes) schedule of `n` probes: the
    /// step is `p/q·T` (`T` the fast period), the largest such fraction
    /// not above `window/(n·T)` for `q ≤` [`MAX_PROBE_LATTICE_PHASES`],
    /// in lowest terms, and the `n` probes are centred in the coverage
    /// window to within half the residue spacing `T/q`, placed so that
    /// no probe sits on a sample instant or half a sample off one. A
    /// window too short for `T/16` per probe falls back to its uniform
    /// midpoint subdivision.
    ///
    /// # Errors
    ///
    /// As [`try_grid_probes`](Self::try_grid_probes): an empty schedule
    /// or an undersized capture.
    pub fn try_probe_lattice(
        fast: &NonuniformCapture,
        slow: &NonuniformCapture,
        config: &DualRateConfig,
        n: usize,
    ) -> Result<(f64, f64), BistError> {
        if n == 0 {
            return Err(BistError::InvalidConfig {
                reason: "at least one probe time required".to_string(),
            });
        }
        let (lo, hi) = Self::try_probe_window(fast, slow, config)
            .map_err(|reason| BistError::CaptureTooShort { reason })?;
        let window = hi - lo;
        let period = fast.period();
        let x = window / (n as f64 * period);
        let (mut p, mut q) = (0usize, 1usize);
        for k in 1..=MAX_PROBE_LATTICE_PHASES {
            // strictly larger only: an equal fraction keeps the
            // smaller denominator, so p/q ends in lowest terms
            let j = (x * k as f64).floor() as usize;
            if j * q > p * k {
                (p, q) = (j, k);
            }
        }
        if p == 0 {
            let step = window / n as f64;
            return Ok((lo + 0.5 * step, step));
        }
        let step = p as f64 * period / q as f64;
        // Centred, then moved (by at most half the residue spacing T/q)
        // to a quarter spacing past the sample instants' lattice
        // points: on both captures every residue then sits ≥ T/(4q)
        // off a sample instant, where the odd stream's pole would sit
        // at the end D̂ = 0 of the search interval, and off the
        // half-sample tie.
        let centre = lo + 0.5 * (window - (n - 1) as f64 * step);
        let spacing = period / q as f64;
        let t0 = ((centre / spacing - 0.25).round() + 0.25) * spacing;
        Ok((t0, step))
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
    fn probe_window_is_the_captures_coverage_at_any_delay() {
        // A kernel built at 1e-16 s fails the eq. 3 delay check, but the
        // window is the captures' 61-tap coverage: the paper delay's,
        // bit for bit.
        let cost = paper_setup(true);
        let (fast, slow) = (cost.fast_capture(), cost.slow_capture());
        let tiny = DualRateConfig::new(1e9, 90e6, 45e6, 1e-16).expect("1e-16 s lies in ]0, m[");
        let window = |config| {
            let (lo, hi): (f64, f64) =
                DualRateCost::try_probe_window(fast, slow, config).expect("captures overlap");
            (lo.to_bits(), hi.to_bits())
        };
        assert_eq!(window(&tiny), window(cost.config()));
        assert!(DualRateCost::try_grid_probes(fast.clone(), slow.clone(), tiny, 300).is_ok());
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
    fn grid_probes_form_a_lattice_of_the_fast_period() {
        for n in [120, 300, 37] {
            let cost = DualRateCost::grid_probes(
                paper_setup(true).fast_capture().clone(),
                paper_setup(true).slow_capture().clone(),
                DualRateConfig::paper_section_v(),
                n,
            );
            let (fast, slow) = (cost.fast_capture(), cost.slow_capture());
            let (lo, hi) = DualRateCost::try_probe_window(fast, slow, cost.config()).unwrap();
            let period = fast.period();
            // the largest p/q ≤ window/(n·T) over q ≤ 16, by brute force
            let x = (hi - lo) / (n as f64 * period);
            let (p, q) = (1..=MAX_PROBE_LATTICE_PHASES)
                .flat_map(|q| (1..=q * 8).map(move |p| (p, q)))
                .filter(|&(p, q)| (p as f64) <= x * q as f64)
                .max_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)).then(b.1.cmp(&a.1)))
                .unwrap();
            assert!(q <= MAX_PROBE_LATTICE_PHASES);
            let step = p as f64 * period / q as f64;
            let (t0, got_step) =
                DualRateCost::try_probe_lattice(fast, slow, cost.config(), n).unwrap();
            assert_eq!(got_step, step, "n = {n}: step is {p}/{q}·T");
            assert_eq!(cost.times().len(), n);
            for (i, &t) in cost.times().iter().enumerate() {
                assert_eq!(
                    t,
                    t0 + i as f64 * step,
                    "n = {n}: probe {i} off the lattice"
                );
                assert!(t > lo && t < hi, "n = {n}: probe {i} outside the window");
            }
            // centred to within half the residue spacing, and a quarter
            // spacing off every sample instant of both captures
            let margin = (t0 - lo, hi - cost.times()[n - 1]);
            assert!(
                (margin.0 - margin.1).abs() <= period / q as f64 * (1.0 + 1e-9),
                "n = {n}: {margin:?}"
            );
            for &t in cost.times() {
                for cap in [fast, slow] {
                    let off = (t / cap.period()).fract();
                    let nearest = off.min(1.0 - off).min((off - 0.5).abs());
                    assert!(
                        nearest >= 0.99 / (4 * 2 * q) as f64,
                        "n = {n}: probe at {off} of a sample"
                    );
                }
            }
        }
        // the engine's 300 probes on its Section V captures (fast 380
        // pairs from sample 80, slow 200 from 40) sit on 12/13·T,
        // which is 6/13 of the slow period
        let cfg = DualRateConfig::paper_section_v();
        let tx = BandpassSignal::new(ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 96, 1), 1e9);
        let fast =
            BpTiadc::new(BpTiadcConfig::ideal(cfg.fast_rate(), cfg.delay())).capture(&tx, 80, 380);
        let slow =
            BpTiadc::new(BpTiadcConfig::ideal(cfg.slow_rate(), cfg.delay())).capture(&tx, 40, 200);
        let (_, step) = DualRateCost::try_probe_lattice(&fast, &slow, &cfg, 300).unwrap();
        assert_eq!(step, 12.0 * fast.period() / 13.0);
        assert_eq!(step, 6.0 * slow.period() / 13.0);
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
