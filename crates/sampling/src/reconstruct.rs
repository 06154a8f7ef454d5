//! Finite-tap windowed PNBS reconstruction (paper eq. 6).
//!
//! The exact interpolation (eq. 1) needs infinitely many samples; the
//! practical reconstructor truncates each stream to `nw + 1` taps around
//! the evaluation instant and tapers the kernel with a Kaiser window —
//! exactly the paper's setup ("the reconstruction filter has 61 taps
//! (nw = 60) and is windowed by a Kaiser window").
//!
//! The reconstructor's delay is the *estimate* `D̂`: captures are taken
//! with the true physical `D`, and the whole time-skew estimation problem
//! (paper Section IV) is about making `D̂` match `D`.

use crate::band::BandSpec;
use crate::gridplan::{GridBlocks, GridScratch, PnbsGridPlan};
use crate::kohlenberg::{DelayConstraintError, KohlenbergInterpolant};
use rfbist_dsp::window::Window;
use rfbist_signal::traits::ContinuousSignal;

/// A two-stream nonuniform capture: `even[i] = f((n₀+i)·T)` and
/// `odd[i] = f((n₀+i)·T + D)`.
///
/// Produced either ideally ([`from_signal`](Self::from_signal)) or by the
/// converter models in `rfbist-converter` (with jitter, quantization and
/// channel mismatches).
#[derive(Clone, Debug, PartialEq)]
pub struct NonuniformCapture {
    period: f64,
    delay: f64,
    n_start: i64,
    even: Vec<f64>,
    odd: Vec<f64>,
}

impl NonuniformCapture {
    /// Wraps pre-sampled streams.
    ///
    /// # Panics
    ///
    /// Panics if the streams differ in length, are empty, or
    /// `period <= 0`.
    pub fn from_streams(
        period: f64,
        delay: f64,
        n_start: i64,
        even: Vec<f64>,
        odd: Vec<f64>,
    ) -> Self {
        assert!(period > 0.0, "sample period must be positive");
        assert_eq!(even.len(), odd.len(), "streams must have equal length");
        assert!(!even.is_empty(), "capture must be non-empty");
        NonuniformCapture {
            period,
            delay,
            n_start,
            even,
            odd,
        }
    }

    /// Samples `signal` ideally (no jitter, no quantization): `count`
    /// pairs starting at index `n_start`.
    pub fn from_signal<S: ContinuousSignal>(
        signal: &S,
        period: f64,
        delay: f64,
        n_start: i64,
        count: usize,
    ) -> Self {
        assert!(period > 0.0, "sample period must be positive");
        assert!(count > 0, "capture must be non-empty");
        let mut even = Vec::with_capacity(count);
        let mut odd = Vec::with_capacity(count);
        for i in 0..count {
            let t = (n_start + i as i64) as f64 * period;
            even.push(signal.eval(t));
            odd.push(signal.eval(t + delay));
        }
        NonuniformCapture {
            period,
            delay,
            n_start,
            even,
            odd,
        }
    }

    /// Nominal sample period `T` in seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The physical delay `D` the capture was taken with, in seconds.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// Index of the first sample pair.
    pub fn n_start(&self) -> i64 {
        self.n_start
    }

    /// Number of sample pairs.
    pub fn len(&self) -> usize {
        self.even.len()
    }

    /// `true` when the capture holds no samples (cannot normally occur).
    pub fn is_empty(&self) -> bool {
        self.even.is_empty()
    }

    /// The `f(nT)` stream.
    pub fn even(&self) -> &[f64] {
        &self.even
    }

    /// The `f(nT + D)` stream.
    pub fn odd(&self) -> &[f64] {
        &self.odd
    }

    /// The time interval over which this capture holds the whole
    /// support of a `num_taps`-tap reconstruction filter
    /// (`num_taps = nw + 1`): `[(n₀ + h)·T, (n₀ + len − 1 − h)·T]` with
    /// `h = nw/2`; `None` when it is too short for even one evaluation.
    /// The kernel's delay plays no part.
    pub fn coverage(&self, num_taps: usize) -> Option<(f64, f64)> {
        let h = (num_taps / 2) as i64;
        let lo = self.n_start + h;
        let hi = self.n_start + self.len() as i64 - 1 - h;
        (hi >= lo).then_some((lo as f64 * self.period, hi as f64 * self.period))
    }
}

/// Windowed finite-tap PNBS reconstructor.
///
/// # Example
///
/// ```
/// use rfbist_sampling::band::BandSpec;
/// use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
/// use rfbist_signal::tone::Tone;
/// use rfbist_signal::traits::ContinuousSignal;
///
/// let band = BandSpec::centered(1e9, 90e6);
/// let d = 180e-12;
/// let tone = Tone::unit(0.98e9);
/// let cap = NonuniformCapture::from_signal(&tone, 1.0 / 90e6, d, -40, 300);
/// let rec = PnbsReconstructor::paper_default(band, d).unwrap();
/// let t = 1.0e-6;
/// let err = (rec.reconstruct_at(&cap, t) - tone.eval(t)).abs();
/// assert!(err < 0.02);
/// ```
#[derive(Clone, Debug)]
pub struct PnbsReconstructor {
    kernel: KohlenbergInterpolant,
    band: BandSpec,
    half_taps: usize,
    window: Window,
    grid_plan: PnbsGridPlan,
}

impl PnbsReconstructor {
    /// Builds a reconstructor for `band` assuming inter-channel delay
    /// `delay_estimate`, with `num_taps` kernel taps per stream
    /// (`num_taps = nw + 1`, odd) tapered by `window`.
    ///
    /// # Errors
    ///
    /// Propagates [`DelayConstraintError`] for invalid delays.
    ///
    /// # Panics
    ///
    /// Panics if `num_taps` is even or zero.
    pub fn new(
        band: BandSpec,
        delay_estimate: f64,
        num_taps: usize,
        window: Window,
    ) -> Result<Self, DelayConstraintError> {
        assert!(num_taps % 2 == 1, "tap count must be odd (nw + 1)");
        let kernel = KohlenbergInterpolant::new(band, delay_estimate)?;
        Ok(PnbsReconstructor {
            kernel,
            band,
            half_taps: num_taps / 2,
            window,
            grid_plan: PnbsGridPlan::new(band, delay_estimate, num_taps, window),
        })
    }

    /// The paper's configuration: 61 taps (`nw = 60`), Kaiser window
    /// (β = 8).
    pub fn paper_default(
        band: BandSpec,
        delay_estimate: f64,
    ) -> Result<Self, DelayConstraintError> {
        PnbsReconstructor::new(band, delay_estimate, 61, Window::Kaiser(8.0))
    }

    /// Builds without delay-constraint checks (for instability studies).
    pub fn new_unchecked(
        band: BandSpec,
        delay_estimate: f64,
        num_taps: usize,
        window: Window,
    ) -> Self {
        assert!(num_taps % 2 == 1, "tap count must be odd (nw + 1)");
        let kernel = KohlenbergInterpolant::new_unchecked(band, delay_estimate);
        PnbsReconstructor {
            kernel,
            band,
            half_taps: num_taps / 2,
            window,
            grid_plan: PnbsGridPlan::new(band, delay_estimate, num_taps, window),
        }
    }

    /// The assumed delay estimate `D̂` in seconds.
    pub fn delay_estimate(&self) -> f64 {
        self.kernel.delay()
    }

    /// The reconstruction band.
    pub fn band(&self) -> BandSpec {
        self.band
    }

    /// Taps per stream (`nw + 1`).
    pub fn num_taps(&self) -> usize {
        2 * self.half_taps + 1
    }

    /// The time interval over which `capture` fully covers the filter
    /// support ([`NonuniformCapture::coverage`] at this tap count).
    ///
    /// Returns `None` when the capture is too short for even one
    /// evaluation.
    pub fn coverage(&self, capture: &NonuniformCapture) -> Option<(f64, f64)> {
        self.grid_plan.coverage(capture)
    }

    /// The precomputed reconstruction plan this reconstructor
    /// evaluates through (eq. 2 constants, factored phasor tables,
    /// tabulated window) — see [`PnbsGridPlan`].
    pub fn grid_plan(&self) -> &PnbsGridPlan {
        &self.grid_plan
    }

    /// Reconstructs `f(t)`, returning `None` if the capture does not
    /// cover the filter support at `t`.
    ///
    /// Evaluates through the plan's arbitrary-instant order
    /// ([`PnbsGridPlan::try_reconstruct_instants`]), bit-identical to
    /// the same instant inside a [`reconstruct_batch`](Self::reconstruct_batch)
    /// and equivalent to
    /// [`try_reconstruct_at_reference`](Self::try_reconstruct_at_reference)
    /// to ≪ 1e-9. Each call fills the plan's tables over the whole
    /// capture: batch many instants instead.
    pub fn try_reconstruct_at(&self, capture: &NonuniformCapture, t: f64) -> Option<f64> {
        self.grid_plan
            .try_reconstruct_instants(capture, &[t], &mut GridScratch::new())
            .and_then(|v| v.first().copied())
    }

    /// The direct (unplanned) eq. 6 evaluation: four kernel cosines and
    /// two Kaiser Bessel-`I0` series per tap. Preserved as the measured
    /// baseline for the perf-trajectory harness and as the oracle for
    /// the plan-equivalence tests.
    pub fn try_reconstruct_at_reference(&self, capture: &NonuniformCapture, t: f64) -> Option<f64> {
        let period = capture.period();
        let t_idx = t / period;
        let nc = t_idx.round() as i64;
        let h = self.half_taps as i64;
        let first = nc - h;
        let last = nc + h;
        if first < capture.n_start() || last >= capture.n_start() + capture.len() as i64 {
            return None;
        }
        // Window half-width slightly beyond the tap span so no in-span
        // tap falls outside the window support for any rounding of t.
        let hw = self.half_taps as f64 + 1.0;
        let d_hat = self.kernel.delay();
        let d_norm = d_hat / period;
        let mut acc = 0.0;
        for n in first..=last {
            let idx = (n - capture.n_start()) as usize;
            let offset = n as f64 - t_idx;
            // even stream: f(nT)·s(t − nT)
            let w_e = self.window.at(0.5 + offset / (2.0 * hw));
            if w_e != 0.0 {
                acc += capture.even()[idx] * self.kernel.eval(t - n as f64 * period) * w_e;
            }
            // odd stream: f(nT + D)·s(nT + D̂ − t)
            let w_o = self.window.at(0.5 + (offset + d_norm) / (2.0 * hw));
            if w_o != 0.0 {
                acc += capture.odd()[idx] * self.kernel.eval(n as f64 * period + d_hat - t) * w_o;
            }
        }
        Some(acc)
    }

    /// Reconstructs `f(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `t` lies outside [`coverage`](Self::coverage) — silent
    /// zero-padding would corrupt the error metrics this workspace is
    /// built to measure.
    pub fn reconstruct_at(&self, capture: &NonuniformCapture, t: f64) -> f64 {
        self.try_reconstruct_at(capture, t).unwrap_or_else(|| {
            panic!(
                "t = {t:.3e} s outside capture coverage {:?}",
                self.coverage(capture)
            )
        })
    }

    /// [`reconstruct_at`](Self::reconstruct_at) through the preserved
    /// direct path — the scalar baseline.
    ///
    /// # Panics
    ///
    /// Panics as [`reconstruct_at`](Self::reconstruct_at) does.
    pub fn reconstruct_at_reference(&self, capture: &NonuniformCapture, t: f64) -> f64 {
        self.try_reconstruct_at_reference(capture, t)
            .unwrap_or_else(|| {
                panic!(
                    "t = {t:.3e} s outside capture coverage {:?}",
                    self.coverage(capture)
                )
            })
    }

    /// Reconstructs at each instant in `times`.
    ///
    /// # Panics
    ///
    /// Panics as [`reconstruct_at`](Self::reconstruct_at) does.
    pub fn reconstruct(&self, capture: &NonuniformCapture, times: &[f64]) -> Vec<f64> {
        let mut scratch = GridScratch::new();
        self.reconstruct_batch(capture, times, &mut scratch);
        scratch.into_values()
    }

    /// Reconstructs every instant of `times` through the plan's
    /// arbitrary-instant order, reusing `scratch`'s buffers, and returns
    /// the filled slice — the allocation-free form for repeated calls.
    ///
    /// # Panics
    ///
    /// Panics as [`reconstruct_at`](Self::reconstruct_at) does.
    pub fn reconstruct_batch<'s>(
        &self,
        capture: &NonuniformCapture,
        times: &[f64],
        scratch: &'s mut GridScratch,
    ) -> &'s [f64] {
        self.grid_plan.reconstruct_instants(capture, times, scratch)
    }

    /// Reconstructs the `n` uniform grid instants `t0, t0 + step, …`
    /// through the plan's phase-major grid order — the entry point for
    /// dense analysis grids (one row per residue of the step's rational
    /// lattice of the sample period, or one row per point on grids off
    /// any short lattice). Equivalent to
    /// [`reconstruct_batch`](Self::reconstruct_batch) over the same
    /// instants to ≪ 1e-9.
    ///
    /// # Panics
    ///
    /// Panics if any grid instant falls outside
    /// [`coverage`](Self::coverage), or if `step` is not positive.
    pub fn reconstruct_grid<'s>(
        &self,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        scratch: &'s mut GridScratch,
    ) -> &'s [f64] {
        self.grid_plan
            .reconstruct_grid(capture, t0, step, n, scratch)
    }

    /// [`reconstruct_grid`](Self::reconstruct_grid), returning `None`
    /// instead of panicking when the grid leaves the capture's
    /// coverage.
    pub fn try_reconstruct_grid<'s>(
        &self,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        scratch: &'s mut GridScratch,
    ) -> Option<&'s [f64]> {
        self.grid_plan
            .try_reconstruct_grid(capture, t0, step, n, scratch)
    }

    /// Streams the `n` uniform grid instants as
    /// [`GRID_BLOCK_LEN`](crate::gridplan::GRID_BLOCK_LEN)-point
    /// blocks through the grid plan's producer
    /// ([`PnbsGridPlan::reconstruct_blocks`]) — the producer side of a
    /// streaming verdict pipeline, where no full-grid buffer ever
    /// materializes. The blocks are bit-identical to
    /// [`reconstruct_grid`](Self::reconstruct_grid).
    ///
    /// # Panics
    ///
    /// Panics as [`reconstruct_grid`](Self::reconstruct_grid) does.
    pub fn reconstruct_blocks<'a>(
        &'a self,
        capture: &'a NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        scratch: &'a mut GridScratch,
    ) -> GridBlocks<'a> {
        self.grid_plan
            .reconstruct_blocks(capture, t0, step, n, scratch)
    }

    /// The early-stop feed:
    /// [`reconstruct_blocks`](Self::reconstruct_blocks) in
    /// [`SUPER_BLOCK_LEN`](crate::gridplan::SUPER_BLOCK_LEN)-point
    /// chunks, so a consumer that stops early skips the rest of the
    /// grid and its row builds. The blocks are bit-identical to
    /// [`reconstruct_blocks`](Self::reconstruct_blocks)'.
    ///
    /// # Panics
    ///
    /// Panics as [`reconstruct_grid`](Self::reconstruct_grid) does.
    pub fn reconstruct_stoppable_blocks<'a>(
        &'a self,
        capture: &'a NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        scratch: &'a mut GridScratch,
    ) -> GridBlocks<'a> {
        self.grid_plan
            .reconstruct_stoppable_blocks(capture, t0, step, n, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfbist_math::rng::Randomizer;
    use rfbist_math::stats::nrmse;
    use rfbist_signal::bandpass::BandpassSignal;
    use rfbist_signal::baseband::ShapedBaseband;
    use rfbist_signal::tone::{MultiTone, Tone};

    const FC: f64 = 1e9;
    const B: f64 = 90e6;
    const D: f64 = 180e-12;

    fn band() -> BandSpec {
        BandSpec::centered(FC, B)
    }

    fn probe_times(n: usize, t0: f64, t1: f64, seed: u64) -> Vec<f64> {
        let mut rng = Randomizer::from_seed(seed);
        (0..n).map(|_| rng.uniform(t0, t1)).collect()
    }

    #[test]
    fn tone_reconstruction_is_accurate() {
        let tone = Tone::unit(0.98e9);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&tone, t_s, D, -50, 350);
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        let times = probe_times(200, 0.5e-6, 2.0e-6, 1);
        let got = rec.reconstruct(&cap, &times);
        let want = tone.sample(&times);
        let err = nrmse(&got, &want);
        assert!(err < 0.01, "nrmse {err}");
    }

    #[test]
    fn multitone_reconstruction_is_accurate() {
        // several tones spread across the band
        let sig = MultiTone::new(vec![
            Tone::new(0.96e9, 0.5, 0.3),
            Tone::new(0.99e9, 1.0, 1.1),
            Tone::new(1.02e9, 0.7, 2.0),
            Tone::new(1.04e9, 0.4, 0.7),
        ]);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&sig, t_s, D, -50, 350);
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        let times = probe_times(200, 0.5e-6, 2.0e-6, 2);
        let err = nrmse(&rec.reconstruct(&cap, &times), &sig.sample(&times));
        assert!(err < 0.015, "nrmse {err}");
    }

    #[test]
    fn qpsk_signal_reconstruction_is_accurate() {
        let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 96, 0xACE1);
        let tx = BandpassSignal::new(bb, FC);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&tx, t_s, D, 80, 350);
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        let (t0, t1) = tx.steady_time_range();
        let (c0, c1) = rec.coverage(&cap).unwrap();
        let times = probe_times(300, t0.max(c0), t1.min(c1), 3);
        let err = nrmse(&rec.reconstruct(&cap, &times), &tx.sample(&times));
        assert!(err < 0.015, "nrmse {err}");
    }

    #[test]
    fn accuracy_improves_with_tap_count() {
        let tone = Tone::unit(1.01e9);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&tone, t_s, D, -120, 600);
        let times = probe_times(100, 1.0e-6, 2.5e-6, 4);
        let want = tone.sample(&times);
        let mut last_err = f64::INFINITY;
        for taps in [21usize, 61, 121, 201] {
            let rec = PnbsReconstructor::new(band(), D, taps, Window::Kaiser(8.0)).unwrap();
            let err = nrmse(&rec.reconstruct(&cap, &times), &want);
            assert!(err < last_err, "taps {taps}: {err} !< {last_err}");
            last_err = err;
        }
        assert!(last_err < 1e-3, "201-tap error {last_err}");
    }

    #[test]
    fn planned_and_reference_paths_agree() {
        let tone = Tone::unit(0.97e9);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&tone, t_s, D, -50, 350);
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        for &t in &probe_times(100, 0.5e-6, 2.0e-6, 11) {
            let planned = rec.reconstruct_at(&cap, t);
            let reference = rec.reconstruct_at_reference(&cap, t);
            assert!(
                (planned - reference).abs() < 1e-10,
                "t = {t:e}: planned {planned} vs reference {reference}"
            );
        }
    }

    #[test]
    fn batch_matches_scalar_path_exactly() {
        let tone = Tone::unit(0.99e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        let times = probe_times(60, 0.5e-6, 2.0e-6, 12);
        let mut scratch = GridScratch::new();
        let batch = rec.reconstruct_batch(&cap, &times, &mut scratch);
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(batch[i], rec.reconstruct_at(&cap, t));
        }
    }

    #[test]
    fn grid_path_matches_batch_path() {
        let tone = Tone::unit(0.99e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        let (t0, step, n) = (0.8e-6, 2.5e-10, 600);
        let times: Vec<f64> = (0..n).map(|i| t0 + i as f64 * step).collect();
        let mut gs = GridScratch::new();
        let grid = rec.reconstruct_grid(&cap, t0, step, n, &mut gs).to_vec();
        let batch = rec.reconstruct(&cap, &times);
        for i in 0..n {
            assert!(
                (grid[i] - batch[i]).abs() < 1e-10,
                "grid vs batch at point {i}: {} vs {}",
                grid[i],
                batch[i]
            );
        }
        // try_ form mirrors coverage behaviour
        assert!(rec
            .try_reconstruct_grid(&cap, -1.0e-6, step, 4, &mut gs)
            .is_none());
    }

    #[test]
    fn wrong_delay_estimate_degrades_reconstruction() {
        let tone = Tone::unit(0.99e9);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&tone, t_s, D, -50, 350);
        let times = probe_times(150, 0.5e-6, 2.0e-6, 5);
        let want = tone.sample(&times);

        let good = PnbsReconstructor::paper_default(band(), D).unwrap();
        let err_good = nrmse(&good.reconstruct(&cap, &times), &want);

        let bad = PnbsReconstructor::paper_default(band(), D + 10e-12).unwrap();
        let err_bad = nrmse(&bad.reconstruct(&cap, &times), &want);

        assert!(err_bad > 4.0 * err_good, "good {err_good}, bad {err_bad}");
        // eq. (4) scale check: ΔF ≈ πB(k+1)ΔD = π·90e6·23·10e-12 ≈ 6.5 %
        assert!(err_bad > 0.02 && err_bad < 0.2, "err_bad {err_bad}");
    }

    #[test]
    fn integer_positioned_band_reconstructs() {
        // B = 80 MHz at 1 GHz: s0 ≡ 0 path
        let band80 = BandSpec::centered(FC, 80e6);
        let tone = Tone::unit(0.99e9);
        let t_s = 1.0 / 80e6;
        let cap = NonuniformCapture::from_signal(&tone, t_s, 200e-12, -50, 350);
        let rec = PnbsReconstructor::paper_default(band80, 200e-12).unwrap();
        let times = probe_times(100, 0.5e-6, 2.0e-6, 6);
        let err = nrmse(&rec.reconstruct(&cap, &times), &tone.sample(&times));
        assert!(err < 0.01, "nrmse {err}");
    }

    #[test]
    fn coverage_bounds_are_enforced() {
        let tone = Tone::unit(1.0e9);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&tone, t_s, D, 0, 100);
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        let (lo, hi) = rec.coverage(&cap).unwrap();
        assert!((lo - 30.0 * t_s).abs() < 1e-15);
        assert!((hi - 69.0 * t_s).abs() < 1e-15);
        assert!(rec.try_reconstruct_at(&cap, lo).is_some());
        assert!(rec.try_reconstruct_at(&cap, lo - t_s).is_none());
        assert!(rec.try_reconstruct_at(&cap, hi + t_s).is_none());
    }

    #[test]
    fn too_short_capture_has_no_coverage() {
        let tone = Tone::unit(1.0e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, 0, 20);
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        assert!(rec.coverage(&cap).is_none());
    }

    #[test]
    #[should_panic(expected = "outside capture coverage")]
    fn out_of_coverage_panics() {
        let tone = Tone::unit(1.0e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, 0, 100);
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        let _ = rec.reconstruct_at(&cap, 0.0);
    }

    #[test]
    fn capture_accessors() {
        let tone = Tone::unit(1.0e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -5, 42);
        assert_eq!(cap.len(), 42);
        assert!(!cap.is_empty());
        assert_eq!(cap.n_start(), -5);
        assert_eq!(cap.even().len(), 42);
        assert_eq!(cap.odd().len(), 42);
        assert_eq!(cap.delay(), D);
        // even[5] is f(0)
        assert!((cap.even()[5] - tone.eval(0.0)).abs() < 1e-15);
        // odd[5] is f(D)
        assert!((cap.odd()[5] - tone.eval(D)).abs() < 1e-15);
    }

    #[test]
    fn from_streams_round_trip() {
        let cap = NonuniformCapture::from_streams(1e-8, D, 3, vec![1.0, 2.0], vec![3.0, 4.0]);
        assert_eq!(cap.even(), &[1.0, 2.0]);
        assert_eq!(cap.odd(), &[3.0, 4.0]);
        assert_eq!(cap.period(), 1e-8);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_streams_panic() {
        let _ = NonuniformCapture::from_streams(1e-8, D, 0, vec![1.0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_tap_count_panics() {
        let _ = PnbsReconstructor::new(band(), D, 60, Window::Kaiser(8.0));
    }
}
