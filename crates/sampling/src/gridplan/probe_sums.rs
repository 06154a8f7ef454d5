//! `D̂`-separable probe sums: one capture's eq. 6 reconstructions at a
//! fixed set of probe instants, summarized once so that any candidate
//! delay `D̂ ∈ ]0, m[` costs a few dozen multiply-adds per probe instead
//! of a 2 × 61-tap weight row. The dual-rate cost (paper eqs. 7–8)
//! builds one per capture, and the LMS (Algorithm 1) evaluates it
//! ~50 times per descent.
//!
//! The eq. 2 kernel depends on `D̂` in two places only: the numerator
//! weights `(αⱼ, βⱼ)` of [`kernel_weights`] (the `cot(kπBD̂)` and
//! `cot(k⁺πBD̂)` terms), and the odd stream's shift `τ = u + D̂` with
//! `u = nT − t`. The frequencies `ωⱼ` do not depend on `D̂`. So, per
//! probe `t`:
//!
//! - **Even stream, exact.** Its value is `Σⱼ αⱼ·Cⱼ + βⱼ·Sⱼ` over six
//!   sums `Cⱼ = Σₙ x(nT)·w·cos(ωⱼτ)/(2πBτ)` (and `Sⱼ` with `sin`),
//!   `τ = t − nT`, plus a `D̂`-independent constant: the kernel limit
//!   `s(0)` of a probe that sits exactly on a sample instant.
//! - **Odd stream, separable.** With `cⱼ, sⱼ = cos, sin ωⱼD̂`, the
//!   angle-sum identity gives `αⱼcos ωⱼτ + βⱼ sin ωⱼτ =
//!   α′ⱼcos ωⱼu + β′ⱼ sin ωⱼu`, `α′ⱼ = αⱼcⱼ + βⱼsⱼ`,
//!   `β′ⱼ = βⱼcⱼ − αⱼsⱼ`: weights that depend on `D̂` alone. What is
//!   left per probe is six sums `Σₙ x(nT + D)·cos/sin(ωⱼu)·G(u + D̂)/(2πB)`
//!   with `G(τ) = w(½ + τ/(2(h+1)T))/τ`. Away from its pole, `G` is
//!   smooth in `D̂` over `[0, m]`, so each sum is stored as its values
//!   at the [`FIT_NODES`] Chebyshev nodes of `[0, m]` and evaluated
//!   through the degree-[`FIT_DEGREE`] interpolant.
//! - **Exact taps.** A tap whose pole `D̂ = −u` lies within the pole
//!   guard of `[0, m]` (the larger of [`POLE_GUARD_FRACTION`]` · T` and
//!   [`POLE_GUARD_HALF_WIDTHS`] half-widths of `[0, m]`) is left out of
//!   the fit and evaluated exactly for each candidate: the window table
//!   at its shifted position, and the kernel numerator `Σⱼ α′ⱼcos ωⱼu +
//!   β′ⱼ sin ωⱼu` over `2πB(u + D̂)` (the form of
//!   [`PnbsGridPlan`](super::PnbsGridPlan)'s exact near-origin kernel),
//!   with `cos, sin ωⱼu` exact to a rounding (below). A tap whose
//!   odd-stream window position leaves the window's support over
//!   `[0, m]`, where the window steps to zero, is evaluated the same
//!   way. On the Section V cost
//!   (`m/T ≈ 0.043`) about half of all probes have one exact tap and
//!   none has two; on the gsm-like deployment every probe has four on
//!   the fast capture (`m = T/3`) and two on the slow one (`m = T/6`).
//!
//! # Build and evaluation
//!
//! The build reuses the row builder's parts: the node-aligned window
//! table (planar fill), the eq. 2 constants and exact phasors. Each
//! tap's `e^{jωⱼu}` is one exact phasor per probe, taken at its center
//! tap, times a 61-entry table of `e^{jωⱼ(k − h)T}`: every phase is
//! referenced to the probe's own tap window, the center tap's is exact
//! and its neighbours' (the only taps near a `1/τ` pole) are one
//! rounding off, so no tap needs a separate exact path, and the build
//! allocates nothing but its results. Each probe then costs one
//! even-stream row and one odd-stream window fill, 61 divides and six
//! dot products per Chebyshev node. The fit is of the six *sums*, not
//! of each tap, which keeps the build near `FIT_NODES` odd-stream rows
//! per probe.
//! Its tables are sized exactly: `6 + 6·FIT_NODES` values plus a
//! constant per probe, and one small record per exact tap.
//!
//! An evaluation computes `(αⱼ, βⱼ)`, three `sincos` and the
//! Chebyshev basis once, folds them into one `6 + 6·FIT_NODES` weight
//! vector, and then costs one dot product of that length per probe,
//! plus six multiply-adds and one window lookup per exact tap. Both
//! inner loops run through the workspace's `#[target_feature]`
//! AVX-512F/AVX2 + FMA dispatch with the `RFBIST_FORCE_SCALAR` escape.
//!
//! # Validity
//!
//! Every fitted tap's pole lies at least [`POLE_GUARD_HALF_WIDTHS`]
//! half-widths from `[0, m]` and its window position stays inside the
//! support, so each fitted summand is analytic well beyond the fit
//! interval and the degree-[`FIT_DEGREE`] interpolant reproduces it to
//! ~1e-12 relative at any `m/T`: a wider search bound costs more exact
//! taps, not accuracy. [`ProbeSums::try_new`] admits any bound in
//! `]0, T]`, which holds every `m = 1/(k⁺B)`, and rejects others with
//! [`ProbeSumsError::SearchBound`]. The degree and the guards are
//! validated for the paper's reconstruction only ([`PROBE_TAPS`] taps,
//! [`PROBE_WINDOW`]), which is why none is an option.

use super::{
    covers_tap_window, kernel_frequencies, kernel_origin, kernel_weights, lane_sum, mad,
    time_phasors, GridWindow, ORIGIN_TAU,
};
use crate::band::BandSpec;
use crate::reconstruct::NonuniformCapture;
use rfbist_dsp::window::Window;
use rfbist_math::rotor::sincos;
use std::f64::consts::PI;
use std::fmt;
use std::sync::Arc;

/// Taps per stream of the probe reconstruction (the paper's `nw = 60`).
pub const PROBE_TAPS: usize = 61;

/// Tapering window of the probe reconstruction (the paper's Kaiser,
/// β = 8).
pub const PROBE_WINDOW: Window = Window::Kaiser(8.0);

/// Degree of the odd-stream Chebyshev interpolant. Worst |ε − direct
/// reference| over 99 candidates across ]0, m[ on four Section V costs
/// (paper front-end, 300 probes, both schedules): 6.3e-10 at degree 8,
/// the level of the per-instant planned engine's own error (5.6e-10);
/// 3.4e-9 at degree 6, which misses the 1e-9 contract; ~3e-6 at
/// degree 4. The pole guards below are what keep degree 8 enough at
/// any `m/T`: on four gsm-like deployment costs (`m = T/3` on the fast
/// capture) the same check reads 2.3e-10 (the per-instant engine:
/// 2.8e-10).
const FIT_DEGREE: usize = 8;

/// Chebyshev nodes per fitted sum.
const FIT_NODES: usize = FIT_DEGREE + 1;

/// Pole guard floor, as a fraction of the sample period: a tap whose
/// pole `D̂ = −u` lies within `T/4` of `[0, m]` is evaluated exactly.
/// On the Section V cost (`m/T ≈ 0.043`) this floor is the guard: it
/// sits 11.5 half-widths of `[0, m]` out.
const POLE_GUARD_FRACTION: f64 = 0.25;

/// Pole guard in half-widths of `[0, m]`: a tap whose pole lies within
/// this many half-widths of the interval is evaluated exactly too.
/// The degree-8 interpolant of `1/(s + a)` on `s ∈ [−1, 1]` errs by
/// `1/|T₉(a)|` relative, 7.7e-13 at `a = 1 + 11`; with a guard of `T/4`
/// alone, the gsm-like deployment's `m = T/3` would put the nearest
/// fitted pole at `a = 2.5`, 1.5e-6.
const POLE_GUARD_HALF_WIDTHS: f64 = 11.0;

/// Values per probe row: the six even-stream sums, then the six
/// odd-stream sums at each Chebyshev node (sum-major).
const ROW_LEN: usize = 6 + 6 * FIT_NODES;

/// Lanes of the multiply-add accumulators.
const LANES: usize = 8;

/// [`PROBE_TAPS`] rounded up to whole lane chunks.
const PADDED: usize = PROBE_TAPS.div_ceil(LANES) * LANES;

/// Tap steps per unit of window position, `2(h + 1)`.
const TAP_STRIDES: f64 = (2 * (PROBE_TAPS / 2 + 1)) as f64;

/// Window position step per tap, `1/(2(h + 1))`.
const INV_2HW: f64 = 1.0 / TAP_STRIDES;

/// Why a [`ProbeSums`] cannot be built.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProbeSumsError {
    /// A probe's tap window `round(t/T) ± h` leaves the capture.
    OutsideCoverage {
        /// The uncovered probe time, in seconds.
        time: f64,
    },
    /// The search bound `m` is not inside `]0, T]`, which holds every
    /// `m = 1/(k⁺B)`.
    SearchBound {
        /// The search bound `m`, in seconds.
        bound: f64,
        /// The capture's sample period `T`, in seconds.
        period: f64,
    },
}

impl fmt::Display for ProbeSumsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeSumsError::OutsideCoverage { time } => {
                write!(f, "probe time {time:.3e} s outside capture coverage")
            }
            ProbeSumsError::SearchBound { bound, period } => write!(
                f,
                "search bound m = {:.3} ps must lie in ]0, T] (T = {:.3} ps) for the \
                 separable probe sums",
                bound * 1e12,
                period * 1e12
            ),
        }
    }
}

impl std::error::Error for ProbeSumsError {}

/// An odd-stream tap kept out of the fit and evaluated exactly per
/// candidate (see [`FitSpan::is_exact`]).
#[derive(Clone, Copy, Debug)]
struct ExactTap {
    /// Index of the probe the tap belongs to.
    probe: usize,
    /// `u = nT − t`; the kernel argument is `u + D̂`.
    u: f64,
    /// Window position at `D̂ = 0`.
    x: f64,
    /// The odd-stream sample `x(nT + D)`.
    sample: f64,
    /// `[cos ω₀u, sin ω₀u, cos ω₁u, sin ω₁u, cos ω₂u, sin ω₂u]`.
    trig: [f64; 6],
}

/// One capture's `D̂`-independent summary at fixed probe instants (see
/// the module docs): [`eval_into`](Self::eval_into) reproduces the
/// planned eq. 6 reconstruction at every probe for any candidate
/// `D̂ ∈ ]0, m[`, to ≪ 1e-9 of the direct reference.
///
/// # Example
///
/// ```
/// use rfbist_sampling::band::BandSpec;
/// use rfbist_sampling::gridplan::ProbeSums;
/// use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
/// use rfbist_signal::tone::Tone;
///
/// let band = BandSpec::centered(1e9, 90e6);
/// let m = 1.0 / (band.k_plus() as f64 * 90e6);
/// let cap = NonuniformCapture::from_signal(&Tone::unit(0.98e9), 1.0 / 90e6, 180e-12, -40, 300);
/// let times = [1.0e-6, 1.3e-6, 1.7e-6];
/// let sums = ProbeSums::try_new(band, &cap, &times, m).unwrap();
/// let mut values = Vec::new();
/// for d_hat in [60e-12, 180e-12, 400e-12] {
///     sums.eval_into(d_hat, &mut values);
///     let rec = PnbsReconstructor::paper_default(band, d_hat).unwrap();
///     for (&t, &v) in times.iter().zip(&values) {
///         assert!((v - rec.reconstruct_at_reference(&cap, t)).abs() < 1e-9);
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct ProbeSums {
    band: BandSpec,
    /// The three cosine families' angular frequencies (rad/s).
    w: [f64; 3],
    inv_two_pi_b: f64,
    /// Kernel limit `s(0)`.
    origin: f64,
    period: f64,
    /// The fit interval `[0, m]` and which taps it leaves exact.
    span: FitSpan,
    /// `cheb[k][i] = T_k(sᵢ)`, the Chebyshev polynomials at the nodes.
    cheb: [[f64; FIT_NODES]; FIT_NODES],
    window: Arc<GridWindow>,
    /// `ROW_LEN` values per probe.
    rows: Vec<f64>,
    /// The `D̂`-independent term of each probe.
    fixed: Vec<f64>,
    exact: Vec<ExactTap>,
}

impl ProbeSums {
    /// Summarizes `capture` at the probe instants `times` for candidate
    /// delays in `]0, bound[`, reconstructing with [`PROBE_TAPS`] taps
    /// tapered by [`PROBE_WINDOW`].
    ///
    /// # Errors
    ///
    /// [`ProbeSumsError::SearchBound`] unless `0 < bound ≤ T`, and
    /// [`ProbeSumsError::OutsideCoverage`] for the first probe whose
    /// tap window leaves the capture.
    pub fn try_new(
        band: BandSpec,
        capture: &NonuniformCapture,
        times: &[f64],
        bound: f64,
    ) -> Result<Self, ProbeSumsError> {
        let period = capture.period();
        if !(bound > 0.0 && bound <= period) {
            return Err(ProbeSumsError::SearchBound { bound, period });
        }
        if let Some(&time) = times
            .iter()
            .find(|&&t| !covers_tap_window(capture, t, PROBE_TAPS / 2))
        {
            return Err(ProbeSumsError::OutsideCoverage { time });
        }
        let mut cheb = [[0.0; FIT_NODES]; FIT_NODES];
        for (k, row) in cheb.iter_mut().enumerate() {
            for (i, v) in row.iter_mut().enumerate() {
                *v = (k as f64 * node_angle(i)).cos();
            }
        }
        let span = FitSpan::new(bound, period);
        let mut sums = ProbeSums {
            band,
            w: kernel_frequencies(band),
            inv_two_pi_b: 1.0 / (2.0 * PI * band.bandwidth()),
            origin: kernel_origin(band),
            period,
            span,
            cheb,
            window: GridWindow::shared(PROBE_WINDOW, 2 * (PROBE_TAPS / 2 + 1)),
            rows: Vec::with_capacity(times.len() * ROW_LEN),
            fixed: Vec::with_capacity(times.len()),
            exact: Vec::new(),
        };
        sums.build(capture, times);
        sums.exact.shrink_to_fit();
        Ok(sums)
    }

    /// Writes the eq. 6 reconstruction at every probe, for delay
    /// estimate `d_hat`, into `out` (cleared first), dispatching to the
    /// SIMD recompilations of the evaluation kernel on x86-64 hosts
    /// with hardware FMA unless `RFBIST_FORCE_SCALAR` is set.
    ///
    /// `d_hat` must lie in `]0, m[`; the fit is not valid outside it.
    pub fn eval_into(&self, d_hat: f64, out: &mut Vec<f64>) {
        #[cfg(target_arch = "x86_64")]
        if !rfbist_dsp::simd::force_scalar() && std::arch::is_x86_feature_detected!("fma") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F + FMA support was just verified at
                // runtime by is_x86_feature_detected!; the kernel body
                // is ordinary safe Rust.
                unsafe { self.eval_avx512(d_hat, out) };
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 + FMA support was just verified at
                // runtime by is_x86_feature_detected!; same safe body.
                unsafe { self.eval_avx2(d_hat, out) };
                return;
            }
        }
        self.eval_body::<false>(d_hat, out)
    }

    /// [`eval_body`](Self::eval_body) compiled with AVX2 + FMA.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support on the
    /// running CPU (`is_x86_feature_detected!`); the body itself is
    /// safe Rust.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn eval_avx2(&self, d_hat: f64, out: &mut Vec<f64>) {
        self.eval_body::<true>(d_hat, out)
    }

    /// [`eval_body`](Self::eval_body) compiled with AVX-512F + FMA.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F and FMA support on the
    /// running CPU (`is_x86_feature_detected!`); the body itself is
    /// safe Rust.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn eval_avx512(&self, d_hat: f64, out: &mut Vec<f64>) {
        self.eval_body::<true>(d_hat, out)
    }

    /// The evaluation kernel: folds `(αⱼ, βⱼ)`, `(α′ⱼ, β′ⱼ)` and the
    /// Chebyshev node weights into one weight vector, dots it with
    /// every probe row, and adds the exact taps.
    #[inline(always)]
    fn eval_body<const FMA: bool>(&self, d_hat: f64, out: &mut Vec<f64>) {
        let (alpha, beta) = kernel_weights(self.band, d_hat);
        let nodal = self.node_weights(d_hat);
        let mut weights = [0.0; ROW_LEN];
        let mut shifted = [0.0; 6];
        for j in 0..3 {
            weights[2 * j] = alpha[j];
            weights[2 * j + 1] = beta[j];
            let (s, c) = sincos(self.w[j] * d_hat);
            shifted[2 * j] = alpha[j] * c + beta[j] * s;
            shifted[2 * j + 1] = beta[j] * c - alpha[j] * s;
        }
        for (plane, &a) in weights[6..].chunks_exact_mut(FIT_NODES).zip(&shifted) {
            for (v, &l) in plane.iter_mut().zip(&nodal) {
                *v = a * l;
            }
        }
        // A plain loop, not an iterator closure: a closure body is not
        // guaranteed the enclosing #[target_feature] set, and off it
        // `f64::mul_add` is a libm call (measured ~9x slower per
        // evaluation on AVX-512).
        out.clear();
        out.reserve(self.fixed.len());
        for (row, &fixed) in self.rows.chunks_exact(ROW_LEN).zip(&self.fixed) {
            out.push(fixed + dot_lanes::<FMA>(row, &weights));
        }
        let shift = d_hat / self.period * INV_2HW;
        for tap in &self.exact {
            let tau = tap.u + d_hat;
            let kernel = if tau.abs() < ORIGIN_TAU {
                self.origin
            } else {
                let mut num = 0.0;
                for (&a, &t) in shifted.iter().zip(&tap.trig).rev() {
                    num = mad::<FMA>(a, t, num);
                }
                num * self.inv_two_pi_b / tau
            };
            if let Some(v) = out.get_mut(tap.probe) {
                *v += tap.sample * self.window.table.at(tap.x + shift) * kernel;
            }
        }
    }

    /// The Lagrange weights of the Chebyshev nodes at `d_hat`: the
    /// degree-[`FIT_DEGREE`] interpolant through node values `fᵢ` is
    /// `Σᵢ lᵢ·fᵢ`, with `lᵢ = (1 + 2·Σ_{k≥1} T_k(sᵢ)·T_k(s))/FIT_NODES`
    /// at `s = 2·d_hat/m − 1`.
    #[inline(always)]
    fn node_weights(&self, d_hat: f64) -> [f64; FIT_NODES] {
        let s = 2.0 * d_hat / self.span.bound - 1.0;
        let mut basis = [1.0; FIT_NODES];
        basis[1] = s;
        for k in 2..FIT_NODES {
            basis[k] = 2.0 * s * basis[k - 1] - basis[k - 2];
        }
        let mut nodal = [1.0; FIT_NODES];
        for (k, row) in self.cheb.iter().enumerate().skip(1) {
            let tk = 2.0 * basis[k];
            for (l, &c) in nodal.iter_mut().zip(row) {
                *l += tk * c;
            }
        }
        nodal.map(|l| l / FIT_NODES as f64)
    }

    /// Fills the probe rows, dispatching like
    /// [`eval_into`](Self::eval_into).
    fn build(&mut self, capture: &NonuniformCapture, times: &[f64]) {
        #[cfg(target_arch = "x86_64")]
        if !rfbist_dsp::simd::force_scalar() && std::arch::is_x86_feature_detected!("fma") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F + FMA support was just verified at
                // runtime by is_x86_feature_detected!; the kernel body
                // is ordinary safe Rust.
                unsafe { self.build_avx512(capture, times) };
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 + FMA support was just verified at
                // runtime by is_x86_feature_detected!; same safe body.
                unsafe { self.build_avx2(capture, times) };
                return;
            }
        }
        self.build_body::<false>(capture, times)
    }

    /// [`build_body`](Self::build_body) compiled with AVX2 + FMA.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support on the
    /// running CPU (`is_x86_feature_detected!`); the body itself is
    /// safe Rust.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn build_avx2(&mut self, capture: &NonuniformCapture, times: &[f64]) {
        self.build_body::<true>(capture, times)
    }

    /// [`build_body`](Self::build_body) compiled with AVX-512F + FMA.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F and FMA support on the
    /// running CPU (`is_x86_feature_detected!`); the body itself is
    /// safe Rust.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn build_avx512(&mut self, capture: &NonuniformCapture, times: &[f64]) {
        self.build_body::<true>(capture, times)
    }

    /// The build kernel (see the module docs). Every probe is covered:
    /// [`try_new`](Self::try_new) checked it.
    #[inline(always)]
    fn build_body<const FMA: bool>(&mut self, capture: &NonuniformCapture, times: &[f64]) {
        const TAPS: usize = PROBE_TAPS;
        let period = self.period;
        let h = TAPS / 2;
        let inv_two_pi_b = self.inv_two_pi_b;
        let window = Arc::clone(&self.window);
        let fill = window.fill();
        // Tap phasors e^{jωⱼ(k − h)T}, plane-major
        // [c₀ | s₀ | c₁ | s₁ | c₂ | s₂]: with one exact phasor
        // e^{jωⱼu} of the probe's center tap they give every tap's
        // e^{jωⱼu}, exactly at the center (the step there is 1) and to
        // a rounding at its neighbours, where the 1/τ poles are.
        let mut steps = [[0.0; TAPS]; 6];
        for (pair, &w) in steps.chunks_exact_mut(2).zip(&self.w) {
            let [c, s] = pair else { continue };
            for (k, (ck, sk)) in c.iter_mut().zip(s.iter_mut()).enumerate() {
                (*sk, *ck) = sincos(w * ((k as f64 - h as f64) * period));
            }
        }
        let n_start = capture.n_start();
        let mut nodes = [0.0; FIT_NODES];
        for (i, node) in nodes.iter_mut().enumerate() {
            *node = 0.5 * self.span.bound * (1.0 + node_angle(i).cos());
        }
        // cos/sin(ωⱼu) per tap, then the same planes scaled by the
        // stream sample and 1/(2πB); zero-padded to whole lane chunks
        let mut trig = [[0.0; PADDED]; 6];
        let mut coef = [[0.0; PADDED]; 6];
        let mut win = [0.0; TAPS];
        let mut g = [0.0; PADDED];
        let mut row = [0.0; ROW_LEN];
        let mut exact_buf = [0; TAPS];
        for (probe, &t) in times.iter().enumerate() {
            let (first, u) = tap_offsets(t, period);
            let base = (first - n_start) as usize;
            let even = &capture.even()[base..base + TAPS];
            let odd = &capture.odd()[base..base + TAPS];
            let x0 = window_start(first, t, period);
            // e^{jωⱼu} = e^{jωⱼu_h} · e^{jωⱼ(k − h)T}
            let ph = time_phasors(&self.w, u[h]);
            for (j, pair) in trig.chunks_exact_mut(2).enumerate() {
                let [cu, su] = pair else { continue };
                let (c0, s0) = (ph[2 * j], ph[2 * j + 1]);
                let (c_step, s_step) = (&steps[2 * j], &steps[2 * j + 1]);
                for k in 0..TAPS {
                    cu[k] = mad::<FMA>(c0, c_step[k], -(s0 * s_step[k]));
                    su[k] = mad::<FMA>(s0, c_step[k], c0 * s_step[k]);
                }
            }

            // Even stream: τ = t − nT = −u, window independent of D̂.
            // A probe on a sample instant takes the kernel limit there.
            fill.fill::<FMA>(x0, INV_2HW, &mut win);
            // Indexed over the fixed arrays (an iterator zip of the four
            // measured ~1 ms slower per cost build on AVX-512).
            for k in 0..TAPS {
                let weighted = even[k] * win[k] * inv_two_pi_b;
                g[k] = weighted / u[k];
            }
            let mut fixed = 0.0;
            if u[h].abs() < ORIGIN_TAU {
                fixed = even[h] * win[h] * self.origin;
                g[h] = 0.0;
            }
            // kernel(−u) = Σ αⱼcos ωⱼu − βⱼ sin ωⱼu over −2πBu
            let sums = dot6::<FMA>(&trig, &g);
            for (pair, sum) in row[..6].chunks_exact_mut(2).zip(sums.chunks_exact(2)) {
                pair[0] = -sum[0];
                pair[1] = sum[1];
            }

            // Odd stream: τ = u + D̂. The exact taps are kept out of
            // the fit.
            let n_exact = self.span.exact_taps(&u, x0, &mut exact_buf);
            let exact = &exact_buf[..n_exact];
            for (c, tr) in coef.iter_mut().zip(&trig) {
                for k in 0..TAPS {
                    c[k] = odd[k] * tr[k] * inv_two_pi_b;
                }
            }
            for (i, &node) in nodes.iter().enumerate() {
                fill.fill::<FMA>(x0 + node / period * INV_2HW, INV_2HW, &mut win);
                for k in 0..TAPS {
                    g[k] = win[k] / (u[k] + node);
                }
                for &k in exact {
                    g[k] = 0.0;
                }
                for (j, sum) in dot6::<FMA>(&coef, &g).into_iter().enumerate() {
                    row[6 + j * FIT_NODES + i] = sum;
                }
            }
            for &k in exact {
                self.exact.push(ExactTap {
                    probe,
                    u: u[k],
                    x: x0 + k as f64 * INV_2HW,
                    sample: odd[k],
                    trig: trig.map(|plane| plane[k]),
                });
            }
            self.rows.extend_from_slice(&row);
            self.fixed.push(fixed);
        }
    }
}

/// The first sample index of instant `t`'s tap window,
/// `round(t/T) − h`, and every tap's `u = nT − t`.
fn tap_offsets(t: f64, period: f64) -> (i64, [f64; PROBE_TAPS]) {
    let first = (t / period).round() as i64 - (PROBE_TAPS / 2) as i64;
    let u0 = first as f64 * period - t;
    let mut u = [0.0; PROBE_TAPS];
    for (k, uk) in u.iter_mut().enumerate() {
        *uk = u0 + k as f64 * period;
    }
    (first, u)
}

/// Window position of the first tap at `D̂ = 0`; tap `k` sits
/// `k·INV_2HW` further on.
fn window_start(first: i64, t: f64, period: f64) -> f64 {
    0.5 + (first as f64 - t / period) * INV_2HW
}

/// The odd-stream window's span over the fit interval `[0, m]`: which
/// taps the degree-[`FIT_DEGREE`] fit reproduces, and which it leaves
/// to be evaluated exactly.
#[derive(Clone, Copy, Debug)]
struct FitSpan {
    /// The search bound `m`.
    bound: f64,
    /// `1/T`: `u` steps by `T` from tap to tap.
    inv_period: f64,
    /// The pole guard: [`POLE_GUARD_FRACTION`]` · T` or
    /// [`POLE_GUARD_HALF_WIDTHS`]` · m/2`, whichever is larger.
    guard: f64,
    /// How far a tap's window position moves over `[0, m]`.
    reach: f64,
}

impl FitSpan {
    fn new(bound: f64, period: f64) -> Self {
        FitSpan {
            bound,
            inv_period: 1.0 / period,
            guard: (POLE_GUARD_FRACTION * period).max(POLE_GUARD_HALF_WIDTHS * 0.5 * bound),
            reach: bound / period * INV_2HW,
        }
    }

    /// Whether a tap with offset `u` and window position `x` at
    /// `D̂ = 0` is evaluated exactly: its pole `D̂ = −u` lies within the
    /// guard of `[0, m]`, or its window position passes the support's
    /// upper edge over `[0, m]`, where the window steps to zero.
    fn is_exact(self, u: f64, x: f64) -> bool {
        (-u > -self.guard && -u < self.bound + self.guard) || x + self.reach >= 1.0
    }

    /// Writes the exact taps of a probe with tap offsets `u` and first
    /// window position `x0` into `out`, in ascending order, and returns
    /// how many there are. `u` rises by `T` per tap, so the pole test
    /// holds on one run of taps and the edge test on a tail: both are
    /// located from `u₀` and `x₀`, one tap wider on each side, and each
    /// candidate is then tested. Tap `k` has `−u = (r + h − k)·T` with
    /// `r = t/T − round(t/T)` in `[−½, ½]`: on the Section V cost only
    /// taps `h − 1` and `h` can qualify, and at most one does.
    #[inline(always)]
    fn exact_taps(self, u: &[f64; PROBE_TAPS], x0: f64, out: &mut [usize; PROBE_TAPS]) -> usize {
        let tap = |v: f64| (v.floor() as i64).clamp(0, PROBE_TAPS as i64) as usize;
        let run = tap((-(self.bound + self.guard) - u[0]) * self.inv_period - 1.0)
            ..tap((self.guard - u[0]) * self.inv_period + 2.0);
        let tail = tap((1.0 - self.reach - x0) * TAP_STRIDES - 1.0).max(run.end)..PROBE_TAPS;
        let mut n = 0;
        for k in run.chain(tail) {
            if self.is_exact(u[k], x0 + k as f64 * INV_2HW) {
                out[n] = k;
                n += 1;
            }
        }
        n
    }
}

/// Angle of Chebyshev node `i` (first kind): `sᵢ = cos(π(2i + 1)/(2·FIT_NODES))`.
fn node_angle(i: usize) -> f64 {
    PI * (2 * i + 1) as f64 / (2 * FIT_NODES) as f64
}

/// `Σ a[k]·b[k]` over the shorter length on eight lanes, reduced
/// pairwise, plus the scalar tail.
#[inline(always)]
fn dot_lanes<const FMA: bool>(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (ac, at) = a[..n].as_chunks::<LANES>();
    let (bc, bt) = b[..n].as_chunks::<LANES>();
    let mut acc = [0.0f64; LANES];
    for (x, y) in ac.iter().zip(bc) {
        for (s, (&p, &q)) in acc.iter_mut().zip(x.iter().zip(y)) {
            *s = mad::<FMA>(p, q, *s);
        }
    }
    let mut tail = 0.0;
    for (&p, &q) in at.iter().zip(bt) {
        tail = mad::<FMA>(p, q, tail);
    }
    lane_sum(acc) + tail
}

/// Six dot products of zero-padded tap planes with one tap vector in a
/// single pass: six independent eight-lane accumulators, so the pass
/// is bound by multiply-add throughput rather than latency.
#[inline(always)]
fn dot6<const FMA: bool>(planes: &[[f64; PADDED]; 6], g: &[f64; PADDED]) -> [f64; 6] {
    let mut acc = [[0.0f64; LANES]; 6];
    let (gc, _) = g.as_chunks::<LANES>();
    for (c, gk) in gc.iter().enumerate() {
        for (a, plane) in acc.iter_mut().zip(planes) {
            let (pc, _) = plane.as_chunks::<LANES>();
            for (s, (&p, &q)) in a.iter_mut().zip(pc[c].iter().zip(gk)) {
                *s = mad::<FMA>(p, q, *s);
            }
        }
    }
    acc.map(lane_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridplan::{GridScratch, PnbsGridPlan};
    use rfbist_signal::tone::{MultiTone, Tone};

    const B: f64 = 90e6;
    const D: f64 = 180e-12;

    fn search_bound(band: BandSpec) -> f64 {
        1.0 / (band.k_plus() as f64 * band.bandwidth())
    }

    /// A two-tone capture of `band` at rate `B = band.bandwidth()`.
    fn capture(band: BandSpec, delay: f64) -> NonuniformCapture {
        let b = band.bandwidth();
        let tones = MultiTone::new(vec![
            Tone::new(band.f_lo() + 0.23 * b, 0.7, 0.4),
            Tone::new(band.f_lo() + 0.71 * b, 0.5, 2.1),
        ]);
        NonuniformCapture::from_signal(&tones, 1.0 / b, delay, -40, 300)
    }

    /// `cap` with one stream zeroed, so each stream's sums are checked
    /// on their own.
    fn single_streams(cap: &NonuniformCapture) -> [NonuniformCapture; 2] {
        let zeros = vec![0.0; cap.len()];
        let with = |even: &[f64], odd: &[f64]| {
            NonuniformCapture::from_streams(
                cap.period(),
                cap.delay(),
                cap.n_start(),
                even.to_vec(),
                odd.to_vec(),
            )
        };
        [with(cap.even(), &zeros), with(&zeros, cap.odd())]
    }

    /// The probe sums of each stream of `cap` (and of both) against the
    /// arbitrary-instant order at `candidates`, to 1e-9 relative to the
    /// value or absolute below 1.
    fn assert_matches_instants(
        band: BandSpec,
        cap: &NonuniformCapture,
        times: &[f64],
        candidates: &[f64],
    ) {
        let bound = search_bound(band);
        let [even_only, odd_only] = single_streams(cap);
        let mut scratch = GridScratch::new();
        let mut got = Vec::new();
        for (name, c) in [("even", &even_only), ("odd", &odd_only), ("both", cap)] {
            let sums = ProbeSums::try_new(band, c, times, bound).unwrap();
            assert_eq!(sums.fixed.len(), times.len());
            for &d in candidates {
                let plan = PnbsGridPlan::new(band, d, PROBE_TAPS, PROBE_WINDOW);
                let want = plan.reconstruct_instants(c, times, &mut scratch);
                sums.eval_into(d, &mut got);
                for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                        "{name} stream, D̂ = {:.2} ps, probe {i}: {g} vs {w}",
                        d * 1e12
                    );
                }
            }
        }
    }

    fn candidates(bound: f64) -> Vec<f64> {
        vec![
            0.5e-12,
            0.2 * bound,
            0.37 * bound,
            D.min(0.5 * bound),
            0.81 * bound,
            bound - 0.5e-12,
        ]
    }

    #[test]
    fn probe_on_a_sample_instant_takes_the_origin_term() {
        let band = BandSpec::centered(1e9, B);
        let cap = capture(band, D);
        let t_s = cap.period();
        let times = [90.0 * t_s, 120.0 * t_s, 1.234e-6];
        let sums = ProbeSums::try_new(band, &cap, &times, search_bound(band)).unwrap();
        assert!(sums.fixed[0] != 0.0 && sums.fixed[1] != 0.0);
        assert_eq!(sums.fixed[2], 0.0);
        assert_matches_instants(band, &cap, &times, &candidates(search_bound(band)));
    }

    #[test]
    fn pole_taps_inside_the_guard_are_evaluated_exactly() {
        // probes whose pole −u sits inside ]0, m[ and just outside it on
        // either side, within the T/4 guard, plus one with no pole tap
        let band = BandSpec::centered(1e9, B);
        let m = search_bound(band);
        let cap = capture(band, D);
        let t_s = cap.period();
        let times = [
            100.0 * t_s + 0.5 * m,
            110.0 * t_s + m + t_s / 8.0,
            120.0 * t_s - t_s / 8.0,
            130.0 * t_s + 0.5 * t_s,
        ];
        let sums = ProbeSums::try_new(band, &cap, &times, m).unwrap();
        let poles: Vec<usize> = sums.exact.iter().map(|p| p.probe).collect();
        assert_eq!(poles, vec![0, 1, 2]);
        let mut near_pole = candidates(m);
        near_pole.extend([0.5 * m - 0.3e-12, 0.5 * m + 0.3e-12]);
        assert_matches_instants(band, &cap, &times, &near_pole);
    }

    #[test]
    fn wide_search_bounds_widen_the_exact_taps() {
        // m = T/3 (the gsm-like deployment's fast band, k⁺ = 3), m = T/2
        // (k⁺ = 2) and m = T (a baseband-edged band, k⁺ = 1): the guard
        // grows to 11 half-widths of [0, m], and at m ≥ T/2 the top
        // tap's window position can pass the support edge
        for (center, per_probe) in [(100e6, 4..=4), (60e6, 6..=7), (45e6, 12..=13)] {
            let band = BandSpec::centered(center, B);
            let m = search_bound(band);
            let cap = capture(band, 0.4 * m);
            let t_s = cap.period();
            let mut times: Vec<f64> = (0..24).map(|i| 0.5e-6 + i as f64 * 37.7e-9).collect();
            // a probe halfway between samples: the top tap's window
            // reaches the support edge at D̂ = T/2
            times.push(110.5 * t_s);
            let sums = ProbeSums::try_new(band, &cap, &times, m).unwrap();
            for probe in 0..times.len() {
                let n = sums.exact.iter().filter(|e| e.probe == probe).count();
                assert!(
                    per_probe.contains(&n),
                    "m = T/{}: probe {probe} has {n} exact taps",
                    band.k_plus()
                );
            }
            let edge = sums.exact.iter().any(|e| e.x + sums.span.reach >= 1.0);
            assert_eq!(edge, band.k_plus() <= 2, "m = T/{}", band.k_plus());
            // 2 ps in from the ends: within ~1 ps of them the
            // 1/sin(k⁺πBD̂) weights, ~10x Section V's at these k⁺,
            // amplify every path's rounding (the direct reference's
            // too) to ~1e-9; the cost tests check the clamp edges
            // relative to ε on the gsm-like deployment
            let cands: Vec<f64> = [2e-12, m - 2e-12]
                .into_iter()
                .chain((1..12).map(|i| m * i as f64 / 12.0))
                .collect();
            assert_matches_instants(band, &cap, &times, &cands);
        }
    }

    #[test]
    fn located_exact_taps_match_a_scan_of_every_tap() {
        let period = 1.0 / B;
        for m_over_t in [0.01, 1.0 / 23.0, 1.0 / 3.0, 0.5, 0.77, 1.0] {
            let span = FitSpan::new(m_over_t * period, period);
            let half_sample = (0..4).map(|n| (110.5 + n as f64) * period);
            let spread = (0..400).map(|i| 1e-6 + i as f64 * 0.0137 * period);
            for t in half_sample.chain(spread) {
                let (first, u) = tap_offsets(t, period);
                let x0 = window_start(first, t, period);
                let scan: Vec<usize> = (0..PROBE_TAPS)
                    .filter(|&k| span.is_exact(u[k], x0 + k as f64 * INV_2HW))
                    .collect();
                let mut located = [0; PROBE_TAPS];
                let n = span.exact_taps(&u, x0, &mut located);
                assert_eq!(located[..n], scan, "m = {m_over_t} T, t = {t:e}");
            }
        }
    }

    #[test]
    fn integer_positioned_band_drops_the_s0_weights() {
        let band = BandSpec::centered(1e9, 80e6);
        assert!(band.is_integer_positioned());
        let (alpha, beta) = kernel_weights(band, 200e-12);
        assert_eq!((alpha[0], beta[0]), (0.0, 0.0));
        let cap = capture(band, 200e-12);
        let times: Vec<f64> = (0..40).map(|i| 0.6e-6 + i as f64 * 37.3e-9).collect();
        assert_matches_instants(band, &cap, &times, &candidates(search_bound(band)));
    }

    #[test]
    fn random_probes_match_the_instants_order() {
        let band = BandSpec::centered(1e9, B);
        let cap = capture(band, D);
        let times: Vec<f64> = (0..60).map(|i| 0.45e-6 + i as f64 * 29.9e-9).collect();
        assert_matches_instants(band, &cap, &times, &candidates(search_bound(band)));
    }

    #[test]
    fn invalid_bounds_and_uncovered_probes_are_typed_errors() {
        let band = BandSpec::centered(1e9, B);
        let cap = capture(band, D);
        let t_s = cap.period();
        for bound in [0.0, -1e-12, 1.01 * t_s, f64::NAN, f64::INFINITY] {
            let err = ProbeSums::try_new(band, &cap, &[1e-6], bound).unwrap_err();
            assert!(matches!(err, ProbeSumsError::SearchBound { .. }), "{bound}");
            assert!(err.to_string().contains("]0, T]"));
        }
        let late = 300.0 * t_s;
        let err = ProbeSums::try_new(band, &cap, &[1e-6, late], search_bound(band)).unwrap_err();
        assert_eq!(err, ProbeSumsError::OutsideCoverage { time: late });
        let sums = ProbeSums::try_new(band, &cap, &[], search_bound(band)).unwrap();
        assert!(sums.rows.is_empty() && sums.fixed.is_empty());
    }

    #[test]
    fn tables_are_sized_exactly() {
        let band = BandSpec::centered(1e9, B);
        let cap = capture(band, D);
        let times: Vec<f64> = (0..50).map(|i| 0.5e-6 + i as f64 * 21.1e-9).collect();
        let sums = ProbeSums::try_new(band, &cap, &times, search_bound(band)).unwrap();
        assert_eq!(sums.rows.len(), times.len() * ROW_LEN);
        assert_eq!(sums.rows.capacity(), sums.rows.len());
        assert_eq!(sums.fixed.capacity(), times.len());
        assert_eq!(sums.exact.capacity(), sums.exact.len());
        assert!(sums.exact.len() < times.len());
    }
}
