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
//! allocates nothing but its results. The fit is of the six *sums*,
//! not of each tap, which keeps the build near `FIT_NODES` odd-stream
//! rows per probe. Its tables are sized exactly: `6 + 6·FIT_NODES`
//! values plus a constant per probe, and per exact tap its geometry
//! once per residue and one sample per probe.
//!
//! Most of a probe row's work does not touch the samples: the taps'
//! `u`, their phasors, the even stream's window, the exact taps and
//! the odd stream's window-over-`τ` at each Chebyshev node (ten window
//! fills and nine 61-tap divide passes) depend on `u` alone. So the build visits its probes by **lattice residue**, as
//! [`PnbsGridPlan`](super::PnbsGridPlan)'s phase-major order does: a
//! uniform probe grid `t0 + i·step` whose step is `p/q` sample periods
//! ([`ProbeSums::try_new_grid`], found by the grid plan's lattice
//! detection) has `q` residues, and the probes `r, r + q, …` of residue
//! `r` sit `p` samples apart with one `u`. Each residue's shared part
//! is built once; each member then pays the even stream's 61 divides
//! (of sample × window / 2πB by `u`), the odd stream's sample-weighted
//! phasor planes and ten six-plane dot products. A member whose own
//! `round(t/T)` departs from the lattice prediction (the half-sample
//! tie residue) takes a second shared part built for its shifted tap
//! window, as the grid plan's tie rule does. Arbitrary instants
//! ([`ProbeSums::try_new`]) are the one-period lattice: every probe its
//! own residue, with the arithmetic of a per-probe build. The members
//! of a residue use its `u`, ~1e-21 s from their own float times, so
//! grid-order values follow the instants order on the same times to
//! ≲ 5e-10 (on the cost's schedule, at candidates down to 0.5 ps from
//! the interval ends), inside the 1e-9 contract.
//!
//! An evaluation computes `(αⱼ, βⱼ)`, three `sincos` and the
//! Chebyshev basis once, folds them into one `6 + 6·FIT_NODES` weight
//! vector, and then costs one dot product of that length per probe.
//! The exact taps of one residue share their geometry: each one's
//! window and kernel are computed once per candidate, then every
//! member adds `sample · window · kernel` in ascending tap order, the
//! bits of a per-tap pass. Both
//! kernels run through the workspace's `#[target_feature]` AVX-512F /
//! AVX2 + FMA dispatch ([`Arm`], with the `RFBIST_FORCE_SCALAR`
//! escape), and their dot products on the arm's [`F64x8`] lanes, so
//! the six build accumulators stay six registers: as `[f64; 8]` arrays
//! they had compiled to scalar `vfmadd231sd` chains spilled to the
//! stack. Every arm keeps the lane order of `rfbist_dsp::simd`, which
//! `tests/lane_model.rs` checks bit for bit in both orders.
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
    covers_tap_window, kernel_frequencies, kernel_origin, kernel_weights, mad, time_phasors,
    GridWindow, Lattice, WindowFill, ORIGIN_TAU,
};
use crate::band::BandSpec;
use crate::reconstruct::NonuniformCapture;
use rfbist_dsp::simd::{Arm, F64x8, Portable};
use rfbist_dsp::window::Window;
use rfbist_math::rotor::sincos;
use std::f64::consts::PI;
use std::fmt;
use std::ops::Range;
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

/// Lanes of the multiply-add accumulators ([`F64x8`]).
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

/// The geometry of an odd-stream tap kept out of the fit and evaluated
/// exactly per candidate (see [`FitSpan::is_exact`]): everything but
/// its sample, so the probes of one lattice residue share it.
#[derive(Clone, Copy, Debug)]
struct ExactTap {
    /// `u = nT − t`; the kernel argument is `u + D̂`.
    u: f64,
    /// Window position at `D̂ = 0`.
    x: f64,
    /// `[cos ω₀u, sin ω₀u, cos ω₁u, sin ω₁u, cos ω₂u, sin ω₂u]`.
    trig: [f64; 6],
}

/// The probes that share one set of exact taps: the members of one
/// lattice residue whose tap windows sit alike.
#[derive(Clone, Debug)]
struct ExactGroup {
    /// The group's taps in [`ExactTaps::taps`], in ascending tap order.
    taps: Range<usize>,
    /// The group's members in [`ExactTaps::probes`].
    probes: Range<usize>,
}

/// Every exact tap of a summary, grouped by the probes that share its
/// geometry: an evaluation takes each group tap's window and kernel
/// once, then adds `sample · window · kernel` per member.
#[derive(Clone, Debug, Default)]
struct ExactTaps {
    taps: Vec<ExactTap>,
    groups: Vec<ExactGroup>,
    /// The probe index of each group member.
    probes: Vec<usize>,
    /// Each member's odd-stream sample at each of its group's taps,
    /// member-major.
    samples: Vec<f64>,
}

impl ExactTaps {
    fn shrink_to_fit(&mut self) {
        self.taps.shrink_to_fit();
        self.groups.shrink_to_fit();
        self.probes.shrink_to_fit();
        self.samples.shrink_to_fit();
    }
}

/// The order a build visits its probes in, as
/// [`PnbsGridPlan`](super::PnbsGridPlan)'s: probe `i` sits at
/// [`time(i)`](Self::time), and the members `r, r + q, r + 2q, …` of
/// one lattice residue `r` share every part of their rows that does not
/// depend on the samples.
#[derive(Clone, Copy, Debug)]
enum Order<'t> {
    /// Probe `i` at `t0 + i·step`, on the lattice the step sits on.
    Grid {
        t0: f64,
        step: f64,
        n: usize,
        lattice: Lattice,
    },
    /// Arbitrary instants: the one-period lattice, every probe its own
    /// residue.
    Instants(&'t [f64]),
}

impl Order<'_> {
    fn len(&self) -> usize {
        match *self {
            Order::Grid { n, .. } => n,
            Order::Instants(times) => times.len(),
        }
    }

    #[inline(always)]
    fn time(&self, i: usize) -> f64 {
        match *self {
            Order::Grid { t0, step, .. } => t0 + i as f64 * step,
            Order::Instants(times) => times[i],
        }
    }

    /// The residues' lattice: `q` residues, member `m` of a residue
    /// `m·p` samples after its first.
    fn lattice(&self) -> Lattice {
        match *self {
            Order::Grid { lattice, .. } => lattice,
            Order::Instants(times) => Lattice {
                p: 0,
                q: times.len(),
            },
        }
    }
}

/// The sample-independent part of a probe row, shared by every probe
/// with the same tap offsets `u` (a lattice residue's members): built
/// once per residue, so each member pays only its sample-weighted
/// passes.
struct Residue {
    /// `u = nT − t` per tap.
    u: [f64; PROBE_TAPS],
    /// Window position of the first tap at `D̂ = 0`.
    x0: f64,
    /// Whether the residue sits on a sample instant, where the even
    /// stream's centre tap takes the kernel limit.
    on_sample: bool,
    /// `cos/sin(ωⱼu)` per tap, plane-major `[c₀ | s₀ | c₁ | s₁ | c₂ | s₂]`,
    /// zero-padded to whole lane chunks.
    trig: [[f64; PADDED]; 6],
    /// The even stream's window.
    win: [f64; PROBE_TAPS],
    /// The odd stream's `w/(u + node)` at each Chebyshev node, zero at
    /// the exact taps and past the last tap.
    odd: [[f64; PADDED]; FIT_NODES],
    /// The taps evaluated exactly, ascending: the first `n_exact`.
    exact: [usize; PROBE_TAPS],
    n_exact: usize,
}

impl Residue {
    fn new() -> Self {
        Residue {
            u: [0.0; PROBE_TAPS],
            x0: 0.0,
            on_sample: false,
            trig: [[0.0; PADDED]; 6],
            win: [0.0; PROBE_TAPS],
            odd: [[0.0; PADDED]; FIT_NODES],
            exact: [0; PROBE_TAPS],
            n_exact: 0,
        }
    }

    fn exact(&self) -> &[usize] {
        &self.exact[..self.n_exact]
    }
}

/// A build's per-call tables: the window fill, the tap phasor steps
/// and the Chebyshev nodes of `[0, m]`.
struct BuildTables<'a> {
    fill: WindowFill<'a>,
    /// `e^{jωⱼ(k − h)T}`, plane-major `[c₀ | s₀ | c₁ | s₁ | c₂ | s₂]`.
    steps: [[f64; PROBE_TAPS]; 6],
    nodes: [f64; FIT_NODES],
}

/// A member's sample-weighted buffers, zero-padded to whole lane
/// chunks.
struct MemberScratch {
    /// The odd-stream planes `x(nT + D)·cos/sin(ωⱼu)/(2πB)`.
    coef: [[f64; PADDED]; 6],
    /// The even stream's `x(nT)·w/(2πB·u)`.
    g: [f64; PADDED],
    row: [f64; ROW_LEN],
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
    exact: ExactTaps,
    /// Shared row parts the build made: one per lattice residue, plus
    /// one per shifted tap window of a tie residue.
    residues: usize,
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
        Self::try_new_on(Arm::detect(), band, capture, times, bound)
    }

    /// [`try_new`](Self::try_new) with the build on kernel arm `arm`
    /// where this CPU supports it (the portable kernel otherwise),
    /// whatever the dispatch would pick. A test and benchmark hook.
    #[doc(hidden)]
    pub fn try_new_on(
        arm: Arm,
        band: BandSpec,
        capture: &NonuniformCapture,
        times: &[f64],
        bound: f64,
    ) -> Result<Self, ProbeSumsError> {
        Self::build_on(arm, band, capture, Order::Instants(times), bound)
    }

    /// [`try_new`](Self::try_new) with the build's dot products on the
    /// caller's lanes `L` and every multiply-add fused as `L`'s are,
    /// outside any `#[target_feature]` recompilation. A test hook, like
    /// `PnbsGridPlan::try_reconstruct_grid_lanes`.
    #[doc(hidden)]
    pub fn try_new_lanes<L: F64x8>(
        lanes: L,
        band: BandSpec,
        capture: &NonuniformCapture,
        times: &[f64],
        bound: f64,
    ) -> Result<Self, ProbeSumsError> {
        Self::build_lanes(lanes, band, capture, Order::Instants(times), bound)
    }

    /// The summary of `capture` at the `n` uniform probe instants
    /// `t0, t0 + step, …` — [`try_new`](Self::try_new) at those times,
    /// in grid order: when the step sits on a short rational lattice of
    /// the sample period (see the module docs), the members of each
    /// lattice residue share their window fills, divides and exact-tap
    /// geometry. Its values follow the instants order's on the same
    /// times to ≪ 1e-9; a step on no short lattice builds every probe
    /// as its own residue, with the instants order's bits.
    ///
    /// # Errors
    ///
    /// As [`try_new`](Self::try_new).
    pub fn try_new_grid(
        band: BandSpec,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        bound: f64,
    ) -> Result<Self, ProbeSumsError> {
        Self::try_new_grid_on(Arm::detect(), band, capture, t0, step, n, bound)
    }

    /// [`try_new_grid`](Self::try_new_grid) on kernel arm `arm`, like
    /// [`try_new_on`](Self::try_new_on). A test and benchmark hook.
    #[doc(hidden)]
    pub fn try_new_grid_on(
        arm: Arm,
        band: BandSpec,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        bound: f64,
    ) -> Result<Self, ProbeSumsError> {
        let order = Self::grid_order(band, capture, t0, step, n);
        Self::build_on(arm, band, capture, order, bound)
    }

    /// [`try_new_grid`](Self::try_new_grid) on the caller's lanes, like
    /// [`try_new_lanes`](Self::try_new_lanes). A test hook.
    #[doc(hidden)]
    pub fn try_new_grid_lanes<L: F64x8>(
        lanes: L,
        band: BandSpec,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        bound: f64,
    ) -> Result<Self, ProbeSumsError> {
        let order = Self::grid_order(band, capture, t0, step, n);
        Self::build_lanes(lanes, band, capture, order, bound)
    }

    /// The grid order of `n` probes from `t0` by `step`, on the lattice
    /// [`PnbsGridPlan`](super::PnbsGridPlan) would find for that grid.
    fn grid_order(
        band: BandSpec,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
    ) -> Order<'static> {
        let omega_max = kernel_frequencies(band)
            .iter()
            .fold(0.0f64, |m, w| m.max(w.abs()));
        let lattice =
            Lattice::detect(step, capture.period(), n, omega_max).unwrap_or(Lattice { p: 0, q: n });
        Order::Grid {
            t0,
            step,
            n,
            lattice,
        }
    }

    /// The checked summary of `capture` in `order`, built on kernel arm
    /// `arm`.
    fn build_on(
        arm: Arm,
        band: BandSpec,
        capture: &NonuniformCapture,
        order: Order<'_>,
        bound: f64,
    ) -> Result<Self, ProbeSumsError> {
        let mut sums = Self::empty(band, capture, order, bound)?;
        sums.build(arm, capture, order);
        sums.exact.shrink_to_fit();
        Ok(sums)
    }

    /// The checked summary of `capture` in `order`, its dot products on
    /// `lanes`.
    fn build_lanes<L: F64x8>(
        lanes: L,
        band: BandSpec,
        capture: &NonuniformCapture,
        order: Order<'_>,
        bound: f64,
    ) -> Result<Self, ProbeSumsError> {
        let mut sums = Self::empty(band, capture, order, bound)?;
        if L::FUSED {
            sums.build_body::<true, L>(capture, order, lanes);
        } else {
            sums.build_body::<false, L>(capture, order, lanes);
        }
        sums.exact.shrink_to_fit();
        Ok(sums)
    }

    /// The checked, not yet built summary of `capture` in `order`.
    fn empty(
        band: BandSpec,
        capture: &NonuniformCapture,
        order: Order<'_>,
        bound: f64,
    ) -> Result<Self, ProbeSumsError> {
        let period = capture.period();
        if !(bound > 0.0 && bound <= period) {
            return Err(ProbeSumsError::SearchBound { bound, period });
        }
        let n = order.len();
        if let Some(time) = (0..n)
            .map(|i| order.time(i))
            .find(|&t| !covers_tap_window(capture, t, PROBE_TAPS / 2))
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
        Ok(ProbeSums {
            band,
            w: kernel_frequencies(band),
            inv_two_pi_b: 1.0 / (2.0 * PI * band.bandwidth()),
            origin: kernel_origin(band),
            period,
            span,
            cheb,
            window: GridWindow::shared(PROBE_WINDOW, 2 * (PROBE_TAPS / 2 + 1)),
            rows: vec![0.0; n * ROW_LEN],
            fixed: vec![0.0; n],
            exact: ExactTaps::default(),
            residues: 0,
        })
    }

    /// The probe rows, `6 + 6·FIT_NODES` values per probe: the six
    /// even-stream sums, then the six odd-stream sums at each Chebyshev
    /// node. A test hook.
    #[doc(hidden)]
    pub fn rows(&self) -> &[f64] {
        &self.rows
    }

    /// How many shared row parts the build made: the lattice residues,
    /// plus a tie residue's shifted window (every probe on the
    /// one-period lattice). A test and benchmark hook.
    #[doc(hidden)]
    pub fn residues(&self) -> usize {
        self.residues
    }

    /// How many odd-stream taps, summed over the probes, are kept out
    /// of the fit and evaluated exactly per candidate. A test hook.
    #[doc(hidden)]
    pub fn exact_taps(&self) -> usize {
        self.exact.samples.len()
    }

    /// Writes the eq. 6 reconstruction at every probe, for delay
    /// estimate `d_hat`, into `out` (cleared first), dispatching to the
    /// SIMD recompilations of the evaluation kernel on x86-64 hosts
    /// with hardware FMA unless `RFBIST_FORCE_SCALAR` is set.
    ///
    /// `d_hat` must lie in `]0, m[`; the fit is not valid outside it.
    pub fn eval_into(&self, d_hat: f64, out: &mut Vec<f64>) {
        self.eval_into_on(Arm::detect(), d_hat, out)
    }

    /// [`eval_into`](Self::eval_into) on kernel arm `arm` where this
    /// CPU supports it (the portable kernel otherwise), whatever the
    /// dispatch would pick. A test and benchmark hook.
    #[doc(hidden)]
    pub fn eval_into_on(&self, arm: Arm, d_hat: f64, out: &mut Vec<f64>) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            if arm == Arm::Avx512 && std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F + FMA support was just verified at
                // runtime by is_x86_feature_detected!.
                unsafe { self.eval_avx512(d_hat, out) };
                return;
            }
            if arm == Arm::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 + FMA support was just verified at
                // runtime by is_x86_feature_detected!.
                unsafe { self.eval_avx2(d_hat, out) };
                return;
            }
        }
        self.eval_body::<false, _>(d_hat, Portable::ZERO, out)
    }

    /// [`eval_into`](Self::eval_into) with the dot products on the
    /// caller's lanes `L`, outside any `#[target_feature]`
    /// recompilation. A test hook, like
    /// [`try_new_lanes`](Self::try_new_lanes).
    #[doc(hidden)]
    pub fn eval_into_lanes<L: F64x8>(&self, lanes: L, d_hat: f64, out: &mut Vec<f64>) {
        if L::FUSED {
            self.eval_body::<true, L>(d_hat, lanes, out)
        } else {
            self.eval_body::<false, L>(d_hat, lanes, out)
        }
    }

    /// [`eval_body`](Self::eval_body) compiled with AVX2 + FMA, on
    /// [`Fma256`](rfbist_dsp::simd::Fma256) lanes.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support on the
    /// running CPU (`is_x86_feature_detected!`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn eval_avx2(&self, d_hat: f64, out: &mut Vec<f64>) {
        // SAFETY: this function's own contract: AVX2 and FMA were
        // verified.
        let lanes = unsafe { rfbist_dsp::simd::Fma256::new() };
        self.eval_body::<true, _>(d_hat, lanes, out)
    }

    /// [`eval_body`](Self::eval_body) compiled with AVX-512F + FMA, on
    /// [`Fma512`](rfbist_dsp::simd::Fma512) lanes.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F and FMA support on the
    /// running CPU (`is_x86_feature_detected!`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn eval_avx512(&self, d_hat: f64, out: &mut Vec<f64>) {
        // SAFETY: this function's own contract: AVX-512F and FMA were
        // verified.
        let lanes = unsafe { rfbist_dsp::simd::Fma512::new() };
        self.eval_body::<true, _>(d_hat, lanes, out)
    }

    /// The evaluation kernel: folds `(αⱼ, βⱼ)`, `(α′ⱼ, β′ⱼ)` and the
    /// Chebyshev node weights into one weight vector, dots it with
    /// every probe row on `lanes`, and adds the exact taps.
    #[inline(always)]
    fn eval_body<const FMA: bool, L: F64x8>(&self, d_hat: f64, lanes: L, out: &mut Vec<f64>) {
        debug_assert_eq!(FMA, L::FUSED);
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
            out.push(fixed + dot_lanes(lanes, row, &weights));
        }
        self.add_exact_taps::<FMA>(d_hat, &shifted, out);
    }

    /// Adds every exact tap's `sample · window · kernel` at `d_hat` to
    /// its probe's value, `shifted` holding `(α′ⱼ, β′ⱼ)`: each group
    /// tap's window and kernel once, then each member's taps in
    /// ascending order, as a per-tap pass over the members would.
    #[inline(always)]
    fn add_exact_taps<const FMA: bool>(&self, d_hat: f64, shifted: &[f64; 6], out: &mut [f64]) {
        let shift = d_hat / self.period * INV_2HW;
        let mut samples = self.exact.samples.as_slice();
        let mut wk = [(0.0, 0.0); PROBE_TAPS];
        for group in &self.exact.groups {
            let taps = &self.exact.taps[group.taps.clone()];
            for (slot, tap) in wk.iter_mut().zip(taps) {
                *slot = (
                    self.window.table.at(tap.x + shift),
                    self.exact_kernel::<FMA>(tap, d_hat, shifted),
                );
            }
            for &probe in &self.exact.probes[group.probes.clone()] {
                let (member, rest) = samples.split_at(taps.len().min(samples.len()));
                samples = rest;
                if let Some(v) = out.get_mut(probe) {
                    for (&(w, k), &sample) in wk.iter().zip(member) {
                        *v += sample * w * k;
                    }
                }
            }
        }
    }

    /// The eq. 2 kernel of exact tap `tap` at `d_hat`: the limit `s(0)`
    /// on the pole, `Σⱼ α′ⱼcos ωⱼu + β′ⱼ sin ωⱼu` over `2πB(u + D̂)`
    /// elsewhere.
    #[inline(always)]
    fn exact_kernel<const FMA: bool>(&self, tap: &ExactTap, d_hat: f64, shifted: &[f64; 6]) -> f64 {
        let tau = tap.u + d_hat;
        if tau.abs() < ORIGIN_TAU {
            self.origin
        } else {
            let mut num = 0.0;
            for (&a, &t) in shifted.iter().zip(&tap.trig).rev() {
                num = mad::<FMA>(a, t, num);
            }
            num * self.inv_two_pi_b / tau
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

    /// Fills the probe rows on kernel arm `arm`, dispatching like
    /// [`eval_into_on`](Self::eval_into_on).
    fn build(&mut self, arm: Arm, capture: &NonuniformCapture, order: Order<'_>) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            if arm == Arm::Avx512 && std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F + FMA support was just verified at
                // runtime by is_x86_feature_detected!.
                unsafe { self.build_avx512(capture, order) };
                return;
            }
            if arm == Arm::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 + FMA support was just verified at
                // runtime by is_x86_feature_detected!.
                unsafe { self.build_avx2(capture, order) };
                return;
            }
        }
        self.build_body::<false, _>(capture, order, Portable::ZERO)
    }

    /// [`build_body`](Self::build_body) compiled with AVX2 + FMA, on
    /// [`Fma256`](rfbist_dsp::simd::Fma256) lanes.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support on the
    /// running CPU (`is_x86_feature_detected!`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn build_avx2(&mut self, capture: &NonuniformCapture, order: Order<'_>) {
        // SAFETY: this function's own contract: AVX2 and FMA were
        // verified.
        let lanes = unsafe { rfbist_dsp::simd::Fma256::new() };
        self.build_body::<true, _>(capture, order, lanes)
    }

    /// [`build_body`](Self::build_body) compiled with AVX-512F + FMA, on
    /// [`Fma512`](rfbist_dsp::simd::Fma512) lanes.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F and FMA support on the
    /// running CPU (`is_x86_feature_detected!`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn build_avx512(&mut self, capture: &NonuniformCapture, order: Order<'_>) {
        // SAFETY: this function's own contract: AVX-512F and FMA were
        // verified.
        let lanes = unsafe { rfbist_dsp::simd::Fma512::new() };
        self.build_body::<true, _>(capture, order, lanes)
    }

    /// The build kernel (see the module docs), its dot products on
    /// `lanes`: per lattice residue, the shared part of its members'
    /// rows once ([`residue`](Self::residue)), then each member's
    /// sample-weighted passes ([`member_row`](Self::member_row)). A
    /// member whose own `round(t/T)` departs from the lattice
    /// prediction (the half-sample tie residue) takes a second shared
    /// part, built for its shifted tap window. Every probe is covered:
    /// [`try_new`](Self::try_new) checked it.
    #[inline(always)]
    fn build_body<const FMA: bool, L: F64x8>(
        &mut self,
        capture: &NonuniformCapture,
        order: Order<'_>,
        lanes: L,
    ) {
        debug_assert_eq!(FMA, L::FUSED);
        const TAPS: usize = PROBE_TAPS;
        let period = self.period;
        let h = (TAPS / 2) as f64;
        let window = Arc::clone(&self.window);
        // Tap phasors e^{jωⱼ(k − h)T}: with one exact phasor e^{jωⱼu}
        // of a residue's center tap they give every tap's e^{jωⱼu},
        // exactly at the center (the step there is 1) and to a rounding
        // at its neighbours, where the 1/τ poles are.
        let mut tables = BuildTables {
            fill: window.fill(),
            steps: [[0.0; TAPS]; 6],
            nodes: [0.0; FIT_NODES],
        };
        for (pair, &w) in tables.steps.chunks_exact_mut(2).zip(&self.w) {
            let [c, s] = pair else { continue };
            for (k, (ck, sk)) in c.iter_mut().zip(s.iter_mut()).enumerate() {
                (*sk, *ck) = sincos(w * ((k as f64 - h) * period));
            }
        }
        for (i, node) in tables.nodes.iter_mut().enumerate() {
            *node = 0.5 * self.span.bound * (1.0 + node_angle(i).cos());
        }
        let n = order.len();
        let lat = order.lattice();
        let q = lat.q.max(1);
        let n_start = capture.n_start();
        let mut res = Residue::new();
        let mut scratch = MemberScratch {
            coef: [[0.0; PADDED]; 6],
            g: [0.0; PADDED],
            row: [0.0; ROW_LEN],
        };
        for r in 0..q.min(n) {
            let t_r = order.time(r);
            let first_r = first_tap(t_r, period);
            // residue r's members, each with its lattice-predicted first
            // tap and its own window's offset from it
            let members = (r..n).step_by(q).zip(0i64..).map(|(i, m)| {
                let first = first_r + m * lat.p;
                (i, first, first_tap(order.time(i), period) - first)
            });
            for shift in [0, -1, 1] {
                let mut built = false;
                let (taps0, probes0) = (self.exact.taps.len(), self.exact.probes.len());
                for (i, first, offset) in members.clone() {
                    debug_assert!(offset.abs() <= 1, "lattice drift is sub-sample");
                    if offset != shift {
                        continue;
                    }
                    if !built {
                        self.residue::<FMA>(&tables, t_r, first_r + shift, &mut res);
                        self.residues += 1;
                        built = true;
                    }
                    let base = (first + shift - n_start) as usize;
                    let even = &capture.even()[base..base + TAPS];
                    let odd = &capture.odd()[base..base + TAPS];
                    self.fixed[i] = self.member_row(lanes, &res, even, odd, &mut scratch);
                    self.rows[i * ROW_LEN..(i + 1) * ROW_LEN].copy_from_slice(&scratch.row);
                    if res.n_exact > 0 {
                        self.exact.probes.push(i);
                        self.exact
                            .samples
                            .extend(res.exact().iter().map(|&k| odd[k]));
                    }
                }
                if built && res.n_exact > 0 {
                    self.exact
                        .taps
                        .extend(res.exact().iter().map(|&k| ExactTap {
                            u: res.u[k],
                            x: res.x0 + k as f64 * INV_2HW,
                            trig: res.trig.map(|plane| plane[k]),
                        }));
                    self.exact.groups.push(ExactGroup {
                        taps: taps0..self.exact.taps.len(),
                        probes: probes0..self.exact.probes.len(),
                    });
                }
            }
        }
    }

    /// The shared part of the rows of every probe at `t` plus whole
    /// samples whose tap window starts at sample `first`, into `res`:
    /// the taps' `u` and phasors, the even stream's window, the exact
    /// taps and the odd stream's window-over-`τ` at each Chebyshev
    /// node.
    #[inline(always)]
    fn residue<const FMA: bool>(
        &self,
        tables: &BuildTables<'_>,
        t: f64,
        first: i64,
        res: &mut Residue,
    ) {
        const TAPS: usize = PROBE_TAPS;
        let period = self.period;
        let h = TAPS / 2;
        res.u = tap_offsets(first, t, period);
        res.x0 = window_start(first, t, period);
        res.on_sample = res.u[h].abs() < ORIGIN_TAU;
        // e^{jωⱼu} = e^{jωⱼu_h} · e^{jωⱼ(k − h)T}
        let ph = time_phasors(&self.w, res.u[h]);
        for (j, pair) in res.trig.chunks_exact_mut(2).enumerate() {
            let [cu, su] = pair else { continue };
            let (c0, s0) = (ph[2 * j], ph[2 * j + 1]);
            let (c_step, s_step) = (&tables.steps[2 * j], &tables.steps[2 * j + 1]);
            for k in 0..TAPS {
                cu[k] = mad::<FMA>(c0, c_step[k], -(s0 * s_step[k]));
                su[k] = mad::<FMA>(s0, c_step[k], c0 * s_step[k]);
            }
        }
        // Even stream: τ = t − nT = −u, window independent of D̂.
        tables.fill.fill::<FMA>(res.x0, INV_2HW, &mut res.win);
        // Odd stream: τ = u + D̂. The exact taps are kept out of the
        // fit.
        res.n_exact = self.span.exact_taps(&res.u, res.x0, &mut res.exact);
        let mut win = [0.0; TAPS];
        for (g, &node) in res.odd.iter_mut().zip(&tables.nodes) {
            tables
                .fill
                .fill::<FMA>(res.x0 + node / period * INV_2HW, INV_2HW, &mut win);
            for k in 0..TAPS {
                g[k] = win[k] / (res.u[k] + node);
            }
            for &k in &res.exact[..res.n_exact] {
                g[k] = 0.0;
            }
        }
    }

    /// One member's row from its residue's shared part `res` and its
    /// own tap window's samples, into `scratch.row`: the even stream's
    /// 61 divides and six-plane pass, then the odd stream's planes and
    /// one six-plane pass per Chebyshev node. Returns the member's
    /// `D̂`-independent term: the kernel limit at a sample instant.
    #[inline(always)]
    fn member_row<L: F64x8>(
        &self,
        lanes: L,
        res: &Residue,
        even: &[f64],
        odd: &[f64],
        scratch: &mut MemberScratch,
    ) -> f64 {
        const TAPS: usize = PROBE_TAPS;
        let h = TAPS / 2;
        let inv_two_pi_b = self.inv_two_pi_b;
        let MemberScratch { coef, g, row } = scratch;
        let (even, odd) = (&even[..TAPS], &odd[..TAPS]);
        // Indexed over the fixed arrays (an iterator zip of the four
        // measured ~1 ms slower per cost build on AVX-512).
        for k in 0..TAPS {
            let weighted = even[k] * res.win[k] * inv_two_pi_b;
            g[k] = weighted / res.u[k];
        }
        // A probe on a sample instant takes the kernel limit there.
        let mut fixed = 0.0;
        if res.on_sample {
            fixed = even[h] * res.win[h] * self.origin;
            g[h] = 0.0;
        }
        // kernel(−u) = Σ αⱼcos ωⱼu − βⱼ sin ωⱼu over −2πBu
        let sums = dot6(lanes, &res.trig, g);
        for (pair, sum) in row[..6].chunks_exact_mut(2).zip(sums.chunks_exact(2)) {
            pair[0] = -sum[0];
            pair[1] = sum[1];
        }
        for (c, tr) in coef.iter_mut().zip(&res.trig) {
            for k in 0..TAPS {
                c[k] = odd[k] * tr[k] * inv_two_pi_b;
            }
        }
        for (i, g_node) in res.odd.iter().enumerate() {
            for (j, sum) in dot6(lanes, coef, g_node).into_iter().enumerate() {
                row[6 + j * FIT_NODES + i] = sum;
            }
        }
        fixed
    }
}

/// The first sample index of instant `t`'s tap window,
/// `round(t/T) − h`.
#[inline(always)]
fn first_tap(t: f64, period: f64) -> i64 {
    (t / period).round() as i64 - (PROBE_TAPS / 2) as i64
}

/// Every tap's `u = nT − t` for the tap window of instant `t` that
/// starts at sample `first`.
#[inline(always)]
fn tap_offsets(first: i64, t: f64, period: f64) -> [f64; PROBE_TAPS] {
    let u0 = first as f64 * period - t;
    let mut u = [0.0; PROBE_TAPS];
    for (k, uk) in u.iter_mut().enumerate() {
        *uk = u0 + k as f64 * period;
    }
    u
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

/// `Σ a[k]·b[k]` over the shorter length: the whole eight-value
/// chunks on `lanes`, then the lane sum plus the scalar tail.
#[inline(always)]
fn dot_lanes<L: F64x8>(lanes: L, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (ac, at) = a[..n].as_chunks::<LANES>();
    let (bc, bt) = b[..n].as_chunks::<LANES>();
    let mut acc = lanes.zero();
    for (x, y) in ac.iter().zip(bc) {
        acc = acc.mul_add(x, y);
    }
    let mut tail = 0.0;
    for (&p, &q) in at.iter().zip(bt) {
        tail = L::mad(p, q, tail);
    }
    acc.sum() + tail
}

/// Six dot products of zero-padded tap planes with one tap vector in a
/// single pass: six independent accumulators on `lanes`, so the pass
/// is bound by multiply-add throughput rather than latency.
#[inline(always)]
fn dot6<L: F64x8>(lanes: L, planes: &[[f64; PADDED]; 6], g: &[f64; PADDED]) -> [f64; 6] {
    let mut acc = [lanes.zero(); 6];
    let (gc, _) = g.as_chunks::<LANES>();
    for (c, gk) in gc.iter().enumerate() {
        for (a, plane) in acc.iter_mut().zip(planes) {
            let (pc, _) = plane.as_chunks::<LANES>();
            *a = a.mul_add(&pc[c], gk);
        }
    }
    // A plain loop, not `acc.map`: its closure is not inlined into the
    // enclosing #[target_feature] function, so every lane sum became a
    // call that spilled all six accumulators.
    let mut sums = [0.0; 6];
    for (s, a) in sums.iter_mut().zip(acc) {
        *s = a.sum();
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridplan::{GridScratch, PnbsGridPlan};
    use rfbist_signal::tone::{MultiTone, Tone};

    const B: f64 = 90e6;
    const D: f64 = 180e-12;

    /// Every exact tap as `(probe, tap)`, each group's members in turn.
    fn exact_per_probe(sums: &ProbeSums) -> Vec<(usize, ExactTap)> {
        let mut out = Vec::new();
        for g in &sums.exact.groups {
            for &p in &sums.exact.probes[g.probes.clone()] {
                out.extend(sums.exact.taps[g.taps.clone()].iter().map(|&t| (p, t)));
            }
        }
        out
    }

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
        let poles: Vec<usize> = exact_per_probe(&sums).iter().map(|&(p, _)| p).collect();
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
            let exact = exact_per_probe(&sums);
            for probe in 0..times.len() {
                let n = exact.iter().filter(|&&(p, _)| p == probe).count();
                assert!(
                    per_probe.contains(&n),
                    "m = T/{}: probe {probe} has {n} exact taps",
                    band.k_plus()
                );
            }
            let edge = exact.iter().any(|(_, e)| e.x + sums.span.reach >= 1.0);
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
                let first = first_tap(t, period);
                let u = tap_offsets(first, t, period);
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

    /// The grid-order sums of `cap` at `n` probes from `t0` by `step`
    /// for search bound `m`, against the instants order on the same
    /// times (and, with `reference`, the direct reference) at
    /// `candidates`, to 1e-9 relative to the value or absolute below 1.
    fn assert_grid_matches(
        band: BandSpec,
        cap: &NonuniformCapture,
        (t0, step, n): (f64, f64, usize),
        m: f64,
        candidates: &[f64],
        reference: bool,
    ) -> ProbeSums {
        let times: Vec<f64> = (0..n).map(|i| t0 + i as f64 * step).collect();
        let grid = ProbeSums::try_new_grid(band, cap, t0, step, n, m).unwrap();
        let instants = ProbeSums::try_new(band, cap, &times, m).unwrap();
        assert_eq!(grid.exact_taps(), instants.exact_taps());
        assert_eq!(instants.residues(), n);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for &d in candidates {
            grid.eval_into(d, &mut got);
            instants.eval_into(d, &mut want);
            let rec = crate::reconstruct::PnbsReconstructor::paper_default(band, d).unwrap();
            for (i, (&g, &t)) in got.iter().zip(&times).enumerate() {
                let direct = reference.then(|| ("reference", rec.reconstruct_at_reference(cap, t)));
                for (what, w) in [("instants", want[i])].into_iter().chain(direct) {
                    assert!(
                        (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                        "{what}, D̂ = {:.2} ps, probe {i}: {g} vs {w}",
                        d * 1e12
                    );
                }
            }
        }
        grid
    }

    /// `t` moved to a quarter of the residue spacing `T/q` past the
    /// sample instants' lattice points, as the cost's grid schedule
    /// places its first probe.
    fn quarter_off(t: f64, period: f64, q: usize) -> f64 {
        let spacing = period / q as f64;
        ((t / spacing - 0.25).round() + 0.25) * spacing
    }

    #[test]
    fn grid_order_matches_on_the_section_v_lattices() {
        // the cost's 12/13·T schedule: 12/13 of the fast period and 6/13
        // of the slow one, a residue's probes 23 apart
        let m = 1.0 / (23.0 * B);
        let t_s = 1.0 / B;
        let grid = (quarter_off(0.3e-6, t_s, 13), 12.0 * t_s / 13.0, 150);
        for rate in [B, B / 2.0] {
            let band = BandSpec::centered(1e9, rate);
            let cap = capture(band, D);
            let sums = assert_grid_matches(band, &cap, grid, m, &candidates(m), true);
            assert_eq!(sums.residues(), 13, "{rate:e} Hz");
            assert!(sums.exact_taps() > 0, "{rate:e} Hz");
        }
    }

    #[test]
    fn grid_order_matches_on_the_gsm_like_lattices() {
        // the gsm-like deployment's bands (fc = 100 MHz, m = T/3 on the
        // fast capture): four exact taps per fast probe; 17/9 of the
        // fast period is 17/18 of the slow one
        let m = 1.0 / (3.0 * B);
        let t_s = 1.0 / B;
        let grid = (quarter_off(0.3e-6, t_s, 9), 17.0 * t_s / 9.0, 80);
        let cands: Vec<f64> = [2e-12, m - 2e-12]
            .into_iter()
            .chain((1..12).map(|i| m * i as f64 / 12.0))
            .collect();
        for (rate, residues) in [(B, 9), (B / 2.0, 18)] {
            let band = BandSpec::centered(100e6, rate);
            let cap = capture(band, 0.4 * m);
            let sums = assert_grid_matches(band, &cap, grid, m, &cands, true);
            assert_eq!(sums.residues(), residues, "{rate:e} Hz");
            if rate == B {
                assert_eq!(sums.exact_taps(), 4 * grid.2);
            }
        }
    }

    #[test]
    fn tie_residue_takes_the_per_probe_window() {
        // t0 on a sample instant and step 11T/6: residue 3 sits half a
        // sample off, and its members' own round(t/T) departs from the
        // lattice prediction with float noise; each such member takes
        // the shared part built for its shifted window
        let band = BandSpec::centered(1e9, B);
        let m = search_bound(band);
        let cap = capture(band, D);
        let t_s = cap.period();
        let (t0, step, n) = (80.0 * t_s, 11.0 * t_s / 6.0, 72);
        let first_r = first_tap(t0 + 3.0 * step, t_s);
        let shifted = (3..n)
            .step_by(6)
            .zip(0i64..)
            .filter(|&(i, k)| first_tap(t0 + i as f64 * step, t_s) != first_r + 11 * k)
            .count();
        assert!(shifted > 0, "no member of the tie residue flips");
        // against the instants order only: 0.5 ps from the interval end
        // the 1/sin(k⁺πBD̂) weights amplify the ~1e-21 s between a
        // member's time and its residue's lattice position to 1.2e-9
        // of the direct reference at one tie member (the instants
        // order: 5e-10); the cost's schedule places no residue on a
        // tie or a sample instant
        let sums = assert_grid_matches(band, &cap, (t0, step, n), m, &candidates(m), false);
        assert_eq!(sums.residues(), 7);
    }

    #[test]
    fn residue_shared_exact_taps_match_the_per_tap_evaluation() {
        // each group tap's window and kernel once per candidate, then
        // sample · w · k per member, against the same rows' exact taps
        // evaluated member by member, tap by tap
        let t_s = 1.0 / B;
        for (center, q, p, d) in [(1e9, 13, 12.0, D), (100e6, 9, 17.0, 0.4 / (3.0 * B))] {
            let band = BandSpec::centered(center, B);
            let m = search_bound(band);
            let cap = capture(band, d);
            let (t0, step) = (quarter_off(0.3e-6, t_s, q), p * t_s / q as f64);
            let sums = ProbeSums::try_new_grid(band, &cap, t0, step, 80, m).unwrap();
            assert!(sums.exact.groups.len() < sums.exact.probes.len());
            let mut bare = sums.clone();
            bare.exact = ExactTaps::default();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for arm in [Arm::Portable, Arm::detect()] {
                for &d_hat in &candidates(m) {
                    sums.eval_into_on(arm, d_hat, &mut got);
                    bare.eval_into_on(arm, d_hat, &mut want);
                    let (alpha, beta) = kernel_weights(band, d_hat);
                    let mut shifted = [0.0; 6];
                    for j in 0..3 {
                        let (s, c) = sincos(sums.w[j] * d_hat);
                        shifted[2 * j] = alpha[j] * c + beta[j] * s;
                        shifted[2 * j + 1] = beta[j] * c - alpha[j] * s;
                    }
                    let shift = d_hat / sums.period * INV_2HW;
                    let mut samples = sums.exact.samples.iter();
                    for (probe, tap) in exact_per_probe(&sums) {
                        let kernel = if arm == Arm::Portable {
                            sums.exact_kernel::<false>(&tap, d_hat, &shifted)
                        } else {
                            sums.exact_kernel::<true>(&tap, d_hat, &shifted)
                        };
                        let sample = samples.next().unwrap();
                        want[probe] += sample * sums.window.table.at(tap.x + shift) * kernel;
                    }
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), w.to_bits(), "{arm:?}, probe {i}: {g} vs {w}");
                    }
                }
            }
        }
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
        let exact = &sums.exact;
        assert_eq!(exact.taps.capacity(), exact.taps.len());
        assert_eq!(exact.groups.capacity(), exact.groups.len());
        assert_eq!(exact.probes.capacity(), exact.probes.len());
        assert_eq!(exact.samples.capacity(), exact.samples.len());
        assert!(exact.samples.len() < times.len());
    }
}
