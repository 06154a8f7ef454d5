//! Window functions.
//!
//! Symmetric (filter-design) windows are generated with the standard
//! `N−1` denominator convention, matching Matlab's `window(@name, N)` and
//! SciPy's `sym=True`. The Kaiser window — used by the paper to window the
//! Kohlenberg reconstruction filter — takes its `β` parameter directly.

use rfbist_math::special::bessel_i0;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::Arc;

thread_local! {
    /// Most-recently-used coefficient table, keyed by (window, length).
    /// Welch PSDs, the banked mask scan and repeated BIST runs all
    /// regenerate the same window — a cosine or Bessel series per tap,
    /// ~300 µs for the mask path's 8192-tap Blackman–Harris — so the
    /// cache turns steady-state regeneration into one memcpy. A single
    /// entry suffices: the workspace's window traffic comes in runs of
    /// one configuration (mirroring the FFT twiddle cache).
    #[allow(clippy::type_complexity)]
    static COEFF_CACHE: RefCell<Option<(Window, usize, Arc<[f64]>)>> = const { RefCell::new(None) };
}

/// Window function selector.
///
/// # Example
///
/// ```
/// use rfbist_dsp::window::Window;
/// let w = Window::Kaiser(8.0).coefficients(61);
/// assert_eq!(w.len(), 61);
/// // Symmetric, peaking at the center tap.
/// assert!((w[0] - w[60]).abs() < 1e-12);
/// assert!((w[30] - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Window {
    /// All-ones window (no tapering).
    Rectangular,
    /// Triangular (Bartlett) window.
    Bartlett,
    /// Hann (raised-cosine) window.
    Hann,
    /// Hamming window (0.54/0.46 coefficients).
    Hamming,
    /// Blackman window (exact three-term coefficients 0.42/0.5/0.08).
    Blackman,
    /// Four-term Blackman–Harris window (−92 dB sidelobes).
    BlackmanHarris,
    /// Kaiser window with shape parameter `β`.
    Kaiser(f64),
}

impl Window {
    /// Generates the symmetric `n`-point window.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        assert!(n > 0, "window length must be positive");
        if n == 1 {
            return vec![1.0];
        }
        COEFF_CACHE.with(|cell| {
            let mut slot = cell.borrow_mut();
            if let Some((w, len, table)) = slot.as_ref() {
                if *w == self && *len == n {
                    return table.to_vec();
                }
            }
            let m = (n - 1) as f64;
            let table: Arc<[f64]> = (0..n).map(|i| self.at(i as f64 / m)).collect();
            let out = table.to_vec();
            *slot = Some((self, n, table));
            out
        })
    }

    /// Evaluates the window at normalized position `x ∈ [0, 1]`
    /// (0 and 1 are the edges, 0.5 the center).
    ///
    /// Values outside `[0, 1]` return 0. This continuous form is what the
    /// PNBS reconstructor uses to taper the interpolant at arbitrary
    /// (non-integer) tap offsets.
    pub fn at(self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return 0.0;
        }
        self.shape(x)
    }

    /// The window's analytic formula without the support clamp — the
    /// natural extension of every shape beyond `[0, 1]`, used to pad
    /// the edge nodes of [`WindowTable`] so its edge intervals
    /// interpolate the true shape instead of a flat extension.
    fn shape(self, x: f64) -> f64 {
        match self {
            Window::Rectangular => 1.0,
            Window::Bartlett => 1.0 - (2.0 * x - 1.0).abs(),
            Window::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos(),
            Window::BlackmanHarris => {
                0.35875 - 0.48829 * (2.0 * PI * x).cos() + 0.14128 * (4.0 * PI * x).cos()
                    - 0.01168 * (6.0 * PI * x).cos()
            }
            Window::Kaiser(beta) => {
                let t = 2.0 * x - 1.0; // in [-1, 1]
                bessel_i0(beta * (1.0 - t * t).max(0.0).sqrt()) / bessel_i0(beta)
            }
        }
    }
}

impl Window {
    /// Prepares this window for repeated pointwise evaluation.
    ///
    /// For [`Window::Kaiser`] the naive [`at`](Self::at) pays a
    /// Bessel-`I0` series (with its per-term divisions) *and* the
    /// `1/I0(β)` normalization on every call. The sampler hoists the
    /// normalization and rewrites the window as a polynomial table
    /// evaluated by Horner's rule — see [`WindowSampler`]. It supplies
    /// the nodes of every [`WindowTable`] (the form the PNBS
    /// reconstruction plan reads per tap) and evaluates the shapes the
    /// cubic table cannot represent.
    pub fn sampler(self) -> WindowSampler {
        WindowSampler::new(self)
    }

    /// Prepares this window for the cheapest repeated evaluation of
    /// all: a dense cubic-interpolation table — see [`WindowTable`].
    ///
    /// Every call builds the table, including the against-the-sampler
    /// validation pass, so hold on to it: the grid-aware
    /// reconstruction plan shares its window tables across plans
    /// itself.
    pub fn tabulated(self) -> WindowTable {
        self.tabulated_aligned(1)
    }

    /// [`tabulated`](Self::tabulated) with the node count rounded up to
    /// a multiple of `alignment` nodes per unit interval.
    ///
    /// When `alignment` divides the caller's evaluation stride into the
    /// node grid exactly — the grid-aware reconstruction plan walks a
    /// tap row at stride `1/(2·(h+1))` and aligns on `2·(h+1)` — every
    /// position of the row shares one set of interpolation weights and
    /// an integer node stride, so a whole row costs four contiguous
    /// loads and four fused multiply-adds per position.
    ///
    /// # Panics
    ///
    /// Panics if `alignment` is zero.
    pub fn tabulated_aligned(self, alignment: usize) -> WindowTable {
        assert!(alignment > 0, "alignment must be positive");
        WindowTable::build(self, alignment)
    }
}

impl Default for Window {
    /// Hann — a safe general-purpose default for spectral estimation.
    fn default() -> Self {
        Window::Hann
    }
}

/// A window prepared for cheap repeated evaluation at arbitrary
/// (non-grid) positions.
///
/// For the Kaiser window the key identity is that
/// `I0(β·√(1−t²))` is an *entire* function of `y = 1 − t²`:
///
/// ```text
/// I0(β√y) = Σₖ ((β²/4)ᵏ / (k!)²) · yᵏ
/// ```
///
/// so the whole window is a short polynomial in `y` (≈ 30 terms for
/// β = 8 at full double precision) whose coefficients — *including* the
/// hoisted `1/I0(β)` normalization — are computed once. Evaluation is
/// then one Horner pass: no Bessel series, no per-call divisions. All
/// other window shapes are already one or two trig calls and delegate
/// to [`Window::at`].
///
/// # Example
///
/// ```
/// use rfbist_dsp::window::Window;
/// let w = Window::Kaiser(8.0);
/// let s = w.sampler();
/// for i in 0..=100 {
///     let x = i as f64 / 100.0;
///     assert!((s.at(x) - w.at(x)).abs() < 1e-12);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct WindowSampler {
    repr: SamplerRepr,
}

#[derive(Clone, Debug)]
enum SamplerRepr {
    /// Kaiser as a normalized polynomial in `y = 1 − (2x−1)²`,
    /// highest-order coefficient first (Horner order).
    KaiserPoly(Vec<f64>),
    /// Shapes whose pointwise form is already cheap.
    Direct(Window),
}

impl WindowSampler {
    fn new(window: Window) -> Self {
        let repr = match window {
            Window::Kaiser(beta) => {
                // cₖ = (β²/4)ᵏ/(k!)², accumulated exactly like
                // `bessel_i0`'s series so the sampler agrees with the
                // direct path to the same convergence floor.
                let q = beta * beta / 4.0;
                let mut coeffs = vec![1.0f64];
                let mut term = 1.0f64;
                let mut sum = 1.0f64;
                let mut k = 1.0f64;
                loop {
                    term *= q / (k * k);
                    coeffs.push(term);
                    sum += term;
                    if term < sum * 1e-17 || k > 400.0 {
                        break;
                    }
                    k += 1.0;
                }
                // `sum` is Σcₖ = I0(β): fold the normalization in.
                let inv_norm = 1.0 / sum;
                coeffs.iter_mut().for_each(|c| *c *= inv_norm);
                coeffs.reverse();
                SamplerRepr::KaiserPoly(coeffs)
            }
            other => SamplerRepr::Direct(other),
        };
        WindowSampler { repr }
    }

    /// Evaluates the window at normalized position `x ∈ [0, 1]`;
    /// positions outside the support return 0, exactly as
    /// [`Window::at`].
    #[inline]
    pub fn at(&self, x: f64) -> f64 {
        match &self.repr {
            SamplerRepr::Direct(w) => w.at(x),
            SamplerRepr::KaiserPoly(coeffs) => {
                if !(0.0..=1.0).contains(&x) {
                    return 0.0;
                }
                let t = 2.0 * x - 1.0;
                let y = (1.0 - t * t).max(0.0);
                let mut acc = 0.0;
                for &c in coeffs {
                    acc = acc * y + c;
                }
                acc
            }
        }
    }

    /// The analytic shape without the support clamp. For the Kaiser
    /// polynomial the Horner argument `y = 1 − (2x−1)²` simply goes
    /// negative outside the support (the series is entire in `y`), so
    /// edge padding follows the true curvature — constant-extending the
    /// edge value instead would bend [`WindowTable`]'s first and last
    /// intervals by ~1e-6, far outside the interpolation budget.
    fn at_extended(&self, x: f64) -> f64 {
        match &self.repr {
            SamplerRepr::Direct(w) => w.shape(x),
            SamplerRepr::KaiserPoly(coeffs) => {
                let t = 2.0 * x - 1.0;
                let y = 1.0 - t * t;
                let mut acc = 0.0;
                for &c in coeffs {
                    acc = acc * y + c;
                }
                acc
            }
        }
    }
}

/// Intervals in a [`WindowTable`]: at 1/4096 node spacing the cubic
/// Lagrange stencil's `O(h⁴·max|w⁗|)` error stays below ~1e-12 for
/// every smooth window in the workspace (Kaiser β ≲ 20, the
/// cosine-series shapes), well under the validation budget.
const TABLE_INTERVALS: usize = 4096;

/// Midpoint-validation budget for the cubic table. Comfortably above
/// the ~1e-12 interpolation error of the smooth shapes, decisively
/// below the ~1e-7 error a kinked shape (Bartlett's center crease)
/// produces — so validation cleanly routes kinked windows to the
/// direct-sampler fallback. Two orders of margin remain against the
/// reconstruction suite's 1e-9 equivalence budget even after a 61-tap
/// accumulation.
const TABLE_TOLERANCE: f64 = 5e-12;

/// A window prepared as a dense value table with four-point cubic
/// Lagrange interpolation — the cheapest evaluation form, used by the
/// grid-aware reconstruction plan where the window is read twice per
/// tap per grid point.
///
/// Where [`WindowSampler`] replaces the Kaiser Bessel series with a
/// ~31-term Horner polynomial, the table replaces the polynomial with
/// four loads and nine flops. Node values come from the sampler itself
/// (exact at nodes); every build runs a midpoint validation pass
/// against the sampler and falls back to direct sampling for shapes the
/// cubic cannot represent to `TABLE_TOLERANCE` (5e-12; kinked or
/// discontinuous windows), so `WindowTable::at` is *always* within the
/// tolerance of [`Window::at`] on the support.
///
/// # Example
///
/// ```
/// use rfbist_dsp::window::Window;
/// let w = Window::Kaiser(8.0);
/// let table = w.tabulated();
/// for i in 0..=1000 {
///     let x = i as f64 / 1000.0;
///     assert!((table.at(x) - w.at(x)).abs() < 5e-12);
/// }
/// assert_eq!(table.at(-0.1), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct WindowTable {
    repr: TableRepr,
}

#[derive(Clone, Debug)]
enum TableRepr {
    /// `vals[j] = shape((j − 1)/m)` for `j ∈ [0, m + 3]` — pad nodes
    /// beyond the support edges so every interval (and a stencil
    /// anchored exactly at x = 1) has its four-node Lagrange stencil.
    /// `scale = m as f64`.
    Cubic { scale: f64, vals: Arc<[f64]> },
    /// Shapes the cubic table cannot represent to tolerance.
    Direct(WindowSampler),
}

impl WindowTable {
    fn build(window: Window, alignment: usize) -> Self {
        let sampler = window.sampler();
        // Round the node count up to the alignment; one pad node before
        // the support and two after (so a stencil anchored exactly at
        // x = 1 still has its four nodes).
        let m = alignment * TABLE_INTERVALS.div_ceil(alignment);
        let h = 1.0 / m as f64;
        let vals: Arc<[f64]> = (0..=m + 3)
            .map(|j| sampler.at_extended((j as f64 - 1.0) * h))
            .collect();
        let table = WindowTable {
            repr: TableRepr::Cubic {
                scale: m as f64,
                vals,
            },
        };
        // Validation at interval midpoints — the cubic's worst case.
        for i in 0..m {
            let x = (i as f64 + 0.5) * h;
            if (table.at(x) - sampler.at(x)).abs() > TABLE_TOLERANCE {
                return WindowTable {
                    repr: TableRepr::Direct(sampler),
                };
            }
        }
        table
    }

    /// `true` when evaluation goes through the cubic table rather than
    /// the direct-sampler fallback.
    pub fn is_tabulated(&self) -> bool {
        matches!(self.repr, TableRepr::Cubic { .. })
    }

    /// The raw cubic table as `(scale, padded node values)` when this
    /// window tabulated, `None` for the direct-sampler fallback.
    ///
    /// For callers that fuse the interpolation into their own inner
    /// loops (the grid-aware reconstruction plan evaluates the window
    /// twice per tap per grid point): the four-node Lagrange stencil
    /// on these values is exactly [`at`](Self::at), but lets the hot
    /// loop monomorphize away the representation dispatch.
    pub fn cubic_parts(&self) -> Option<(f64, &[f64])> {
        match &self.repr {
            TableRepr::Cubic { scale, vals } => Some((*scale, vals)),
            TableRepr::Direct(_) => None,
        }
    }

    /// Evaluates the window at normalized position `x ∈ [0, 1]`;
    /// positions outside the support return 0, exactly as
    /// [`Window::at`].
    #[inline]
    pub fn at(&self, x: f64) -> f64 {
        match &self.repr {
            TableRepr::Direct(s) => s.at(x),
            TableRepr::Cubic { scale, vals } => cubic_window_eval(*scale, vals, x),
        }
    }
}

/// Evaluates a [`WindowTable`]'s raw cubic table (from
/// [`WindowTable::cubic_parts`]) at normalized position `x`; positions
/// outside `[0, 1]` return 0.
#[inline(always)]
fn cubic_window_eval(scale: f64, vals: &[f64], x: f64) -> f64 {
    if !(0.0..=1.0).contains(&x) {
        return 0.0;
    }
    let pos = x * scale;
    // interval index, clamped so x = 1.0 lands in the last one
    let i = (pos as usize).min(vals.len() - 4);
    let s = pos - i as f64;
    // one bounds check for the whole four-node stencil
    let p = &vals[i..i + 4];
    // cubic Lagrange on the stencil at s ∈ {−1, 0, 1, 2}; exact (s = 0
    // and s = 1 reproduce the nodes bit-for-bit), O(h⁴) between them
    let sp = s + 1.0;
    let sm = s - 1.0;
    let s2 = s - 2.0;
    (sp * sm * s2 * 0.5) * p[1] - (s * sm * s2 / 6.0) * p[0] - (sp * s * s2 * 0.5) * p[2]
        + (sp * s * sm / 6.0) * p[3]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_symmetric(w: &[f64]) {
        let n = w.len();
        for i in 0..n / 2 {
            assert!((w[i] - w[n - 1 - i]).abs() < 1e-12, "asymmetry at {i}");
        }
    }

    #[test]
    fn rectangular_is_all_ones() {
        assert_eq!(Window::Rectangular.coefficients(5), vec![1.0; 5]);
    }

    #[test]
    fn all_windows_are_symmetric_and_bounded() {
        let windows = [
            Window::Rectangular,
            Window::Bartlett,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::BlackmanHarris,
            Window::Kaiser(6.0),
        ];
        for win in windows {
            for n in [8usize, 9, 61] {
                let w = win.coefficients(n);
                assert_symmetric(&w);
                for &v in &w {
                    assert!(
                        (-1e-12..=1.0 + 1e-12).contains(&v),
                        "{win:?} out of range: {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn hann_endpoints_are_zero_and_center_is_one() {
        let w = Window::Hann.coefficients(9);
        assert!(w[0].abs() < 1e-12);
        assert!(w[8].abs() < 1e-12);
        assert!((w[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_endpoints() {
        let w = Window::Hamming.coefficients(11);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[10] - 0.08).abs() < 1e-12);
    }

    #[test]
    fn blackman_matches_reference() {
        // Matlab blackman(5) = [0 0.34 1 0.34 0]
        let w = Window::Blackman.coefficients(5);
        assert!(w[0].abs() < 1e-12);
        assert!((w[1] - 0.34).abs() < 1e-12);
        assert!((w[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kaiser_zero_beta_is_rectangular() {
        let w = Window::Kaiser(0.0).coefficients(7);
        for &v in &w {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn kaiser_matches_bessel_reference() {
        // Endpoint value is 1/I0(β); I0(8) = 427.56411572 (A&S tables).
        let w = Window::Kaiser(8.0).coefficients(5);
        let expected_edge = 1.0 / 427.56411572;
        assert!(
            (w[0] - expected_edge).abs() < 1e-9,
            "{} vs {expected_edge}",
            w[0]
        );
        assert!((w[2] - 1.0).abs() < 1e-12);
        // strictly increasing toward the center
        assert!(w[0] < w[1] && w[1] < w[2]);
    }

    #[test]
    fn continuous_at_outside_support_is_zero() {
        assert_eq!(Window::Hann.at(-0.1), 0.0);
        assert_eq!(Window::Kaiser(5.0).at(1.1), 0.0);
    }

    #[test]
    fn single_point_window_is_one() {
        for win in [Window::Hann, Window::Kaiser(9.0), Window::Blackman] {
            assert_eq!(win.coefficients(1), vec![1.0]);
        }
    }

    #[test]
    fn coherent_gain_and_enbw_reference() {
        // coherent gain Σw/N and equivalent noise bandwidth N·Σw²/(Σw)²
        let cg_enbw = |w: Window, n: usize| {
            let c = w.coefficients(n);
            let sum: f64 = c.iter().sum();
            let sumsq: f64 = c.iter().map(|&v| v * v).sum();
            (sum / n as f64, n as f64 * sumsq / (sum * sum))
        };
        // Rectangular: CG = 1, ENBW = 1 bin.
        let (cg, enbw) = cg_enbw(Window::Rectangular, 64);
        assert!((cg - 1.0).abs() < 1e-12);
        assert!((enbw - 1.0).abs() < 1e-12);
        // Hann: CG -> 0.5, ENBW -> 1.5 bins for large N.
        let (cg, enbw) = cg_enbw(Window::Hann, 4096);
        assert!((cg - 0.5).abs() < 1e-3);
        assert!((enbw - 1.5).abs() < 1e-2);
    }

    #[test]
    fn sampler_matches_direct_evaluation() {
        let windows = [
            Window::Rectangular,
            Window::Bartlett,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::BlackmanHarris,
            Window::Kaiser(0.0),
            Window::Kaiser(2.5),
            Window::Kaiser(8.0),
            Window::Kaiser(14.0),
        ];
        for win in windows {
            let s = win.sampler();
            for i in 0..=1000 {
                let x = i as f64 / 1000.0;
                let diff = (s.at(x) - win.at(x)).abs();
                assert!(diff < 1e-13, "{win:?} at {x}: diff {diff:.3e}");
            }
        }
    }

    #[test]
    fn sampler_is_zero_outside_support() {
        for win in [Window::Kaiser(8.0), Window::Hann] {
            let s = win.sampler();
            assert_eq!(s.at(-1e-12), 0.0);
            assert_eq!(s.at(1.0 + 1e-12), 0.0);
            assert_eq!(s.at(f64::NAN), 0.0);
        }
    }

    #[test]
    fn sampler_kaiser_edges_and_center() {
        let s = Window::Kaiser(8.0).sampler();
        // Edge value 1/I0(8), center exactly the polynomial's sum = 1.
        assert!((s.at(0.0) - 1.0 / 427.56411572).abs() < 1e-9);
        assert!((s.at(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_matches_sampler_within_tolerance() {
        let windows = [
            Window::Rectangular,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::BlackmanHarris,
            Window::Kaiser(0.0),
            Window::Kaiser(2.5),
            Window::Kaiser(8.0),
            Window::Kaiser(14.0),
        ];
        for win in windows {
            let table = win.tabulated();
            assert!(table.is_tabulated(), "{win:?} should tabulate");
            let s = win.sampler();
            for i in 0..=4000 {
                // off-node positions (4000 does not divide 4096)
                let x = i as f64 / 4000.0;
                let diff = (table.at(x) - s.at(x)).abs();
                assert!(diff <= 5e-12, "{win:?} at {x}: diff {diff:.3e}");
            }
        }
    }

    #[test]
    fn table_is_exact_at_nodes() {
        let win = Window::Kaiser(8.0);
        let table = win.tabulated();
        let s = win.sampler();
        for i in [0usize, 1, 2048, 4095, 4096] {
            let x = i as f64 / 4096.0;
            assert_eq!(table.at(x), s.at(x), "node {i}");
        }
    }

    #[test]
    fn kinked_window_falls_back_to_direct_sampling() {
        // Bartlett's center crease defeats cubic interpolation; the
        // validation pass must route it to the sampler fallback, which
        // then agrees with Window::at exactly.
        let table = Window::Bartlett.tabulated();
        assert!(!table.is_tabulated());
        for i in 0..=999 {
            let x = i as f64 / 999.0;
            assert_eq!(table.at(x), Window::Bartlett.at(x));
        }
    }

    #[test]
    fn table_is_zero_outside_support() {
        for win in [Window::Kaiser(8.0), Window::Hann, Window::Bartlett] {
            let table = win.tabulated();
            assert_eq!(table.at(-1e-12), 0.0);
            assert_eq!(table.at(1.0 + 1e-12), 0.0);
            assert_eq!(table.at(f64::NAN), 0.0);
            assert_ne!(table.at(0.5), 0.0);
        }
    }

    #[test]
    fn table_cache_round_trips_between_windows() {
        // Tables built for alternating windows stay correct, and every
        // rebuild reproduces the first build bit for bit (the grid
        // plan's window cache relies on it).
        let first = Window::Kaiser(8.0).tabulated_aligned(62);
        for _ in 0..3 {
            let k = Window::Kaiser(8.0).tabulated_aligned(62);
            assert!((k.at(0.5) - 1.0).abs() < 1e-12);
            assert_eq!(k.cubic_parts(), first.cubic_parts());
            let h = Window::Hann.tabulated();
            assert!((h.at(0.25) - Window::Hann.at(0.25)).abs() < 5e-12);
        }
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_panics() {
        let _ = Window::Hann.coefficients(0);
    }
}
