//! Planned PNBS reconstruction (paper eq. 6) — the workspace's hottest
//! loop — in two iteration orders over one row builder: phase-major
//! reconstruction of uniform grids, and arbitrary instants.
//! Beside them, [`ProbeSums`] reuses the row builder's parts to
//! summarize a capture at fixed probe instants once, so the dual-rate
//! cost can evaluate any delay candidate without building a row (see
//! its module docs).
//!
//! The direct form
//! ([`PnbsReconstructor::try_reconstruct_at_reference`](crate::reconstruct::PnbsReconstructor::try_reconstruct_at_reference))
//! pays, per tap and per instant, four cosines of the Kohlenberg kernel
//! (paper eq. 2) and two Bessel-`I0` Kaiser-window series. Every
//! analysis grid multiplies that by thousands to tens of thousands of
//! instants.
//! [`PnbsGridPlan`] precomputes everything that does not depend on the
//! instant.
//!
//! # The row builder
//!
//! Every instant is one *weight row* — the 2 × `num_taps` eq. 6
//! weights (Kohlenberg kernel × window) of its tap window — dotted with
//! the capture samples under that window:
//!
//! - **Time phasors.** Each cosine family's phasor
//!   `e^{jωⱼ(t − n_ref·T)}` is the only per-instant trigonometry: three
//!   `sincos` per instant, or on a uniform grid one grid-step rotation
//!   per row, with an exact re-seed every [`GRID_BLOCK_LEN`] grid
//!   points bounding phase drift.
//! - **Factored per-sample tables.** The kernel numerator is a fixed
//!   linear combination `Σⱼ αⱼcos(ωⱼτ) + βⱼsin(ωⱼτ)`, and `τ = t − nT`
//!   splits by the angle-sum identity into the time phasor times a
//!   per-*sample* phasor `e^{jωⱼ(n − n_ref)T}`. Folding `(αⱼ, βⱼ)` into
//!   per-sample tables (built once per call with [`fill_phasor_table`])
//!   collapses the per-tap numerator to six multiply-adds per stream.
//! - **Tabulated window.** The Kaiser series is replaced by the cached
//!   cubic [`WindowTable`], node-aligned to the tap stride `1/(2(h+1))`
//!   and transposed by node residue, so a whole window row shares one
//!   set of interpolation weights and reads four unit-stride streams
//!   (≤ 5e-12 from the exact window; kinked shapes fall back to direct
//!   sampling). The transposed table depends only on (window, taps) and
//!   is shared across plans through a thread-local MRU cache, so a new
//!   `D̂` costs only the eq. 2 constants.
//! - **Near-origin guard.** Within `NEAR_ORIGIN_FRACTION` (T/16) of a sample
//!   instant the `1/τ` pole would amplify the tables' bounded phase
//!   error, so that tap (at most one per stream) is evaluated exactly.
//!
//! # Arbitrary instants
//!
//! [`PnbsGridPlan::try_reconstruct_instants`] seeds every instant's
//! time phasors exactly. Its tables cover the whole capture, phased
//! from the fixed origin `n₀ + h` of the capture, so a value depends
//! only on the plan, the capture and `t`: a batch and a single-point
//! call are bit-identical.
//!
//! # Phase-major reconstruction of uniform grids
//!
//! A fixed-rate sampler serving several standards puts every builtin
//! analysis grid on a small rational fraction of the sample period:
//! `step = (p/q)·T` (3/10, 9/400, 9/500 and 9/650 at 0.3, 4, 5 and
//! 6.5 GHz against the 90 MHz sampler). Grid point `i = r + m·q` then
//! sits at `t_r + m·p·T`, so its weight row is the row of point `r`
//! and its tap window is point `r`'s shifted by `m·p` samples.
//! [`PnbsGridPlan`] detects such grids from the geometry alone: a
//! continued-fraction convergent `p/q` of `step/T` with `q ≤ 4096`,
//! relative error ≤ 1e-12, at least four points per phase, and an
//! accumulated lattice phase error over the whole grid of at most
//! 1e-10 rad at the kernel's fastest oscillation (far inside the 1e-9
//! equivalence budget). Grids are reconstructed **phase-major** in
//! chunks of consecutive points (see the chunk policy below): the time
//! phasors advance by the grid-step rotor `e^{jωⱼ·Δt}` over the first
//! `q` grid points only, each emitting its weight row, and the row of
//! residue `r` is applied to every point of that residue in the
//! chunk — one 2 × `num_taps` dot product per point instead of a row
//! build.
//!
//! **The one-period lattice.** A uniform grid on no short lattice is
//! the phase-major grid whose period is the whole grid, `q = n` (and
//! `p = 0`, never read): every point is its own residue and gets its
//! own row, built in grid order from the rotor. A chunk then steps
//! only through its own residues, starting on a re-seed boundary, and
//! the tables cover exactly the grid's tap windows.
//!
//! **Tie rule.** When `t_r/T` sits exactly half a sample from a sample
//! instant (one residue per grid whenever `t0` is a sample instant and
//! `q` is even), the per-point `round(t/T)` that picks the tap window
//! flips with float noise from point to point, and the direct
//! reference follows each flip. Phase-major reconstruction evaluates
//! the same per-point rounding and, where it departs from the lattice
//! prediction, applies a second row built for the shifted tap window —
//! so every point reproduces the per-point choice. The tables carry one
//! sample of margin on each side for that shifted window, on short
//! lattices only: a one-period grid has no second point per residue.
//!
//! **Chunk policy.** Only one row (plus the tie residue's second row)
//! is in flight, and every chunk rebuilds its `q` rows from the grid
//! start (on the one-period lattice, from its own first point's
//! re-seed). Re-seeds are absolute, so no value depends on where a
//! chunk starts or ends: the batch grid and both block feeds share one
//! producer and stay bit-identical. A row build costs as much as 10–20
//! points' dot products, so a chunk is as long as the memory its
//! caller already holds:
//!
//! - **Batch grid** ([`PnbsGridPlan::try_reconstruct_grid`]): one
//!   chunk, since its output holds the whole grid anyway.
//! - **Block feed** ([`PnbsGridPlan::try_reconstruct_blocks`]): chunks
//!   of up to [`FEED_CHUNK_LEN`] points, a 128 KiB buffer.
//! - **Early-stop feed**
//!   ([`PnbsGridPlan::try_reconstruct_stoppable_blocks`]), for a
//!   consumer that may stop early: [`SUPER_BLOCK_LEN`]-point
//!   chunks, so a stop skips every chunk after the one it stopped in.
//!
//! The block feed therefore builds 400 rows on a 12288-point 9/400
//! grid (Section V, wcdma-like), 1000 on lte5-like's 32768-point 9/500
//! grid and 1300 on wb-20msym's 9/650 one, half of what
//! [`SUPER_BLOCK_LEN`] chunks build; gsm-like's 8192-point 3/10 grid is
//! one chunk of 10 rows either way. The feed's length is a memory
//! choice. Peak RSS of the five-standard calibrated line with one pool
//! worker per core (2-core AVX-512 VM), against [`SUPER_BLOCK_LEN`]
//! chunks everywhere: 16384-point feed chunks read +5.5–9 % in the
//! median of ten-pair runs (the two workers' extra 64 KiB, plus the
//! latency samples of the verdicts a faster run completes), a
//! whole-grid feed +15 %, and a resident `q × 2·num_taps` coefficient
//! bank (every residue's row built once per plan) +49 % (5.1–5.2 MiB
//! to 7.6–7.8 MiB).
//!
//! # Runtime-dispatched SIMD
//!
//! The producer (row builds and dot products) is one [`Kernel`],
//! entered through [`Arm::run`]: on x86-64 hosts with hardware FMA it
//! runs as the AVX-512F or AVX2 recompilation of its body (unless
//! `RFBIST_FORCE_SCALAR` is set), elsewhere as the portable one. The
//! row builder is safe Rust that LLVM vectorizes itself;
//! every multiply-add is fused in the FMA arms and plain `*`/`+` in the
//! portable one (without hardware FMA, `f64::mul_add` is a libm call).
//! The dot product runs on the arm's [`F64x8`] lanes: one `__m512d`, two
//! `__m256d`, or the portable `[f64; 8]`. LLVM paired or scalarized the
//! loop-carried `[f64; 8]` accumulators the kernel had before (2-wide
//! xmm FMAs with shuffles, ~95 ns per Section V grid point on a 2-core
//! AVX-512 VM); on explicit registers a point costs ~55–65 ns, with the
//! same bits, since every form keeps the lane order of `rfbist_dsp::simd`
//! (checked by `tests/lane_model.rs` on every arm the host runs). Every
//! order tracks the direct reference to ≪ 1e-9
//! (`tests/plan_equivalence.rs`, `tests/grid_plan_equivalence.rs`).

use crate::band::BandSpec;
use crate::reconstruct::NonuniformCapture;
use rfbist_dsp::simd::{Arm, F64x8, Kernel};
use rfbist_dsp::window::{Window, WindowTable};
use rfbist_math::rotor::{fill_phasor_table, sincos};
use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::Arc;

mod probe_sums;
pub use probe_sums::{ProbeSums, ProbeSumsError, PROBE_TAPS, PROBE_WINDOW};

/// Points per [`GridBlocks::next_block`] block, and the interval (in
/// absolute grid points) between exact re-seeds of the three time
/// phasors. The grid-step rotor's phase error grows O(points·ε);
/// re-seeding every 256 points caps it at ≈ 6e-14 rad — far below the
/// near-origin guard's budget — for arbitrarily long grids, and because
/// the schedule is absolute, a chunk that starts its rotor on one
/// of these boundaries reproduces the rows of one pass from the start.
pub const GRID_BLOCK_LEN: usize = 256;

/// Internal alias documenting the re-seed role of [`GRID_BLOCK_LEN`].
const TIME_RESEED_INTERVAL: usize = GRID_BLOCK_LEN;

/// Points per chunk of the early-stop feed
/// ([`PnbsGridPlan::try_reconstruct_stoppable_blocks`]):
/// the unit an early verdict skips (64 KiB of values). It equals the
/// engine's longest Welch segment, so a verdict decided at the first
/// completed segment of a long grid never builds a second chunk.
pub const SUPER_BLOCK_LEN: usize = 32 * GRID_BLOCK_LEN;

/// Points per chunk of the default block feed
/// ([`PnbsGridPlan::try_reconstruct_blocks`]): two of the engine's longest
/// Welch segments, a 128 KiB buffer. Each chunk builds every residue's
/// row once, so the 32768-point grids build their rows twice instead
/// of four times (see the module docs' chunk policy).
pub const FEED_CHUNK_LEN: usize = 2 * SUPER_BLOCK_LEN;

/// Largest lattice denominator `q` reconstructed phase-major.
const MAX_LATTICE_PHASES: i64 = 4096;

/// Fewest grid points per lattice phase for which rebuilding `q` rows
/// per chunk pays off against one row per point.
const MIN_POINTS_PER_PHASE: usize = 4;

/// Largest relative error `|step/T − p/q| / (step/T)` of an accepted
/// convergent.
const LATTICE_REL_TOLERANCE: f64 = 1e-12;

/// Largest accumulated phase error, in radians at the kernel's fastest
/// angular frequency, between the grid instants and their lattice
/// positions over the whole grid.
const LATTICE_PHASE_TOLERANCE: f64 = 1e-10;

/// Taps whose kernel argument is within this fraction of a sample
/// period of the origin are evaluated exactly instead of through the
/// factored tables: at `|τ| ≥ T/16` the `1/τ` amplification of the
/// tables' ~4e-12 rad worst-case phase error stays below ~1e-11 of
/// kernel value, and the exact path costs three `sincos` on at most
/// one tap per stream per point.
const NEAR_ORIGIN_FRACTION: f64 = 1.0 / 16.0;

/// Kernel arguments closer than this to zero (seconds) take the limit
/// `s(0)` instead of the `1/τ` form.
const ORIGIN_TAU: f64 = 1e-18;

/// One grid point's eq. 6 weights (kernel × window), one value per tap
/// and stream.
#[derive(Clone, Debug, Default)]
struct WeightRow {
    even: Vec<f64>,
    odd: Vec<f64>,
}

/// Reusable buffers for planned reconstruction: the output values, the
/// per-sample factored phasor tables and the weight rows in flight, so
/// repeated calls (one per BIST verdict) allocate nothing in steady
/// state.
#[derive(Clone, Debug, Default)]
pub struct GridScratch {
    out: Vec<f64>,
    /// Even-stream per-sample constants in plane-major layout: six
    /// `span`-long planes `[A₀ | B₀ | A₁ | B₁ | A₂ | B₂]` — one
    /// `(αⱼ, βⱼ)`-folded pair per cosine family, unit-stride in the
    /// sample index so the row builder reads each plane contiguously.
    even_tab: Vec<f64>,
    /// Odd-stream per-sample constants, same layout.
    odd_tab: Vec<f64>,
    cos_buf: Vec<f64>,
    sin_buf: Vec<f64>,
    /// The row of the point (or lattice residue) in flight.
    row: WeightRow,
    /// The phase-major tie residue's second row, for points whose tap
    /// window rounds one sample off the lattice prediction.
    alt: WeightRow,
}

impl GridScratch {
    /// An empty scratch buffer.
    // analysis: allow(typed-error-parity) — infallible `Default` constructor (panic capability is a same-file name match against `PnbsGridPlan::new`)
    pub fn new() -> Self {
        Self::default()
    }

    /// The values written by the most recent call (for a block feed,
    /// the chunk it currently holds).
    pub fn values(&self) -> &[f64] {
        &self.out
    }

    /// Consumes the scratch, yielding the most recent call's values
    /// without a copy.
    pub fn into_values(self) -> Vec<f64> {
        self.out
    }
}

/// The cubic window table of a [`PnbsGridPlan`] transposed by node
/// residue: `data[r · cols + n] = vals[r + n · stride]` (zero-padded
/// past the table end), for residues `r ∈ [0, stride + 3)` and node
/// ranks `n ∈ [0, cols)`. A window row anchored at table position
/// `i₀ = q·stride + r` then reads taps `k` as
/// `data[(r + o) · cols + q + k]` for the four stencil offsets
/// `o ∈ {0,1,2,3}` — four contiguous streams instead of a
/// `stride`-strided gather, which is what lets the row fill vectorize
/// alongside the tap kernel.
#[derive(Clone, Debug)]
struct WinRows {
    /// Table nodes per tap step (the original stencil stride).
    stride: usize,
    /// Row length: one more than the table's node count per support
    /// (`2(h+1) + 1`), covering every node rank a tap can anchor at.
    cols: usize,
    /// `(stride + 3) × cols` row-major residue planes.
    data: Vec<f64>,
}

/// A plan's tapering window in the two forms the row builder reads:
/// the node-aligned table (for its scale, or the direct fallback) and,
/// for cubic tables, its residue transpose.
#[derive(Debug)]
struct GridWindow {
    table: WindowTable,
    rows: Option<WinRows>,
}

thread_local! {
    /// Most-recently-used [`GridWindow`], keyed by (window, node
    /// alignment). A verdict builds plans for several delay estimates
    /// and a cost's probe sums with the same window and taps; sharing
    /// the transposed table makes every build after the first a
    /// reference-count bump.
    static GRID_WINDOW_CACHE: RefCell<Option<(Window, usize, Arc<GridWindow>)>> =
        const { RefCell::new(None) };
}

impl GridWindow {
    /// The shared window for `window` aligned on `alignment` nodes per
    /// unit interval (the tap stride's reciprocal, `2(h+1)`).
    fn shared(window: Window, alignment: usize) -> Arc<Self> {
        GRID_WINDOW_CACHE.with(|cell| {
            let mut slot = cell.borrow_mut();
            if let Some((w, a, shared)) = slot.as_ref() {
                if *w == window && *a == alignment {
                    return Arc::clone(shared);
                }
            }
            let table = window.tabulated_aligned(alignment);
            let rows = table.cubic_parts().map(|(scale, vals)| {
                let stride = (scale as usize) / alignment;
                let cols = alignment + 1;
                let mut data = vec![0.0; (stride + 3) * cols];
                for (r, row) in data.chunks_exact_mut(cols).enumerate() {
                    for (n, slot) in row.iter_mut().enumerate() {
                        if let Some(&v) = vals.get(r + n * stride) {
                            *slot = v;
                        }
                    }
                }
                WinRows { stride, cols, data }
            });
            let shared = Arc::new(GridWindow { table, rows });
            *slot = Some((window, alignment, Arc::clone(&shared)));
            shared
        })
    }

    /// The row fill this window supports: the planar residue transpose
    /// for cubic tables, direct sampling otherwise.
    fn fill(&self) -> WindowFill<'_> {
        match (&self.rows, self.table.cubic_parts()) {
            (Some(rows), Some((scale, _))) => WindowFill::Planar { rows, scale },
            _ => WindowFill::Direct(&self.table),
        }
    }
}

/// A grid step of exactly `p/q` sample periods, in lowest terms; a
/// grid on no short lattice is the one-period lattice `q = n`, `p = 0`
/// (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Lattice {
    p: i64,
    q: usize,
}

impl Lattice {
    /// The short rational lattice an `n`-point grid of spacing `step`
    /// sits on against sample period `period`, if any (see the module
    /// docs); `omega_max` is the kernel's fastest angular frequency.
    fn detect(step: f64, period: f64, n: usize, omega_max: f64) -> Option<Self> {
        let x = step / period;
        // Coarser-than-a-million-samples steps are not analysis grids;
        // the cap also keeps the convergents inside i64.
        if !(x > 0.0 && x < 1e6) {
            return None;
        }
        // Continued-fraction convergents h/k of x.
        let (mut h_prev, mut h) = (0i64, 1i64);
        let (mut k_prev, mut k) = (1i64, 0i64);
        let mut r = x;
        loop {
            let whole = r.floor();
            // past the first term, a partial quotient this large already
            // overflows the phase budget (and could overflow i64)
            if k > 0 && whole > MAX_LATTICE_PHASES as f64 {
                return None;
            }
            let a = whole as i64;
            let k_next = a * k + k_prev;
            if k_next > MAX_LATTICE_PHASES {
                return None;
            }
            (h_prev, h) = (h, a * h + h_prev);
            (k_prev, k) = (k, k_next);
            if (x - h as f64 / k as f64).abs() <= LATTICE_REL_TOLERANCE * x {
                break;
            }
            let frac = r - whole;
            if frac <= 0.0 {
                return None;
            }
            r = 1.0 / frac;
        }
        let q = k as usize;
        let drift = n as f64 * (step - h as f64 * period / k as f64).abs();
        (h > 0 && n >= MIN_POINTS_PER_PHASE * q && drift * omega_max <= LATTICE_PHASE_TOLERANCE)
            .then_some(Lattice { p: h, q })
    }
}

/// The order in which a producer visits its points.
#[derive(Clone, Copy, Debug)]
enum Order<'t> {
    /// Phase-major reconstruction of a uniform grid.
    PhaseMajor(Lattice),
    /// Arbitrary instants, each seeding its time phasors exactly.
    Instants(&'t [f64]),
}

/// One call's producer state besides the scratch: the geometry, the
/// factored tables' extent and the order it takes.
#[derive(Clone, Copy, Debug)]
struct GridFeed<'t> {
    /// Grid start and step (unused by [`Order::Instants`]).
    t0: f64,
    step: f64,
    n: usize,
    /// First capture sample index the factored tables cover.
    tab_first: i64,
    /// Phase origin of the tables and time phasors.
    n_ref: i64,
    order: Order<'t>,
    /// The kernel arm the producer runs.
    arm: Arm,
}

/// The producer kernel ([`PnbsGridPlan::producer`]): points `i0 .. i1`
/// of `feed` appended to `scratch.out`.
struct Produce<'a> {
    plan: &'a PnbsGridPlan,
    capture: &'a NonuniformCapture,
    feed: &'a GridFeed<'a>,
    i0: usize,
    i1: usize,
    scratch: &'a mut GridScratch,
}

impl Kernel for Produce<'_> {
    type Output = ();

    #[inline(always)]
    fn run<L: F64x8>(self, lanes: L) {
        self.plan.produce_body(
            self.capture,
            self.feed,
            self.i0,
            self.i1,
            lanes,
            self.scratch,
        )
    }
}

/// How the row builder fills a stream's window row.
#[derive(Clone, Copy)]
enum WindowFill<'a> {
    /// Node-aligned cubic table read through its residue transpose.
    Planar { rows: &'a WinRows, scale: f64 },
    /// Per-tap sampling, for shapes the cubic table cannot represent.
    Direct(&'a WindowTable),
}

impl WindowFill<'_> {
    /// Fills `out` with the window at `x_start + k·inv_2hw`.
    #[inline(always)]
    fn fill<L: F64x8>(self, x_start: f64, inv_2hw: f64, out: &mut [f64]) {
        match self {
            WindowFill::Planar { rows, scale } => {
                fill_window_row_planar::<L>(rows, scale, inv_2hw, x_start, out)
            }
            WindowFill::Direct(table) => {
                for (k, w) in out.iter_mut().enumerate() {
                    *w = table.at(x_start + k as f64 * inv_2hw);
                }
            }
        }
    }
}

/// Per-call constants of the row builder.
struct RowCtx<'a> {
    period: f64,
    inv_2hw: f64,
    /// Odd-stream window offset `(D̂/T)/(2(h+1))`.
    d_shift: f64,
    tau_guard: f64,
    tab_first: i64,
    span: usize,
    even_tab: &'a [f64],
    odd_tab: &'a [f64],
    fill: WindowFill<'a>,
}

/// The three time phasors `e^{jωⱼ(t − n_ref·T)}` of the grid point in
/// flight, advanced point to point by the grid-step rotation.
struct TimeRotor {
    c: [f64; 3],
    s: [f64; 3],
    step_c: [f64; 3],
    step_s: [f64; 3],
}

impl TimeRotor {
    fn new(w: &[f64; 3], step: f64) -> Self {
        let mut rot = TimeRotor {
            c: [1.0; 3],
            s: [0.0; 3],
            step_c: [1.0; 3],
            step_s: [0.0; 3],
        };
        for ((c, s), &wj) in rot.step_c.iter_mut().zip(&mut rot.step_s).zip(w) {
            (*s, *c) = sincos(wj * step);
        }
        rot
    }

    /// Exact re-seed at `dt = t − n_ref·T` when absolute grid index `i`
    /// is on the re-seed schedule (bounds rotor drift on long grids).
    #[inline(always)]
    fn seed_if_due(&mut self, i: usize, w: &[f64; 3], dt: f64) {
        if i.is_multiple_of(TIME_RESEED_INTERVAL) {
            let [c0, s0, c1, s1, c2, s2] = time_phasors(w, dt);
            (self.c, self.s) = ([c0, c1, c2], [s0, s1, s2]);
        }
    }

    /// `[c₀, s₀, c₁, s₁, c₂, s₂]`, matching the table plane order.
    #[inline(always)]
    fn phasors(&self) -> [f64; 6] {
        let [c0, c1, c2] = self.c;
        let [s0, s1, s2] = self.s;
        [c0, s0, c1, s1, c2, s2]
    }

    #[inline(always)]
    fn advance(&mut self) {
        let steps = self.step_c.iter().zip(&self.step_s);
        for ((c, s), (&dc, &ds)) in self.c.iter_mut().zip(&mut self.s).zip(steps) {
            (*c, *s) = (*c * dc - *s * ds, *c * ds + *s * dc);
        }
    }
}

/// A precomputed reconstruction plan for one band / delay estimate /
/// tap count / window configuration (paper eq. 6; see the module
/// docs).
///
/// # Example
///
/// ```
/// use rfbist_dsp::window::Window;
/// use rfbist_sampling::band::BandSpec;
/// use rfbist_sampling::gridplan::{GridScratch, PnbsGridPlan};
/// use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
/// use rfbist_signal::tone::Tone;
///
/// let band = BandSpec::centered(1e9, 90e6);
/// let d = 180e-12;
/// let tone = Tone::unit(0.98e9);
/// let cap = NonuniformCapture::from_signal(&tone, 1.0 / 90e6, d, -40, 300);
/// let plan = PnbsGridPlan::new(band, d, 61, Window::Kaiser(8.0));
/// let mut scratch = GridScratch::new();
/// let wave = plan
///     .try_reconstruct_grid(&cap, 1.0e-6, 2.5e-10, 64, &mut scratch)
///     .expect("grid inside the capture's coverage");
/// // identical (to ≪ 1e-9) to the direct eq. 6 evaluation
/// let rec = PnbsReconstructor::paper_default(band, d).unwrap();
/// let t = 1.0e-6 + 5.0 * 2.5e-10;
/// let direct = rec.try_reconstruct_at_reference(&cap, t).unwrap();
/// assert!((wave[5] - direct).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct PnbsGridPlan {
    /// Angular frequencies of the three cosine families (rad/s):
    /// `ω₀ = 2πf_l`, `ω₁ = 2π(kB − f_l)`, `ω₂ = 2π(f_l + B)`.
    w: [f64; 3],
    /// Cosine weights of the factored kernel numerator
    /// `Σⱼ αⱼ·cos(ωⱼτ) + βⱼ·sin(ωⱼτ)`.
    alpha: [f64; 3],
    /// Sine weights of the factored kernel numerator.
    beta: [f64; 3],
    /// `1/(2πB)` — the kernel's shared denominator scale.
    inv_two_pi_b: f64,
    /// Kernel limit `s(0) = s₀(0) + s₁(0)`.
    origin: f64,
    /// The delay estimate `D̂` in seconds.
    delay: f64,
    half_taps: usize,
    window: Arc<GridWindow>,
}

impl PnbsGridPlan {
    /// Builds a plan for `band` at delay estimate `delay` with
    /// `num_taps` kernel taps per stream tapered by `window`.
    ///
    /// Delay constraints (eq. 3) are *not* checked here, so cost
    /// functions can probe arbitrary candidates; validated entry points
    /// check before planning.
    ///
    /// # Panics
    ///
    /// Panics if `num_taps` is even or zero.
    // analysis: allow(typed-error-parity) — the tap count is a build-time constant at every call site (61, or a reconstructor that already asserted it odd), so an even count is a caller bug rather than a runtime fault
    pub fn new(band: BandSpec, delay: f64, num_taps: usize, window: Window) -> Self {
        assert!(num_taps % 2 == 1, "tap count must be odd (nw + 1)");
        let (alpha, beta) = kernel_weights(band, delay);
        let half_taps = num_taps / 2;
        PnbsGridPlan {
            w: kernel_frequencies(band),
            alpha,
            beta,
            inv_two_pi_b: 1.0 / (2.0 * PI * band.bandwidth()),
            origin: kernel_origin(band),
            delay,
            half_taps,
            // Node-align the table on the tap stride 1/(2(h+1)) so a
            // whole window row shares one interpolation-weight set.
            window: GridWindow::shared(window, 2 * (half_taps + 1)),
        }
    }

    /// The delay estimate `D̂` in seconds.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// Taps per stream (`nw + 1`).
    pub fn num_taps(&self) -> usize {
        2 * self.half_taps + 1
    }

    /// The time interval over which `capture` fully covers the filter
    /// support ([`NonuniformCapture::coverage`] at this tap count);
    /// `None` when the capture is too short for even one evaluation.
    pub fn coverage(&self, capture: &NonuniformCapture) -> Option<(f64, f64)> {
        capture.coverage(self.num_taps())
    }

    /// Whether `capture` holds the whole tap window `round(t/T) ± h` of
    /// instant `t` — the coverage predicate of every reconstruction.
    pub fn covers(&self, capture: &NonuniformCapture, t: f64) -> bool {
        covers_tap_window(capture, t, self.half_taps)
    }

    /// Exact kernel evaluation for taps inside the near-origin guard
    /// ring: the factored-table path's `1/τ` pole would amplify the
    /// tables' bounded phase error there, so these few taps pay three
    /// direct `sincos` instead.
    fn kernel_near_origin(&self, tau: f64) -> f64 {
        if tau.abs() < ORIGIN_TAU {
            return self.origin;
        }
        let mut num = 0.0;
        for ((&w, &a), &b) in self.w.iter().zip(&self.alpha).zip(&self.beta) {
            let (s, c) = sincos(w * tau);
            num += a * c + b * s;
        }
        num * self.inv_two_pi_b / tau
    }

    /// Fills the per-sample factored phasor tables (six plane-major
    /// planes per stream, see [`GridScratch`]) for samples
    /// `first_n ..= first_n + span − 1`, phased relative to `n_ref` so
    /// the table and time-phasor arguments stay as small as the grid
    /// geometry allows.
    fn fill_sample_tables(
        &self,
        period: f64,
        first_n: i64,
        span: usize,
        n_ref: i64,
        scratch: &mut GridScratch,
    ) {
        scratch.cos_buf.resize(span, 0.0);
        scratch.sin_buf.resize(span, 0.0);
        scratch.even_tab.resize(span * 6, 0.0);
        scratch.odd_tab.resize(span * 6, 0.0);
        let base_offset = (first_n - n_ref) as f64 * period;
        for j in 0..3 {
            let w = self.w[j];
            let (aj, bj) = (self.alpha[j], self.beta[j]);
            let step_phase = w * period;
            // Even stream: phasors of ωⱼ·(n − n_ref)·T.
            fill_phasor_table(
                w * base_offset,
                step_phase,
                &mut scratch.cos_buf,
                &mut scratch.sin_buf,
            );
            {
                let (a_plane, b_plane) =
                    scratch.even_tab[2 * j * span..(2 * j + 2) * span].split_at_mut(span);
                for (((a, b), &cn), &sn) in a_plane
                    .iter_mut()
                    .zip(b_plane.iter_mut())
                    .zip(scratch.cos_buf.iter())
                    .zip(scratch.sin_buf.iter())
                {
                    *a = aj * cn - bj * sn;
                    *b = aj * sn + bj * cn;
                }
            }
            // Odd stream: phasors of ωⱼ·((n − n_ref)·T + D̂).
            fill_phasor_table(
                w * (base_offset + self.delay),
                step_phase,
                &mut scratch.cos_buf,
                &mut scratch.sin_buf,
            );
            {
                let (a_plane, b_plane) =
                    scratch.odd_tab[2 * j * span..(2 * j + 2) * span].split_at_mut(span);
                for (((a, b), &cn), &sn) in a_plane
                    .iter_mut()
                    .zip(b_plane.iter_mut())
                    .zip(scratch.cos_buf.iter())
                    .zip(scratch.sin_buf.iter())
                {
                    *a = aj * cn + bj * sn;
                    *b = aj * sn - bj * cn;
                }
            }
        }
    }

    /// Reconstructs the `n` uniform grid instants `t0, t0 + step, …`
    /// into `scratch`, returning `None` when the grid is not fully
    /// inside the capture's coverage.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive.
    pub fn try_reconstruct_grid<'s>(
        &self,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        scratch: &'s mut GridScratch,
    ) -> Option<&'s [f64]> {
        self.try_reconstruct_grid_on(Arm::detect(), capture, t0, step, n, scratch)
    }

    /// [`try_reconstruct_grid`](Self::try_reconstruct_grid) on kernel
    /// arm `arm` where this CPU supports it (the portable kernel
    /// otherwise), whatever the dispatch would pick. A test and
    /// benchmark hook: the equivalence suites pin the dispatched
    /// producer against [`Arm::Portable`] inside one process (the
    /// latched `RFBIST_FORCE_SCALAR` flag cannot flip between runs),
    /// and the lane-model tests check every arm the host supports, so
    /// an AVX-512 host also checks the AVX2 arm.
    #[doc(hidden)]
    pub fn try_reconstruct_grid_on<'s>(
        &self,
        arm: Arm,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        scratch: &'s mut GridScratch,
    ) -> Option<&'s [f64]> {
        let feed = self.prepare(capture, t0, step, n, arm, scratch)?;
        Some(self.drain(capture, &feed, scratch))
    }

    /// Runs the producer over every point of `feed` as one chunk (the
    /// output holds them all anyway) into `scratch`, and returns the
    /// filled slice.
    fn drain<'s>(
        &self,
        capture: &NonuniformCapture,
        feed: &GridFeed<'_>,
        scratch: &'s mut GridScratch,
    ) -> &'s [f64] {
        scratch.out.clear();
        feed.arm
            .run(self.producer(capture, feed, 0, feed.n, scratch));
        &scratch.out
    }

    /// [`try_reconstruct_grid`](Self::try_reconstruct_grid) with the
    /// dot products on the caller's lanes `L` and every multiply-add of
    /// the row builder fused as `L`'s are, outside any
    /// `#[target_feature]` recompilation. A test hook: run on a scalar
    /// model of the lane order, it reproduces an arm's grid bit for bit
    /// (`f64::mul_add` rounds the same in hardware and in libm).
    #[doc(hidden)]
    pub fn try_reconstruct_grid_lanes<'s, L: F64x8>(
        &self,
        lanes: L,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        scratch: &'s mut GridScratch,
    ) -> Option<&'s [f64]> {
        let feed = self.prepare(capture, t0, step, n, Arm::Portable, scratch)?;
        scratch.out.clear();
        self.producer(capture, &feed, 0, n, scratch).run(lanes);
        Some(&scratch.out)
    }

    /// Reconstructs every instant of `times`, in any order, into
    /// `scratch`, returning `None` when one of them falls outside the
    /// capture's coverage. Each instant seeds its time phasors exactly
    /// and the tables are phased from the capture's fixed origin, so a
    /// value does not depend on the other instants of the call.
    pub fn try_reconstruct_instants<'s>(
        &self,
        capture: &NonuniformCapture,
        times: &[f64],
        scratch: &'s mut GridScratch,
    ) -> Option<&'s [f64]> {
        if !times.iter().all(|&t| self.covers(capture, t)) {
            return None;
        }
        let n_ref = capture.n_start() + self.half_taps as i64;
        self.fill_sample_tables(
            capture.period(),
            capture.n_start(),
            capture.len(),
            n_ref,
            scratch,
        );
        let feed = GridFeed {
            t0: 0.0,
            step: 0.0,
            n: times.len(),
            tab_first: capture.n_start(),
            n_ref,
            order: Order::Instants(times),
            arm: Arm::detect(),
        };
        Some(self.drain(capture, &feed, scratch))
    }

    /// The tap-window center of the `n`-point grid's first point, or
    /// `None` when the grid leaves the capture's coverage. `n` must be
    /// positive.
    fn grid_start_center(
        &self,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
    ) -> Option<i64> {
        let period = capture.period();
        let h = self.half_taps as i64;
        // The grid is monotone, so endpoint tap windows bound every
        // point's window.
        let nc_first = (t0 / period).round() as i64;
        let nc_last = ((t0 + (n - 1) as f64 * step) / period).round() as i64;
        if nc_first - h < capture.n_start()
            || nc_last + h >= capture.n_start() + capture.len() as i64
        {
            return None;
        }
        Some(nc_first)
    }

    /// Finds the grid's lattice from its geometry, checks coverage and
    /// fills the factored tables the producer reads.
    fn prepare(
        &self,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        arm: Arm,
        scratch: &mut GridScratch,
    ) -> Option<GridFeed<'static>> {
        assert!(step > 0.0, "grid step must be positive");
        let omega_max = self.w.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        let lattice =
            Lattice::detect(step, capture.period(), n, omega_max).unwrap_or(Lattice { p: 0, q: n });
        self.prepare_feed(capture, t0, step, n, lattice, arm, scratch)
    }

    /// [`prepare`](Self::prepare) on a given lattice: the tables cover
    /// the tap windows of the first `q` points, with one sample of
    /// margin each side for the tie residue's shifted window when the
    /// lattice is shorter than the grid.
    #[allow(clippy::too_many_arguments)]
    fn prepare_feed(
        &self,
        capture: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        lattice: Lattice,
        arm: Arm,
        scratch: &mut GridScratch,
    ) -> Option<GridFeed<'static>> {
        let mut feed = GridFeed {
            t0,
            step,
            n,
            tab_first: 0,
            n_ref: 0,
            order: Order::PhaseMajor(lattice),
            arm,
        };
        if n == 0 {
            return Some(feed);
        }
        let nc_first = self.grid_start_center(capture, t0, step, n)?;
        let period = capture.period();
        let h = self.half_taps as i64;
        let nc_last_row = ((t0 + (lattice.q - 1) as f64 * step) / period).round() as i64;
        let margin = i64::from(lattice.q < n);
        let (lo, hi) = (nc_first - h - margin, nc_last_row + h + margin);
        feed.tab_first = lo;
        feed.n_ref = nc_first;
        self.fill_sample_tables(period, lo, (hi - lo + 1) as usize, nc_first, scratch);
        Some(feed)
    }

    /// The producer kernel appending points `i0 .. i1` of `feed` to
    /// `scratch.out`, run on the feed's arm: the single producer behind
    /// the batch grid, both block feeds and arbitrary instants. On a
    /// grid, `i0` must be a multiple of [`GRID_BLOCK_LEN`] (a re-seed
    /// boundary).
    fn producer<'a>(
        &'a self,
        capture: &'a NonuniformCapture,
        feed: &'a GridFeed<'a>,
        i0: usize,
        i1: usize,
        scratch: &'a mut GridScratch,
    ) -> Produce<'a> {
        Produce {
            plan: self,
            capture,
            feed,
            i0,
            i1,
            scratch,
        }
    }

    /// The producer kernel: a phase-major chunk or a run of arbitrary
    /// instants, with the dot products on `lanes` and every multiply-add
    /// of the row builder fused as `L`'s are.
    #[inline(always)]
    fn produce_body<L: F64x8>(
        &self,
        capture: &NonuniformCapture,
        feed: &GridFeed<'_>,
        i0: usize,
        i1: usize,
        lanes: L,
        scratch: &mut GridScratch,
    ) {
        let GridScratch {
            out,
            even_tab,
            odd_tab,
            row,
            alt,
            ..
        } = scratch;
        let num_taps = self.num_taps();
        for buf in [&mut row.even, &mut row.odd, &mut alt.even, &mut alt.odd] {
            buf.resize(num_taps, 0.0);
        }
        let period = capture.period();
        let inv_2hw = 1.0 / (2.0 * (self.half_taps as f64 + 1.0));
        let fill = self.window.fill();
        let ctx = RowCtx {
            period,
            inv_2hw,
            d_shift: self.delay / period * inv_2hw,
            tau_guard: NEAR_ORIGIN_FRACTION * period,
            tab_first: feed.tab_first,
            span: even_tab.len() / 6,
            even_tab,
            odd_tab,
            fill,
        };
        match feed.order {
            Order::PhaseMajor(lat) => {
                self.phase_major_body(capture, feed, lat, &ctx, i0, i1, lanes, row, alt, out)
            }
            Order::Instants(times) => {
                self.instants_body(capture, feed, &ctx, &times[i0..i1], lanes, row, out)
            }
        }
    }

    /// Arbitrary instants: seeds each instant's time phasors exactly,
    /// builds its row and appends its dot product with the capture.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn instants_body<L: F64x8>(
        &self,
        capture: &NonuniformCapture,
        feed: &GridFeed<'_>,
        ctx: &RowCtx<'_>,
        times: &[f64],
        lanes: L,
        row: &mut WeightRow,
        out: &mut Vec<f64>,
    ) {
        let h = self.half_taps as i64;
        let t_ref = feed.n_ref as f64 * ctx.period;
        out.reserve(times.len());
        for &t in times {
            let t_idx = t / ctx.period;
            let first = t_idx.round() as i64 - h;
            let ph = time_phasors(&self.w, t - t_ref);
            self.point_row::<L>(ctx, &ph, t, t_idx, first, row);
            out.push(dot_row(lanes, capture, first, row));
        }
    }

    /// One phase-major chunk: steps the rotor through the first `q`
    /// grid points, building residue `r`'s row at point `r`, and
    /// applies it to every point `r + m·q` of the chunk with the tap
    /// window shifted by `m·p` samples. A point whose own `round(t/T)`
    /// departs from that prediction (the half-sample tie residue) takes
    /// the second row, built for its shifted window. When no residue
    /// repeats inside the chunk (`q ≥ i1`, the one-period lattice) only
    /// the chunk's own residues `i0 .. i1` are visited, the rotor
    /// starting on the re-seed at `i0`. Appends points `i0 .. i1`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn phase_major_body<L: F64x8>(
        &self,
        capture: &NonuniformCapture,
        feed: &GridFeed<'_>,
        lat: Lattice,
        ctx: &RowCtx<'_>,
        i0: usize,
        i1: usize,
        lanes: L,
        row: &mut WeightRow,
        alt: &mut WeightRow,
        out: &mut Vec<f64>,
    ) {
        let h = self.half_taps as i64;
        let t_ref = feed.n_ref as f64 * ctx.period;
        let base = out.len();
        out.resize(base + (i1 - i0), 0.0);
        let chunk = &mut out[base..];
        let mut rot = TimeRotor::new(&self.w, feed.step);
        let residues = if lat.q >= i1 {
            debug_assert!(
                i0.is_multiple_of(TIME_RESEED_INTERVAL),
                "chunks start on a re-seed boundary"
            );
            i0..i1
        } else {
            0..lat.q
        };
        for r in residues {
            let t_r = feed.t0 + r as f64 * feed.step;
            rot.seed_if_due(r, &self.w, t_r - t_ref);
            // first point of residue r inside the chunk
            let m0 = i0.saturating_sub(r).div_ceil(lat.q);
            if r + m0 * lat.q < i1 {
                let t_idx = t_r / ctx.period;
                let first = t_idx.round() as i64 - h;
                let ph = rot.phasors();
                self.point_row::<L>(ctx, &ph, t_r, t_idx, first, row);
                // window offset of the second row currently built
                let mut alt_shift = 0i64;
                let points = chunk.iter_mut().skip(r + m0 * lat.q - i0).step_by(lat.q);
                for (m, slot) in (m0..).zip(points) {
                    let t = feed.t0 + (r + m * lat.q) as f64 * feed.step;
                    let lattice_first = first + m as i64 * lat.p;
                    let shift = ((t / ctx.period).round() as i64 - h) - lattice_first;
                    *slot = if shift == 0 {
                        dot_row(lanes, capture, lattice_first, row)
                    } else {
                        debug_assert!(shift.abs() == 1, "lattice drift is sub-sample");
                        if shift != alt_shift {
                            self.point_row::<L>(ctx, &ph, t_r, t_idx, first + shift, alt);
                            alt_shift = shift;
                        }
                        dot_row(lanes, capture, lattice_first + shift, alt)
                    };
                }
            }
            rot.advance();
        }
    }

    /// The row builder: the eq. 6 weights (kernel × window) of the
    /// instant `t` (`t_idx = t/T`) for the tap window starting at
    /// sample `first`, given its time phasors `ph`. The per-tap pass is
    /// branch-free — every tap goes through the factored tables, and
    /// the at most one tap per stream inside the near-origin guard ring
    /// (where the `1/τ` pole lives, including τ = ±0) is rewritten with
    /// its exact value afterwards.
    #[inline(always)]
    fn point_row<L: F64x8>(
        &self,
        ctx: &RowCtx<'_>,
        ph: &[f64; 6],
        t: f64,
        t_idx: f64,
        first: i64,
        row: &mut WeightRow,
    ) {
        let num_taps = self.num_taps();
        let period = ctx.period;
        let te0 = t - first as f64 * period;
        let to0 = first as f64 * period + self.delay - t;
        let x0 = 0.5 + (first as f64 - t_idx) * ctx.inv_2hw;
        let even = &mut row.even[..num_taps];
        let odd = &mut row.odd[..num_taps];
        ctx.fill.fill::<L>(x0, ctx.inv_2hw, even);
        ctx.fill.fill::<L>(x0 + ctx.d_shift, ctx.inv_2hw, odd);
        // Exact near-origin weights, taken while the rows still hold
        // the bare window values.
        let exact = |tau0: f64, sign: f64, win: &[f64]| {
            let kg = (sign * tau0 / period).round();
            let tau = tau0 - sign * kg * period;
            if kg < 0.0 || tau.abs() >= ctx.tau_guard {
                return None;
            }
            let k = kg as usize;
            win.get(k).map(|&w| (k, w * self.kernel_near_origin(tau)))
        };
        let patch_e = exact(te0, 1.0, even);
        let patch_o = exact(to0, -1.0, odd);
        let base = (first - ctx.tab_first) as usize;
        let ea = plane_views(ctx.even_tab, ctx.span, base, num_taps);
        let oa = plane_views(ctx.odd_tab, ctx.span, base, num_taps);
        let inv_two_pi_b = self.inv_two_pi_b;
        for k in 0..num_taps {
            let fk = k as f64;
            let tau_e = te0 - fk * period;
            even[k] *= numerator::<L>(ph, &ea, k) * inv_two_pi_b / tau_e;
            let tau_o = to0 + fk * period;
            odd[k] *= numerator::<L>(ph, &oa, k) * inv_two_pi_b / tau_o;
        }
        for (stream, patch) in [(even, patch_e), (odd, patch_o)] {
            if let Some((k, v)) = patch {
                if let Some(slot) = stream.get_mut(k) {
                    *slot = v;
                }
            }
        }
    }

    /// Streams the `n` uniform grid instants `t0, t0 + step, …` as
    /// [`GRID_BLOCK_LEN`]-point blocks, one per
    /// [`GridBlocks::next_block`] call, with no allocation per block in
    /// steady state. The producer fills `scratch` one chunk of up to
    /// [`FEED_CHUNK_LEN`] points ahead, so the full grid never
    /// materializes. A consumer that may stop early takes the
    /// early-stop feed
    /// ([`try_reconstruct_stoppable_blocks`](Self::try_reconstruct_stoppable_blocks))
    /// instead.
    /// Returns `None` when the grid is not fully inside the capture's
    /// coverage.
    ///
    /// The feed runs the same producer as
    /// [`try_reconstruct_grid`](Self::try_reconstruct_grid), and no value
    /// depends on where a chunk ends, so the concatenated blocks are
    /// **bit-identical** to the batch grid (pinned by the gridplan
    /// tests, `tests/grid_plan_equivalence.rs` and
    /// `tests/stream_scan_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive.
    pub fn try_reconstruct_blocks<'a>(
        &'a self,
        capture: &'a NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        scratch: &'a mut GridScratch,
    ) -> Option<GridBlocks<'a>> {
        self.try_feed(capture, t0, step, n, FEED_CHUNK_LEN, scratch)
    }

    /// [`try_reconstruct_blocks`](Self::try_reconstruct_blocks),
    /// panicking when the grid leaves the capture's coverage, kept while
    /// the benchmark's replica of the engine calls it.
    pub fn reconstruct_blocks<'a>(
        &'a self,
        capture: &'a NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        scratch: &'a mut GridScratch,
    ) -> GridBlocks<'a> {
        let coverage = self.coverage(capture);
        self.try_reconstruct_blocks(capture, t0, step, n, scratch)
            .unwrap_or_else(|| {
                panic!(
                    "grid [{t0:.3e}, {:.3e}] s outside capture coverage {coverage:?}",
                    t0 + n.saturating_sub(1) as f64 * step,
                )
            })
    }

    /// The early-stop feed:
    /// [`try_reconstruct_blocks`](Self::try_reconstruct_blocks) in
    /// chunks of [`SUPER_BLOCK_LEN`] points, for a consumer that may
    /// stop early. A stop skips every chunk after the one it stopped
    /// in, and every row build of those chunks. The blocks are
    /// bit-identical to the default feed's.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive.
    pub fn try_reconstruct_stoppable_blocks<'a>(
        &'a self,
        capture: &'a NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        scratch: &'a mut GridScratch,
    ) -> Option<GridBlocks<'a>> {
        self.try_feed(capture, t0, step, n, SUPER_BLOCK_LEN, scratch)
    }

    /// A block feed producing `chunk_len` points per producer call
    /// (a multiple of [`GRID_BLOCK_LEN`]).
    fn try_feed<'a>(
        &'a self,
        capture: &'a NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
        chunk_len: usize,
        scratch: &'a mut GridScratch,
    ) -> Option<GridBlocks<'a>> {
        debug_assert!(chunk_len.is_multiple_of(GRID_BLOCK_LEN));
        let feed = self.prepare(capture, t0, step, n, Arm::detect(), scratch)?;
        scratch.out.clear();
        Some(GridBlocks {
            plan: self,
            capture,
            scratch,
            feed,
            chunk_len,
            held: 0,
            produced: 0,
        })
    }
}

/// A lending iterator over the grid's [`GRID_BLOCK_LEN`]-point blocks,
/// produced by [`PnbsGridPlan::try_reconstruct_blocks`] or the
/// early-stop feed. Each
/// [`next_block`](Self::next_block) yields the next block from the
/// chunk held in the borrowed scratch, producing the next chunk when
/// the held one is exhausted; the final block may be shorter.
///
/// This is the producer side of the streaming BIST pipeline: feed each
/// block straight into a consumer (the engine pushes them into
/// `rfbist_core`'s streaming mask scan) and the full analysis grid
/// never materializes. A consumer that stops early skips every chunk
/// after the one it stopped in.
#[derive(Debug)]
pub struct GridBlocks<'a> {
    plan: &'a PnbsGridPlan,
    capture: &'a NonuniformCapture,
    scratch: &'a mut GridScratch,
    feed: GridFeed<'a>,
    /// Points per producer call.
    chunk_len: usize,
    /// Grid index of the first point of the chunk held in the scratch.
    held: usize,
    produced: usize,
}

impl GridBlocks<'_> {
    /// Yields the next block, or `None` when the grid is exhausted.
    /// The yielded slice lives in the scratch buffer and is
    /// overwritten by a later call.
    // analysis: allow(typed-error-parity) — the feed's coverage was checked when it was built; the panic capability is a same-file name match of `TimeRotor::new` against `PnbsGridPlan::new`
    pub fn next_block(&mut self) -> Option<&[f64]> {
        let n = self.feed.n;
        if self.produced == n {
            return None;
        }
        if self.produced == self.held + self.scratch.out.len() {
            let end = (self.produced + self.chunk_len).min(n);
            self.scratch.out.clear();
            let (plan, feed) = (self.plan, &self.feed);
            feed.arm
                .run(plan.producer(self.capture, feed, self.produced, end, self.scratch));
            self.held = self.produced;
        }
        let lo = self.produced - self.held;
        let len = (n - self.produced).min(GRID_BLOCK_LEN);
        self.produced += len;
        self.scratch.out.get(lo..lo + len)
    }

    /// Grid points yielded so far.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// Total grid points this feed will yield.
    pub fn grid_len(&self) -> usize {
        self.feed.n
    }
}

/// Whether `capture` holds the whole tap window `round(t/T) ± h` of
/// instant `t`.
fn covers_tap_window(capture: &NonuniformCapture, t: f64, half_taps: usize) -> bool {
    let h = half_taps as i64;
    let nc = (t / capture.period()).round() as i64;
    nc - h >= capture.n_start() && nc + h < capture.n_start() + capture.len() as i64
}

/// The exact time phasors `e^{jωⱼ·dt}` as `[c₀, s₀, c₁, s₁, c₂, s₂]`,
/// matching the table plane order.
#[inline(always)]
fn time_phasors(w: &[f64; 3], dt: f64) -> [f64; 6] {
    let mut ph = [0.0; 6];
    for (pair, &wj) in ph.chunks_exact_mut(2).zip(w) {
        (pair[1], pair[0]) = sincos(wj * dt);
    }
    ph
}

/// `(cos φ / sin φ, sin φ / sin φ)`: the cosine and sine weights of one
/// eq. 2 term with phase offset `φ`, through the reciprocal of its
/// `sin φ` denominator.
fn term_weights(phi: f64) -> (f64, f64) {
    let (sin_phi, cos_phi) = sincos(phi);
    let inv_sin = 1.0 / sin_phi;
    (cos_phi * inv_sin, sin_phi * inv_sin)
}

/// Angular frequencies of the eq. 2 kernel's three cosine families
/// (rad/s): `ω₀ = 2πf_l`, `ω₁ = 2π(kB − f_l)`, `ω₂ = 2π(f_l + B)`.
fn kernel_frequencies(band: BandSpec) -> [f64; 3] {
    let (b, f_lo, k) = (band.bandwidth(), band.f_lo(), band.k() as f64);
    [
        2.0 * PI * f_lo,
        2.0 * PI * (k * b - f_lo),
        2.0 * PI * (f_lo + b),
    ]
}

/// The eq. 2 numerator regrouped by cosine family at delay estimate
/// `delay`: `(αⱼ, βⱼ)` multiply `cos(ωⱼτ)`, `sin(ωⱼτ)` in
///
/// ```text
///   ((c₂ − c₁)cos φ₁ + (s₂ − s₁)sin φ₁)/sin φ₁
/// + ((c₁ − c₀)cos φ₀ + (s₁ − s₀)sin φ₀)/sin φ₀,   φ₀ = kπBD̂, φ₁ = k⁺πBD̂.
/// ```
///
/// The s₀ term vanishes identically on integer-positioned bands. Apart
/// from the odd stream's shift, this is the only place the kernel
/// depends on `D̂`.
fn kernel_weights(band: BandSpec, delay: f64) -> ([f64; 3], [f64; 3]) {
    let b = band.bandwidth();
    let (a1, b1) = term_weights(band.k_plus() as f64 * PI * b * delay);
    let mut alpha = [0.0, -a1, a1];
    let mut beta = [0.0, -b1, b1];
    if !band.is_integer_positioned() {
        let (a0, b0) = term_weights(band.k() as f64 * PI * b * delay);
        alpha[0] = -a0;
        beta[0] = -b0;
        alpha[1] += a0;
        beta[1] += b0;
    }
    (alpha, beta)
}

/// The kernel limit `s(0) = s₀(0) + s₁(0)`, independent of `D̂`.
fn kernel_origin(band: BandSpec) -> f64 {
    let (b, f_lo, k) = (band.bandwidth(), band.f_lo(), band.k() as f64);
    let s0_origin = if band.is_integer_positioned() {
        0.0
    } else {
        k - 2.0 * f_lo / b
    };
    s0_origin + (1.0 + 2.0 * f_lo / b - k)
}

/// The factored kernel numerator at tap `k`:
/// `c₀A₀ + s₀B₀ + c₁A₁ + s₁B₁ + c₂A₂ + s₂B₂`, nested from the last
/// family outward.
#[inline(always)]
fn numerator<L: F64x8>(ph: &[f64; 6], planes: &[&[f64]; 6], k: usize) -> f64 {
    let mut num = 0.0;
    for (p, plane) in ph.iter().zip(planes).rev() {
        num = L::mad(*p, plane[k], num);
    }
    num
}

/// A row's dot product with the capture samples under its tap window
/// (which starts at sample `first`): each stream accumulates its whole
/// eight-tap chunks on `lanes`, and the sum is both lane sums plus the
/// two streams' scalar tails, `(Σe + Σo) + (tail_e + tail_o)`.
#[inline(always)]
fn dot_row<L: F64x8>(lanes: L, capture: &NonuniformCapture, first: i64, row: &WeightRow) -> f64 {
    let taps = row.even.len();
    let cap = (first - capture.n_start()) as usize;
    let (ev, evt) = capture.even()[cap..cap + taps].as_chunks::<8>();
    let (od, odt) = capture.odd()[cap..cap + taps].as_chunks::<8>();
    let (re, ret) = row.even.as_chunks::<8>();
    let (ro, rot) = row.odd.as_chunks::<8>();
    let (mut acc_e, mut acc_o) = (lanes.zero(), lanes.zero());
    for (((e, o), a), b) in ev.iter().zip(od).zip(re).zip(ro) {
        acc_e = acc_e.mul_add(e, a);
        acc_o = acc_o.mul_add(o, b);
    }
    let (mut tail_e, mut tail_o) = (0.0, 0.0);
    for (((&e, &o), &a), &b) in evt.iter().zip(odt).zip(ret).zip(rot) {
        tail_e = L::mad(e, a, tail_e);
        tail_o = L::mad(o, b, tail_o);
    }
    acc_e.sum() + acc_o.sum() + (tail_e + tail_o)
}

/// The six per-sample factored planes of one stream's table (see
/// [`GridScratch`]), each sliced to the `len`-tap window starting at
/// sample offset `base` — pre-bounded so the row builder's tap loop
/// carries no bounds checks.
#[inline(always)]
fn plane_views(tab: &[f64], span: usize, base: usize, len: usize) -> [&[f64]; 6] {
    let plane = |p: usize| &tab[p * span + base..p * span + base + len];
    [plane(0), plane(1), plane(2), plane(3), plane(4), plane(5)]
}

/// Fills one stream's per-tap window row for a grid point whose first
/// tap sits at normalized position `x_start`, walking the row at
/// stride `inv_2hw` through the residue-transposed node-aligned cubic
/// table ([`WinRows`], built from [`Window::tabulated_aligned`]): the
/// stride spans exactly `stride` table nodes, so every tap shares the
/// interpolation weights computed once from the fractional node
/// position, and the four stencil nodes of every tap come from four
/// contiguous residue rows — four unit-stride streams of multiply-adds
/// that vectorize with the tap kernel. Taps beyond the window support
/// get exact zeros, matching [`WindowTable::at`].
#[inline(always)]
fn fill_window_row_planar<L: F64x8>(
    wr: &WinRows,
    scale: f64,
    inv_2hw: f64,
    x_start: f64,
    out: &mut [f64],
) {
    debug_assert!(x_start > 0.0 && x_start < 1.0);
    let pos = x_start * scale;
    let i0 = pos as usize;
    let s = pos - i0 as f64;
    // Shared cubic-Lagrange weights on the stencil at s ∈ {−1, 0, 1, 2}.
    let sp = s + 1.0;
    let sm = s - 1.0;
    let s2 = s - 2.0;
    let c0 = -(s * sm * s2) / 6.0;
    let c1 = sp * sm * s2 * 0.5;
    let c2 = -(sp * s * s2) * 0.5;
    let c3 = sp * s * sm / 6.0;
    // Taps past the support edge (odd stream, large D̂) are zero.
    let k_hi = if x_start + (out.len() - 1) as f64 * inv_2hw <= 1.0 {
        out.len() - 1
    } else {
        (((1.0 - x_start) / inv_2hw).floor().max(0.0) as usize).min(out.len() - 1)
    };
    let q = i0 / wr.stride;
    let r = i0 - q * wr.stride;
    let cols = wr.cols;
    let n_active = k_hi + 1;
    // Tap k's stencil node `i0 + k·stride + o` is row `r + o` at rank
    // `q + k`; `q + k_hi ≤ cols − 1` because every active tap's
    // position stays inside the table support.
    let base = r * cols + q;
    let p0 = &wr.data[base..base + n_active];
    let p1 = &wr.data[base + cols..base + cols + n_active];
    let p2 = &wr.data[base + 2 * cols..base + 2 * cols + n_active];
    let p3 = &wr.data[base + 3 * cols..base + 3 * cols + n_active];
    let (active, tail) = out.split_at_mut(n_active);
    for (k, w) in active.iter_mut().enumerate() {
        let inner = L::mad(c2, p2[k], c3 * p3[k]);
        *w = L::mad(c0, p0[k], L::mad(c1, p1[k], inner));
    }
    tail.fill(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kohlenberg::KohlenbergInterpolant;
    use crate::reconstruct::PnbsReconstructor;
    use rfbist_signal::tone::Tone;

    const FC: f64 = 1e9;
    const B: f64 = 90e6;
    const D: f64 = 180e-12;

    fn band() -> BandSpec {
        BandSpec::centered(FC, B)
    }

    fn grid_times(t0: f64, step: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| t0 + i as f64 * step).collect()
    }

    #[test]
    fn grid_matches_per_point_plan_on_tone() {
        let tone = Tone::unit(0.98e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let (t0, step, n) = (0.6e-6, 2.5e-10, 2000);
        let mut scratch = GridScratch::new();
        let got = plan
            .try_reconstruct_grid(&cap, t0, step, n, &mut scratch)
            .unwrap();
        let mut pp = GridScratch::new();
        let want = plan
            .try_reconstruct_instants(&cap, &grid_times(t0, step, n), &mut pp)
            .unwrap();
        for i in 0..n {
            assert!(
                (got[i] - want[i]).abs() < 1e-10,
                "point {i}: {} vs {} (diff {:e})",
                got[i],
                want[i],
                (got[i] - want[i]).abs()
            );
        }
    }

    #[test]
    fn grid_hits_exact_sample_instants() {
        // t0 an exact multiple of T: some grid points land on sample
        // instants (τ ≈ 0) and must take the origin branch, matching
        // the per-instant order.
        let tone = Tone::unit(1.01e9);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&tone, t_s, D, -50, 350);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let t0 = 90.0 * t_s;
        let step = t_s / 4.0;
        let n = 64;
        let mut scratch = GridScratch::new();
        let got = plan
            .try_reconstruct_grid(&cap, t0, step, n, &mut scratch)
            .unwrap()
            .to_vec();
        let want = plan
            .try_reconstruct_instants(&cap, &grid_times(t0, step, n), &mut scratch)
            .unwrap();
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < 1e-10, "point {i}");
        }
    }

    #[test]
    fn integer_positioned_band_grid_matches() {
        let band80 = BandSpec::centered(FC, 80e6);
        let tone = Tone::unit(0.99e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / 80e6, 200e-12, -50, 350);
        let plan = PnbsGridPlan::new(band80, 200e-12, 61, Window::Kaiser(8.0));
        assert!(plan.num_taps() == 61);
        let mut scratch = GridScratch::new();
        let got = plan
            .try_reconstruct_grid(&cap, 0.9e-6, 3.1e-10, 500, &mut scratch)
            .unwrap()
            .to_vec();
        let rec = PnbsReconstructor::paper_default(band80, 200e-12).unwrap();
        for (i, &g) in got.iter().enumerate() {
            let t = 0.9e-6 + i as f64 * 3.1e-10;
            assert!(
                (g - rec.try_reconstruct_at_reference(&cap, t).unwrap()).abs() < 1e-9,
                "point {i}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_idempotent() {
        let tone = Tone::unit(0.97e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let mut scratch = GridScratch::new();
        let first = plan
            .try_reconstruct_grid(&cap, 0.7e-6, 2.5e-10, 300, &mut scratch)
            .unwrap()
            .to_vec();
        let second = plan
            .try_reconstruct_grid(&cap, 0.7e-6, 2.5e-10, 300, &mut scratch)
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(scratch.values().len(), 300);
    }

    #[test]
    fn empty_grid_yields_empty_slice() {
        let tone = Tone::unit(1.0e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, 0, 100);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let mut scratch = GridScratch::new();
        assert!(plan
            .try_reconstruct_grid(&cap, 0.0, 1e-9, 0, &mut scratch)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn out_of_coverage_grid_is_none_and_panics() {
        let tone = Tone::unit(1.0e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, 0, 100);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let mut scratch = GridScratch::new();
        let (lo, _) = plan.coverage(&cap).unwrap();
        assert!(plan
            .try_reconstruct_grid(&cap, 0.0, 1e-9, 8, &mut scratch)
            .is_none());
        // one sample short of the coverage start is enough
        assert!(plan
            .try_reconstruct_grid(&cap, lo - 1.0 / B, 1e-9, 8, &mut scratch)
            .is_none());
        assert!(plan
            .try_reconstruct_grid(&cap, lo, 1e-9, 8, &mut scratch)
            .is_some());
        // the panicking block feed kept for the benchmark's replica
        // panics on the same grid
        let result = std::panic::catch_unwind(|| {
            let mut scratch = GridScratch::new();
            let _ = plan.reconstruct_blocks(&cap, 0.0, 1e-9, 8, &mut scratch);
        });
        assert!(result.is_err(), "out-of-coverage block feed must panic");
    }

    #[test]
    #[should_panic(expected = "grid step must be positive")]
    fn non_positive_step_panics() {
        let tone = Tone::unit(1.0e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, 0, 100);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let mut scratch = GridScratch::new();
        let _ = plan.try_reconstruct_grid(&cap, 1e-6, 0.0, 4, &mut scratch);
    }

    #[test]
    fn block_feed_matches_monolithic_grid() {
        let tone = Tone::unit(0.98e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        // n not a multiple of the block length: final block is partial
        let (t0, step, n) = (0.6e-6, 2.5e-10, 2000);
        let mut scratch = GridScratch::new();
        let want = plan
            .try_reconstruct_grid(&cap, t0, step, n, &mut scratch)
            .unwrap()
            .to_vec();
        let mut block_scratch = GridScratch::new();
        let mut blocks = plan.reconstruct_blocks(&cap, t0, step, n, &mut block_scratch);
        assert_eq!(blocks.grid_len(), n);
        let mut got = Vec::new();
        let mut sizes = Vec::new();
        while let Some(block) = blocks.next_block() {
            sizes.push(block.len());
            got.extend_from_slice(block);
        }
        assert_eq!(blocks.produced(), n);
        assert_eq!(got.len(), n);
        // all blocks are full re-seed blocks except the final partial
        assert!(sizes[..sizes.len() - 1]
            .iter()
            .all(|&s| s == GRID_BLOCK_LEN));
        assert_eq!(*sizes.last().unwrap(), n % GRID_BLOCK_LEN);
        // the feed runs the batch's producer, and no value depends on
        // where a chunk ends, so it is bit-identical — not just close
        assert_eq!(got, want);
    }

    #[test]
    fn block_feed_handles_origin_branch_and_bartlett_fallback() {
        // exact sample instants exercise the near-origin guard inside
        // the block feed; Bartlett's kinked shape exercises the
        // non-cubic window-row fallback
        let tone = Tone::unit(1.01e9);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&tone, t_s, D, -50, 350);
        for window in [Window::Kaiser(8.0), Window::Bartlett] {
            let plan = PnbsGridPlan::new(band(), D, 61, window);
            let (t0, step, n) = (90.0 * t_s, t_s / 4.0, 300);
            let mut scratch = GridScratch::new();
            let want = plan
                .try_reconstruct_grid(&cap, t0, step, n, &mut scratch)
                .unwrap()
                .to_vec();
            let mut bs = GridScratch::new();
            let mut blocks = plan.reconstruct_blocks(&cap, t0, step, n, &mut bs);
            let mut got = Vec::new();
            while let Some(block) = blocks.next_block() {
                got.extend_from_slice(block);
            }
            for i in 0..n {
                assert!(
                    (got[i] - want[i]).abs() < 1e-9,
                    "{window:?} point {i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn block_feed_scratch_reuse_is_idempotent() {
        let tone = Tone::unit(0.97e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let mut scratch = GridScratch::new();
        let mut first = Vec::new();
        let mut blocks = plan.reconstruct_blocks(&cap, 0.7e-6, 2.5e-10, 600, &mut scratch);
        while let Some(b) = blocks.next_block() {
            first.extend_from_slice(b);
        }
        let mut second = Vec::new();
        let mut blocks = plan.reconstruct_blocks(&cap, 0.7e-6, 2.5e-10, 600, &mut scratch);
        while let Some(b) = blocks.next_block() {
            second.extend_from_slice(b);
        }
        assert_eq!(first, second);
    }

    #[test]
    fn block_feed_coverage_and_empty_grid() {
        let tone = Tone::unit(1.0e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, 0, 100);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let mut scratch = GridScratch::new();
        assert!(plan
            .try_reconstruct_blocks(&cap, 0.0, 1e-9, 8, &mut scratch)
            .is_none());
        let mut empty = plan
            .try_reconstruct_blocks(&cap, 0.0, 1e-9, 0, &mut scratch)
            .expect("empty grid needs no coverage");
        assert!(empty.next_block().is_none());
        assert_eq!(empty.produced(), 0);
    }

    #[test]
    fn plan_accessors() {
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        assert_eq!(plan.num_taps(), 61);
        assert_eq!(plan.delay(), D);
        assert_eq!(
            PnbsGridPlan::new(band(), D, 21, Window::Hann).num_taps(),
            21
        );
    }

    #[test]
    fn accessors_delegate_to_plan() {
        // The accessors read the folded eq. 2 state that coverage and
        // every reconstruction use: `num_taps()` fixes the `h = nw/2`
        // trim on both ends of the capture.
        let tone = Tone::unit(1.0e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
        for taps in [21, 61] {
            let plan = PnbsGridPlan::new(band(), D, taps, Window::Kaiser(8.0));
            assert_eq!(plan.num_taps(), taps);
            assert_eq!(plan.num_taps(), 2 * plan.half_taps + 1);
            assert_eq!(plan.delay(), D);
            let h = (plan.num_taps() / 2) as i64;
            let (lo, hi) = plan.coverage(&cap).expect("capture covers the taps");
            assert_eq!(lo, (-50 + h) as f64 * cap.period());
            assert_eq!(hi, (-50 + 350 - 1 - h) as f64 * cap.period());
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_tap_count_panics() {
        let _ = PnbsGridPlan::new(band(), D, 60, Window::Kaiser(8.0));
    }

    #[test]
    fn exact_kernel_matches_direct_interpolant() {
        // The eq. 2 constants (ωⱼ, αⱼ, βⱼ, 1/(2πB)) through the exact
        // near-origin kernel, against the interpolant's four-cosine
        // form, over bands on both sides of the positioning numbers.
        for (fc, b, d) in [
            (FC, B, D),
            (FC, B, 20e-12),
            (FC, B, 460e-12),
            (0.45e9, 60e6, 300e-12),
            (2.3e9, 110e6, 90e-12),
        ] {
            let band = BandSpec::centered(fc, b);
            let kern = KohlenbergInterpolant::new(band, d).unwrap();
            let plan = PnbsGridPlan::new(band, d, 61, Window::Kaiser(8.0));
            for i in -40..=40 {
                let tau = i as f64 * 0.37 / b + 1.3e-12;
                let (got, want) = (plan.kernel_near_origin(tau), kern.eval(tau));
                assert!(
                    (got - want).abs() < 1e-9,
                    "{band} D {d:e} τ = {tau:e}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn exact_kernel_hits_origin_limit() {
        let kern = KohlenbergInterpolant::new(band(), D).unwrap();
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        assert!((plan.kernel_near_origin(0.0) - kern.eval(0.0)).abs() < 1e-12);
        assert!((plan.kernel_near_origin(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn integer_positioned_band_plan_drops_s0() {
        let band80 = BandSpec::centered(FC, 80e6);
        assert!(band80.is_integer_positioned());
        let kern = KohlenbergInterpolant::new(band80, 200e-12).unwrap();
        let plan = PnbsGridPlan::new(band80, 200e-12, 61, Window::Kaiser(8.0));
        assert_eq!((plan.alpha[0], plan.beta[0]), (0.0, 0.0));
        for i in 0..32 {
            let tau = 0.9e-7 + i as f64 / 80e6 / 3.0;
            assert!(
                (plan.kernel_near_origin(tau) - kern.eval(tau)).abs() < 1e-10,
                "tap {i}"
            );
        }
    }

    #[test]
    fn planned_point_matches_reference_reconstruction() {
        let tone = Tone::unit(0.98e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        let times: Vec<f64> = (0..40).map(|i| 0.6e-6 + i as f64 * 31.7e-9).collect();
        let mut scratch = GridScratch::new();
        let got = plan
            .try_reconstruct_instants(&cap, &times, &mut scratch)
            .unwrap();
        for (&t, &g) in times.iter().zip(got) {
            let want = rec.try_reconstruct_at_reference(&cap, t).unwrap();
            assert!((g - want).abs() < 1e-10, "t = {t:e}: {g} vs {want}");
        }
    }

    #[test]
    fn batch_reuses_scratch_and_matches_scalar() {
        let tone = Tone::unit(1.01e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 350);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        // unsorted instants, on and off sample instants
        let mut times: Vec<f64> = (0..50).map(|i| 0.7e-6 + i as f64 * 23.3e-9).collect();
        times.reverse();
        times.push(90.0 / B);
        let mut scratch = GridScratch::new();
        let first = plan
            .try_reconstruct_instants(&cap, &times, &mut scratch)
            .unwrap()
            .to_vec();
        // a second call reuses the buffers, same values
        assert_eq!(
            first,
            plan.try_reconstruct_instants(&cap, &times, &mut scratch)
                .unwrap()
        );
        assert_eq!(scratch.values().len(), times.len());
        // each value depends only on its own instant
        for (&t, &v) in times.iter().zip(&first) {
            let single = plan
                .try_reconstruct_instants(&cap, &[t], &mut scratch)
                .unwrap()[0];
            assert_eq!(v, single, "batch and single point diverge at {t:e}");
        }
    }

    #[test]
    fn batch_coverage_panic_matches_scalar_contract() {
        // out of coverage, a batch of instants and a single instant
        // are both `None`
        let tone = Tone::unit(1.0e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, 0, 100);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        let mut scratch = GridScratch::new();
        assert!(plan.covers(&cap, 30.0 / B) && !plan.covers(&cap, 29.0 / B));
        // a batch is refused exactly when one of its instants is
        for t in [0.0, 29.0 / B, 30.0 / B, 69.0 / B, 70.0 / B] {
            let single = rec.try_reconstruct_at(&cap, t);
            assert_eq!(single.is_some(), plan.covers(&cap, t), "t = {t:e}");
            let batch = plan.try_reconstruct_instants(&cap, &[40.0 / B, t], &mut scratch);
            assert_eq!(batch.is_some(), single.is_some(), "t = {t:e}");
        }
        assert!(plan
            .try_reconstruct_instants(&cap, &[], &mut scratch)
            .is_some_and(<[f64]>::is_empty));
    }

    /// A grid's values on the one-period lattice, bypassing lattice
    /// detection: one row per point, built in grid order.
    fn one_period_values(
        plan: &PnbsGridPlan,
        cap: &NonuniformCapture,
        t0: f64,
        step: f64,
        n: usize,
    ) -> Vec<f64> {
        let mut scratch = GridScratch::new();
        let feed = plan
            .prepare_feed(
                cap,
                t0,
                step,
                n,
                Lattice { p: 0, q: n },
                Arm::detect(),
                &mut scratch,
            )
            .expect("grid inside coverage");
        plan.drain(cap, &feed, &mut scratch).to_vec()
    }

    fn omega_max(plan: &PnbsGridPlan) -> f64 {
        plan.w.iter().fold(0.0f64, |m, w| m.max(w.abs()))
    }

    #[test]
    fn lattice_detection_finds_the_builtin_grid_ratios() {
        // (carrier, grid rate, grid length) of the builtin deployments
        // against the fixed 90 MHz sampler
        for (fc, rate, n, p, q) in [
            (100e6, 300e6, 8192, 3, 10),
            (1e9, 4e9, 12288, 9, 400),
            (1.55e9, 4e9, 12288, 9, 400),
            (2.175e9, 5e9, 32768, 9, 500),
            (2.85e9, 6.5e9, 32768, 9, 650),
        ] {
            let plan = PnbsGridPlan::new(BandSpec::centered(fc, B), D, 61, Window::Kaiser(8.0));
            let lat = Lattice::detect(1.0 / rate, 1.0 / B, n, omega_max(&plan));
            assert_eq!(lat, Some(Lattice { p, q }), "{rate:e} Hz grid");
        }
    }

    #[test]
    fn lattice_detection_rejects_one_period_grids() {
        let w = omega_max(&PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0)));
        let t_s = 1.0 / B;
        // a 300-point cost-probe-sized grid: under four points per phase
        assert_eq!(Lattice::detect(2.5e-10, t_s, 300, w), None);
        assert_eq!(Lattice::detect(2.5e-10, t_s, 1599, w), None);
        assert!(Lattice::detect(2.5e-10, t_s, 1600, w).is_some());
        // irrational and large-denominator steps
        assert_eq!(
            Lattice::detect(t_s / std::f64::consts::PI, t_s, 1 << 20, w),
            None
        );
        assert_eq!(Lattice::detect(t_s / 4099.0, t_s, 1 << 24, w), None);
        // within the convergent tolerance, but drifting too far over a
        // long grid
        let off = 2.5e-10 * (1.0 + 1e-14);
        assert!(Lattice::detect(off, t_s, 2048, w).is_some());
        assert_eq!(Lattice::detect(off, t_s, 1 << 22, w), None);
        // degenerate steps
        assert_eq!(Lattice::detect(f64::INFINITY, t_s, 4096, w), None);
        assert_eq!(Lattice::detect(1e3, t_s, 4096, w), None);
    }

    #[test]
    fn short_lattice_matches_the_one_period_lattice() {
        let tone = Tone::unit(0.98e9);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&tone, t_s, D, -60, 400);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        // the detected lattice's shared rows against one row per point
        // (the one-period lattice); off-sample and on-sample starts,
        // 4 GHz and T/8 lattices
        for (t0, step, n) in [
            (0.5e-6, 2.5e-10, 4000),
            (80.0 * t_s, 2.5e-10, 9000),
            (80.0 * t_s, t_s / 8.0, 600),
        ] {
            let mut scratch = GridScratch::new();
            let got = plan
                .try_reconstruct_grid(&cap, t0, step, n, &mut scratch)
                .unwrap();
            let want = one_period_values(&plan, &cap, t0, step, n);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < 1e-10, "t0 {t0:e} point {i}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn one_period_grid_matches_instants_and_reference() {
        // a 4 GHz grid detuned by √2·1e-6 sits on no short lattice, so
        // it runs as one period of 17384 residues: past the block
        // feed's first chunk and many re-seed boundaries
        let tone = Tone::unit(1.013e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -50, 700);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let (t0, step, n) = (0.5e-6, 2.5e-10 * (1.0 + 2f64.sqrt() * 1e-6), 17_384);
        assert!(n > FEED_CHUNK_LEN);
        assert_eq!(
            Lattice::detect(step, cap.period(), n, omega_max(&plan)),
            None
        );
        let mut scratch = GridScratch::new();
        let got = plan
            .try_reconstruct_grid(&cap, t0, step, n, &mut scratch)
            .unwrap()
            .to_vec();
        let mut bs = GridScratch::new();
        let mut blocks = plan.reconstruct_blocks(&cap, t0, step, n, &mut bs);
        let mut fed = Vec::new();
        while let Some(block) = blocks.next_block() {
            fed.extend_from_slice(block);
        }
        assert_eq!(fed, got, "block feed diverged from the batch grid");
        let times = grid_times(t0, step, n);
        let want = plan
            .try_reconstruct_instants(&cap, &times, &mut scratch)
            .unwrap();
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < 1e-10, "point {i}: {g} vs {w}");
        }
        let rec = PnbsReconstructor::paper_default(band(), D).unwrap();
        for i in (0..n).step_by(97) {
            let w = rec.try_reconstruct_at_reference(&cap, times[i]).unwrap();
            assert!((got[i] - w).abs() < 1e-9, "point {i}: {} vs {w}", got[i]);
        }
    }

    #[test]
    fn tie_residue_reproduces_the_per_point_window_choice() {
        // t0 on a sample instant and step 9T/400: residue 200·9⁻¹ mod 400
        // sits exactly half a sample off, where round(t/T) flips with
        // float noise from point to point
        let tone = Tone::unit(1.01e9);
        let t_s = 1.0 / B;
        let cap = NonuniformCapture::from_signal(&tone, t_s, D, -50, 800);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let (t0, step, n) = (80.0 * t_s, 2.5e-10, 16000);
        let r = (0..400).find(|r| r * 9 % 400 == 200).expect("tie residue");
        let nc_r = ((t0 + r as f64 * step) / t_s).round() as i64;
        let flips = (r..n)
            .step_by(400)
            .enumerate()
            .filter(|&(m, i)| ((t0 + i as f64 * step) / t_s).round() as i64 != nc_r + 9 * m as i64)
            .count();
        assert!(flips > 0, "the fixture must exercise the shifted window");
        let mut scratch = GridScratch::new();
        let got = plan
            .try_reconstruct_grid(&cap, t0, step, n, &mut scratch)
            .unwrap();
        let want = one_period_values(&plan, &cap, t0, step, n);
        for i in (r..n).step_by(400) {
            assert!(
                (got[i] - want[i]).abs() < 1e-10,
                "tie point {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn super_block_feed_is_bit_identical_and_bounded() {
        let tone = Tone::unit(0.98e9);
        let cap = NonuniformCapture::from_signal(&tone, 1.0 / B, D, -60, 800);
        let plan = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        // two default-feed chunks and three early-stop ones, the last
        // one partial in both
        let (t0, step, n) = (0.5e-6, 2.5e-10, 2 * SUPER_BLOCK_LEN + 1000);
        assert!(n > FEED_CHUNK_LEN);
        let mut scratch = GridScratch::new();
        let want = plan
            .try_reconstruct_grid(&cap, t0, step, n, &mut scratch)
            .unwrap()
            .to_vec();
        let mut bs = GridScratch::new();
        for stoppable in [false, true] {
            let mut blocks = if stoppable {
                plan.try_reconstruct_stoppable_blocks(&cap, t0, step, n, &mut bs)
                    .unwrap()
            } else {
                plan.reconstruct_blocks(&cap, t0, step, n, &mut bs)
            };
            let mut got = Vec::new();
            while let Some(block) = blocks.next_block() {
                assert!(block.len() <= GRID_BLOCK_LEN);
                got.extend_from_slice(block);
            }
            assert_eq!(got, want, "stoppable feed: {stoppable}");
            let cap_len = if stoppable {
                SUPER_BLOCK_LEN
            } else {
                FEED_CHUNK_LEN
            };
            assert!(bs.values().len() <= cap_len);
        }
        // the default feed holds its first chunk whole
        let mut blocks = plan.reconstruct_blocks(&cap, t0, step, n, &mut bs);
        blocks.next_block();
        assert_eq!(bs.values(), &want[..FEED_CHUNK_LEN]);
        // an early stop inside the early-stop feed's first chunk builds
        // no other
        let mut blocks = plan
            .try_reconstruct_stoppable_blocks(&cap, t0, step, n, &mut bs)
            .unwrap();
        for _ in 0..3 {
            blocks.next_block();
        }
        assert_eq!(blocks.produced(), 3 * GRID_BLOCK_LEN);
        assert_eq!(bs.values(), &want[..SUPER_BLOCK_LEN]);
    }

    #[test]
    fn new_delay_estimates_share_the_window_tables() {
        let a = PnbsGridPlan::new(band(), D, 61, Window::Kaiser(8.0));
        let b = PnbsGridPlan::new(band(), D + 5e-12, 61, Window::Kaiser(8.0));
        assert!(Arc::ptr_eq(&a.window, &b.window));
        let c = PnbsGridPlan::new(band(), D, 21, Window::Kaiser(8.0));
        assert!(!Arc::ptr_eq(&a.window, &c.window));
    }
}
