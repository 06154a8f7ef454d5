//! Goertzel algorithm: single-bin and banked multi-bin DFT evaluation.
//!
//! Cheaper than a full FFT when only a handful of frequencies matter —
//! e.g. probing the two channel spectra at the Jamal calibration tone,
//! or sweeping the few dozen PSD bins a spectral mask actually
//! constrains ([`GoertzelBank`]).

use crate::simd::force_scalar;
use rfbist_math::Complex64;
use std::f64::consts::PI;

/// Evaluates the DFT of `x` at the single normalized frequency `f`
/// (cycles per sample, not restricted to bin centers).
///
/// Returns the complex coefficient with the same scaling as a direct DFT:
/// `X(f) = Σ x[n]·e^{-j2πfn}`.
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn goertzel(x: &[f64], f: f64) -> Complex64 {
    assert!(!x.is_empty(), "goertzel over empty data");
    let w = 2.0 * PI * f;
    let coeff = 2.0 * w.cos();
    let mut s_prev = 0.0;
    let mut s_prev2 = 0.0;
    for &v in x {
        let s = v + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    // Final extraction: y[N-1] = s[N-1] − e^{-jw}·s[N-2] equals
    // X(f)·e^{jw(N-1)}; rotate back to the DFT reference.
    let n = x.len() as f64;
    let y = Complex64::new(s_prev - w.cos() * s_prev2, w.sin() * s_prev2);
    y * Complex64::cis(-w * (n - 1.0))
}

/// Magnitude of the DFT at normalized frequency `f`.
pub fn goertzel_magnitude(x: &[f64], f: f64) -> f64 {
    goertzel(x, f).abs()
}

/// Power (|X|²) normalized by N², i.e. the squared average phasor —
/// convenient for tone-power estimates: a full-scale real tone of
/// amplitude A at frequency f gives `≈ (A/2)²`.
pub fn goertzel_tone_power(x: &[f64], f: f64) -> f64 {
    let n = x.len() as f64;
    goertzel(x, f).norm_sqr() / (n * n)
}

/// Reusable state buffers for [`GoertzelBank`]; create once and pass to
/// every [`GoertzelBank::powers_into`] call so segment-averaged scans
/// allocate nothing per segment (the `GridScratch` shape applied to
/// spectral scanning).
#[derive(Clone, Debug, Default)]
pub struct GoertzelScratch {
    s1: Vec<f64>,
    s2: Vec<f64>,
    out: Vec<f64>,
}

impl GoertzelScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-bin values written by the most recent banked call.
    pub fn values(&self) -> &[f64] {
        &self.out
    }
}

/// Carried recurrence state for one segment fed incrementally through
/// [`GoertzelBank::advance_state`] — the streaming form of
/// [`GoertzelBank::powers_into`] for feeds (block-reseeded
/// reconstruction, live captures) where a full segment never exists in
/// memory at once.
///
/// Because the Goertzel recurrence is strictly sequential per bin,
/// advancing a state over a segment split into arbitrary chunks
/// performs the *same* floating-point operations in the same order as
/// one pass over the whole segment: the streamed powers are
/// bit-identical to the batched ones, regardless of chunking.
#[derive(Clone, Debug, Default)]
pub struct GoertzelState {
    s1: Vec<f64>,
    s2: Vec<f64>,
}

impl GoertzelState {
    /// An empty state; sized and zeroed by
    /// [`GoertzelBank::reset_state`].
    pub fn new() -> Self {
        Self::default()
    }
}

/// A bank of Goertzel recurrences advanced together in one pass over
/// the data — the batched form of [`goertzel`] for evaluating many
/// spectral bins of the *same* signal segment.
///
/// One pass costs one fused multiply-add and one subtraction per bin
/// per sample, with all per-bin state held in flat arrays so the inner
/// loop vectorizes. Against a radix-2 FFT of length `N` this wins
/// whenever the probed bin count is small compared to the transform —
/// exactly the spectral-mask situation, where a 8192-bin PSD is checked
/// against a mask that constrains only a few dozen bins. When most of
/// the spectrum is needed, use the FFT instead; the break-even on this
/// workspace's scalar FFT sits near `N/8` bins (see the
/// `mask_scan` section of `BENCH_recon.json`).
///
/// The coefficient table (`2cos ω`, and `cos ω`/`sin ω` for the final
/// extraction) is computed once at construction and shared by every
/// segment the bank processes.
///
/// # Example
///
/// ```
/// use rfbist_dsp::goertzel::{goertzel, GoertzelBank, GoertzelScratch};
///
/// let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.3).sin()).collect();
/// let bank = GoertzelBank::new(&[0.05, 0.125, 0.3]);
/// let mut scratch = GoertzelScratch::new();
/// let powers = bank.powers_into(&x, &mut scratch).to_vec();
/// for (i, &f) in [0.05, 0.125, 0.3].iter().enumerate() {
///     assert!((powers[i] - goertzel(&x, f).norm_sqr()).abs() < 1e-6);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct GoertzelBank {
    freqs: Vec<f64>,
    /// `2cos ωⱼ` — the recurrence coefficient per bin.
    coeff: Vec<f64>,
    cos_w: Vec<f64>,
    sin_w: Vec<f64>,
}

impl GoertzelBank {
    /// Builds a bank probing the given normalized frequencies (cycles
    /// per sample, not restricted to bin centers).
    ///
    /// # Panics
    ///
    /// Panics if `freqs` is empty.
    pub fn new(freqs: &[f64]) -> Self {
        assert!(!freqs.is_empty(), "goertzel bank needs at least one bin");
        let mut coeff = Vec::with_capacity(freqs.len());
        let mut cos_w = Vec::with_capacity(freqs.len());
        let mut sin_w = Vec::with_capacity(freqs.len());
        for &f in freqs {
            let w = 2.0 * PI * f;
            coeff.push(2.0 * w.cos());
            cos_w.push(w.cos());
            sin_w.push(w.sin());
        }
        GoertzelBank {
            freqs: freqs.to_vec(),
            coeff,
            cos_w,
            sin_w,
        }
    }

    /// Number of bins in the bank.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` when the bank has no bins (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// The probed normalized frequencies.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Advances every bin's recurrence over `x` in one pass, leaving
    /// the final states `(s[N−1], s[N−2])` in `(s1, s2)` of the
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty.
    fn run_states(&self, x: &[f64], scratch: &mut GoertzelScratch) {
        assert!(!x.is_empty(), "goertzel over empty data");
        let m = self.len();
        scratch.s1.clear();
        scratch.s1.resize(m, 0.0);
        scratch.s2.clear();
        scratch.s2.resize(m, 0.0);
        self.advance_dispatch(x, &mut scratch.s1, &mut scratch.s2);
    }

    /// One runtime-dispatched recurrence pass over `x`, continuing from
    /// the states already in `(s1, s2)` — shared by the batched
    /// [`powers_into`](Self::powers_into) (which zeroes the states
    /// first) and the incremental [`advance_state`](Self::advance_state)
    /// (which carries them across chunks).
    fn advance_dispatch(&self, x: &[f64], s1: &mut [f64], s2: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        {
            if !force_scalar() && std::arch::is_x86_feature_detected!("fma") {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: AVX-512F + FMA support was just verified
                    // at runtime by is_x86_feature_detected!; the
                    // kernel body is ordinary safe Rust, recompiled at
                    // wider vectors with hardware-FMA steps.
                    unsafe { Self::advance_avx512(&self.coeff, x, s1, s2) };
                    return;
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 + FMA support was just verified at
                    // runtime by is_x86_feature_detected!; same safe
                    // kernel body as the scalar path.
                    unsafe { Self::advance_avx2(&self.coeff, x, s1, s2) };
                    return;
                }
            }
        }
        Self::advance::<false>(&self.coeff, x, s1, s2);
    }

    /// Sizes and zeroes `state` for a fresh segment of this bank.
    pub fn reset_state(&self, state: &mut GoertzelState) {
        let m = self.len();
        state.s1.clear();
        state.s1.resize(m, 0.0);
        state.s2.clear();
        state.s2.resize(m, 0.0);
    }

    /// Advances every bin's recurrence over the next chunk `x` of a
    /// segment, carrying `state` across calls. Feeding a segment in any
    /// chunking produces bit-identical states to one
    /// [`powers_into`](Self::powers_into) pass over the whole segment
    /// (the recurrence is strictly sequential per bin). An empty chunk
    /// is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `state` was not sized by
    /// [`reset_state`](Self::reset_state) for this bank.
    pub fn advance_state(&self, state: &mut GoertzelState, x: &[f64]) {
        assert_eq!(
            state.s1.len(),
            self.len(),
            "state not sized for this bank — call reset_state first"
        );
        if x.is_empty() {
            return;
        }
        self.advance_dispatch(x, &mut state.s1, &mut state.s2);
    }

    /// [`advance_state`](Self::advance_state) with the window applied
    /// on the fly: sample `i` enters the recurrence as `x[i]·w[i]`.
    /// The product is the same single rounding a caller staging
    /// `x[i]·w[i]` into a buffer and feeding it to `advance_state`
    /// would perform, at the same point of the recurrence — the
    /// resulting states are **bit-identical** to the staged form
    /// (pinned by the `windowed_advance_matches_staged` test) while
    /// the staging buffer, and its round-trip through memory on every
    /// chunk of every segment, disappears. This is what lets a
    /// streaming consumer apply its Welch window inside the feed's
    /// output pass instead of copying each block first.
    ///
    /// # Panics
    ///
    /// Panics if `state` was not sized by
    /// [`reset_state`](Self::reset_state) for this bank, or if `w` and
    /// `x` differ in length.
    pub fn advance_state_windowed(&self, state: &mut GoertzelState, x: &[f64], w: &[f64]) {
        assert_eq!(
            state.s1.len(),
            self.len(),
            "state not sized for this bank — call reset_state first"
        );
        assert_eq!(x.len(), w.len(), "window chunk must match the data chunk");
        if x.is_empty() {
            return;
        }
        self.advance_windowed_dispatch(x, w, &mut state.s1, &mut state.s2);
    }

    /// Adds `|X(fⱼ)|²` of the segment accumulated in `state` onto
    /// `acc[j]` — the Welch-averaging form of the power extraction in
    /// [`powers_into`](Self::powers_into) (same per-bin expression, so
    /// a streamed segment average is bit-identical to a batched one).
    ///
    /// # Panics
    ///
    /// Panics if `acc` or `state` do not match the bank's bin count.
    pub fn accumulate_powers(&self, state: &GoertzelState, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.len(), "accumulator/bank size mismatch");
        assert_eq!(state.s1.len(), self.len(), "state/bank size mismatch");
        for (((a, &s1), &s2), &c) in acc
            .iter_mut()
            .zip(&state.s1)
            .zip(&state.s2)
            .zip(&self.coeff)
        {
            *a += s1 * s1 + s2 * s2 - c * s1 * s2;
        }
    }

    /// One recurrence step `x + c·s₁ − s₂`. `FUSED` selects the
    /// hardware fused multiply-add form `c·s₁ + (x − s₂)` — two vector
    /// ops instead of three, differing from the plain form by one
    /// rounding (~1 ulp per step). Only the SIMD wrappers pass `true`:
    /// without hardware FMA, `mul_add` falls back to a soft-float
    /// routine orders of magnitude slower.
    #[inline(always)]
    fn step<const FUSED: bool>(c: f64, p1: f64, p2: f64, x: f64) -> f64 {
        if FUSED {
            c.mul_add(p1, x - p2)
        } else {
            x + c * p1 - p2
        }
    }

    /// The recurrence kernel: sample-outer / bins-inner in flat slice
    /// form (the shape the loop vectorizer handles best — every bin is
    /// an independent lane), with four samples folded per pass so each
    /// bin's state round-trips through L1 once per *four* samples
    /// instead of once per sample:
    ///
    /// ```text
    /// sₙ   = x₀ + c·s₁ − s₂      sₙ₊₂ = x₂ + c·sₙ₊₁ − sₙ
    /// sₙ₊₁ = x₁ + c·sₙ − s₁      sₙ₊₃ = x₃ + c·sₙ₊₂ − sₙ₊₁
    /// (s₁, s₂) ← (sₙ₊₃, sₙ₊₂)
    /// ```
    ///
    /// `WINDOWED` folds a per-sample window product into the quad
    /// head: sample `i` enters the recurrence as `x[i]·w[i]`, formed
    /// *once per sample* (not per bin) as a plain multiply. That is
    /// the exact operation a caller staging `x[i]·w[i]` into a buffer
    /// would perform, so the windowed kernel is bit-identical to
    /// staging + the unwindowed kernel while skipping the staging
    /// buffer's round-trip through memory. `w` is ignored (and may
    /// alias `x`) when `WINDOWED` is false.
    #[inline(always)]
    // analysis: allow(naked-panic) — quad indices are bounded by chunks_exact(4); the subscripts cannot leave the chunk
    fn advance_kernel<const FUSED: bool, const WINDOWED: bool>(
        coeff: &[f64],
        x: &[f64],
        w: &[f64],
        s1: &mut [f64],
        s2: &mut [f64],
    ) {
        debug_assert!(!WINDOWED || w.len() == x.len());
        let mut quads = x.chunks_exact(4);
        let mut wins = if WINDOWED { w } else { x }.chunks_exact(4);
        for (quad, wq) in (&mut quads).zip(&mut wins) {
            let (x0, x1, x2, x3) = if WINDOWED {
                (
                    quad[0] * wq[0],
                    quad[1] * wq[1],
                    quad[2] * wq[2],
                    quad[3] * wq[3],
                )
            } else {
                (quad[0], quad[1], quad[2], quad[3])
            };
            for ((c, p1), p2) in coeff.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
                let s_a = Self::step::<FUSED>(*c, *p1, *p2, x0);
                let s_b = Self::step::<FUSED>(*c, s_a, *p1, x1);
                let s_c = Self::step::<FUSED>(*c, s_b, s_a, x2);
                let s_d = Self::step::<FUSED>(*c, s_c, s_b, x3);
                *p1 = s_d;
                *p2 = s_c;
            }
        }
        for (&xr, &wr) in quads.remainder().iter().zip(wins.remainder()) {
            let x0 = if WINDOWED { xr * wr } else { xr };
            for ((c, p1), p2) in coeff.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
                let s = Self::step::<FUSED>(*c, *p1, *p2, x0);
                *p2 = *p1;
                *p1 = s;
            }
        }
    }

    /// [`advance_kernel`](Self::advance_kernel) without the window
    /// fold — the portable body behind the unwindowed wrappers.
    #[inline(always)]
    fn advance<const FUSED: bool>(coeff: &[f64], x: &[f64], s1: &mut [f64], s2: &mut [f64]) {
        Self::advance_kernel::<FUSED, false>(coeff, x, x, s1, s2);
    }

    /// [`advance`](Self::advance) compiled with AVX2 + FMA enabled and
    /// fused steps. Selected at runtime by `run_states`; agrees with
    /// the portable path to ~1 ulp per step (single rounding), far
    /// inside every consumer's tolerance.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support on the
    /// running CPU (`is_x86_feature_detected!`) before calling —
    /// `#[target_feature]` recompilation emits those instructions
    /// unconditionally. The body itself is safe Rust.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn advance_avx2(coeff: &[f64], x: &[f64], s1: &mut [f64], s2: &mut [f64]) {
        Self::advance::<true>(coeff, x, s1, s2)
    }

    /// [`advance`](Self::advance) compiled with AVX-512F + FMA enabled
    /// — the AVX2 variant's contract at twice the lane count.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F and FMA support on the
    /// running CPU (`is_x86_feature_detected!`) before calling; the
    /// body itself is safe Rust.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn advance_avx512(coeff: &[f64], x: &[f64], s1: &mut [f64], s2: &mut [f64]) {
        Self::advance::<true>(coeff, x, s1, s2)
    }

    /// Window-folding [`advance_kernel`](Self::advance_kernel)
    /// compiled with AVX2 + FMA enabled and fused steps — the
    /// [`advance_avx2`](Self::advance_avx2) contract with the
    /// `x[i]·w[i]` product formed in-register.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support on the
    /// running CPU (`is_x86_feature_detected!`) before calling —
    /// `#[target_feature]` recompilation emits those instructions
    /// unconditionally. The body itself is safe Rust.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn advance_windowed_avx2(
        coeff: &[f64],
        x: &[f64],
        w: &[f64],
        s1: &mut [f64],
        s2: &mut [f64],
    ) {
        Self::advance_kernel::<true, true>(coeff, x, w, s1, s2)
    }

    /// Window-folding kernel compiled with AVX-512F + FMA enabled —
    /// the [`advance_windowed_avx2`](Self::advance_windowed_avx2)
    /// contract at twice the lane count.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F and FMA support on the
    /// running CPU (`is_x86_feature_detected!`) before calling; the
    /// body itself is safe Rust.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn advance_windowed_avx512(
        coeff: &[f64],
        x: &[f64],
        w: &[f64],
        s1: &mut [f64],
        s2: &mut [f64],
    ) {
        Self::advance_kernel::<true, true>(coeff, x, w, s1, s2)
    }

    /// One runtime-dispatched window-folding recurrence pass —
    /// [`advance_dispatch`](Self::advance_dispatch) with the
    /// `x[i]·w[i]` products formed inside the kernel instead of staged
    /// through a buffer. Each dispatch arm performs the exact staged
    /// products and recurrence steps of the corresponding
    /// `advance_dispatch` arm, so callers swapping a staging buffer
    /// for this pass see bit-identical states.
    fn advance_windowed_dispatch(&self, x: &[f64], w: &[f64], s1: &mut [f64], s2: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        {
            if !force_scalar() && std::arch::is_x86_feature_detected!("fma") {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: AVX-512F + FMA support was just verified
                    // at runtime by is_x86_feature_detected!; the
                    // kernel body is ordinary safe Rust, recompiled at
                    // wider vectors with hardware-FMA steps.
                    unsafe { Self::advance_windowed_avx512(&self.coeff, x, w, s1, s2) };
                    return;
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 + FMA support was just verified at
                    // runtime by is_x86_feature_detected!; same safe
                    // kernel body as the scalar path.
                    unsafe { Self::advance_windowed_avx2(&self.coeff, x, w, s1, s2) };
                    return;
                }
            }
        }
        Self::advance_kernel::<false, true>(&self.coeff, x, w, s1, s2);
    }

    /// Evaluates `|X(fⱼ)|²` for every bin of the bank over `x` in one
    /// pass, writing into `scratch` and returning the filled slice.
    ///
    /// Same scaling as `goertzel(x, f).norm_sqr()`: the squared direct
    /// DFT coefficient, `|Σ x[n]·e^{-j2πfn}|²`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty.
    pub fn powers_into<'s>(&self, x: &[f64], scratch: &'s mut GoertzelScratch) -> &'s [f64] {
        self.run_states(x, scratch);
        self.extract_powers(scratch)
    }

    /// [`powers_into`](Self::powers_into) with the window applied on
    /// the fly, bit-identical to staging `x[i]·w[i]` first (see
    /// [`advance_state_windowed`](Self::advance_state_windowed)) —
    /// the batched form of the window fold, so a segment-averaging
    /// scan and its streaming twin can both drop their staging
    /// buffers without their verdicts drifting apart.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `w` and `x` differ in length.
    pub fn windowed_powers_into<'s>(
        &self,
        x: &[f64],
        w: &[f64],
        scratch: &'s mut GoertzelScratch,
    ) -> &'s [f64] {
        assert!(!x.is_empty(), "goertzel over empty data");
        assert_eq!(x.len(), w.len(), "window must match the segment");
        let m = self.len();
        scratch.s1.clear();
        scratch.s1.resize(m, 0.0);
        scratch.s2.clear();
        scratch.s2.resize(m, 0.0);
        self.advance_windowed_dispatch(x, w, &mut scratch.s1, &mut scratch.s2);
        self.extract_powers(scratch)
    }

    /// `|X|² = s₁² + s₂² − 2cos ω·s₁·s₂` per bin (phase rotations drop
    /// out) from the final states in `scratch`, into `scratch.out`.
    fn extract_powers<'s>(&self, scratch: &'s mut GoertzelScratch) -> &'s [f64] {
        scratch.out.clear();
        scratch.out.extend(
            scratch
                .s1
                .iter()
                .zip(&scratch.s2)
                .zip(&self.coeff)
                .map(|((&s1, &s2), &c)| s1 * s1 + s2 * s2 - c * s1 * s2),
        );
        &scratch.out
    }

    /// Evaluates the complex DFT coefficient at every bin — the banked
    /// equivalent of calling [`goertzel`] per frequency, with the same
    /// `X(f) = Σ x[n]·e^{-j2πfn}` reference.
    pub fn dft(&self, x: &[f64]) -> Vec<Complex64> {
        let mut scratch = GoertzelScratch::new();
        self.run_states(x, &mut scratch);
        let n = x.len() as f64;
        (0..self.len())
            .map(|j| {
                let (s1, s2) = (scratch.s1[j], scratch.s2[j]);
                let y = Complex64::new(s1 - self.cos_w[j] * s2, self.sin_w[j] * s2);
                y * Complex64::cis(-2.0 * PI * self.freqs[j] * (n - 1.0))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfbist_math::fft::fft_real;

    #[test]
    fn matches_fft_at_bin_centers() {
        let n = 128;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin() + 0.3).collect();
        let spec = fft_real(&x);
        for k in [0usize, 1, 5, 31, 63] {
            let g = goertzel(&x, k as f64 / n as f64);
            assert!((g - spec[k]).abs() < 1e-8, "bin {k}: {g} vs {}", spec[k]);
        }
    }

    #[test]
    fn detects_tone_at_exact_frequency() {
        let n = 1000;
        let f0 = 0.123;
        let amp = 0.8;
        let x: Vec<f64> = (0..n)
            .map(|i| amp * (2.0 * PI * f0 * i as f64).cos())
            .collect();
        let p = goertzel_tone_power(&x, f0);
        assert!(
            ((p.sqrt() * 2.0) - amp).abs() < 0.01,
            "amp {}",
            p.sqrt() * 2.0
        );
    }

    #[test]
    fn phase_is_recovered() {
        let n = 256;
        let f0 = 32.0 / n as f64; // bin-centered
        let phase = 0.7;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * f0 * i as f64 + phase).cos())
            .collect();
        let g = goertzel(&x, f0);
        // X(f0) of cos(wn+φ) at bin center = (N/2)·e^{jφ}
        assert!((g.arg() - phase).abs() < 1e-9, "phase {}", g.arg());
        assert!((g.abs() - n as f64 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn off_tone_rejects() {
        let n = 1024;
        let x: Vec<f64> = (0..n).map(|i| (2.0 * PI * 0.25 * i as f64).sin()).collect();
        // probing far from the tone (and at a bin center) sees ~nothing
        let p = goertzel_tone_power(&x, 0.125);
        assert!(p < 1e-10, "leak {p}");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        let _ = goertzel(&[], 0.1);
    }

    #[test]
    fn bank_matches_scalar_goertzel() {
        // odd and even lengths pin the state-array parity normalization
        for n in [255usize, 256, 1000] {
            let x: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.21).sin() + 0.4 * (i as f64 * 0.043).cos())
                .collect();
            let freqs: Vec<f64> = vec![0.01, 0.125, 7.0 / n as f64, 0.33, 0.499];
            let bank = GoertzelBank::new(&freqs);
            let mut scratch = GoertzelScratch::new();
            let powers = bank.powers_into(&x, &mut scratch).to_vec();
            let spectra = bank.dft(&x);
            for (j, &f) in freqs.iter().enumerate() {
                let want = goertzel(&x, f);
                assert!(
                    (powers[j] - want.norm_sqr()).abs() <= 1e-9 * want.norm_sqr().max(1.0),
                    "n {n} bin {j}: {} vs {}",
                    powers[j],
                    want.norm_sqr()
                );
                assert!(
                    (spectra[j] - want).abs() <= 1e-8 * want.abs().max(1.0),
                    "n {n} bin {j}: {} vs {want}",
                    spectra[j]
                );
            }
        }
    }

    #[test]
    fn bank_matches_fft_at_bin_centers() {
        let n = 512;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() - 0.2).collect();
        let spec = fft_real(&x);
        let ks = [0usize, 3, 100, 255];
        let freqs: Vec<f64> = ks.iter().map(|&k| k as f64 / n as f64).collect();
        let bank = GoertzelBank::new(&freqs);
        let mut scratch = GoertzelScratch::new();
        let powers = bank.powers_into(&x, &mut scratch);
        for (j, &k) in ks.iter().enumerate() {
            assert!(
                (powers[j] - spec[k].norm_sqr()).abs() < 1e-7,
                "bin {k}: {} vs {}",
                powers[j],
                spec[k].norm_sqr()
            );
        }
    }

    #[test]
    fn bank_scratch_is_reusable_across_segments() {
        let bank = GoertzelBank::new(&[0.1, 0.2]);
        let mut scratch = GoertzelScratch::new();
        let a: Vec<f64> = (0..128).map(|i| (i as f64 * 0.11).sin()).collect();
        let b: Vec<f64> = (0..64).map(|i| (i as f64 * 0.31).cos()).collect();
        let pa = bank.powers_into(&a, &mut scratch).to_vec();
        let pb = bank.powers_into(&b, &mut scratch).to_vec();
        // re-running the first segment reproduces it exactly: no state
        // leaks between segments
        assert_eq!(bank.powers_into(&a, &mut scratch), &pa[..]);
        assert_eq!(bank.powers_into(&b, &mut scratch), &pb[..]);
        assert_eq!(scratch.values().len(), 2);
    }

    #[test]
    fn windowed_advance_matches_staged_bit_for_bit() {
        let n = 1000;
        let x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.17).sin() + 0.2 * (i as f64 * 0.051).cos())
            .collect();
        let w: Vec<f64> = (0..n)
            .map(|i| 0.5 - 0.5 * (2.0 * PI * i as f64 / n as f64).cos())
            .collect();
        let staged: Vec<f64> = x.iter().zip(&w).map(|(a, b)| a * b).collect();
        let bank = GoertzelBank::new(&[0.03, 0.125, 0.31, 0.499]);
        let mut scratch = GoertzelScratch::new();
        let batched = bank.powers_into(&staged, &mut scratch).to_vec();
        // the on-the-fly window fold forms the same products at the
        // same recurrence points as the staged form — bit-identical,
        // batched and chunked (including off-unroll boundaries)
        assert_eq!(
            bank.windowed_powers_into(&x, &w, &mut scratch),
            &batched[..],
            "windowed batch pass diverged from staging"
        );
        for chunks in [vec![1000], vec![256, 256, 256, 232], vec![7, 501, 3, 489]] {
            let mut state = GoertzelState::new();
            bank.reset_state(&mut state);
            let mut start = 0;
            for len in chunks {
                bank.advance_state_windowed(
                    &mut state,
                    &x[start..start + len],
                    &w[start..start + len],
                );
                start += len;
            }
            assert_eq!(start, n);
            let mut acc = vec![0.0; bank.len()];
            bank.accumulate_powers(&state, &mut acc);
            assert_eq!(acc, batched, "windowed chunked pass diverged");
        }
    }

    #[test]
    fn incremental_state_matches_batched_pass_bit_for_bit() {
        let n = 1000;
        let x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.17).sin() + 0.2 * (i as f64 * 0.051).cos())
            .collect();
        let bank = GoertzelBank::new(&[0.03, 0.125, 0.31, 0.499]);
        let mut scratch = GoertzelScratch::new();
        let batched = bank.powers_into(&x, &mut scratch).to_vec();
        // any chunking — including chunk boundaries off the 4-sample
        // unroll — must reproduce the batched states exactly
        for chunks in [vec![1000], vec![256, 256, 256, 232], vec![7, 501, 3, 489]] {
            let mut state = GoertzelState::new();
            bank.reset_state(&mut state);
            let mut start = 0;
            for len in chunks {
                bank.advance_state(&mut state, &x[start..start + len]);
                start += len;
            }
            assert_eq!(start, n);
            let mut acc = vec![0.0; bank.len()];
            bank.accumulate_powers(&state, &mut acc);
            assert_eq!(acc, batched, "chunked pass diverged");
        }
    }

    #[test]
    fn accumulate_powers_sums_across_segments() {
        let bank = GoertzelBank::new(&[0.1, 0.2]);
        let a: Vec<f64> = (0..128).map(|i| (i as f64 * 0.11).sin()).collect();
        let b: Vec<f64> = (0..96).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut scratch = GoertzelScratch::new();
        let pa = bank.powers_into(&a, &mut scratch).to_vec();
        let pb = bank.powers_into(&b, &mut scratch).to_vec();
        let mut acc = vec![0.0; 2];
        let mut state = GoertzelState::new();
        for seg in [&a, &b] {
            bank.reset_state(&mut state);
            bank.advance_state(&mut state, seg);
            bank.accumulate_powers(&state, &mut acc);
        }
        for j in 0..2 {
            assert_eq!(acc[j], pa[j] + pb[j]);
        }
    }

    #[test]
    fn empty_chunk_is_a_noop() {
        let bank = GoertzelBank::new(&[0.1]);
        let mut state = GoertzelState::new();
        bank.reset_state(&mut state);
        let x = [1.0, -0.5, 0.25];
        bank.advance_state(&mut state, &x[..2]);
        bank.advance_state(&mut state, &[]);
        bank.advance_state(&mut state, &x[2..]);
        let mut acc = [0.0];
        bank.accumulate_powers(&state, &mut acc);
        let mut scratch = GoertzelScratch::new();
        assert_eq!(acc[0], bank.powers_into(&x, &mut scratch)[0]);
    }

    #[test]
    #[should_panic(expected = "reset_state")]
    fn unsized_state_panics() {
        let bank = GoertzelBank::new(&[0.1, 0.2]);
        let mut state = GoertzelState::new();
        bank.advance_state(&mut state, &[1.0]);
    }

    #[test]
    fn bank_accessors() {
        let bank = GoertzelBank::new(&[0.05, 0.25]);
        assert_eq!(bank.len(), 2);
        assert!(!bank.is_empty());
        assert_eq!(bank.freqs(), &[0.05, 0.25]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn empty_bank_panics() {
        let _ = GoertzelBank::new(&[]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn bank_empty_input_panics() {
        let mut scratch = GoertzelScratch::new();
        let _ = GoertzelBank::new(&[0.1]).powers_into(&[], &mut scratch);
    }
}
