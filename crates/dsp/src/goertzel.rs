//! Goertzel algorithm: single-bin and banked multi-bin DFT evaluation.
//!
//! Cheaper than a full FFT when only a handful of frequencies matter,
//! such as the few dozen PSD bins a spectral mask actually constrains:
//! [`GoertzelBank`] advances one windowed recurrence per bin over a
//! segment fed in chunks. The single-bin [`goertzel`] is its reference.

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

/// Carried recurrence state for one segment fed incrementally through
/// [`GoertzelBank::advance_state_windowed`], for feeds (block-reseeded
/// reconstruction, live captures) where a full segment never exists in
/// memory at once.
///
/// Because the Goertzel recurrence is strictly sequential per bin,
/// advancing a state over a segment split into arbitrary chunks
/// performs the *same* floating-point operations in the same order as
/// one pass over the whole segment: the powers are bit-identical
/// regardless of chunking.
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
/// spectral bins of the *same* windowed signal segment.
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
/// The recurrence coefficients `2cos ω` are computed once at
/// construction and shared by every segment the bank processes.
///
/// # Example
///
/// ```
/// use rfbist_dsp::goertzel::{goertzel, GoertzelBank, GoertzelState};
///
/// let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.3).sin()).collect();
/// let w: Vec<f64> = (0..256).map(|i| 0.5 + 0.002 * i as f64).collect();
/// let bank = GoertzelBank::new(&[0.05, 0.125, 0.3]);
/// let mut state = GoertzelState::new();
/// bank.reset_state(&mut state);
/// // any chunking of the segment gives the same states
/// bank.advance_state_windowed(&mut state, &x[..100], &w[..100]);
/// bank.advance_state_windowed(&mut state, &x[100..], &w[100..]);
/// let mut powers = vec![0.0; bank.len()];
/// bank.accumulate_powers(&state, &mut powers);
/// let windowed: Vec<f64> = x.iter().zip(&w).map(|(a, b)| a * b).collect();
/// for (p, &f) in powers.iter().zip(bank.freqs()) {
///     assert!((p - goertzel(&windowed, f).norm_sqr()).abs() < 1e-6);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct GoertzelBank {
    freqs: Vec<f64>,
    /// `2cos ωⱼ` — the recurrence coefficient per bin.
    coeff: Vec<f64>,
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
        GoertzelBank {
            freqs: freqs.to_vec(),
            coeff: freqs.iter().map(|&f| 2.0 * (2.0 * PI * f).cos()).collect(),
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

    /// Sizes and zeroes `state` for a fresh segment of this bank.
    pub fn reset_state(&self, state: &mut GoertzelState) {
        let m = self.len();
        state.s1.clear();
        state.s1.resize(m, 0.0);
        state.s2.clear();
        state.s2.resize(m, 0.0);
    }

    /// Advances every bin's recurrence over the next chunk `x` of a
    /// segment, carrying `state` across calls, with the window applied
    /// on the fly: sample `i` enters as `x[i]·w[i]`, the same single
    /// rounding a caller staging the product in a buffer would perform
    /// at the same point of the recurrence. The states are therefore
    /// **bit-identical** to the staged form (pinned by
    /// `windowed_advance_matches_staged_bit_for_bit`) and to one pass
    /// over the whole segment, in any chunking, without the staging
    /// buffer's round-trip through memory. An empty chunk is a no-op.
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

    /// Adds `|X(fⱼ)|² = s₁² + s₂² − 2cos ωⱼ·s₁·s₂` of the segment
    /// accumulated in `state` onto `acc[j]` (the phase rotations of the
    /// final extraction drop out of the power) — the Welch-averaging
    /// step, with the same scaling as `goertzel(x, f).norm_sqr()`.
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
    /// The window product is folded into the quad head: sample `i`
    /// enters the recurrence as `x[i]·w[i]`, formed *once per sample*
    /// (not per bin) as a plain multiply — the exact operation a caller
    /// staging `x[i]·w[i]` into a buffer would perform.
    #[inline(always)]
    // analysis: allow(naked-panic) — quad indices are bounded by chunks_exact(4); the subscripts cannot leave the chunk
    fn advance_kernel<const FUSED: bool>(
        coeff: &[f64],
        x: &[f64],
        w: &[f64],
        s1: &mut [f64],
        s2: &mut [f64],
    ) {
        debug_assert!(w.len() == x.len());
        let mut quads = x.chunks_exact(4);
        let mut wins = w.chunks_exact(4);
        for (quad, wq) in (&mut quads).zip(&mut wins) {
            let (x0, x1, x2, x3) = (
                quad[0] * wq[0],
                quad[1] * wq[1],
                quad[2] * wq[2],
                quad[3] * wq[3],
            );
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
            let x0 = xr * wr;
            for ((c, p1), p2) in coeff.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
                let s = Self::step::<FUSED>(*c, *p1, *p2, x0);
                *p2 = *p1;
                *p1 = s;
            }
        }
    }

    /// [`advance_kernel`](Self::advance_kernel) compiled with AVX2 +
    /// FMA enabled and fused steps. Selected at runtime by
    /// [`advance_windowed_dispatch`](Self::advance_windowed_dispatch);
    /// agrees with the portable path to ~1 ulp per step (single
    /// rounding), far inside every consumer's tolerance.
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
        Self::advance_kernel::<true>(coeff, x, w, s1, s2)
    }

    /// [`advance_kernel`](Self::advance_kernel) compiled with AVX-512F
    /// and FMA enabled — the
    /// [`advance_windowed_avx2`](Self::advance_windowed_avx2) contract
    /// at twice the lane count.
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
        Self::advance_kernel::<true>(coeff, x, w, s1, s2)
    }

    /// One runtime-dispatched recurrence pass over `x`, continuing from
    /// the states already in `(s1, s2)`: the AVX-512F or AVX2 + FMA
    /// recompilation where the CPU has it (unless `RFBIST_FORCE_SCALAR`
    /// is set), the portable kernel otherwise.
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
        Self::advance_kernel::<false>(&self.coeff, x, w, s1, s2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfbist_math::fft::fft_real;

    /// `|X(fⱼ)|²` of the windowed segment `x·w` through one fresh state.
    fn segment_powers(bank: &GoertzelBank, x: &[f64], w: &[f64]) -> Vec<f64> {
        let mut state = GoertzelState::new();
        bank.reset_state(&mut state);
        bank.advance_state_windowed(&mut state, x, w);
        let mut acc = vec![0.0; bank.len()];
        bank.accumulate_powers(&state, &mut acc);
        acc
    }

    /// The rectangular window: `x[i]·1.0` is `x[i]` exactly.
    fn ones(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

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
        // squared average phasor: a real tone of amplitude A gives ≈ (A/2)²
        let p = goertzel(&x, f0).norm_sqr() / (n * n) as f64;
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
        let p = goertzel(&x, 0.125).norm_sqr() / (n * n) as f64;
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
            let powers = segment_powers(&bank, &x, &ones(n));
            for (j, &f) in freqs.iter().enumerate() {
                let want = goertzel(&x, f).norm_sqr();
                assert!(
                    (powers[j] - want).abs() <= 1e-9 * want.max(1.0),
                    "n {n} bin {j}: {} vs {want}",
                    powers[j]
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
        let powers = segment_powers(&bank, &x, &ones(n));
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
        let a: Vec<f64> = (0..128).map(|i| (i as f64 * 0.11).sin()).collect();
        let b: Vec<f64> = (0..64).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut state = GoertzelState::new();
        let mut run = |x: &[f64]| {
            bank.reset_state(&mut state);
            bank.advance_state_windowed(&mut state, x, &ones(x.len()));
            let mut acc = vec![0.0; 2];
            bank.accumulate_powers(&state, &mut acc);
            acc
        };
        let (pa, pb) = (run(&a), run(&b));
        // re-running the first segment on the reset state reproduces it
        // exactly: no state leaks between segments
        assert_eq!(run(&a), pa);
        assert_eq!(run(&b), pb);
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
        let batched = segment_powers(&bank, &staged, &ones(n));
        // the on-the-fly window fold forms the same products at the
        // same recurrence points as the staged form — bit-identical,
        // in one pass and chunked (including off-unroll boundaries)
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
    fn accumulate_powers_sums_across_segments() {
        let bank = GoertzelBank::new(&[0.1, 0.2]);
        let a: Vec<f64> = (0..128).map(|i| (i as f64 * 0.11).sin()).collect();
        let b: Vec<f64> = (0..96).map(|i| (i as f64 * 0.31).cos()).collect();
        let pa = segment_powers(&bank, &a, &ones(a.len()));
        let pb = segment_powers(&bank, &b, &ones(b.len()));
        let mut acc = vec![0.0; 2];
        let mut state = GoertzelState::new();
        for seg in [&a, &b] {
            bank.reset_state(&mut state);
            bank.advance_state_windowed(&mut state, seg, &ones(seg.len()));
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
        let w = [0.5, 1.0, 0.75];
        bank.advance_state_windowed(&mut state, &x[..2], &w[..2]);
        bank.advance_state_windowed(&mut state, &[], &[]);
        bank.advance_state_windowed(&mut state, &x[2..], &w[2..]);
        let mut acc = [0.0];
        bank.accumulate_powers(&state, &mut acc);
        assert_eq!(acc[0], segment_powers(&bank, &x, &w)[0]);
    }

    #[test]
    #[should_panic(expected = "reset_state")]
    fn unsized_state_panics() {
        let bank = GoertzelBank::new(&[0.1, 0.2]);
        let mut state = GoertzelState::new();
        bank.advance_state_windowed(&mut state, &[1.0], &[1.0]);
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
}
