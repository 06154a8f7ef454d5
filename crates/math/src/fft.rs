//! Fast Fourier transforms.
//!
//! Provides an iterative radix-2 Cooley–Tukey FFT for power-of-two lengths
//! and a Bluestein (chirp-z) FFT for arbitrary lengths, so callers never
//! need to zero-pad to a power of two unless they want to. The inverse
//! transform, a real-input form and magnitude/power helpers round out
//! the module.
//!
//! Conventions: the forward transform is **not** normalized
//! (`X[k] = Σ x[n] e^{-j2πnk/N}`); the inverse divides by `N`, so
//! `ifft(fft(x)) == x`.

use crate::complex::Complex64;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::rc::Rc;

thread_local! {
    /// Most-recently-used twiddle table, keyed by FFT size. Repeated
    /// same-size transforms — Welch's per-segment FFTs, Bluestein's
    /// three padded convolutions per call — reuse the table instead of
    /// paying n/2 `cis` calls each time. One entry is enough: the
    /// workspace's FFT traffic is runs of a single size.
    static TWIDDLE_CACHE: RefCell<Option<(usize, Rc<[Complex64]>)>> = const { RefCell::new(None) };
}

/// The table `w[i] = e^{-j2πi/n}` for `i < n/2`, served from the
/// thread-local cache when the size matches.
fn twiddle_table(n: usize) -> Rc<[Complex64]> {
    TWIDDLE_CACHE.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some((size, table)) = slot.as_ref() {
            if *size == n {
                return Rc::clone(table);
            }
        }
        let table: Rc<[Complex64]> = (0..n / 2)
            .map(|i| Complex64::cis(-2.0 * PI * i as f64 / n as f64))
            .collect();
        *slot = Some((n, Rc::clone(&table)));
        table
    })
}

/// Returns `true` when `n` is a power of two (and non-zero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Returns the smallest power of two `>= n`.
///
/// # Panics
///
/// Panics if the result would overflow `usize`.
pub fn next_power_of_two(n: usize) -> usize {
    n.checked_next_power_of_two()
        .expect("next power of two overflows usize")
}

/// In-place radix-2 FFT.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two. Use [`fft`] for arbitrary
/// lengths.
pub fn fft_radix2_in_place(x: &mut [Complex64]) {
    let n = x.len();
    assert!(
        is_power_of_two(n),
        "radix-2 FFT requires power-of-two length, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            x.swap(i, j);
        }
    }

    // Precomputed twiddle table: w[i] = e^{-j2πi/n} for i < n/2. Every
    // stage of length `len` reads its factors at stride n/len, so one
    // table serves all stages. Compared with the classic `w *= wlen`
    // butterfly recurrence this removes the O(len) error accumulation
    // per chunk (each entry is a direct `cis`, exact to ~1 ulp) and the
    // repeated complex multiplies that maintained the running factor.
    let twiddles = twiddle_table(n);

    // Danielson–Lanczos butterflies.
    let mut len = 2;
    while len <= n {
        let stride = n / len;
        for chunk in x.chunks_mut(len) {
            let half = len / 2;
            for i in 0..half {
                let w = twiddles[i * stride];
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
            }
        }
        len <<= 1;
    }
}

/// Forward FFT of arbitrary length.
///
/// Power-of-two lengths use radix-2 directly; other lengths go through
/// Bluestein's algorithm (exact, O(N log N)).
pub fn fft(x: &[Complex64]) -> Vec<Complex64> {
    if is_power_of_two(x.len().max(1)) && !x.is_empty() {
        let mut buf = x.to_vec();
        fft_radix2_in_place(&mut buf);
        buf
    } else {
        bluestein(x, false)
    }
}

/// Inverse FFT of arbitrary length; normalized so `ifft(fft(x)) == x`.
pub fn ifft(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out = if is_power_of_two(n) {
        let mut buf: Vec<Complex64> = x.iter().map(|z| z.conj()).collect();
        fft_radix2_in_place(&mut buf);
        buf.iter_mut().for_each(|z| *z = z.conj());
        buf
    } else {
        bluestein(x, true)
    };
    let scale = 1.0 / n as f64;
    out.iter_mut().for_each(|z| *z *= scale);
    out
}

/// Bluestein chirp-z transform: computes the length-`N` DFT (or inverse
/// DFT kernel when `inverse` is true, *without* 1/N scaling) for any `N`.
fn bluestein(x: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![x[0]];
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    // chirp[k] = exp(sign * jπ k² / n)
    let chirp: Vec<Complex64> = (0..n)
        .map(|k| {
            // k² mod 2n computed in u128 to avoid overflow for large n
            let k2 = (k as u128 * k as u128) % (2 * n as u128);
            Complex64::cis(sign * PI * k2 as f64 / n as f64)
        })
        .collect();

    let m = next_power_of_two(2 * n - 1);
    let mut a = vec![Complex64::ZERO; m];
    let mut b = vec![Complex64::ZERO; m];
    for k in 0..n {
        a[k] = x[k] * chirp[k];
        b[k] = chirp[k].conj();
    }
    for k in 1..n {
        b[m - k] = chirp[k].conj();
    }
    fft_radix2_in_place(&mut a);
    fft_radix2_in_place(&mut b);
    for k in 0..m {
        a[k] *= b[k];
    }
    // inverse FFT of the product (radix-2 path, manual conj trick)
    a.iter_mut().for_each(|z| *z = z.conj());
    fft_radix2_in_place(&mut a);
    let scale = 1.0 / m as f64;
    (0..n).map(|k| a[k].conj() * scale * chirp[k]).collect()
}

/// FFT of a real-valued signal; returns the full complex spectrum.
pub fn fft_real(x: &[f64]) -> Vec<Complex64> {
    let buf: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
    fft(&buf)
}

/// Magnitude of each spectrum bin.
pub fn magnitude(x: &[Complex64]) -> Vec<f64> {
    x.iter().map(|z| z.abs()).collect()
}

/// Power (`|X|²`) of each spectrum bin.
pub fn power(x: &[Complex64]) -> Vec<f64> {
    x.iter().map(|z| z.norm_sqr()).collect()
}

/// Direct (slow) DFT — O(N²). Retained as a reference implementation for
/// tests and as a fallback for very small N where it is competitive.
pub fn dft_reference(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|j| x[j] * Complex64::cis(-2.0 * PI * (j * k % n) as f64 / n as f64))
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn assert_spectra_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(close(*x, *y, tol), "bin {i}: {x} vs {y}");
        }
    }

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(1000));
    }

    #[test]
    fn next_power_of_two_values() {
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(2), 2);
        assert_eq!(next_power_of_two(3), 4);
        assert_eq!(next_power_of_two(1000), 1024);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        let spec = fft(&x);
        for bin in spec {
            assert!(close(bin, Complex64::ONE, 1e-12));
        }
    }

    #[test]
    fn dc_concentrates_in_bin_zero() {
        let x = vec![Complex64::ONE; 8];
        let spec = fft(&x);
        assert!(close(spec[0], Complex64::new(8.0, 0.0), 1e-12));
        for bin in &spec[1..] {
            assert!(bin.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_right_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * (k0 * i) as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (k, bin) in spec.iter().enumerate() {
            if k == k0 {
                assert!(close(*bin, Complex64::new(n as f64, 0.0), 1e-9));
            } else {
                assert!(bin.abs() < 1e-9, "leak at {k}: {bin}");
            }
        }
    }

    #[test]
    fn matches_reference_dft_pow2() {
        let x: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        assert_spectra_close(&fft(&x), &dft_reference(&x), 1e-9);
    }

    #[test]
    fn matches_reference_dft_non_pow2() {
        for n in [3usize, 5, 6, 7, 12, 30, 100, 300] {
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
                .collect();
            assert_spectra_close(&fft(&x), &dft_reference(&x), 1e-8);
        }
    }

    #[test]
    fn ifft_round_trip_pow2() {
        let x: Vec<Complex64> = (0..128)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let back = ifft(&fft(&x));
        assert_spectra_close(&back, &x, 1e-10);
    }

    #[test]
    fn ifft_round_trip_odd_length() {
        let x: Vec<Complex64> = (0..45)
            .map(|i| Complex64::new(i as f64 * 0.1, -(i as f64) * 0.05))
            .collect();
        let back = ifft(&fft(&x));
        assert_spectra_close(&back, &x, 1e-9);
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: Vec<Complex64> = (0..256)
            .map(|i| Complex64::new((i as f64 * 0.11).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let spec = fft(&x);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn real_signal_has_hermitian_spectrum() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() + 0.2).collect();
        let spec = fft_real(&x);
        let n = spec.len();
        for k in 1..n {
            assert!(close(spec[k], spec[n - k].conj(), 1e-9));
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
        let one = vec![Complex64::new(2.0, 3.0)];
        assert_eq!(fft(&one), one);
        assert_eq!(ifft(&one), one);
    }

    #[test]
    fn linearity() {
        let n = 48; // non power of two
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.0, (i % 7) as f64))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        for k in 0..n {
            assert!(close(fsum[k], fa[k] + fb[k], 1e-8));
        }
    }

    #[test]
    fn magnitude_and_power_helpers() {
        let spec = vec![Complex64::new(3.0, 4.0), Complex64::ZERO];
        assert_eq!(magnitude(&spec), vec![5.0, 0.0]);
        assert_eq!(power(&spec), vec![25.0, 0.0]);
    }

    #[test]
    fn large_fft_tone_leakage_stays_at_machine_level() {
        // With per-stage table twiddles the leakage floor of a pure
        // on-bin tone scales like ε·√N·log N, not the ε·N drift of the
        // old accumulating-recurrence butterflies.
        let n = 1 << 14;
        let k0 = 4999;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * ((k0 * i) % n) as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (k, bin) in spec.iter().enumerate() {
            if k == k0 {
                assert!((bin.abs() - n as f64).abs() < 1e-7);
            } else {
                assert!(bin.abs() < 1e-7, "leak at {k}: {}", bin.abs());
            }
        }
    }

    #[test]
    fn bluestein_large_prime_round_trip() {
        let n = 257; // prime
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.013).cos(), (i as f64 * 0.029).sin()))
            .collect();
        let back = ifft(&fft(&x));
        assert_spectra_close(&back, &x, 1e-8);
    }
}
