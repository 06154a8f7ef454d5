//! Uniform quantization.

/// A uniform mid-tread quantizer with symmetric clipping.
///
/// # Example
///
/// ```
/// use rfbist_converter::quantizer::Quantizer;
///
/// let q = Quantizer::new(10, 1.0); // 10 bits over ±1 V
/// let lsb = q.lsb();
/// assert!((lsb - 2.0 / 1024.0).abs() < 1e-12);
/// assert_eq!(q.quantize(0.0), 0.0);
/// assert_eq!(q.quantize(10.0), q.quantize(2.0)); // clips
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantizer {
    bits: u32,
    full_scale: f64,
}

impl Quantizer {
    /// Creates a `bits`-bit quantizer spanning `±full_scale`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 32, or `full_scale <= 0`.
    pub fn new(bits: u32, full_scale: f64) -> Self {
        assert!((1..=32).contains(&bits), "bits must be 1..=32");
        assert!(full_scale > 0.0, "full scale must be positive");
        Quantizer { bits, full_scale }
    }

    /// The paper's converters: 10 bits.
    pub fn paper_default(full_scale: f64) -> Self {
        Quantizer::new(10, full_scale)
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Full-scale amplitude (the quantizer spans `±full_scale`).
    pub fn full_scale(&self) -> f64 {
        self.full_scale
    }

    /// One least-significant-bit step: `2·FS / 2^bits`.
    pub fn lsb(&self) -> f64 {
        2.0 * self.full_scale / (1u64 << self.bits) as f64
    }

    /// Quantizes a sample (round to nearest level, clip to range).
    pub fn quantize(&self, v: f64) -> f64 {
        let lsb = self.lsb();
        let max_code = ((1u64 << self.bits) / 2 - 1) as f64;
        let code = (v / lsb).round().clamp(-(max_code + 1.0), max_code);
        code * lsb
    }

    /// `true` when `v` exceeds the clipping range.
    pub fn clips(&self, v: f64) -> bool {
        let lsb = self.lsb();
        let max_code = ((1u64 << self.bits) / 2 - 1) as f64;
        (v / lsb).round() > max_code || (v / lsb).round() < -(max_code + 1.0)
    }

    /// Ideal full-scale sine SNR: `6.02·bits + 1.76` dB.
    pub fn ideal_snr_db(&self) -> f64 {
        6.02 * self.bits as f64 + 1.76
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfbist_math::stats;

    #[test]
    fn lsb_and_levels() {
        let q = Quantizer::new(10, 1.0);
        assert!((q.lsb() - 2.0 / 1024.0).abs() < 1e-15);
        assert_eq!(q.bits(), 10);
        assert_eq!(q.full_scale(), 1.0);
    }

    #[test]
    fn quantization_is_idempotent() {
        let q = Quantizer::new(8, 2.0);
        for v in [-1.9, -0.3, 0.0, 0.7, 1.99] {
            let once = q.quantize(v);
            assert_eq!(q.quantize(once), once);
        }
    }

    #[test]
    fn error_is_bounded_by_half_lsb() {
        let q = Quantizer::new(10, 1.0);
        for i in 0..1000 {
            let v = -0.99 + i as f64 * 0.00198;
            let e = (q.quantize(v) - v).abs();
            assert!(e <= q.lsb() / 2.0 + 1e-15, "error {e} at {v}");
        }
    }

    #[test]
    fn clipping_at_extremes() {
        let q = Quantizer::new(10, 1.0);
        assert!(q.clips(1.5));
        assert!(q.clips(-1.5));
        assert!(!q.clips(0.5));
        let top = q.quantize(10.0);
        let max_code = 511.0;
        assert!((top - max_code * q.lsb()).abs() < 1e-15);
        let bottom = q.quantize(-10.0);
        assert!((bottom + 512.0 * q.lsb()).abs() < 1e-15);
    }

    #[test]
    fn quantization_noise_power_matches_lsb_squared_over_12() {
        // quantize a uniform ramp; error variance ≈ Δ²/12
        let q = Quantizer::new(10, 1.0);
        let errors: Vec<f64> = (0..100000)
            .map(|i| {
                let v = -0.9 + 1.8 * (i as f64 * 0.6180339887498949).fract();
                q.quantize(v) - v
            })
            .collect();
        let var = stats::variance(&errors);
        let expected = q.lsb() * q.lsb() / 12.0;
        assert!(
            (var - expected).abs() / expected < 0.05,
            "{var} vs {expected}"
        );
    }

    #[test]
    fn measured_snr_matches_ideal_formula() {
        // SQNR measured directly: the power of a near-full-scale sine
        // over the power of its quantization error q(x) − x
        let q = Quantizer::paper_default(1.0);
        let fs = 90e6;
        let n = 1 << 14;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                0.999 * (2.0 * std::f64::consts::PI * 10.123e6 * t).sin()
            })
            .collect();
        let errors: Vec<f64> = x.iter().map(|&v| q.quantize(v) - v).collect();
        let signal: f64 = x.iter().map(|v| v * v).sum();
        let noise: f64 = errors.iter().map(|e| e * e).sum();
        let sqnr_db = 10.0 * (signal / noise).log10();
        assert!(
            (sqnr_db - q.ideal_snr_db()).abs() < 2.0,
            "sqnr {sqnr_db} vs ideal {}",
            q.ideal_snr_db()
        );
    }

    #[test]
    fn one_bit_quantizer_is_a_comparator() {
        let q = Quantizer::new(1, 1.0);
        assert_eq!(q.lsb(), 1.0);
        assert_eq!(q.quantize(0.7), 0.0 * 1.0_f64.max(0.0)); // rounds 0.7 -> code 1? clamp to max_code = 0
                                                             // max positive code for 1 bit is 0, min is −1
        assert_eq!(q.quantize(5.0), 0.0);
        assert_eq!(q.quantize(-5.0), -1.0);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn zero_bits_panics() {
        let _ = Quantizer::new(0, 1.0);
    }
}
