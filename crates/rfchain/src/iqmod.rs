//! Quadrature modulator impairments.
//!
//! Gain/phase imbalance and LO leakage in the complex-envelope domain:
//! an imbalanced modulator maps `a → μ·a + ν·a* + c`, where the image
//! weight `ν` sets the image-rejection ratio and the constant `c` is the
//! carrier (LO) leakage.
//!
//! `μ`, `ν` and `c` depend only on the imbalance spec (three `powf` and
//! ten `sin`/`cos` between them). `IqImbalance::weights` is the one
//! place that computes them; a transmitter's impaired envelope holds
//! its result and applies it per sample.

use rfbist_math::Complex64;

/// Quadrature-modulator imperfection parameters.
///
/// # Example
///
/// ```
/// use rfbist_rfchain::iqmod::IqImbalance;
///
/// let iq = IqImbalance::new(0.5, 2.0, -40.0); // 0.5 dB, 2°, −40 dBc LO
/// assert!(iq.image_rejection_db() < 40.0); // imbalance limits IRR
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IqImbalance {
    /// Gain imbalance `g = g_I/g_Q` expressed in dB.
    pub gain_db: f64,
    /// Phase imbalance in degrees (quadrature error).
    pub phase_deg: f64,
    /// LO feed-through relative to a unit-power signal, in dBc;
    /// `f64::NEG_INFINITY` for none.
    pub lo_leakage_dbc: f64,
    /// Phase of the leaked carrier, radians.
    pub lo_leakage_phase: f64,
}

impl IqImbalance {
    /// Creates an imbalance spec from the gain mismatch `gain_db`
    /// (dB), the phase mismatch `phase_deg` (degrees) and the LO
    /// leakage `lo_leakage_dbc` (dBc; `-inf` disables leakage).
    pub fn new(gain_db: f64, phase_deg: f64, lo_leakage_dbc: f64) -> Self {
        IqImbalance {
            gain_db,
            phase_deg,
            lo_leakage_dbc,
            lo_leakage_phase: 0.0,
        }
    }

    /// A perfectly balanced modulator.
    pub fn ideal() -> Self {
        IqImbalance {
            gain_db: 0.0,
            phase_deg: 0.0,
            lo_leakage_dbc: f64::NEG_INFINITY,
            lo_leakage_phase: 0.0,
        }
    }

    /// Sets the LO-leakage carrier phase.
    pub fn with_leakage_phase(mut self, phase: f64) -> Self {
        self.lo_leakage_phase = phase;
        self
    }

    /// The modulator's constant weights `(μ, ν, leakage)`, with the
    /// dB gain imbalance split symmetrically between the two paths:
    /// `g_I/g_Q = 10^{±gain_db/40}`.
    pub(crate) fn weights(&self) -> IqWeights {
        let gi = 10f64.powf(self.gain_db / 40.0);
        let gq = 1.0 / gi;
        let half_phi = self.phase_deg.to_radians() / 2.0;
        let (i_path, q_path) = (
            Complex64::cis(half_phi) * gi,
            Complex64::cis(-half_phi) * gq,
        );
        let leakage = if self.lo_leakage_dbc == f64::NEG_INFINITY {
            Complex64::ZERO
        } else {
            Complex64::from_polar(
                10f64.powf(self.lo_leakage_dbc / 20.0),
                self.lo_leakage_phase,
            )
        };
        IqWeights {
            mu: (i_path + q_path) * 0.5,
            nu: (i_path - q_path) * 0.5,
            leakage,
        }
    }

    /// The direct-path weight `μ = (g_I·e^{jφ/2} + g_Q·e^{−jφ/2})/2`.
    pub fn mu(&self) -> Complex64 {
        self.weights().mu
    }

    /// The image-path weight `ν = (g_I·e^{jφ/2} − g_Q·e^{−jφ/2})/2`.
    pub fn nu(&self) -> Complex64 {
        self.weights().nu
    }

    /// Complex LO-leakage term added to the envelope.
    pub fn leakage(&self) -> Complex64 {
        self.weights().leakage
    }

    /// Applies the impairment to one envelope sample:
    /// `a → μ·a + ν·a* + leakage`.
    pub fn apply(&self, a: Complex64) -> Complex64 {
        self.weights().apply(a)
    }

    /// Image rejection ratio `|μ|²/|ν|²` in dB (infinite when balanced).
    pub fn image_rejection_db(&self) -> f64 {
        let nu = self.nu().norm_sqr();
        if nu == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (self.mu().norm_sqr() / nu).log10()
        }
    }
}

impl Default for IqImbalance {
    fn default() -> Self {
        IqImbalance::ideal()
    }
}

/// The constant weights of an [`IqImbalance`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct IqWeights {
    /// Direct-path weight `μ`.
    mu: Complex64,
    /// Image-path weight `ν`.
    nu: Complex64,
    /// LO-leakage term.
    leakage: Complex64,
}

impl IqWeights {
    /// Applies the modulator to one envelope sample:
    /// `a → μ·a + ν·a* + leakage`.
    pub(crate) fn apply(&self, a: Complex64) -> Complex64 {
        self.mu * a + self.nu * a.conj() + self.leakage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_identity() {
        let iq = IqImbalance::ideal();
        let a = Complex64::new(0.7, -0.2);
        assert!((iq.apply(a) - a).abs() < 1e-12);
        assert_eq!(iq.image_rejection_db(), f64::INFINITY);
        assert_eq!(iq.leakage(), Complex64::ZERO);
    }

    #[test]
    fn gain_imbalance_produces_image() {
        let iq = IqImbalance::new(1.0, 0.0, f64::NEG_INFINITY);
        let nu = iq.nu();
        assert!(nu.abs() > 1e-3, "image weight {nu}");
        // known closed form: IRR for pure gain imbalance g:
        // IRR = ((g+1)/(g−1))² with g = 10^{gain_db/20}
        let g = 10f64.powf(1.0 / 20.0);
        let irr_expected = 20.0 * ((g + 1.0) / (g - 1.0)).log10();
        assert!(
            (iq.image_rejection_db() - irr_expected).abs() < 0.01,
            "{} vs {irr_expected}",
            iq.image_rejection_db()
        );
    }

    #[test]
    fn phase_imbalance_produces_image() {
        let iq = IqImbalance::new(0.0, 2.0, f64::NEG_INFINITY);
        // known: IRR ≈ 20·log10(cot(φ/2)) for pure phase imbalance
        let half = 1.0f64.to_radians();
        let expected = 20.0 * (half.cos() / half.sin()).log10();
        assert!(
            (iq.image_rejection_db() - expected).abs() < 0.05,
            "{} vs {expected}",
            iq.image_rejection_db()
        );
    }

    #[test]
    fn image_maps_positive_to_negative_frequency() {
        // a rotating phasor e^{jωt} through an imbalanced modulator gains
        // a counter-rotating component with weight ν
        let iq = IqImbalance::new(0.8, 1.5, f64::NEG_INFINITY);
        let a = Complex64::cis(0.9);
        let out = iq.apply(a);
        let direct = iq.mu() * a;
        let image = iq.nu() * a.conj();
        assert!((out - (direct + image)).abs() < 1e-12);
        assert!(image.abs() > 0.0);
    }

    #[test]
    fn lo_leakage_adds_dc_term() {
        let iq = IqImbalance::new(0.0, 0.0, -40.0);
        let out = iq.apply(Complex64::ZERO);
        assert!((out.abs() - 0.01).abs() < 1e-9, "leakage {}", out.abs());
        // with phase
        let iq2 = IqImbalance::new(0.0, 0.0, -40.0).with_leakage_phase(std::f64::consts::FRAC_PI_2);
        let out2 = iq2.apply(Complex64::ZERO);
        assert!(out2.re.abs() < 1e-12);
        assert!((out2.im - 0.01).abs() < 1e-9);
    }

    #[test]
    fn energy_conservation_when_balanced() {
        // |μ|² + |ν|² == 1 for the symmetric gain split when balanced in dB
        let iq = IqImbalance::new(0.5, 1.0, f64::NEG_INFINITY);
        let total = iq.mu().norm_sqr() + iq.nu().norm_sqr();
        // symmetric split keeps total near (g²+1/g²)/2 ≈ 1 for small dB
        assert!((total - 1.0).abs() < 0.01, "total {total}");
    }

    #[test]
    fn worse_imbalance_means_worse_irr() {
        let small = IqImbalance::new(0.1, 0.5, f64::NEG_INFINITY);
        let large = IqImbalance::new(1.0, 5.0, f64::NEG_INFINITY);
        assert!(large.image_rejection_db() < small.image_rejection_db());
    }
}
