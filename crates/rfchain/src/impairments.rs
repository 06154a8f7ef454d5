//! Aggregate transmitter impairment configuration.

use crate::iqmod::{IqImbalance, IqWeights};
use crate::pa::PaModel;
use rfbist_math::Complex64;

/// All impairments applied along the Tx chain, in signal order:
/// IQ modulator → PA → output attenuation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TxImpairments {
    /// Quadrature-modulator imperfections.
    pub iq: IqImbalance,
    /// Power-amplifier nonlinearity.
    pub pa: PaModel,
    /// Output coupling gain (linear voltage; models the observation
    /// attenuator feeding the BIST sampler).
    pub output_gain: f64,
}

impl TxImpairments {
    /// A clean transmitter: ideal modulator, linear unity PA, unit
    /// coupling.
    pub fn ideal() -> Self {
        TxImpairments {
            iq: IqImbalance::ideal(),
            pa: PaModel::default(),
            output_gain: 1.0,
        }
    }

    /// A "healthy production unit" profile: tiny residual imbalance,
    /// mildly compressing Rapp PA operated with generous back-off, and a
    /// coupling gain that normalizes the small-signal chain gain to 1.
    pub fn typical() -> Self {
        let pa_gain = 10.0; // 20 dB
        TxImpairments {
            iq: IqImbalance::new(0.05, 0.3, -55.0),
            pa: PaModel::rapp(pa_gain, 40.0, 2.0),
            output_gain: 1.0 / pa_gain,
        }
    }

    /// Builder-style: replace the IQ imbalance.
    pub fn with_iq(mut self, iq: IqImbalance) -> Self {
        self.iq = iq;
        self
    }

    /// Builder-style: replace the PA model.
    pub fn with_pa(mut self, pa: PaModel) -> Self {
        self.pa = pa;
        self
    }

    /// Builder-style: replace the output gain.
    pub fn with_output_gain(mut self, gain: f64) -> Self {
        self.output_gain = gain;
        self
    }

    /// Applies the full impairment chain to one envelope sample.
    pub fn apply(&self, a: Complex64) -> Complex64 {
        self.apply_weighted(&self.iq.weights(), a)
    }

    /// [`apply`](Self::apply) with the modulator's weights `iq`
    /// (`self.iq.weights()`) computed once by the caller.
    pub(crate) fn apply_weighted(&self, iq: &IqWeights, a: Complex64) -> Complex64 {
        self.pa.apply(iq.apply(a)) * self.output_gain
    }
}

impl Default for TxImpairments {
    fn default() -> Self {
        TxImpairments::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_chain_is_identity() {
        let imp = TxImpairments::ideal();
        let a = Complex64::new(0.4, 0.3);
        assert!((imp.apply(a) - a).abs() < 1e-12);
    }

    #[test]
    fn typical_chain_is_near_unity_at_nominal_level() {
        // −55 dBc LO leakage is referenced to unit signal level, so probe
        // at |a| = 1 where it is negligible and the PA barely compresses.
        let imp = TxImpairments::typical();
        let a = Complex64::new(1.0, 0.0);
        let out = imp.apply(a);
        assert!(
            (out.abs() / a.abs() - 1.0).abs() < 0.02,
            "gain {}",
            out.abs() / a.abs()
        );
    }

    #[test]
    fn chain_order_is_iq_then_pa() {
        // with LO leakage and a compressing PA, the leakage is amplified
        // and compressed along with the signal
        let imp = TxImpairments::ideal()
            .with_iq(IqImbalance::new(0.0, 0.0, -20.0))
            .with_pa(PaModel::rapp(10.0, 0.5, 2.0));
        let out = imp.apply(Complex64::ZERO);
        // leakage 0.1 → PA: 10·0.1 = 1.0 but saturates toward 0.5
        assert!(out.abs() < 1.0);
        assert!(out.abs() > 0.3);
    }

    #[test]
    fn builders_replace_fields() {
        let imp = TxImpairments::ideal()
            .with_output_gain(0.5)
            .with_pa(PaModel::linear_db(6.0));
        let a = Complex64::ONE;
        let expected = 10f64.powf(6.0 / 20.0) * 0.5;
        assert!((imp.apply(a).abs() - expected).abs() < 1e-9);
    }
}
