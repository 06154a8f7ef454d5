//! The assembled homodyne transmitter (paper Fig. 1).
//!
//! `baseband I/Q → quadrature modulator (impairments) → PA → coupling` —
//! all pointwise on the complex envelope, so the RF output stays
//! evaluable at arbitrary instants.
//!
//! [`HomodyneTx::impaired_envelope`] (and so [`HomodyneTx::rf_output`])
//! computes the modulator's constant weights once, when it builds the
//! envelope; each evaluation then pays only the baseband, the PA and
//! the carrier, with values bit-identical to
//! [`TxImpairments::apply`] on the baseband sample.

use crate::impairments::TxImpairments;
use crate::iqmod::IqWeights;
use rfbist_math::Complex64;
use rfbist_signal::bandpass::BandpassSignal;
use rfbist_signal::baseband::ShapedBaseband;
use rfbist_signal::traits::ComplexEnvelope;

/// A behavioral homodyne transmitter.
///
/// Generic over the baseband envelope source `E`; the impairment chain
/// is applied per evaluation.
///
/// # Example
///
/// ```
/// use rfbist_rfchain::txchain::HomodyneTx;
/// use rfbist_rfchain::pa::PaModel;
/// use rfbist_signal::prelude::*;
///
/// let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 64, 7);
/// let tx = HomodyneTx::builder(bb, 1e9)
///     .pa(PaModel::rapp(10.0, 5.0, 2.0))
///     .output_gain(0.1)
///     .build();
/// assert!(tx.rf_output().eval(1.4e-6).is_finite());
/// ```
#[derive(Clone, Debug)]
pub struct HomodyneTx<E> {
    baseband: E,
    carrier_hz: f64,
    impairments: TxImpairments,
}

impl<E: ComplexEnvelope + Clone> HomodyneTx<E> {
    /// Starts a builder with the mandatory pieces: baseband source and
    /// carrier frequency (Hz).
    pub fn builder(baseband: E, carrier_hz: f64) -> HomodyneTxBuilder<E> {
        HomodyneTxBuilder {
            baseband,
            carrier_hz,
            impairments: TxImpairments::ideal(),
        }
    }

    /// Carrier frequency in Hz.
    pub fn carrier_hz(&self) -> f64 {
        self.carrier_hz
    }

    /// The impairment configuration.
    pub fn impairments(&self) -> &TxImpairments {
        &self.impairments
    }

    /// The clean (pre-impairment) baseband source.
    pub fn baseband(&self) -> &E {
        &self.baseband
    }

    /// The impaired envelope as a standalone [`ComplexEnvelope`].
    pub fn impaired_envelope(&self) -> ImpairedEnvelope<E> {
        ImpairedEnvelope {
            baseband: self.baseband.clone(),
            impairments: self.impairments,
            iq: self.impairments.iq.weights(),
        }
    }

    /// The RF output as a real passband [`ContinuousSignal`] — what the
    /// BIST sampler observes at the PA output.
    pub fn rf_output(&self) -> BandpassSignal<ImpairedEnvelope<E>> {
        BandpassSignal::new(self.impaired_envelope(), self.carrier_hz)
    }

    /// The *ideal* RF output (impairments bypassed) — the reference the
    /// BIST engine compares against.
    pub fn ideal_rf_output(&self) -> BandpassSignal<E> {
        BandpassSignal::new(self.baseband.clone(), self.carrier_hz)
    }
}

impl HomodyneTx<ShapedBaseband> {
    /// Steady (edge-free) time range of the underlying symbol stream.
    pub fn steady_time_range(&self) -> (f64, f64) {
        self.baseband.steady_time_range()
    }
}

/// Builder for [`HomodyneTx`].
#[derive(Clone, Debug)]
pub struct HomodyneTxBuilder<E> {
    baseband: E,
    carrier_hz: f64,
    impairments: TxImpairments,
}

impl<E: ComplexEnvelope + Clone> HomodyneTxBuilder<E> {
    /// Sets the whole impairment block at once.
    pub fn impairments(mut self, imp: TxImpairments) -> Self {
        self.impairments = imp;
        self
    }

    /// Sets the quadrature-modulator imbalance.
    pub fn iq(mut self, iq: crate::iqmod::IqImbalance) -> Self {
        self.impairments.iq = iq;
        self
    }

    /// Sets the PA model.
    pub fn pa(mut self, pa: crate::pa::PaModel) -> Self {
        self.impairments.pa = pa;
        self
    }

    /// Sets the output coupling gain.
    pub fn output_gain(mut self, gain: f64) -> Self {
        self.impairments.output_gain = gain;
        self
    }

    /// Finalizes the transmitter.
    pub fn build(self) -> HomodyneTx<E> {
        assert!(self.carrier_hz > 0.0, "carrier frequency must be positive");
        HomodyneTx {
            baseband: self.baseband,
            carrier_hz: self.carrier_hz,
            impairments: self.impairments,
        }
    }
}

/// The impaired envelope view of a transmitter.
#[derive(Clone, Debug)]
pub struct ImpairedEnvelope<E> {
    baseband: E,
    impairments: TxImpairments,
    /// `impairments.iq.weights()`, computed once.
    iq: IqWeights,
}

impl<E: ComplexEnvelope> ComplexEnvelope for ImpairedEnvelope<E> {
    fn eval_iq(&self, t: f64) -> Complex64 {
        self.impairments
            .apply_weighted(&self.iq, self.baseband.eval_iq(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iqmod::IqImbalance;
    use crate::pa::PaModel;
    use rfbist_signal::baseband::ShapedBaseband;
    use rfbist_signal::traits::{ContinuousSignal, FnEnvelope};

    fn bb() -> ShapedBaseband {
        ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 64, 0xACE1)
    }

    #[test]
    fn ideal_tx_output_matches_clean_upconversion() {
        let tx = HomodyneTx::builder(bb(), 1e9).build();
        let rf = tx.rf_output();
        let ideal = tx.ideal_rf_output();
        for i in 0..20 {
            let t = 1.3e-6 + i as f64 * 7.7e-9;
            assert!((rf.eval(t) - ideal.eval(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn impairments_change_output() {
        let tx = HomodyneTx::builder(bb(), 1e9)
            .iq(IqImbalance::new(1.0, 3.0, -30.0))
            .pa(PaModel::rapp(1.0, 1.2, 2.0))
            .build();
        let rf = tx.rf_output();
        let ideal = tx.ideal_rf_output();
        let mut max_diff = 0.0f64;
        for i in 0..200 {
            let t = 1.3e-6 + i as f64 * 3.1e-9;
            max_diff = max_diff.max((rf.eval(t) - ideal.eval(t)).abs());
        }
        assert!(max_diff > 0.01, "impairments had no effect: {max_diff}");
    }

    #[test]
    fn builder_sets_all_fields() {
        let tx = HomodyneTx::builder(bb(), 2.4e9)
            .output_gain(0.25)
            .pa(PaModel::linear_db(12.0))
            .iq(IqImbalance::new(0.2, 0.5, -50.0))
            .build();
        assert_eq!(tx.carrier_hz(), 2.4e9);
        assert_eq!(tx.impairments().output_gain, 0.25);
        assert_eq!(tx.impairments().iq.gain_db, 0.2);
    }

    #[test]
    fn impaired_envelope_applies_chain() {
        let env = FnEnvelope(|_| Complex64::new(0.5, 0.0));
        let tx = HomodyneTx::builder(env, 1e9)
            .pa(PaModel::linear_db(6.0))
            .build();
        let z = tx.impaired_envelope().eval_iq(0.0);
        assert!((z.abs() - 0.5 * 10f64.powf(0.3)).abs() < 1e-9);
    }

    #[test]
    fn impaired_envelope_is_bit_identical_to_the_impairment_chain() {
        use crate::faults::standard_fault_set;
        let mut budgets = vec![TxImpairments::ideal(), TxImpairments::typical()];
        budgets.extend(
            standard_fault_set()
                .iter()
                .map(|f| f.inject(TxImpairments::typical())),
        );
        let baseband = bb();
        for imp in budgets {
            let env = HomodyneTx::builder(baseband.clone(), 1e9)
                .impairments(imp)
                .build()
                .impaired_envelope();
            for i in 0..400 {
                let t = -0.2e-6 + i as f64 * 23.7e-9;
                let (got, want) = (env.eval_iq(t), imp.apply(baseband.eval_iq(t)));
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "{imp:?} at t = {t}"
                );
            }
        }
    }

    #[test]
    fn steady_range_passthrough() {
        let tx = HomodyneTx::builder(bb(), 1e9).build();
        let (t0, t1) = tx.steady_time_range();
        assert!(t1 > t0);
    }

    #[test]
    #[should_panic(expected = "carrier frequency must be positive")]
    fn zero_carrier_panics() {
        let _ = HomodyneTx::builder(bb(), 0.0).build();
    }
}
