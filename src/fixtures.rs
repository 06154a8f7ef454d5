//! Canonical paper-Section-V fixtures.
//!
//! The integration tests, examples and experiment binaries all exercise
//! the same scenario: a 10 Msym/s QPSK transmitter (SRRC α = 0.5 over
//! 12 symbols, PRBS seed `0xACE1`) at a 1 GHz carrier, checked by the
//! default BIST engine against the QPSK emission mask. These builders
//! are the single source of that setup so the scenario cannot drift
//! between call sites.
//!
//! ```no_run
//! use rfbist::fixtures;
//! use rfbist::prelude::*;
//!
//! let tx = fixtures::paper_tx(TxImpairments::typical());
//! let report = fixtures::paper_engine().run(
//!     &tx.rf_output(),
//!     &fixtures::paper_mask(),
//!     Some(&tx.ideal_rf_output()),
//! );
//! assert!(report.passed());
//! ```

use crate::math::Complex64;
use crate::prelude::*;
use crate::rfchain::txchain::ImpairedEnvelope;

/// PRBS seed every fixture derives its payload from.
pub const PAPER_PRBS_SEED: u64 = 0xACE1;

/// Symbol rate of the paper's stimulus, Hz.
pub const PAPER_SYMBOL_RATE: f64 = 10e6;

/// SRRC roll-off of the paper's pulse shaping.
pub const PAPER_ROLLOFF: f64 = 0.5;

/// SRRC truncation span, in symbols.
pub const PAPER_SPAN_SYMBOLS: usize = 12;

/// Carrier frequency, Hz.
pub const PAPER_CARRIER: f64 = 1e9;

/// Payload length used by the transmitter fixtures, in symbols.
pub const PAPER_TX_SYMBOLS: usize = 160;

/// The paper's shaped QPSK baseband with an experiment-chosen payload
/// length and PRBS seed (the experiment binaries sweep seeds for
/// independent noise realizations).
pub fn paper_baseband_seeded(symbols: usize, seed: u64) -> ShapedBaseband {
    ShapedBaseband::qpsk_prbs(
        PAPER_SYMBOL_RATE,
        PAPER_ROLLOFF,
        PAPER_SPAN_SYMBOLS,
        symbols,
        seed,
    )
}

/// [`paper_stimulus`] with an explicit PRBS seed.
pub fn paper_stimulus_seeded(symbols: usize, seed: u64) -> BandpassSignal<ShapedBaseband> {
    BandpassSignal::new(paper_baseband_seeded(symbols, seed), PAPER_CARRIER)
}

/// [`paper_tx`] with an explicit payload length and PRBS seed.
pub fn paper_tx_seeded(
    imp: TxImpairments,
    symbols: usize,
    seed: u64,
) -> HomodyneTx<ShapedBaseband> {
    HomodyneTx::builder(paper_baseband_seeded(symbols, seed), PAPER_CARRIER)
        .impairments(imp)
        .build()
}

/// The paper's shaped QPSK baseband with a payload of `symbols` symbols.
pub fn paper_baseband(symbols: usize) -> ShapedBaseband {
    paper_baseband_seeded(symbols, PAPER_PRBS_SEED)
}

/// The ideal passband stimulus (no transmitter impairments): the
/// baseband upconverted to the 1 GHz carrier.
pub fn paper_stimulus(symbols: usize) -> BandpassSignal<ShapedBaseband> {
    paper_stimulus_seeded(symbols, PAPER_PRBS_SEED)
}

/// The Section V homodyne transmitter with the given impairment budget.
pub fn paper_tx(imp: TxImpairments) -> HomodyneTx<ShapedBaseband> {
    paper_tx_seeded(imp, PAPER_TX_SYMBOLS, PAPER_PRBS_SEED)
}

/// The default BIST engine (paper front-end, 180 ps DCDE target).
pub fn paper_engine() -> BistEngine {
    BistEngine::new(BistConfig::paper_default())
}

/// The Section V dual-rate cost function over an ideal front-end:
/// both-rate captures of the QPSK stimulus plus `n_probes` random probe
/// times — the fixture the plan-equivalence and Fig. 5-shaped tests
/// share.
pub fn paper_cost_fixture(n_probes: usize, seed: u64) -> DualRateCost {
    let cfg = DualRateConfig::paper_section_v();
    let tx = paper_stimulus_seeded(96, PAPER_PRBS_SEED);
    let mut fast = BpTiadc::new(BpTiadcConfig::ideal(cfg.fast_rate(), cfg.delay()));
    let mut slow = BpTiadc::new(BpTiadcConfig::ideal(cfg.slow_rate(), cfg.delay()));
    DualRateCost::paper_probes(
        fast.capture(&tx, 80, 260),
        slow.capture(&tx, 40, 160),
        cfg,
        n_probes,
        seed,
    )
}

/// The QPSK 10 Msym/s emission mask the engine's verdict checks.
pub fn paper_mask() -> SpectralMask {
    SpectralMask::qpsk_10msym()
}

/// A [`ShapedBaseband`] evaluated through its direct per-tap sum,
/// [`ShapedBaseband::eval_iq_reference`]: the oracle for the angle-sum
/// table behind `eval_iq`.
#[derive(Clone, Debug)]
pub struct ReferenceBaseband(pub ShapedBaseband);

impl ComplexEnvelope for ReferenceBaseband {
    fn eval_iq(&self, t: f64) -> Complex64 {
        self.0.eval_iq_reference(t)
    }
}

/// `tx`'s RF output through the same impairment chain and carrier as
/// [`HomodyneTx::rf_output`], on the [`ReferenceBaseband`] of its
/// payload: what a capture of `tx` must reproduce bit for bit.
pub fn reference_rf_output(
    tx: &HomodyneTx<ShapedBaseband>,
) -> BandpassSignal<ImpairedEnvelope<ReferenceBaseband>> {
    HomodyneTx::builder(ReferenceBaseband(tx.baseband().clone()), tx.carrier_hz())
        .impairments(*tx.impairments())
        .build()
        .rf_output()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::traits::ContinuousSignal;

    #[test]
    fn stimulus_matches_tx_ideal_output() {
        // The standalone stimulus and the transmitter's golden output
        // are the same signal — the invariant that makes Δε meaningful.
        let tx = paper_tx(TxImpairments::ideal());
        let reference = paper_stimulus(PAPER_TX_SYMBOLS);
        let golden = tx.ideal_rf_output();
        for i in 0..50 {
            let t = 1.5e-6 + i as f64 * 7.3e-9;
            assert!((reference.eval(t) - golden.eval(t)).abs() < 1e-9, "t = {t}");
        }
    }

    #[test]
    fn builders_are_deterministic() {
        let a = paper_stimulus(32);
        let b = paper_stimulus(32);
        for i in 0..20 {
            let t = 1.2e-6 + i as f64 * 11.1e-9;
            assert_eq!(a.eval(t), b.eval(t));
        }
    }
}
