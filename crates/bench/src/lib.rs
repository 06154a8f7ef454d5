//! Shared scaffolding for the experiment-regeneration binaries.
//!
//! Every figure and table of the paper's evaluation has a dedicated
//! binary in `src/bin/`; the helpers here build the common Section V
//! scenario (QPSK 10 Msym/s, SRRC α = 0.5, f_c = 1 GHz, B = 90 MHz,
//! B1 = 45 MHz, D = 180 ps) so all experiments share one ground truth,
//! and time the perf binaries (`perf_report`, `verdict_service`) with
//! one median.

use rfbist::fixtures::{paper_stimulus_seeded, paper_tx_seeded};
use rfbist_converter::bptiadc::{BpTiadc, BpTiadcConfig, JitterPlacement};
use rfbist_core::cost::DualRateCost;
use rfbist_rfchain::impairments::TxImpairments;
use rfbist_rfchain::txchain::HomodyneTx;
use rfbist_sampling::dualrate::DualRateConfig;
use rfbist_signal::bandpass::BandpassSignal;
use rfbist_signal::baseband::ShapedBaseband;
use std::time::Instant;

/// Paper Section V stimulus: QPSK 10 Msym/s, SRRC α = 0.5 over 12
/// symbols, 1 GHz carrier, PRBS-driven payload.
pub fn paper_stimulus(symbols: usize, seed: u64) -> BandpassSignal<ShapedBaseband> {
    paper_stimulus_seeded(symbols, seed)
}

/// Paper Section V transmitter with the given impairments.
pub fn paper_tx(imp: TxImpairments, symbols: usize, seed: u64) -> HomodyneTx<ShapedBaseband> {
    paper_tx_seeded(imp, symbols, seed)
}

/// Whether an experiment should model the paper's noisy front-end
/// (10 bits, 3 ps rms skew jitter) or an ideal one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frontend {
    /// Paper Section V front-end, jitter on the DCDE (the skew itself
    /// wanders — the paper's "time-skew jitter" wording).
    Paper,
    /// Paper Section V front-end, jitter on the shared clock generator
    /// (skew exact, absolute instants wander).
    PaperCommonMode,
    /// Ideal clocks and effectively unquantized converters.
    Ideal,
}

/// Builds the dual-rate cost function of paper Section V:
/// both-rate captures of the stimulus plus `n_probes` random probe
/// times.
pub fn paper_cost(frontend: Frontend, n_probes: usize, seed: u64) -> DualRateCost {
    let cfg = DualRateConfig::paper_section_v();
    let (fast_cfg, slow_cfg) = match frontend {
        // The ideal arm is the canonical fixture shared with the
        // integration tests — one definition, so benches and the
        // plan-equivalence suite always measure the same object.
        Frontend::Ideal => return rfbist::fixtures::paper_cost_fixture(n_probes, seed),
        Frontend::Paper | Frontend::PaperCommonMode => {
            let placement = if frontend == Frontend::Paper {
                JitterPlacement::DcdeOnly
            } else {
                JitterPlacement::CommonMode
            };
            (
                BpTiadcConfig::paper_section_v(cfg.delay())
                    .with_seed(0x5EED ^ seed.rotate_left(17))
                    .with_jitter_placement(placement),
                BpTiadcConfig::paper_section_v(cfg.delay())
                    .with_sample_rate(cfg.slow_rate())
                    .with_seed(0x51DE ^ seed)
                    .with_jitter_placement(placement),
            )
        }
    };
    let tx = paper_stimulus(96, 0xACE1);
    let mut fast = BpTiadc::new(fast_cfg);
    let mut slow = BpTiadc::new(slow_cfg);
    DualRateCost::paper_probes(
        fast.capture(&tx, 80, 260),
        slow.capture(&tx, 40, 160),
        cfg,
        n_probes,
        seed,
    )
}

/// The upper-middle element of `samples` (the median of an odd count).
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Runs each closure of `work` (each performing `ops` operations) once
/// per rep, in turn, `reps` times, and returns each one's [`median`]
/// ns/op: slow drift on a shared machine hits all of them alike.
pub fn interleaved_medians<const K: usize>(
    reps: usize,
    ops: usize,
    mut work: [&mut dyn FnMut(); K],
) -> [f64; K] {
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (w, sample) in work.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            w();
            sample.push(start.elapsed().as_nanos() as f64 / ops as f64);
        }
    }
    samples.map(median)
}

/// Prints a Markdown-ish table row with `|`-separated cells.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a table header and separator.
pub fn print_header(cells: &[&str]) {
    print_row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stimulus_matches_paper_parameters() {
        let tx = paper_stimulus(64, 1);
        assert_eq!(tx.carrier_hz(), 1e9);
        let (lo, hi) = tx.occupied_band();
        assert!((lo - 992.5e6).abs() < 1.0);
        assert!((hi - 1007.5e6).abs() < 1.0);
    }

    #[test]
    fn cost_builder_produces_probes() {
        let cost = paper_cost(Frontend::Ideal, 25, 3);
        assert_eq!(cost.times().len(), 25);
        let at_truth = cost.evaluate(180e-12);
        let away = cost.evaluate(100e-12);
        assert!(at_truth < away);
    }
}
