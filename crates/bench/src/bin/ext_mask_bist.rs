//! **Extension experiment**: the complete spectral-mask BIST the paper's
//! conclusion points toward ("opening the way for a complete RF BIST
//! loopback strategy").
//!
//! Runs the end-to-end engine (capture → calibrate → LMS skew →
//! reconstruct → PSD → mask) against a healthy transmitter and the
//! standard fault catalogue, reporting the mask verdict, worst margin
//! and reconstruction deviation (Δε vs the ideal output) per fault.
//!
//! Expected shape: PA nonlinearity faults raise out-of-band regrowth
//! and fail the mask; modulator faults (IQ imbalance, LO leakage) stay
//! inside the occupied band — the emission mask alone cannot see them,
//! but the Δε-vs-golden column does, motivating a complementary
//! in-band/EVM check in a production BIST.

use rfbist_bench::{paper_tx, print_header, print_row};
use rfbist_core::bist::{BistConfig, BistEngine, BistScratch};
use rfbist_core::error::BistError;
use rfbist_core::mask::MaskLibrary;
use rfbist_rfchain::faults::standard_fault_set;
use rfbist_rfchain::impairments::TxImpairments;

fn main() -> Result<(), BistError> {
    let engine = BistEngine::new(BistConfig::paper_default());
    let library = MaskLibrary::builtin();
    let mask = &library
        .get("qpsk-10msym-srrc0.5")
        .expect("paper standard is built in")
        .mask;
    let healthy = TxImpairments::typical();

    println!("# Extension — spectral-mask BIST verdicts under injected faults");
    println!(
        "mask: {} (limits {:?} dBc), from the {}-standard library",
        mask.name(),
        mask.segments()
            .iter()
            .map(|s| s.limit_dbc)
            .collect::<Vec<_>>(),
        library.len()
    );
    println!();
    print_header(&[
        "device",
        "verdict",
        "worst margin [dB]",
        "violating bins",
        "skew |err| [ps]",
        "delta_eps vs golden [%]",
    ]);

    // baseline: the golden reference is the same payload, no
    // impairments. One shared scratch across the sweep — the fault
    // loop is exactly the repeated-verdict workload `try_run_with` exists
    // for.
    let mut scratch = BistScratch::new();
    let mut run = |imp: TxImpairments, label: &str| -> Result<(), BistError> {
        let tx = paper_tx(imp, 160, 0xACE1);
        let golden = tx.ideal_rf_output();
        let report = engine.try_run_with(&tx.rf_output(), mask, Some(&golden), &mut scratch)?;
        print_row(&[
            label.to_string(),
            if report.passed() {
                "PASS".into()
            } else {
                "FAIL".into()
            },
            format!("{:+.2}", report.mask.worst_margin_db),
            format!("{}", report.mask.violation_count),
            format!("{:.3}", report.skew_abs_error() * 1e12),
            format!("{:.2}", report.reconstruction_error.unwrap() * 100.0),
        ]);
        Ok(())
    };

    run(healthy, "healthy")?;
    for fault in standard_fault_set() {
        let label = format!("{:?}", fault.kind);
        run(fault.inject(healthy), &label)?;
    }

    println!();
    println!("Reading: regrowth (PA) faults trip the mask; in-band (IQ/LO) faults are");
    println!("invisible to an emission mask but show up in the golden-comparison column.");
    Ok(())
}
