//! Behavioral homodyne transmitter model.
//!
//! The paper validates its BIST architecture against "the behavioral
//! model of a homodyne transmitter … behavioral-passband models" (Fig. 1
//! and Section V). This crate reproduces that model in continuous time:
//! every block is a pointwise transformation of the complex envelope, so
//! the transmitter output remains evaluable at the arbitrary instants
//! PNBS sampling requires.
//!
//! - [`pa`]: memoryless power-amplifier nonlinearities (linear, Rapp,
//!   Saleh, odd polynomial) with AM/AM + AM/PM conversion,
//! - [`iqmod`]: quadrature modulator with gain/phase imbalance and LO
//!   leakage,
//! - [`impairments`]: the aggregate impairment configuration,
//! - [`txchain`]: the assembled homodyne transmitter,
//! - [`faults`]: a parametric fault catalogue for BIST fault-coverage
//!   experiments.
//!
//! # Example
//!
//! ```
//! use rfbist_rfchain::txchain::HomodyneTx;
//! use rfbist_signal::prelude::*;
//!
//! let bb = ShapedBaseband::qpsk_prbs(10e6, 0.5, 12, 64, 1);
//! let tx = HomodyneTx::builder(bb, 1e9).build();
//! let rf = tx.rf_output();
//! assert!(rf.eval(1.5e-6).is_finite());
//! ```

pub mod faults;
pub mod impairments;
pub mod iqmod;
pub mod pa;
pub mod txchain;

pub use faults::{Fault, FaultKind};
pub use impairments::TxImpairments;
pub use iqmod::IqImbalance;
pub use pa::PaModel;
pub use txchain::HomodyneTx;
