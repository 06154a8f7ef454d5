//! Bandpass sampling theory: uniform (PBS) and periodically nonuniform
//! (PNBS) second-order sampling, after Kohlenberg (1953) and Vaughan,
//! Scott & White (1991), as applied by the DATE 2014 BIST paper.
//!
//! - [`band`]: bandpass spectral supports and their positioning numbers,
//! - [`pbs`]: uniform bandpass sampling feasibility (paper Fig. 3),
//! - [`kohlenberg`]: the second-order interpolants `s₀`, `s₁` (paper
//!   eq. 2) and the delay constraints (eq. 3),
//! - [`reconstruct`]: windowed finite-tap PNBS reconstruction (eq. 6),
//! - [`gridplan`]: the planned engine behind it (factored per-sample
//!   phasor tables, tabulated windows; phase-major reconstruction of
//!   uniform grids, and arbitrary instants),
//! - [`dualrate`]: the dual-rate non-degeneracy conditions (eq. 9) and
//!   the search bound `m`,
//! - [`error`]: reconstruction-sensitivity bounds (eq. 4) and skew
//!   budgets (eq. 5).
//!
//! # Example: paper Section V parameters
//!
//! ```
//! use rfbist_sampling::band::BandSpec;
//!
//! // fc = 1 GHz, B = 90 MHz ⇒ fl = 955 MHz, k = 22, k⁺ = 23.
//! let band = BandSpec::centered(1e9, 90e6);
//! assert_eq!(band.k(), 22);
//! assert_eq!(band.k_plus(), 23);
//! ```

// Production code must not take shortcuts through unwrap/expect: the
// fail-safe pipeline treats every runtime fault as a typed value. Test
// modules (cfg(test)) are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod band;
pub mod dualrate;
pub mod error;
pub mod gridplan;
pub mod kohlenberg;
pub mod pbs;
pub mod reconstruct;

pub use band::BandSpec;
pub use gridplan::{GridScratch, PnbsGridPlan};
pub use reconstruct::{NonuniformCapture, PnbsReconstructor};
