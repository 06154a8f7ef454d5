//! Regenerates paper **Fig. 5**: the dual-rate cost function
//! `ε^{T,D̂}_{T1,D̂}(t)` versus the skew candidate `D̂`.
//!
//! Setup (paper Section V): QPSK 10 Msym/s SRRC α = 0.5 at 1 GHz,
//! B = 90 MHz, B1 = 45 MHz, true D = 180 ps, N = 300 random probe
//! times, 61-tap Kaiser-windowed reconstruction, 10-bit converters with
//! 3 ps rms skew jitter.
//!
//! The paper's figure sweeps D̂ over ~120–260 ps and shows a single
//! sharp minimum at D̂ = D = 180 ps; this binary prints the same series
//! (plus a full-interval sweep to exhibit uniqueness over ]0, m[).
//!
//! Both grids run through `DualRateCost::eval_grid`: one evaluator
//! combining the probe sums the cost built once, on one thread.

use rfbist_bench::{paper_cost, print_header, print_row, Frontend};

fn main() {
    let cost = paper_cost(Frontend::Paper, 300, 42);
    println!(
        "# Fig. 5 — cost function vs D̂ (true D = 180 ps, m = {:.1} ps)",
        cost.config().m_bound() * 1e12
    );
    println!();
    print_header(&["D_hat [ps]", "cost"]);
    // paper's plotted range: 120..260 ps
    let n = 71;
    let plotted: Vec<f64> = (0..n)
        .map(|i| (120.0 + 140.0 * i as f64 / (n - 1) as f64) * 1e-12)
        .collect();
    let values = cost.eval_grid(&plotted);
    let mut min_d = 0.0;
    let mut min_c = f64::INFINITY;
    for (&d, &c) in plotted.iter().zip(&values) {
        if c < min_c {
            min_c = c;
            min_d = d;
        }
        print_row(&[format!("{:.2}", d * 1e12), format!("{c:.6}")]);
    }
    println!();
    println!(
        "Minimum of the plotted range: D̂ = {:.2} ps (cost {:.3e})",
        min_d * 1e12,
        min_c
    );
    println!();

    // uniqueness over the full admissible interval
    let candidates = cost.sweep_candidates(96);
    let grid = cost.eval_grid(&candidates);
    let sweep: Vec<(f64, f64)> = candidates.iter().copied().zip(grid).collect();
    let mut minima = 0;
    for w in sweep.windows(3) {
        if w[1].1 < w[0].1 && w[1].1 < w[2].1 {
            minima += 1;
        }
    }
    let (global_d, global_c) = sweep
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
        .expect("non-empty sweep");
    println!(
        "Full-interval sweep ]0, m[: {} strict local minimum(s); global at {:.2} ps (cost {:.3e})",
        minima,
        global_d * 1e12,
        global_c
    );
    println!("Paper: \"the cost function has only one minimum that appears when D̂ = D\".");
}
