//! Criterion benches for the PNBS reconstruction kernel — the hot path
//! of every experiment (Fig. 5 sweeps, LMS iterations, PSD grids).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfbist_dsp::window::Window;
use rfbist_sampling::band::BandSpec;
use rfbist_sampling::gridplan::GridScratch;
use rfbist_sampling::kohlenberg::KohlenbergInterpolant;
use rfbist_sampling::reconstruct::{NonuniformCapture, PnbsReconstructor};
use rfbist_signal::tone::Tone;
use std::hint::black_box;

fn bench_kernel_eval(c: &mut Criterion) {
    let band = BandSpec::centered(1e9, 90e6);
    let kern = KohlenbergInterpolant::new(band, 180e-12).expect("valid delay");
    c.bench_function("kohlenberg_kernel_eval", |b| {
        let mut t = 1.0e-9;
        b.iter(|| {
            t += 1.3e-11;
            black_box(kern.eval(black_box(t)))
        })
    });
}

fn bench_reconstruct_point(c: &mut Criterion) {
    let band = BandSpec::centered(1e9, 90e6);
    let tone = Tone::unit(0.987e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / 90e6, 180e-12, -60, 400);
    let mut group = c.benchmark_group("pnbs_reconstruct_point");
    for taps in [21usize, 61, 121] {
        let rec =
            PnbsReconstructor::new(band, 180e-12, taps, Window::Kaiser(8.0)).expect("valid delay");
        group.bench_with_input(BenchmarkId::from_parameter(taps), &taps, |b, _| {
            let mut t = 1.0e-6;
            b.iter(|| {
                t += 7.7e-9;
                if t > 2.5e-6 {
                    t = 1.0e-6;
                }
                black_box(rec.reconstruct_at(&cap, black_box(t)))
            })
        });
        // the direct eq. 6 reference, for the perf trajectory
        group.bench_with_input(BenchmarkId::new("reference", taps), &taps, |b, _| {
            let mut t = 1.0e-6;
            b.iter(|| {
                t += 7.7e-9;
                if t > 2.5e-6 {
                    t = 1.0e-6;
                }
                black_box(rec.reconstruct_at_reference(&cap, black_box(t)))
            })
        });
    }
    group.finish();
}

fn bench_reconstruct_grid(c: &mut Criterion) {
    // the PSD path: 4096 points through the 61-tap reconstructor, as
    // arbitrary instants and as the uniform grid they form
    let band = BandSpec::centered(1e9, 90e6);
    let tone = Tone::unit(0.987e9);
    let cap = NonuniformCapture::from_signal(&tone, 1.0 / 90e6, 180e-12, -60, 400);
    let rec = PnbsReconstructor::paper_default(band, 180e-12).expect("valid delay");
    let (t0, step, n) = (1.0e-6, 0.25e-9, 4096);
    let times: Vec<f64> = (0..n).map(|i| t0 + i as f64 * step).collect();
    let mut scratch = GridScratch::new();
    c.bench_function("pnbs_reconstruct_batch_4096", |b| {
        b.iter(|| {
            let out = rec.reconstruct_batch(&cap, black_box(&times), &mut scratch);
            black_box(out[out.len() - 1])
        })
    });
    c.bench_function("pnbs_reconstruct_grid_4096", |b| {
        b.iter(|| {
            let out = rec.reconstruct_grid(&cap, black_box(t0), step, n, &mut scratch);
            black_box(out[out.len() - 1])
        })
    });
}

criterion_group!(
    benches,
    bench_kernel_eval,
    bench_reconstruct_point,
    bench_reconstruct_grid
);
criterion_main!(benches);
