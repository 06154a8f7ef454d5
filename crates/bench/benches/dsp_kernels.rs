//! Criterion benches for the DSP substrate: FFT sizes used by the PSD
//! path, and Welch estimation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfbist_dsp::psd::welch;
use rfbist_dsp::window::Window;
use rfbist_math::complex::Complex64;
use rfbist_math::fft::fft;
use std::hint::black_box;

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for n in [1024usize, 4096, 8192] {
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.1).sin(), (i as f64 * 0.07).cos()))
            .collect();
        group.bench_with_input(BenchmarkId::new("radix2", n), &n, |b, _| {
            b.iter(|| black_box(fft(black_box(&x))))
        });
    }
    // non-power-of-two goes through Bluestein
    let x: Vec<Complex64> = (0..4095)
        .map(|i| Complex64::new((i as f64 * 0.1).sin(), 0.0))
        .collect();
    group.bench_function("bluestein_4095", |b| {
        b.iter(|| black_box(fft(black_box(&x))))
    });
    group.finish();
}

fn bench_welch(c: &mut Criterion) {
    let x: Vec<f64> = (0..16384)
        .map(|i| (2.0 * std::f64::consts::PI * 0.01 * i as f64).sin())
        .collect();
    c.bench_function("welch_16k_seg4096", |b| {
        b.iter(|| {
            black_box(welch(
                black_box(&x),
                4e9,
                4096,
                2048,
                Window::BlackmanHarris,
            ))
        })
    });
}

criterion_group!(benches, bench_fft, bench_welch);
criterion_main!(benches);
