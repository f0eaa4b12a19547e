//! Prediction benches — the engine behind Table II.
//!
//! Times the n-layer predictor per layer count (stencil evaluation over a
//! full 2-D grid) and the end-to-end hit-rate measurement. The row engine
//! against the point walker lives in `benches/scan.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use szr_core::{hit_rate_by_layer, predict_at, PredictionBasis, StencilSet};
use szr_datagen::{atm, AtmVariable};
use szr_tensor::Shape;

fn bench_stencil_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict_full_grid");
    let data = atm(AtmVariable::Ts, 180, 360, 5);
    let shape = Shape::new(&[180, 360]);
    group.throughput(Throughput::Elements(data.len() as u64));
    for layers in 1..=4usize {
        group.bench_with_input(BenchmarkId::from_parameter(layers), &layers, |b, &n| {
            b.iter(|| {
                let mut stencils = StencilSet::new(n, shape.strides());
                let mut index = vec![0usize; 2];
                let mut acc = 0.0f64;
                for flat in 0..data.len() {
                    let stencil = stencils.for_index(&index);
                    acc += predict_at(data.as_slice(), flat, stencil);
                    shape.advance(&mut index);
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_hit_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("hit_rate_by_layer");
    group.sample_size(10);
    let data = atm(AtmVariable::Ts, 180, 360, 5);
    for basis in [PredictionBasis::Original, PredictionBasis::Decompressed] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{basis:?}")),
            &basis,
            |b, &basis| b.iter(|| hit_rate_by_layer(&data, 1, 1e-3, basis)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stencil_sweep, bench_hit_rate);
criterion_main!(benches);
