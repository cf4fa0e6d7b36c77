//! Criterion bench: raw substrate kernels — matmul, softmax, row gather,
//! bit packing, integer GEMM, and the W8A8 linears of the `dit_ddim`
//! benchmark workload (f32 GEMM plus per-row / per-column fake-quant at
//! each of its three linear shapes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paro::quant::{
    fake_quant_2d, quantized_gemm_i32, Bitwidth, Grouping, PackedCodes, QuantizedGemmOperand,
};
use paro::tensor::rng::seeded;
use paro::tensor::Tensor;
use rand::distributions::Uniform;

fn bench_kernels(c: &mut Criterion) {
    let dist = Uniform::new(-1.0f32, 1.0);
    let mut group = c.benchmark_group("kernels");

    for n in [64usize, 256] {
        let a = Tensor::random(&[n, n], &dist, &mut seeded(1));
        let b = Tensor::random(&[n, n], &dist, &mut seeded(2));
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("softmax", n), &n, |bench, _| {
            bench.iter(|| a.softmax_rows().unwrap())
        });
        let perm: Vec<usize> = (0..n).rev().collect();
        group.bench_with_input(BenchmarkId::new("gather_rows", n), &n, |bench, _| {
            bench.iter(|| a.gather_rows(&perm).unwrap())
        });
        let qa = QuantizedGemmOperand::quantize(&a, Bitwidth::B8).unwrap();
        let qb = QuantizedGemmOperand::quantize(&b, Bitwidth::B8).unwrap();
        group.bench_with_input(BenchmarkId::new("int8_gemm", n), &n, |bench, _| {
            bench.iter(|| quantized_gemm_i32(&qa, &qb).unwrap())
        });
    }

    // `[m, k] · [k, n]`: the QKV/O projections, the FFN up and the FFN
    // down projection of the 384-token, hidden-256 synthetic DiT.
    for (m, k, n) in [
        (384usize, 256usize, 256usize),
        (384, 256, 1024),
        (384, 1024, 256),
    ] {
        let shape = format!("{m}x{k}x{n}");
        let x = Tensor::random(&[m, k], &dist, &mut seeded(3));
        let w = Tensor::random(&[k, n], &dist, &mut seeded(4));
        group.bench_with_input(BenchmarkId::new("linear_matmul", &shape), &w, |bench, w| {
            bench.iter(|| x.matmul(w).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("fake_quant_per_row", &shape),
            &x,
            |bench, x| bench.iter(|| fake_quant_2d(x, Grouping::PerRow, Bitwidth::B8).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("fake_quant_per_col", &shape),
            &w,
            |bench, w| bench.iter(|| fake_quant_2d(w, Grouping::PerCol, Bitwidth::B8).unwrap()),
        );
    }

    let codes: Vec<u32> = (0..65536).map(|i| (i % 4) as u32).collect();
    group.bench_function("pack_2bit_64k", |b| {
        b.iter(|| PackedCodes::pack(&codes, Bitwidth::B2).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels
}
criterion_main!(benches);
