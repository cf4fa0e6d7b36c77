//! Bit-exactness of the f32 matmul micro-kernels against a naive oracle.
//!
//! The kernels are register-blocked: each micro-tile of the output keeps
//! its accumulators in registers across all of `k`, and ragged bottom and
//! right edges run narrower tiles. Blocking decides only which outputs
//! are computed together — every output element still starts at +0.0
//! and adds `a[i][p]·b[p][j]` (multiply, then add) in ascending `p` — so
//! every kernel must equal a naive triple loop **bit for bit**. That
//! includes shapes spanning several micro-tiles with ragged edges, `k`
//! across `TILE_K`, zeroed `TILE_K` row segments (the zero-segment
//! bypass fires only when a whole row panel's segment is zero) and
//! non-finite right-hand values (which disable the bypass). Test names
//! are prefixed `kernel_` so the CI sanitizer and forced-kernel jobs can
//! select exactly this suite.

use paro_tensor::kernel::{Kernel, TILE_K};
use paro_tensor::Tensor;
use proptest::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn uniform(state: &mut u64, lo: f32, hi: f32) -> f32 {
    lo + (lcg(state) % 10_000) as f32 / 10_000.0 * (hi - lo)
}

/// The oracle: `out[i][j] = ((+0.0 + a[i][0]·b[0][j]) + a[i][1]·b[1][j]) + …`.
fn naive(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn assert_matches_oracle(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    let want = naive(a, b);
    for kernel in Kernel::supported() {
        let got = a.matmul_with(b, kernel).unwrap();
        for (idx, (x, y)) in got.as_slice().iter().zip(&want).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "{} diverges from the oracle at {}: {} vs {}",
                kernel,
                idx,
                x,
                y
            );
        }
    }
    Ok(())
}

/// Zeroes `TILE_K` segments of `a`'s rows: with `pattern` 0 nothing, 1
/// every segment of some rows, 2 whole six-row panels' first segment
/// (the bypass fires), 3 a random scatter of single-row segments (the
/// bypass must not fire for the panel's other rows).
fn zero_segments(a: &mut [f32], m: usize, k: usize, pattern: usize, s: &mut u64) {
    let segments = k.div_ceil(TILE_K);
    for r in 0..m {
        for t in 0..segments {
            let zero = match pattern {
                1 => r % 3 == 0,
                2 => t == 0 && (r / 6) % 2 == 0,
                3 => lcg(s).is_multiple_of(3),
                _ => false,
            };
            if zero {
                let (k0, k1) = (t * TILE_K, ((t + 1) * TILE_K).min(k));
                a[r * k + k0..r * k + k1].fill(0.0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes spanning several micro-tiles with ragged `m`/`n`
    /// edges and `k` across up to two `TILE_K` boundaries, with zeroed
    /// row segments so the bypass fires on some panels and not others.
    #[test]
    fn kernel_matmul_f32_bit_identical_across_kernels(
        m in 1usize..20,
        k in 1usize..600,
        n in 1usize..50,
        pattern in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_add(0xf32);
        let mut a_data: Vec<f32> = (0..m * k).map(|_| uniform(&mut s, -1.0, 1.0)).collect();
        zero_segments(&mut a_data, m, k, pattern, &mut s);
        let a = Tensor::from_vec(&[m, k], a_data).unwrap();
        let b = Tensor::from_fn(&[k, n], |_| uniform(&mut s, -2.0, 2.0));
        assert_matches_oracle(&a, &b)?;
    }

    /// Non-finite right-hand values disable the zero-segment bypass; the
    /// dense IEEE result (NaN/∞ propagated through zero products) must
    /// still equal the oracle, including on zeroed segments.
    #[test]
    fn kernel_matmul_nonfinite_rhs_bit_identical_across_kernels(
        m in 1usize..14,
        k in 1usize..300,
        n in 1usize..40,
        poison in 0usize..4,
        pattern in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_add(0xbad);
        let mut a_data: Vec<f32> = (0..m * k)
            .map(|i| if i % 3 == 0 { 0.0 } else { uniform(&mut s, -1.5, 1.5) })
            .collect();
        zero_segments(&mut a_data, m, k, pattern, &mut s);
        let a = Tensor::from_vec(&[m, k], a_data).unwrap();
        let mut b_data: Vec<f32> = (0..k * n).map(|_| uniform(&mut s, -1.0, 1.0)).collect();
        let len = b_data.len();
        b_data[lcg(&mut s) as usize % len] = match poison {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => 0.0,
        };
        let b = Tensor::from_vec(&[k, n], b_data).unwrap();
        assert_matches_oracle(&a, &b)?;
    }
}

/// Exact tile boundary shapes, pinned deterministically: `m` at and
/// around the six-row panel, `k` at and around `TILE_K` and its double,
/// `n` at and around each SIMD lane width and micro-tile width.
#[test]
fn kernel_matmul_agrees_on_simd_boundaries() {
    let mut s = 7u64;
    for &m in &[1usize, 5, 6, 7, 13] {
        for &k in &[1usize, 255, 256, 257, 513] {
            for &n in &[1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
                let a = Tensor::from_fn(&[m, k], |_| uniform(&mut s, -5.0, 5.0));
                let b = Tensor::from_fn(&[k, n], |_| uniform(&mut s, -5.0, 5.0));
                assert_matches_oracle(&a, &b).unwrap();
            }
        }
    }
}
