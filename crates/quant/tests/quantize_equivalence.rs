//! Bit-exactness of the SIMD quantize/pack and fake-quant kernels against
//! scalar.
//!
//! The SIMD paths replicate the scalar `(x / s).round() + zp` pipeline with
//! correctly-rounded IEEE division and an exact half-away-from-zero rebuild,
//! falling back to scalar for lanes outside the safe conversion range — so
//! every kernel must produce **identical codes** on any input, including
//! NaN/∞ and overflowing magnitudes. The fused fake-quant kernel behind
//! `fake_quant_2d` is held to the element-wise definition: min-max
//! calibration of the gathered row or column, then
//! `QuantParams::fake_quant` per element. Test names are prefixed
//! `kernel_` so the CI sanitizer job can select exactly this suite.

use paro_quant::{
    fake_quant_2d_with, Bitwidth, BlockGrid, Grouping, MixedPrecisionMap, QuantParams,
};
use paro_tensor::kernel::Kernel;
use paro_tensor::Tensor;
use proptest::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn unit_f32(state: &mut u64) -> f32 {
    (lcg(state) % 10_000) as f32 / 10_000.0
}

/// `fake_quant_2d` by its definition: gather each row (`PerRow`) or
/// column (`PerCol`), calibrate it with `calibrate_minmax`, then
/// `QuantParams::fake_quant` every element.
fn fake_quant_by_definition(
    t: &Tensor,
    grouping: Grouping,
    bits: Bitwidth,
) -> (Vec<f32>, Vec<QuantParams>) {
    let (m, n) = (t.shape()[0], t.shape()[1]);
    let a = t.as_slice();
    let per_row = match grouping {
        Grouping::PerRow => true,
        Grouping::PerCol => false,
        _ => unreachable!("only the per-row and per-column groupings"),
    };
    let (groups, len) = if per_row { (m, n) } else { (n, m) };
    // Flat index of element `i` of group `g`.
    let at = |g: usize, i: usize| if per_row { g * n + i } else { i * n + g };
    let mut out = vec![0.0f32; m * n];
    let params = (0..groups)
        .map(|g| {
            let group: Vec<f32> = (0..len).map(|i| a[at(g, i)]).collect();
            let p = QuantParams::calibrate_minmax(&group, bits);
            for i in 0..len {
                out[at(g, i)] = p.fake_quant(a[at(g, i)]);
            }
            p
        })
        .collect();
    (out, params)
}

/// Every supported kernel's `fake_quant_2d` equals the definition bit
/// for bit — outputs and parameter sets — under both groupings at every
/// bitwidth.
fn assert_fake_quant_matches_definition(t: &Tensor) -> Result<(), TestCaseError> {
    for grouping in [Grouping::PerRow, Grouping::PerCol] {
        for bits in Bitwidth::ALL {
            let (want, want_params) = fake_quant_by_definition(t, grouping, bits);
            for kernel in Kernel::supported() {
                let (got, params) = fake_quant_2d_with(t, grouping, bits, kernel).unwrap();
                prop_assert_eq!(params.len(), want_params.len());
                for (p, q) in params.iter().zip(&want_params) {
                    prop_assert!(
                        p.scale().to_bits() == q.scale().to_bits()
                            && p.zero_point() == q.zero_point()
                            && p.bits() == q.bits(),
                        "{} {:?} {}: params {:?} vs {:?}",
                        kernel,
                        grouping,
                        bits,
                        p,
                        q
                    );
                }
                for (i, (x, y)) in got.as_slice().iter().zip(&want).enumerate() {
                    prop_assert!(
                        x.to_bits() == y.to_bits(),
                        "{} {:?} {} at {}: {} vs {}",
                        kernel,
                        grouping,
                        bits,
                        i,
                        x,
                        y
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random calibrated slices across every bitwidth and SIMD-ragged
    /// lengths: each kernel's codes must equal the scalar element-wise
    /// `QuantParams::quantize` exactly.
    #[test]
    fn kernel_quantize_slice_bit_identical_across_kernels(
        len in 1usize..70,
        bi in 0usize..4,
        span in 0.01f32..100.0,
        seed in 0u64..1000,
    ) {
        let bits = Bitwidth::ALL[bi];
        let mut s = seed.wrapping_add(0x9a3e);
        let values: Vec<f32> = (0..len).map(|_| (unit_f32(&mut s) - 0.5) * span).collect();
        let params = QuantParams::calibrate_minmax(&values, bits);
        let want: Vec<u32> = values.iter().map(|&v| params.quantize(v)).collect();
        for kernel in Kernel::supported() {
            let got = params.quantize_slice_with(&values, kernel);
            prop_assert!(got == want, "{} disagrees with scalar at {:?}", kernel, bits);
        }
    }

    /// Full mixed-precision map quantization — random grids with ragged
    /// block tails and B0 blocks — compared struct-for-struct (params,
    /// packed codes, bitwidths) across kernels.
    #[test]
    fn kernel_mixed_map_quantize_bit_identical_across_kernels(
        n in 2usize..24,
        edge in 1usize..7,
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_add(0x517e);
        let map = Tensor::from_fn(&[n, n], |_| unit_f32(&mut s));
        let grid = BlockGrid::square(edge).unwrap();
        let (gr, gc) = grid.grid_dims(n, n);
        let bits: Vec<Bitwidth> = (0..gr * gc)
            .map(|_| match lcg(&mut s) % 4 {
                0 => Bitwidth::B0,
                1 => Bitwidth::B2,
                2 => Bitwidth::B4,
                _ => Bitwidth::B8,
            })
            .collect();
        let want = MixedPrecisionMap::quantize_with(&map, grid, &bits, Kernel::Scalar).unwrap();
        for kernel in Kernel::supported() {
            let got = MixedPrecisionMap::quantize_with(&map, grid, &bits, kernel).unwrap();
            prop_assert!(got == want, "{} map disagrees with scalar", kernel);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random tensors — lengths on both axes that are not multiples of the
    /// lane width, an offset range, and optional NaN/∞ lanes — through
    /// `fake_quant_2d` per row and per column on every kernel.
    #[test]
    fn kernel_fake_quant_2d_matches_definition(
        m in 1usize..14,
        n in 1usize..40,
        span in 0.01f32..100.0,
        offset in -50.0f32..50.0,
        poison in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_add(0xfa4e);
        let mut data: Vec<f32> = (0..m * n).map(|_| offset + (unit_f32(&mut s) - 0.5) * span).collect();
        if poison > 0 {
            let len = data.len();
            for _ in 0..poison {
                data[lcg(&mut s) as usize % len] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][poison - 1];
            }
        }
        assert_fake_quant_matches_definition(&Tensor::from_vec(&[m, n], data).unwrap())?;
    }
}

/// Adversarial groups, pinned deterministically, laid out as both the
/// columns and the rows of a tensor: NaN/±∞ lanes among ordinary values,
/// constant groups (positive, negative, zero, `−0.0`), all-non-finite
/// groups, mixed ±0 with and without other values, and ranges so far
/// from zero that the 8-bit zero point passes 2³⁰ (the scalar
/// fallback). 37 groups of 21 — neither a multiple of 8 — so every SIMD
/// loop also runs its ragged tail.
#[test]
fn kernel_fake_quant_2d_agrees_on_adversarial_inputs() {
    let group = |g: usize, i: usize| -> f32 {
        let ordinary = (i as f32 * 0.73 - 7.0) * 1.3;
        match g % 12 {
            0 => ordinary,
            1 => 3.25,
            2 => -0.5,
            3 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3],
            4 => [0.0, -0.0][i % 2],
            5 => [0.0, -0.0, 2.5, -1.0][i % 4],
            6 => 1.0e9 + 64.0 * (i % 3) as f32,
            7 => -1.0e9 - 64.0 * (i % 3) as f32,
            8 => [ordinary, f32::NAN][usize::from(i.is_multiple_of(5))],
            9 => [ordinary, f32::INFINITY, f32::NEG_INFINITY][i % 3],
            10 => -0.0,
            _ => 0.5 + (i % 2) as f32 * 1.0e-7,
        }
    };
    let (groups, len) = (37, 21);
    let by_cols = Tensor::from_fn(&[len, groups], |ix| group(ix[1], ix[0]));
    let by_rows = Tensor::from_fn(&[groups, len], |ix| group(ix[0], ix[1]));
    assert_fake_quant_matches_definition(&by_cols).unwrap();
    assert_fake_quant_matches_definition(&by_rows).unwrap();
    // The far-from-zero groups really do take the scalar fallback.
    let (_, params) =
        fake_quant_2d_with(&by_cols, Grouping::PerCol, Bitwidth::B8, Kernel::Scalar).unwrap();
    assert!(params[6].zero_point().unsigned_abs() > 1 << 30);
}

/// The uniform-parameter path (`QuantParams::fake_quant_slice`, behind
/// the per-tensor and block groupings) equals `fake_quant` per element on
/// every kernel, with the adversarial scales and zero points of the
/// quantize test and a length spanning several broadcast chunks.
#[test]
fn kernel_fake_quant_slice_agrees_on_adversarial_inputs() {
    let mut values: Vec<f32> = (0..131).map(|i| (i as f32 * 0.73 - 13.0) * 1.7).collect();
    values.extend([
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        3.0e12,
        -3.0e12,
        0.5,
        -0.5,
        -0.0,
        2.5,
    ]);
    for bits in Bitwidth::ALL {
        for (scale, zp) in [
            (0.01, 7),
            (1.0e-30, 0),
            (1.0, -3),
            (0.37, i32::MAX),
            (2.5, i32::MIN),
        ] {
            let params = QuantParams::new(scale, zp, bits);
            let want: Vec<u32> = values
                .iter()
                .map(|&v| params.fake_quant(v).to_bits())
                .collect();
            for kernel in Kernel::supported() {
                let got: Vec<u32> = params
                    .fake_quant_slice_with(&values, kernel)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "{kernel} {bits} scale={scale} zp={zp}");
            }
        }
    }
}

/// Adversarial parameters and inputs, pinned deterministically: NaN, ±∞,
/// exact halves (round-half-away ties), magnitudes past the i32-safe
/// conversion bound, a subnormal-producing scale, and zero-points at the
/// i32 extremes that force the whole-call scalar fallback.
#[test]
fn kernel_quantize_slice_agrees_on_adversarial_inputs() {
    let mut values: Vec<f32> = (0..37).map(|i| (i as f32 * 0.73 - 13.0) * 1.7).collect();
    values.extend([
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        3.0e12,
        -3.0e12,
        0.5,
        -0.5,
        1.5,
        2.5,
        -2.5,
        16_777_216.0,
        1_073_741_824.0,
    ]);
    for (scale, zp) in [
        (0.01, 7),
        (1.0e-30, 0),
        (1.0, -3),
        (0.37, i32::MAX),
        (2.5, i32::MIN),
    ] {
        let params = QuantParams::new(scale, zp, Bitwidth::B8);
        let want: Vec<u32> = values.iter().map(|&v| params.quantize(v)).collect();
        for kernel in Kernel::supported() {
            let got = params.quantize_slice_with(&values, kernel);
            assert_eq!(got, want, "{kernel} scale={scale} zp={zp}");
        }
    }
}

/// All-B0 maps quantize to the same empty payload on every kernel, and
/// B0 slices always return zero codes.
#[test]
fn kernel_quantize_b0_is_zero_on_every_kernel() {
    let params = QuantParams::new(1.0, 0, Bitwidth::B0);
    let values = [1.0f32, -2.0, f32::NAN, 1.0e30];
    for kernel in Kernel::supported() {
        assert_eq!(params.quantize_slice_with(&values, kernel), vec![0; 4]);
    }
    let map = Tensor::from_fn(&[6, 6], |i| (i[0] * 6 + i[1]) as f32 * 0.1);
    let grid = BlockGrid::square(4).unwrap();
    let bits = [Bitwidth::B0; 4];
    let want = MixedPrecisionMap::quantize_with(&map, grid, &bits, Kernel::Scalar).unwrap();
    for kernel in Kernel::supported() {
        let got = MixedPrecisionMap::quantize_with(&map, grid, &bits, kernel).unwrap();
        assert_eq!(got, want, "{kernel}");
    }
}
