//! Golden output bits of the DiT forward passes.
//!
//! Each case runs a fixed-seed forward pass and compares an FNV-1a
//! checksum of every output `f32` bit pattern against a pinned value.
//! The pins were recorded before the register-blocked GEMM and the fused
//! fake-quant kernel replaced the row-wise axpy and the scalar
//! quantize→dequantize loop, so they hold those kernels to the exact
//! bits of the code they replaced — on every dispatched kernel (CI also
//! runs this suite under `PARO_KERNEL=scalar`). Test names are prefixed
//! `kernel_` so the forced-kernel CI leg selects them.
//!
//! The text-prefixed model has 70 tokens, so the linears' `m` is not a
//! multiple of any micro-tile height and the f32 attention's `n` is not
//! a multiple of any lane width.

use paro_core::calibration::{calibrate_head, HeadCalibration};
use paro_core::exec::{forward, forward_calibrated, rms_norm, ForwardOptions};
use paro_core::pipeline::attention_map;
use paro_model::dit::SyntheticDit;
use paro_model::ModelConfig;
use paro_quant::{Bitwidth, BlockGrid};
use paro_tensor::rng::seeded;
use paro_tensor::Tensor;
use rand::distributions::Uniform;

/// FNV-1a over the shape and the little-endian bits of every element.
fn checksum(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let dims = t.shape().iter().map(|&d| d as u32);
    for word in dims.chain(t.as_slice().iter().map(|v| v.to_bits())) {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn content(cfg: &ModelConfig, seed: u64) -> Tensor {
    Tensor::random(
        &[cfg.total_tokens(), cfg.hidden],
        &Uniform::new(-0.5f32, 0.5),
        &mut seeded(seed),
    )
}

fn text_model() -> (SyntheticDit, Tensor) {
    let cfg = ModelConfig::tiny_with_text(4, 4, 4, 6);
    let dit = SyntheticDit::build(&cfg, 9);
    let x = content(&cfg, 13);
    (dit, x)
}

/// Frozen per-head plans calibrated on content separate from the input.
fn calibrations(dit: &SyntheticDit) -> Vec<Vec<HeadCalibration>> {
    let cfg = dit.config();
    let (n, hd) = (cfg.grid.len(), cfg.head_dim());
    let x = rms_norm(&content(cfg, 777).add(dit.positional()).unwrap());
    dit.blocks()
        .iter()
        .map(|block| {
            let q = x.matmul(&block.w_q).unwrap();
            let k = x.matmul(&block.w_k).unwrap();
            (0..cfg.heads)
                .map(|h| {
                    let map = attention_map(
                        &q.block(0, h * hd, n, hd).unwrap(),
                        &k.block(0, h * hd, n, hd).unwrap(),
                    )
                    .unwrap();
                    let block = BlockGrid::square(4).unwrap();
                    calibrate_head(&[map], &cfg.grid, block, Bitwidth::B4, 4.8, 0.5).unwrap()
                })
                .collect()
        })
        .collect()
}

fn assert_pinned(out: &Tensor, want: u64, case: &str) {
    let got = checksum(out);
    assert_eq!(
        got, want,
        "{case}: output checksum {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn kernel_golden_forward_calibrated_w8a8() {
    let cfg = ModelConfig::tiny(4, 4, 4);
    let dit = SyntheticDit::build(&cfg, 5);
    let cals = calibrations(&dit);
    let out = forward_calibrated(&dit, &content(&cfg, 11), &cals, true, true).unwrap();
    assert_pinned(&out, 0xa50f_8ef5_02c8_0496, "forward_calibrated");
}

#[test]
fn kernel_golden_forward_paro() {
    let (dit, x) = text_model();
    let (out, _) = forward(&dit, &x, &ForwardOptions::paro(4.8, 4)).unwrap();
    assert_pinned(&out, 0xd699_404b_89ea_fa4b, "forward paro(4.8, 4)");
}

#[test]
fn kernel_golden_forward_w4_linears() {
    let (dit, x) = text_model();
    let opts = ForwardOptions::paro(4.8, 4).with_linear_bits(Bitwidth::B4);
    let (out, _) = forward(&dit, &x, &opts).unwrap();
    assert_pinned(
        &out,
        0x7b2c_4332_9b60_b81e,
        "forward paro(4.8, 4) with B4 linears",
    );
}

#[test]
fn kernel_golden_forward_reference() {
    let (dit, x) = text_model();
    let (out, _) = forward(&dit, &x, &ForwardOptions::reference()).unwrap();
    assert_pinned(&out, 0x8608_149c_416b_7439, "forward reference");
}
