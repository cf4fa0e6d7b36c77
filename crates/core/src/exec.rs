//! Quantized forward execution of the synthetic DiT.
//!
//! Runs [`paro_model::dit::SyntheticDit`] end to end — QKV projections,
//! per-head quantized attention under any [`AttentionMethod`], output
//! projection, FFN, residuals — so the reproduction can measure error
//! *accumulation through a real multi-block forward pass*, not just one
//! isolated head. Linear layers optionally run under W8A8 fake
//! quantization, matching the paper's "quantize everything" software
//! configuration.

use crate::methods::AttentionMethod;
use crate::pipeline::{run_attention, AttentionInputs, AttentionRun};
use crate::CoreError;
use paro_model::dit::SyntheticDit;
use paro_model::AxisOrder;
use paro_quant::{fake_quant_2d, Bitwidth, Grouping};
use paro_tensor::Tensor;
use std::borrow::Cow;

/// Statistics collected during one forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardStats {
    /// Reorder plan selected per `(block, head)` (`None` for methods that
    /// do not reorder).
    pub plans: Vec<Vec<Option<AxisOrder>>>,
    /// Mean attention-map bitwidth over all heads.
    pub avg_bits: f32,
    /// Mean attention-map zero (skippable) fraction over all heads.
    pub map_sparsity: f32,
}

/// Options of a forward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardOptions {
    /// The attention quantization method applied to every head.
    pub method: AttentionMethod,
    /// Whether linear layers run under weight/activation fake quantization.
    pub linear_w8a8: bool,
    /// Bitwidth of the linear layers when `linear_w8a8` is set (the paper
    /// uses INT8; lower widths are the "why not W4 linears" ablation).
    pub linear_bits: Bitwidth,
}

impl ForwardOptions {
    /// Full-precision execution (reference).
    pub fn reference() -> Self {
        ForwardOptions {
            method: AttentionMethod::Fp16,
            linear_w8a8: false,
            linear_bits: Bitwidth::B8,
        }
    }

    /// The full PARO software configuration: W8A8 linears + mixed-precision
    /// attention at the given block edge.
    pub fn paro(budget: f32, block_edge: usize) -> Self {
        ForwardOptions {
            method: AttentionMethod::ParoMixed {
                budget,
                block_edge,
                alpha: 0.5,
                output_aware: true,
            },
            linear_w8a8: true,
            linear_bits: Bitwidth::B8,
        }
    }

    /// Overrides the linear-layer bitwidth (ablation).
    pub fn with_linear_bits(mut self, bits: Bitwidth) -> Self {
        self.linear_bits = bits;
        self
    }
}

/// Runs the DiT on `content` (`[n, hidden]`, added to the positional
/// embedding) and returns the output plus statistics.
///
/// # Errors
///
/// Returns shape errors if `content` does not match the model, and
/// propagates pipeline errors.
pub fn forward(
    dit: &SyntheticDit,
    content: &Tensor,
    opts: &ForwardOptions,
) -> Result<(Tensor, ForwardStats), CoreError> {
    let cfg = dit.config();
    let mut plans = vec![Vec::with_capacity(cfg.heads); cfg.blocks];
    let mut bits_sum = 0.0f32;
    let mut sparsity_sum = 0.0f32;
    let mut head_count = 0usize;
    let method = opts.method;
    let x = forward_blocks(
        dit,
        content,
        opts.linear_w8a8.then_some(opts.linear_bits),
        |_, _| Box::new(move |inputs| run_attention(inputs, &method)),
        |block, run| {
            plans[block].push(run.plan.as_ref().map(|p| p.order()));
            bits_sum += run.avg_bits;
            sparsity_sum += run.map_sparsity;
            head_count += 1;
        },
    )?;
    let stats = ForwardStats {
        plans,
        avg_bits: bits_sum / head_count.max(1) as f32,
        map_sparsity: sparsity_sum / head_count.max(1) as f32,
    };
    Ok((x, stats))
}

/// Runs the DiT with **frozen per-head calibrations** — the deployment
/// path: no online plan search or allocation; `calibrations[block][head]`
/// supplies each head's offline reorder plan and bit assignment, exactly
/// as the accelerator's configuration tables would.
///
/// # Errors
///
/// Returns [`CoreError::EmptyAllocation`] if the calibration table does
/// not cover every `(block, head)`, plus the usual shape errors.
pub fn forward_calibrated(
    dit: &SyntheticDit,
    content: &Tensor,
    calibrations: &[Vec<crate::calibration::HeadCalibration>],
    linear_w8a8: bool,
    output_aware: bool,
) -> Result<Tensor, CoreError> {
    let cfg = dit.config();
    if calibrations.len() != cfg.blocks || calibrations.iter().any(|b| b.len() != cfg.heads) {
        return Err(CoreError::EmptyAllocation);
    }
    forward_blocks(
        dit,
        content,
        linear_w8a8.then_some(Bitwidth::B8),
        |block, head| {
            let cal = calibrations[block][head].clone();
            Box::new(move |inputs| {
                crate::pipeline::run_attention_calibrated(inputs, &cal, output_aware)
            })
        },
        |_, _| {},
    )
}

/// One head's attention, run on the shared compute pool.
type HeadAttention = Box<dyn FnOnce(&AttentionInputs) -> Result<AttentionRun, CoreError> + Send>;

/// The DiT block loop both forward passes share: per block, pre-norm →
/// QKV → per-head attention fanned out on the shared compute pool → O
/// projection → residual, then pre-norm → FFN → residual. `head(block,
/// head)` builds each head's attention; `observe(block, run)` sees every
/// head's run in head order. `lb` is the linear layers' fake
/// quantization width (`None` = full precision).
fn forward_blocks(
    dit: &SyntheticDit,
    content: &Tensor,
    lb: Option<Bitwidth>,
    mut head: impl FnMut(usize, usize) -> HeadAttention,
    mut observe: impl FnMut(usize, &AttentionRun),
) -> Result<Tensor, CoreError> {
    let cfg = dit.config();
    let n = cfg.total_tokens();
    let d = cfg.hidden;
    if content.shape() != [n, d] {
        return Err(CoreError::GridMismatch {
            tokens: content.shape().first().copied().unwrap_or(0),
            grid_len: n,
        });
    }
    let hd = cfg.head_dim();
    let mut x = content.add(dit.positional())?;
    for (bi, block) in dit.blocks().iter().enumerate() {
        // --- attention sub-layer (pre-norm residual) ---
        // Q, K and V read the same normed activation: quantize it once.
        let (q, k, v) = {
            let normed = rms_norm(&x);
            let xq = quantize_input(&normed, lb)?;
            (
                project(&xq, &block.w_q, lb)?,
                project(&xq, &block.w_k, lb)?,
                project(&xq, &block.w_v, lb)?,
            )
        };
        // Heads are independent: fan them out on the shared compute pool,
        // then assemble the concatenated output. The pool is sized by
        // available_parallelism and reused across blocks and forward
        // passes — no per-block thread spawning.
        let mut jobs: Vec<Box<dyn FnOnce() -> Result<AttentionRun, CoreError> + Send>> =
            Vec::with_capacity(cfg.heads);
        for h in 0..cfg.heads {
            let qs = q.block(0, h * hd, n, hd)?;
            let ks = k.block(0, h * hd, n, hd)?;
            let vs = v.block(0, h * hd, n, hd)?;
            let grid = cfg.grid;
            let text = cfg.text_tokens;
            let attend = head(bi, h);
            jobs.push(Box::new(move || {
                attend(&AttentionInputs::with_text(qs, ks, vs, grid, text)?)
            }));
        }
        let mut attn_out = Tensor::zeros(&[n, d]);
        for (h, run) in crate::pool::ComputePool::global()
            .run_many(jobs)
            .into_iter()
            .enumerate()
        {
            let run = run?;
            attn_out.set_block(0, h * hd, &run.output)?;
            observe(bi, &run);
        }
        let o = linear(&attn_out, &block.w_o, lb)?;
        x = x.add(&o)?;

        // --- FFN sub-layer (pre-norm residual) ---
        let normed = rms_norm(&x);
        let up = linear(&normed, &block.w_ffn_up, lb)?;
        let act = up.map(gelu);
        let down = linear(&act, &block.w_ffn_down, lb)?;
        x = x.add(&down)?;
    }
    Ok(x)
}

/// A linear layer, optionally quantized: per-token (row) activations x
/// per-dimension (column) weights at the given bitwidth (`None` = full
/// precision).
fn linear(x: &Tensor, w: &Tensor, bits: Option<Bitwidth>) -> Result<Tensor, CoreError> {
    project(&*quantize_input(x, bits)?, w, bits)
}

/// A linear layer's input side: per-token (row) fake quantization at
/// `bits`, or `x` itself at full precision.
fn quantize_input(x: &Tensor, bits: Option<Bitwidth>) -> Result<Cow<'_, Tensor>, CoreError> {
    Ok(match bits {
        None => Cow::Borrowed(x),
        Some(bits) => Cow::Owned(fake_quant_2d(x, Grouping::PerRow, bits)?.0),
    })
}

/// A linear layer's weight side: `xq · w` with `w` fake-quantized per
/// dimension (column) at `bits`. The quantized weight lives only for the
/// product — no copy of the weights outlives the call.
fn project(xq: &Tensor, w: &Tensor, bits: Option<Bitwidth>) -> Result<Tensor, CoreError> {
    let Some(bits) = bits else {
        return Ok(xq.matmul(w)?);
    };
    Ok(xq.matmul(&fake_quant_2d(w, Grouping::PerCol, bits)?.0)?)
}

/// Row-wise RMS normalization (the pre-norm that keeps residual scales
/// stable through blocks).
pub fn rms_norm(x: &Tensor) -> Tensor {
    let (m, n) = (x.shape()[0], x.shape()[1]);
    let a = x.as_slice();
    let mut out = vec![0.0f32; m * n];
    for r in 0..m {
        let row = &a[r * n..(r + 1) * n];
        let rms = (row.iter().map(|v| v * v).sum::<f32>() / n as f32)
            .sqrt()
            .max(1e-6);
        for (o, &v) in out[r * n..(r + 1) * n].iter_mut().zip(row) {
            *o = v / rms;
        }
    }
    Tensor::from_vec(&[m, n], out).expect("size preserved")
}

/// Tanh-approximated GELU.
fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paro_model::ModelConfig;
    use paro_tensor::rng::seeded;
    use paro_tensor::{metrics, Tensor};
    use rand::distributions::Uniform;

    fn setup() -> (SyntheticDit, Tensor) {
        let cfg = ModelConfig::tiny(4, 4, 4);
        let dit = SyntheticDit::build(&cfg, 5);
        let content = Tensor::random(
            &[cfg.grid.len(), cfg.hidden],
            &Uniform::new(-0.5f32, 0.5),
            &mut seeded(11),
        );
        (dit, content)
    }

    #[test]
    fn forward_produces_finite_output() {
        let (dit, content) = setup();
        let (out, stats) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        assert_eq!(out.shape(), &[64, 128]);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(stats.plans.len(), dit.config().blocks);
        assert_eq!(stats.avg_bits, 16.0);
    }

    #[test]
    fn dit_attention_exhibits_planted_patterns() {
        // The DiT's projection weights must reproduce the per-head planted
        // pattern: the plan selected for each head should make that head's
        // pattern groups contiguous (i.e. match one of its contiguity
        // orders).
        let (dit, content) = setup();
        let opts = ForwardOptions {
            method: AttentionMethod::ParoInt {
                bits: Bitwidth::B4,
                block_edge: 4,
            },
            linear_w8a8: false,
            linear_bits: Bitwidth::B8,
        };
        let (_, stats) = forward(&dit, &content, &opts).unwrap();
        let grid = dit.config().grid;
        let mut matched = 0usize;
        let mut total = 0usize;
        for (b, block_plans) in stats.plans.iter().enumerate() {
            for (h, plan) in block_plans.iter().enumerate() {
                let kind = dit.head_pattern(b, h);
                let order = plan.expect("ParoInt reorders");
                // Check group contiguity of the selected order.
                let idx = grid.reorder_indices(order);
                let mut seen = std::collections::HashSet::new();
                let mut current = usize::MAX;
                let mut contiguous = true;
                for &t in &idx {
                    let g = kind.group_of(&grid, t);
                    if g != current {
                        if !seen.insert(g) {
                            contiguous = false;
                            break;
                        }
                        current = g;
                    }
                }
                if contiguous {
                    matched += 1;
                }
                total += 1;
            }
        }
        assert!(
            matched * 10 >= total * 8,
            "only {matched}/{total} heads got a pattern-contiguous plan"
        );
    }

    #[test]
    fn quantized_forward_tracks_reference() {
        let (dit, content) = setup();
        let (reference, _) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        let (quantized, stats) = forward(&dit, &content, &ForwardOptions::paro(4.8, 4)).unwrap();
        let err = metrics::relative_l2(&reference, &quantized).unwrap();
        assert!(
            err < 0.15,
            "full PARO forward should stay close to reference, err {err}"
        );
        assert!(stats.avg_bits <= 4.8 + 1e-3);
        assert!(stats.map_sparsity > 0.0);
    }

    #[test]
    fn naive_int4_forward_much_worse() {
        let (dit, content) = setup();
        let (reference, _) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        let naive = ForwardOptions {
            method: AttentionMethod::NaiveInt { bits: Bitwidth::B4 },
            linear_w8a8: true,
            linear_bits: Bitwidth::B8,
        };
        let (nout, _) = forward(&dit, &content, &naive).unwrap();
        let (pout, _) = forward(&dit, &content, &ForwardOptions::paro(4.8, 4)).unwrap();
        let nerr = metrics::relative_l2(&reference, &nout).unwrap();
        let perr = metrics::relative_l2(&reference, &pout).unwrap();
        assert!(
            perr < nerr,
            "PARO forward err {perr} should beat naive INT4 {nerr}"
        );
    }

    #[test]
    fn text_token_dit_forward() {
        // A DiT with a prompt prefix: the forward pass threads the text
        // tokens through every head's quantized attention with the reorder
        // pinning them in place.
        let cfg = ModelConfig::tiny_with_text(4, 4, 4, 6);
        let dit = SyntheticDit::build(&cfg, 9);
        assert_eq!(dit.positional().shape(), &[70, 128]);
        let content = Tensor::random(
            &[cfg.total_tokens(), cfg.hidden],
            &Uniform::new(-0.5f32, 0.5),
            &mut seeded(13),
        );
        let (reference, _) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        let (quantized, stats) = forward(&dit, &content, &ForwardOptions::paro(4.8, 4)).unwrap();
        assert_eq!(reference.shape(), &[70, 128]);
        let err = metrics::relative_l2(&reference, &quantized).unwrap();
        assert!(err < 0.2, "text-aware PARO forward err {err}");
        assert!(stats.avg_bits <= 4.8 + 1e-3);
        // Content sized for the visual grid only must be rejected.
        let bad = Tensor::zeros(&[cfg.grid.len(), cfg.hidden]);
        assert!(forward(&dit, &bad, &ForwardOptions::reference()).is_err());
    }

    #[test]
    fn w4_linears_degrade_vs_w8() {
        // The "why the paper stops at W8A8 for linears" ablation: pushing
        // the linear layers to 4 bits hurts noticeably, while the attention
        // map tolerates much lower average bits — the asymmetry PARO's
        // design exploits (attention is both the bottleneck AND the more
        // quantizable tensor).
        let (dit, content) = setup();
        let (reference, _) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        let w8 = ForwardOptions::paro(4.8, 4);
        let w4 = ForwardOptions::paro(4.8, 4).with_linear_bits(Bitwidth::B4);
        let (out8, _) = forward(&dit, &content, &w8).unwrap();
        let (out4, _) = forward(&dit, &content, &w4).unwrap();
        let e8 = metrics::relative_l2(&reference, &out8).unwrap();
        let e4 = metrics::relative_l2(&reference, &out4).unwrap();
        assert!(
            e4 > e8 * 2.0,
            "W4 linears ({e4}) should be clearly worse than W8 ({e8})"
        );
    }

    #[test]
    fn calibrated_forward_matches_online_quality() {
        // The full deployment loop at model scope: calibrate every head
        // offline (on separate content), then run the frozen configuration
        // on unseen content and compare against the online pipeline.
        use crate::calibration::calibrate_head;
        use crate::pipeline::attention_map;
        let (dit, content) = setup();
        let cfg = dit.config().clone();
        let hd = cfg.head_dim();
        let block_grid = paro_quant::BlockGrid::square(4).unwrap();
        // Calibration content (different seed from the test content).
        let calib_content = Tensor::random(
            &[cfg.grid.len(), cfg.hidden],
            &Uniform::new(-0.5f32, 0.5),
            &mut seeded(777),
        );
        let x = rms_norm(&calib_content.add(dit.positional()).unwrap());
        let mut calibrations = Vec::new();
        for block in dit.blocks() {
            let q = x.matmul(&block.w_q).unwrap();
            let k = x.matmul(&block.w_k).unwrap();
            let mut per_head = Vec::new();
            for h in 0..cfg.heads {
                let map = attention_map(
                    &q.block(0, h * hd, cfg.grid.len(), hd).unwrap(),
                    &k.block(0, h * hd, cfg.grid.len(), hd).unwrap(),
                )
                .unwrap();
                per_head.push(
                    calibrate_head(&[map], &cfg.grid, block_grid, Bitwidth::B4, 4.8, 0.5).unwrap(),
                );
            }
            calibrations.push(per_head);
        }
        let (reference, _) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        let frozen = forward_calibrated(&dit, &content, &calibrations, true, true).unwrap();
        let err = metrics::relative_l2(&reference, &frozen).unwrap();
        assert!(err < 0.2, "frozen model-scope inference err {err}");
        // Wrong-shaped calibration table rejected.
        assert!(forward_calibrated(&dit, &content, &calibrations[..1], true, true).is_err());
    }

    #[test]
    fn content_shape_validated() {
        let (dit, _) = setup();
        let bad = Tensor::zeros(&[10, 128]);
        assert!(matches!(
            forward(&dit, &bad, &ForwardOptions::reference()),
            Err(CoreError::GridMismatch { .. })
        ));
    }

    #[test]
    fn rms_norm_rows_are_unit_rms() {
        let x = Tensor::from_fn(&[3, 8], |i| (i[0] * 8 + i[1]) as f32 - 10.0);
        let n = rms_norm(&x);
        for r in 0..3 {
            let row = n.block(r, 0, 1, 8).unwrap();
            let rms = (row.as_slice().iter().map(|v| v * v).sum::<f32>() / 8.0).sqrt();
            assert!((rms - 1.0).abs() < 1e-4);
        }
    }
}
