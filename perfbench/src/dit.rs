//! `dit_ddim`: a DDIM trajectory through the synthetic DiT on frozen
//! per-head plans.
//!
//! At 384 tokens the N·d² linears outweigh the N²·d attention, so this
//! workload moves with the forward pass and the W8A8 linears; attention
//! is a minority share and the serving engine is not on the path.

use crate::report::{Outcome, Phase};
use crate::stats;
use crate::{same_bits, timed, BoxResult};
use paro::artifact::ArtifactBuilder;
use paro::core::artifact::{head_record, plan_meta};
use paro::core::calibration::{calibrate_head, HeadCalibration};
use paro::core::diffusion::DdimSampler;
use paro::core::exec::{forward_calibrated, rms_norm, ForwardOptions};
use paro::core::int_pipeline::{run_attention_calibrated_int, IntAttentionRun, IntPathStats};
use paro::core::pipeline::{attention_map, AttentionInputs};
use paro::core::pool::ComputePool;
use paro::core::CoreError;
use paro::model::dit::SyntheticDit;
use paro::model::ModelConfig;
use paro::quant::{fake_quant_2d, Bitwidth, BlockGrid, Grouping};
use paro::tensor::rng::{derive_seed, seeded};
use paro::tensor::{metrics, Tensor};
use rand::distributions::Uniform;
use std::time::{Duration, Instant};

/// Denoising steps per trajectory.
pub const STEPS: usize = 20;
/// Quantization block edge (the serving default).
const BLOCK_EDGE: usize = 6;
/// Mixed-precision attention-map budget, average bits.
const BUDGET: f32 = 4.8;
/// Sensitivity mixing weight of the calibration (the serving default).
const ALPHA: f32 = 0.5;
/// Calibration contents per head.
const CALIB_SAMPLES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Every how many steps the traced trajectory replays the forward pass
/// layer by layer.
const REPLAY_EVERY: usize = 5;

/// The CogVideoX-shaped synthetic DiT: head_dim 64, 4 heads, hidden 256,
/// 2 blocks, 6×8×8 = 384 tokens.
pub fn model() -> ModelConfig {
    let mut cfg = ModelConfig::tiny(6, 8, 8);
    cfg.name = "CogVideoX-shaped-DiT@6x8x8".to_string();
    cfg.hidden = 256;
    cfg.steps = STEPS;
    cfg
}

/// Everything the workload derives from its seed.
pub struct Inputs {
    /// The network (weights and positional embedding).
    pub dit: SyntheticDit,
    /// Calibration contents, separate from the sampled trajectory.
    pub calib_contents: Vec<Tensor>,
    /// Seed of the trajectory's initial noise.
    pub noise_seed: u64,
}

/// Builds the workload's inputs from `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let cfg = model();
    let dist = Uniform::new(-0.5f32, 0.5);
    Inputs {
        dit: SyntheticDit::build(&cfg, derive_seed(seed, 1)),
        calib_contents: (0..CALIB_SAMPLES)
            .map(|s| {
                Tensor::random(
                    &[cfg.total_tokens(), cfg.hidden],
                    &dist,
                    &mut seeded(derive_seed(seed, 100 + s as u64)),
                )
            })
            .collect(),
        noise_seed: derive_seed(seed, 2),
    }
}

/// Frozen plans plus how long their set-up steps took.
struct Plans {
    cals: Vec<Vec<HeadCalibration>>,
    calibrate_ms: Vec<f64>,
    load_ms: f64,
}

/// Calibrates every head on the DiT's own attention maps, freezes the
/// plans into an artifact and thaws them back, as a deployment would.
fn freeze_plans(inputs: &Inputs) -> BoxResult<Plans> {
    let cfg = inputs.dit.config();
    let (n, hd) = (cfg.total_tokens(), cfg.head_dim());
    let block = BlockGrid::square(BLOCK_EDGE)?;
    let normed: Vec<Tensor> = inputs
        .calib_contents
        .iter()
        .map(|c| Ok(rms_norm(&c.add(inputs.dit.positional())?)))
        .collect::<Result<_, CoreError>>()?;
    let mut builder = ArtifactBuilder::new(plan_meta(cfg, block, Bitwidth::B4, BUDGET, ALPHA));
    let mut calibrate_ms = Vec::new();
    for (bi, weights) in inputs.dit.blocks().iter().enumerate() {
        let mut maps = vec![Vec::new(); cfg.heads];
        for x in &normed {
            let (q, k) = (x.matmul(&weights.w_q)?, x.matmul(&weights.w_k)?);
            for (h, head_maps) in maps.iter_mut().enumerate() {
                head_maps.push(attention_map(
                    &q.block(0, h * hd, n, hd)?,
                    &k.block(0, h * hd, n, hd)?,
                )?);
            }
        }
        for (h, head_maps) in maps.iter().enumerate() {
            let (cal, d) =
                timed(|| calibrate_head(head_maps, &cfg.grid, block, Bitwidth::B4, BUDGET, ALPHA));
            calibrate_ms.push(ms(d));
            builder.push_head(head_record(bi as u32, h as u32, &cal?));
        }
    }
    let bytes = builder.build()?;
    let (cals, d) = timed(|| crate::thaw(&bytes, cfg.blocks, cfg.heads));
    Ok(Plans {
        cals: cals?,
        calibrate_ms,
        load_ms: ms(d),
    })
}

/// `DdimSampler::sample`'s update with an arbitrary noise predictor.
/// Returns the final latent; each step's duration goes to `step_times`.
pub fn sample_with(
    sampler: &DdimSampler,
    cfg: &ModelConfig,
    noise_seed: u64,
    step_times: &mut Vec<Duration>,
    mut predict: impl FnMut(usize, &Tensor) -> BoxResult<Tensor>,
) -> BoxResult<Tensor> {
    let (n, d) = (cfg.total_tokens(), cfg.hidden);
    let mut z = Tensor::random(
        &[n, d],
        &Uniform::new(-1.0f32, 1.0),
        &mut seeded(noise_seed),
    );
    for i in (1..=sampler.steps()).rev() {
        let t0 = Instant::now();
        let (ab_t, ab_prev) = (sampler.alpha_bar(i), sampler.alpha_bar(i - 1));
        let eps = normalize_rms(&predict(i, &z)?);
        let x0 = z
            .sub(&eps.scale((1.0 - ab_t).sqrt()))?
            .scale(1.0 / ab_t.sqrt())
            .map(|v| v.clamp(-3.0, 3.0));
        z = x0
            .scale(ab_prev.sqrt())
            .add(&eps.scale((1.0 - ab_prev).sqrt()))?;
        step_times.push(t0.elapsed());
    }
    Ok(z)
}

fn normalize_rms(x: &Tensor) -> Tensor {
    let rms = (x.as_slice().iter().map(|v| v * v).sum::<f32>() / x.len().max(1) as f32)
        .sqrt()
        .max(1e-6);
    x.scale(1.0 / rms)
}

/// `forward_calibrated` rebuilt from the layers' public functions, with
/// one span per layer call so the traced run can split a forward pass.
/// Must stay bit-identical to `forward_calibrated` (checked every call).
fn replay_forward(
    dit: &SyntheticDit,
    content: &Tensor,
    cals: &[Vec<HeadCalibration>],
    head_stats: &mut Vec<IntPathStats>,
) -> BoxResult<Tensor> {
    let cfg = dit.config();
    let (n, hd) = (cfg.total_tokens(), cfg.head_dim());
    let norm = |x: &Tensor| {
        let _s = paro::trace::span("dit.rms_norm");
        rms_norm(x)
    };
    let mut x = content.add(dit.positional())?;
    for (bi, block) in dit.blocks().iter().enumerate() {
        let normed = norm(&x);
        let (q, k, v) = (
            linear(&normed, &block.w_q)?,
            linear(&normed, &block.w_k)?,
            linear(&normed, &block.w_v)?,
        );
        let attn_out = {
            let _s = paro::trace::span("dit.attention");
            let mut jobs: Vec<Box<dyn FnOnce() -> Result<IntAttentionRun, CoreError> + Send>> =
                Vec::with_capacity(cfg.heads);
            for (h, cal) in cals[bi].iter().enumerate() {
                let inputs = AttentionInputs::with_text(
                    q.block(0, h * hd, n, hd)?,
                    k.block(0, h * hd, n, hd)?,
                    v.block(0, h * hd, n, hd)?,
                    cfg.grid,
                    cfg.text_tokens,
                )?;
                let cal = cal.clone();
                jobs.push(Box::new(move || {
                    let _s = paro::trace::span(crate::HEAD_SPAN);
                    run_attention_calibrated_int(&inputs, &cal, true)
                }));
            }
            let mut out = Tensor::zeros(&[n, cfg.hidden]);
            for (h, head) in ComputePool::global().run_many(jobs).into_iter().enumerate() {
                let head = head?;
                out.set_block(0, h * hd, &head.run.output)?;
                head_stats.push(head.stats);
            }
            out
        };
        x = x.add(&linear(&attn_out, &block.w_o)?)?;
        let normed = norm(&x);
        let act = linear(&normed, &block.w_ffn_up)?.map(gelu);
        x = x.add(&linear(&act, &block.w_ffn_down)?)?;
    }
    Ok(x)
}

/// A W8A8 linear: per-row activations × per-column weights, as in
/// `paro_core::exec`.
fn linear(x: &Tensor, w: &Tensor) -> BoxResult<Tensor> {
    let (xq, wq) = {
        let _s = paro::trace::span("dit.linear.fake_quant");
        (
            fake_quant_2d(x, Grouping::PerRow, Bitwidth::B8)?.0,
            fake_quant_2d(w, Grouping::PerCol, Bitwidth::B8)?.0,
        )
    };
    let _s = paro::trace::span("dit.linear.matmul");
    Ok(xq.matmul(&wq)?)
}

/// Tanh-approximated GELU, as in `paro_core::exec`.
fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the workload: set-up `SETUPS` times, then DDIM trajectories on
/// the frozen plans for `seconds`, then (traced runs only) one traced
/// trajectory with a layer-by-layer replay every `REPLAY_EVERY` steps.
pub fn run(seed: u64, seconds: u64, trace: bool) -> BoxResult<Outcome> {
    let mut setup_s = Vec::new();
    let mut calibrate_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let inputs = inputs(seed);
        let plans = freeze_plans(&inputs)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        calibrate_ms.extend(plans.calibrate_ms.iter().copied());
        load_ms.push(plans.load_ms);
        last = Some((inputs, plans.cals));
    }
    let (inputs, cals) = last.expect("SETUPS > 0");
    let dit = &inputs.dit;
    let cfg = dit.config();
    let sampler = DdimSampler::new(STEPS);
    let forward = |z: &Tensor| -> BoxResult<Tensor> {
        let _s = paro::trace::span("dit.forward");
        Ok(forward_calibrated(dit, z, &cals, true, true)?)
    };

    // Timed phase: whole trajectories until the window closes.
    let mut steps = Vec::new();
    let mut trajectories = Vec::new();
    let mut finals: Vec<Tensor> = Vec::new();
    // The reference computation runs at the start of each step and is
    // taken out of the step's time.
    let mut reference_ms = Vec::new();
    let pool0 = ComputePool::global().stats();
    let window = Instant::now();
    while window.elapsed() < Duration::from_secs(seconds) || trajectories.is_empty() {
        let t0 = Instant::now();
        let z = sample_with(&sampler, cfg, inputs.noise_seed, &mut steps, |_, z| {
            reference_ms.push(crate::reference::time_ms());
            forward(z)
        })?;
        trajectories.push(t0.elapsed().as_secs_f64());
        finals.push(z);
    }
    let wall = window.elapsed();
    let pool = ComputePool::global().stats();

    let mut out = Outcome::new(Phase::Dit);
    let step_ms: Vec<f64> = steps
        .iter()
        .zip(&reference_ms)
        .map(|(d, r)| ms(*d) - r)
        .collect();
    // Every trajectory of one seed must land on the same bits.
    out.attempted = finals.len() as u64;
    out.failed = finals.iter().filter(|f| !same_bits(f, &finals[0])).count() as u64;

    let reference = sampler.sample(dit, &ForwardOptions::reference(), inputs.noise_seed)?;
    let fidelity = metrics::relative_l2(reference.final_latent(), &finals[0])? as f64;

    out.set_steps(&step_ms, &reference_ms);
    out.e2e("setup_s", stats::median(&setup_s));
    out.e2e("fidelity_rel_l2", fidelity);
    out.note("trajectory_s", stats::median(&trajectories));
    out.note("steps_per_s", steps.len() as f64 / wall.as_secs_f64());
    out.layer("pool.busy_fraction", pool.busy_fraction_since(&pool0, wall));
    out.layer(
        "pool.jobs",
        (pool.executed_jobs - pool0.executed_jobs) as f64,
    );
    out.layer("calibrate.head_ms_p50", stats::median(&calibrate_ms));
    out.layer("plan.load_ms", stats::median(&load_ms));
    out.note("trajectories", finals.len() as f64);
    out.note("steps", steps.len() as f64);

    if trace {
        let mut traced_steps = Vec::new();
        let mut replay_failed = 0u64;
        let mut replays = 0u64;
        let mut head_stats = Vec::new();
        // One session per step: a whole traced trajectory records more
        // spans on the pool thread than its buffer keeps. Opening and
        // draining a session is the benchmark's cost, not tracing's, so
        // it is taken out of the step's time.
        let mut trace = paro::trace::Trace {
            records: Vec::new(),
            dropped: 0,
        };
        let mut session_time = Vec::new();
        let mut reference_all = Vec::new();
        let z = sample_with(
            &sampler,
            cfg,
            inputs.noise_seed,
            &mut traced_steps,
            |i, z| {
                reference_all.push(crate::reference::time_ms());
                let (session, open) = timed(paro::trace::TraceSession::start);
                let eps = forward(z)?;
                if i.is_multiple_of(REPLAY_EVERY) {
                    replays += 1;
                    if !same_bits(&replay_forward(dit, z, &cals, &mut head_stats)?, &eps) {
                        replay_failed += 1;
                    }
                }
                let (step, drain) = timed(|| session.finish());
                trace.records.extend(step.records);
                trace.dropped += step.dropped;
                session_time.push(open + drain);
                Ok(eps)
            },
        )?;
        // The traced trajectory is checked like the timed ones.
        out.attempted += 1 + replays;
        out.failed += u64::from(!same_bits(&z, &finals[0])) + replay_failed;
        // Replay steps are excluded: their time is the replay's, not
        // the step's.
        let (traced_ms, traced_reference): (Vec<f64>, Vec<f64>) = traced_steps
            .iter()
            .zip(&session_time)
            .zip(&reference_all)
            .enumerate()
            .filter(|(k, _)| !(STEPS - k).is_multiple_of(REPLAY_EVERY))
            .map(|(_, ((step, session), r))| (ms(*step - *session) - r, *r))
            .unzip();
        out.overhead_pct(
            stats::median_ratio(&traced_ms, &traced_reference),
            stats::median_ratio(&step_ms, &reference_ms),
        );
        let per_replay = |stage: &str| {
            stats::stage_total(&trace.records, stage).0 as f64 / 1e6 / replays.max(1) as f64
        };
        let (fwd_ns, fwd_n) = stats::stage_total(&trace.records, "dit.forward");
        let forward_ms = fwd_ns as f64 / 1e6 / fwd_n.max(1) as f64;
        let parts = [
            ("dit.rms_norm_ms", per_replay("dit.rms_norm")),
            (
                "dit.linear.fake_quant_ms",
                per_replay("dit.linear.fake_quant"),
            ),
            ("dit.linear.matmul_ms", per_replay("dit.linear.matmul")),
            ("dit.attention_ms", per_replay("dit.attention")),
        ];
        out.layer("dit.forward_ms", forward_ms);
        for (name, v) in parts {
            out.layer(name, v);
        }
        out.layer(
            "dit.unattributed_ms",
            forward_ms - parts.iter().map(|(_, v)| v).sum::<f64>(),
        );
        out.pipeline(&trace, &head_stats, cfg.total_tokens());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        let (a, b, c) = (inputs(7), inputs(7), inputs(8));
        assert_eq!(a.dit, b.dit);
        assert_eq!(a.calib_contents, b.calib_contents);
        assert_eq!(a.noise_seed, b.noise_seed);
        assert_ne!(a.dit, c.dit);
        assert_ne!(a.calib_contents, c.calib_contents);
        assert_ne!(a.noise_seed, c.noise_seed);
    }

    #[test]
    fn sampler_mirror_matches_ddim_sampler() {
        // This loop's update must be DdimSampler::sample's exactly.
        let cfg = ModelConfig::tiny(2, 2, 2);
        let dit = SyntheticDit::build(&cfg, 3);
        let sampler = DdimSampler::new(3);
        let opts = ForwardOptions::reference();
        let expected = sampler.sample(&dit, &opts, 5).unwrap();
        let mut times = Vec::new();
        let z = sample_with(&sampler, &cfg, 5, &mut times, |_, z| {
            Ok(paro::core::exec::forward(&dit, z, &opts)?.0)
        })
        .unwrap();
        assert!(same_bits(&z, expected.final_latent()));
        assert_eq!(times.len(), 3);
    }

    #[test]
    fn replay_is_bit_identical_to_forward_calibrated() {
        let inputs = inputs(3);
        let plans = freeze_plans(&inputs).unwrap();
        let cfg = inputs.dit.config();
        let content = Tensor::random(
            &[cfg.total_tokens(), cfg.hidden],
            &Uniform::new(-1.0f32, 1.0),
            &mut seeded(9),
        );
        let direct = forward_calibrated(&inputs.dit, &content, &plans.cals, true, true).unwrap();
        let mut stats = Vec::new();
        let replayed = replay_forward(&inputs.dit, &content, &plans.cals, &mut stats).unwrap();
        assert!(same_bits(&direct, &replayed));
        assert_eq!(stats.len(), 8);
    }
}
