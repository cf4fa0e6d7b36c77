//! `serve_small`: the serving engine on frozen plans built in-process,
//! under a closed loop of clients that step through the blocks, each
//! time submitting one block's heads together and waiting for all of
//! them.
//!
//! At 384 tokens a request costs about 6 ms, so admission, scheduling
//! and queue hand-offs are a visible share of a step.

use crate::report::{Outcome, Phase};
use crate::{same_bits, stats, thaw, timed, BoxResult, HEAD_SPAN};
use paro::artifact::ArtifactBuilder;
use paro::core::artifact::{head_record, plan_meta};
use paro::core::calibration::{calibrate_head, HeadCalibration};
use paro::core::int_pipeline::{run_attention_calibrated_int, IntPathStats};
use paro::core::pipeline::reference_attention;
use paro::core::pool::ComputePool;
use paro::model::ModelConfig;
use paro::quant::BlockGrid;
use paro::serve::workload::{scaled_config, synthetic_requests, SyntheticSource, WorkloadSpec};
use paro::serve::{CalibrationSource, Engine, ServeConfig, ServeRequest};
use paro::tensor::rng::derive_seed;
use paro::tensor::{metrics, Tensor};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Latent grid of the scaled CogVideoX-2B model: 6×8×8 = 384 tokens.
const GRID: (usize, usize, usize) = (6, 8, 8);
/// Transformer blocks served.
const BLOCKS: usize = 2;
/// Heads per block served: one client batch.
const HEADS: usize = 4;
/// Distinct inputs per head that the clients cycle through.
const VARIANTS: usize = 8;
/// Calibration maps per head.
const CALIB_SAMPLES: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Steps per client in the traced closed loop: about 10^6 spans, since
/// the pipeline records about two spans per attention-map block and the
/// recorder keeps at most 2^20 per thread.
const TRACED_STEPS: usize = 8;

/// Quantization block edge (the serving default).
const BLOCK_EDGE: usize = 6;
/// Mixed-precision attention-map budget, average bits.
const BUDGET: f32 = 4.8;

/// Everything the workload derives from its seed.
pub struct Inputs {
    /// The scaled model.
    pub model: ModelConfig,
    /// One request per (variant, block, head), in `synthetic_requests`
    /// order: request `r` is pair `r % pairs`, variant `r / pairs`.
    pub requests: Vec<ServeRequest>,
    /// The calibration set.
    pub source: SyntheticSource,
}

/// Builds the workload's inputs from `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let model = scaled_config(&ModelConfig::cogvideox_2b(), GRID.0, GRID.1, GRID.2);
    let requests = synthetic_requests(&WorkloadSpec {
        model: model.clone(),
        requests: BLOCKS * HEADS * VARIANTS,
        blocks: BLOCKS,
        heads: HEADS,
        seed: derive_seed(seed, 1),
    });
    let source = SyntheticSource::new(model.clone(), CALIB_SAMPLES, derive_seed(seed, 2));
    Inputs {
        model,
        requests,
        source,
    }
}

/// A ready engine plus the frozen plans it serves.
struct Served {
    inputs: Inputs,
    engine: Engine,
    /// `[block][head]` plans thawed from the artifact the engine loaded.
    plans: Vec<Vec<HeadCalibration>>,
    calibrate_ms: Vec<f64>,
    load_ms: f64,
}

/// Calibrates every served head on the compute pool, freezes the plans
/// into an artifact file and starts an engine on it.
fn set_up(seed: u64, workers: usize, artifact: &Path) -> BoxResult<Served> {
    let inputs = inputs(seed);
    let cfg = ServeConfig {
        workers,
        block_edge: BLOCK_EDGE,
        budget: BUDGET,
        output_aware: true,
        plan_artifact: Some(artifact.to_path_buf()),
        ..ServeConfig::default()
    };
    let grid = inputs.model.grid;
    let block = BlockGrid::square(BLOCK_EDGE)?;
    let mut jobs: Vec<Box<dyn FnOnce() -> _ + Send>> = Vec::new();
    for b in 0..BLOCKS {
        for h in 0..HEADS {
            let source = inputs.source.clone();
            let (bits, alpha) = (cfg.calib_bits, cfg.alpha);
            jobs.push(Box::new(move || {
                timed(|| {
                    let maps = source.calibration_maps(b, h)?;
                    calibrate_head(&maps, &grid, block, bits, BUDGET, alpha)
                })
            }));
        }
    }
    let meta = plan_meta(&inputs.model, block, cfg.calib_bits, BUDGET, cfg.alpha);
    let mut builder = ArtifactBuilder::new(meta);
    let mut calibrate_ms = Vec::new();
    for (i, (cal, d)) in ComputePool::global().run_many(jobs).into_iter().enumerate() {
        calibrate_ms.push(d.as_secs_f64() * 1e3);
        let (b, h) = (i / HEADS, i % HEADS);
        builder.push_head(head_record(b as u32, h as u32, &cal?));
    }
    let bytes = builder.build()?;
    std::fs::write(artifact, &bytes)?;
    let source = Arc::new(inputs.source.clone());
    let (engine, d) = timed(|| Engine::new(cfg, inputs.model.clone(), source));
    Ok(Served {
        plans: thaw(&bytes, BLOCKS, HEADS)?,
        engine: engine?,
        inputs,
        calibrate_ms,
        load_ms: d.as_secs_f64() * 1e3,
    })
}

/// What the clients of one closed loop observed.
#[derive(Default)]
struct Log {
    /// Submit → response, per request, ms.
    latency_ms: Vec<f64>,
    /// Engine-side queue wait and service, per request, ms.
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    /// One client step, first submit of block 0 → last response of the
    /// last block, ms.
    step_ms: Vec<f64>,
    /// The reference computation, run before each step, ms.
    reference_ms: Vec<f64>,
    cache_hits: u64,
    attempted: u64,
    failed: u64,
    wall: Duration,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.latency_ms.extend(other.latency_ms);
        self.queue_ms.extend(other.queue_ms);
        self.service_ms.extend(other.service_ms);
        self.step_ms.extend(other.step_ms);
        self.reference_ms.extend(other.reference_ms);
        self.cache_hits += other.cache_hits;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn completed(&self) -> usize {
        self.latency_ms.len()
    }
}

/// Runs `clients` closed-loop clients for `window`, each taking at most
/// `max_steps` steps. A step is one DiT step's attention: for each block
/// in turn, the client submits that block's heads together and waits for
/// all of them. Client `c`'s `j`-th step uses input variant
/// `(c + j·clients) % variants`. The first response to each input is kept
/// in `outputs`; every later one must match it bit for bit.
fn closed_loop(
    served: &Served,
    clients: usize,
    window: Duration,
    max_steps: usize,
    outputs: &[OnceLock<Tensor>],
) -> Log {
    let pairs = BLOCKS * HEADS;
    let start = Instant::now();
    let mut log = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut log = Log::default();
                    let mut g = c;
                    while start.elapsed() < window && log.step_ms.len() < max_steps {
                        let variant = g % VARIANTS;
                        g += clients;
                        log.reference_ms.push(crate::reference::time_ms());
                        let step0 = Instant::now();
                        for block in 0..BLOCKS {
                            let mut tickets = Vec::with_capacity(HEADS);
                            for h in 0..HEADS {
                                let id = variant * pairs + block * HEADS + h;
                                let request = served.inputs.requests[id].clone();
                                log.attempted += 1;
                                let t0 = Instant::now();
                                match served.engine.submit_blocking(request) {
                                    Ok(ticket) => tickets.push((id, t0, ticket)),
                                    Err(_) => log.failed += 1,
                                }
                            }
                            for (id, t0, ticket) in tickets {
                                let Ok(resp) = served.engine.wait(ticket) else {
                                    log.failed += 1;
                                    continue;
                                };
                                let latency = t0.elapsed();
                                let first = outputs[id].get_or_init(|| resp.run.output.clone());
                                if resp.degraded || !same_bits(first, &resp.run.output) {
                                    log.failed += 1;
                                    continue;
                                }
                                log.latency_ms.push(latency.as_secs_f64() * 1e3);
                                log.queue_ms.push(resp.queue_wait.as_secs_f64() * 1e3);
                                log.service_ms.push(resp.service.as_secs_f64() * 1e3);
                                log.cache_hits += u64::from(resp.cache_hit);
                            }
                        }
                        log.step_ms.push(step0.elapsed().as_secs_f64() * 1e3);
                    }
                    log
                })
            })
            .collect();
        let mut log = Log::default();
        for h in handles {
            log.merge(h.join().expect("client thread panicked"));
        }
        log
    });
    log.wall = start.elapsed();
    log
}

/// One direct frozen-plan run of a served input: the reference every
/// served response must equal, plus its distance from exact attention.
struct Direct {
    output: Tensor,
    stats: IntPathStats,
    rel_l2: f64,
}

/// Runs every input directly on the pool under the benchmark's head span.
fn direct_runs(served: &Served) -> BoxResult<Vec<Direct>> {
    let pairs = BLOCKS * HEADS;
    let jobs: Vec<Box<dyn FnOnce() -> BoxResult<Direct> + Send>> = served
        .inputs
        .requests
        .iter()
        .enumerate()
        .map(|(id, request)| {
            let pair = id % pairs;
            let cal = served.plans[pair / HEADS][pair % HEADS].clone();
            let inputs = request.inputs.clone();
            Box::new(move || {
                let int = {
                    let _s = paro::trace::span(HEAD_SPAN);
                    run_attention_calibrated_int(&inputs, &cal, true)?
                };
                let exact = reference_attention(inputs.q(), inputs.k(), inputs.v())?;
                Ok(Direct {
                    rel_l2: metrics::relative_l2(&exact, &int.run.output)? as f64,
                    output: int.run.output,
                    stats: int.stats,
                })
            }) as Box<dyn FnOnce() -> BoxResult<Direct> + Send>
        })
        .collect();
    ComputePool::global().run_many(jobs).into_iter().collect()
}

/// Runs the workload: set-up `SETUPS` times, a closed loop for
/// `seconds`, then (traced runs only) a short closed loop untraced and
/// traced, and finally the direct runs every response is checked against.
pub fn run(seed: u64, seconds: u64, trace: bool, dir: &Path) -> BoxResult<Outcome> {
    let clients = crate::LANES;
    let artifact = dir.join(format!("plans-{}.paro", std::process::id()));
    let mut setup_s = Vec::new();
    let mut calibrate_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let served = set_up(seed, clients, &artifact)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        calibrate_ms.extend(served.calibrate_ms.iter().copied());
        load_ms.push(served.load_ms);
        if let Some(previous) = last.replace(served) {
            previous.engine.shutdown();
        }
    }
    std::fs::remove_file(&artifact)?;
    let served = last.ok_or("a workload needs at least one set-up")?;
    let outputs: Vec<OnceLock<Tensor>> = served
        .inputs
        .requests
        .iter()
        .map(|_| OnceLock::new())
        .collect();

    let pool0 = ComputePool::global().stats();
    let window = Duration::from_secs(seconds);
    let log = closed_loop(&served, clients, window, usize::MAX, &outputs);
    let pool = ComputePool::global().stats();
    let requests_per_s = log.completed() as f64 / log.wall.as_secs_f64();

    let mut out = Outcome::new(Phase::Serve);
    out.attempted = log.attempted;
    out.failed = log.failed;
    out.set_steps(&log.step_ms, &log.reference_ms);
    out.e2e("setup_s", stats::median(&setup_s));
    out.note("requests_per_s", requests_per_s);
    out.note("request_latency_ms_p50", stats::median(&log.latency_ms));
    out.note(
        "request_latency_ms_p90",
        stats::quantile(&log.latency_ms, 90.0),
    );
    out.layer("serve.queue_wait_ms_p50", stats::median(&log.queue_ms));
    out.layer("serve.service_ms_p50", stats::median(&log.service_ms));
    let handoff: Vec<f64> = (0..log.completed())
        .map(|i| log.latency_ms[i] - log.queue_ms[i] - log.service_ms[i])
        .collect();
    out.layer("serve.handoff_ms_p50", stats::median(&handoff));
    out.layer(
        "serve.cache_hit_ratio",
        log.cache_hits as f64 / log.completed().max(1) as f64,
    );
    out.layer(
        "pool.busy_fraction",
        pool.busy_fraction_since(&pool0, log.wall),
    );
    out.layer(
        "pool.jobs",
        (pool.executed_jobs - pool0.executed_jobs) as f64,
    );
    out.layer("calibrate.head_ms_p50", stats::median(&calibrate_ms));
    out.layer("plan.load_ms", stats::median(&load_ms));
    out.note("requests", log.completed() as f64);
    out.note("steps", log.step_ms.len() as f64);
    out.note("clients", clients as f64);

    if trace {
        // The same short loop untraced first, so both sides see the same
        // fill and drain of the closed loop.
        let untraced = closed_loop(&served, clients, window, TRACED_STEPS, &outputs);
        let session = paro::trace::TraceSession::start();
        let traced = closed_loop(&served, clients, window, TRACED_STEPS, &outputs);
        let spans = session.finish();
        out.attempted += untraced.attempted + traced.attempted;
        out.failed += untraced.failed + traced.failed;
        let ratio = |log: &Log| stats::median_ratio(&log.step_ms, &log.reference_ms);
        out.overhead_pct(ratio(&traced), ratio(&untraced));
        out.note("traced_requests", traced.completed() as f64);
        out.note("traced_loop_spans", spans.records.len() as f64);
        out.note("traced_loop_dropped_spans", spans.dropped as f64);
    }
    let snapshot = served.engine.metrics_snapshot();
    served.engine.shutdown();
    let session = trace.then(paro::trace::TraceSession::start);
    let direct = direct_runs(&served)?;
    if let Some(session) = session {
        let trace = session.finish();
        let stats: Vec<IntPathStats> = direct.iter().map(|d| d.stats).collect();
        out.pipeline(&trace, &stats, served.inputs.model.grid.len());
    }
    out.layer("serve.retried", snapshot.retried as f64);
    out.layer("serve.degraded", snapshot.degraded as f64);
    out.layer("serve.rejected", snapshot.rejected as f64);

    // Every served response already equals the first one for its input;
    // the first must equal the direct run.
    for (first, d) in outputs.iter().zip(&direct) {
        if let Some(first) = first.get() {
            out.attempted += 1;
            out.failed += u64::from(!same_bits(first, &d.output));
        }
    }
    let rel_l2 = direct.iter().map(|d| d.rel_l2).sum::<f64>() / direct.len() as f64;
    out.e2e("fidelity_rel_l2", rel_l2);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(requests: &[ServeRequest]) -> Vec<u32> {
        requests
            .iter()
            .flat_map(|r| [r.inputs.q(), r.inputs.k(), r.inputs.v()])
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        let (a, b, c) = (inputs(7), inputs(7), inputs(8));
        assert_eq!(a.requests.len(), BLOCKS * HEADS * VARIANTS);
        assert_eq!(bits(&a.requests), bits(&b.requests));
        assert_ne!(bits(&a.requests), bits(&c.requests));
        let maps = |i: &Inputs| i.source.calibration_maps(1, 3).unwrap();
        assert_eq!(maps(&a), maps(&b));
        assert_ne!(maps(&a), maps(&c));
    }
}
