//! Sharded-execution contract tests: the `docs/SHARDING.md` guarantees.
//!
//! The headline property: **sharding never changes results**. Whatever
//! the shard count, the engine's outputs are bit-identical to the
//! 1-shard (global pool) engine — the shard set moves work between
//! pools, nothing else. The CI shard-smoke gate pins the same property
//! end-to-end through `paro shard-bench`.

use paro_model::ModelConfig;
use paro_serve::workload::{scaled_config, synthetic_requests, SyntheticSource, WorkloadSpec};
use paro_serve::{Engine, ServeConfig, ServeRequest};
use proptest::prelude::*;
use std::sync::Arc;

fn test_model() -> ModelConfig {
    scaled_config(&ModelConfig::cogvideox_2b(), 3, 4, 4)
}

fn test_requests(model: &ModelConfig, requests: usize, seed: u64) -> Vec<ServeRequest> {
    synthetic_requests(&WorkloadSpec {
        model: model.clone(),
        requests,
        blocks: 2,
        heads: 2,
        seed,
    })
}

fn outputs_bits(engine: &Engine, requests: Vec<ServeRequest>) -> Vec<Vec<u32>> {
    engine
        .run_batch(requests)
        .responses
        .into_iter()
        .map(|r| {
            r.expect("request must complete")
                .run
                .output
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect()
}

fn sharded_engine(model: &ModelConfig, shards: usize, workers: usize) -> Engine {
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    let cfg = ServeConfig {
        workers,
        block_edge: 4,
        shards,
        ..ServeConfig::default()
    };
    Engine::new(cfg, model.clone(), source).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A K-shard engine's batch outputs are byte-equal to the 1-shard
    /// engine's, across worker counts, shard counts and workloads.
    #[test]
    fn k_shard_outputs_are_bit_identical_to_one_shard(
        shards in 2usize..=4,
        workers in 1usize..=4,
        seed in 500u64..504,
    ) {
        let model = test_model();
        let n = 10;
        let baseline = {
            let engine = sharded_engine(&model, 1, 1);
            outputs_bits(&engine, test_requests(&model, n, seed))
        };
        let engine = sharded_engine(&model, shards, workers);
        prop_assert_eq!(engine.shard_set().shard_count(), shards);
        let outputs = outputs_bits(&engine, test_requests(&model, n, seed));
        prop_assert_eq!(outputs, baseline);
    }
}

/// The default config is exactly the unsharded engine: one shard
/// delegating to the global pool, no placement, zero imbalance.
#[test]
fn default_engine_has_a_single_global_shard() {
    let model = test_model();
    let engine = sharded_engine(&model, 1, 2);
    let set = engine.shard_set();
    assert_eq!(set.shard_count(), 1);
    assert!(set.placement().is_none());
    assert_eq!(set.planned_imbalance_pct(), 0.0);
    let outcome = engine.run_batch(test_requests(&model, 4, 42));
    assert_eq!(outcome.completed(), 4);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.shards.len(), 1);
    assert_eq!(snap.shard_imbalance_pct, 0.0);
    assert_eq!(snap.shards[0].label, "");
}

/// A sharded engine reports one metrics row per shard, with labels,
/// thread counts and busy time attributed to the shard that served.
#[test]
fn sharded_engine_reports_per_shard_metrics_rows() {
    let model = test_model();
    let engine = sharded_engine(&model, 2, 2);
    let outcome = engine.run_batch(test_requests(&model, 8, 11));
    assert_eq!(outcome.completed(), 8);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.shards.len(), 2);
    assert_eq!(snap.shards[0].label, "shard0");
    assert_eq!(snap.shards[1].label, "shard1");
    assert!(snap.shards.iter().all(|s| s.threads >= 1));
    // The workload only touches 2 blocks × 2 heads; every job must have
    // landed on one of the shard pools (never the global pool).
    let executed: u64 = snap.shards.iter().map(|s| s.executed_jobs).sum();
    assert!(executed >= 8, "jobs bypassed the shard pools: {executed}");
    assert!(snap.shard_imbalance_pct.is_finite());
    assert!(snap.shard_imbalance_pct >= 0.0);
}

/// The shard set's routing agrees between the placement view and the
/// engine, and stays within bounds for the whole model universe.
#[test]
fn routing_covers_the_model_universe() {
    let model = test_model();
    let engine = sharded_engine(&model, 3, 1);
    let set = engine.shard_set();
    let placement = set.placement().expect("planned set has a placement");
    assert_eq!(placement.heads(), model.blocks * model.heads);
    for block in 0..model.blocks {
        for head in 0..model.heads {
            assert!(set.shard_of(block, head) < 3);
        }
    }
    // Per-shard packed-code ranges partition the head universe.
    let ranges = placement.shard_ranges();
    assert_eq!(ranges.len(), 3);
    assert_eq!(
        ranges.iter().map(|r| r.len()).sum::<usize>(),
        placement.heads()
    );
}

/// Sharding composes with `run_batch`'s LPT admission order without
/// affecting results — the two orderings are independent layers.
#[test]
fn sharding_composes_with_cost_lpt_scheduling() {
    let model = test_model();
    let n = 8;
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    let baseline = {
        let cfg = ServeConfig {
            workers: 1,
            block_edge: 4,
            ..ServeConfig::default()
        };
        let engine = Engine::new(cfg, model.clone(), Arc::clone(&source) as _).unwrap();
        outputs_bits(&engine, test_requests(&model, n, 900))
    };
    let cfg = ServeConfig {
        workers: 3,
        block_edge: 4,
        shards: 2,
        ..ServeConfig::default()
    };
    let engine = Engine::new(cfg, model.clone(), source).unwrap();
    assert_eq!(
        outputs_bits(&engine, test_requests(&model, n, 900)),
        baseline
    );
}

/// Out-of-range shard counts fail construction with a typed config error.
#[test]
fn invalid_shard_counts_are_rejected() {
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    for shards in [0usize, paro_serve::MAX_SHARDS + 1] {
        let cfg = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        let err = Engine::new(cfg, model.clone(), Arc::clone(&source) as _)
            .err()
            .expect("invalid shard count must be rejected");
        assert!(
            format!("{err}").contains("shards"),
            "unexpected error: {err}"
        );
    }
}
