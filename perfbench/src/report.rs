//! The metric catalogue and the result a workload hands back.
//!
//! Every name printed comes from [`END_TO_END`] or [`PER_LAYER`]; the
//! benchmark's tests pin both lists against `BENCHMARK.json`.

use crate::stats::{self, attribute, subtree};
use paro::core::int_pipeline::IntPathStats;
use paro::trace::Trace;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("step_per_reference_p50", "ratio"),
    ("fidelity_rel_l2", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The integer pipeline's stages, in execution order.
const PIPELINE_STAGES: &[&str] = &[
    "pipeline.quantize_qkv",
    "pipeline.reorder",
    "pipeline.quantize_v",
    "pipeline.qkt",
    "pipeline.quantize_map",
    "pipeline.attn_v",
    "pipeline.unreorder",
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.handoff_ms_p50", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.retried", "count"),
    ("serve.degraded", "count"),
    ("serve.rejected", "count"),
    ("pool.busy_fraction", "ratio"),
    ("pool.jobs", "count"),
    ("dit.forward_ms", "ms"),
    ("dit.rms_norm_ms", "ms"),
    ("dit.linear.fake_quant_ms", "ms"),
    ("dit.linear.matmul_ms", "ms"),
    ("dit.attention_ms", "ms"),
    ("dit.unattributed_ms", "ms"),
    ("pipeline.head_us", "us"),
    ("pipeline.quantize_qkv_us", "us"),
    ("pipeline.reorder_us", "us"),
    ("pipeline.quantize_v_us", "us"),
    ("pipeline.qkt_us", "us"),
    ("pipeline.quantize_map_us", "us"),
    ("pipeline.attn_v_us", "us"),
    ("pipeline.unreorder_us", "us"),
    ("pipeline.unattributed_us", "us"),
    ("qkt.mac_us", "us"),
    ("qkt.ldz_us", "us"),
    ("qkt.unattributed_us", "us"),
    ("attnv.mac_us", "us"),
    ("attnv.dequant_us", "us"),
    ("attnv.unpack_us", "us"),
    ("attn_v.unattributed_us", "us"),
    ("attn_v.executed_mac_ratio", "ratio"),
    ("attn_v.packed_map_bytes", "bytes"),
    ("attn_v.gmacs_per_s", "GMAC/s"),
    ("map.dense_bytes", "bytes"),
    ("calibrate.head_ms_p50", "ms"),
    ("plan.load_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Which family of workload produced an outcome: decides the layers that
/// are off its path and therefore read 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The DiT trajectory: no serving engine on the path.
    Dit,
    /// The serving engine: no DiT forward pass on the path.
    Serve,
}

impl Phase {
    fn off_path(self, name: &str) -> bool {
        match self {
            Phase::Dit => name.starts_with("serve."),
            Phase::Serve => name.starts_with("dit."),
        }
    }
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    phase: Phase,
    /// Operations attempted (trajectories, served requests, checks).
    pub attempted: u64,
    /// Operations that failed or returned wrong bits.
    pub failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    notes: Vec<(String, f64)>,
}

impl Outcome {
    /// An empty outcome of the given family.
    pub fn new(phase: Phase) -> Self {
        Outcome {
            phase,
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "{name} is not an end-to-end metric"
        );
        self.e2e.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Records context printed beside the result (sample counts, tails).
    pub fn note(&mut self, key: impl Into<String>, value: f64) {
        self.notes.push((key.into(), value));
    }

    /// Sets `step_per_reference_p50` from per-step times and the
    /// reference computation timed just before each step, and notes the
    /// step's wall time (sample count, 10th percentile, median, 90th
    /// percentile and the highest supported percentile) and the
    /// reference's median.
    pub fn set_steps(&mut self, step_ms: &[f64], reference_ms: &[f64]) {
        self.e2e(
            "step_per_reference_p50",
            stats::median_ratio(step_ms, reference_ms),
        );
        self.note("reference_ms_p50", stats::median(reference_ms));
        let mut sorted = step_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.note("step_samples", sorted.len() as f64);
        self.note("step_ms_p10", stats::percentile(&sorted, 10.0));
        self.note("step_ms_p50", stats::percentile(&sorted, 50.0));
        self.note("step_ms_p90", stats::percentile(&sorted, 90.0));
        if let Some(tail) = stats::supported_tail(&sorted) {
            self.note("step_tail_pct", tail.pct);
            self.note("step_tail_ms", tail.value);
        }
    }

    /// `trace.overhead_pct`: how much higher `step_per_reference_p50`
    /// read traced than untraced, in percent.
    pub fn overhead_pct(&mut self, traced: f64, untraced: f64) {
        self.layer("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
    }

    /// Per-head pipeline and kernel rows from the benchmark's head spans
    /// (every parent gets its children plus an `unattributed` remainder),
    /// and the kernel counters of those heads, which repeat exactly for
    /// one seed; `n` is the head's token count.
    pub fn pipeline(&mut self, trace: &Trace, head_stats: &[IntPathStats], n: usize) {
        let heads = subtree(&trace.records, crate::HEAD_SPAN);
        let head = attribute(&heads, crate::HEAD_SPAN);
        self.layer("pipeline.head_us", head.parent_us());
        for (stage, name) in PIPELINE_STAGES.iter().zip([
            "pipeline.quantize_qkv_us",
            "pipeline.reorder_us",
            "pipeline.quantize_v_us",
            "pipeline.qkt_us",
            "pipeline.quantize_map_us",
            "pipeline.attn_v_us",
            "pipeline.unreorder_us",
        ]) {
            self.layer(name, head.child_us(stage));
        }
        self.layer("pipeline.unattributed_us", head.unattributed_us());
        // Each head has exactly one `pipeline.qkt` / `pipeline.attn_v`,
        // so per-parent means are per-head means.
        let qkt = attribute(&heads, "pipeline.qkt");
        self.layer("qkt.mac_us", qkt.child_us("qkt.mac"));
        self.layer("qkt.ldz_us", qkt.child_us("qkt.ldz"));
        self.layer("qkt.unattributed_us", qkt.unattributed_us());
        let attn_v = attribute(&heads, "pipeline.attn_v");
        self.layer("attnv.mac_us", attn_v.child_us("attnv.mac"));
        self.layer("attnv.dequant_us", attn_v.child_us("attnv.dequant"));
        self.layer("attnv.unpack_us", attn_v.child_us("attnv.unpack"));
        self.layer("attn_v.unattributed_us", attn_v.unattributed_us());
        self.note("head_spans", head.parents as f64);
        self.note("trace_dropped_spans", trace.dropped as f64);

        let executed: u64 = head_stats.iter().map(|s| s.executed_macs).sum();
        let dense: u64 = head_stats.iter().map(|s| s.dense_macs).sum();
        let packed: u64 = head_stats.iter().map(|s| s.packed_map_bytes).sum();
        let count = head_stats.len().max(1) as f64;
        self.layer(
            "attn_v.executed_mac_ratio",
            executed as f64 / dense.max(1) as f64,
        );
        self.layer("attn_v.packed_map_bytes", packed as f64 / count);
        // MACs per head over `pipeline.attn_v` µs per head, as GMAC/s.
        self.layer(
            "attn_v.gmacs_per_s",
            executed as f64 / count / (attn_v.parent_us().max(1e-9) * 1e3),
        );
        self.layer("map.dense_bytes", (n * n * 4) as f64);
    }

    /// The final result line: every metric of the requested kind, by
    /// name and unit.
    ///
    /// # Panics
    ///
    /// Panics if a metric on the workload's path was never measured.
    pub fn result_json(&self, trace: bool) -> String {
        let (catalogue, values) = if trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match values.get(name) {
                    Some(v) => *v,
                    None if trace && self.phase.off_path(name) => 0.0,
                    None => panic!("metric {name} was not measured"),
                };
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    number(name, value)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The notes as JSON object members.
    pub fn notes_json(&self) -> String {
        self.notes
            .iter()
            .map(|(k, v)| format!(r#""{k}": {}"#, number(k, *v)))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A JSON number with all its digits.
///
/// # Panics
///
/// Panics on a non-finite value, which JSON cannot carry and which only
/// a bug in the benchmark can produce.
fn number(name: &str, v: f64) -> String {
    assert!(v.is_finite(), "{name} is not finite: {v}");
    format!("{v:?}")
}
