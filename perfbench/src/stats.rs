//! Summary statistics and span attribution, kept free of any workload so
//! the benchmark's own tests can pin them.

use paro::trace::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// Nearest-rank percentile `p` (0..=100) of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile `p` of an unsorted sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 50.0)
}

/// Median of the pairwise ratios `num[i] / den[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    assert_eq!(num.len(), den.len(), "ratio of unpaired samples");
    let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    median(&ratios)
}

/// The percentile ladder the tail report climbs.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of a timing sample that still has at least ten
/// samples beyond it, with its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (a rung of 50, 90, 99, 99.9).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest percentile on the ladder with at least ten samples beyond
/// its nearest rank; `None` when not even the median has ten.
pub fn supported_tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .map(|pct| Tail {
            pct,
            value: percentile(&sorted, pct),
            samples: n,
        })
}

/// How one parent stage's time splits over its direct child stages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Parent spans found.
    pub parents: usize,
    /// Summed parent duration, nanoseconds.
    pub parent_ns: u64,
    /// Summed duration of the parents' direct children, per child stage.
    pub children_ns: BTreeMap<&'static str, u64>,
    /// Parent time no direct child covers, nanoseconds.
    pub unattributed_ns: u64,
}

impl Attribution {
    /// Mean per-parent microseconds of a child stage (0 when absent).
    pub fn child_us(&self, stage: &str) -> f64 {
        self.per_parent_us(self.children_ns.get(stage).copied().unwrap_or(0))
    }

    /// Mean per-parent microseconds of the unattributed remainder.
    pub fn unattributed_us(&self) -> f64 {
        self.per_parent_us(self.unattributed_ns)
    }

    /// Mean parent duration in microseconds.
    pub fn parent_us(&self) -> f64 {
        self.per_parent_us(self.parent_ns)
    }

    fn per_parent_us(&self, ns: u64) -> f64 {
        if self.parents == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / self.parents as f64
        }
    }
}

/// Splits every span of `parent_stage` over its direct children (spans
/// whose `parent` link names it). Children of one parent are clamped to
/// the parent's duration so the rows always add up to it exactly.
pub fn attribute(records: &[SpanRecord], parent_stage: &str) -> Attribution {
    let mut per_parent: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for r in records.iter().filter(|r| r.parent != 0) {
        per_parent.entry(r.parent).or_default().push(r);
    }
    let mut out = Attribution::default();
    for parent in records.iter().filter(|r| r.stage == parent_stage) {
        let total = parent.duration_ns();
        let mut covered = 0u64;
        for child in per_parent.get(&parent.id).into_iter().flatten() {
            let d = child.duration_ns().min(total - covered);
            covered += d;
            *out.children_ns.entry(child.stage).or_default() += d;
        }
        out.parents += 1;
        out.parent_ns += total;
        out.unattributed_ns += total - covered;
    }
    out
}

/// The spans of `root_stage` together with all their descendants.
pub fn subtree(records: &[SpanRecord], root_stage: &str) -> Vec<SpanRecord> {
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for r in records.iter().filter(|r| r.parent != 0) {
        children.entry(r.parent).or_default().push(r);
    }
    let mut out: Vec<SpanRecord> = records
        .iter()
        .filter(|r| r.stage == root_stage)
        .copied()
        .collect();
    let mut next = 0;
    while next < out.len() {
        let id = out[next].id;
        out.extend(children.get(&id).into_iter().flatten().copied());
        next += 1;
    }
    out
}

/// Summed duration of every span of `stage`, nanoseconds, with its count.
pub fn stage_total(records: &[SpanRecord], stage: &str) -> (u64, usize) {
    records
        .iter()
        .filter(|r| r.stage == stage)
        .fold((0, 0), |(ns, n), r| (ns + r.duration_ns(), n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paro::trace::{SpanOutcome, NO_CTX, NO_DETAIL};

    fn span(id: u64, parent: u64, stage: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            stage,
            start_ns: start,
            end_ns: end,
            ctx: NO_CTX,
            thread: 1,
            outcome: SpanOutcome::Ok,
            detail: NO_DETAIL,
        }
    }

    #[test]
    fn children_plus_unattributed_equal_parent() {
        let records = [
            span(1, 0, "head", 0, 1000),
            span(2, 1, "a", 0, 300),
            span(3, 1, "b", 300, 700),
            span(4, 3, "grandchild", 300, 400),
            span(5, 0, "head", 2000, 2500),
            span(6, 5, "a", 2000, 2100),
            span(7, 0, "other", 0, 9999),
        ];
        let at = attribute(&records, "head");
        assert_eq!(at.parents, 2);
        assert_eq!(at.parent_ns, 1500);
        assert_eq!(at.children_ns.get("a"), Some(&400));
        assert_eq!(at.children_ns.get("b"), Some(&400));
        assert!(!at.children_ns.contains_key("grandchild"));
        let children: u64 = at.children_ns.values().sum();
        assert!(children <= at.parent_ns);
        assert_eq!(children + at.unattributed_ns, at.parent_ns);
        assert_eq!(at.unattributed_us(), 0.35);
        assert_eq!(at.child_us("missing"), 0.0);
    }

    #[test]
    fn subtree_keeps_only_descendants_of_the_roots() {
        let records = [
            span(1, 0, "head", 0, 100),
            span(2, 1, "pipeline.qkt", 0, 50),
            span(3, 2, "qkt.mac", 0, 10),
            span(4, 0, "pool.execute", 200, 300),
            span(5, 4, "pipeline.qkt", 200, 250),
        ];
        let mut ids: Vec<u64> = subtree(&records, "head").iter().map(|r| r.id).collect();
        ids.sort();
        assert_eq!(ids, [1, 2, 3]);
    }

    #[test]
    fn overlapping_children_are_clamped_to_the_parent() {
        // Children recorded on the parent's thread cannot outlast it, but
        // clock skew or a misbehaving caller must not break the sum.
        let records = [
            span(1, 0, "head", 0, 100),
            span(2, 1, "a", 0, 80),
            span(3, 1, "b", 50, 150),
        ];
        let at = attribute(&records, "head");
        let children: u64 = at.children_ns.values().sum();
        assert_eq!(children, 100);
        assert_eq!(at.unattributed_ns, 0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = supported_tail(&values).unwrap();
        assert_eq!((tail.pct, tail.value, tail.samples), (99.0, 990.0, 1000));
        // 100 samples: p90 has exactly ten beyond it, p99 only one.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let tail = supported_tail(&values).unwrap();
        assert_eq!((tail.pct, tail.value, tail.samples), (90.0, 90.0, 100));
        // 99 samples: p90's rank is 90, leaving nine — fall back to p50.
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(supported_tail(&values).unwrap().pct, 50.0);
        // Fewer than twenty samples support no percentile at all.
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(supported_tail(&values), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 90.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        // 20 unsorted samples: p10's rank is 2.
        let values: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&values, 10.0), 2.0);
    }

    #[test]
    fn median_ratio_pairs_samples() {
        // Pairwise 2, 3, 10: the median pairs, not the medians' ratio (4).
        assert_eq!(median_ratio(&[2.0, 6.0, 40.0], &[1.0, 2.0, 4.0]), 3.0);
    }
}
