//! The repository's benchmark: frozen-plan DDIM steps through the
//! synthetic DiT, and the serving engine at 384 tokens.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dit_ddim --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. The line before it records the host context. The exit
//! code is non-zero when any output fails its check. See `README.md`
//! beside this file for the workloads and the metric map.

mod dit;
mod reference;
mod report;
mod serve;
mod stats;

use paro::artifact::ArtifactView;
use paro::core::artifact::head_calibration;
use paro::core::calibration::HeadCalibration;
use paro::core::pool::ComputePool;
use paro::tensor::Tensor;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Result type of the benchmark's fallible steps.
pub type BoxResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The benchmark's span around each direct call into one attention head;
/// the pipeline stages are attributed to it.
pub const HEAD_SPAN: &str = "bench.head";

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["dit_ddim", "serve_small"];

/// Where a run may write scratch files, relative to the checkout root.
const SCRATCH_DIR: &str = ".bench_build/perfbench";

/// Runs `f` and returns its result with its duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Whether two tensors hold exactly the same bits.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Compute-pool threads, engine workers and closed-loop clients. One
/// lane each: on a few shared cores, more threads at once measure the
/// host's scheduler and its other tenants, not the program.
pub const LANES: usize = 1;

/// Host parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses, deep-verifies and thaws a plan artifact into a
/// `[block][head]` table covering `blocks × heads`.
pub fn thaw(bytes: &[u8], blocks: usize, heads: usize) -> BoxResult<Vec<Vec<HeadCalibration>>> {
    let view = ArtifactView::parse(bytes)?;
    view.verify_deep()?;
    (0..blocks)
        .map(|b| {
            (0..heads)
                .map(|h| {
                    let head = view
                        .find(b as u32, h as u32)?
                        .ok_or_else(|| format!("artifact lacks block {b} head {h}"))?;
                    Ok(head_calibration(view.meta(), &head)?)
                })
                .collect()
        })
        .collect()
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> BoxResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => match value.parse().map_err(bad)? {
                0 => return Err("--seconds must be at least 1".into()),
                n => seconds = Some(n),
            },
            "--trace" => match value {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // Sizes the global pool, which is built on first use.
    std::env::set_var("PARO_POOL_THREADS", LANES.to_string());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: outputs failed their check");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> BoxResult<bool> {
    let dir = Path::new(SCRATCH_DIR);
    std::fs::create_dir_all(dir)?;
    let mut out = match args.workload.as_str() {
        "dit_ddim" => dit::run(args.seed, args.seconds, args.trace)?,
        "serve_small" => serve::run(args.seed, args.seconds, args.trace, dir)?,
        other => unreachable!("parse_args admitted {other}"),
    };
    out.e2e("peak_rss_mb", peak_rss_mb()?);
    println!(
        r#"{{"context": {{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "nproc": {}, "pool_threads": {}, "engine_workers": {}, "kernel": "{}", "trace_compiled_in": {}, "succeeded": {}, {}}}}}"#,
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        ComputePool::global().threads(),
        if args.workload == "dit_ddim" {
            0
        } else {
            LANES
        },
        paro::tensor::kernel::active_kernel().as_str(),
        paro::trace::COMPILED_IN,
        out.attempted - out.failed,
        out.notes_json(),
    );
    println!("{}", out.result_json(args.trace));
    Ok(out.failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve_small",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve_small".into(),
                seed: 9,
                seconds: 3,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "dit_ddim", "--wat", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
        assert!(parse_args(&strings(&["--workload", "dit_ddim", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "dit_ddim", "--seconds", "0"])).is_err());
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `(name, unit)` rows of one metric list in `BENCHMARK.json`.
    fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        let serde_json::Value::Map(top) = doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let (_, serde_json::Value::Seq(rows)) = top.iter().find(|(k, _)| k == key).unwrap() else {
            panic!("{key} is not a list")
        };
        rows.iter()
            .map(|row| {
                let serde_json::Value::Map(fields) = row else {
                    panic!("{key} row is not an object")
                };
                let get = |f: &str| match fields.iter().find(|(k, _)| k == f) {
                    Some((_, serde_json::Value::Str(s))) => s.clone(),
                    _ => String::new(),
                };
                (get("name"), get("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: serde_json::Value =
            serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |rows: &[(&str, &str)]| -> Vec<(String, String)> {
            rows.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(report::END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(report::PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, strings(WORKLOADS));
        for name in report::END_TO_END
            .iter()
            .chain(report::PER_LAYER)
            .map(|(n, _)| *n)
            .chain(WORKLOADS.iter().copied())
        {
            assert!(valid_name(name), "bad name {name}");
        }
    }
}
