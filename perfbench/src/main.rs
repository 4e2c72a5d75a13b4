//! The mutree benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exact_seq|decompose|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics of a traced run, whose spans are also written under
//! `.perfbench-traces/`. Every run checks the answers it measured and
//! counts each wrong or missing answer as failed. See `NOTES.md` beside
//! this package for what each workload and metric means.

#![forbid(unsafe_code)]

mod inproc;
mod serve;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use mutree_distmat::DistanceMatrix;
use mutree_tree::UltrametricTree;

/// Fewest and most set-ups per in-process run: between the two, set-ups
/// repeat until they have taken [`SETUP_BUDGET_S`] in all. The reported
/// `setup_s` is their median.
pub const SETUP_REPS: (usize, usize) = (3, 15);
/// Set-up time after which an in-process run stops repeating set-ups.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("cost_vs_upgmm", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`. A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("distmat.maxmin_s", "s"),
    ("tree.upgmm_s", "s"),
    ("core.problem_build_s", "s"),
    ("core.remap_s", "s"),
    ("bnb.search_s", "s"),
    ("bnb.branched", "count"),
    ("bnb.pruned", "count"),
    ("bnb.propagation_pruned", "count"),
    ("bnb.incumbent_updates", "count"),
    ("bnb.peak_pool", "count"),
    ("bnb.pruned_per_branched", "ratio"),
    ("bnb.ns_per_branch", "ns"),
    ("graph.compact_sets_s", "s"),
    ("graph.compact_sets", "count"),
    ("graph.partition_s", "s"),
    ("graph.groups", "count"),
    ("core.pipeline_s", "s"),
    ("core.pipeline_build_s", "s"),
    ("core.group_solve_s", "s"),
    ("core.meta_solve_s", "s"),
    ("core.merge_s", "s"),
    ("core.pipeline_other_s", "s"),
    ("core.budget_stops", "count"),
    ("engine.request_encode_s", "s"),
    ("engine.request_decode_s", "s"),
    ("engine.plan_resolve_s", "s"),
    ("engine.cache_probe_s", "s"),
    ("engine.cache_insert_s", "s"),
    ("engine.report_encode_s", "s"),
    ("engine.report_decode_s", "s"),
    ("engine.request_bytes", "B"),
    ("engine.report_bytes", "B"),
    ("engine.cache_hit_ratio.exact", "ratio"),
    ("engine.cache_hit_ratio.decompose", "ratio"),
    ("serve.roundtrip_s", "s"),
    ("serve.server_solve_s", "s"),
    ("serve.transport_s", "s"),
    ("serve.first_request_ms", "ms"),
    ("serve.queue_peak_depth", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.hit_roundtrip_us", "us"),
    ("serve.cold_extra_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.samples", "count"),
    ("trace.untraced_throughput_per_s", "1/s"),
];

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records a metric; the unit must match the declared one.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &str) {
        let declared = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert_eq!(declared.1, unit, "unit of {name}");
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().rev().find(|(n, _)| *n == name).map(|m| m.1)
    }
}

/// What one run measured.
pub struct RunResult {
    /// Solves or requests attempted in the timed phases.
    pub attempted: u64,
    /// Errors, refusals and failed checks.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// The traced run's spans.
    pub spans: Option<Vec<trace::Span>>,
    /// Free-form detail written beside the spans.
    pub extra: String,
}

/// Records the end-to-end metrics of an untraced run. `daemon_rss_mib` is
/// the peak RSS of the daemon processes the run started (0 if none).
pub fn end_to_end(
    m: &mut Metrics,
    setup_times: &[f64],
    attempted: u64,
    failed: u64,
    (throughput, p50, p95): stats::Summary,
    cost_ratio: f64,
    daemon_rss_mib: f64,
) {
    m.push("setup_s", stats::median(setup_times), "s");
    m.push("throughput_per_s", throughput, "1/s");
    m.push("latency_p50_ms", p50, "ms");
    m.push("latency_p95_ms", p95, "ms");
    m.push("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio");
    m.push("cost_vs_upgmm", cost_ratio, "ratio");
    m.push("peak_rss_mib", peak_rss_mib() + daemon_rss_mib, "MiB");
}

/// Whether `tree` is a feasible ultrametric tree over exactly the taxa of
/// `m` (tolerance 1e-6).
pub fn check_tree(tree: &UltrametricTree, m: &DistanceMatrix) -> bool {
    let n = m.len();
    let mut seen = vec![false; n];
    for t in tree.taxa() {
        if t >= n || std::mem::replace(&mut seen[t], true) {
            return false;
        }
    }
    seen.iter().all(|&s| s) && tree.is_feasible_for(m, 1e-6)
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git work tree.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("warning: non-finite metric value {v} written as 0");
        "0".into()
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(serve::DAEMON_FLAG) {
        return serve::daemon_main();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The daemon captures every MUTREE_* override at bind time and
    // in-process plans would ignore them, so a set variable would make
    // the workloads disagree about what they measure.
    let pinned: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MUTREE_"))
        .collect();
    if !pinned.is_empty() {
        eprintln!("error: unset {} before benchmarking", pinned.join(", "));
        return ExitCode::from(2);
    }
    let config = match args.workload.as_str() {
        "exact_seq" => inproc::config(inproc::Kind::ExactSeq),
        "decompose" => inproc::config(inproc::Kind::Decompose),
        "serve_mixed" => serve::config(),
        other => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fingerprint = mutree_bnb::hash::fnv1a(config.as_bytes());
    let provenance = format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_revision\": \"{}\", \"config_fingerprint\": \"{fingerprint:016x}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
    );
    println!("{provenance}");

    let result = match args.workload.as_str() {
        "exact_seq" => inproc::run(inproc::Kind::ExactSeq, args.seed, args.seconds, args.trace),
        "decompose" => inproc::run(inproc::Kind::Decompose, args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(spans) = &result.spans {
        let path = std::path::PathBuf::from(".perfbench-traces")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        let header = format!("{provenance} config: {config}; {}", result.extra);
        if let Err(e) = trace::write_tsv(&path, &header, spans) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        let mut summary = String::new();
        for (name, unit) in declared {
            let v = result.metrics.get(name).unwrap_or(0.0);
            let _ = writeln!(summary, "{name:<36} {v:>16.6} {unit}");
        }
        eprintln!("{summary}{}", result.extra);
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.failed == 0,
        result.attempted,
        result.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = result.metrics.get(name).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    out.push_str("}}");
    println!("{out}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` at the repository
    /// root must agree name for name and unit for unit.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        let metrics = compact.matches("\"unit\":").count();
        assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len());
    }
}
