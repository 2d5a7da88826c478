//! Metric names, the host block, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name and unit, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_mean_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("cells_per_s", "1/s"),
    ("daemon_cpu_ms_per_req", "ms"),
    ("daemon_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("client.send_us", "us"),
    ("client.decode_us", "us"),
    ("serve.rtt_floor_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.bytes_out_per_req", "bytes"),
    ("engine.pipeline.queue_us", "us"),
    ("engine.pipeline.service_us", "us"),
    ("engine.wire.parse_us", "us"),
    ("engine.wire.encode_us", "us"),
    ("engine.wire.encode_ns_per_cell", "ns"),
    ("engine.wire.bytes_per_cell", "bytes"),
    ("engine.session_us", "us"),
    ("engine.verb_us", "us"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.cache.misses_per_req", "count"),
    ("engine.cache.evictions_per_req", "count"),
    ("engine.pool.imbalance", "ratio"),
    ("dist.pi_build_ns_per_entry", "ns"),
    ("core.kernel.ns_per_cell", "ns"),
    ("core.param.ns_per_point", "ns"),
    ("loadgen.send_lag_p99_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Metric values collected for the result line.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Records `value` for the metric `name` of `table`.
    ///
    /// # Panics
    ///
    /// When `name` is not in `table` — a typo in this crate.
    pub fn set(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in its table"));
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, unit, value));
    }

    /// The recorded value of `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, v)| *v)
    }

    /// Whether every metric of `table` has a value.
    #[must_use]
    pub fn covers(&self, table: &[(&str, &str)]) -> bool {
        table.iter().all(|(n, _)| self.get(n).is_some())
    }

    /// Human-readable rows, one per metric.
    #[must_use]
    pub fn rows(&self) -> String {
        let mut out = String::new();
        for (name, unit, value) in &self.values {
            let _ = writeln!(out, "  {name:<32} {value:>14.6} {unit}");
        }
        out
    }
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .values
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no infinities; a failed run can produce one in a
            // tail percentile, and is marked incorrect anyway.
            let value = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// The host block: what produced the numbers, so numbers from different
/// hosts are never compared silently.
#[must_use]
pub fn host_block(
    kernel_backend: &str,
    dist_backend: &str,
    workers: &str,
    inflight: &str,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = command_line("rustc", &["--version"]);
    // Only ask git inside a checkout of its own, never a parent repository.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_owned()
    };
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" kernel_backend={kernel_backend} dist_backend={dist_backend}\n\
         host: rustc=\"{rustc}\" commit={commit}\n\
         host: daemon flags \"{}\" (workers={workers} inflight={inflight}, π cache at its default)",
        crate::daemon::DAEMON_FLAGS.join(" ")
    )
}

/// The share of CPU time stolen by the hypervisor between two
/// [`crate::steal::cpu_ticks`] readings, as a report line.
#[must_use]
pub fn steal_line(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => format!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the run",
            (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64
        ),
        _ => "host: steal time unavailable".to_owned(),
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name starts with a letter or digit and has at most 64
    /// letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("per/layer"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let json = zeroconf_engine::wire::parse_json(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(zeroconf_engine::wire::Json::Arr(items)) = json.get(key) else {
                panic!("BENCHMARK.json lacks {key}");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(zeroconf_engine::wire::Json::Str(s)) => s.clone(),
                        other => panic!("{key} entry field {f}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set(&END_TO_END, "setup_s", 0.25);
        m.set(&END_TO_END, "latency_mean_ms", f64::INFINITY);
        let line = result_line(true, 10, 0, &m);
        let json = zeroconf_engine::wire::parse_json(&line).unwrap();
        let zeroconf_engine::wire::Json::Obj(members) = &json else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(
            line.contains("\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}"),
            "{line}"
        );
    }
}
