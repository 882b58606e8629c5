//! Metric catalogue and result output.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a unit
//! test keeps the two in step. Every workload reports every metric. An
//! "op" is one FL round on the FL workloads and one delivered message on
//! `broker-tcp` (see `METRICS.md`).

use std::fmt::Write;

/// End-to-end metrics: reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_ms_p50", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("wire_kb_per_op", "kB"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// End-to-end figures printed in the `--trace 0` table but left out of the
/// result line: their run-to-run spread exceeds any bound the benchmark
/// could gate on (see `METRICS.md`).
pub const UNGATED: [(&str, &str); 2] = [("latency_ms_tail", "ms"), ("throughput_per_s", "1/s")];

/// Per-layer metrics: reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("core.set_model_ms", "ms"),
    ("core.send_local_ms", "ms"),
    ("core.wait_ms", "ms"),
    ("core.connect_ms", "ms"),
    ("core.join_ms", "ms"),
    ("core.fold_ms", "ms"),
    ("core.dropped_transfers", "count"),
    ("core.undecodable_updates", "count"),
    ("core.ps_copied_bytes_per_round", "B"),
    ("nn.train_ms", "ms"),
    ("nn.encode_ms", "ms"),
    ("nn.decode_ms", "ms"),
    ("nn.final_accuracy", "%"),
    ("mqttfc.split_ms_per_blob", "ms"),
    ("mqttfc.reassemble_ms_per_blob", "ms"),
    ("mqttfc.compress_ratio", "ratio"),
    ("mqtt.publishes_in_per_round", "count"),
    ("mqtt.publishes_out_per_round", "count"),
    ("mqtt.cross_shard_hops_per_round", "count"),
    ("mqtt.dropped", "count"),
    ("mqtt.publish_call_us", "us"),
    ("mqtt.gen_late_ms_p99", "ms"),
    ("mqtt.gen_late_ms_max", "ms"),
    ("cpu.broker_ms", "ms"),
    ("cpu.client_rx_ms", "ms"),
    ("cpu.param_server_ms", "ms"),
    ("cpu.coordinator_ms", "ms"),
    ("cpu.nn_pool_ms", "ms"),
    ("cpu.driver_ms", "ms"),
    ("cpu.other_ms", "ms"),
    ("proc.threads", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("bench.failed_share", "ratio"),
];

/// One measured (or not applicable) metric value.
struct Value {
    value: f64,
    /// Why the metric does not apply to this workload; reported as 0.
    absent: Option<&'static str>,
}

/// Everything one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a correctness check failed.
    pub errors: Vec<String>,
    values: Vec<(&'static str, Value)>,
    /// Run parameters recorded beside the metrics.
    info: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            values: Vec::new(),
            info: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((
            name,
            Value {
                value,
                absent: None,
            },
        ));
    }

    /// Marks a per-layer metric as not exercised by this workload.
    pub fn absent(&mut self, name: &'static str, why: &'static str) {
        self.values.push((
            name,
            Value {
                value: 0.0,
                absent: Some(why),
            },
        ));
    }

    pub fn info(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.info.push((key, value.to_string()));
    }

    pub fn info_str(&mut self, key: &'static str, value: &str) {
        self.info.push((key, json_str(value)));
    }

    pub fn fail(&mut self, error: String) {
        self.errors.push(error);
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// True when every check passed and every end-to-end metric (in an
    /// untraced run) is a positive finite number.
    pub fn correct(&self, traced: bool) -> bool {
        self.errors.is_empty()
            && self.failed == 0
            && (traced
                || END_TO_END.iter().all(|(name, _)| {
                    self.get(name)
                        .is_some_and(|v| v.value.is_finite() && v.value > 0.0)
                }))
    }

    /// The catalogue this run reports.
    fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Human-readable report: run parameters, then one metric per line.
    pub fn table(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        let _ = writeln!(out, "{{{}}}", info.join(","));
        let kind = if traced { "per-layer" } else { "end-to-end" };
        let _ = writeln!(out, "== {workload}: {kind} metrics ==");
        let ungated: &[(&str, &str)] = if traced { &[] } else { &UNGATED };
        for (name, unit) in Outcome::catalogue(traced).iter().chain(ungated) {
            match self.get(name) {
                Some(Value {
                    absent: Some(why), ..
                }) => {
                    let _ = writeln!(out, "  {name:<34} {:>14} {unit:<6} n/a: {why}", "-");
                }
                Some(v) if ungated.iter().any(|(n, _)| n == name) => {
                    let _ = writeln!(out, "  {name:<34} {:>14.4} {unit:<6} (not gated)", v.value);
                }
                Some(v) => {
                    let _ = writeln!(out, "  {name:<34} {:>14.4} {unit}", v.value);
                }
                None => {
                    let _ = writeln!(out, "  {name:<34} {:>14} {unit:<6} missing", "-");
                }
            }
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {} (failed_share {:.4})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for e in &self.errors {
            let _ = writeln!(out, "  ERROR: {e}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of the run's catalogue with its unit.
    pub fn result_json(&self, traced: bool) -> String {
        // A run that stopped on an error before counting anything still
        // reports one failed attempt.
        let failed = if self.errors.is_empty() {
            self.failed
        } else {
            self.failed.max(1)
        };
        let metrics: Vec<String> = Outcome::catalogue(traced)
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).map_or(0.0, |v| v.value);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "{}:{{\"value\":{v:?},\"unit\":{}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(traced),
            self.attempted.max(failed).max(1),
            failed,
            metrics.join(",")
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalogue must match `BENCHMARK.json`, which sits at the
    /// repository root next to this package.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &obj[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::new();
        o.attempted = 10;
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        assert!(o.correct(false));
        let line = o.result_json(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        o.set("setup_s", 0.0);
        assert!(
            !o.correct(false),
            "a zero end-to-end metric is a failed run"
        );
        o.failed = 1;
        assert!(!o.correct(true));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
