//! Run outcome, metric catalogue and the printed result.

use crate::calib::Speed;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_mean_ms", "ms"),
    ("cold_tail_ms", "ms"),
    ("cold_per_s", "1/s"),
    ("warm_p50_us", "us"),
    ("warm_tail_us", "us"),
    ("warm_per_s", "1/s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
/// A layer the workload never calls reads 0. Must match `per_layer` in
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("faults.issue_gen_ms", "ms"),
    ("faults.issue_gen_rsw_ms", "ms"),
    ("faults.issues", "count"),
    ("remediation.triage_ms", "ms"),
    ("remediation.auto_repair_frac", "ratio"),
    ("sev.ingest_ms", "ms"),
    ("sev.sevs", "count"),
    ("artifacts.render_ms", "ms"),
    ("artifacts.bytes", "bytes"),
    ("topology.forwarding_build_us", "us"),
    ("topology.forwarding_apply_us", "us"),
    ("topology.blast_oracle_ms", "ms"),
    ("topology.blast_scratch_ms", "ms"),
    ("topology.blast_candidates", "count"),
    ("topology.bfs_ms", "ms"),
    ("service.impact_ms", "ms"),
    ("service.emergent_compute_ms", "ms"),
    ("routes.build_ms", "ms"),
    ("routes.render_ms", "ms"),
    ("backbone.sim_ms", "ms"),
    ("backbone.ingest_ms", "ms"),
    ("backbone.emails", "count"),
    ("backbone.parse_failures", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("server.healthz_p50_us", "us"),
    ("server.shed", "count"),
    ("serve.hit_overhead_us", "us"),
    ("serve.direct_render_ms", "ms"),
    ("serve.cold_over_direct", "ratio"),
    ("serve.renders_per_cold_request", "ratio"),
    ("serve.first_of_study_frac", "ratio"),
    ("serve.dup_miss_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
];

/// One metric value plus the spread of the samples it summarises.
#[derive(Debug, Clone)]
struct Value {
    value: f64,
    /// `(p25, p50, p75, n)` of the per-operation samples, when the
    /// value summarises samples.
    spread: Option<(f64, f64, f64, usize)>,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    metrics: BTreeMap<&'static str, Value>,
    notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one failed operation or check and keeps its message.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        let msg = msg.into();
        eprintln!("perfbench: FAILED: {msg}");
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Counts a check: one attempt, and one failure if `r` is an error.
    pub fn check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.fail(e);
        }
    }

    /// Sets a single-valued metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(
            name,
            Value {
                value,
                spread: None,
            },
        );
    }

    /// Sets a metric summarising `samples`, keeping their quartiles.
    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: &[f64]) {
        let spread = (!samples.is_empty()).then(|| {
            let (a, b, c) = quartiles(samples);
            (a, b, c, samples.len())
        });
        self.metrics.insert(name, Value { value, spread });
    }

    /// Adds a free-form provenance note (percentile choice, phase
    /// lengths, ...).
    pub fn note(&mut self, key: &'static str, value: impl Into<String>) {
        self.notes.push((key, value.into()));
    }

    /// Records the run's median calibration kernel time.
    pub fn set_speed(&mut self, speed: &Speed) {
        self.note("calibration_kernel_ms", speed.kernel_ms().to_string());
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The two output lines: a provenance/spread line, then the result
    /// object the caller reads (always last).
    pub fn render(&self, provenance: &[(&str, String)], traced: bool) -> (String, String) {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut detail = String::from("{\"provenance\":{");
        for (i, (k, v)) in provenance.iter().chain(self.notes.iter()).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(detail, "{sep}\"{k}\":\"{}\"", escape(v));
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = write!(detail, "}},\"failed_frac\":{frac},\"errors\":[");
        for (i, e) in self.errors.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(detail, "{sep}\"{}\"", escape(e));
        }
        detail.push_str("],\"spread\":{");
        let mut result = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let v = self.metrics.get(name).cloned().unwrap_or(Value {
                value: 0.0,
                spread: None,
            });
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            let _ = write!(
                result,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
            let _ = write!(detail, "{sep}\"{name}\":{{\"value\":{value}");
            if let Some((p25, p50, p75, n)) = v.spread {
                let _ = write!(
                    detail,
                    ",\"sample_p25\":{p25},\"sample_p50\":{p50},\"sample_p75\":{p75},\"samples\":{n}"
                );
            }
            detail.push('}');
        }
        result.push_str("}}");
        detail.push_str("}}");
        (detail, result)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

    #[test]
    fn catalogue_matches_benchmark_json() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        let listed = BENCHMARK_JSON.matches("\"name\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + 3,
            "3 workloads"
        );
    }

    #[test]
    fn result_line_lists_every_metric_of_the_catalogue() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.set("setup_s", 0.5);
        let (_, line) = o.render(&[], false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")));
        }
        let mut speed = Speed::default();
        speed.measure();
        o.set_speed(&speed);
        let (detail, _) = o.render(&[], false);
        assert!(detail.contains("\"calibration_kernel_ms\":\""));
        o.check(Err("boom".into()));
        let (detail, line) = o.render(&[], true);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
        assert!(detail.contains("\"failed_frac\":0.5"));
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
