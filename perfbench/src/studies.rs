//! The `intra` and `routes` workloads: one study after another on one
//! thread, each from a fresh scenario to rendered report bytes through
//! `RunContext::try_execute` — the path `dcnr intra` and `dcnr routes`
//! take.
//!
//! Cold operation: one study on a fresh derived seed. Warm operation:
//! the same report re-rendered from the context that already holds the
//! built study, i.e. `core::artifacts` alone — the cost a study cache
//! would leave.

use crate::calib::Speed;
use crate::replay;
use crate::report::Outcome;
use crate::stats::{mean, median, min_samples_for, percentile, sorted, study_seed};
use crate::trace::Tracer;
use crate::{Args, SetupClock};
use dcnr_core::service::{reference_conditions, EmergentSeverityModel};
use dcnr_core::telemetry::{installed, Telemetry};
use dcnr_core::topology::Region;
use dcnr_core::{RunContext, Scenario};
use std::time::{Duration, Instant};

/// Percentile reported as `cold_tail_ms` for studies.
const COLD_TAIL: f64 = 75.0;
/// Percentile reported as `warm_tail_us` for studies.
const WARM_TAIL: f64 = 90.0;

/// Which study a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Intra,
    Routes,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Intra => "intra",
            Kind::Routes => "routes",
        }
    }

    /// The CLI-default scenario of this kind (scale 10 intra, scale 1
    /// routes) on `seed`.
    fn scenario(self, seed: u64) -> Scenario {
        match self {
            Kind::Intra => Scenario::intra(seed),
            Kind::Routes => Scenario::routes(seed),
        }
    }

    fn seed(self, master: u64, index: u64) -> u64 {
        study_seed(master, self.name(), index)
    }

    /// Warm re-renders after each cold study: an intra report takes
    /// about a fifth of its study to re-render, a routes report well
    /// under a thousandth.
    fn warm_per_study(self) -> usize {
        match self {
            Kind::Intra => 3,
            Kind::Routes => 30,
        }
    }
}

/// Set-up: the first study on seed index 0, which fills every
/// process-lifetime cache (e.g. `EmergentSeverityModel::reference()`)
/// on first use. Returns the report bytes.
pub fn setup(kind: Kind, master: u64) -> Result<String, String> {
    let scenario = kind.scenario(kind.seed(master, 0));
    RunContext::new(scenario)
        .try_execute()
        .map(|o| o.rendered)
        .map_err(|e| format!("{} set-up study: {e}", kind.name()))
}

/// Checks a rendered report's own correctness lines.
pub fn check_report(kind: Kind, text: &str) -> Result<(), String> {
    match kind {
        Kind::Intra => {
            let first = text.lines().next().unwrap_or_default();
            let nums: Vec<u64> = first
                .split_whitespace()
                .filter_map(|w| w.parse().ok())
                .collect();
            match nums.as_slice() {
                [issues, sevs, ..] if first.starts_with("dataset:") && *issues > 0 && *sevs > 0 => {
                    Ok(())
                }
                _ => Err(format!("intra report: bad dataset line {first:?}")),
            }
        }
        Kind::Routes => {
            let line = |prefix: &str| {
                text.lines()
                    .find(|l| l.starts_with(prefix))
                    .ok_or_else(|| format!("routes report: no {prefix:?} line"))
            };
            let bfs = line("forwarding ≡ BFS: ")?;
            let counts = bfs["forwarding ≡ BFS: ".len()..]
                .split_whitespace()
                .next()
                .and_then(|s| s.split_once('/'))
                .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)));
            if !matches!(counts, Some((a, b)) if a == b && b > 0) {
                return Err(format!("routes report: {bfs:?}"));
            }
            let oracle = line("blast sweep: scratch reuse matches the allocating oracle")?;
            if !oracle.ends_with(": true") {
                return Err(format!("routes report: {oracle:?}"));
            }
            let agg = line("2017 incident-weighted aggregate: [")?;
            let inner = agg
                .split_once('[')
                .and_then(|(_, r)| r.split_once(']'))
                .map(|(m, _)| m)
                .unwrap_or_default();
            let mix: Vec<f64> = inner
                .split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect();
            let paper = [0.82, 0.13, 0.05];
            let ok = mix.len() == 3 && mix.iter().zip(paper).all(|(m, p)| (m - p).abs() <= 0.05);
            if !ok {
                return Err(format!("routes report: aggregate off 82/13/5: {agg:?}"));
            }
            Ok(())
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(kind: Kind, args: &Args, clock: SetupClock, speed: &mut Speed, out: &mut Outcome) {
    let warmup = match setup(kind, args.seed) {
        Ok(bytes) => bytes,
        Err(e) => return out.fail(e),
    };
    crate::record_setup(args, out, clock, speed, &warmup);

    let budget = Duration::from_secs(args.seconds);
    let min_cold = min_samples_for(COLD_TAIL);
    let min_warm = min_samples_for(WARM_TAIL);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut rss = Vec::new();
    let run = Instant::now();
    let mut index = 0u64;
    // Stops at the first failure: a run that failed a check is rejected.
    while (run.elapsed() < budget || cold.len() < min_cold || warm.len() < min_warm)
        && out.failed == 0
    {
        let f = speed.measure();
        crate::reset_peak_rss();
        let ctx = RunContext::new(kind.scenario(kind.seed(args.seed, index)));
        out.attempted += 1;
        let t = Instant::now();
        let result = ctx.try_execute();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let report = match result {
            Ok(o) => o.rendered,
            Err(e) => {
                out.fail(format!("{} study {index}: {e}", kind.name()));
                index += 1;
                continue;
            }
        };
        cold.push(ms * f);
        out.check(check_report(kind, &report).map_err(|e| format!("study {index}: {e}")));
        if index == 0 {
            out.check(if report == warmup {
                Ok(())
            } else {
                Err("seed 0 rendered twice gave different bytes".into())
            });
        }
        let f = speed.measure();
        for _ in 0..kind.warm_per_study() {
            out.attempted += 1;
            let t = Instant::now();
            let again = ctx.try_execute();
            let us = t.elapsed().as_secs_f64() * 1e6;
            match again {
                Ok(o) if o.rendered == report => warm.push(us * f),
                Ok(_) => out.fail(format!("study {index}: warm re-render changed bytes")),
                Err(e) => out.fail(format!("study {index}: warm re-render: {e}")),
            }
        }
        rss.push(crate::peak_rss_mb());
        index += 1;
    }
    out.set_sampled("peak_rss_mb", median(&rss), &rss);
    if cold.is_empty() || warm.is_empty() {
        return out.fail("no successful study");
    }
    let (cs, ws) = (sorted(&cold), sorted(&warm));
    out.set_sampled("cold_mean_ms", mean(&cold), &cold);
    out.set("cold_tail_ms", percentile(&cs, COLD_TAIL));
    out.set("cold_per_s", 1e3 / mean(&cold));
    out.set_sampled("warm_p50_us", percentile(&ws, 50.0), &warm);
    out.set("warm_tail_us", percentile(&ws, WARM_TAIL));
    out.set("warm_per_s", 1e6 / mean(&warm));
    out.note(
        "cold_op",
        format!("one {} study, scenario to report bytes", kind.name()),
    );
    out.note(
        "cold_tail",
        format!("p{COLD_TAIL} of {} studies", cold.len()),
    );
    out.note("warm_op", "report re-rendered from the built study");
    out.note(
        "warm_tail",
        format!("p{WARM_TAIL} of {} re-renders", warm.len()),
    );
}

/// Median time (ms) to compute the reference emergent severity model,
/// the work behind the process-lifetime `EmergentSeverityModel::reference()`.
pub fn emergent_compute_ms(times: usize, speed: &mut Speed) -> f64 {
    let region = Region::mixed_reference();
    let samples: Vec<f64> = (0..times)
        .map(|_| {
            let f = speed.measure();
            let t = Instant::now();
            std::hint::black_box(EmergentSeverityModel::compute(
                &region,
                &reference_conditions(),
            ));
            t.elapsed().as_secs_f64() * 1e3 * f
        })
        .collect();
    median(&samples)
}

/// The traced run: each study replayed as layer calls under harness
/// spans, next to the same study run untraced.
pub fn run_traced(
    kind: Kind,
    args: &Args,
    speed: &mut Speed,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    if let Err(e) = setup(kind, args.seed) {
        return out.fail(e);
    }
    out.set("service.emergent_compute_ms", emergent_compute_ms(3, speed));
    let mut s = Samples::default();
    let budget = Duration::from_secs(args.seconds);
    let run = Instant::now();
    let mut index = 0u64;
    while run.elapsed() < budget || index < 5 {
        let f = speed.measure();
        let seed = kind.seed(args.seed, index);
        let scenario = kind.scenario(seed);
        let ctx = RunContext::new(scenario);
        out.attempted += 1;
        // Untraced reference: build, then render.
        let t = Instant::now();
        match kind {
            Kind::Intra => {
                ctx.intra();
            }
            Kind::Routes => {
                ctx.routes();
            }
        }
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let report = match ctx.try_execute() {
            Ok(o) => o.rendered,
            Err(e) => {
                out.fail(format!("study {index}: {e}"));
                index += 1;
                continue;
            }
        };
        let render_ms = t.elapsed().as_secs_f64() * 1e3 * f;
        let build_ms = build_ms * f;
        s.untraced.push(build_ms + render_ms);
        out.check(check_report(kind, &report));

        // Replay under spans, then the render from the built study. The
        // replay's results are freed only after the span closes.
        let root = tracer.open("study", seed, None);
        let replayed = match kind {
            Kind::Intra => {
                Replayed::Intra(replay::intra(tracer, seed, root, scenario.intra_config()))
            }
            Kind::Routes => {
                Replayed::Routes(replay::routes(tracer, seed, root, scenario.routes_config()))
            }
        };
        let rendered = tracer.span("artifacts.render", seed, root, || ctx.try_execute());
        tracer.close(root);
        match replayed {
            Replayed::Intra(r) => {
                s.issues.push(r.issues as f64);
                s.auto_repair
                    .push(r.auto_repaired() as f64 / r.issues.max(1) as f64);
                s.sevs.push(r.sevs as f64);
                out.check(r.check(ctx.intra()));
            }
            Replayed::Routes(r) => {
                s.candidates.push(r.blast.candidates as f64);
                out.check(r.check(ctx.routes()));
                s.build.push(build_ms);
                s.render.push(render_ms);
            }
        }
        out.check(match rendered {
            Ok(o) if o.rendered == report => Ok(()),
            Ok(_) => Err(format!("study {index}: traced render changed bytes")),
            Err(e) => Err(format!("study {index}: traced render: {e}")),
        });
        s.traced.push(tracer.ms(root) * f);
        s.coverage.push(tracer.coverage(root));
        s.bytes.push(report.len() as f64);
        for (name, dst) in [
            ("faults.issue_gen", &mut s.issue_gen),
            ("remediation.triage", &mut s.triage),
            ("sev.ingest", &mut s.ingest),
            ("artifacts.render", &mut s.artifacts),
            ("topology.blast_oracle", &mut s.oracle),
            ("topology.blast_scratch", &mut s.scratch),
            ("topology.bfs", &mut s.bfs),
            ("service.impact", &mut s.impact),
        ] {
            dst.push(tracer.child_ms(root, name) * f);
        }
        if kind == Kind::Intra {
            s.rsw
                .push(tracer.within_ms(root, "faults.issue_gen.rsw") * f);
            // Telemetry tax: the same study with a collector installed.
            let ctx = RunContext::new(scenario);
            let t = Instant::now();
            let with = {
                let _guard = installed(Telemetry::new_handle());
                ctx.try_execute()
            };
            s.telemetry.push(t.elapsed().as_secs_f64() * 1e3 * f);
            out.check(match with {
                Ok(o) if o.rendered == report => Ok(()),
                Ok(_) => Err(format!("study {index}: telemetry on changed bytes")),
                Err(e) => Err(format!("study {index}: with telemetry: {e}")),
            });
        }
        index += 1;
    }
    s.publish(kind, tracer, speed.factor(), out);
    out.note(
        "traced_op",
        format!("{index} {} studies replayed as layer calls", kind.name()),
    );
}

enum Replayed {
    Intra(replay::IntraReplay),
    Routes(replay::RoutesReplay),
}

#[derive(Default)]
struct Samples {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    coverage: Vec<f64>,
    telemetry: Vec<f64>,
    issue_gen: Vec<f64>,
    rsw: Vec<f64>,
    issues: Vec<f64>,
    triage: Vec<f64>,
    auto_repair: Vec<f64>,
    ingest: Vec<f64>,
    sevs: Vec<f64>,
    artifacts: Vec<f64>,
    bytes: Vec<f64>,
    oracle: Vec<f64>,
    scratch: Vec<f64>,
    bfs: Vec<f64>,
    impact: Vec<f64>,
    candidates: Vec<f64>,
    build: Vec<f64>,
    render: Vec<f64>,
}

impl Samples {
    /// Publishes medians; `factor` scales the per-call span times, which
    /// are taken over the whole run.
    fn publish(&self, kind: Kind, tracer: &Tracer, factor: f64, out: &mut Outcome) {
        if self.untraced.is_empty() {
            return out.fail("no successful traced study");
        }
        let m = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let untraced = m(&self.untraced);
        out.set_sampled(
            "trace.overhead_ratio",
            m(&self.traced) / untraced,
            &self.traced,
        );
        out.set_sampled("trace.coverage", m(&self.coverage), &self.coverage);
        out.set_sampled("artifacts.render_ms", m(&self.artifacts), &self.artifacts);
        out.set("artifacts.bytes", m(&self.bytes));
        match kind {
            Kind::Intra => {
                out.set_sampled("faults.issue_gen_ms", m(&self.issue_gen), &self.issue_gen);
                out.set_sampled("faults.issue_gen_rsw_ms", m(&self.rsw), &self.rsw);
                out.set("faults.issues", m(&self.issues));
                out.set_sampled("remediation.triage_ms", m(&self.triage), &self.triage);
                out.set("remediation.auto_repair_frac", m(&self.auto_repair));
                out.set_sampled("sev.ingest_ms", m(&self.ingest), &self.ingest);
                out.set("sev.sevs", m(&self.sevs));
                out.set_sampled(
                    "telemetry.overhead_ratio",
                    m(&self.telemetry) / untraced,
                    &self.telemetry,
                );
            }
            Kind::Routes => {
                let per_call_us = |name: &str| m(&tracer.all_ms(name)) * 1e3 * factor;
                out.set(
                    "topology.forwarding_build_us",
                    per_call_us("topology.forwarding_build"),
                );
                out.set(
                    "topology.forwarding_apply_us",
                    per_call_us("topology.forwarding_apply"),
                );
                out.set_sampled("topology.blast_oracle_ms", m(&self.oracle), &self.oracle);
                out.set_sampled("topology.blast_scratch_ms", m(&self.scratch), &self.scratch);
                out.set("topology.blast_candidates", m(&self.candidates));
                out.set_sampled("topology.bfs_ms", m(&self.bfs), &self.bfs);
                out.set_sampled("service.impact_ms", m(&self.impact), &self.impact);
                out.set_sampled("routes.build_ms", m(&self.build), &self.build);
                out.set_sampled("routes.render_ms", m(&self.render), &self.render);
            }
        }
    }
}
