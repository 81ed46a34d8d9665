//! The `serve` workload: an in-process report server at its default
//! configuration with `workers` = nproc, driven by nproc closed-loop
//! client threads of this process (the server's users wait for each
//! reply).
//!
//! * warm phase — cache hits only, on keys filled during set-up;
//! * cold phase — fresh seeds. Each seed asks for three intra artifacts
//!   (`table1`, `fig2`, `fig3` at `scale=1`) and three backbone
//!   artifacts (`fig15`, `fig16`, `table4`): two studies feed six keys.
//!   Clients take keys from one shared cursor that lists every key
//!   twice in a row, so each key is asked for twice at about the same
//!   time by different clients.
//!
//! Both phases are cut into slices, each right after a burst on the
//! harness's loopback reference ([`Loopback`]); latencies and rates are
//! reported at the reference's speed.

use crate::calib::{Loopback, Speed, LOOPBACK_REFERENCE_US};
use crate::replay;
use crate::report::Outcome;
use crate::stats::{mean, median, min_samples_for, percentile, sorted, study_seed};
use crate::studies::emergent_compute_ms;
use crate::trace::Tracer;
use crate::{Args, SetupClock};
use dcnr_core::artifacts::render_block;
use dcnr_core::serve::{render_artifact_text, scenario_for_artifact, start, RunningServer};
use dcnr_core::telemetry::{installed, Telemetry};
use dcnr_core::{Experiment, RunContext, Scenario, ServeOptions};
use dcnr_server::body_checksum;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Artifacts asked for per seed: the first three come from one intra
/// study, the last three from one backbone study.
const ARTIFACTS: [&str; 6] = ["table1", "fig2", "fig3", "fig15", "fig16", "table4"];
/// Percentile reported as `cold_tail_ms`.
const COLD_TAIL: f64 = 90.0;
/// Percentile reported as `warm_tail_us`, as on the study workloads: the
/// hits' p99 is set by thread wake-ups on shared cores and spread by up
/// to 22% between identical runs.
const WARM_TAIL: f64 = 90.0;
/// Share of the run spent in the warm phase; the rest is cold. Cold
/// requests are few and slow, so they get the larger share.
const WARM_SHARE: f64 = 0.25;
/// Cold seeds whose studies the traced run replays and renders directly.
const REPLAYED_SEEDS: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(60);

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn experiment(artifact: &str) -> Experiment {
    Experiment::ALL
        .into_iter()
        .find(|e| e.key() == artifact)
        .expect("artifact ids are registry keys")
}

/// The query of `artifact` for `seed`: intra artifacts at scale 1.
fn query(artifact: &str, seed: u64) -> String {
    if ARTIFACTS[..3].contains(&artifact) {
        format!("seed={seed}&scale=1")
    } else {
        format!("seed={seed}")
    }
}

/// One artifact request of the workload.
#[derive(Debug, Clone)]
struct Key {
    artifact: &'static str,
    seed: u64,
}

impl Key {
    fn target(&self) -> String {
        format!(
            "/artifacts/{}?{}",
            self.artifact,
            query(self.artifact, self.seed)
        )
    }

    fn scenario(&self) -> Result<Scenario, String> {
        scenario_for_artifact(experiment(self.artifact), &query(self.artifact, self.seed))
            .map_err(|e| e.to_string())
    }

    /// The CLI path's bytes for this key.
    fn direct(&self) -> Result<String, String> {
        render_artifact_text(&self.scenario()?, experiment(self.artifact))
            .map_err(|e| e.to_string())
    }
}

fn warm_keys(master: u64) -> Vec<Key> {
    let seed = study_seed(master, "serve.warm", 0);
    ARTIFACTS
        .iter()
        .map(|&artifact| Key { artifact, seed })
        .collect()
}

/// Distinct cold key `id`: seed `id / 6`, artifact `id % 6`.
fn cold_key(master: u64, id: usize) -> Key {
    Key {
        artifact: ARTIFACTS[id % ARTIFACTS.len()],
        seed: study_seed(master, "serve", (id / ARTIFACTS.len()) as u64),
    }
}

fn start_server() -> Result<RunningServer, String> {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: nproc(),
        ..ServeOptions::default()
    };
    start(&opts).map_err(|e| format!("server start: {e}"))
}

fn get(addr: &str, target: &str) -> Result<Vec<u8>, String> {
    match dcnr_server::get(addr, target, Some(TIMEOUT)) {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("{target}: HTTP {}", r.status)),
        Err(e) => Err(format!("{target}: {e}")),
    }
}

/// Fills the warm keys through HTTP; returns their bodies in order.
fn fill(addr: &str, keys: &[Key]) -> Result<Vec<Vec<u8>>, String> {
    keys.iter().map(|k| get(addr, &k.target())).collect()
}

/// Set-up: start the server and fill the warm keys.
fn setup(master: u64) -> Result<(RunningServer, Vec<Vec<u8>>), String> {
    let server = start_server()?;
    match fill(&server.addr().to_string(), &warm_keys(master)) {
        Ok(bodies) => Ok((server, bodies)),
        Err(e) => {
            server.shutdown_and_join();
            Err(e)
        }
    }
}

/// Child-process set-up for `setup_s`: set up, drain, return the bodies.
pub fn setup_probe(master: u64) -> Result<String, String> {
    let (server, bodies) = setup(master)?;
    server.shutdown_and_join();
    Ok(concat(&bodies))
}

fn concat(bodies: &[Vec<u8>]) -> String {
    bodies.iter().map(|b| String::from_utf8_lossy(b)).collect()
}

/// One completed request.
struct Rec {
    /// Cursor position (cold) or key index (warm).
    pos: usize,
    start: Instant,
    end: Instant,
    /// Body checksum, or what went wrong.
    result: Result<u64, String>,
}

impl Rec {
    fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

type Next<'a> = &'a (dyn Fn(usize) -> String + Sync);
/// Bodies of cold keys, by distinct key id.
type Kept = HashMap<usize, Vec<u8>>;
type Verify<'a> = &'a (dyn Fn(usize, Vec<u8>) -> Result<u64, String> + Sync);

/// Runs `clients` closed-loop clients until `until` has passed and at
/// least `min_done` requests completed, with the shared cursor starting
/// at `start`. `next` maps a cursor position to a target; `verify`
/// checks a body and returns its checksum.
fn closed_loop(
    addr: &str,
    clients: usize,
    start: usize,
    until: Instant,
    min_done: usize,
    next: Next,
    verify: Verify,
) -> Vec<Rec> {
    let cursor = AtomicUsize::new(start);
    let done = AtomicUsize::new(0);
    let per_client: Vec<Vec<Rec>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut recs = Vec::new();
                    while Instant::now() < until || done.load(Ordering::Relaxed) < min_done {
                        let pos = cursor.fetch_add(1, Ordering::Relaxed);
                        let target = next(pos);
                        let start = Instant::now();
                        let body = get(addr, &target);
                        let end = Instant::now();
                        let result = body.and_then(|b| verify(pos, b));
                        recs.push(Rec {
                            pos,
                            start,
                            end,
                            result,
                        });
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    recs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all: Vec<Rec> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|r| r.pos);
    all
}

/// Cache and shed counters from `/metrics`, summed over labels.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    shed: u64,
}

impl Counters {
    /// `self + (after - before)`.
    fn plus_delta(self, before: Counters, after: Counters) -> Counters {
        Counters {
            hits: self.hits + after.hits.saturating_sub(before.hits),
            misses: self.misses + after.misses.saturating_sub(before.misses),
            shed: self.shed + after.shed.saturating_sub(before.shed),
        }
    }
}

fn scrape(addr: &str) -> Result<Counters, String> {
    let body = get(addr, "/metrics")?;
    let text = String::from_utf8_lossy(&body);
    let mut c = Counters::default();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let name = line.split(['{', ' ']).next().unwrap_or_default();
        let value: u64 = line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        match name {
            "dcnr_server_cache_hits_total" => c.hits += value,
            "dcnr_server_cache_misses_total" => c.misses += value,
            "dcnr_server_shed_total" => c.shed += value,
            _ => {}
        }
    }
    Ok(c)
}

/// Warm and cold load alternate in this many rounds, so each phase's
/// samples spread over the whole run instead of one stretch of it: the
/// host's speed drifts over seconds, and a phase measured in one stretch
/// carried that drift from run to run.
const ROUNDS: usize = 3;
/// Slices per round of each phase; each slice follows a burst on the
/// loopback reference.
const WARM_SLICES: usize = 10;
const COLD_SLICES: usize = 6;
/// Length of one loopback burst.
const BURST_S: f64 = 0.1;

/// What the rounds of one phase measured.
#[derive(Default)]
struct Phase {
    recs: Vec<Rec>,
    wall_s: f64,
    /// Largest peak RSS (MiB) of any round.
    rss: f64,
    /// Increase of the `/metrics` counters over the phase's rounds.
    delta: Counters,
    slices: Vec<Slice>,
}

/// One slice of a phase, next to the loopback burst run just before it.
struct Slice {
    /// Successful latencies (µs), ascending.
    us: Vec<f64>,
    wall_s: f64,
    /// The loopback burst's median round trip (µs).
    ref_us: f64,
}

impl Slice {
    /// Factor that scales the slice's times to the reference loopback
    /// speed.
    fn to_ref(&self) -> f64 {
        LOOPBACK_REFERENCE_US / self.ref_us
    }
}

impl Phase {
    /// Runs one round of closed-loop load for `secs` (longer if fewer
    /// than `min_done` requests completed), continuing the shared cursor
    /// where the previous round stopped. Returns the round's successful
    /// latencies (µs, ascending) and its wall time.
    fn round(
        &mut self,
        addr: &str,
        secs: f64,
        min_done: usize,
        next: Next,
        verify: Verify,
    ) -> Result<(Vec<f64>, f64), String> {
        let before = scrape(addr)?;
        crate::reset_peak_rss();
        let t = Instant::now();
        let until = t + Duration::from_secs_f64(secs);
        let recs = closed_loop(
            addr,
            nproc(),
            self.recs.len(),
            until,
            min_done,
            next,
            verify,
        );
        let wall_s = t.elapsed().as_secs_f64();
        self.wall_s += wall_s;
        self.rss = self.rss.max(crate::peak_rss_mb());
        self.delta = self.delta.plus_delta(before, scrape(addr)?);
        let us: Vec<f64> = recs
            .iter()
            .filter(|r| r.result.is_ok())
            .map(Rec::us)
            .collect();
        self.recs.extend(recs);
        Ok((sorted(&us), wall_s))
    }

    /// Runs a round of `secs` as one slice, right after a burst on
    /// `loopback`.
    fn slice(
        &mut self,
        addr: &str,
        loopback: &Loopback,
        secs: f64,
        min_done: usize,
        next: Next,
        verify: Verify,
    ) -> Result<(), String> {
        let ref_us = loopback.burst(nproc(), BURST_S)?;
        let (us, wall_s) = self.round(addr, secs, min_done, next, verify)?;
        self.slices.push(Slice { us, wall_s, ref_us });
        Ok(())
    }

    /// Every successful latency (µs) at the reference loopback speed.
    fn scaled_us(&self) -> Vec<f64> {
        self.slices
            .iter()
            .flat_map(|s| s.us.iter().map(|us| us * s.to_ref()))
            .collect()
    }

    /// Successful requests per second at the reference loopback speed.
    fn scaled_per_s(&self) -> f64 {
        let n: usize = self.slices.iter().map(|s| s.us.len()).sum();
        let wall: f64 = self.slices.iter().map(|s| s.wall_s * s.to_ref()).sum();
        n as f64 / wall
    }

    fn latencies_us(&self) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.result.is_ok())
            .map(Rec::us)
            .collect()
    }

    fn ok(&self) -> usize {
        self.recs.iter().filter(|r| r.result.is_ok()).count()
    }

    fn count_into(&self, out: &mut Outcome, what: &str) {
        for r in &self.recs {
            out.attempted += 1;
            if let Err(e) = &r.result {
                out.fail(format!("{what} request {}: {e}", r.pos));
            }
        }
    }
}

/// Runs the warm phase (`warm_s` in total, hits on the set-up keys)
/// and the cold phase (`cold_s`, fresh keys) in [`ROUNDS`] alternating
/// rounds, each cut into slices that follow a loopback burst. Keeps the
/// bodies of the first `keep` distinct cold keys.
fn load(
    addr: &str,
    master: u64,
    (keys, bodies): (&[Key], &[Vec<u8>]),
    (warm_s, cold_s): (f64, f64),
    keep: usize,
    loopback: &Loopback,
) -> Result<(Phase, Phase, Kept), String> {
    let targets: Vec<String> = keys.iter().map(Key::target).collect();
    let kept = Mutex::new(HashMap::new());
    let warm_next = |pos: usize| targets[pos % targets.len()].clone();
    let warm_verify = |pos: usize, body: Vec<u8>| {
        if body == bodies[pos % bodies.len()] {
            Ok(0)
        } else {
            Err("warm body differs from the set-up body".to_string())
        }
    };
    let cold_next = |pos: usize| cold_key(master, pos / 2).target();
    let cold_verify = |pos: usize, body: Vec<u8>| {
        let sum = body_checksum(&body);
        if pos / 2 < keep {
            kept.lock().expect("kept bodies lock").insert(pos / 2, body);
        }
        Ok(sum)
    };
    let (mut warm, mut cold) = (Phase::default(), Phase::default());
    // Each warm slice computes its own tail; the cold tail is pooled.
    let min_warm = min_samples_for(WARM_TAIL);
    let min_cold = min_samples_for(COLD_TAIL).div_ceil(ROUNDS * COLD_SLICES);
    for round in 0..ROUNDS {
        if round > 0 {
            // A cold round evicts the warm keys from the server's LRU
            // cache; fill them again, outside the measured rounds.
            for (target, body) in targets.iter().zip(bodies) {
                if get(addr, target)? != *body {
                    return Err(format!("{target}: refill differs from the set-up body"));
                }
            }
        }
        let w = warm_s / (ROUNDS * WARM_SLICES) as f64;
        for _ in 0..WARM_SLICES {
            warm.slice(addr, loopback, w, min_warm, &warm_next, &warm_verify)?;
        }
        let c = cold_s / (ROUNDS * COLD_SLICES) as f64;
        for _ in 0..COLD_SLICES {
            cold.slice(addr, loopback, c, min_cold, &cold_next, &cold_verify)?;
        }
    }
    Ok((warm, cold, kept.into_inner().expect("kept bodies lock")))
}

/// Checks both phases: hits-only warm, every first cold request a miss,
/// duplicate cold requests agreeing, no shedding. Returns the number of
/// distinct cold keys requested.
fn check_phases(out: &mut Outcome, warm: &Phase, cold: &Phase) -> usize {
    warm.count_into(out, "warm");
    cold.count_into(out, "cold");
    let (wh, wm) = (warm.delta.hits, warm.delta.misses);
    out.check(if wm == 0 && wh as usize == warm.ok() {
        Ok(())
    } else {
        Err(format!(
            "warm phase: {wh} hits, {wm} misses for {} requests",
            warm.ok()
        ))
    });
    let (ch, cm) = (cold.delta.hits, cold.delta.misses);
    let keys = cold
        .recs
        .iter()
        .map(|r| r.pos / 2)
        .max()
        .map_or(0, |m| m + 1);
    out.check(if (ch + cm) as usize == cold.ok() && cm as usize >= keys {
        Ok(())
    } else {
        Err(format!(
            "cold phase: {ch} hits + {cm} misses for {} requests, {keys} keys",
            cold.ok()
        ))
    });
    let mut sums: HashMap<usize, u64> = HashMap::new();
    for r in &cold.recs {
        if let Ok(sum) = r.result {
            if *sums.entry(r.pos / 2).or_insert(sum) != sum {
                out.check(Err(format!(
                    "cold key {}: the two replies differ",
                    r.pos / 2
                )));
            }
        }
    }
    let shed = warm.delta.shed + cold.delta.shed;
    out.check(if shed == 0 {
        Ok(())
    } else {
        Err(format!("server shed {shed} requests"))
    });
    keys
}

/// CLI ≡ HTTP: an HTTP `body` must byte-equal the CLI render of its key.
fn cli_matches(
    key: &Key,
    cli: Result<String, String>,
    body: Option<&Vec<u8>>,
) -> Result<(), String> {
    match (cli, body) {
        (Ok(text), Some(body)) if text.as_bytes() == &body[..] => Ok(()),
        (Ok(_), Some(_)) => Err(format!(
            "{}: HTTP body differs from the CLI render",
            key.target()
        )),
        (Ok(_), None) => Err(format!("{}: never requested", key.target())),
        (Err(e), _) => Err(e),
    }
}

/// Checks kept cold bodies against the CLI path.
fn check_direct(out: &mut Outcome, master: u64, kept: &Kept) {
    let mut ids: Vec<_> = kept.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let key = cold_key(master, id);
        out.check(cli_matches(&key, key.direct(), kept.get(&id)));
    }
}

/// Starts the loopback reference with the server's worker count and a
/// reply of the warm bodies' mean size.
fn start_loopback(bodies: &[Vec<u8>]) -> Result<Loopback, String> {
    let len = bodies.iter().map(Vec::len).sum::<usize>() / bodies.len().max(1);
    Loopback::start(nproc(), len).map_err(|e| format!("loopback reference: {e}"))
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, clock: SetupClock, speed: &mut Speed, out: &mut Outcome) {
    let (server, bodies) = match setup(args.seed) {
        Ok(s) => s,
        Err(e) => return out.fail(e),
    };
    crate::record_setup(args, out, clock, speed, &concat(&bodies));
    let addr = server.addr().to_string();
    let keys = warm_keys(args.seed);
    for (k, body) in keys.iter().zip(&bodies) {
        out.check(cli_matches(k, k.direct(), Some(body)));
    }
    let secs = args.seconds as f64;
    let split = (secs * WARM_SHARE, secs * (1.0 - WARM_SHARE));
    let loopback = match start_loopback(&bodies) {
        Ok(l) => l,
        Err(e) => {
            server.shutdown_and_join();
            return out.fail(e);
        }
    };
    let keep = 2 * ARTIFACTS.len();
    let phases = load(&addr, args.seed, (&keys, &bodies), split, keep, &loopback);
    server.shutdown_and_join();
    loopback.stop();
    let (warm, cold, kept) = match phases {
        Ok(p) => p,
        Err(e) => return out.fail(e),
    };
    check_phases(out, &warm, &cold);
    check_direct(out, args.seed, &kept);
    out.set("peak_rss_mb", cold.rss);

    let (w, c) = (warm.latencies_us(), cold.latencies_us());
    if w.is_empty() || c.is_empty() {
        return out.fail("no successful request");
    }
    // Warm slices hold thousands of hits each: each slice's figures at
    // the reference loopback speed, median over the slices.
    let per_slice = |f: &dyn Fn(&Slice) -> f64| -> Vec<f64> { warm.slices.iter().map(f).collect() };
    let p50s = per_slice(&|s| percentile(&s.us, 50.0) * s.to_ref());
    out.set_sampled("warm_p50_us", median(&p50s), &p50s);
    let tails = per_slice(&|s| percentile(&s.us, WARM_TAIL) * s.to_ref());
    out.set("warm_tail_us", median(&tails));
    let rates = per_slice(&|s| s.us.len() as f64 / (s.wall_s * s.to_ref()));
    out.set("warm_per_s", median(&rates));
    // Cold slices hold a few renders each: the scaled latencies pooled.
    let c_ms: Vec<f64> = cold.scaled_us().iter().map(|us| us / 1e3).collect();
    out.set_sampled("cold_mean_ms", mean(&c_ms), &c_ms);
    out.set("cold_tail_ms", percentile(&sorted(&c_ms), COLD_TAIL));
    out.set("cold_per_s", cold.scaled_per_s());
    let refs: Vec<f64> = warm
        .slices
        .iter()
        .chain(&cold.slices)
        .map(|s| s.ref_us)
        .collect();
    out.note("loopback_round_trip_us", median(&refs).to_string());
    out.note("warm_p50_us_unscaled", median(&w).to_string());
    out.note("cold_mean_ms_unscaled", (mean(&c) / 1e3).to_string());
    out.note(
        "clients",
        format!("{} closed-loop clients, {} workers", nproc(), nproc()),
    );
    out.note(
        "warm_tail",
        format!(
            "median over {} slices of each slice's p{WARM_TAIL}; {} cache hits in all",
            warm.slices.len(),
            w.len()
        ),
    );
    out.note(
        "cold_tail",
        format!("p{COLD_TAIL} of {} cold requests", c.len()),
    );
}

/// The traced run: per-request client spans, `/metrics` deltas, and a
/// layered replay plus direct renders of the first cold seeds.
pub fn run_traced(args: &Args, speed: &mut Speed, tracer: &mut Tracer, out: &mut Outcome) {
    let (server, bodies) = match setup(args.seed) {
        Ok(s) => s,
        Err(e) => return out.fail(e),
    };
    out.set("service.emergent_compute_ms", emergent_compute_ms(3, speed));
    let addr = server.addr().to_string();
    let keys = warm_keys(args.seed);
    let secs = args.seconds as f64;
    let health_s = (secs / 10.0).max(1.0);
    let phases = (|| {
        let mut health = Phase::default();
        health.round(
            &addr,
            health_s,
            min_samples_for(50.0),
            &|_| "/healthz".to_string(),
            &|_, body| {
                if body == b"ok\n" {
                    Ok(0)
                } else {
                    Err("bad /healthz body".into())
                }
            },
        )?;
        let split = (secs * WARM_SHARE, secs * (1.0 - WARM_SHARE) - health_s);
        let keep = REPLAYED_SEEDS * ARTIFACTS.len();
        let loopback = start_loopback(&bodies)?;
        let phases = load(&addr, args.seed, (&keys, &bodies), split, keep, &loopback);
        loopback.stop();
        let (warm, cold, kept) = phases?;
        Ok::<_, String>((health, warm, cold, kept))
    })();
    server.shutdown_and_join();
    let (health, warm, cold, kept) = match phases {
        Ok(p) => p,
        Err(e) => return out.fail(e),
    };
    health.count_into(out, "healthz");
    let keys_requested = check_phases(out, &warm, &cold);

    // Client spans: one per request, under one span per phase.
    for (name, phase) in [("phase.warm", &warm), ("phase.cold", &cold)] {
        let (Some(first), Some(last)) = (
            phase.recs.iter().map(|r| r.start).min(),
            phase.recs.iter().map(|r| r.end).max(),
        ) else {
            continue;
        };
        let root = tracer.record(name, 0, None, first, last);
        for r in &phase.recs {
            tracer.record("client.request", r.pos as u64, Some(root), r.start, r.end);
        }
    }

    let health_us = median(&health.latencies_us());
    out.set("server.healthz_p50_us", health_us);
    out.set(
        "serve.hit_overhead_us",
        median(&warm.latencies_us()) - health_us,
    );
    let shed = health.delta.shed + warm.delta.shed + cold.delta.shed;
    out.set("server.shed", shed as f64);
    let cold_requests = cold.ok() as f64;
    let misses = cold.delta.misses as f64;
    out.set("serve.renders_per_cold_request", misses / cold_requests);
    out.set(
        "serve.dup_miss_frac",
        (misses - keys_requested as f64) / keys_requested as f64,
    );
    let firsts = (0..keys_requested)
        .filter(|id| matches!(id % ARTIFACTS.len(), 0 | 3))
        .count();
    out.set(
        "serve.first_of_study_frac",
        firsts as f64 / keys_requested as f64,
    );
    let cold_mean_ms = mean(&cold.latencies_us()) / 1e3;

    replay_seeds(args.seed, tracer, out, &kept, cold_mean_ms, speed);
}

/// Replays the first cold seeds' studies as layer calls, renders their
/// keys directly (no collector), and measures the telemetry tax.
fn replay_seeds(
    master: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    kept: &Kept,
    cold_mean_ms: f64,
    speed: &mut Speed,
) {
    let mut v: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in 0..REPLAYED_SEEDS {
        let f = speed.measure();
        let intra_key = cold_key(master, s * ARTIFACTS.len());
        let bb_key = cold_key(master, s * ARTIFACTS.len() + 3);
        let (Ok(intra_sc), Ok(bb_sc)) = (intra_key.scenario(), bb_key.scenario()) else {
            out.fail("cold scenario did not parse");
            continue;
        };
        let root = tracer.open("seed", intra_key.seed, None);
        let ri = replay::intra(tracer, intra_key.seed, root, intra_sc.intra_config());
        let rb = replay::backbone(tracer, bb_key.seed, root, bb_sc.backbone_config());
        tracer.close(root);
        v.entry("coverage").or_default().push(tracer.coverage(root));
        v.entry("traced").or_default().push(tracer.ms(root) * f);
        for (metric, span) in [
            ("faults.issue_gen_ms", "faults.issue_gen"),
            ("remediation.triage_ms", "remediation.triage"),
            ("sev.ingest_ms", "sev.ingest"),
            ("backbone.sim_ms", "backbone.sim"),
            ("backbone.ingest_ms", "backbone.ingest"),
        ] {
            v.entry(metric)
                .or_default()
                .push(tracer.child_ms(root, span) * f);
        }
        v.entry("faults.issue_gen_rsw_ms")
            .or_default()
            .push(tracer.within_ms(root, "faults.issue_gen.rsw") * f);
        v.entry("faults.issues").or_default().push(ri.issues as f64);
        v.entry("remediation.auto_repair_frac")
            .or_default()
            .push(ri.auto_repaired() as f64 / ri.issues.max(1) as f64);
        v.entry("sev.sevs").or_default().push(ri.sevs as f64);
        v.entry("backbone.emails")
            .or_default()
            .push(rb.emails as f64);
        v.entry("backbone.parse_failures")
            .or_default()
            .push(rb.parse_failures as f64);

        // Render-only cost from the built studies, checked against the replay.
        let (ci, cb) = (RunContext::new(intra_sc), RunContext::new(bb_sc));
        let t = Instant::now();
        let _ = (ci.intra(), cb.inter());
        v.entry("untraced")
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e3 * f);
        out.check(ri.check(ci.intra()));
        out.check(rb.check(cb.inter()));
        drop((ri, rb));
        for (i, &artifact) in ARTIFACTS.iter().enumerate() {
            let ctx = if i < 3 { &ci } else { &cb };
            let t = Instant::now();
            let text = render_block(&ctx.artifact(experiment(artifact)));
            v.entry("artifacts.render_ms")
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e3 * f);
            v.entry("artifacts.bytes")
                .or_default()
                .push(text.len() as f64);
        }

        // Direct renders: the CLI path for each key, checked against HTTP.
        for id in s * ARTIFACTS.len()..(s + 1) * ARTIFACTS.len() {
            let key = cold_key(master, id);
            let t = Instant::now();
            let text = key.direct();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            v.entry("serve.direct_render_ms").or_default().push(ms * f);
            v.entry("direct_unscaled").or_default().push(ms);
            out.check(cli_matches(&key, text, kept.get(&id)));
        }

        // Telemetry tax on the cold intra study.
        let t = Instant::now();
        let plain = RunContext::new(intra_sc).try_execute();
        v.entry("plain")
            .or_default()
            .push(t.elapsed().as_secs_f64() * f);
        let t = Instant::now();
        let with = {
            let _guard = installed(Telemetry::new_handle());
            RunContext::new(intra_sc).try_execute()
        };
        v.entry("with")
            .or_default()
            .push(t.elapsed().as_secs_f64() * f);
        out.check(match (plain, with) {
            (Ok(a), Ok(b)) if a.rendered == b.rendered => Ok(()),
            (Ok(_), Ok(_)) => Err("telemetry on changed the intra report".into()),
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        });
    }
    let m = |name: &str| v.get(name).map_or(0.0, |s| median(s));
    for name in [
        "faults.issue_gen_ms",
        "faults.issue_gen_rsw_ms",
        "faults.issues",
        "remediation.triage_ms",
        "remediation.auto_repair_frac",
        "sev.ingest_ms",
        "sev.sevs",
        "backbone.sim_ms",
        "backbone.ingest_ms",
        "backbone.emails",
        "backbone.parse_failures",
        "artifacts.render_ms",
        "artifacts.bytes",
        "serve.direct_render_ms",
    ] {
        out.set_sampled(name, m(name), v.get(name).map_or(&[][..], |s| &s[..]));
    }
    out.set("trace.coverage", m("coverage"));
    out.set("trace.overhead_ratio", m("traced") / m("untraced"));
    out.set("telemetry.overhead_ratio", m("with") / m("plain"));
    // Both sides unscaled: request latencies are never scaled.
    let direct = v.get("direct_unscaled").map_or(0.0, |d| mean(d));
    out.set("serve.cold_over_direct", cold_mean_ms / direct);
}
