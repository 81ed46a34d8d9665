//! `perfbench` — the dcnr benchmark harness.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload intra|routes|serve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads, metrics and the layer predictions are described in
//! `perfbench/README.md`. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it carries provenance and each metric's sample quartiles. The
//! exit code is non-zero if any operation or correctness check failed.

mod calib;
mod replay;
mod report;
mod serving;
mod stats;
mod studies;
mod trace;

use calib::Speed;
use report::Outcome;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use studies::Kind;

const WORKLOADS: [&str; 3] = ["intra", "routes", "serve"];
/// Set-ups measured per run: this process plus fresh child processes,
/// so work done once per process (lazy statics) shows in every sample.
const SETUP_PROBES: usize = 4;

/// Times set-up from process start, scaled to the reference host speed
/// by the calibration kernel run just before the clock starts and just
/// after it is read.
#[derive(Debug, Clone, Copy)]
pub struct SetupClock {
    started: Instant,
    factor: f64,
}

impl SetupClock {
    fn start(speed: &mut Speed) -> Self {
        let factor = speed.measure();
        Self {
            started: Instant::now(),
            factor,
        }
    }

    /// Seconds since the clock started, scaled by the mean of the
    /// factors before and after.
    pub fn secs(&self, speed: &mut Speed) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        secs * (self.factor + speed.measure()) / 2.0
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Child mode: run the workload's set-up only and report its time.
    probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        probe: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--probe" {
            args.probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not an integer"))?;
                if args.seconds == 0 {
                    return Err(bad("must be at least 1"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // One kernel scratch for the whole process (see `calib::Speed`).
    let mut speed = Speed::default();
    let clock = SetupClock::start(&mut speed);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    if args.probe {
        return probe(&args, clock, &mut speed);
    }

    let mut out = Outcome::default();
    let mut tracer = trace::Tracer::new();
    match (args.workload.as_str(), args.trace) {
        ("intra", false) => studies::run(Kind::Intra, &args, clock, &mut speed, &mut out),
        ("routes", false) => studies::run(Kind::Routes, &args, clock, &mut speed, &mut out),
        ("intra", true) => {
            studies::run_traced(Kind::Intra, &args, &mut speed, &mut tracer, &mut out)
        }
        ("routes", true) => {
            studies::run_traced(Kind::Routes, &args, &mut speed, &mut tracer, &mut out)
        }
        (_, false) => serving::run(&args, clock, &mut speed, &mut out),
        (_, true) => serving::run_traced(&args, &mut speed, &mut tracer, &mut out),
    }
    out.set_speed(&speed);
    if args.trace {
        out.set("trace.spans", tracer.len() as f64);
        write_spans(&args, &tracer);
    }
    let (detail, result) = out.render(&provenance(&args), args.trace);
    println!("{detail}");
    println!("{result}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Child mode: set up once, print `probe <scaled seconds> <checksum>`.
fn probe(args: &Args, clock: SetupClock, speed: &mut Speed) -> ExitCode {
    let bytes = match args.workload.as_str() {
        "intra" => studies::setup(Kind::Intra, args.seed),
        "routes" => studies::setup(Kind::Routes, args.seed),
        _ => serving::setup_probe(args.seed),
    };
    match bytes {
        Ok(bytes) => {
            let secs = clock.secs(speed);
            println!(
                "probe {secs} {}",
                dcnr_server::body_checksum(bytes.as_bytes())
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench probe: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Records `setup_s`: the median over this process's set-up time and
/// [`SETUP_PROBES`] fresh child processes doing the same set-up, each
/// of which must produce the same bytes.
pub fn record_setup(
    args: &Args,
    out: &mut Outcome,
    clock: SetupClock,
    speed: &mut Speed,
    bytes: &str,
) {
    let own_secs = clock.secs(speed);
    let want = dcnr_server::body_checksum(bytes.as_bytes());
    let mut samples = vec![own_secs];
    for i in 0..SETUP_PROBES {
        out.attempted += 1;
        match run_probe(args) {
            Ok((secs, sum)) if sum == want => samples.push(secs),
            Ok(_) => out.fail(format!("set-up probe {i}: bytes differ from this process")),
            Err(e) => out.fail(format!("set-up probe {i}: {e}")),
        }
    }
    out.set_sampled("setup_s", stats::median(&samples), &samples);
}

fn run_probe(args: &Args) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--probe",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let fields: Vec<&str> = text.lines().last().unwrap_or_default().split(' ').collect();
    match (output.status.success(), fields.as_slice()) {
        (true, ["probe", secs, sum]) => Ok((
            secs.parse().map_err(|_| "bad probe time")?,
            sum.parse().map_err(|_| "bad probe checksum")?,
        )),
        _ => Err(format!("probe exited {} with {text:?}", output.status)),
    }
}

/// `--workload all`: each workload in its own child process, in turn.
fn run_all(argv: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = argv.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed")
            + 1;
        child_args[at] = w.to_string();
        let status = Command::new(&exe).args(&child_args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("git", git_describe()),
        ("profile", profile.to_string()),
    ]
}

/// `git describe --always --dirty`, confined to the working directory
/// (a checkout that is not a repository reads `unknown`).
fn git_describe() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Restarts the peak-RSS high-water mark at the current RSS, so the
/// next [`peak_rss_mb`] covers one operation (best effort).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the traced run's spans under the benchmark's own directory.
fn write_spans(args: &Args, tracer: &trace::Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.to_jsonl()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload routes --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("routes", 7, 3, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload intra --trace 2")).is_err());
        assert!(parse_args(&argv("--workload intra --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload intra --seed")).is_err());
    }
}
