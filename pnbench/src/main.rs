//! Benchmark driver.
//!
//! ```text
//! pnbench --workload <solar-day|sweep-refine|daemon-stream> --seed <n>
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times closed-loop jobs for `--seconds` and prints
//! the end-to-end metrics; with `--trace 1` it replays jobs through the
//! layer calls under spans and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use pn_sim::daemon::{Daemon, DaemonConfig};
use pn_sim::executor::Executor;
use pnbench::layers;
use pnbench::stats::{median, Summary};
use pnbench::trace::Tracer;
use pnbench::workloads::{self, err, Fingerprint, JobRun, Kind, THREADS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Cold set-ups per run: this many child processes, plus the run's own.
const SETUP_CHILDREN: usize = 2;
/// Fewest timed jobs in a run.
const MIN_JOBS: u64 = 3;
/// A traced job replays a job about this many times over (four passes
/// over its cells plus the layer probes).
const TRACE_COST: f64 = 8.0;

/// Jobs in a run: as many as take about `seconds` at the workload's
/// nominal job time. A fixed count, not a deadline, so every run at
/// one seed does identical work.
fn job_count(kind: Kind, seconds: f64, cost: f64) -> u64 {
    ((seconds / (kind.nominal_job_s() * cost)).ceil() as u64).max(1)
}

struct Args {
    name: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(err)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(err)?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let kind = Kind::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = seconds.unwrap_or(10.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        name,
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn main() {
    let process_start = Instant::now();
    let result = parse_args().and_then(|args| {
        let dir = PathBuf::from(".bench_run").join(format!(
            "{}-{}-{}",
            args.name,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let outcome = run(&args, &dir, process_start);
        let _ = std::fs::remove_dir_all(&dir);
        outcome
    });
    if let Err(e) = result {
        eprintln!("pnbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args, dir: &Path, process_start: Instant) -> Result<(), String> {
    if args.setup_only {
        workloads::setup(args.kind, dir)?.close();
        println!("setup_s {}", process_start.elapsed().as_secs_f64());
        return Ok(());
    }
    println!(
        "pnbench workload={} seed={} seconds={} trace={} threads={THREADS} available_parallelism={}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        Executor::default_parallelism()
    );
    if args.trace {
        traced(args, dir)
    } else {
        timed(args, dir, process_start)
    }
}

/// Runs this binary with `--setup-only` and returns the set-up time it
/// reports (process start → warm-up job done).
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(err)?;
    let output = Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            &args.name,
            "--seed",
            &args.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run set-up child: {e}"))?;
    if !output.status.success() {
        return Err(format!("set-up child failed: {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|line| line.strip_prefix("setup_s ")?.parse::<f64>().ok())
        .ok_or_else(|| "set-up child printed no setup_s".to_string())
}

fn timed(args: &Args, dir: &Path, process_start: Instant) -> Result<(), String> {
    let mut workload = workloads::setup(args.kind, dir)?;
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    for _ in 0..SETUP_CHILDREN {
        setups.push(child_setup(args)?);
    }
    if args.kind == Kind::DaemonStream {
        println!("daemon checkpoint dir {}", filesystem_of(dir));
    }

    let attempted = job_count(args.kind, args.seconds, 1.0).max(MIN_JOBS);
    let mut failed = 0u64;
    let mut runs: Vec<JobRun> = Vec::new();
    let mut fingerprint = Fingerprint::default();
    for job in 0..attempted {
        match workload.run_job(args.seed, job) {
            Ok(run) => {
                println!("job {job} ms={} first_row_ms={}", run.ms, run.first_row_ms);
                fingerprint.absorb(&run.fp);
                runs.push(run);
            }
            Err(e) => {
                failed += 1;
                eprintln!("pnbench: job {job} failed: {e}");
            }
        }
    }
    workload.close();

    let job_ms: Vec<f64> = runs.iter().map(|r| r.ms).collect();
    let first_row_ms: Vec<f64> = runs.iter().map(|r| r.first_row_ms).collect();
    let host_s: f64 = job_ms.iter().sum::<f64>() / 1e3;
    let cells: u64 = runs.iter().map(|r| r.fp.cells).sum();
    let sim_s: f64 = runs.iter().map(|r| r.fp.sim_s).sum();
    println!("fingerprint jobs=0..{attempted} {}", fingerprint.describe());
    println!("setup_s samples={setups:?}");
    if let Some(s) = Summary::of(&job_ms) {
        println!("job_ms {}", s.describe());
    }
    if let Some(s) = Summary::of(&first_row_ms) {
        println!("first_row_ms {}", s.describe());
    }
    let per_host_s = |x: f64| if host_s > 0.0 { x / host_s } else { 0.0 };
    let metrics = vec![
        ("setup_s".to_string(), "s", median(&setups)),
        ("job_p50_ms".to_string(), "ms", median(&job_ms)),
        ("cells_per_s".to_string(), "1/s", per_host_s(cells as f64)),
        ("sim_s_per_host_s".to_string(), "sim_s/s", per_host_s(sim_s)),
        ("first_row_p50_ms".to_string(), "ms", median(&first_row_ms)),
        ("peak_rss_mb".to_string(), "MB", peak_rss_mb()),
    ];
    print_result(failed == 0 && !runs.is_empty(), attempted, failed, &metrics);
    Ok(())
}

fn traced(args: &Args, dir: &Path) -> Result<(), String> {
    let mut own = Tracer::new();
    layers::trace_surface_build(&mut own)?;
    let mut workload = workloads::setup(args.kind, dir)?;
    let probe_dir = dir.join("probe-daemon");
    let probe_daemon =
        Daemon::start(DaemonConfig::new(&probe_dir).with_workers(THREADS)).map_err(err)?;
    let probe_addr = probe_daemon.addr().to_string();
    let exec = Executor::new(THREADS);
    let mut probe = Tracer::new();

    let attempted = job_count(args.kind, args.seconds, TRACE_COST);
    let mut failed = 0u64;
    for job in 0..attempted {
        own.set_job(job);
        probe.set_job(job);
        let spec = layers::probe_spec(args.seed, job);
        let outcome = workload.trace_job(args.seed, job, &mut own).and_then(|()| {
            layers::trace_probe(&mut probe, &spec, &exec, &probe_addr, &probe_dir, dir)
        });
        if let Err(e) = outcome {
            failed += 1;
            eprintln!("pnbench: traced job {job} failed: {e}");
        }
    }
    workload.close();
    probe_daemon.stop();

    let out_dir = Path::new(".bench_out");
    std::fs::create_dir_all(out_dir).map_err(err)?;
    for (tracer, suffix) in [(&own, ""), (&probe, "-probe")] {
        let path = out_dir.join(format!("spans-{}-{}{suffix}.tsv", args.name, args.seed));
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let jobs = attempted as f64;
    let (metrics, from_probe) = layers::layer_metrics(&own, jobs, &probe, jobs);
    println!("{}", layers::tail_note(&own));
    println!(
        "measured on the probe matrix (layer unused by this workload): {}",
        from_probe.join(" ")
    );
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(())
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type and mount point holding `dir`.
fn filesystem_of(dir: &Path) -> String {
    let path = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    // mountinfo: id parent dev root mount-point options [optional...] - fstype source ...
    let best = mounts
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount_point = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(dash + 1)?;
            path.starts_with(mount_point)
                .then_some((mount_point, fstype))
        })
        .max_by_key(|(mount_point, _)| mount_point.len());
    match best {
        Some((mount_point, fstype)) => {
            format!(
                "{} is on {fstype} (mounted at {mount_point})",
                path.display()
            )
        }
        None => format!("{} is on an unknown filesystem", path.display()),
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
