//! The three closed-loop workloads. Each job is generated from the
//! workload seed and the job index alone ([`cloud_seeds`]), so every
//! run at one seed issues the same sequence of jobs.

use crate::layers;
use crate::stats::{cloud_seeds, fnv1a, mix64, WARMUP_JOB};
use crate::trace::Tracer;
use pn_harvest::cache::TraceCache;
use pn_harvest::faults::FaultSpec;
use pn_harvest::weather::Weather;
use pn_sim::adaptive::{AdaptiveCampaign, AdaptiveConfig, BoundaryBracket};
use pn_sim::campaign::{
    run_campaign, run_campaign_with, CampaignCell, CampaignReport, CampaignSpec, GovernorSpec,
};
use pn_sim::daemon::{self, Daemon, DaemonConfig};
use pn_sim::executor::Executor;
use pn_sim::persist;
use pn_sim::supply::SupplyModel;
use pn_soc::thermal::ThermalSpec;
use pn_units::Seconds;
use pn_workload::arrival::ArrivalSpec;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads of the executor and of the daemon (the benchmark
/// host has two cores).
pub const THREADS: usize = 2;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Engine-bound: hour-long solar windows, exact and interpolated.
    SolarDay,
    /// Per-cell-bound: a wide short-window matrix, persist/CSV round
    /// trip, then adaptive buffer refinement.
    SweepRefine,
    /// The campaign layer served through the daemon in fine shards.
    DaemonStream,
}

impl Kind {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "solar-day" => Some(Kind::SolarDay),
            "sweep-refine" => Some(Kind::SweepRefine),
            "daemon-stream" => Some(Kind::DaemonStream),
            _ => None,
        }
    }

    /// Host seconds one job took on the reference host (2 cores); a
    /// run issues `--seconds` worth of jobs at this rate.
    pub fn nominal_job_s(self) -> f64 {
        match self {
            Kind::SolarDay => 1.6,
            Kind::SweepRefine => 2.3,
            Kind::DaemonStream => 1.3,
        }
    }
}

/// Exact work counts of one or more jobs, plus a digest of their CSV
/// bytes. A change that only speeds the simulator up leaves every
/// field unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Fingerprint {
    /// Cells simulated (matrix cells plus adaptive probe cells).
    pub cells: u64,
    /// Summed simulated cell lifetimes, seconds.
    pub sim_s: f64,
    /// Summed OPP transitions.
    pub transitions: u64,
    /// Distinct (weather, cloud seed) days the matrix renders.
    pub renders: u64,
    /// Bytes of the encoded report(s).
    pub report_bytes: u64,
    /// CSV rows delivered.
    pub rows: u64,
    /// Adaptive refinement rounds.
    pub rounds: u64,
    /// Adaptive probes.
    pub probes: u64,
    /// Daemon shard checkpoints.
    pub checkpoints: u64,
    /// FNV-1a digest of the CSV bytes (chained across jobs in order).
    pub csv_digest: u64,
}

impl Fingerprint {
    /// Folds a later job into this running total.
    pub fn absorb(&mut self, job: &Fingerprint) {
        self.cells += job.cells;
        self.sim_s += job.sim_s;
        self.transitions += job.transitions;
        self.renders += job.renders;
        self.report_bytes += job.report_bytes;
        self.rows += job.rows;
        self.rounds += job.rounds;
        self.probes += job.probes;
        self.checkpoints += job.checkpoints;
        self.csv_digest = mix64(self.csv_digest ^ job.csv_digest);
    }

    /// One-line rendering with every field.
    pub fn describe(&self) -> String {
        format!(
            "cells={} sim_s={} transitions={} renders={} report_bytes={} rows={} rounds={} \
             probes={} checkpoints={} csv_digest={:016x}",
            self.cells,
            self.sim_s,
            self.transitions,
            self.renders,
            self.report_bytes,
            self.rows,
            self.rounds,
            self.probes,
            self.checkpoints,
            self.csv_digest
        )
    }

    fn add_outcomes(&mut self, report: &CampaignReport) {
        self.cells += report.len() as u64;
        self.sim_s += report
            .cells()
            .iter()
            .map(|c| c.lifetime_seconds)
            .sum::<f64>();
        self.transitions += report.cells().iter().map(|c| c.transitions).sum::<u64>();
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobRun {
    /// Submit → complete result (CSV included), ms.
    pub ms: f64,
    /// Submit → first result row readable by the client, ms.
    pub first_row_ms: f64,
    /// The job's exact work counts.
    pub fp: Fingerprint,
}

/// A workload after set-up: issues jobs one at a time.
pub trait Workload {
    /// Runs job `job` of workload seed `seed` as a closed-loop client
    /// would, then checks its outputs (untimed). A failed check is an
    /// `Err`.
    fn run_job(&mut self, seed: u64, job: u64) -> Result<JobRun, String>;
    /// Replays job `job` through the layer calls under `tr`, checking
    /// the traced results against the timed ones.
    fn trace_job(&mut self, seed: u64, job: u64, tr: &mut Tracer) -> Result<(), String>;
    /// Stops whatever the workload started.
    fn close(self: Box<Self>);
}

/// Builds the workload (daemon start) and runs its warm-up job. The
/// warm-up is the same job whatever the workload seed, and its job
/// index lies outside every timed run.
pub fn setup(kind: Kind, dir: &Path) -> Result<Box<dyn Workload>, String> {
    let mut workload = open(kind, dir)?;
    workload.run_job(WARMUP_SEED, WARMUP_JOB)?;
    Ok(workload)
}

/// Workload seed of the warm-up job.
const WARMUP_SEED: u64 = 0;

/// Builds the workload without warming it up. `dir` must exist; the
/// workload writes only below it.
pub fn open(kind: Kind, dir: &Path) -> Result<Box<dyn Workload>, String> {
    let exec = Executor::new(THREADS);
    let workload: Box<dyn Workload> = match kind {
        Kind::SolarDay => Box::new(SolarDay {
            exec,
            dir: dir.to_path_buf(),
        }),
        Kind::SweepRefine => Box::new(SweepRefine {
            exec,
            dir: dir.to_path_buf(),
        }),
        Kind::DaemonStream => {
            let daemon_dir = dir.join("daemon");
            let daemon =
                Daemon::start(DaemonConfig::new(&daemon_dir).with_workers(THREADS)).map_err(err)?;
            let addr = daemon.addr().to_string();
            Box::new(DaemonStream {
                exec,
                daemon: Some(daemon),
                addr,
                daemon_dir,
                dir: dir.to_path_buf(),
            })
        }
    };
    Ok(workload)
}

/// Stringifies any displayable error.
pub fn err(e: impl Display) -> String {
    e.to_string()
}

/// Encode → decode → encode must reproduce the document byte for byte.
/// Returns the document.
pub fn check_round_trip(report: &CampaignReport) -> Result<String, String> {
    let doc = persist::report_to_string(report);
    let back = persist::report_from_str(&doc).map_err(err)?;
    if persist::report_to_string(&back) != doc {
        return Err("persist encode → decode → encode is not byte-identical".into());
    }
    Ok(doc)
}

fn rows_of(csv: &str) -> u64 {
    csv.lines().count().saturating_sub(1) as u64
}

/// The first maximal run of cells sharing one (weather, seed) day —
/// the group the campaign layer hands to one lane batch.
pub fn first_day_group(cells: &[CampaignCell]) -> &[CampaignCell] {
    let end = cells
        .iter()
        .position(|c| c.weather != cells[0].weather || c.seed != cells[0].seed)
        .unwrap_or(cells.len());
    &cells[..end]
}

// ---------------------------------------------------------------------
// solar-day
// ---------------------------------------------------------------------

/// Cloud seeds per weather in one solar-day job.
const SOLAR_SEEDS: usize = 2;

struct SolarDay {
    exec: Executor,
    dir: PathBuf,
}

/// Full- and partial-sun hours, three buffers, the four governors that
/// survive and keep switching OPPs: 48 cells, each an hour long.
fn solar_spec(seed: u64, job: u64) -> CampaignSpec {
    CampaignSpec::new()
        .expect("paper preset is valid")
        .with_weathers(vec![Weather::FullSun, Weather::PartialSun])
        .with_seeds(cloud_seeds(seed, job, SOLAR_SEEDS))
        .with_buffers_mf(vec![47.0, 150.0, 470.0])
        .with_governors(vec![
            GovernorSpec::PowerNeutral,
            GovernorSpec::BudgetShift,
            GovernorSpec::RaceToIdle,
            GovernorSpec::Conservative,
        ])
        .with_duration(Seconds::new(3600.0))
}

/// The job's matrix under each supply model, exact first.
fn solar_specs(seed: u64, job: u64) -> [CampaignSpec; 2] {
    let spec = solar_spec(seed, job);
    let interp = spec.clone().with_supply_model(SupplyModel::interpolated());
    [spec, interp]
}

impl Workload for SolarDay {
    fn run_job(&mut self, seed: u64, job: u64) -> Result<JobRun, String> {
        let specs = solar_specs(seed, job);
        let cache = TraceCache::new();
        let start = Instant::now();
        let mut first_row_ms = None;
        let mut reports = Vec::with_capacity(specs.len());
        let mut csv = String::new();
        let mut rows = 0;
        for spec in &specs {
            let report = run_campaign_with(spec, &self.exec, Some(&cache)).map_err(err)?;
            let part = persist::report_csv_string(&report).map_err(err)?;
            first_row_ms.get_or_insert_with(|| ms_since(start));
            rows += rows_of(&part);
            csv.push_str(&part);
            reports.push(report);
        }
        let ms = ms_since(start);
        let mut fp = Fingerprint {
            renders: cache.misses(),
            rows,
            csv_digest: fnv1a(csv.as_bytes()),
            ..Fingerprint::default()
        };
        for report in &reports {
            fp.add_outcomes(report);
            fp.report_bytes += check_round_trip(report)?.len() as u64;
        }
        Ok(JobRun {
            ms,
            first_row_ms: first_row_ms.unwrap_or(ms),
            fp,
        })
    }

    fn trace_job(&mut self, seed: u64, job: u64, tr: &mut Tracer) -> Result<(), String> {
        for spec in &solar_specs(seed, job) {
            let report = layers::trace_campaign(tr, spec, &self.exec)?;
            layers::trace_persist(tr, &report, &self.dir)?;
        }
        layers::trace_lanes(tr, first_day_group(&solar_spec(seed, job).cells()))
    }

    fn close(self: Box<Self>) {}
}

// ---------------------------------------------------------------------
// sweep-refine
// ---------------------------------------------------------------------

/// Cloud seeds per weather in one sweep-refine job (6 × 12 = 72 days,
/// more than the 64-day render memo holds).
const SWEEP_SEEDS: usize = 12;

struct SweepRefine {
    exec: Executor,
    dir: PathBuf,
}

/// Every weather × 12 fresh cloud seeds × thermal off/stress ×
/// saturated/bursty arrivals × no fault/brown-out × two buffers × all
/// eight parameter-free governors, one simulated minute each: 9 216
/// cells, most of which brown out within seconds.
fn sweep_spec(seed: u64, job: u64) -> CampaignSpec {
    CampaignSpec::new()
        .expect("paper preset is valid")
        .with_weathers(Weather::all().to_vec())
        .with_seeds(cloud_seeds(seed, job, SWEEP_SEEDS))
        .with_thermals(vec![ThermalSpec::Off, ThermalSpec::stress()])
        .with_arrivals(vec![ArrivalSpec::Saturated, ArrivalSpec::bursty_stress()])
        .with_faults(vec![FaultSpec::None, FaultSpec::brownout_stress()])
        .with_buffers_mf(vec![47.0, 150.0])
        .with_governors(all_governors())
        .with_duration(Seconds::new(60.0))
}

fn all_governors() -> Vec<GovernorSpec> {
    vec![
        GovernorSpec::PowerNeutral,
        GovernorSpec::Performance,
        GovernorSpec::Powersave,
        GovernorSpec::Ondemand,
        GovernorSpec::Conservative,
        GovernorSpec::Interactive,
        GovernorSpec::RaceToIdle,
        GovernorSpec::BudgetShift,
    ]
}

/// The cells of `report` with every stress axis at its default — the
/// slice the adaptive refinement starts from.
pub fn unstressed(report: &CampaignReport) -> CampaignReport {
    let cells = report
        .cells()
        .iter()
        .filter(|c| {
            c.cell.thermal == ThermalSpec::Off
                && c.cell.arrival == ArrivalSpec::Saturated
                && c.cell.fault == FaultSpec::None
        })
        .copied()
        .collect();
    CampaignReport::from_parts(0, cells)
}

/// Work counts and bracket digest of a finished adaptive refinement.
fn adaptive_fingerprint(
    driver: &AdaptiveCampaign,
    seed_cells: usize,
    brackets: &[BoundaryBracket],
) -> Fingerprint {
    let probe_cells = CampaignReport::from_parts(0, driver.history()[seed_cells..].to_vec());
    let mut fp = Fingerprint {
        rounds: driver.rounds() as u64,
        probes: brackets.iter().map(|b| b.probes as u64).sum(),
        csv_digest: fnv1a(format!("{brackets:?}").as_bytes()),
        ..Fingerprint::default()
    };
    fp.add_outcomes(&probe_cells);
    fp
}

impl Workload for SweepRefine {
    fn run_job(&mut self, seed: u64, job: u64) -> Result<JobRun, String> {
        let spec = sweep_spec(seed, job);
        let cache = TraceCache::new();
        let start = Instant::now();
        let report = run_campaign_with(&spec, &self.exec, Some(&cache)).map_err(err)?;
        let doc = persist::report_to_string(&report);
        let decoded = persist::report_from_str(&doc).map_err(err)?;
        let csv = persist::report_csv_string(&decoded).map_err(err)?;
        let first_row_ms = ms_since(start);
        let slice = unstressed(&decoded);
        let mut driver =
            AdaptiveCampaign::from_report(&slice, AdaptiveConfig::default()).map_err(err)?;
        let brackets = driver.run(&self.exec, Some(&cache)).map_err(err)?;
        let ms = ms_since(start);
        if persist::report_to_string(&decoded) != doc {
            return Err("persist encode → decode → encode is not byte-identical".into());
        }
        let mut fp = Fingerprint {
            renders: cache.misses(),
            report_bytes: doc.len() as u64,
            rows: rows_of(&csv),
            csv_digest: fnv1a(csv.as_bytes()),
            ..Fingerprint::default()
        };
        fp.add_outcomes(&report);
        fp.absorb(&adaptive_fingerprint(&driver, slice.len(), &brackets));
        Ok(JobRun {
            ms,
            first_row_ms,
            fp,
        })
    }

    fn trace_job(&mut self, seed: u64, job: u64, tr: &mut Tracer) -> Result<(), String> {
        let spec = sweep_spec(seed, job);
        let report = layers::trace_campaign(tr, &spec, &self.exec)?;
        layers::trace_persist(tr, &report, &self.dir)?;
        layers::trace_adaptive(tr, &unstressed(&report), &self.exec)?;
        layers::trace_lanes(tr, first_day_group(&spec.cells()))
    }

    fn close(self: Box<Self>) {}
}

// ---------------------------------------------------------------------
// daemon-stream
// ---------------------------------------------------------------------

/// Cloud seeds per weather in one daemon-stream job. The daemon keeps
/// every job's day traces (about 0.35 MB per day) for its lifetime, so
/// the matrix grows along the other axes rather than days.
const DAEMON_SEEDS: usize = 4;
/// Cells per daemon shard.
const CELLS_PER_SHARD: usize = 32;
/// Every this many jobs, the daemon's CSV is compared with an
/// in-process run of the same spec.
const DAEMON_CHECK_EVERY: u64 = 4;

struct DaemonStream {
    exec: Executor,
    daemon: Option<Daemon>,
    addr: String,
    daemon_dir: PathBuf,
    dir: PathBuf,
}

/// Cheap unfaulted cells: every weather × 4 fresh cloud seeds × thermal
/// off/stress × saturated/bursty arrivals × eight buffers × all eight
/// governors, one simulated minute each: 6 144 cells.
fn daemon_spec(seed: u64, job: u64) -> CampaignSpec {
    CampaignSpec::new()
        .expect("paper preset is valid")
        .with_weathers(Weather::all().to_vec())
        .with_seeds(cloud_seeds(seed, job, DAEMON_SEEDS))
        .with_thermals(vec![ThermalSpec::Off, ThermalSpec::stress()])
        .with_arrivals(vec![ArrivalSpec::Saturated, ArrivalSpec::bursty_stress()])
        .with_buffers_mf(vec![33.0, 47.0, 68.0, 100.0, 150.0, 220.0, 330.0, 470.0])
        .with_governors(all_governors())
        .with_duration(Seconds::new(60.0))
}

/// Shard count giving about [`CELLS_PER_SHARD`] cells per shard.
fn daemon_shards(spec: &CampaignSpec) -> usize {
    spec.cell_count().div_ceil(CELLS_PER_SHARD)
}

/// Sums the lifetime and transition columns of a campaign CSV.
fn csv_work(csv: &str) -> Result<(f64, u64), String> {
    let header: Vec<&str> = pn_analysis::csv::CAMPAIGN_CSV_HEADER.split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .expect("pinned CSV column")
    };
    let (life, trans) = (col("lifetime_s"), col("transitions"));
    let mut sim_s = 0.0;
    let mut transitions = 0;
    for row in csv.lines().skip(1) {
        let fields: Vec<&str> = row.split(',').collect();
        let bad = || format!("malformed CSV row {row:?}");
        sim_s += fields
            .get(life)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(bad)?;
        transitions += fields
            .get(trans)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(bad)?;
    }
    Ok((sim_s, transitions))
}

/// The daemon's CSV must equal an in-process run of the same spec, and
/// that report must survive the persist round trip. Returns the
/// in-process run's wall time, ms.
pub fn check_daemon_csv(spec: &CampaignSpec, exec: &Executor, csv: &str) -> Result<f64, String> {
    let start = Instant::now();
    let reference = run_campaign(spec, exec).map_err(err)?;
    let ms = ms_since(start);
    check_round_trip(&reference)?;
    if persist::report_csv_string(&reference).map_err(err)? != csv {
        return Err("daemon CSV differs from the in-process run_campaign CSV".into());
    }
    Ok(ms)
}

impl Workload for DaemonStream {
    fn run_job(&mut self, seed: u64, job: u64) -> Result<JobRun, String> {
        let spec = daemon_spec(seed, job);
        let shards = daemon_shards(&spec);
        let start = Instant::now();
        let ticket = daemon::submit(&self.addr, &spec, shards).map_err(err)?;
        let mut first_row_ms = None;
        let mut rows: Vec<(usize, String)> = Vec::with_capacity(ticket.cells);
        let cells = daemon::watch(&self.addr, ticket.id, &mut |index, row| {
            first_row_ms.get_or_insert_with(|| ms_since(start));
            rows.push((index, row.to_string()));
        })
        .map_err(err)?;
        let csv = daemon::rows_to_csv(cells, rows).map_err(err)?;
        let status = daemon::status(&self.addr, ticket.id).map_err(err)?;
        let ms = ms_since(start);
        if status.state != "done" || status.done_cells != ticket.cells || cells != ticket.cells {
            return Err(format!(
                "job {} ended as {status:?} for {cells} cells",
                ticket.id
            ));
        }
        if job.is_multiple_of(DAEMON_CHECK_EVERY) {
            check_daemon_csv(&spec, &self.exec, &csv)?;
        }
        let (sim_s, transitions) = csv_work(&csv)?;
        let fp = Fingerprint {
            cells: cells as u64,
            sim_s,
            transitions,
            renders: (spec.weathers.len() * spec.seeds.len()) as u64,
            rows: rows_of(&csv),
            checkpoints: ticket.shards as u64,
            csv_digest: fnv1a(csv.as_bytes()),
            ..Fingerprint::default()
        };
        Ok(JobRun {
            ms,
            first_row_ms: first_row_ms.unwrap_or(ms),
            fp,
        })
    }

    fn trace_job(&mut self, seed: u64, job: u64, tr: &mut Tracer) -> Result<(), String> {
        let spec = daemon_spec(seed, job);
        layers::trace_daemon(
            tr,
            &self.addr,
            &self.daemon_dir,
            &spec,
            daemon_shards(&spec),
            &self.exec,
        )?;
        let report = layers::trace_campaign(tr, &spec, &self.exec)?;
        layers::trace_persist(tr, &report, &self.dir)?;
        layers::trace_lanes(tr, first_day_group(&spec.cells()))
    }

    fn close(mut self: Box<Self>) {
        if let Some(daemon) = self.daemon.take() {
            daemon.stop();
        }
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
