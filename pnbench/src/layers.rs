//! The traced replay: spans around the benchmark's own calls into each
//! layer's public API, the output checks that compare traced with
//! timed results, and the per-layer metrics derived from the spans.

use crate::stats::{cloud_seeds, Summary};
use crate::trace::{Span, Tracer};
use crate::workloads::{check_daemon_csv, err, first_day_group, ms_since, THREADS};
use pn_harvest::cache::TraceCache;
use pn_harvest::clearsky::ClearSky;
use pn_harvest::faults::FaultSpec;
use pn_harvest::weather::{DayProfile, Weather};
use pn_sim::adaptive::{AdaptiveCampaign, AdaptiveConfig};
use pn_sim::campaign::{
    run_campaign, run_campaign_with, CampaignCell, CampaignReport, CampaignSpec, GovernorSpec,
};
use pn_sim::daemon;
use pn_sim::executor::Executor;
use pn_sim::lanes::run_batch;
use pn_sim::persist;
use pn_sim::scenario;
use pn_sim::supply::{SupplyModel, SupplyState};
use pn_units::Seconds;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Replays `spec` single-threaded through the campaign, scenario,
/// engine and harvest layers and returns the timed 2-thread report.
///
/// Four passes over the same cells: the timed 2-thread
/// `run_campaign` (the executor's wall time), an untraced and a traced
/// single-thread `CampaignCell::evaluate_with` replay (their difference
/// is the tracing overhead; the traced report must equal the timed
/// one), and a split pass timing `scenario_with` and `GovernorSpec::run`
/// apart. A cell's reduction is its `evaluate_with` time minus its split
/// time; the median over cells is reported, since each difference is
/// small beside the run it is taken from.
pub fn trace_campaign(
    tr: &mut Tracer,
    spec: &CampaignSpec,
    exec: &Executor,
) -> Result<CampaignReport, String> {
    let cells = spec.cells();
    let start = Instant::now();
    let timed = run_campaign(spec, exec).map_err(err)?;
    tr.count("executor.parallel_ms", ms_since(start));

    let cache = TraceCache::new();
    let start = Instant::now();
    for cell in &cells {
        black_box(cell.evaluate_with(Some(&cache)).map_err(err)?);
    }
    tr.count("trace.untraced_ms", ms_since(start));

    let cache = TraceCache::new();
    let start = Instant::now();
    let mut evaluate_ms = Vec::with_capacity(cells.len());
    let outcomes = tr.span("replay.job", |tr| {
        cells
            .iter()
            .map(|cell| {
                let start = Instant::now();
                let outcome = tr.span("replay.evaluate", |_| cell.evaluate_with(Some(&cache)));
                evaluate_ms.push(ms_since(start));
                outcome
            })
            .collect::<Result<Vec<_>, _>>()
    });
    tr.count("trace.traced_ms", ms_since(start));
    let traced = CampaignReport::from_parts(0, outcomes.map_err(err)?);
    tr.count("harvest.cache_hits", cache.hits() as f64);
    tr.count(
        "harvest.cache_lookups",
        (cache.hits() + cache.misses()) as f64,
    );
    if persist::report_csv_string(&traced).map_err(err)?
        != persist::report_csv_string(&timed).map_err(err)?
    {
        return Err("traced single-thread report differs from the timed 2-thread report".into());
    }

    let cache = TraceCache::new();
    for (cell, evaluate_ms) in cells.iter().zip(evaluate_ms) {
        let build = if cell.fault == FaultSpec::None {
            "scenario.build_clean"
        } else {
            "scenario.build_faulted"
        };
        let start = Instant::now();
        let scenario = tr
            .span(build, |_| cell.scenario_with(Some(&cache)))
            .map_err(err)?;
        let exact = cell.supply_model() == SupplyModel::Exact;
        let run = if exact {
            "engine.run_exact"
        } else {
            "engine.run_interp"
        };
        let report = tr
            .span(run, |_| cell.governor.run(&scenario))
            .map_err(err)?;
        tr.sample("campaign.reduce_us", (evaluate_ms - ms_since(start)) * 1e3);
        let sim_s = report.lifetime_or_duration().value();
        tr.count(
            if exact {
                "engine.sim_s_exact"
            } else {
                "engine.sim_s_interp"
            },
            sim_s,
        );
        tr.count("engine.transitions", report.transitions() as f64);
        tr.count("engine.samples_recorded", report.recorder().len() as f64);
    }

    trace_days(tr, &cells)?;
    Ok(timed)
}

/// The day profile `scenario::weather_day_trace` renders.
fn day_profile(weather: Weather, seed: u64) -> DayProfile {
    let sky = ClearSky::paper_test_day().expect("preset sky is valid");
    DayProfile::new(weather, seed)
        .with_sky(sky)
        .with_span(Seconds::from_hours(10.5), Seconds::from_hours(16.5))
}

/// Renders each distinct day of `cells` uncached, looks it up in the
/// process-wide day memo, and attenuates it once per fault it meets.
fn trace_days(tr: &mut Tracer, cells: &[CampaignCell]) -> Result<(), String> {
    let mut days: Vec<(Weather, u64)> = Vec::new();
    let mut faulted: Vec<(Weather, u64, FaultSpec)> = Vec::new();
    for cell in cells {
        if !days.contains(&(cell.weather, cell.seed)) {
            days.push((cell.weather, cell.seed));
        }
        let key = (cell.weather, cell.seed, cell.fault);
        if cell.fault != FaultSpec::None && !faulted.contains(&key) {
            faulted.push(key);
        }
    }
    for &(weather, seed) in &days {
        black_box(tr.span("harvest.render", |_| {
            scenario::weather_day_trace(weather, seed)
        }));
        let (_, hit) = day_profile(weather, seed)
            .build_shared_traced(Seconds::new(1.0))
            .map_err(err)?;
        tr.count("harvest.memo_lookups", 1.0);
        tr.count("harvest.memo_hits", if hit { 1.0 } else { 0.0 });
    }
    for (weather, seed, fault) in faulted {
        let day = scenario::weather_day_trace_shared(weather, seed);
        black_box(
            tr.span("harvest.attenuate", |_| fault.attenuate(&day, seed))
                .map_err(err)?,
        );
    }
    Ok(())
}

/// Encode, decode, re-encode (must be byte-identical), CSV export and
/// an atomic write of `report`.
pub fn trace_persist(tr: &mut Tracer, report: &CampaignReport, dir: &Path) -> Result<(), String> {
    let doc = tr.span("persist.encode", |_| persist::report_to_string(report));
    let decoded = tr
        .span("persist.decode", |_| persist::report_from_str(&doc))
        .map_err(err)?;
    if persist::report_to_string(&decoded) != doc {
        return Err("persist encode → decode → encode is not byte-identical".into());
    }
    let csv = tr
        .span("csv.export", |_| persist::report_csv_string(&decoded))
        .map_err(err)?;
    let path = dir.join("report.pnc");
    tr.span("persist.write_atomic", |_| {
        persist::write_atomic(&path, &doc)
    })
    .map_err(err)?;
    tr.count("persist.report_bytes", doc.len() as f64);
    tr.count("csv.bytes", csv.len() as f64);
    Ok(())
}

/// One (weather, seed) group through `lanes::run_batch`, then each of
/// its simulations alone through `Simulation::run`.
pub fn trace_lanes(tr: &mut Tracer, group: &[CampaignCell]) -> Result<(), String> {
    let scenarios = group
        .iter()
        .map(|c| c.scenario())
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let sims = group
        .iter()
        .zip(&scenarios)
        .map(|(cell, scenario)| cell.governor.simulation(scenario))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    black_box(tr.span("lanes.batch", |_| run_batch(sims)).map_err(err)?);
    for (cell, scenario) in group.iter().zip(&scenarios) {
        let sim = cell.governor.simulation(scenario).map_err(err)?;
        black_box(tr.span("lanes.scalar", |_| sim.run()).map_err(err)?);
    }
    Ok(())
}

/// The buffer-boundary refinement seeded from `seed`, once through
/// `AdaptiveCampaign::run` on the 2-thread executor and once stepwise
/// (`next_round` → evaluate → `observe`) single-threaded under spans.
/// Both must end with the same brackets.
pub fn trace_adaptive(
    tr: &mut Tracer,
    seed: &CampaignReport,
    exec: &Executor,
) -> Result<(), String> {
    let config = AdaptiveConfig::default();
    let mut reference = AdaptiveCampaign::from_report(seed, config).map_err(err)?;
    let expected = reference.run(exec, Some(&TraceCache::new())).map_err(err)?;

    let mut driver = AdaptiveCampaign::from_report(seed, config).map_err(err)?;
    let cache = TraceCache::new();
    let sequential = Executor::sequential();
    loop {
        let start = Instant::now();
        let Some(specs) = tr.span("adaptive.next_round", |_| driver.next_round()) else {
            break;
        };
        let mut outcomes = Vec::new();
        tr.span("campaign.probe_cells", |_| -> Result<(), String> {
            for spec in &specs {
                let report = run_campaign_with(spec, &sequential, Some(&cache)).map_err(err)?;
                outcomes.extend_from_slice(report.cells());
            }
            Ok(())
        })?;
        let report = CampaignReport::from_parts(0, outcomes);
        tr.span("adaptive.observe", |_| driver.observe(&report));
        tr.sample("adaptive.round_ms", ms_since(start));
    }
    let brackets = driver.brackets();
    if brackets != expected {
        return Err(
            "stepwise adaptive replay ended with other brackets than AdaptiveCampaign::run".into(),
        );
    }
    tr.count("adaptive.rounds", driver.rounds() as f64);
    tr.count(
        "adaptive.probes",
        brackets.iter().map(|b| b.probes as f64).sum(),
    );
    Ok(())
}

/// One daemon job under spans (submit, watch, status), with the gaps
/// between streamed rows and the checkpoint count, checked against and
/// timed beside an in-process `run_campaign` of the same spec on the
/// same thread count.
pub fn trace_daemon(
    tr: &mut Tracer,
    addr: &str,
    daemon_dir: &Path,
    spec: &CampaignSpec,
    shards: usize,
    exec: &Executor,
) -> Result<(), String> {
    let start = Instant::now();
    let ticket = tr
        .span("daemon.submit", |_| daemon::submit(addr, spec, shards))
        .map_err(err)?;
    let mut rows: Vec<(usize, String)> = Vec::with_capacity(ticket.cells);
    let mut arrivals: Vec<f64> = Vec::with_capacity(ticket.cells);
    let cells = tr
        .span("daemon.watch", |_| {
            daemon::watch(addr, ticket.id, &mut |index, row| {
                arrivals.push(ms_since(start));
                rows.push((index, row.to_string()));
            })
        })
        .map_err(err)?;
    let status = tr
        .span("daemon.status", |_| daemon::status(addr, ticket.id))
        .map_err(err)?;
    let job_ms = ms_since(start);
    if status.state != "done" || cells != ticket.cells {
        return Err(format!("daemon job {} ended as {status:?}", ticket.id));
    }
    for gap in arrivals.windows(2) {
        tr.sample("daemon.row_gap_ms", gap[1] - gap[0]);
    }
    let job_dir = daemon_dir.join(format!("job-{}", ticket.id));
    let checkpoints = std::fs::read_dir(&job_dir)
        .map_err(|e| format!("cannot list {}: {e}", job_dir.display()))?
        .filter_map(Result::ok)
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("shard-"))
        .count();
    tr.count("daemon.checkpoints", checkpoints as f64);
    let csv = daemon::rows_to_csv(cells, rows).map_err(err)?;
    let inproc_ms = check_daemon_csv(spec, exec, &csv)?;
    tr.count("daemon.inproc_ms", inproc_ms);
    tr.count("daemon.job_ms", job_ms);
    Ok(())
}

/// A 16-cell, one-minute matrix (two weathers, fault off/brown-out, two
/// buffers, two governors) that every traced run also replays, so a
/// layer a workload's own jobs never call is still measured.
pub fn probe_spec(seed: u64, job: u64) -> CampaignSpec {
    CampaignSpec::new()
        .expect("paper preset is valid")
        .with_weathers(vec![Weather::FullSun, Weather::Cloudy])
        .with_seeds(cloud_seeds(seed, job, 1))
        .with_faults(vec![FaultSpec::None, FaultSpec::brownout_stress()])
        .with_buffers_mf(vec![47.0, 150.0])
        .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave])
        .with_duration(Seconds::new(60.0))
}

/// Replays the probe matrix through every layer.
pub fn trace_probe(
    tr: &mut Tracer,
    spec: &CampaignSpec,
    exec: &Executor,
    addr: &str,
    daemon_dir: &Path,
    dir: &Path,
) -> Result<(), String> {
    let exact = trace_campaign(tr, spec, exec)?;
    trace_persist(tr, &exact, dir)?;
    let interp = spec.clone().with_supply_model(SupplyModel::interpolated());
    trace_campaign(tr, &interp, exec)?;
    trace_adaptive(tr, &exact, exec)?;
    trace_daemon(tr, addr, daemon_dir, spec, 4, exec)?;
    trace_lanes(tr, first_day_group(&spec.cells()))
}

/// Times the process's first `SupplyState::new` with the interpolated
/// model, which builds the shared panel surface. Must run before
/// anything else in the process touches the surface.
pub fn trace_surface_build(tr: &mut Tracer) -> Result<(), String> {
    let day = scenario::weather_day(Weather::FullSun, 1);
    let start = Instant::now();
    black_box(SupplyState::new(day.supply(), SupplyModel::interpolated()).map_err(err)?);
    tr.count("supply.surface_build_ms", ms_since(start));
    Ok(())
}

/// How a per-layer metric falls back when a workload's jobs never
/// exercise its layer.
#[derive(Clone, Copy)]
enum Source {
    /// A count of what the workload's own jobs did: never falls back.
    Own,
    /// A time or ratio: measured on the probe matrix when the jobs
    /// never call the layer.
    Probe,
}

/// Layers whose self time is reported. The `replay` spans (the
/// overhead-check pass) and the `lanes` comparison re-run work other
/// spans already charge, so they have no entry.
const LAYERS: [&str; 8] = [
    "harvest", "scenario", "campaign", "engine", "persist", "csv", "adaptive", "daemon",
];

/// Every per-layer metric `(name, unit, value)`, from the workload's
/// traced jobs (`own`, over `jobs` jobs) or, for layers those jobs never
/// call, from the probe replays (`probe`, over `probes` replays).
/// Also returns the names taken from the probe.
pub fn layer_metrics(
    own: &Tracer,
    jobs: f64,
    probe: &Tracer,
    probes: f64,
) -> (Vec<(String, &'static str, f64)>, Vec<String>) {
    let mut out = Vec::new();
    let mut from_probe = Vec::new();
    for (name, unit, source, f) in metric_table() {
        let value = match (f(own, jobs), source) {
            (Some(v), _) => v,
            (None, Source::Own) => 0.0,
            (None, Source::Probe) => {
                from_probe.push(name.to_string());
                f(probe, probes).unwrap_or(0.0)
            }
        };
        out.push((name.to_string(), unit, value));
    }
    for layer in LAYERS {
        let is_layer = |s: &Span| s.layer() == layer;
        let name = format!("self_ms.{layer}");
        let value = if own.spans().iter().any(is_layer) {
            own.self_ms(is_layer) / jobs
        } else {
            from_probe.push(name.clone());
            probe.self_ms(is_layer) / probes
        };
        out.push((name, "ms", value));
    }
    (out, from_probe)
}

type MetricFn = fn(&Tracer, f64) -> Option<f64>;

fn mean_ms(tr: &Tracer, name: &str) -> Option<f64> {
    let d = tr.durations_ms(name);
    (!d.is_empty()).then(|| d.iter().sum::<f64>() / d.len() as f64)
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn per_job(tr: &Tracer, name: &str, jobs: f64) -> Option<f64> {
    Some(tr.counted(name) / jobs)
}

fn engine_cells(tr: &Tracer) -> Vec<f64> {
    let mut d = tr.durations_ms("engine.run_exact");
    d.extend(tr.durations_ms("engine.run_interp"));
    d
}

/// The highest percentile with ten samples beyond it (the median when
/// there are too few samples for any).
fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    Summary::of(samples).map(|s| s.tail.unwrap_or((50, s.p50)))
}

/// Sample counts and percentiles behind the tail metrics, for the log.
pub fn tail_note(own: &Tracer) -> String {
    let describe = |samples: &[f64]| Summary::of(samples).map_or("none".into(), |s| s.describe());
    format!(
        "engine cell ms: {}; daemon row gap ms: {}; campaign reduce us: {}",
        describe(&engine_cells(own)),
        describe(own.samples("daemon.row_gap_ms")),
        describe(own.samples("campaign.reduce_us"))
    )
}

fn metric_table() -> Vec<(&'static str, &'static str, Source, MetricFn)> {
    use Source::{Own, Probe};
    vec![
        ("harvest.render_ms", "ms", Probe, |t, _| {
            mean_ms(t, "harvest.render")
        }),
        ("harvest.renders", "count", Own, |t, j| {
            Some(t.durations_ms("harvest.render").len() as f64 / j)
        }),
        ("harvest.memo_hit_ratio", "ratio", Probe, |t, _| {
            ratio(
                t.counted("harvest.memo_hits"),
                t.counted("harvest.memo_lookups"),
            )
        }),
        ("harvest.trace_cache_hit_ratio", "ratio", Probe, |t, _| {
            ratio(
                t.counted("harvest.cache_hits"),
                t.counted("harvest.cache_lookups"),
            )
        }),
        ("harvest.attenuate_us", "us", Probe, |t, _| {
            mean_ms(t, "harvest.attenuate").map(|m| m * 1e3)
        }),
        ("scenario.build_us.faulted", "us", Probe, |t, _| {
            mean_ms(t, "scenario.build_faulted").map(|m| m * 1e3)
        }),
        ("scenario.build_us.clean", "us", Probe, |t, _| {
            mean_ms(t, "scenario.build_clean").map(|m| m * 1e3)
        }),
        ("campaign.reduce_us", "us", Probe, |t, _| {
            Summary::of(t.samples("campaign.reduce_us")).map(|s| s.p50)
        }),
        ("engine.us_per_sim_s.exact", "us/sim_s", Probe, |t, _| {
            ratio(
                t.total_ms("engine.run_exact") * 1e3,
                t.counted("engine.sim_s_exact"),
            )
        }),
        ("engine.us_per_sim_s.interp", "us/sim_s", Probe, |t, _| {
            ratio(
                t.total_ms("engine.run_interp") * 1e3,
                t.counted("engine.sim_s_interp"),
            )
        }),
        ("engine.us_per_transition", "us", Probe, |t, _| {
            ratio(
                engine_cells(t).iter().sum::<f64>() * 1e3,
                t.counted("engine.transitions"),
            )
        }),
        ("engine.cell_p50_ms", "ms", Probe, |t, _| {
            Summary::of(&engine_cells(t)).map(|s| s.p50)
        }),
        ("engine.cell_tail_ms", "ms", Probe, |t, _| {
            tail(&engine_cells(t)).map(|(_, v)| v)
        }),
        ("engine.cell_samples", "count", Own, |t, _| {
            Some(engine_cells(t).len() as f64)
        }),
        ("engine.sim_s", "s", Own, |t, j| {
            Some((t.counted("engine.sim_s_exact") + t.counted("engine.sim_s_interp")) / j)
        }),
        ("engine.transitions", "count", Own, |t, j| {
            per_job(t, "engine.transitions", j)
        }),
        ("engine.samples_recorded", "count", Own, |t, j| {
            per_job(t, "engine.samples_recorded", j)
        }),
        ("supply.surface_build_ms", "ms", Own, |t, _| {
            Some(t.counted("supply.surface_build_ms"))
        }),
        ("lanes.batch_over_scalar", "ratio", Probe, |t, _| {
            ratio(t.total_ms("lanes.batch"), t.total_ms("lanes.scalar"))
        }),
        ("executor.efficiency", "ratio", Probe, |t, _| {
            ratio(
                t.counted("trace.untraced_ms"),
                THREADS as f64 * t.counted("executor.parallel_ms"),
            )
        }),
        ("persist.encode_ms_per_mb", "ms/MB", Probe, |t, _| {
            ratio(
                t.total_ms("persist.encode"),
                t.counted("persist.report_bytes") / 1e6,
            )
        }),
        ("persist.decode_ms_per_mb", "ms/MB", Probe, |t, _| {
            ratio(
                t.total_ms("persist.decode"),
                t.counted("persist.report_bytes") / 1e6,
            )
        }),
        ("persist.report_mb", "MB", Own, |t, j| {
            Some(t.counted("persist.report_bytes") / 1e6 / j)
        }),
        ("persist.write_atomic_ms", "ms", Probe, |t, _| {
            mean_ms(t, "persist.write_atomic")
        }),
        ("csv.export_ms_per_mb", "ms/MB", Probe, |t, _| {
            ratio(t.total_ms("csv.export"), t.counted("csv.bytes") / 1e6)
        }),
        ("adaptive.rounds", "count", Own, |t, j| {
            per_job(t, "adaptive.rounds", j)
        }),
        ("adaptive.probes", "count", Own, |t, j| {
            per_job(t, "adaptive.probes", j)
        }),
        ("adaptive.round_ms_p50", "ms", Probe, |t, _| {
            Summary::of(t.samples("adaptive.round_ms")).map(|s| s.p50)
        }),
        ("adaptive.driver_us", "us", Probe, |t, _| {
            let own =
                t.self_ms(|s| s.name == "adaptive.next_round" || s.name == "adaptive.observe");
            ratio(own * 1e3, t.counted("adaptive.rounds"))
        }),
        ("daemon.submit_ms", "ms", Probe, |t, _| {
            mean_ms(t, "daemon.submit")
        }),
        ("daemon.status_ms", "ms", Probe, |t, _| {
            mean_ms(t, "daemon.status")
        }),
        ("daemon.row_gap_p50_ms", "ms", Probe, |t, _| {
            Summary::of(t.samples("daemon.row_gap_ms")).map(|s| s.p50)
        }),
        ("daemon.row_gap_tail_ms", "ms", Probe, |t, _| {
            tail(t.samples("daemon.row_gap_ms")).map(|(_, v)| v)
        }),
        ("daemon.checkpoints", "count", Own, |t, j| {
            per_job(t, "daemon.checkpoints", j)
        }),
        ("daemon.overhead_ratio", "ratio", Probe, |t, _| {
            ratio(t.counted("daemon.job_ms"), t.counted("daemon.inproc_ms"))
        }),
        ("trace.overhead_ms", "ms", Own, |t, j| {
            Some((t.counted("trace.traced_ms") - t.counted("trace.untraced_ms")) / j)
        }),
        ("trace.overhead_ratio", "ratio", Own, |t, _| {
            ratio(t.counted("trace.traced_ms"), t.counted("trace.untraced_ms")).map(|r| r - 1.0)
        }),
    ]
}
