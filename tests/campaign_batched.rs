//! Campaign dispatch determinism.
//!
//! A campaign's report must not depend on how its cells are spread
//! over workers or machines: one worker, four work-stealing workers,
//! and four shards merged back together must all produce the same
//! bytes. These suites pin that across the governor, weather, seed and
//! supply-model axes and the adversarial stress palette, and check
//! that spelling out a default option changes nothing.

use power_neutral::harvest::faults::FaultSpec;
use power_neutral::harvest::weather::Weather;
use power_neutral::sim::campaign::{run_campaign, CampaignReport, CampaignSpec, GovernorSpec};
use power_neutral::sim::engine::SimOverrides;
use power_neutral::sim::executor::Executor;
use power_neutral::sim::persist;
use power_neutral::sim::supply::SupplyModel;
use power_neutral::soc::opp::Opp;
use power_neutral::soc::thermal::{RcThermal, ThermalSpec};
use power_neutral::units::Seconds;
use power_neutral::workload::arrival::ArrivalSpec;
use proptest::prelude::*;

/// Every governor the campaign layer can drive.
fn governors() -> Vec<GovernorSpec> {
    vec![
        GovernorSpec::PowerNeutral,
        GovernorSpec::Performance,
        GovernorSpec::Powersave,
        GovernorSpec::Userspace(2),
        GovernorSpec::Ondemand,
        GovernorSpec::Conservative,
        GovernorSpec::Interactive,
        GovernorSpec::Hold(Opp::lowest()),
        GovernorSpec::RaceToIdle,
        GovernorSpec::BudgetShift,
    ]
}

/// The wire document of `spec` run on one worker, after asserting
/// that four work-stealing workers and a four-shard merge reproduce it
/// byte for byte.
fn dispatch_invariant_report(spec: &CampaignSpec) -> String {
    let sequential = run_campaign(spec, &Executor::sequential()).expect("campaign runs");
    let doc = persist::report_to_string(&sequential);
    let wide = run_campaign(spec, &Executor::new(4)).expect("campaign runs");
    assert_eq!(persist::report_to_string(&wide), doc, "4-thread run diverged");
    let shards = spec
        .shard(4)
        .iter()
        .map(|shard| shard.run(&Executor::sequential()))
        .collect::<Result<Vec<_>, _>>()
        .expect("shards run");
    let merged = CampaignReport::merge(shards).expect("shards merge");
    assert_eq!(persist::report_to_string(&merged), doc, "4-shard merge diverged");
    doc
}

proptest! {
    /// Dispatch invariance sampled across every axis: one sampled
    /// governor paired with powersave, a sampled weather and seed, both
    /// supply models.
    #[test]
    fn sampled_outcomes_are_bitwise_across_threads_and_shards(
        g in 0usize..10,
        w in 0usize..6,
        seed in 1u64..5,
        interp in proptest::bool::ANY,
    ) {
        let mut spec = CampaignSpec::new()
            .expect("paper preset valid")
            .with_weathers(vec![Weather::all()[w]])
            .with_seeds(vec![seed])
            .with_governors(vec![governors()[g], GovernorSpec::Powersave])
            .with_duration(Seconds::new(3.0));
        if interp {
            spec = spec.with_supply_model(SupplyModel::interpolated());
        }
        dispatch_invariant_report(&spec);
    }
}

/// The thermal palette the stress generator matrix samples: no model,
/// the CLI stress preset, and a fast-tripping variant (τ = 4 s, trip
/// 1 °C above ambient) whose throttle/release crossings land inside
/// the short proptest windows.
fn thermals() -> Vec<ThermalSpec> {
    vec![
        ThermalSpec::Off,
        ThermalSpec::stress(),
        ThermalSpec::Rc(RcThermal {
            ambient_c: 25.0,
            r_c_per_w: 8.0,
            c_j_per_c: 0.5,
            throttle_c: 26.0,
            release_c: 25.5,
            cap_level: 1,
            boost: None,
        }),
    ]
}

/// The arrival palette: saturated, the CLI bursty preset, and a dense
/// variant with edges every couple of seconds and a zero idle duty.
fn arrivals() -> Vec<ArrivalSpec> {
    vec![
        ArrivalSpec::Saturated,
        ArrivalSpec::bursty_stress(),
        ArrivalSpec::Bursty { rate_hz: 0.5, mean_burst_s: 1.0, idle_duty: 0.0 },
    ]
}

/// The fault palette: clean harvest, the CLI shading preset, and a
/// brown-out storm frequent enough to strike a 3-second window.
fn faults() -> Vec<FaultSpec> {
    vec![
        FaultSpec::None,
        FaultSpec::shading_stress(),
        FaultSpec::Brownout { rate_hz: 0.2, len_s: 2.0, depth: 0.9 },
    ]
}

proptest! {
    /// Dispatch invariance over the adversarial stress axes: throttle
    /// and boost crossings, arrival edges and harvester fault storms
    /// must land identically whichever worker or shard runs the cell,
    /// for every (thermal, arrival, fault) combination.
    #[test]
    fn stress_axes_stay_bitwise_across_threads_and_shards(
        t in 0usize..3,
        a in 0usize..3,
        f in 0usize..3,
        w in 0usize..6,
        seed in 1u64..4,
    ) {
        let spec = CampaignSpec::new()
            .expect("paper preset valid")
            .with_weathers(vec![Weather::all()[w]])
            .with_seeds(vec![seed])
            .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave])
            .with_thermals(vec![thermals()[t]])
            .with_arrivals(vec![arrivals()[a]])
            .with_faults(vec![faults()[f]])
            .with_duration(Seconds::new(3.0));
        dispatch_invariant_report(&spec);
    }
}

#[test]
fn all_stress_axes_at_once_match_in_one_batch() {
    // Every palette entry armed in one campaign, so cells with
    // thermal, arrival and fault boundaries share workers and shards.
    let spec = CampaignSpec::new()
        .expect("paper preset valid")
        .with_weathers(vec![Weather::PartialSun])
        .with_seeds(vec![2])
        .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave])
        .with_thermals(thermals())
        .with_arrivals(arrivals())
        .with_faults(faults())
        .with_duration(Seconds::new(4.0));
    dispatch_invariant_report(&spec);
}

#[test]
fn full_governor_axis_matches_in_one_batch() {
    // All ten governors over one shared day.
    let spec = CampaignSpec::new()
        .expect("paper preset valid")
        .with_weathers(vec![Weather::PartialSun])
        .with_seeds(vec![3])
        .with_governors(governors())
        .with_duration(Seconds::new(4.0));
    dispatch_invariant_report(&spec);
}

#[test]
fn per_cell_dispatched_campaigns_are_thread_count_invariant() {
    // One executor item per cell: the report must be independent of
    // how many workers claim them, including under a per-cell option.
    let spec = CampaignSpec::new()
        .expect("paper preset valid")
        .with_weathers(vec![Weather::FullSun, Weather::Cloudy, Weather::Stormy])
        .with_seeds(vec![1, 2])
        .with_governors(vec![GovernorSpec::PowerNeutral, GovernorSpec::Powersave])
        .with_duration(Seconds::new(6.0));
    let sequential = run_campaign(&spec, &Executor::sequential()).unwrap();
    for threads in [2usize, 4, 8] {
        let wide = run_campaign(&spec, &Executor::new(threads)).unwrap();
        assert_eq!(wide, sequential, "{threads}-thread dispatch diverged");
    }
    let tagged = spec
        .with_cell_options(SimOverrides::none().with_supply_model(SupplyModel::interpolated()));
    let tagged_sequential = run_campaign(&tagged, &Executor::sequential()).unwrap();
    let tagged_wide = run_campaign(&tagged, &Executor::new(4)).unwrap();
    assert_eq!(tagged_wide, tagged_sequential);
}

#[test]
fn dpm_governors_match_bitwise_across_every_weather() {
    // The idle-capable policies pause and resume mid-run (idle
    // entry/exit discontinuities), so they get an exhaustive weather
    // sweep of their own.
    for weather in Weather::all() {
        let spec = CampaignSpec::new()
            .expect("paper preset valid")
            .with_weathers(vec![weather])
            .with_seeds(vec![2])
            .with_governors(vec![GovernorSpec::RaceToIdle, GovernorSpec::BudgetShift])
            .with_duration(Seconds::new(5.0));
        dispatch_invariant_report(&spec);
    }
}

#[test]
fn scalar_and_batched_csv_exports_are_byte_identical() {
    // The CSV export is the same bytes whether the cells run one at a
    // time or in parallel batches, and whether a spec spells out the
    // default (exact) supply model or inherits it: the CSV's
    // supply-model column names the effective model.
    let spec = CampaignSpec::smoke().with_duration(Seconds::new(10.0));
    let csv = |options: SimOverrides, executor: &Executor| {
        let report = run_campaign(&spec.clone().with_cell_options(options), executor).unwrap();
        persist::report_csv_string(&report).unwrap()
    };
    let inherited = csv(SimOverrides::none(), &Executor::sequential());
    assert_eq!(csv(SimOverrides::none(), &Executor::new(2)), inherited);
    let explicit = SimOverrides::none().with_supply_model(SupplyModel::Exact);
    assert_eq!(csv(explicit, &Executor::new(2)), inherited);
}
