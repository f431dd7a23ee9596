//! Runs a group of assembled simulations in submission order.
//!
//! Campaigns dispatch one executor item per cell and do not use this;
//! it serves callers that already hold a group of simulations.

use crate::engine::{SimReport, Simulation};
use crate::error::SimError;

/// Runs every simulation to completion, one after another, returning
/// the reports in submission order — exactly what calling
/// [`Simulation::run`] on each would return.
///
/// # Errors
///
/// Propagates the first solver or monitor failure; simulations after
/// the failing one are not run.
pub fn run_batch(sims: Vec<Simulation>) -> Result<Vec<SimReport>, SimError> {
    sims.into_iter().map(Simulation::run).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::weather_day;
    use pn_harvest::weather::Weather;
    use pn_units::Seconds;

    fn sim(weather: Weather, seed: u64, powersave: bool, duration: f64) -> Simulation {
        let sc = weather_day(weather, seed).with_duration(Seconds::new(duration));
        if powersave { sc.build_powersave() } else { sc.build_power_neutral() }.unwrap()
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_batch(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn batch_matches_solo_runs_in_order() {
        let specs = [
            (Weather::FullSun, 1, false, 4.0),
            (Weather::FullSun, 1, true, 2.0),
            (Weather::Cloudy, 2, false, 4.0),
            (Weather::PartialSun, 7, true, 3.0),
        ];
        let solos: Vec<_> =
            specs.iter().map(|&(w, s, p, d)| sim(w, s, p, d).run().unwrap()).collect();
        let batched =
            run_batch(specs.iter().map(|&(w, s, p, d)| sim(w, s, p, d)).collect()).unwrap();
        assert_eq!(batched, solos);
    }
}
