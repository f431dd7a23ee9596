//! Named voltage/frequency domains sharing one power budget.
//!
//! The Exynos5422 exposes two CPU clusters on separate voltage rails:
//! the Cortex-A7 "LITTLE" cluster and the Cortex-A15 "big" cluster.
//! The paper's governor treats the SoC as a single domain (one level,
//! one ladder); multi-domain policies — SysScale-style budget shifting,
//! per-cluster race-to-idle — instead reason about *per-domain*
//! operating points competing for one shared power budget. This module
//! names the domains, enumerates their per-domain OPP ladders, and
//! provides the shared-budget allocator those policies plan with,
//! precomputed per model set as an [`AllocationLadder`].

use crate::cores::{CoreConfig, CoreType, CORES_PER_CLUSTER};
use crate::freq::FrequencyTable;
use crate::opp::Opp;
use crate::perf::PerfModel;
use crate::power::PowerModel;
use crate::SocError;
use pn_units::{Hertz, Watts};
use std::fmt;

/// A named voltage/frequency domain of the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// The Cortex-A7 cluster: low power, always holds CPU0.
    Little,
    /// The Cortex-A15 cluster: high performance, fully unpluggable.
    Big,
}

impl Domain {
    /// Every domain, in the order power sums are taken (LITTLE first).
    pub const ALL: [Domain; 2] = [Domain::Little, Domain::Big];

    /// Human-readable domain name.
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Little => "LITTLE",
            Domain::Big => "big",
        }
    }

    /// The core type populating this domain.
    pub fn core_type(&self) -> CoreType {
        match self {
            Domain::Little => CoreType::Little,
            Domain::Big => CoreType::Big,
        }
    }

    /// Fewest cores the domain can run with online (CPU0 lives in the
    /// LITTLE domain and cannot be unplugged).
    pub fn min_cores(&self) -> u8 {
        match self {
            Domain::Little => 1,
            Domain::Big => 0,
        }
    }

    /// Most cores the domain can bring online.
    pub fn max_cores(&self) -> u8 {
        CORES_PER_CLUSTER
    }

    /// Online cores of this domain in a combined configuration.
    pub fn cores_in(&self, config: CoreConfig) -> u8 {
        config.count(self.core_type())
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A per-domain operating point: how many of the domain's cores are
/// online and which frequency level they run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainOpp {
    /// The domain this point belongs to.
    pub domain: Domain,
    /// Online cores in the domain.
    pub cores: u8,
    /// Frequency-level index into the domain's ladder.
    pub level: usize,
}

impl DomainOpp {
    /// Power drawn by this domain alone (excluding the board base).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::LevelOutOfRange`] when the level does not
    /// exist in `table`.
    pub fn power(&self, power: &PowerModel, table: &FrequencyTable) -> Result<Watts, SocError> {
        Ok(power.domain_power(self.domain, self.cores, table.frequency(self.level)?))
    }
}

impl fmt::Display for DomainOpp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} @ L{}", self.cores, self.domain, self.level)
    }
}

/// Enumerates one domain's OPP ladder: every admissible core count of
/// the domain crossed with every frequency level of `table`, lowest
/// first.
pub fn domain_ladder(domain: Domain, table: &FrequencyTable) -> Vec<DomainOpp> {
    let mut out = Vec::with_capacity(
        usize::from(domain.max_cores() - domain.min_cores() + 1) * table.len(),
    );
    for cores in domain.min_cores()..=domain.max_cores() {
        for (level, _) in table.iter() {
            out.push(DomainOpp { domain, cores, level });
        }
    }
    out
}

/// Splits a combined OPP into its per-domain points (both domains share
/// one clock level in the combined model).
pub fn domain_opps(opp: Opp) -> [DomainOpp; 2] {
    Domain::ALL.map(|domain| DomainOpp {
        domain,
        cores: domain.cores_in(opp.config()),
        level: opp.level(),
    })
}

/// A power budget shared by every domain of the SoC.
///
/// The budget is what multi-domain governors trade between clusters:
/// all domains (plus the board base) must fit under `total`, and watts
/// not spent in one domain are free to be spent in another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    total: Watts,
}

impl PowerBudget {
    /// Creates a budget.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for a negative or
    /// non-finite budget.
    pub fn new(total: Watts) -> Result<Self, SocError> {
        if !(total.value() >= 0.0 && total.value().is_finite()) {
            return Err(SocError::InvalidParameter("power budget must be finite and non-negative"));
        }
        Ok(Self { total })
    }

    /// The total budget.
    pub fn total(&self) -> Watts {
        self.total
    }

    /// Per-domain power split of a combined OPP (board base excluded).
    ///
    /// # Errors
    ///
    /// Returns [`SocError::LevelOutOfRange`] when the OPP's level does
    /// not exist in `table`.
    pub fn split(
        &self,
        opp: Opp,
        power: &PowerModel,
        table: &FrequencyTable,
    ) -> Result<[Watts; 2], SocError> {
        Ok(domain_split(opp.config(), table.frequency(opp.level())?, power))
    }

    /// Finds the throughput-maximal combined OPP whose board power fits
    /// this budget, searching the full per-domain core grid (not just
    /// the hot-plug ladder) so budget can shift freely between the
    /// LITTLE and big domains. Returns the chosen OPP and its
    /// per-domain split, or `None` when even the floor point
    /// (`Opp::lowest`) exceeds the budget.
    ///
    /// Builds the [`AllocationLadder`] for the models and queries it;
    /// callers planning many budgets against one model set should
    /// build the ladder once and call [`AllocationLadder::allocate`].
    pub fn allocate(
        &self,
        power: &PowerModel,
        perf: &PerfModel,
        table: &FrequencyTable,
    ) -> Option<(Opp, [Watts; 2])> {
        AllocationLadder::new(power, perf, table).allocate(self)
    }
}

/// Per-domain power of `config` at `f`, LITTLE first (base excluded).
fn domain_split(config: CoreConfig, f: Hertz, power: &PowerModel) -> [Watts; 2] {
    Domain::ALL.map(|d| power.domain_power(d, d.cores_in(config), f))
}

/// One rung of an [`AllocationLadder`]: the allocation every budget
/// from `threshold` watts up to the next rung's threshold receives.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rung {
    threshold: f64,
    opp: Opp,
    split: [Watts; 2],
}

/// The shared-budget allocator's answer for every budget, precomputed
/// once per (power, perf, frequency-table) model set.
///
/// The allocator's rule: among the combined OPPs of the full
/// per-domain core grid whose board power fits the budget, pick the
/// highest throughput; ties resolve to the lower-power candidate, then
/// to the enumeration order (LITTLE capacity grows before big
/// capacity, level grows last). Within one core configuration the scan
/// admits levels bottom-up and stops at the first that does not fit,
/// so a candidate is admitted exactly when the budget covers the
/// running maximum of its configuration's board power up to its
/// level — its *threshold*.
///
/// The ladder sorts the candidates by threshold and keeps a rung
/// wherever the running best changes, so [`AllocationLadder::allocate`]
/// is a binary search: the answer for a budget is the last rung whose
/// threshold it covers.
///
/// # Examples
///
/// ```
/// use pn_soc::domain::{AllocationLadder, PowerBudget};
/// use pn_soc::{freq::FrequencyTable, perf::PerfModel, power::PowerModel};
/// use pn_units::Watts;
///
/// let ladder = AllocationLadder::new(
///     &PowerModel::odroid_xu4(),
///     &PerfModel::odroid_xu4(),
///     &FrequencyTable::paper_levels(),
/// );
/// let budget = PowerBudget::new(Watts::new(4.0)).unwrap();
/// let (_, split) = ladder.allocate(&budget).expect("4 W fits the floor point");
/// assert!(split[0] + split[1] < budget.total());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationLadder {
    /// Rungs in ascending threshold order; at most one per candidate.
    rungs: Vec<Rung>,
}

impl AllocationLadder {
    /// Enumerates, ranks and compresses every candidate allocation of
    /// the model set.
    pub fn new(power: &PowerModel, perf: &PerfModel, table: &FrequencyTable) -> Self {
        struct Candidate {
            threshold: f64,
            watts: f64,
            ips: f64,
            opp: Opp,
            f: Hertz,
        }
        let mut candidates = Vec::new();
        for big in Domain::Big.min_cores()..=Domain::Big.max_cores() {
            for little in Domain::Little.min_cores()..=Domain::Little.max_cores() {
                let Ok(config) = CoreConfig::new(little, big) else { continue };
                let mut threshold = f64::NEG_INFINITY;
                for (level, f) in table.iter() {
                    let watts = power.board_power(config, f).value();
                    threshold = threshold.max(watts);
                    candidates.push(Candidate {
                        threshold,
                        watts,
                        ips: perf.instructions_per_second(config, f),
                        opp: Opp::new(config, level),
                        f,
                    });
                }
            }
        }
        // The vector index is the enumeration order; the stable sort
        // keeps it ascending among equal thresholds, but the ranking
        // below compares it explicitly so the ladder never depends on
        // the order candidates are admitted in.
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| candidates[a].threshold.total_cmp(&candidates[b].threshold));
        let mut rungs = Vec::new();
        let mut best: Option<usize> = None;
        for i in order {
            let c = &candidates[i];
            let better = match best {
                None => true,
                Some(b) => {
                    let held = &candidates[b];
                    c.ips > held.ips
                        || (c.ips == held.ips
                            && (c.watts < held.watts || (c.watts == held.watts && i < b)))
                }
            };
            if better {
                best = Some(i);
                rungs.push(Rung {
                    threshold: c.threshold,
                    opp: c.opp,
                    split: domain_split(c.opp.config(), c.f, power),
                });
            }
        }
        Self { rungs }
    }

    /// The throughput-maximal allocation fitting `budget` and its
    /// per-domain split, or `None` when even the floor point exceeds
    /// it (see [`AllocationLadder`] for the selection rule).
    pub fn allocate(&self, budget: &PowerBudget) -> Option<(Opp, [Watts; 2])> {
        let total = budget.total().value();
        let admitted = self.rungs.partition_point(|rung| rung.threshold <= total);
        let rung = &self.rungs[admitted.checked_sub(1)?];
        Some((rung.opp, rung.split))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn models() -> (PowerModel, PerfModel, FrequencyTable) {
        (PowerModel::odroid_xu4(), PerfModel::odroid_xu4(), FrequencyTable::paper_levels())
    }

    /// The allocator as a direct scan of the core grid — the oracle the
    /// ladder is checked against. Levels are admitted bottom-up per
    /// configuration until one does not fit; the running best keeps
    /// the first candidate of the highest throughput at the lowest
    /// power.
    fn brute_force(total: f64) -> Option<(Opp, [Watts; 2])> {
        let (power, perf, table) = models();
        let mut best: Option<(Opp, f64, f64)> = None; // (opp, ips, watts)
        for big in Domain::Big.min_cores()..=Domain::Big.max_cores() {
            for little in Domain::Little.min_cores()..=Domain::Little.max_cores() {
                let Ok(config) = CoreConfig::new(little, big) else { continue };
                for (level, f) in table.iter() {
                    let p = power.board_power(config, f).value();
                    if p > total {
                        break;
                    }
                    let ips = perf.instructions_per_second(config, f);
                    let better = match best {
                        None => true,
                        Some((_, best_ips, best_p)) => {
                            ips > best_ips || (ips == best_ips && p < best_p)
                        }
                    };
                    if better {
                        best = Some((Opp::new(config, level), ips, p));
                    }
                }
            }
        }
        let budget = PowerBudget::new(Watts::new(total)).unwrap();
        best.map(|(opp, _, _)| (opp, budget.split(opp, &power, &table).unwrap()))
    }

    fn ladder() -> AllocationLadder {
        let (power, perf, table) = models();
        AllocationLadder::new(&power, &perf, &table)
    }

    fn query(ladder: &AllocationLadder, total: f64) -> Option<(Opp, [Watts; 2])> {
        ladder.allocate(&PowerBudget::new(Watts::new(total)).unwrap())
    }

    #[test]
    fn ladder_matches_the_scan_at_every_candidate_power() {
        // Rung edges are where an off-by-one would show: every
        // candidate's exact board power, one ulp either side, zero,
        // and budgets past the hungriest point.
        let (power, _, table) = models();
        let ladder = ladder();
        let mut budgets = vec![0.0, 1e3, f64::MAX];
        for little in 1..=4 {
            for big in 0..=4 {
                let config = CoreConfig::new(little, big).unwrap();
                for (_, f) in table.iter() {
                    let p = power.board_power(config, f).value();
                    let (below, above) = (p.to_bits() - 1, p.to_bits() + 1);
                    budgets.extend([p, f64::from_bits(below), f64::from_bits(above)]);
                }
            }
        }
        for total in budgets {
            assert_eq!(query(&ladder, total), brute_force(total), "budget {total} W");
        }
        let top = Opp::new(CoreConfig::MAX, table.len() - 1);
        assert_eq!(query(&ladder, 1e3).map(|(opp, _)| opp), Some(top));
        assert_eq!(query(&ladder, 0.0), None);
    }

    proptest! {
        #[test]
        fn ladder_matches_the_scan_for_random_budgets(total in 0.0f64..12.0) {
            prop_assert_eq!(query(&ladder(), total), brute_force(total));
        }
    }

    #[test]
    fn ladders_cover_the_domain_grids() {
        let table = FrequencyTable::paper_levels();
        // LITTLE: cores 1..=4 × 8 levels; big: cores 0..=4 × 8 levels.
        assert_eq!(domain_ladder(Domain::Little, &table).len(), 32);
        assert_eq!(domain_ladder(Domain::Big, &table).len(), 40);
        for opp in domain_ladder(Domain::Little, &table) {
            assert_eq!(opp.domain, Domain::Little);
            assert!(opp.cores >= 1);
        }
    }

    #[test]
    fn domain_split_reassembles_board_power() {
        let (power, _, table) = models();
        let budget = PowerBudget::new(Watts::new(5.0)).unwrap();
        for opp in crate::opp::ladder_opps(&table) {
            let split = budget.split(opp, &power, &table).unwrap();
            let total = power.base_power() + split[0] + split[1];
            let direct = opp.power(&power, &table).unwrap();
            assert!((total - direct).abs() < Watts::new(1e-12), "{opp}");
        }
    }

    #[test]
    fn split_matches_per_domain_opp_power() {
        let (power, _, table) = models();
        let budget = PowerBudget::new(Watts::new(4.0)).unwrap();
        let opp = Opp::new(CoreConfig::new(3, 2).unwrap(), 4);
        let split = budget.split(opp, &power, &table).unwrap();
        for (i, d) in domain_opps(opp).iter().enumerate() {
            assert_eq!(split[i], d.power(&power, &table).unwrap());
        }
    }

    #[test]
    fn allocation_saturates_the_budget_monotonically() {
        let (power, perf, table) = models();
        let mut last_ips = 0.0;
        for budget_w in [2.0, 3.0, 4.0, 5.0, 6.0, 7.5] {
            let budget = PowerBudget::new(Watts::new(budget_w)).unwrap();
            let (opp, split) = budget.allocate(&power, &perf, &table).expect("fits");
            let p = opp.power(&power, &table).unwrap();
            assert!(p <= budget.total(), "{opp} at {p} over {budget_w} W");
            assert!(power.base_power() + split[0] + split[1] <= budget.total() + Watts::new(1e-12));
            let f = table.frequency(opp.level()).unwrap();
            let ips = perf.instructions_per_second(opp.config(), f);
            assert!(ips >= last_ips, "throughput fell as the budget grew");
            last_ips = ips;
        }
    }

    #[test]
    fn abundant_budget_shifts_watts_into_the_big_domain() {
        let (power, perf, table) = models();
        let lean = PowerBudget::new(Watts::new(2.0)).unwrap();
        let rich = PowerBudget::new(Watts::new(7.0)).unwrap();
        let (lean_opp, lean_split) = lean.allocate(&power, &perf, &table).unwrap();
        let (rich_opp, rich_split) = rich.allocate(&power, &perf, &table).unwrap();
        // A lean budget is spent entirely in the efficient LITTLE
        // domain; abundance shifts watts across to the big domain.
        assert_eq!(lean_opp.config().big(), 0, "lean: {lean_opp}");
        assert_eq!(lean_split[1], Watts::ZERO);
        assert!(rich_opp.config().big() > 0, "rich: {rich_opp}");
        assert!(rich_split[1] > rich_split[0]);
    }

    #[test]
    fn impossible_budget_allocates_nothing() {
        let (power, perf, table) = models();
        let starved = PowerBudget::new(Watts::new(0.5)).unwrap();
        assert!(starved.allocate(&power, &perf, &table).is_none());
        assert!(PowerBudget::new(Watts::new(-1.0)).is_err());
        assert!(PowerBudget::new(Watts::new(f64::NAN)).is_err());
    }

    #[test]
    fn domain_names_and_views() {
        assert_eq!(Domain::Little.to_string(), "LITTLE");
        assert_eq!(Domain::Big.to_string(), "big");
        let opp = Opp::new(CoreConfig::new(2, 3).unwrap(), 5);
        let [l, b] = domain_opps(opp);
        assert_eq!((l.cores, l.level), (2, 5));
        assert_eq!((b.cores, b.level), (3, 5));
        assert_eq!(DomainOpp { domain: Domain::Big, cores: 2, level: 1 }.to_string(), "2xbig @ L1");
    }
}
