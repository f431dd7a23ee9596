//! Shared trace cache for campaign-scale simulation.
//!
//! A campaign matrix fans every (weather, seed) pair out over buffer
//! sizes, governors and control parameters, and each of those cells
//! needs the *same* full-day irradiance trace. Rendering a day profile
//! is the dominant start-up cost of a short cell (tens of thousands of
//! clear-sky + cloud-field samples), so rebuilding it per cell wastes
//! most of the matrix's warm-up time. A [`TraceCache`] builds each
//! distinct trace once and hands out shared [`Arc`] clones; it is
//! `Sync`, so one cache can serve every worker thread of an executor.
//!
//! Cached lookups are bitwise-faithful: the cache stores exactly what
//! the builder closure produced, so a cached campaign replays
//! identically to an uncached one.
//!
//! # Examples
//!
//! ```
//! use pn_harvest::cache::TraceCache;
//! use pn_harvest::weather::{DayProfile, Weather};
//! use pn_units::Seconds;
//!
//! # fn main() -> Result<(), pn_harvest::HarvestError> {
//! let cache = TraceCache::new();
//! let build = || DayProfile::new(Weather::Cloudy, 7).build(Seconds::new(60.0));
//! let first = cache.get_or_build(Weather::Cloudy, 7, build)?;
//! let again = cache.get_or_build(Weather::Cloudy, 7, build)?;
//! assert_eq!(first, again);
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! # Ok(())
//! # }
//! ```

use crate::irradiance::IrradianceTrace;
use crate::weather::Weather;
use crate::HarvestError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One cache slot: the (possibly not-yet-rendered) trace for a single
/// (weather, seed) day. Guarding each day behind its own lock lets
/// distinct days render in parallel while same-day requests wait for
/// exactly one build.
#[derive(Debug, Default)]
struct Slot {
    trace: Mutex<Option<Arc<IrradianceTrace>>>,
}

/// A thread-safe (weather, seed) → irradiance-trace cache.
///
/// The cache is agnostic about *how* a trace is rendered: the builder
/// closure passed to [`TraceCache::get_or_build`] owns the sky, span
/// and sampling step. Callers must therefore use one cache per trace
/// recipe (a campaign does: every cell shares the same day-profile
/// builder).
#[derive(Debug, Default)]
pub struct TraceCache {
    entries: Mutex<HashMap<(Weather, u64), Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the trace for `(weather, seed)`, rendering it with
    /// `build` on the first request. Only the day's own slot is locked
    /// across the build: concurrent requests for the *same* day render
    /// it exactly once, while different days render in parallel (the
    /// map-wide lock is held only to look up or insert a slot).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error without caching anything.
    pub fn get_or_build<F>(
        &self,
        weather: Weather,
        seed: u64,
        build: F,
    ) -> Result<Arc<IrradianceTrace>, HarvestError>
    where
        F: FnOnce() -> Result<IrradianceTrace, HarvestError>,
    {
        self.get_or_build_shared(weather, seed, || build().map(Arc::new))
    }

    /// [`TraceCache::get_or_build`] for builders that already produce a
    /// shared trace (e.g. [`DayProfile::build_shared`]): the `Arc` is
    /// stored as-is, so a process-wide memo hit is never deep-copied
    /// into the cache.
    ///
    /// [`DayProfile::build_shared`]: crate::weather::DayProfile::build_shared
    ///
    /// # Errors
    ///
    /// Propagates the builder's error without caching anything.
    pub fn get_or_build_shared<F>(
        &self,
        weather: Weather,
        seed: u64,
        build: F,
    ) -> Result<Arc<IrradianceTrace>, HarvestError>
    where
        F: FnOnce() -> Result<Arc<IrradianceTrace>, HarvestError>,
    {
        let slot = {
            let mut entries = self.entries.lock().expect("trace cache poisoned");
            Arc::clone(entries.entry((weather, seed)).or_default())
        };
        let mut trace = slot.trace.lock().expect("trace slot poisoned");
        if let Some(trace) = trace.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(trace));
        }
        let built = build()?;
        *trace = Some(Arc::clone(&built));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(built)
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to render a trace.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct traces currently cached.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("trace cache poisoned")
            .values()
            .filter(|slot| slot.trace.lock().expect("trace slot poisoned").is_some())
            .count()
    }

    /// `true` when no trace is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached trace, releasing the memory of traces no
    /// other `Arc` still holds. The hit and miss counters keep
    /// counting; a later lookup renders its day afresh.
    pub fn clear(&self) {
        self.entries.lock().expect("trace cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weather::DayProfile;
    use pn_units::Seconds;

    fn day(weather: Weather, seed: u64) -> Result<IrradianceTrace, HarvestError> {
        DayProfile::new(weather, seed)
            .with_span(Seconds::from_hours(10.0), Seconds::from_hours(12.0))
            .build(Seconds::new(30.0))
    }

    #[test]
    fn distinct_keys_get_distinct_traces() {
        let cache = TraceCache::new();
        let a = cache.get_or_build(Weather::FullSun, 1, || day(Weather::FullSun, 1)).unwrap();
        let b = cache.get_or_build(Weather::FullSun, 2, || day(Weather::FullSun, 2)).unwrap();
        let c = cache.get_or_build(Weather::Hail, 1, || day(Weather::Hail, 1)).unwrap();
        assert_ne!(a, b, "seed must be part of the key");
        assert_ne!(a, c, "weather must be part of the key");
        assert_eq!(cache.len(), 3);
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
    }

    #[test]
    fn repeated_lookups_share_one_build() {
        let cache = TraceCache::new();
        let mut builds = 0usize;
        for _ in 0..4 {
            let _ = cache
                .get_or_build(Weather::Cloudy, 9, || {
                    builds += 1;
                    day(Weather::Cloudy, 9)
                })
                .unwrap();
        }
        assert_eq!(builds, 1, "builder must run once per key");
        assert_eq!((cache.hits(), cache.misses()), (3, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_drops_every_trace_and_later_lookups_rebuild() {
        let cache = TraceCache::new();
        let first = cache.get_or_build(Weather::Cloudy, 3, || day(Weather::Cloudy, 3)).unwrap();
        cache.get_or_build(Weather::FullSun, 3, || day(Weather::FullSun, 3)).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        let again = cache.get_or_build(Weather::Cloudy, 3, || day(Weather::Cloudy, 3)).unwrap();
        assert_eq!(again, first);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 3, 1));
    }

    #[test]
    fn cached_trace_is_bitwise_the_built_one() {
        let cache = TraceCache::new();
        let direct = day(Weather::PartialSun, 5).unwrap();
        let cached =
            cache.get_or_build(Weather::PartialSun, 5, || day(Weather::PartialSun, 5)).unwrap();
        assert_eq!(*cached, direct);
    }

    #[test]
    fn builder_failure_is_not_cached() {
        let cache = TraceCache::new();
        let err = cache.get_or_build(Weather::Winter, 1, || {
            Err(HarvestError::InvalidParameter("synthetic failure"))
        });
        assert!(err.is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 0);
        // The key stays usable after a failed build.
        let ok = cache.get_or_build(Weather::Winter, 1, || day(Weather::Winter, 1));
        assert!(ok.is_ok());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn distinct_days_render_in_parallel() {
        // Each builder waits for the *other* day's builder to have
        // started. If the cache held one global lock across builds,
        // the second builder could never start and the first would
        // time out — so a pass proves distinct days are not
        // serialized.
        use std::sync::mpsc;
        use std::time::Duration;
        let cache = TraceCache::new();
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        std::thread::scope(|scope| {
            let cache_ref = &cache;
            scope.spawn(move || {
                cache_ref
                    .get_or_build(Weather::FullSun, 1, move || {
                        tx_a.send(()).unwrap();
                        assert!(
                            rx_b.recv_timeout(Duration::from_secs(10)).is_ok(),
                            "other day's builder never started: builds are serialized"
                        );
                        day(Weather::FullSun, 1)
                    })
                    .unwrap();
            });
            scope.spawn(move || {
                cache_ref
                    .get_or_build(Weather::Hail, 2, move || {
                        tx_b.send(()).unwrap();
                        assert!(
                            rx_a.recv_timeout(Duration::from_secs(10)).is_ok(),
                            "other day's builder never started: builds are serialized"
                        );
                        day(Weather::Hail, 2)
                    })
                    .unwrap();
            });
        });
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let cache = TraceCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let t = cache
                        .get_or_build(Weather::Stormy, 3, || day(Weather::Stormy, 3))
                        .unwrap();
                    assert!(!t.is_empty());
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }
}
