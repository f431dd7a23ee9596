//! Statistics helpers: order statistics with honest sample counts,
//! self time of nested spans, and the workload-seed → job-seed
//! derivation every workload draws its inputs from.

/// A timing summary: the median, plus the highest percentile that
/// still has at least [`TAIL_SAMPLES`] samples beyond it (when the
/// sample count allows one), with the number of samples behind both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median (mean of the two middle samples for an even count).
    pub p50: f64,
    /// `(percentile, value)` of the highest whole percentile with at
    /// least [`TAIL_SAMPLES`] samples strictly above its rank.
    pub tail: Option<(u32, f64)>,
}

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

impl Summary {
    /// Summarises `samples` (in any order). `None` for no samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let p50 = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let tail = (51..=99).rev().find_map(|p| {
            let rank = nearest_rank(n, p);
            (n - rank >= TAIL_SAMPLES).then(|| (p, sorted[rank - 1]))
        });
        Some(Summary { n, p50, tail })
    }

    /// One-line human description, e.g. `n=40 p50=1.2 p75=1.9`.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((p, v)) => format!("n={} p50={} p{p}={v}", self.n, self.p50),
            None => format!(
                "n={} p50={} (no percentile above the median has {TAIL_SAMPLES} samples beyond it)",
                self.n, self.p50
            ),
        }
    }
}

/// 1-based nearest-rank index of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    let rank = (p as usize * n).div_ceil(100);
    rank.clamp(1, n)
}

/// Median of `samples`; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// A recorded interval: `[start, end)` in nanoseconds, with the index
/// of its parent span, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span in the same slice.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its children (overlapping children — spans of
/// concurrent work — are counted once, and a child sticking out of its
/// parent is clipped to the parent).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.end.saturating_sub(span.start) - covered
        })
        .collect()
}

/// SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Job index of the warm-up job set-up runs: outside every timed run.
pub const WARMUP_JOB: u64 = u64::MAX;

/// The `count` cloud seeds of job `job` in a run with workload seed
/// `seed`. Distinct within a job, fresh for every job, and a pure
/// function of `(seed, job)`, so every run at one seed does the same
/// work. Seeds stay below 2^53 so they survive any float round trip.
pub fn cloud_seeds(seed: u64, job: u64, count: usize) -> Vec<u64> {
    let base = mix64(mix64(seed) ^ job.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut out: Vec<u64> = Vec::with_capacity(count);
    let mut k = 0u64;
    while out.len() < count {
        let s = mix64(base.wrapping_add(k)) >> 11;
        k += 1;
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// FNV-1a 64-bit digest of `bytes` (the CSV fingerprint).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn no_tail_percentile_below_twenty_samples() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 19);
        assert_eq!(s.p50, 10.0);
        assert_eq!(s.tail, None);
        assert!(s.describe().contains("no percentile"));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 20 samples: p51 (rank 11) has only 9 samples beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Summary::of(&twenty).unwrap().tail, None);
        let twenty_five: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(Summary::of(&twenty_five).unwrap().tail, Some((60, 15.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&hundred).unwrap().tail, Some((90, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&thousand).unwrap().tail, Some((99, 990.0)));
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            Interval {
                start: 0,
                end: 100,
                parent: None,
            },
            Interval {
                start: 10,
                end: 30,
                parent: Some(0),
            },
            // Overlaps the previous child: 20..40 adds only 30..40.
            Interval {
                start: 20,
                end: 40,
                parent: Some(0),
            },
            // Sticks out of the parent: clipped to 90..100.
            Interval {
                start: 90,
                end: 120,
                parent: Some(0),
            },
            // Grandchild: charged to its own parent only.
            Interval {
                start: 12,
                end: 18,
                parent: Some(1),
            },
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 6, 20, 30, 6]);
    }

    #[test]
    fn cloud_seeds_are_deterministic_distinct_and_seed_dependent() {
        let a = cloud_seeds(7, 3, 12);
        assert_eq!(a, cloud_seeds(7, 3, 12));
        assert_eq!(a.len(), 12);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
        assert_ne!(a, cloud_seeds(8, 3, 12));
        assert_ne!(a, cloud_seeds(7, 4, 12));
        assert!(cloud_seeds(7, WARMUP_JOB, 12)
            .iter()
            .all(|s| !a.contains(s)));
        assert!(a.iter().all(|&s| s < 1 << 53));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
