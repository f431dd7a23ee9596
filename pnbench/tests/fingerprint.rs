//! The work fingerprint of a job is a pure function of the workload
//! seed: it repeats exactly at one seed and changes at another. A
//! simulator-only speed-up must therefore leave it untouched.

use pnbench::workloads::{open, Fingerprint, Kind};
use std::path::PathBuf;

fn first_job(kind: Kind, seed: u64, run: &str) -> Fingerprint {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fingerprint-{kind:?}-{run}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut workload = open(kind, &dir).unwrap();
    let fp = workload.run_job(seed, 0).unwrap().fp;
    workload.close();
    std::fs::remove_dir_all(&dir).unwrap();
    fp
}

fn assert_seed_determines_work(kind: Kind) {
    let a = first_job(kind, 5, "a");
    assert_eq!(
        a,
        first_job(kind, 5, "b"),
        "{kind:?}: same seed, different work"
    );
    let other = first_job(kind, 6, "c");
    assert_ne!(
        a.csv_digest, other.csv_digest,
        "{kind:?}: seed does not reach the CSV"
    );
    assert_ne!(
        a.sim_s, other.sim_s,
        "{kind:?}: seed does not reach the simulation"
    );
    assert_eq!(
        a.rows, other.rows,
        "{kind:?}: matrix shape depends on the seed"
    );
}

#[test]
fn solar_day_fingerprint_is_a_function_of_the_seed() {
    assert_seed_determines_work(Kind::SolarDay);
}

#[test]
fn sweep_refine_fingerprint_is_a_function_of_the_seed() {
    let a = first_job(Kind::SweepRefine, 5, "rounds");
    assert!(
        a.rounds > 0 && a.probes > 0,
        "adaptive refinement did not run: {a:?}"
    );
    assert_seed_determines_work(Kind::SweepRefine);
}

#[test]
fn daemon_stream_fingerprint_is_a_function_of_the_seed() {
    assert_seed_determines_work(Kind::DaemonStream);
}
