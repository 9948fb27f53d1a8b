//! Determinism regression for the parallel sweep executor: a sweep's
//! output — rendered tables and concatenated JSONL traces alike — must be
//! byte-identical whether it ran on 1 worker (`FTSS_JOBS=1`) or 4. This
//! is the contract `ftss-lab sweep` exposes and `scripts/verify.sh`
//! `cmp`-checks end to end; here it is asserted in-process and, for the
//! whole registry at once, through the binary (which is why this file is
//! wired as an integration test of `ftss-lab`), plus the rule by which
//! the `FTSS_JOBS` environment knob picks the worker count.

use ftss::protocols::RoundAgreement;
use ftss::sync_sim::{NoFaults, RunConfig, SyncRunner};
use ftss_sweep::{e1_table, e7c_table, jobs_from, jobs_from_env, map_cells};

#[test]
fn e1_table_is_byte_identical_serial_vs_parallel() {
    let serial = e1_table(3, 8, 1).to_string();
    for jobs in [2, 4] {
        assert_eq!(e1_table(3, 8, jobs).to_string(), serial, "jobs={jobs}");
    }
    // Sanity: the small grid still renders real rows.
    assert!(serial.contains("none"));
    assert!(serial.contains("silent 6 rounds"));
}

#[test]
fn e7c_table_is_byte_identical_serial_vs_parallel() {
    // The async experiment: per-cell RNGs are seeded, so worker scheduling
    // cannot leak into the folded table.
    let serial = e7c_table(2, 1).to_string();
    assert_eq!(e7c_table(2, 4).to_string(), serial);
    assert!(serial.contains("resend period"));
}

#[test]
fn every_registered_experiment_is_byte_identical_serial_vs_parallel() {
    // `--exp all` on the quickest grid: one seed, the smallest sizes.
    let all = |jobs: &str| {
        let o = std::process::Command::new(env!("CARGO_BIN_EXE_ftss-lab"))
            .args(["sweep", "--exp", "all", "--seeds", "1", "--max-n", "4"])
            .args(["--jobs", jobs])
            .output()
            .expect("binary runs");
        assert!(o.status.success(), "jobs={jobs}");
        String::from_utf8(o.stdout).expect("tables are UTF-8")
    };
    let serial = all("1");
    assert_eq!(all("4"), serial);
    // One table per registry row: E1 … E11, E7 twice.
    assert_eq!(serial.matches("|\n|--").count(), 12);
}

#[test]
fn swept_jsonl_traces_concatenate_identically() {
    // A sweep whose cells each produce a full JSONL trace: the merged
    // stream (canonical cell order) must be byte-identical for any worker
    // count — the property verify.sh checks through the CLI.
    fn trace_cell(seed: &u64) -> Vec<u8> {
        let mut sink = ftss::telemetry::JsonlSink::new(Vec::new());
        SyncRunner::new(RoundAgreement)
            .run_traced(&mut NoFaults, &RunConfig::corrupted(4, 8, *seed), &mut sink)
            .expect("valid config");
        sink.finish().expect("in-memory sink cannot fail")
    }
    let seeds: Vec<u64> = (0..12).collect();
    let concat = |jobs: usize| -> Vec<u8> { map_cells(&seeds, jobs, trace_cell).concat() };
    let serial = concat(1);
    assert!(!serial.is_empty());
    assert_eq!(concat(4), serial);
    assert_eq!(concat(3), serial);
}

#[test]
fn jobs_env_is_respected() {
    // `jobs_from_env` is what the CLI passes straight into the sweep. Its
    // rule is pinned on `jobs_from` — the same function with the variable's
    // value and the fallback (the machine's parallelism) passed in — so the
    // test neither mutates the process environment under the other tests
    // of this binary nor depends on the host's core count.
    assert_eq!(jobs_from(Some("3"), || 8), 3, "an explicit FTSS_JOBS wins");
    assert_eq!(
        jobs_from(Some(" 1\n"), || 8),
        1,
        "FTSS_JOBS=1 forces serial"
    );
    assert_eq!(jobs_from(None, || 8), 8, "unset: autodetect");
    assert_eq!(
        jobs_from(Some("not-a-number"), || 8),
        8,
        "garbage: autodetect"
    );
    assert_eq!(jobs_from(Some("0"), || 8), 8, "zero: autodetect");
    assert!(jobs_from_env() >= 1);
}
