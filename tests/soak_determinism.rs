//! Soak campaigns are pure functions of `(plan, epochs, seed)`: the
//! JSONL report is byte-identical across reruns and across worker
//! counts, and the shipped plans actually recover after every storm
//! epoch — the acceptance bar for the chaos engine.

use ftss_chaos::{run_soak, SoakBudget, SoakConfig, SoakPlan};
use ftss_check::Fingerprinter;

fn config(plan: SoakPlan, jobs: usize) -> SoakConfig {
    SoakConfig {
        plan,
        jobs,
        budget: SoakBudget::default(),
    }
}

#[test]
fn default_plan_report_is_byte_identical_across_jobs_and_reruns() {
    let baseline = run_soak(&config(SoakPlan::default_plan(2, 0), 1)).unwrap();
    assert!(
        baseline.all_recovered(),
        "default plan must recover:\n{}",
        baseline.summary()
    );
    let report = baseline.report();
    assert!(!report.is_empty());
    for jobs in [1, 4] {
        let again = run_soak(&config(SoakPlan::default_plan(2, 0), jobs)).unwrap();
        assert_eq!(
            again.report(),
            report,
            "jobs={jobs} must reproduce the report byte for byte"
        );
    }
}

#[test]
fn default_plan_recovers_after_every_epoch_of_a_full_cycle() {
    // Four epochs exercise the whole storm cycle (partition, omission,
    // silence churn, burst-only) in every synchronous cell.
    let out = run_soak(&config(SoakPlan::default_plan(4, 0), 2)).unwrap();
    assert!(out.all_recovered(), "summary:\n{}", out.summary());
    for cell in &out.cells {
        assert_eq!(cell.epochs.len(), 4, "{} ran all epochs", cell.cell);
        assert_eq!(
            cell.jsonl.matches(r#""type":"recovery_measured""#).count(),
            4,
            "{} verifies recovery per epoch:\n{}",
            cell.cell,
            cell.jsonl
        );
    }
}

#[test]
fn worst_case_plan_recovers_and_differs_from_default() {
    let worst = run_soak(&config(SoakPlan::worst_case(2, 0), 2)).unwrap();
    assert!(worst.all_recovered(), "summary:\n{}", worst.summary());
    let default = run_soak(&config(SoakPlan::default_plan(2, 0), 2)).unwrap();
    assert_ne!(
        worst.report(),
        default.report(),
        "the worst-case plan must actually change the execution"
    );
    // The worst-case detector cells run under the adversary scheduler's
    // inflation window, which the report labels as delay inflation.
    assert!(
        worst.report().contains(r#""kind":"delay-inflation""#),
        "missing inflation storms:\n{}",
        worst.report()
    );
}

#[test]
fn distinct_seeds_produce_distinct_reports() {
    let a = run_soak(&config(SoakPlan::default_plan(1, 0), 1)).unwrap();
    let b = run_soak(&config(SoakPlan::default_plan(1, 1), 1)).unwrap();
    assert_ne!(a.report(), b.report());
}

/// Report bytes against the commit before the in-stream judge (PR 16's
/// parent), where every cell below kept its whole execution and the
/// restart cell and the detector were judged after the run: one epoch of
/// retention and in-stream verdicts must not move a byte. Four epochs
/// are one full storm cycle of every plan.
#[test]
fn reports_match_the_digests_recorded_before_the_in_stream_judge() {
    for (plan, digest) in [
        (
            SoakPlan::default_plan(4, 1993),
            0xab2b_bea6_f3c6_1599_3e0a_832d_c8c8_18a3_u128,
        ),
        (
            SoakPlan::worst_case(4, 1993),
            0xa5e5_dbbd_0009_0713_cf84_bb35_23f9_7692,
        ),
        (
            SoakPlan::churn(4, 1993),
            0x634b_2651_696f_371a_73e0_4964_5b33_04f0,
        ),
        (
            SoakPlan::restart(4, 1993),
            0xab62_3036_4afb_bb86_e975_071c_c60c_d0a8,
        ),
    ] {
        let name = plan.name;
        let report = run_soak(&config(plan, 2)).unwrap().report();
        let got = Fingerprinter::new().fingerprint(report.as_bytes());
        assert_eq!(got, digest, "{name} plan: got {got:#x}");
    }
}
