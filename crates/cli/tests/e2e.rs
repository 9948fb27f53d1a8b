//! End-to-end tests of the `ftss-lab` binary: spawn the real executable
//! and assert on exit codes and output shapes.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftss-lab"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [&["help"][..], &[][..], &["--help"][..]] {
        let o = run(args);
        assert!(o.status.success(), "{args:?}");
        assert!(stdout(&o).contains("USAGE"), "{args:?}");
    }
}

#[test]
fn unknown_command_exits_2() {
    let o = run(&["frobnicate"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown command"));
}

#[test]
fn bad_option_exits_2() {
    let o = run(&["round-agreement", "--n"]);
    assert_eq!(o.status.code(), Some(2));
    let o = run(&["round-agreement", "stray"]);
    assert_eq!(o.status.code(), Some(2));
}

#[test]
fn round_agreement_passes_and_reports() {
    let o = run(&[
        "round-agreement",
        "--n",
        "6",
        "--seed",
        "11",
        "--rounds",
        "10",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let s = stdout(&o);
    assert!(s.contains("measured stabilization"));
    assert!(s.contains("ftss OK"));
}

#[test]
fn round_agreement_with_omissions_passes() {
    let o = run(&[
        "round-agreement",
        "--n",
        "5",
        "--seed",
        "3",
        "--omit-p",
        "0.5",
        "--omitters",
        "2",
    ]);
    assert!(o.status.success());
}

#[test]
fn compile_all_three_protocols() {
    for pi in ["floodset", "phase-king", "eig"] {
        let n = if pi == "phase-king" { "5" } else { "4" };
        let o = run(&["compile", "--pi", pi, "--f", "1", "--n", n, "--seed", "2"]);
        assert!(
            o.status.success(),
            "{pi}: {}",
            String::from_utf8_lossy(&o.stderr)
        );
        assert!(stdout(&o).contains("bound (Thm 4)"), "{pi}");
    }
}

#[test]
fn compile_rejects_undersized_phase_king() {
    let o = run(&["compile", "--pi", "phase-king", "--f", "1", "--n", "4"]);
    assert_eq!(o.status.code(), Some(2));
}

#[test]
fn theorem_commands_succeed() {
    let o = run(&["theorem1", "--r", "3"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("refuted: true"));
    let o = run(&["theorem2", "--rounds", "6"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("refuted: true"));
}

#[test]
fn detector_with_poison_recovers() {
    let o = run(&[
        "detector", "--n", "3", "--crash", "2@500", "--poison", "true",
    ]);
    assert!(o.status.success(), "{}", stdout(&o));
    let s = stdout(&o);
    assert!(s.contains("strong completeness settled"));
    assert!(s.contains("eventual weak accuracy settled"));
}

/// The async commands validate `--n` and `--crash` before building the
/// ◇W oracle: each of these used to panic inside it.
#[test]
fn async_commands_reject_bad_crash_schedules() {
    for (cmd, want) in [
        ("detector --n 3 --crash 7@5", "names p7"),
        ("consensus --n 0", "at least 1"),
        ("detector --n 1 --crash 0@5", "never crash"),
        ("trace --protocol detector --n 3 --crash 7@5", "names p7"),
        ("trace --protocol consensus --n 0", "at least 1"),
    ] {
        let o = run(&cmd.split(' ').collect::<Vec<_>>());
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(2), "{cmd}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains(want),
            "{cmd}: {err}"
        );
        assert!(!err.contains("panicked"), "{cmd}: {err}");
    }
}

/// `--omit-p` is a probability: out of range it used to panic inside
/// the adversary, and `-1` or `nan` silently ran with no omitter.
#[test]
fn sync_commands_reject_a_bad_omission_probability() {
    for cmd in [
        "round-agreement --n 3 --rounds 3 --omit-p 2",
        "round-agreement --n 3 --rounds 3 --omit-p -1",
        "round-agreement --n 3 --rounds 3 --omit-p nan",
    ] {
        let o = run(&cmd.split(' ').collect::<Vec<_>>());
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(2), "{cmd}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains("--omit-p must be a probability"),
            "{cmd}: {err}"
        );
        assert!(!err.contains("panicked"), "{cmd}: {err}");
    }
}

#[test]
fn token_ring_stabilizes() {
    let o = run(&["token-ring", "--n", "4", "--rounds", "60", "--seed", "5"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("settled to 1"));
}

#[test]
fn sweep_is_byte_identical_across_jobs() {
    let serial = run(&[
        "sweep", "--exp", "e1", "--seeds", "2", "--max-n", "4", "--jobs", "1",
    ]);
    assert!(
        serial.status.success(),
        "{}",
        String::from_utf8_lossy(&serial.stderr)
    );
    assert!(stdout(&serial).contains("| n | faults"));
    let parallel = run(&[
        "sweep", "--exp", "e1", "--seeds", "2", "--max-n", "4", "--jobs", "4",
    ]);
    assert!(parallel.status.success());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "sweep output depends on --jobs"
    );
}

#[test]
fn e10_boundary_sweep_is_byte_identical_across_jobs() {
    let serial = run(&[
        "sweep", "--exp", "e10", "--seeds", "2", "--max-n", "4", "--jobs", "1",
    ]);
    assert!(
        serial.status.success(),
        "{}",
        String::from_utf8_lossy(&serial.stderr)
    );
    let s = stdout(&serial);
    // The n = 4 grid spans all three fault classes, and its Byzantine
    // row sits beyond the n > 4f solvability boundary: a recorded
    // violation, not a test failure.
    for class in ["omission", "byzantine", "churn"] {
        assert!(s.contains(class), "{s}");
    }
    assert!(s.contains("violated"), "{s}");
    let parallel = run(&[
        "sweep", "--exp", "e10", "--seeds", "2", "--max-n", "4", "--jobs", "4",
    ]);
    assert!(parallel.status.success());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "e10 output depends on --jobs"
    );
}

#[test]
fn sweep_rejects_unknown_experiment() {
    let o = run(&["sweep", "--exp", "e99"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown --exp"));
    let o = run(&["sweep"]);
    assert_eq!(o.status.code(), Some(2));
}

/// EXPERIMENTS.md is a checked output: `sweep --doc` re-runs the command
/// behind every marked block and must reproduce the committed file byte
/// for byte — and a doctored cell must not survive it.
#[test]
fn doc_mode_reproduces_experiments_md_and_trips_on_a_doctored_cell() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let committed = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
    let o = run(&["sweep", "--doc", path]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert!(
        stdout(&o) == committed,
        "EXPERIMENTS.md is stale: refresh it with `ftss-lab sweep --doc`"
    );

    // One cheap marked section, one cell changed: the check must trip,
    // and what it prints instead is the true block.
    let from = committed
        .find("<!-- ftss-lab sweep --exp e4 -->")
        .expect("E4 is marked");
    let len = committed[from..]
        .find("\n```\n\n")
        .expect("E4's block closes")
        + 5;
    let section = &committed[from..from + len];
    let doctored = section.replacen("| violated ", "| holds    ", 1);
    assert_ne!(doctored, section);
    let copy = std::env::temp_dir().join(format!("ftss-doc-{}.md", std::process::id()));
    std::fs::write(&copy, &doctored).expect("temp file");
    let o = run(&["sweep", "--doc", copy.to_str().expect("UTF-8 temp path")]);
    std::fs::remove_file(&copy).ok();
    assert!(o.status.success());
    assert_ne!(stdout(&o), doctored, "a doctored cell passed the check");
    assert_eq!(stdout(&o), section);
}

#[test]
fn consensus_corrupted_recovers() {
    let o = run(&[
        "consensus",
        "--n",
        "3",
        "--corrupt",
        "true",
        "--horizon",
        "60000",
        "--seed",
        "4",
    ]);
    assert!(o.status.success(), "{}", stdout(&o));
    assert!(stdout(&o).contains("newest decision"));
}

/// The graph with a round bound covers every omission schedule of that
/// horizon; it is also what `check` runs with no mode flag.
#[test]
fn check_graph_covers_a_bounded_horizon_green() {
    let o = run(&[
        "check", "--graph", "--n", "3", "--rounds", "2", "--seed", "7",
    ]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let s = stdout(&o);
    assert!(s.contains("n=3, corruption seed 7"), "{s}");
    assert!(s.contains("horizon: 2 round(s)"), "{s}");
    assert!(s.contains("zero violations"), "{s}");
    let bare = run(&["check", "--n", "3", "--rounds", "2", "--seed", "7"]);
    assert_eq!(bare.status.code(), Some(0));
    assert_eq!(bare.stdout, o.stdout, "no mode flag runs the graph");
}

/// `check --por` prints, byte for byte, what `check --dfs --por` printed
/// before the tape enumerator was retired.
#[test]
fn check_dfs_por_prunes_the_gossip_enumeration() {
    let o = run(&["check", "--por"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    // The canonical 24 → 4 sleep-set reduction: 4 deliveries make 4! = 24
    // complete dispatch orders; POR keeps one representative per
    // commutation class and reports what it cut.
    assert_eq!(
        stdout(&o),
        "check --dfs --por: async gossip, 2 processes, 4 deliveries, oracle: every \
         process converges to the maximum\n\
         full enumeration: 24 complete dispatch order(s), 0 pruned\n\
         sleep-set POR:    4 complete dispatch order(s), 6 pruned\n\
         zero violations in both explorations: POR verdict matches\n"
    );
}

#[test]
fn check_broken_oracle_writes_replayable_counterexample() {
    let dir = std::env::temp_dir().join("ftss-check-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let ce = dir.join("ce.schedule");
    let o = run(&[
        "check",
        "--graph",
        "--n",
        "3",
        "--rounds",
        "2",
        "--broken-oracle",
        "--ce",
        ce.to_str().unwrap(),
    ]);
    assert_eq!(o.status.code(), Some(1), "violation must exit 1");
    assert!(stdout(&o).contains("VIOLATION"), "{}", stdout(&o));
    let text = std::fs::read_to_string(&ce).unwrap();
    assert!(text.starts_with("ftss-check schedule v1"), "{text}");
    assert!(text.contains("\nmode: graph\n"), "{text}");

    // Replay twice; the JSONL traces must be byte-identical and the
    // recorded violation must reproduce (exit 0).
    let t1 = dir.join("t1.jsonl");
    let t2 = dir.join("t2.jsonl");
    for t in [&t1, &t2] {
        let o = run(&[
            "check",
            "--replay",
            ce.to_str().unwrap(),
            "--out",
            t.to_str().unwrap(),
        ]);
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        assert!(String::from_utf8_lossy(&o.stderr).contains("reproduced"));
        assert!(o.stdout.is_empty(), "trace goes to --out, not stdout");
    }
    let a = std::fs::read(&t1).unwrap();
    let b = std::fs::read(&t2).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "replay traces must be byte-identical");
}

/// A schedule file for a system no mode explores fails closed: exit 2
/// with `error:`, never a panic (exit 101) or an allocation abort (134).
#[test]
fn check_replay_rejects_a_schedule_no_mode_writes() {
    let dir = std::env::temp_dir().join("ftss-check-e2e-bad-schedule");
    std::fs::create_dir_all(&dir).unwrap();
    let good = "ftss-check schedule v1\nprotocol: round-agreement\nn: 3\nrounds: 2\n\
                corruption-seed: 7\nfaulty: 0\ntape-bound: 8\nstabilization: 0\n\
                tape: -\ndetail: thm3: x\n";
    for (i, (from, to)) in [
        ("faulty: 0", "faulty: 3"),
        ("n: 3", "n: 0"),
        ("n: 3", "n: 3000000"),
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("bad{i}.schedule"));
        std::fs::write(&path, good.replace(from, to)).unwrap();
        let o = run(&["check", "--replay", path.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(2), "{to}: {err}");
        assert!(err.starts_with("error:"), "{to}: {err}");
    }
}

#[test]
fn check_adversary_battery_is_jobs_invariant() {
    let serial = run(&[
        "check",
        "--adversary",
        "--n",
        "5",
        "--seeds",
        "1",
        "--jobs",
        "1",
    ]);
    let parallel = run(&[
        "check",
        "--adversary",
        "--n",
        "5",
        "--seeds",
        "1",
        "--jobs",
        "4",
    ]);
    assert!(serial.status.success(), "{}", stdout(&serial));
    assert_eq!(serial.stdout, parallel.stdout, "battery depends on --jobs");
    assert!(stdout(&serial).contains("all scenarios PASS"));
}

/// Zero seeds run no scenario; the empty battery once printed "all
/// scenarios PASS" and exited 0.
#[test]
fn check_adversary_refuses_zero_seeds() {
    let o = run(&["check", "--adversary", "--seeds", "0"]);
    assert_eq!(o.status.code(), Some(2), "{}", stdout(&o));
    assert!(o.stdout.is_empty(), "{}", stdout(&o));
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(
        err.starts_with("error:") && err.contains("--seeds must be at least 1"),
        "{err}"
    );
}

/// A stabilization time past the one-byte stable-window length is
/// rejected up front; 253, the largest that fits, still closes.
#[test]
fn check_graph_bounds_the_stabilization_time() {
    for stab in ["254", "300"] {
        let o = run(&["check", "--graph", "--n", "3", "--stabilization", stab]);
        assert_eq!(o.status.code(), Some(2), "--stabilization {stab}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(
            err.starts_with("error:") && err.contains("stable_len"),
            "{err}"
        );
        assert!(o.stdout.is_empty(), "{}", stdout(&o));
    }
    let o = run(&["check", "--graph", "--n", "3", "--stabilization", "253"]);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert!(stdout(&o).contains("(closed: certified for every horizon)"));
}

/// `--max-n` past the graph checker's ceiling fails before any search.
#[test]
fn check_graph_rejects_an_oversized_max_n_up_front() {
    let o = run(&["check", "--graph", "--max-n", "7"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(o.stdout.is_empty(), "{}", stdout(&o));
    assert!(String::from_utf8_lossy(&o.stderr).contains("n must be in 2..=6, got 7"));
}

/// `--n` and `--max-n` together name two size sets; neither wins.
#[test]
fn check_graph_rejects_n_together_with_max_n() {
    let o = run(&["check", "--graph", "--n", "5", "--max-n", "3"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(o.stdout.is_empty(), "{}", stdout(&o));
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(
        err.contains("error: check --graph: --n and --max-n conflict"),
        "{err}"
    );
}

/// Two modes on one `check` command line fail before either runs.
#[test]
fn check_rejects_more_than_one_mode() {
    for (args, named) in [
        (&["--graph", "--por"][..], "--graph and --por"),
        (&["--adversary", "--graph"], "--adversary and --graph"),
        (&["--replay", "x.schedule", "--por"], "--replay and --por"),
    ] {
        let o = run(&[&["check"][..], args].concat());
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?}: {}", stdout(&o));
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(
            err.contains("error: check: ") && err.contains(named),
            "{args:?}: {err}"
        );
    }
}

/// The tape enumerator's flags are refused, not ignored: `Args` accepts
/// any flag, so a leftover `--dfs` or `--bound` would otherwise run a
/// search other than the one asked for.
#[test]
fn check_refuses_the_retired_enumerator_flags() {
    for args in [
        &["--dfs"][..],
        &["--graph", "--bound", "12"],
        &["--dfs", "--n", "9"],
        &["--dfs", "--por"],
        &["--replay", "x.schedule", "--bound", "8"],
    ] {
        let o = run(&[&["check"][..], args].concat());
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?}: {}", stdout(&o));
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(
            err.starts_with("error: check: --") && err.contains("check --graph --rounds R"),
            "{args:?}: {err}"
        );
    }
}

/// A grid with no sample is refused: zero seeds on a seeded grid once
/// printed every row `within: yes` over no run, and a `--max-n` below a
/// grid's n axis a header-only table, both with exit 0. Registry entries
/// that are not seeded keep ignoring `--seeds`.
#[test]
fn sweep_refuses_a_grid_with_no_sample() {
    for args in [
        &["--exp", "e1", "--seeds", "0"][..],
        &["--exp", "e2", "--seeds", "0"],
        &["--exp", "e1", "--max-n", "1"],
        &["--exp", "e9", "--max-n", "1"],
        &["--exp", "e10", "--max-n", "1"],
    ] {
        let o = run(&[&["sweep"][..], args].concat());
        assert_eq!(o.status.code(), Some(2), "{args:?}: {}", stdout(&o));
        assert!(o.stdout.is_empty(), "{args:?}: {}", stdout(&o));
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.starts_with("error: sweep --exp e"), "{args:?}: {err}");
    }
    let o = run(&["sweep", "--exp", "e4", "--seeds", "0"]);
    assert_eq!(
        o.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&o.stderr)
    );
    assert!(stdout(&o).lines().count() > 2, "{}", stdout(&o));
}

/// `serve --storm` judges every epoch in-stream; its JSONL is still, byte
/// for byte, what the post-hoc verification loop wrote (the digests
/// `tests/serve_determinism.rs` pins at library level, recorded at PR
/// 16's parent commit; worst-case at PR 23's).
#[test]
fn serve_storm_streams_match_the_recorded_digests() {
    for (storm, digest) in [
        ("default", 0x3c69_6cc4_fd28_1458_6f9f_c64e_d2cb_d998_u128),
        ("worst-case", 0x47cc_bbe4_cd08_6ac8_552c_4731_db43_7aec),
        ("restart", 0xab69_4747_c22b_a9e9_2bb1_a876_56ee_8321),
    ] {
        let o = run(&[
            "serve",
            "--storm",
            storm,
            "--transport",
            "mem",
            "--epochs",
            "4",
            "--seed",
            "1993",
        ]);
        assert!(o.status.success(), "{storm}: every epoch must recover");
        let got = ftss_check::Fingerprinter::new().fingerprint(&o.stdout);
        assert_eq!(got, digest, "--storm {storm}: got {got:#x}");
    }
}
