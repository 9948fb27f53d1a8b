//! The experiment registry: the one definition of E1…E11.
//!
//! `ftss-lab sweep --exp <id>|all|coverage`, its usage string and its
//! error message are all read off [`EXPERIMENTS`]; so is the
//! property-coverage matrix ([`coverage_table`]), together with the soak
//! plans and graph mode's certified range. `sweep --doc FILE`
//! ([`render_doc`]) turns EXPERIMENTS.md into a checked output of these
//! commands instead of a hand-kept copy.

use ftss::analysis::Table;
use ftss::core::{ProcessId, StormKind};
use ftss::telemetry::Event;
use ftss_chaos::{
    restart_cycle, run_soak, SoakBudget, SoakConfig, SoakPlan, SoakScenario, StormGeometry,
    StormScenario,
};
use ftss_sweep::max;

/// Rows of the coverage matrix, in order: what an experiment's table is
/// evidence for.
const PROPERTIES: [&str; 8] = [
    "Def 2.4",
    "Thm 1",
    "Thm 2",
    "Thm 3",
    "Thm 4",
    "Thm 5",
    "§3 consensus",
    "SsByzantine bound",
];

/// Fault classes: what a run adds to its corrupted start. `systemic only`
/// is the paper's systemic failure alone — arbitrary state, no process
/// failure.
const FAULTS: [&str; 6] = [
    "systemic only",
    "omission",
    "crash",
    "byzantine",
    "churn",
    "restart/timing",
];

/// Where a claim is exercised, and the strength of evidence that layer
/// gives: a closed graph fixpoint *proves*, a seeded sweep *samples*, a
/// storm campaign *soaks*.
const LAYERS: [(&str, &str); 4] = [
    ("graph fixpoint", "proved"),
    ("sweep", "sampled"),
    ("soak", "soaked"),
    ("serve", "soaked"),
];

/// One experiment of EXPERIMENTS.md.
pub struct Experiment {
    /// The `--exp` id.
    pub id: &'static str,
    /// The figure, theorem or section of the paper it regenerates.
    pub artifact: &'static str,
    /// The (property, fault class) pairs its table gives evidence for,
    /// named as in [`PROPERTIES`] and [`FAULTS`].
    pub covers: &'static [(&'static str, &'static str)],
    /// Where it runs: a [`LAYERS`] name.
    pub layer: &'static str,
    /// Seeds per row when `--seeds` is absent; 0 = the grid is not seeded.
    pub seeds: u64,
    /// `(seeds, max_n, jobs)` → the table. Grids without an `n` axis
    /// ignore `max_n`; every table is byte-identical for any `jobs`.
    pub table: fn(u64, usize, usize) -> Table,
}

/// Every experiment, in EXPERIMENTS.md order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "e1",
        artifact: "Fig 1 + Thm 3: round agreement stabilizes in 1 round",
        covers: &[("Thm 3", "systemic only"), ("Thm 3", "omission")],
        layer: "sweep",
        seeds: 30,
        table: ftss_sweep::e1_table,
    },
    Experiment {
        id: "e2",
        artifact: "Figs 2-3 + Thm 4: the compiler",
        covers: &[
            ("Thm 4", "systemic only"),
            ("Thm 4", "omission"),
            ("Thm 4", "crash"),
        ],
        layer: "sweep",
        seeds: 25,
        table: |seeds, _, jobs| ftss_sweep::e2_table(seeds, jobs),
    },
    Experiment {
        id: "e3",
        artifact: "Thm 1: no finite stabilization under Tentative Def. 1",
        covers: &[("Thm 1", "systemic only"), ("Thm 1", "omission")],
        layer: "sweep",
        seeds: 0,
        table: |_, _, _| ftss_sweep::e3_table(&ftss_sweep::E3_TIMES).0,
    },
    Experiment {
        id: "e4",
        artifact: "Thm 2: uniform protocols cannot ftss-solve",
        covers: &[("Thm 2", "omission")],
        layer: "sweep",
        seeds: 0,
        table: |_, _, _| ftss_sweep::e4_table(&ftss_sweep::E4_LENGTHS).0,
    },
    Experiment {
        id: "e5",
        artifact: "Fig 4 + Thm 5: the ◇W → ◇S transformation",
        covers: &[("Thm 5", "crash")],
        layer: "sweep",
        seeds: 0,
        table: |_, max_n, jobs| ftss_sweep::e5_table(max_n, jobs),
    },
    Experiment {
        id: "e6",
        artifact: "§3: self-stabilizing asynchronous consensus vs plain CT",
        covers: &[("§3 consensus", "systemic only"), ("§3 consensus", "crash")],
        layer: "sweep",
        seeds: 12,
        table: ftss_sweep::e6_table,
    },
    Experiment {
        id: "e7a",
        artifact: "Fig 3 ablation: suspect filtering and iteration reset",
        covers: &[("Thm 4", "omission")],
        layer: "sweep",
        seeds: 20,
        table: |seeds, _, jobs| ftss_sweep::e7a_table(seeds, jobs),
    },
    Experiment {
        id: "e7c",
        artifact: "§3 ablation: resend-period sensitivity",
        covers: &[("§3 consensus", "systemic only")],
        layer: "sweep",
        seeds: 20,
        table: |seeds, _, jobs| ftss_sweep::e7c_table(seeds, jobs),
    },
    Experiment {
        id: "e8",
        artifact: "§2.4: the round counter must be unbounded",
        covers: &[("Def 2.4", "systemic only")],
        layer: "sweep",
        seeds: 10,
        table: |seeds, _, jobs| ftss_sweep::e8_table(seeds, jobs),
    },
    Experiment {
        id: "e9",
        artifact: "Thm 3 at n in the thousands on a windowed history",
        covers: &[("Thm 3", "systemic only"), ("Thm 3", "omission")],
        layer: "sweep",
        seeds: 3,
        table: ftss_check::e9_table,
    },
    Experiment {
        id: "e10",
        artifact: "the fault-class boundary: omission, churn, forgery at n > 4f",
        covers: &[
            ("Thm 3", "omission"),
            ("Thm 3", "churn"),
            ("SsByzantine bound", "byzantine"),
        ],
        layer: "sweep",
        seeds: ftss_check::E10_SEEDS,
        table: ftss_check::e10_table,
    },
    Experiment {
        id: "e11",
        artifact: "Thm 3 on the socket runtime: crash-restart and timing faults",
        covers: &[("Thm 3", "restart/timing")],
        layer: "serve",
        seeds: 3,
        table: |seeds, _, jobs| e11_table(seeds, jobs),
    },
];

/// `e1|e2|…|all|coverage`: the values `--exp` accepts.
pub fn exp_values() -> String {
    let ids = EXPERIMENTS.iter().map(|e| e.id);
    ids.chain(["all", "coverage"]).collect::<Vec<_>>().join("|")
}

/// E11 — the `restart` soak plan (served round agreement on the `mem`
/// transport: real router, real node threads) for 4 epochs per seed,
/// folded per epoch over every cell of every seed. `window opens` is
/// where the Theorem-3 window is measured from: the last perturbation
/// that can touch the epoch ([`StormScenario::window_from`]).
fn e11_table(seeds: u64, jobs: usize) -> Table {
    const EPOCHS: usize = 4;
    // (measured stabilization, bound, recovered) per epoch, read back off
    // the soak reports' `recovery_measured` lines.
    let mut per_epoch = vec![Vec::new(); EPOCHS];
    for seed in 0..seeds {
        let cfg = SoakConfig {
            plan: SoakPlan::restart(EPOCHS, seed),
            jobs,
            budget: SoakBudget::default(),
        };
        let report = run_soak(&cfg).expect("at least one epoch").report();
        for line in report.lines() {
            if let Ok(Event::RecoveryMeasured {
                epoch,
                rounds,
                bound,
                ok,
                ..
            }) = Event::parse_line(line)
            {
                per_epoch[epoch as usize].push((rounds as usize, bound, ok));
            }
        }
    }
    // Geometry and window origins do not depend on the seed.
    let geom = StormGeometry::engine_default();
    let scenario = StormScenario::new(0, EPOCHS, 3, restart_cycle(), &[ProcessId(0)], geom, 2);
    let mut t = Table::new(vec![
        "epoch",
        "storm",
        "storm closes",
        "window opens",
        "bound",
        "max stab",
        "within",
    ]);
    for (e, runs) in per_epoch.iter().enumerate() {
        let recovered: Vec<usize> = runs.iter().filter(|r| r.2).map(|r| r.0).collect();
        let failed = runs.len() - recovered.len();
        t.row(vec![
            e.to_string(),
            scenario.cycle[e % 4].name().into(),
            geom.storm_end(e).to_string(),
            scenario.window_from(e).to_string(),
            runs.first().map_or("-".into(), |r| r.1.to_string()),
            max(&recovered),
            if failed == 0 {
                "yes".into()
            } else {
                format!("NO ({failed}/{} violated)", runs.len())
            },
        ]);
    }
    t
}

/// The property-coverage matrix: which theorem × fault class × layer
/// cells are proved, sampled, soaked or uncovered, with the experiment,
/// soak plan or checker range each rests on. Generated from
/// [`EXPERIMENTS`], [`SoakPlan::NAMES`] and the model checker's limits,
/// so an uncovered cell is a fact of the tree, not of a reviewer's
/// memory. The fault classes with no evidence at all for a property
/// share its last row.
pub fn coverage_table() -> Table {
    let mut facts: Vec<(&str, &str, &str, String)> = Vec::new();
    let mut fact = |property, fault, layer, source: String| {
        let known = PROPERTIES.contains(&property)
            && FAULTS.contains(&fault)
            && LAYERS.iter().any(|l| l.0 == layer);
        assert!(known, "unknown cell {property} / {fault} / {layer}");
        let fact = (property, fault, layer, source);
        if !facts.contains(&fact) {
            facts.push(fact);
        }
    };
    for e in EXPERIMENTS {
        for &(property, fault) in e.covers {
            fact(property, fault, e.layer, e.id.into());
        }
    }
    for name in SoakPlan::NAMES {
        let plan = SoakPlan::by_name(name, 1, 0).expect("a listed name");
        for cell in plan.cells() {
            let (property, layer) = match cell.scenario {
                SoakScenario::RoundAgreement => ("Thm 3", "soak"),
                SoakScenario::Compiled => ("Thm 4", "soak"),
                SoakScenario::Detector => ("Thm 5", "soak"),
                SoakScenario::Restart => ("Thm 3", "serve"),
            };
            // The detector cell is time-driven: corruption bursts around
            // one real crash, not the round-driven storm cycle.
            let faults = match cell.scenario {
                SoakScenario::Detector => vec!["systemic only", "crash"],
                _ => cell.cycle().map(storm_fault).to_vec(),
            };
            for fault in faults {
                fact(property, fault, layer, name.to_string());
            }
        }
    }
    // The graph checker searches round agreement from a corrupted start
    // under every omission pattern of one faulty process (the empty one
    // included).
    for fault in ["systemic only", "omission"] {
        let n = ftss_check::MAX_GRAPH_N;
        fact(
            "Thm 3",
            fault,
            "graph fixpoint",
            format!("n ≤ {n}, every horizon"),
        );
    }

    let mut headers = vec!["property", "fault class"];
    headers.extend(LAYERS.map(|l| l.0));
    let mut t = Table::new(headers);
    for property in PROPERTIES {
        let mut bare = 0;
        for fault in FAULTS {
            let cells = LAYERS.map(|(layer, evidence)| {
                let sources: Vec<&str> = facts
                    .iter()
                    .filter(|f| (f.0, f.1, f.2) == (property, fault, layer))
                    .map(|f| f.3.as_str())
                    .collect();
                if sources.is_empty() {
                    "uncovered".to_string()
                } else {
                    format!("{evidence} ({})", sources.join(", "))
                }
            });
            if cells.iter().all(|c| c == "uncovered") {
                bare += 1;
            } else {
                let mut row = vec![property.to_string(), fault.to_string()];
                row.extend(cells);
                t.row(row);
            }
        }
        if bare > 0 {
            let mut row = vec![property.to_string(), "every other class".into()];
            row.extend(LAYERS.map(|_| "uncovered".to_string()));
            t.row(row);
        }
    }
    t
}

/// The fault class a storm kind belongs to.
fn storm_fault(kind: StormKind) -> &'static str {
    match kind {
        StormKind::CorruptionBurst => "systemic only",
        StormKind::OmissionStorm { .. } | StormKind::SilenceChurn | StormKind::Partition => {
            "omission"
        }
        StormKind::Join | StormKind::Leave => "churn",
        StormKind::DelayInflation
        | StormKind::Delay { .. }
        | StormKind::Reorder
        | StormKind::Duplicate => "restart/timing",
    }
}

const MARKER_OPEN: &str = "<!-- ftss-lab ";
const MARKER_CLOSE: &str = " -->";

/// Renders `doc` with every marked block refreshed: a line
/// `<!-- ftss-lab ARGS -->` must be followed by a ``` fence, and the
/// fenced lines are replaced by `run(ARGS)` — that command's stdout.
/// Everything else is copied through, so on an up-to-date file the
/// rendering is the file (`sweep --doc F | cmp - F` is the check, a
/// redirect into a new file is the refresh).
///
/// # Errors
///
/// A marker without a fenced block after it, an unclosed block, a marker
/// that itself asks for `--doc`, or a failing command.
pub fn render_doc(
    doc: &str,
    run: impl Fn(&[&str]) -> Result<String, String>,
) -> Result<String, String> {
    let mut out = String::with_capacity(doc.len());
    let mut lines = doc.split_inclusive('\n').enumerate();
    while let Some((i, line)) = lines.next() {
        out.push_str(line);
        let Some(command) = line
            .trim_end()
            .strip_prefix(MARKER_OPEN)
            .and_then(|rest| rest.strip_suffix(MARKER_CLOSE))
        else {
            continue;
        };
        let at = format!("line {}: `ftss-lab {command}`", i + 1);
        let args: Vec<&str> = command.split_whitespace().collect();
        if args.contains(&"--doc") {
            return Err(format!("{at}: a marked block cannot nest --doc"));
        }
        match lines.next() {
            Some((_, fence)) if fence.trim_end() == "```" => out.push_str(fence),
            _ => return Err(format!("{at}: no ``` block follows the marker")),
        }
        let fresh = run(&args).map_err(|e| format!("{at}: {e}"))?;
        out.push_str(&fresh);
        if !fresh.is_empty() && !fresh.ends_with('\n') {
            out.push('\n');
        }
        let close = lines.find(|(_, l)| l.trim_end() == "```");
        out.push_str(close.ok_or(format!("{at}: the block is never closed"))?.1);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_e1_to_e11_once_each_with_metadata() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|other| other.id != e.id));
            assert!(!e.artifact.is_empty() && !e.covers.is_empty(), "{}", e.id);
            assert!(LAYERS.iter().any(|l| l.0 == e.layer), "{}", e.id);
            for (property, fault) in e.covers {
                assert!(PROPERTIES.contains(property) && FAULTS.contains(fault));
            }
        }
        for k in 1..=11 {
            let id = format!("e{k}");
            let listed = |e: &Experiment| e.id.trim_end_matches(['a', 'c']) == id;
            assert!(EXPERIMENTS.iter().any(listed), "E{k} missing");
        }
        assert!(exp_values().ends_with("|e11|all|coverage"));
    }

    #[test]
    fn render_doc_replaces_marked_blocks_and_rejects_malformed_markers() {
        let doc =
            "a\n<!-- ftss-lab sweep --exp e4 -->\n```\nstale\nrows\n```\n```\nunmarked\n```\nz";
        let run = |args: &[&str]| Ok(format!("fresh {}\n", args.join(" ")));
        let got = render_doc(doc, run).unwrap();
        assert_eq!(got, doc.replace("stale\nrows", "fresh sweep --exp e4"));
        // The rendering of an up-to-date file is the file.
        assert_eq!(render_doc(&got, run).unwrap(), got);

        for (bad, why) in [
            ("<!-- ftss-lab sweep --exp e1 -->\ntext\n", "no ``` block"),
            (
                "<!-- ftss-lab sweep --exp e1 -->\n```\nrows\n",
                "never closed",
            ),
            (
                "<!-- ftss-lab sweep --doc X.md -->\n```\n```\n",
                "nest --doc",
            ),
        ] {
            let err = render_doc(bad, run).unwrap_err();
            assert!(err.contains(why) && err.starts_with("line 1"), "{err}");
        }
        let failing = |_: &[&str]| Err("exit status: 2".to_string());
        let err = render_doc("<!-- ftss-lab check -->\n```\n```\n", failing).unwrap_err();
        assert!(err.contains("exit status: 2"), "{err}");
    }
}
