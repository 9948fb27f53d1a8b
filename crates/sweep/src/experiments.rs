//! Table drivers for the experiments E1–E8 (E9/E10 live in `ftss-check`,
//! E11 next to the registry in `ftss-lab`, which lists them all).
//!
//! Each seeded experiment is expressed as a flat list of *(row, seed)*
//! cells mapped through [`map_cells`](crate::map_cells), then folded back
//! into its EXPERIMENTS.md table — byte-identical for any worker count.
//! The row/fault specifications are plain data ([`FaultSpec`], `PiSpec`)
//! so cells can be shipped to worker threads and each worker rebuilds its
//! adversary from the spec and the cell's seed.

use ftss::analysis::{measured_stabilization_time, theorem1_demo, theorem2_demo, Archetype, Table};
use ftss::async_sim::{AsyncConfig, AsyncProcess, AsyncRunner, Time};
use ftss::compiler::{Compiled, CompilerOptions};
use ftss::consensus_async::{CtConsensusProcess, SsConsensusProcess};
use ftss::core::{
    ftss_check, Corrupt, CrashSchedule, ProcessId, ProcessSet, RateAgreementSpec, Round, Violation,
};
use ftss::detectors::{
    eventual_weak_accuracy, poison_tables, strong_completeness_time, BaselineDetectorProcess,
    StrongDetectorProcess, SuspectProbe, Suspector, WeakOracle,
};
use ftss::protocols::{
    BoundedRoundAgreement, CanonicalProtocol, FloodSet, PhaseKing, RepeatedConsensusSpec,
    RoundAgreement,
};
use ftss::sync_sim::{
    Adversary, CrashOnly, NoFaults, RandomOmission, RunConfig, SilentProcess, SyncProtocol,
    SyncRunner,
};
use ftss_rng::StdRng;

/// Mean of a slice of counts, rendered with one decimal.
pub fn mean(xs: &[usize]) -> String {
    if xs.is_empty() {
        return "-".into();
    }
    format!("{:.1}", xs.iter().sum::<usize>() as f64 / xs.len() as f64)
}

/// Maximum of a slice of counts, rendered.
pub fn max(xs: &[usize]) -> String {
    xs.iter().max().map(|m| m.to_string()).unwrap_or("-".into())
}

/// A process-failure pattern, as data: workers rebuild the concrete
/// [`Adversary`] from the spec plus the cell's seed.
#[derive(Clone, Debug)]
pub enum FaultSpec {
    /// All processes behave.
    None,
    /// The listed processes drop copies independently with probability
    /// `p_drop` (seeded per cell).
    RandomOmission {
        /// The declared faulty set.
        faulty: Vec<ProcessId>,
        /// Per-copy drop probability.
        p_drop: f64,
    },
    /// One process send-omits everything for its first `rounds` rounds.
    Silent {
        /// The silent process.
        p: ProcessId,
        /// How many rounds it stays silent.
        rounds: u64,
    },
    /// One process crashes at the given round.
    CrashAt {
        /// The crashing process.
        p: ProcessId,
        /// The observer round it crashes in.
        round: u64,
    },
}

impl FaultSpec {
    /// Instantiates the adversary for one seeded cell.
    pub fn adversary(&self, seed: u64) -> Box<dyn Adversary> {
        match self {
            FaultSpec::None => Box::new(NoFaults),
            FaultSpec::RandomOmission { faulty, p_drop } => {
                Box::new(RandomOmission::new(faulty.iter().copied(), *p_drop, seed))
            }
            FaultSpec::Silent { p, rounds } => Box::new(SilentProcess::new(*p, *rounds)),
            FaultSpec::CrashAt { p, round } => {
                let mut cs = CrashSchedule::none();
                cs.set(*p, Round::new(*round));
                Box::new(CrashOnly::new(cs))
            }
        }
    }
}

/// An underlying protocol Π for the compiler experiments, as data.
#[derive(Clone, Debug)]
enum PiSpec {
    /// FloodSet consensus tolerating `f` crashes.
    FloodSet {
        /// The fault bound (iterations run `f + 1` rounds).
        f: usize,
        /// One input per process.
        inputs: Vec<u64>,
    },
    /// Phase-king consensus tolerating `f` Byzantine-recoverable faults.
    PhaseKing {
        /// The fault bound.
        f: usize,
        /// One input per process.
        inputs: Vec<bool>,
    },
}

impl PiSpec {
    /// Number of processes (one input each).
    pub fn n(&self) -> usize {
        match self {
            PiSpec::FloodSet { inputs, .. } => inputs.len(),
            PiSpec::PhaseKing { inputs, .. } => inputs.len(),
        }
    }

    /// Π's `final_round` (iteration length).
    pub fn final_round(&self) -> usize {
        match self {
            PiSpec::FloodSet { f, inputs } => {
                FloodSet::new(*f, inputs.clone()).final_round() as usize
            }
            PiSpec::PhaseKing { f, inputs } => {
                PhaseKing::new(*f, inputs.clone()).final_round() as usize
            }
        }
    }

    /// Π's report name.
    pub fn name(&self) -> String {
        match self {
            PiSpec::FloodSet { f, inputs } => FloodSet::new(*f, inputs.clone()).name().into(),
            PiSpec::PhaseKing { f, inputs } => PhaseKing::new(*f, inputs.clone()).name().into(),
        }
    }

    /// Runs the compiled Π⁺ for one seeded cell and measures Σ⁺
    /// stabilization on the final stable window. `None` = never stabilized.
    fn run_compiled(
        &self,
        options: CompilerOptions,
        rounds: usize,
        corruption_seed: u64,
        adversary: &mut dyn Adversary,
    ) -> Option<usize> {
        fn go<P>(
            pi: P,
            options: CompilerOptions,
            n: usize,
            rounds: usize,
            corruption_seed: u64,
            adversary: &mut dyn Adversary,
        ) -> Option<usize>
        where
            P: CanonicalProtocol,
            P::Output: Corrupt,
        {
            let out = SyncRunner::new(Compiled::with_options(pi, options))
                .run(adversary, &RunConfig::corrupted(n, rounds, corruption_seed))
                .expect("valid config");
            measured_stabilization_time(&out.history, &RepeatedConsensusSpec::agreement_only())
                .expect("non-empty")
                .stabilization_rounds
        }
        let n = self.n();
        match self {
            PiSpec::FloodSet { f, inputs } => go(
                FloodSet::new(*f, inputs.clone()),
                options,
                n,
                rounds,
                corruption_seed,
                adversary,
            ),
            PiSpec::PhaseKing { f, inputs } => go(
                PhaseKing::new(*f, inputs.clone()),
                options,
                n,
                rounds,
                corruption_seed,
                adversary,
            ),
        }
    }
}

/// Flattens `rows × seeds` into cells and chunks the mapped results back
/// per row, preserving canonical (row-major) order. Shared by every table
/// driver here and by downstream crates building their own grids (the
/// large-n E9 sweep lives in `ftss-check`).
pub fn sweep_rows<Row: Sync, R: Send>(
    rows: &[Row],
    seeds: u64,
    jobs: usize,
    run: impl Fn(&Row, u64) -> R + Sync,
) -> Vec<Vec<R>> {
    let cells: Vec<(usize, u64)> = (0..rows.len())
        .flat_map(|i| (0..seeds).map(move |s| (i, s)))
        .collect();
    // Per-cell panic isolation: every cell completes even if some panic,
    // and the abort message names each failing cell as a (row, seed) pair.
    let results = crate::exec::try_map_cells(&cells, jobs, |&(i, seed)| run(&rows[i], seed));
    let mut failures = Vec::new();
    let mut flat = Vec::with_capacity(results.len());
    for (res, &(row, seed)) in results.into_iter().zip(&cells) {
        match res {
            Ok(r) => flat.push(r),
            Err(p) => failures.push(format!("(row {row}, seed {seed}): {}", p.message)),
        }
    }
    if !failures.is_empty() {
        panic!(
            "sweep: {} cells panicked (remaining cells completed): {}",
            failures.len(),
            failures.join("; ")
        );
    }
    let mut out: Vec<Vec<R>> = Vec::with_capacity(rows.len());
    for _ in 0..rows.len() {
        let rest = flat.split_off(seeds as usize);
        out.push(flat);
        flat = rest;
    }
    out
}

const E1_ROUNDS: usize = 24;

/// One row of the E1 table.
#[derive(Clone, Debug)]
struct E1Row {
    /// System size.
    pub n: usize,
    /// The fault pattern.
    pub fault: FaultSpec,
    /// The row's fault label.
    pub label: String,
}

/// The E1 row grid, restricted to `n <= max_n` (pass `usize::MAX` for the
/// full EXPERIMENTS.md grid).
fn e1_rows(max_n: usize) -> Vec<E1Row> {
    let mut rows = Vec::new();
    for n in [2usize, 4, 8, 16, 32, 64] {
        if n > max_n {
            continue;
        }
        rows.push(E1Row {
            n,
            fault: FaultSpec::None,
            label: "none".into(),
        });
    }
    for n in [4usize, 8, 16, 32] {
        if n > max_n {
            continue;
        }
        rows.push(E1Row {
            n,
            fault: FaultSpec::RandomOmission {
                faulty: vec![ProcessId(0)],
                p_drop: 0.5,
            },
            label: "1 omitter p=0.5".into(),
        });
        let f = (n - 1) / 3;
        rows.push(E1Row {
            n,
            fault: FaultSpec::RandomOmission {
                faulty: (0..f).map(ProcessId).collect(),
                p_drop: 0.3,
            },
            label: "f=(n-1)/3 omitters p=0.3".into(),
        });
    }
    for n in [3usize, 8] {
        if n > max_n {
            continue;
        }
        rows.push(E1Row {
            n,
            fault: FaultSpec::Silent {
                p: ProcessId(0),
                rounds: 6,
            },
            label: "silent 6 rounds".into(),
        });
    }
    rows
}

fn run_e1_cell(row: &E1Row, seed: u64) -> usize {
    let mut adv = row.fault.adversary(seed);
    let out = SyncRunner::new(RoundAgreement)
        .run(
            adv.as_mut(),
            &RunConfig::corrupted(row.n, E1_ROUNDS, seed.wrapping_mul(0x9e37) ^ row.n as u64),
        )
        .expect("valid config");
    measured_stabilization_time(&out.history, &RateAgreementSpec::new())
        .expect("non-empty run")
        .stabilization_rounds
        .expect("must stabilize")
}

/// E1 — round-agreement stabilization (Figure 1 / Theorem 3), swept over
/// `jobs` workers. Byte-identical for any `jobs`.
pub fn e1_table(seeds: u64, max_n: usize, jobs: usize) -> Table {
    let rows = e1_rows(max_n);
    let per_row = sweep_rows(&rows, seeds, jobs, run_e1_cell);
    let mut t = Table::new(vec![
        "n",
        "faults",
        "mean stab",
        "max stab",
        "claimed",
        "within",
    ]);
    for (row, measured) in rows.iter().zip(&per_row) {
        t.row(vec![
            row.n.to_string(),
            row.label.clone(),
            mean(measured),
            max(measured),
            "1".into(),
            if measured.iter().all(|&s| s <= 1) {
                "yes"
            } else {
                "NO"
            }
            .into(),
        ]);
    }
    t
}

/// One row of the E2 table.
#[derive(Clone, Debug)]
struct E2Row {
    /// The underlying protocol Π.
    pub pi: PiSpec,
    /// The fault pattern.
    pub fault: FaultSpec,
    /// The row's fault label.
    pub label: String,
}

/// The E2 row grid (fixed — sized by the paper's `n > 2f` examples).
fn e2_rows() -> Vec<E2Row> {
    let mut rows = Vec::new();
    for (f, n) in [(1usize, 4usize), (2, 7), (3, 10)] {
        let inputs: Vec<u64> = (0..n as u64).map(|i| (i * 13) % 29).collect();
        let pi = PiSpec::FloodSet {
            f,
            inputs: inputs.clone(),
        };
        rows.push(E2Row {
            pi: pi.clone(),
            fault: FaultSpec::None,
            label: "none".into(),
        });
        rows.push(E2Row {
            pi: pi.clone(),
            fault: FaultSpec::RandomOmission {
                faulty: vec![ProcessId(0)],
                p_drop: 0.4,
            },
            label: "1 omitter p=0.4".into(),
        });
        rows.push(E2Row {
            pi,
            fault: FaultSpec::CrashAt {
                p: ProcessId(1),
                round: 3,
            },
            label: "crash @r3".into(),
        });
    }
    for (f, n) in [(1usize, 5usize), (2, 9)] {
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let pi = PiSpec::PhaseKing {
            f,
            inputs: inputs.clone(),
        };
        rows.push(E2Row {
            pi: pi.clone(),
            fault: FaultSpec::None,
            label: "none".into(),
        });
        rows.push(E2Row {
            pi,
            fault: FaultSpec::RandomOmission {
                faulty: vec![ProcessId(n - 1)],
                p_drop: 0.4,
            },
            label: "1 omitter p=0.4".into(),
        });
    }
    rows
}

fn run_e2_cell(row: &E2Row, seed: u64) -> Option<usize> {
    let fr = row.pi.final_round();
    let mut adv = row.fault.adversary(seed);
    row.pi.run_compiled(
        CompilerOptions::default(),
        10 * fr + 10,
        seed ^ 0xe2,
        adv.as_mut(),
    )
}

/// E2 — compiled-protocol stabilization (Figure 3 / Theorem 4), swept over
/// `jobs` workers.
pub fn e2_table(seeds: u64, jobs: usize) -> Table {
    let rows = e2_rows();
    let per_row = sweep_rows(&rows, seeds, jobs, run_e2_cell);
    let mut t = Table::new(vec![
        "Π",
        "n",
        "final_round",
        "faults",
        "mean stab",
        "max stab",
        "bound",
        "within",
    ]);
    for (row, results) in rows.iter().zip(&per_row) {
        let fr = row.pi.final_round();
        let bound = 2 * fr + 1;
        let measured: Vec<usize> = results.iter().flatten().copied().collect();
        let failures = results.len() - measured.len();
        t.row(vec![
            row.pi.name(),
            row.pi.n().to_string(),
            fr.to_string(),
            row.label.clone(),
            mean(&measured),
            max(&measured),
            bound.to_string(),
            if failures == 0 && measured.iter().all(|&s| s <= bound) {
                "yes".into()
            } else {
                format!("NO ({failures} unstabilized)")
            },
        ]);
    }
    t
}

/// One row of the E7a (compiler-mechanism ablation) table.
#[derive(Clone, Debug)]
struct E7aRow {
    /// The underlying protocol Π.
    pub pi: PiSpec,
    /// The row's Π label.
    pub pi_name: String,
    /// The ablated compiler options.
    pub options: CompilerOptions,
    /// The variant label.
    pub label: String,
}

/// The E7a row grid: four compiler variants × {FloodSet, phase-king}.
fn e7a_rows() -> Vec<E7aRow> {
    let variants: [(CompilerOptions, &str); 4] = [
        (CompilerOptions::default(), "full Figure 3"),
        (
            CompilerOptions {
                filter_suspects: false,
                ..CompilerOptions::default()
            },
            "no suspect filtering",
        ),
        (
            CompilerOptions {
                reset_each_iteration: false,
                ..CompilerOptions::default()
            },
            "no iteration reset",
        ),
        (
            CompilerOptions {
                filter_suspects: false,
                reset_each_iteration: false,
            },
            "neither",
        ),
    ];
    let mut rows = Vec::new();
    for (options, label) in variants {
        rows.push(E7aRow {
            pi: PiSpec::FloodSet {
                f: 1,
                inputs: vec![9, 3, 7, 5],
            },
            pi_name: "floodset".into(),
            options,
            label: label.into(),
        });
    }
    for (options, label) in variants {
        rows.push(E7aRow {
            pi: PiSpec::PhaseKing {
                f: 1,
                inputs: vec![true, false, true, false, true],
            },
            pi_name: "phase-king".into(),
            options,
            label: label.into(),
        });
    }
    rows
}

fn run_e7a_cell(row: &E7aRow, seed: u64) -> Option<usize> {
    let n = row.pi.n();
    let fr = row.pi.final_round();
    // A lightly-faulty run: one random omitter keeps stale/asymmetric
    // messages flowing, which is what suspect filtering defends Π from.
    let mut adv = RandomOmission::new([ProcessId(n - 1)], 0.4, seed);
    row.pi
        .run_compiled(row.options, 12 * fr, seed ^ 0xe7, &mut adv)
}

/// E7a — compiler mechanism ablation, swept over `jobs` workers.
pub fn e7a_table(seeds: u64, jobs: usize) -> Table {
    let rows = e7a_rows();
    let per_row = sweep_rows(&rows, seeds, jobs, run_e7a_cell);
    let mut t = Table::new(vec![
        "Π",
        "variant",
        "stabilized",
        "mean stab",
        "max stab",
        "bound",
    ]);
    for (row, results) in rows.iter().zip(&per_row) {
        let bound = 2 * row.pi.final_round() + 1;
        let measured: Vec<usize> = results.iter().flatten().copied().collect();
        let unstabilized = results.len() - measured.len();
        t.row(vec![
            row.pi_name.clone(),
            row.label.clone(),
            format!("{}/{seeds}", seeds as usize - unstabilized),
            mean(&measured),
            max(&measured),
            bound.to_string(),
        ]);
    }
    t
}

const E7C_PERIODS: [Time; 6] = [20, 40, 80, 160, 320, 640];

/// The turbulent-then-stable asynchronous environment E6 and E7c share:
/// a ◇W oracle that stops lying at t=300 and message delays ≤ 50 until
/// then, with `crashes` scheduled; plus the processes that never crash.
fn turbulent(
    n: usize,
    crashes: &[(ProcessId, Time)],
    seed: u64,
) -> (WeakOracle, AsyncConfig, Vec<usize>) {
    let mut cfg = AsyncConfig::turbulent(seed, 50, 300);
    for &(p, t) in crashes {
        cfg = cfg.with_crash(p, t);
    }
    let correct = (0..n)
        .filter(|&i| !crashes.iter().any(|&(p, _)| p.index() == i))
        .collect();
    (
        WeakOracle::new(n, crashes.to_vec(), 300, seed, 0.2),
        cfg,
        correct,
    )
}

/// One run of the §3 self-stabilizing consensus, from states corrupted
/// by `corrupt_seed` (clean if `None`): the first probe time at which
/// every correct process holds a decision *fresher than the corrupted
/// epoch*, and whether some fresh instance was decided two ways.
fn run_ss_consensus(
    inputs: &[u64],
    crashes: &[(ProcessId, Time)],
    seed: u64,
    corrupt_seed: Option<u64>,
    resend_period: Time,
    horizon: Time,
) -> (Option<Time>, bool) {
    let n = inputs.len();
    let (oracle, cfg, correct) = turbulent(n, crashes, seed);
    let mut procs: Vec<SsConsensusProcess> = (0..n)
        .map(|i| {
            SsConsensusProcess::new(
                ProcessId(i),
                inputs.to_vec(),
                oracle.clone(),
                25,
                resend_period,
            )
        })
        .collect();
    let mut corrupted_max = 0;
    if let Some(corrupt_seed) = corrupt_seed {
        let mut rng = StdRng::seed_from_u64(corrupt_seed);
        procs.iter_mut().for_each(|p| p.corrupt(&mut rng));
        corrupted_max = procs.iter().map(|p| p.inst).max().unwrap();
    }
    let mut runner = AsyncRunner::new(procs, cfg).expect("valid config");
    let mut first_fresh: Option<Time> = None;
    let mut per_instance: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> =
        Default::default();
    runner.run_probed(horizon, 250, |t, ps| {
        let mut all_fresh = true;
        for &i in &correct {
            match ps[i].last_decision() {
                Some((inst, v)) if inst > corrupted_max => {
                    per_instance.entry(inst).or_default().insert(v);
                }
                _ => all_fresh = false,
            }
        }
        if all_fresh && first_fresh.is_none() {
            first_fresh = Some(t);
        }
    });
    let disagreed = per_instance.values().any(|vals| vals.len() > 1);
    (first_fresh, disagreed)
}

fn run_e7c_cell(period: &Time, seed: u64) -> Option<usize> {
    let corrupt_seed = Some(seed ^ 0x7e);
    let run = run_ss_consensus(&[10, 20, 30], &[], seed, corrupt_seed, *period, 150_000);
    run.0.map(|t| t as usize)
}

/// E7c — resend-period sensitivity of the asynchronous consensus, swept
/// over `jobs` workers.
pub fn e7c_table(seeds: u64, jobs: usize) -> Table {
    let per_row = sweep_rows(&E7C_PERIODS, seeds, jobs, run_e7c_cell);
    let mut t = Table::new(vec!["resend period", "recovered", "mean t", "max t"]);
    for (period, results) in E7C_PERIODS.iter().zip(&per_row) {
        let times: Vec<usize> = results.iter().flatten().copied().collect();
        let stuck = results.len() - times.len();
        t.row(vec![
            period.to_string(),
            format!("{}/{seeds}", seeds as usize - stuck),
            mean(&times),
            max(&times),
        ]);
    }
    t
}

fn refuted(yes: bool) -> String {
    if yes { "yes" } else { "NO (!)" }.into()
}

/// The candidate stabilization times E3 tabulates.
pub const E3_TIMES: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// E3 — Theorem 1: under the rejected Tentative Definition 1, for every
/// candidate stabilization time `r`, each protocol archetype is refuted by
/// one of the two proof histories: A (a partition of length `r` attributed
/// to `p0`, then failure-free — the `r`-suffix must satisfy Assumption 1
/// with faulty = {p0}) or B (failure-free with divergent corrupted
/// counters — faulty = ∅). Returns the table and whether every row was
/// refuted; `ftss-lab theorem1 --r R` is the rows of one `r`.
pub fn e3_table(times: &[usize]) -> (Table, bool) {
    let mut t = Table::new(vec![
        "archetype",
        "r",
        "history A (partition, F={p0})",
        "history B (failure-free, F=∅)",
        "refuted",
    ]);
    let verdict = |v: &Option<Violation>| match v {
        Some(v) => format!("violates {}", v.rule),
        None => "satisfied".into(),
    };
    let mut all = true;
    for &r in times {
        for a in Archetype::all() {
            let out = theorem1_demo(a, r, 8);
            all &= out.refuted();
            t.row(vec![
                a.name().into(),
                r.to_string(),
                verdict(&out.history_a),
                verdict(&out.history_b),
                refuted(out.refuted()),
            ]);
        }
    }
    (t, all)
}

/// The run lengths E4 tabulates.
pub const E4_LENGTHS: [usize; 5] = [2, 4, 8, 16, 64];

/// E4 — Theorem 2: a uniform protocol (Assumption 2) in the permanently
/// partitioned history either leaves the faulty process unhalted and
/// disagreeing (uniformity violated) or halts a correct process
/// (Assumption 1's rate violated). Returns the table and whether every
/// row was refuted; `ftss-lab theorem2 --rounds R` is the rows of one
/// length.
pub fn e4_table(lengths: &[usize]) -> (Table, bool) {
    let mut t = Table::new(vec![
        "uniform archetype",
        "rounds",
        "faulty halted",
        "correct halted",
        "c_p0 = c_p1",
        "uniformity (A2)",
        "rate (A1)",
        "refuted",
    ]);
    let holds = |yes: bool| if yes { "holds" } else { "violated" }.to_string();
    let mut all = true;
    for &rounds in lengths {
        for a in [Archetype::HaltOnDisagreement, Archetype::EagerHalt] {
            let out = theorem2_demo(a, rounds);
            all &= out.refuted();
            t.row(vec![
                a.name().into(),
                rounds.to_string(),
                out.faulty_halted.to_string(),
                out.correct_halted.to_string(),
                (out.counters.0 == out.counters.1).to_string(),
                holds(out.uniformity_holds()),
                holds(out.assumption1_holds()),
                refuted(out.refuted()),
            ]);
        }
    }
    (t, all)
}

const E5_HORIZON: Time = 60_000;
const E5_POLL: Time = 20;

/// An E5 initial state: clean, seeded random corruption, or the
/// adversarial "everyone believes everyone dead at version 10⁹, nothing
/// marked dirty" state.
#[derive(Clone, Copy)]
enum E5Init {
    Clean,
    RandomCorrupt(u64),
    Poison,
}

/// Runs one detector from `init` under a quiet ◇W with `p(n−1)` crashing
/// at t=500; returns the virtual-time settle points of strong
/// completeness and eventual weak accuracy (`None` = not within the
/// horizon).
fn run_e5_detector<P>(
    n: usize,
    init: E5Init,
    build: impl Fn(ProcessId, WeakOracle) -> P,
    poison: impl Fn(&mut P, usize),
) -> [Option<Time>; 2]
where
    P: AsyncProcess + Suspector + Corrupt,
{
    let crash = (ProcessId(n - 1), 500);
    let oracle = WeakOracle::new(n, vec![crash], 0, 5, 0.0);
    let crashed = ProcessSet::from_iter_n(n, [crash.0]);
    let correct = crashed.complement();
    let mut procs: Vec<P> = (0..n)
        .map(|i| build(ProcessId(i), oracle.clone()))
        .collect();
    match init {
        E5Init::Clean => {}
        E5Init::RandomCorrupt(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            procs.iter_mut().for_each(|p| p.corrupt(&mut rng));
        }
        E5Init::Poison => procs.iter_mut().enumerate().for_each(|(i, p)| poison(p, i)),
    }
    let cfg = AsyncConfig::tame(5).with_crash(crash.0, crash.1);
    let mut runner = AsyncRunner::new(procs, cfg).expect("valid config");
    let mut probes = Vec::new();
    runner.run_probed(E5_HORIZON, 200, |t, ps| {
        probes.push(SuspectProbe::sample(t, ps))
    });
    [
        strong_completeness_time(&probes, &crashed, &correct),
        eventual_weak_accuracy(&probes, &correct).map(|(_, t)| t),
    ]
}

/// E5 — Figure 4 / Theorem 5: the ◇W → ◇S transformation settles both ◇S
/// properties from every initial state; a change-only-gossip baseline
/// (which implicitly assumes initialized state) does not. Sizes
/// `n ∈ {3, 4, 8, 16}`, restricted to `n <= max_n`.
pub fn e5_table(max_n: usize, jobs: usize) -> Table {
    let mut cells = Vec::new();
    for n in [3usize, 4, 8, 16].into_iter().filter(|&n| n <= max_n) {
        let corrupt = E5Init::RandomCorrupt(n as u64);
        cells.extend([E5Init::Clean, corrupt, E5Init::Poison].map(|init| (n, init)));
    }
    let settled = crate::map_cells(&cells, jobs, |&(n, init)| {
        [
            run_e5_detector(
                n,
                init,
                |p, o| StrongDetectorProcess::new(p, o, E5_POLL),
                |p, i| poison_tables(&mut p.num, &mut p.state, i),
            ),
            run_e5_detector(
                n,
                init,
                |p, o| BaselineDetectorProcess::new(p, o, E5_POLL),
                |p, i| {
                    poison_tables(&mut p.num, &mut p.state, i);
                    p.dirty.fill(false);
                },
            ),
        ]
    });
    let mut t = Table::new(vec![
        "detector",
        "n",
        "initial state",
        "strong completeness",
        "eventual weak accuracy",
    ]);
    let settle = |x: Option<Time>| x.map_or_else(|| "NEVER".into(), |t| format!("t={t}"));
    for (&(n, init), pair) in cells.iter().zip(settled) {
        for (detector, [completeness, accuracy]) in
            ["Figure 4 (paper)", "baseline"].into_iter().zip(pair)
        {
            t.row(vec![
                detector.into(),
                n.to_string(),
                match init {
                    E5Init::Clean => "clean".into(),
                    E5Init::RandomCorrupt(s) => format!("random corrupt (seed {s})"),
                    E5Init::Poison => "adversarial poison".into(),
                },
                settle(completeness),
                settle(accuracy),
            ]);
        }
    }
    t
}

const E6_HORIZON: Time = 120_000;

/// One row of the E6 table.
struct E6Row {
    /// The paper's self-stabilizing protocol, or plain Chandra–Toueg.
    self_stabilizing: bool,
    n: usize,
    crashes: Vec<(ProcessId, Time)>,
    corrupt: bool,
}

/// One seeded E6 run: the virtual time by which every correct process
/// had decided — for the self-stabilizing protocol, completed an instance
/// *fresher than the corrupted epoch* — and whether two correct processes
/// disagreed (same instance, for the self-stabilizing protocol).
fn run_e6_cell(row: &E6Row, seed: u64) -> (Option<Time>, bool) {
    let n = row.n;
    let inputs: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
    let corrupt_seed = row.corrupt.then_some(seed ^ 0xc7);
    if row.self_stabilizing {
        return run_ss_consensus(&inputs, &row.crashes, seed, corrupt_seed, 40, E6_HORIZON);
    }
    let (oracle, cfg, correct) = turbulent(n, &row.crashes, seed);
    let mut procs: Vec<CtConsensusProcess> = (0..n)
        .map(|i| CtConsensusProcess::new(ProcessId(i), n, inputs[i], oracle.clone(), 25))
        .collect();
    if let Some(corrupt_seed) = corrupt_seed {
        let mut rng = StdRng::seed_from_u64(corrupt_seed);
        procs.iter_mut().for_each(|p| p.corrupt(&mut rng));
    }
    let mut runner = AsyncRunner::new(procs, cfg).expect("valid config");
    let mut all_decided_at: Option<Time> = None;
    runner.run_probed(E6_HORIZON, 250, |t, ps| {
        if all_decided_at.is_none() && correct.iter().all(|&i| ps[i].decision().is_some()) {
            all_decided_at = Some(t);
        }
    });
    let decisions: Option<std::collections::BTreeSet<u64>> = correct
        .iter()
        .map(|&i| runner.process(ProcessId(i)).decision())
        .collect();
    match decisions {
        Some(vals) => (Some(all_decided_at.unwrap_or(E6_HORIZON)), vals.len() > 1),
        None => (None, false),
    }
}

/// E6 — §3: self-stabilizing asynchronous consensus vs plain
/// Chandra–Toueg, from clean and corrupted initial states, swept over
/// `jobs` workers; system sizes restricted to `n <= max_n`.
pub fn e6_table(seeds: u64, max_n: usize, jobs: usize) -> Table {
    let mut rows = Vec::new();
    for (n, crashes) in [
        (3usize, vec![]),
        (5, vec![]),
        (5, vec![(ProcessId(2), 5_000)]),
        (9, vec![(ProcessId(0), 2_000), (ProcessId(4), 8_000)]),
    ] {
        for corrupt in [false, true] {
            for self_stabilizing in [false, true] {
                rows.push(E6Row {
                    self_stabilizing,
                    n,
                    crashes: crashes.clone(),
                    corrupt,
                });
            }
        }
    }
    rows.retain(|r| r.n <= max_n);
    let per_row = sweep_rows(&rows, seeds, jobs, run_e6_cell);
    let mut t = Table::new(vec![
        "protocol",
        "n",
        "crashes",
        "init",
        "decided",
        "agreement violations",
        "median decide t",
    ]);
    for (row, results) in rows.iter().zip(&per_row) {
        let mut times: Vec<Time> = results.iter().filter_map(|r| r.0).collect();
        times.sort_unstable();
        t.row(vec![
            if row.self_stabilizing {
                "self-stabilizing"
            } else {
                "plain CT"
            }
            .into(),
            row.n.to_string(),
            match row.crashes.len() {
                0 => "none".into(),
                k => k.to_string(),
            },
            if row.corrupt { "corrupted" } else { "clean" }.into(),
            format!("{}/{seeds}", times.len()),
            results.iter().filter(|r| r.1).count().to_string(),
            times
                .get(times.len() / 2)
                .map_or_else(|| "-".into(), |t| t.to_string()),
        ]);
    }
    t
}

/// E8 — §2.4's third requirement ("the current round number is counted by
/// an unbounded variable"): round agreement with a counter wrapping at
/// modulus `M` against the unbounded Figure-1 protocol, n = 4, corrupted
/// starts, windows of `2·M` rounds. The bounded variant violates
/// Assumption 1's rate condition at every wrap; the unbounded protocol
/// passes the identical check. (That *no* bounded protocol works is
/// deferred to the full paper by the authors; this is the natural
/// candidate failing.)
pub fn e8_table(seeds: u64, jobs: usize) -> Table {
    let rows: Vec<(u64, bool)> = [4u64, 8, 16, 32, 64]
        .into_iter()
        .flat_map(|m| [(m, true), (m, false)])
        .collect();
    // A cell is the first violated rule of one seeded run, if any.
    let per_row = sweep_rows(&rows, seeds, jobs, |&(m, bounded), seed| {
        fn first_violated_rule<P>(protocol: P, cfg: &RunConfig) -> Option<String>
        where
            P: SyncProtocol<State: Corrupt>,
        {
            let out = SyncRunner::new(protocol).run(&mut NoFaults, cfg);
            let history = out.expect("valid config").history;
            let report = ftss_check(&history, &RateAgreementSpec::new(), 1);
            report.violations.first().map(|v| v.violation.rule.clone())
        }
        let cfg = RunConfig::corrupted(4, 2 * m as usize, seed);
        if bounded {
            first_violated_rule(BoundedRoundAgreement::new(m), &cfg)
        } else {
            first_violated_rule(RoundAgreement, &cfg)
        }
    });
    let mut t = Table::new(vec![
        "protocol",
        "modulus M",
        "rounds",
        "runs violating rate",
        "first violated rule",
    ]);
    for (&(m, bounded), rules) in rows.iter().zip(&per_row) {
        t.row(vec![
            if bounded {
                format!("bounded (mod {m})")
            } else {
                "unbounded (Fig 1)".into()
            },
            if bounded { m.to_string() } else { "∞".into() },
            (2 * m).to_string(),
            format!("{}/{seeds}", rules.iter().flatten().count()),
            rules.iter().flatten().next().cloned().unwrap_or("-".into()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_max() {
        assert_eq!(mean(&[1, 2, 3]), "2.0");
        assert_eq!(max(&[1, 5, 3]), "5");
        assert_eq!(mean(&[]), "-");
        assert_eq!(max(&[]), "-");
    }

    #[test]
    fn e1_rows_respect_max_n() {
        assert_eq!(e1_rows(usize::MAX).len(), 16);
        let small = e1_rows(4);
        assert!(small.iter().all(|r| r.n <= 4));
        assert!(!small.is_empty());
    }

    #[test]
    fn e1_small_serial_equals_parallel() {
        let serial = e1_table(2, 4, 1).to_string();
        let par = e1_table(2, 4, 4).to_string();
        assert_eq!(serial, par);
        assert!(serial.contains("none"));
    }

    #[test]
    fn fault_spec_builds_adversaries() {
        for spec in [
            FaultSpec::None,
            FaultSpec::RandomOmission {
                faulty: vec![ProcessId(0)],
                p_drop: 0.5,
            },
            FaultSpec::Silent {
                p: ProcessId(0),
                rounds: 2,
            },
            FaultSpec::CrashAt {
                p: ProcessId(0),
                round: 1,
            },
        ] {
            let adv = spec.adversary(7);
            assert!(adv.faulty(3).len() <= 3);
        }
    }

    #[test]
    fn pi_spec_metadata() {
        let fs = PiSpec::FloodSet {
            f: 1,
            inputs: vec![1, 2, 3, 4],
        };
        assert_eq!(fs.n(), 4);
        assert_eq!(fs.final_round(), 2);
        assert!(!fs.name().is_empty());
        let pk = PiSpec::PhaseKing {
            f: 1,
            inputs: vec![true, false, true, false, true],
        };
        assert_eq!(pk.n(), 5);
        assert!(pk.final_round() >= 2);
    }
}
