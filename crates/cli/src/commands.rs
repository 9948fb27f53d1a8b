//! The `ftss-lab` subcommands. Each runs a configured experiment, prints
//! what happened, and returns `Ok(true)` when every checked property held.

use crate::args::Args;
use crate::experiments::{coverage_table, exp_values, render_doc, Experiment, EXPERIMENTS};
use ftss::analysis::{
    coterie_events, measured_stabilization_time, metrics_table, stabilization_event,
};
use ftss::async_sim::{AsyncConfig, AsyncRunner, Time};
use ftss::compiler::{trace_events, Compiled};
use ftss::consensus_async::SsConsensusProcess;
use ftss::core::{
    ftss_check, round_count, Corrupt, CrashSchedule, History, Problem, ProcessId, ProcessSet,
    RateAgreementSpec, Round,
};
use ftss::detectors::{
    eventual_weak_accuracy, poison_tables, strong_completeness_time, suspicion_events,
    StrongDetectorProcess, SuspectProbe, WeakOracle,
};
use ftss::protocols::{
    token_ring::token_holders, CanonicalProtocol, Eig, FloodSet, PhaseKing, RepeatedConsensusSpec,
    RoundAgreement, TokenRing,
};
use ftss::sync_sim::{
    Adversary, CrashOnly, NoFaults, RandomOmission, RunConfig, RunOutcome, SyncProtocol, SyncRunner,
};
use ftss::telemetry::{Event, JsonlSink, Metrics, TraceSink};
use ftss_rng::StdRng;
use std::io::Write;

/// A command's result: `Ok(true)` when every checked property held,
/// `Ok(false)` for a found violation, `Err` for a usage error.
pub type Outcome = Result<bool, String>;

/// One `ftss-lab` subcommand: the single source of truth for dispatch
/// (`main` looks the command up here) and for the generated help text.
pub struct Command {
    /// The subcommand name on the command line.
    pub name: &'static str,
    /// The help block: first line is the summary, following lines list
    /// options (rendered indented under the name).
    pub help: &'static str,
    /// The entry point.
    pub run: fn(&Args) -> Outcome,
}

/// Every subcommand, in help-display order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "round-agreement",
        help: "Figure 1 from a corrupted start\n\
               --n N --rounds R --seed S [--omit-p P --omitters K]",
        run: round_agreement,
    },
    Command {
        name: "compile",
        help: "Figure 3: compile Π and run Π+ from a corrupted start\n\
               --pi floodset|phase-king|eig --f F --n N --rounds R\n\
               --seed S [--crash p@round]",
        run: compile,
    },
    Command {
        name: "consensus",
        help: "§3 self-stabilizing async consensus\n\
               --n N --horizon T --seed S [--corrupt true] [--crash p@time]",
        run: consensus,
    },
    Command {
        name: "detector",
        help: "Figure 4 ◇S detector\n\
               --n N --seed S [--crash p@time] [--poison true]",
        run: detector,
    },
    Command {
        name: "theorem1",
        help: "The Theorem-1 scenario table  [--r R]",
        run: theorem1,
    },
    Command {
        name: "theorem2",
        help: "The Theorem-2 scenario table  [--rounds R]",
        run: theorem2,
    },
    Command {
        name: "token-ring",
        help: "Dijkstra's ring (ss-only contrast) --n N --rounds R --seed S",
        run: token_ring,
    },
    Command {
        name: "trace",
        help: "Stream a run as JSONL events (one event per line)\n\
               --protocol round-agreement|compile|token-ring|consensus|detector\n\
               [--out FILE] plus the chosen protocol's options above",
        run: trace,
    },
    Command {
        name: "serve",
        help: "Socket runtime (crates/serve): run the protocol as real\n\
               processes over a transport, streaming the same JSONL trace\n\
               (`mem` is byte-identical to `trace`; tcp/uds add net_* events)\n\
               --protocol round-agreement|compile --transport tcp|uds|mem\n\
               --n N --rounds R --seed S [--derived] [--out FILE]\n\
               [--storm default|worst-case|restart --epochs E] replays a\n\
               chaos storm program and verifies per-epoch recovery (Thm 3);\n\
               `restart` adds a kill/respawn episode and\n\
               partial-synchrony delay/duplicate/reorder storms",
        run: serve,
    },
    Command {
        name: "loadgen",
        help: "Drive client load into a served Σ+ (compiled FloodSet) and\n\
               report round-denominated latency percentiles; the report is\n\
               byte-identical across reruns and transports\n\
               --transport tcp|uds|mem --n N --rounds R --seed S\n\
               [--rate K --timeout T --out FILE]",
        run: loadgen,
    },
    Command {
        name: "stats",
        help: "Aggregate a trace file into a metrics table\n\
               --in FILE [--format table|csv]",
        run: stats,
    },
    Command {
        name: "sweep",
        help: "Print an experiment's table from the registry (deterministic\n\
               parallel executor; byte-identical for any --jobs)\n\
               --exp {exp}\n\
               [--seeds S] [--max-n N (grids with an n axis)]\n\
               [--jobs J (default: FTSS_JOBS, else all cores)]\n\
               --doc FILE: print FILE with the block after every\n\
               `<!-- ftss-lab ... -->` marker replaced by that\n\
               command's fresh output (check: pipe into `cmp - FILE`)",
        run: sweep,
    },
    Command {
        name: "check",
        help: "Model-checker-lite (crates/check)\n\
               --graph (the default): fingerprinted, symmetry-reduced\n\
                 state-graph exploration of n<=6 round agreement from\n\
                 a corrupted start, checking Theorem 3 on every edge;\n\
                 --rounds R covers every R-round omission schedule, no\n\
                 --rounds = run to fixpoint (certifies Theorem 3 for\n\
                 every horizon); output is byte-identical for any --jobs\n\
                 [--n N | --max-n N (sweep 2..=N)] [--rounds R]\n\
                 [--seed S --faulty P --jobs J --max-states M]\n\
                 [--broken-oracle] [--ce FILE (counterexample path)]\n\
               --adversary: worst-case fault battery at larger n\n\
                 (Theorems 3-5)  [--n N --seeds S --jobs J]\n\
               --replay FILE: re-execute a counterexample schedule,\n\
                 streaming its byte-deterministic JSONL trace\n\
                 [--out TRACE]",
        run: check,
    },
    Command {
        name: "soak",
        help: "Chaos soak engine (crates/chaos): long-horizon runs\n\
               under composable fault storms, recovery verified\n\
               after every epoch (Theorems 3-5), with budgets,\n\
               watchdog and livelock guardrails; the JSONL soak\n\
               report is byte-identical for any --jobs\n\
               [--plan default|worst-case|large-n|churn|restart\n\
                --epochs E --seed S]\n\
               [--jobs J --out FILE --budget-ms MS]",
        run: soak,
    },
];

/// The full help text, generated from [`COMMANDS`] — there is no
/// separately-maintained usage string to drift out of date.
pub fn usage() -> String {
    let mut out = String::from(
        "ftss-lab — Gopal–Perry PODC'93 reproduction laboratory\n\n\
         USAGE: ftss-lab <command> [--option value]...\n\nCOMMANDS\n",
    );
    for c in COMMANDS {
        // The one computed part of the help: the registry's ids.
        for (i, line) in c.help.replace("{exp}", &exp_values()).lines().enumerate() {
            if i == 0 {
                out.push_str(&format!("  {:<17}{line}\n", c.name));
            } else {
                out.push_str(&format!("                   {line}\n"));
            }
        }
    }
    out.push_str(
        "\nBoolean options may omit the value: `--corrupt` means `--corrupt true`.\n\
         Exit code 0: all checked properties held. 1: violation found. 2: usage error.",
    );
    out
}

fn adversary_from(args: &Args, n: usize) -> Result<Box<dyn Adversary>, String> {
    let omit_p: f64 = args.get_or("omit-p", 0.0)?;
    if !(0.0..=1.0).contains(&omit_p) {
        return Err(format!(
            "--omit-p must be a probability in [0, 1], got {omit_p}"
        ));
    }
    let omitters: usize = args.get_or("omitters", 1)?;
    let seed: u64 = args.get_or("seed", 0)?;
    if let Some((p, r)) = args.crash_spec("crash")? {
        if p >= n {
            return Err(format!("--crash names p{p} but n = {n}"));
        }
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(p), Round::new(r.max(1)));
        return Ok(Box::new(CrashOnly::new(cs)));
    }
    if omit_p > 0.0 {
        let faulty: Vec<ProcessId> = (0..omitters.min(n.saturating_sub(1)))
            .map(ProcessId)
            .collect();
        return Ok(Box::new(RandomOmission::new(faulty, omit_p, seed)));
    }
    Ok(Box::new(NoFaults))
}

/// `round-agreement`: run Figure 1, check Definition 2.4 with r = 1.
pub fn round_agreement(args: &Args) -> Outcome {
    let n: usize = args.get_or("n", 4)?;
    let rounds: usize = args.get_or("rounds", 12)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let mut adv = adversary_from(args, n)?;
    let out = SyncRunner::new(RoundAgreement)
        .run(adv.as_mut(), &RunConfig::corrupted(n, rounds, seed))
        .map_err(|e| e.to_string())?;
    let m =
        measured_stabilization_time(&out.history, &RateAgreementSpec::new()).ok_or("empty run")?;
    println!(
        "round agreement: n={n}, {rounds} rounds, seed {seed}; \
         final stable window {}..{}",
        m.window_start, m.window_end
    );
    match m.stabilization_rounds {
        Some(s) => println!("measured stabilization: {s} round(s); claimed (Thm 3): 1"),
        None => println!("did not stabilize within the window"),
    }
    let report = ftss_check(&out.history, &RateAgreementSpec::new(), 1);
    println!("{report}");
    Ok(report.is_satisfied() && m.stabilization_rounds.is_some_and(|s| s <= 1))
}

fn run_compiled<P>(pi: P, args: &Args) -> Outcome
where
    P: CanonicalProtocol,
    P::Output: Corrupt,
{
    let n: usize = args.get_or("n", 4)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let fr = ftss::core::saturating_round_index(pi.final_round());
    let rounds: usize = args.get_or("rounds", 10 * fr)?;
    let name = pi.name().to_string();
    let mut adv = adversary_from(args, n)?;
    let out = SyncRunner::new(Compiled::new(pi))
        .run(adv.as_mut(), &RunConfig::corrupted(n, rounds, seed))
        .map_err(|e| e.to_string())?;
    let spec = RepeatedConsensusSpec::agreement_only();
    let m = measured_stabilization_time(&out.history, &spec).ok_or("empty run")?;
    let bound = 2 * fr + 1;
    println!(
        "{name}+ : n={n}, final_round={fr}, {rounds} rounds, seed {seed}; \
         window {}..{}",
        m.window_start, m.window_end
    );
    match m.stabilization_rounds {
        Some(s) => println!("measured stabilization: {s}; bound (Thm 4): {bound}"),
        None => println!("Σ+ did not stabilize within the window"),
    }
    for (i, s) in out.final_states.iter().enumerate() {
        match s {
            None => println!("  p{i}: crashed"),
            Some(s) => match ftss::protocols::HasDecision::decision(s) {
                Some((tag, _)) => println!("  p{i}: decided (iteration tag {tag})"),
                None => println!("  p{i}: no decision yet"),
            },
        }
    }
    Ok(m.stabilization_rounds.is_some_and(|s| s <= bound))
}

/// `compile`: compile the chosen Π and run Π⁺ from corruption.
pub fn compile(args: &Args) -> Outcome {
    let n: usize = args.get_or("n", 4)?;
    let f: usize = args.get_or("f", 1)?;
    match args.get("pi").unwrap_or("floodset") {
        "floodset" => {
            let inputs: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % 50).collect();
            run_compiled(FloodSet::new(f, inputs), args)
        }
        "phase-king" => {
            if n <= 4 * f {
                return Err(format!("phase-king needs n > 4f (n={n}, f={f})"));
            }
            let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            run_compiled(PhaseKing::new(f, inputs), args)
        }
        "eig" => {
            let inputs: Vec<u64> = (0..n as u64).map(|i| (i * 11 + 5) % 50).collect();
            run_compiled(Eig::new(f, inputs), args)
        }
        other => Err(format!("unknown --pi `{other}` (floodset|phase-king|eig)")),
    }
}

/// The `--crash` schedule of an async command over `n` processes,
/// validated before anything is built from it: the ◇W oracle both
/// builders share indexes its crash table by process and needs one
/// process that never crashes.
fn async_crashes(args: &Args, n: usize) -> Result<Vec<(ProcessId, Time)>, String> {
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    let crashes: Vec<(ProcessId, Time)> = args
        .crash_spec("crash")?
        .into_iter()
        .map(|(p, t)| (ProcessId(p), t))
        .collect();
    if let Some((p, _)) = crashes.iter().find(|(p, _)| p.index() >= n) {
        return Err(format!("--crash names {p} but n = {n}"));
    }
    if (0..n).all(|i| crashes.iter().any(|(p, _)| p.index() == i)) {
        return Err(format!(
            "--crash leaves none of the {n} process(es) correct; at least one must never crash"
        ));
    }
    Ok(crashes)
}

/// Builds the §3 consensus runner from the command line; returns the
/// runner and the highest corrupted starting instance (0 when clean).
/// Prints nothing, so `trace` can reuse it without polluting the stream.
fn consensus_runner(args: &Args) -> Result<(AsyncRunner<SsConsensusProcess>, u64), String> {
    let n: usize = args.get_or("n", 3)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let corrupt = args.flag("corrupt")?;
    let crashes = async_crashes(args, n)?;
    let inputs: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
    let oracle = WeakOracle::new(n, crashes.clone(), 300, seed, 0.2);
    let mut procs: Vec<SsConsensusProcess> = (0..n)
        .map(|i| SsConsensusProcess::new(ProcessId(i), inputs.clone(), oracle.clone(), 25, 40))
        .collect();
    let mut corrupted_max = 0;
    if corrupt {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5a);
        for p in &mut procs {
            p.corrupt(&mut rng);
        }
        corrupted_max = procs.iter().map(|p| p.inst).max().unwrap_or(1);
    }
    let mut cfg = AsyncConfig::turbulent(seed, 50, 300);
    for &(p, t) in &crashes {
        cfg = cfg.with_crash(p, t);
    }
    let runner = AsyncRunner::new(procs, cfg).map_err(|e| e.to_string())?;
    Ok((runner, corrupted_max))
}

/// `consensus`: the §3 protocol, optionally corrupted, with progress and
/// per-instance agreement checks.
pub fn consensus(args: &Args) -> Outcome {
    let horizon: Time = args.get_or("horizon", 120_000)?;
    let (mut runner, corrupted_max) = consensus_runner(args)?;
    if corrupted_max > 0 {
        println!("corrupted starting instances up to {corrupted_max}");
    }
    runner.run_until(horizon);
    let mut ok = true;
    let mut per_instance: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> =
        Default::default();
    for (i, p) in runner.processes().iter().enumerate() {
        if runner.is_crashed(ProcessId(i)) {
            println!("p{i}: crashed");
            continue;
        }
        match p.last_decision() {
            Some((inst, v)) => {
                println!("p{i}: newest decision instance {inst} -> {v}");
                if inst > corrupted_max {
                    per_instance.entry(inst).or_default().insert(v);
                }
                if inst <= corrupted_max {
                    println!("   (no fresh decision past the corrupted epoch)");
                    ok = false;
                }
            }
            None => {
                println!("p{i}: NO decision");
                ok = false;
            }
        }
    }
    for (i, vals) in &per_instance {
        if vals.len() > 1 {
            println!("AGREEMENT VIOLATION at instance {i}: {vals:?}");
            ok = false;
        }
    }
    let stats = runner.stats();
    println!(
        "({} messages, horizon t={})",
        stats.messages_delivered, stats.end_time
    );
    Ok(ok)
}

/// Builds the Figure-4 detector runner from the command line; returns the
/// runner and the set of scheduled crashes. Prints nothing, so `trace`
/// can reuse it without polluting the stream.
fn detector_runner(
    args: &Args,
) -> Result<(AsyncRunner<StrongDetectorProcess>, ProcessSet), String> {
    let n: usize = args.get_or("n", 4)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let poison = args.flag("poison")?;
    let crashes = async_crashes(args, n)?;
    let oracle = WeakOracle::new(n, crashes.clone(), 0, seed, 0.0);
    let mut procs: Vec<StrongDetectorProcess> = (0..n)
        .map(|i| StrongDetectorProcess::new(ProcessId(i), oracle.clone(), 20))
        .collect();
    if poison {
        for (i, p) in procs.iter_mut().enumerate() {
            poison_tables(&mut p.num, &mut p.state, i);
        }
    }
    let mut cfg = AsyncConfig::tame(seed);
    for &(p, t) in &crashes {
        cfg = cfg.with_crash(p, t);
    }
    let runner = AsyncRunner::new(procs, cfg).map_err(|e| e.to_string())?;
    let crashed = ProcessSet::from_iter_n(n, crashes.iter().map(|&(p, _)| p));
    Ok((runner, crashed))
}

/// `detector`: run Figure 4 and report settle times.
pub fn detector(args: &Args) -> Outcome {
    let horizon: Time = args.get_or("horizon", 40_000)?;
    let (mut runner, crashed) = detector_runner(args)?;
    if args.flag("poison")? {
        println!("poisoned: everyone believes everyone else dead at v=10^9");
    }
    let mut probes = Vec::new();
    runner.run_probed(horizon, 200, |t, ps| {
        probes.push(SuspectProbe::sample(t, ps))
    });
    let correct = crashed.complement();
    let comp = strong_completeness_time(&probes, &crashed, &correct);
    let acc = eventual_weak_accuracy(&probes, &correct);
    match comp {
        Some(t) => println!("strong completeness settled at t={t}"),
        None if crashed.is_empty() => println!("strong completeness: vacuous (no crashes)"),
        None => println!("strong completeness NEVER settled"),
    }
    match acc {
        Some((w, t)) => println!("eventual weak accuracy settled at t={t} (witness {w})"),
        None => println!("eventual weak accuracy NEVER settled"),
    }
    Ok((comp.is_some() || crashed.is_empty()) && acc.is_some())
}

/// `theorem1`: the E3 rows (Theorem 1's two proof histories, per
/// archetype) for one candidate stabilization time.
pub fn theorem1(args: &Args) -> Outcome {
    print_refutation(ftss_sweep::e3_table(&[args.get_or("r", 4)?]))
}

/// `theorem2`: the E4 rows (the uniform-protocol dilemma) for one run
/// length.
pub fn theorem2(args: &Args) -> Outcome {
    print_refutation(ftss_sweep::e4_table(&[args.get_or("rounds", 8)?]))
}

fn print_refutation((table, all_refuted): (ftss::analysis::Table, bool)) -> Outcome {
    println!("{table}every archetype refuted: {all_refuted}");
    Ok(all_refuted)
}

/// `token-ring`: the classical ss-only contrast.
pub fn token_ring(args: &Args) -> Outcome {
    let n: usize = args.get_or("n", 5)?;
    let rounds: usize = args.get_or("rounds", 80)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let ring = TokenRing::new(n);
    let out = SyncRunner::new(ring)
        .run(&mut NoFaults, &RunConfig::corrupted(n, rounds, seed))
        .map_err(|e| e.to_string())?;
    let mut counts: Vec<usize> = Vec::with_capacity(rounds);
    for r in 1..=round_count(rounds) {
        let rh = out.history.round(Round::new(r));
        let mut vals: Vec<u64> = Vec::with_capacity(rh.n());
        for rec in rh.records() {
            // A NoFaults run never crashes anyone, so a missing state is a
            // recorder bug worth a diagnostic rather than a backtrace.
            let state = rec.state_at_start().ok_or_else(|| {
                format!(
                    "token-ring: {} has no recorded state in round {r}",
                    rec.process()
                )
            })?;
            vals.push(state.value);
        }
        counts.push(token_holders(&ring, &vals));
    }
    let settle = counts.iter().rposition(|&c| c != 1).map_or(0, |i| i + 1);
    println!(
        "token ring n={n}: token counts settled to 1 after {settle} round(s); \
         trace: {:?}...",
        &counts[..counts.len().min(20)]
    );
    Ok(counts.last() == Some(&1))
}

/// The sink every `trace` run streams into: stdout, or `--out FILE`.
type TraceOut = JsonlSink<Box<dyn Write>>;

fn trace_writer(args: &Args) -> Result<TraceOut, String> {
    let out: Box<dyn Write> = match args.get("out") {
        Some(path) => {
            Box::new(std::fs::File::create(path).map_err(|e| format!("--out {path}: {e}"))?)
        }
        None => Box::new(std::io::stdout().lock()),
    };
    Ok(JsonlSink::new(out))
}

/// Runs a synchronous protocol from a corrupted start with the live
/// events streamed into `sink`, then appends the derived coterie-change
/// and (when `problem` is given) stabilization events.
fn trace_sync<P: SyncProtocol>(
    protocol: P,
    args: &Args,
    default_rounds: usize,
    problem: Option<&dyn Problem<P::State, P::Msg>>,
    sink: &mut TraceOut,
) -> Result<RunOutcome<P::State, P::Msg>, String>
where
    P::State: Corrupt,
{
    let n: usize = args.get_or("n", 4)?;
    let rounds: usize = args.get_or("rounds", default_rounds)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let mut adv = adversary_from(args, n)?;
    let out = SyncRunner::new(protocol)
        .run_traced(adv.as_mut(), &RunConfig::corrupted(n, rounds, seed), sink)
        .map_err(|e| e.to_string())?;
    emit_history_events(&out.history, problem, sink);
    Ok(out)
}

fn emit_history_events<S, M>(
    history: &History<S, M>,
    problem: Option<&dyn Problem<S, M>>,
    sink: &mut TraceOut,
) {
    for ev in coterie_events(history) {
        sink.emit(&ev);
    }
    if let Some(p) = problem {
        if let Some(ev) = stabilization_event(history, p) {
            sink.emit(&ev);
        }
    }
}

fn trace_compiled<P>(pi: P, args: &Args, sink: &mut TraceOut) -> Result<(), String>
where
    P: CanonicalProtocol,
    P::Output: Corrupt,
{
    let fr = ftss::core::saturating_round_index(pi.final_round());
    let out = trace_sync(
        Compiled::new(pi),
        args,
        10 * fr,
        Some(&RepeatedConsensusSpec::agreement_only()),
        sink,
    )?;
    for ev in trace_events(&out.history) {
        sink.emit(&ev);
    }
    Ok(())
}

/// `trace`: stream one run as JSONL, one event per line — the simulator's
/// live events first, the derived coterie / stabilization / decision /
/// suspicion events after the run. The stream is byte-deterministic for a
/// fixed seed; nothing else is printed to stdout.
pub fn trace(args: &Args) -> Outcome {
    let mut sink = trace_writer(args)?;
    match args.get("protocol").unwrap_or("round-agreement") {
        "round-agreement" => {
            trace_sync(
                RoundAgreement,
                args,
                12,
                Some(&RateAgreementSpec::new()),
                &mut sink,
            )?;
        }
        "token-ring" => {
            let n: usize = args.get_or("n", 5)?;
            trace_sync(TokenRing::new(n), args, 80, None, &mut sink)?;
        }
        "compile" => {
            let n: usize = args.get_or("n", 4)?;
            let f: usize = args.get_or("f", 1)?;
            match args.get("pi").unwrap_or("floodset") {
                "floodset" => {
                    let inputs: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % 50).collect();
                    trace_compiled(FloodSet::new(f, inputs), args, &mut sink)?;
                }
                "phase-king" => {
                    if n <= 4 * f {
                        return Err(format!("phase-king needs n > 4f (n={n}, f={f})"));
                    }
                    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
                    trace_compiled(PhaseKing::new(f, inputs), args, &mut sink)?;
                }
                "eig" => {
                    let inputs: Vec<u64> = (0..n as u64).map(|i| (i * 11 + 5) % 50).collect();
                    trace_compiled(Eig::new(f, inputs), args, &mut sink)?;
                }
                other => return Err(format!("unknown --pi `{other}` (floodset|phase-king|eig)")),
            }
        }
        "consensus" => {
            let horizon: Time = args.get_or("horizon", 120_000)?;
            let (mut runner, _) = consensus_runner(args)?;
            runner.run_until_traced(horizon, &mut sink);
        }
        "detector" => {
            let horizon: Time = args.get_or("horizon", 40_000)?;
            let (mut runner, _) = detector_runner(args)?;
            let mut probes = Vec::new();
            runner.run_probed_traced(
                horizon,
                200,
                |t, ps| probes.push(SuspectProbe::sample(t, ps)),
                &mut sink,
            );
            for ev in suspicion_events(&probes) {
                sink.emit(&ev);
            }
        }
        other => {
            return Err(format!(
                "unknown --protocol `{other}` \
                 (round-agreement|compile|token-ring|consensus|detector)"
            ))
        }
    }
    finish_trace(sink)?;
    Ok(true)
}

/// Flushes a JSONL stream, treating a closed stdout (e.g. piping into
/// `head`) as a normal way to consume a prefix, not an error.
fn finish_trace(sink: TraceOut) -> Result<(), String> {
    let benign = |e: &std::io::Error| e.kind() == std::io::ErrorKind::BrokenPipe;
    match sink.finish() {
        Ok(mut out) => match out.flush() {
            Ok(()) => Ok(()),
            Err(e) if benign(&e) => Ok(()),
            Err(e) => Err(format!("trace output: {e}")),
        },
        Err(e) if benign(&e) => Ok(()),
        Err(e) => Err(format!("trace output: {e}")),
    }
}

/// `serve`: run the protocol as real processes over a transport
/// (crates/serve), streaming the same JSONL event stream as `trace` —
/// byte-identical on `mem`, plus `net_*` events on tcp/uds. With
/// `--storm` the session replays a chaos storm program through the
/// storm adversary and verifies per-epoch recovery against the
/// Theorem-3 window bound, emitting one `recovery_measured` event per
/// epoch.
pub fn serve(args: &Args) -> Outcome {
    let mut sink = trace_writer(args)?;
    let transport = ftss_serve::TransportKind::parse(args.get("transport").unwrap_or("tcp"))?;
    let ok = match args.get("protocol").unwrap_or("round-agreement") {
        "round-agreement" => serve_round_agreement(args, transport, &mut sink)?,
        "compile" => serve_compiled_floodset(args, transport, &mut sink)?,
        other => {
            return Err(format!(
                "unknown --protocol `{other}` (round-agreement|compile)"
            ))
        }
    };
    finish_trace(sink)?;
    Ok(ok)
}

fn serve_round_agreement(
    args: &Args,
    transport: ftss_serve::TransportKind,
    sink: &mut TraceOut,
) -> Outcome {
    let seed: u64 = args.get_or("seed", 0)?;
    let derived = args.flag("derived").unwrap_or(false);
    let spec = RateAgreementSpec::new();
    let Some(storm) = args.get("storm") else {
        let n: usize = args.get_or("n", 4)?;
        let rounds: usize = args.get_or("rounds", 12)?;
        let mut adv = adversary_from(args, n)?;
        let cfg = ftss_serve::ServeConfig::new(RunConfig::corrupted(n, rounds, seed), transport);
        let out = ftss_serve::serve(&RoundAgreement, adv.as_mut(), &cfg, sink)?;
        if derived {
            emit_history_events(&out.history, Some(&spec), sink);
        }
        return Ok(true);
    };
    let epochs: usize = args.get_or("epochs", 2)?;
    if epochs == 0 {
        return Err("--storm needs --epochs >= 1".into());
    }
    let (cycle, default_n) = match storm {
        "default" | "worst-case" => (ftss_chaos::storm_cycle(storm == "worst-case"), 4),
        "restart" => (ftss_chaos::restart_cycle(), 3),
        other => {
            return Err(format!(
                "unknown --storm `{other}` (default|worst-case|restart)"
            ))
        }
    };
    let n: usize = args.get_or("n", default_n)?;
    if n < 3 {
        return Err(format!("--storm needs n >= 3 (n={n})"));
    }
    // A strict-minority victim set, so round agreement's n > 2f holds; the
    // restart cycle's episode and timing storms target p0 alone.
    let f = if storm == "restart" { 1 } else { (n - 1) / 2 };
    let victims: Vec<ProcessId> = (0..f).map(ProcessId).collect();
    // Stabilization within the Thm-3 window bound, judged in-stream as each
    // epoch's last round lands.
    let geom = ftss_chaos::StormGeometry::engine_default();
    let scenario = ftss_chaos::StormScenario::new(seed, epochs, n, cycle, &victims, geom, 2);
    let (out, judge) = scenario.drive(RoundAgreement, Some(transport), &spec, None, sink)?;
    // One `recovery_measured` event per epoch, after the run's own stream.
    let mut all_ok = true;
    for (event, verdict) in judge.closed() {
        all_ok &= matches!(verdict, ftss_chaos::EpochVerdict::Recovered { .. });
        sink.emit(event);
    }
    if derived {
        emit_history_events(&out.history, Some(&spec), sink);
    }
    Ok(all_ok)
}

fn serve_compiled_floodset(
    args: &Args,
    transport: ftss_serve::TransportKind,
    sink: &mut TraceOut,
) -> Outcome {
    if args.get("storm").is_some() {
        return Err("--storm is only supported for --protocol round-agreement".into());
    }
    let n: usize = args.get_or("n", 4)?;
    let f: usize = args.get_or("f", 1)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let derived = args.flag("derived").unwrap_or(false);
    let inputs: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % 50).collect();
    let pi = FloodSet::new(f, inputs);
    let fr = ftss::core::saturating_round_index(pi.final_round());
    let rounds: usize = args.get_or("rounds", 10 * fr)?;
    let mut adv = adversary_from(args, n)?;
    let cfg = ftss_serve::ServeConfig::new(RunConfig::corrupted(n, rounds, seed), transport);
    let out = ftss_serve::serve(&Compiled::new(pi), adv.as_mut(), &cfg, sink)?;
    if derived {
        emit_history_events(
            &out.history,
            Some(&RepeatedConsensusSpec::agreement_only()),
            sink,
        );
        for ev in trace_events(&out.history) {
            sink.emit(&ev);
        }
    }
    Ok(true)
}

/// `loadgen`: sustained client traffic into a served Σ+ (crates/serve).
/// The report is integer-only and byte-identical across reruns and
/// transports — it carries no wall-clock fields.
pub fn loadgen(args: &Args) -> Outcome {
    let transport = ftss_serve::TransportKind::parse(args.get("transport").unwrap_or("tcp"))?;
    let n: usize = args.get_or("n", 4)?;
    let rounds: usize = args.get_or("rounds", 48)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let mut cfg = ftss_serve::LoadgenConfig::new(transport, n, rounds, seed);
    cfg.rate = args.get_or("rate", cfg.rate)?;
    cfg.timeout = args.get_or("timeout", cfg.timeout)?;
    let report = ftss_serve::run_loadgen(&cfg)?;
    let json = report.to_json();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, json.as_bytes()).map_err(|e| format!("--out {path}: {e}"))?
        }
        None => print!("{json}"),
    }
    eprintln!(
        "loadgen: {} over {}: {} request(s), {} completed, {} timed out, \
         p99 latency {} round(s)",
        report.rounds,
        report.transport,
        report.requests,
        report.completed,
        report.timed_out,
        report.latency.quantile(99, 100),
    );
    Ok(report.completed > 0)
}

/// `--jobs J`, defaulting to `FTSS_JOBS`, else every core (the variable
/// is read only when `--jobs` is absent). An explicit `--jobs 0` is
/// refused, as a run with no sample is: no command runs on zero workers.
/// (`FTSS_JOBS=0` keeps its fallback: it warns and uses every core.)
fn jobs_arg(args: &Args) -> Result<usize, String> {
    if args.get("jobs").is_none() {
        return Ok(ftss_sweep::jobs_from_env());
    }
    match args.get_or("jobs", 0)? {
        0 => Err("--jobs must be at least 1".into()),
        jobs => Ok(jobs),
    }
}

/// `sweep`: print one experiment's table (`--exp <id>`), every
/// experiment's (`all`) or the coverage matrix (`coverage`), all looked up
/// in the registry; or re-render a document's marked blocks (`--doc`).
/// Tables are byte-identical for every `--jobs` value.
pub fn sweep(args: &Args) -> Outcome {
    if let Some(path) = args.get("doc") {
        return sweep_doc(path);
    }
    let exp = args
        .get("exp")
        .ok_or_else(|| format!("sweep needs --exp {} or --doc FILE", exp_values()))?;
    let jobs = jobs_arg(args)?;
    let max_n: usize = args.get_or("max-n", usize::MAX)?;
    // A grid with no sample reads as a pass (`within: yes` over no run):
    // zero seeds on a seeded grid are refused, and so is a `--max-n` below
    // every row of a grid asked for by name. (`--exp all --max-n 4`, the
    // quick grid, still prints E9's n ≥ 1 024 grid as a bare header.)
    let table = |e: &Experiment| -> Result<_, String> {
        let seeds = args.get_or("seeds", e.seeds)?;
        if e.seeds > 0 && seeds == 0 {
            return Err(format!("sweep --exp {}: --seeds must be at least 1", e.id));
        }
        Ok((e.table)(seeds, max_n, jobs))
    };
    match exp {
        "all" => {
            let tables = EXPERIMENTS
                .iter()
                .map(table)
                .collect::<Result<Vec<_>, _>>()?;
            for (e, t) in EXPERIMENTS.iter().zip(tables) {
                println!("{}: {}\n\n{}", e.id, e.artifact, t);
            }
        }
        "coverage" => print!("{}", coverage_table()),
        id => match EXPERIMENTS.iter().find(|e| e.id == id) {
            Some(e) => {
                let t = table(e)?;
                if t.is_empty() {
                    return Err(format!(
                        "sweep --exp {id}: --max-n {max_n} leaves no row of its grid"
                    ));
                }
                print!("{t}");
            }
            None => return Err(format!("unknown --exp `{id}` ({})", exp_values())),
        },
    }
    Ok(true)
}

/// `sweep --doc FILE`: print FILE with every marked block replaced by
/// the fresh stdout of the `ftss-lab` command its marker names, each run
/// as a child of this very binary.
fn sweep_doc(path: &str) -> Outcome {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("--doc {path}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("--doc: {e}"))?;
    let rendered = render_doc(&doc, |args| {
        let child = std::process::Command::new(&exe)
            .args(args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        if !child.status.success() {
            return Err(child.status.to_string());
        }
        String::from_utf8(child.stdout).map_err(|e| e.to_string())
    })
    .map_err(|e| format!("--doc {path}: {e}"))?;
    print!("{rendered}");
    Ok(true)
}

/// `check`: the model-checker-lite. `--replay FILE` re-executes a
/// schedule file; `--adversary` runs the worst-case battery; anything
/// else (canonically `--graph`) runs the one synchronous checker, the
/// state-graph exploration. Naming two of these modes is an error, not a
/// silent pick, and so is a flag of a removed mode (the tape
/// enumerator's `--dfs` and `--bound`, the async dispatch-order demo's
/// `--por`): [`Args`] ignores flags a command does not read, so a
/// leftover one would otherwise run a different search than the one
/// asked for.
pub fn check(args: &Args) -> Outcome {
    for retired in ["dfs", "bound"] {
        if args.get(retired).is_some() {
            return Err(format!(
                "check: --{retired} belonged to the retired tape enumerator; \
                 `check --graph --rounds R` covers every R-round omission \
                 schedule, and `check --graph` every horizon"
            ));
        }
    }
    if args.get("por").is_some() {
        return Err(
            "check: --por ran the async dispatch-order demo, which was removed; \
             the asynchronous model's one choice is a message's delay, and \
             `check --adversary` runs its worst case"
                .into(),
        );
    }
    let mut modes = Vec::new();
    if args.get("replay").is_some() {
        modes.push("--replay");
    }
    for (flag, mode) in [("adversary", "--adversary"), ("graph", "--graph")] {
        if args.flag(flag)? {
            modes.push(mode);
        }
    }
    if modes.len() > 1 {
        return Err(format!(
            "check: {} are separate modes; pass one of --replay, --adversary, \
             --graph",
            modes.join(" and ")
        ));
    }
    if let Some(path) = args.get("replay") {
        let path = path.to_string();
        return check_replay(args, &path);
    }
    if args.flag("adversary")? {
        return check_adversary(args);
    }
    check_graph(args)
}

fn check_graph_config(args: &Args, n: usize) -> Result<ftss_check::GraphConfig, String> {
    let mut cfg = ftss_check::GraphConfig::fixpoint(n, args.get_or("seed", 7)?);
    cfg.faulty = ProcessId(args.get_or("faulty", cfg.faulty.index())?);
    cfg.rounds = match args.get("rounds") {
        Some(_) => Some(args.get_or("rounds", 0)?),
        None => None,
    };
    cfg.stabilization = if args.flag("broken-oracle")? {
        0
    } else {
        args.get_or("stabilization", cfg.stabilization)?
    };
    cfg.jobs = jobs_arg(args)?;
    cfg.max_states = args.get_or("max-states", cfg.max_states)?;
    Ok(cfg)
}

/// `check --graph`: fingerprinted, symmetry-reduced state-graph
/// exploration. Without `--rounds` it runs to the fixpoint, certifying
/// the Theorem-3 obligations for every horizon; `--max-n` sweeps sizes
/// `2..=N`. Output never names the worker count — it is byte-identical
/// for any `--jobs`, and `scripts/verify.sh` `cmp`s serial vs parallel.
fn check_graph(args: &Args) -> Outcome {
    if args.get("n").is_some() && args.get("max-n").is_some() {
        return Err("check --graph: --n and --max-n conflict; pass one \
                    (--max-n N sweeps n = 2..=N)"
            .into());
    }
    let sizes: Vec<usize> = match args.get("max-n") {
        Some(_) => (2..=args.get_or("max-n", 0)?).collect(),
        None => vec![args.get_or("n", 5)?],
    };
    if sizes.is_empty() {
        return Err("check --graph: --max-n must be at least 2".into());
    }
    // Every size is validated before the first is explored, so a bad
    // `--max-n` fails fast instead of after the smaller searches.
    let configs = sizes
        .iter()
        .map(|&n| {
            let cfg = check_graph_config(args, n)?;
            cfg.validate()?;
            Ok(cfg)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut all_ok = true;
    for cfg in &configs {
        let report = ftss_check::explore_graph(cfg)?;
        println!(
            "check --graph: round agreement, n={}, corruption seed {}, \
             omissions through p{}, oracle: Theorem 3 at stabilization {}, \
             horizon: {}",
            cfg.n,
            cfg.corruption_seed,
            cfg.faulty.index(),
            cfg.stabilization,
            match cfg.rounds {
                Some(d) => format!("{d} round(s)"),
                None => "fixpoint (unbounded)".into(),
            }
        );
        println!(
            "visited {} canonical state(s) in {} expansion(s); \
             {} revisit(s) deduped, {} orbit collapse(s); depth {}{}",
            report.visited,
            report.expansions,
            report.dedup_hits,
            report.orbit_hits,
            report.depth,
            if report.fixpoint {
                " (closed: certified for every horizon)"
            } else {
                ""
            }
        );
        match report.counterexample {
            None => println!("zero violations: every reachable edge satisfies the oracle"),
            Some(gce) => {
                println!("VIOLATION: {}", gce.counterexample.detail);
                println!(
                    "concrete witness: {} round(s), {} of {} tape bits survive minimization",
                    gce.cfg.rounds,
                    gce.counterexample.tape.iter().filter(|&&b| b).count(),
                    gce.counterexample.tape.len()
                );
                let path = args.get("ce").unwrap_or("counterexample.schedule");
                let file = ftss_check::ScheduleFile::graph(gce.cfg, gce.counterexample);
                std::fs::write(path, file.serialize()).map_err(|e| format!("--ce {path}: {e}"))?;
                println!("counterexample written to {path}");
                println!("replay with: ftss-lab check --replay {path}");
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}

fn check_adversary(args: &Args) -> Outcome {
    let n: usize = args.get_or("n", 5)?;
    let seeds: u64 = args.get_or("seeds", 3)?;
    let jobs = jobs_arg(args)?;
    let rows = ftss_check::run_battery(&ftss_check::BatteryConfig::new(n, seeds, jobs))?;
    println!("check --adversary: n={n}, {seeds} seed(s) per scenario");
    for r in &rows {
        println!("{r}");
    }
    let ok = ftss_check::all_pass(&rows);
    println!(
        "{}",
        if ok {
            "all scenarios PASS"
        } else {
            "FAIL: at least one scenario violated its theorem"
        }
    );
    Ok(ok)
}

/// Re-executes a schedule file, streaming the run's JSONL trace to
/// `--out` (or stdout). The trace is byte-identical across replays — the
/// run is a pure function of the schedule — so `cmp` on two `--out`
/// files is the determinism check. The verdict goes to stderr to keep
/// stdout's bytes schedule-only.
fn check_replay(args: &Args, path: &str) -> Outcome {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--replay {path}: {e}"))?;
    let file = ftss_check::ScheduleFile::parse(&text)?;
    let mut sink = trace_writer(args)?;
    let verdict = file.replay(&mut sink);
    let benign = |e: &std::io::Error| e.kind() == std::io::ErrorKind::BrokenPipe;
    match sink.finish() {
        Ok(mut w) => match w.flush() {
            Ok(()) => {}
            Err(e) if benign(&e) => {}
            Err(e) => return Err(format!("replay output: {e}")),
        },
        Err(e) if benign(&e) => {}
        Err(e) => return Err(format!("replay output: {e}")),
    }
    match verdict {
        Some(d) if d == file.detail => {
            eprintln!("replay reproduced the recorded violation: {d}");
            Ok(true)
        }
        Some(d) => {
            eprintln!("replay violated DIFFERENTLY: {d}");
            eprintln!("recorded verdict was: {}", file.detail);
            Ok(false)
        }
        None => {
            eprintln!(
                "replay did NOT reproduce the violation (recorded: {})",
                file.detail
            );
            Ok(false)
        }
    }
}

/// `soak`: the chaos soak engine (crates/chaos). Expands the chosen
/// storm plan into cells, soaks every cell with per-epoch recovery
/// verification, and emits the deterministic JSONL soak report — to
/// `--out`, or to stdout with the human summary on stderr (mirroring
/// `check --replay`, so the report stream stays byte-clean for `cmp`).
pub fn soak(args: &Args) -> Outcome {
    let plan_name = args.get("plan").unwrap_or("default");
    let epochs: usize = args.get_or("epochs", 4)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let jobs = jobs_arg(args)?;
    let mut budget = ftss_chaos::SoakBudget::default();
    budget.wall_ms = args.get_or("budget-ms", budget.wall_ms)?;
    let plan = ftss_chaos::SoakPlan::by_name(plan_name, epochs, seed)?;
    let n_cells = plan.cells().len();
    let cfg = ftss_chaos::SoakConfig { plan, jobs, budget };
    let out = ftss_chaos::run_soak(&cfg)?;
    let report = out.report();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, report.as_bytes()).map_err(|e| format!("--out {path}: {e}"))?;
            println!("soak: plan '{plan_name}', {epochs} epoch(s), {n_cells} cell(s), seed {seed}");
            print!("{}", out.summary());
            println!(
                "report: {} line(s) written to {path}",
                report.lines().count()
            );
        }
        None => {
            let benign = |e: &std::io::Error| e.kind() == std::io::ErrorKind::BrokenPipe;
            let stdout = std::io::stdout();
            let mut w = stdout.lock();
            match w.write_all(report.as_bytes()).and_then(|()| w.flush()) {
                Ok(()) => {}
                Err(e) if benign(&e) => {}
                Err(e) => return Err(format!("soak output: {e}")),
            }
            eprint!("{}", out.summary());
        }
    }
    Ok(out.all_recovered())
}

/// `stats`: replay a `trace` file through the [`Metrics`] accumulator and
/// print the aggregate as a table (or CSV with `--format csv`).
pub fn stats(args: &Args) -> Outcome {
    let path = args.get("in").ok_or("stats needs --in <trace.jsonl>")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("--in {path}: {e}"))?;
    let mut metrics = Metrics::new();
    for (i, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::parse_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        metrics.emit(&ev);
    }
    let table = metrics_table(&metrics);
    match args.get("format").unwrap_or("table") {
        "table" => print!("{table}"),
        "csv" => print!("{}", table.to_csv()),
        other => return Err(format!("unknown --format `{other}` (table|csv)")),
    }
    Ok(true)
}
