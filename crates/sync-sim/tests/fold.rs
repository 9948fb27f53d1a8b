//! The folded inbox path (DESIGN.md §16) against the unfolded one, for
//! the shipped protocols that declare [`SyncProtocol::JOINS_INBOX`].
//!
//! Everything sits in a module named `round`, so the optimised
//! `cargo test --release -p ftss-sync-sim round::` of `scripts/verify.sh`
//! runs it next to the kernel's own tests.

mod round {
    use ftss_core::{
        Corrupt, CrashSchedule, Envelope, ProcessId, Round, RoundCounter, StormKind, StormPhase,
    };
    use ftss_protocols::bounded::BoundedState;
    use ftss_protocols::{BoundedRoundAgreement, RoundAgreement, RoundAgreementState};
    use ftss_rng::check::forall;
    use ftss_rng::{Rng, StdRng};
    use ftss_sync_sim::{
        Adversary, ByzantineAdversary, CrashOnly, GroupPartition, Inbox, OmissionSide, ProtocolCtx,
        RandomOmission, RunConfig, ScriptedOmission, StormAdversary, SyncProtocol, SyncRunner,
    };
    use ftss_telemetry::RecordingSink;
    use std::cell::RefCell;
    use std::fmt::Debug;

    /// Forwards every method of `P` but declares nothing: the same
    /// transition, always taken through `step`.
    #[derive(Clone)]
    struct Undeclared<P>(P);

    impl<P: SyncProtocol> SyncProtocol for Undeclared<P> {
        type State = P::State;
        type Msg = P::Msg;

        fn name(&self) -> &str {
            self.0.name()
        }
        fn init_state(&self, ctx: &ProtocolCtx) -> P::State {
            self.0.init_state(ctx)
        }
        fn sends(&self, ctx: &ProtocolCtx, state: &P::State) -> bool {
            self.0.sends(ctx, state)
        }
        fn is_halted(&self, ctx: &ProtocolCtx, state: &P::State) -> bool {
            self.0.is_halted(ctx, state)
        }
        fn broadcast(&self, ctx: &ProtocolCtx, state: &P::State) -> P::Msg {
            self.0.broadcast(ctx, state)
        }
        fn step(&self, ctx: &ProtocolCtx, state: &mut P::State, inbox: &Inbox<P::Msg>) {
            self.0.step(ctx, state, inbox);
        }
        fn round_counter(&self, state: &P::State) -> Option<RoundCounter> {
            self.0.round_counter(state)
        }
        fn forge_message(&self, seed: u64) -> Option<P::Msg> {
            self.0.forge_message(seed)
        }
    }

    /// One configuration three ways: folded (declaring, untraced),
    /// unfolded because nothing is declared — the one unfolded reference
    /// — and traced, which walks the same clean block and folds through
    /// `InProcess`'s clean-block join too. Whole histories and final
    /// states must agree.
    fn folded_matches_unfolded<P, A>(protocol: &P, adversary: &A, cfg: &RunConfig)
    where
        P: SyncProtocol + Clone,
        P::State: Corrupt + PartialEq,
        P::Msg: PartialEq,
        A: Adversary + Clone + Debug,
    {
        assert!(P::JOINS_INBOX);
        let folded = SyncRunner::new(protocol.clone())
            .run(&mut adversary.clone(), cfg)
            .expect("valid config");
        let undeclared = SyncRunner::new(Undeclared(protocol.clone()))
            .run(&mut adversary.clone(), cfg)
            .expect("valid config");
        assert_eq!(
            folded.history, undeclared.history,
            "n = {}: folded vs undeclared under {adversary:?}",
            cfg.n
        );
        assert_eq!(folded.final_states, undeclared.final_states);
        let mut sink = RecordingSink::new(cfg.rounds * (cfg.n * cfg.n + cfg.n + 4) + 4);
        let traced = SyncRunner::new(protocol.clone())
            .run_traced(&mut adversary.clone(), cfg, &mut sink)
            .expect("valid config");
        assert_eq!(
            folded.history, traced.history,
            "n = {}: folded vs traced under {adversary:?}",
            cfg.n
        );
        assert_eq!(folded.final_states, traced.final_states);
    }

    /// The adversary grid of the kernel's own
    /// `sparse_walk_matches_a_copy_by_copy_oracle`: universes on both
    /// sides of every word boundary, faulty sets from empty to
    /// all-but-one, random omissions, staggered crashes with partial
    /// sends, a partition, timing storms (delayed by one and two rounds,
    /// duplicated and reordered copies, so receivers fold late arrivals)
    /// and — where the protocol can be forged against — forgeries with
    /// drops.
    fn grid<P>(protocol: &P)
    where
        P: SyncProtocol + Clone,
        P::State: Corrupt + PartialEq,
        P::Msg: PartialEq,
    {
        let rounds = 3;
        for n in [2, 3, 4, 5, 6, 63, 64, 65, 130] {
            let sizes = if n <= 6 {
                (0..n).collect()
            } else {
                vec![0, 1, 2, n / 3, n - 1]
            };
            for k in sizes {
                let seed = (n * 1000 + k) as u64;
                let mut ids: Vec<ProcessId> = (0..n).map(ProcessId).collect();
                StdRng::seed_from_u64(seed).shuffle(&mut ids);
                let faulty = || ids[..k].iter().copied();
                let cfg = RunConfig::corrupted(n, rounds, seed);
                let mut crashes = CrashSchedule::none();
                for (i, p) in faulty().enumerate() {
                    crashes.set(p, Round::new((i % (rounds + 1)) as u64 + 1));
                }
                let omission = RandomOmission::new(faulty(), 0.5, seed);
                folded_matches_unfolded(protocol, &omission, &cfg);
                let crashing = RandomOmission::new([], 0.5, seed).with_crashes(crashes.clone());
                folded_matches_unfolded(protocol, &crashing, &cfg);
                let crash_only = CrashOnly::new(crashes).with_partial_sends(n / 2);
                folded_matches_unfolded(protocol, &crash_only, &cfg);
                let partition = GroupPartition::new(faulty(), 2, 3);
                folded_matches_unfolded(protocol, &partition, &cfg);
                // Every late copy arrives by round 3.
                let timing = [
                    [StormKind::Delay { rounds: 2 }, StormKind::Duplicate],
                    [StormKind::Delay { rounds: 1 }, StormKind::Reorder],
                ];
                for [first, second] in timing {
                    let phases = [StormPhase::new(1, 1, first), StormPhase::new(2, 2, second)];
                    let storm = StormAdversary::new(faulty(), phases, seed);
                    folded_matches_unfolded(protocol, &storm, &cfg);
                }
                if protocol.forge_message(0).is_some() {
                    let byzantine = ByzantineAdversary::new(faulty(), 0.5, seed).with_drops(0.3);
                    folded_matches_unfolded(protocol, &byzantine, &cfg);
                }
            }
        }
    }

    #[test]
    fn round_agreement_folds_like_it_steps() {
        grid(&RoundAgreement);
    }

    /// A modulus small enough that three rounds from a corrupted start
    /// wrap.
    #[test]
    fn bounded_round_agreement_folds_like_it_steps() {
        grid(&BoundedRoundAgreement::new(5));
    }

    /// `P`, logging which path each receiver took: `true` for a folded
    /// `step_joined`, `false` for a `step`.
    struct Logged<P> {
        inner: P,
        log: RefCell<Vec<(ProcessId, bool)>>,
    }

    impl<P: SyncProtocol> SyncProtocol for Logged<P> {
        type State = P::State;
        type Msg = P::Msg;
        const JOINS_INBOX: bool = P::JOINS_INBOX;

        fn name(&self) -> &str {
            self.inner.name()
        }
        fn init_state(&self, ctx: &ProtocolCtx) -> P::State {
            self.inner.init_state(ctx)
        }
        fn broadcast(&self, ctx: &ProtocolCtx, state: &P::State) -> P::Msg {
            self.inner.broadcast(ctx, state)
        }
        fn step(&self, ctx: &ProtocolCtx, state: &mut P::State, inbox: &Inbox<P::Msg>) {
            self.log.borrow_mut().push((ctx.me, false));
            self.inner.step(ctx, state, inbox);
        }
        fn join(&self, acc: &mut P::Msg, m: &P::Msg) {
            self.inner.join(acc, m);
        }
        fn step_joined(&self, ctx: &ProtocolCtx, state: &mut P::State, joined: &P::Msg) {
            self.log.borrow_mut().push((ctx.me, true));
            self.inner.step_joined(ctx, state, joined);
        }
        fn round_counter(&self, state: &P::State) -> Option<RoundCounter> {
            self.inner.round_counter(state)
        }
    }

    /// A receive-omitter is special, so it is outside every round's clean
    /// block: it steps unfolded on its whole row, while every ordinary
    /// receiver folds — and the run is the undeclared one.
    #[test]
    fn a_receiver_outside_the_block_steps_unfolded() {
        let (n, rounds, omitter) = (70, 4, ProcessId(66));
        let mut script = ScriptedOmission::new();
        for r in 1..=rounds as u64 {
            script.drop_at(r, ProcessId(r as usize), omitter, OmissionSide::Receiver);
        }
        let cfg = RunConfig::corrupted(n, rounds, 3);
        let runner = SyncRunner::new(Logged {
            inner: RoundAgreement,
            log: RefCell::new(Vec::new()),
        });
        let folded = runner.run(&mut script.clone(), &cfg).expect("valid config");
        let log = runner.protocol().log.borrow();
        assert_eq!(log.len(), n * rounds);
        for (i, &(p, joined)) in log.iter().enumerate() {
            assert_eq!(p, ProcessId(i % n));
            assert_eq!(joined, p != omitter, "round {}, {p}", i / n + 1);
        }
        let undeclared = SyncRunner::new(Undeclared(RoundAgreement))
            .run(&mut script.clone(), &cfg)
            .expect("valid config");
        assert_eq!(folded.history, undeclared.history);
        assert_eq!(folded.final_states, undeclared.final_states);
    }

    /// The two obligations of a declarer, on arbitrary (corrupted and
    /// forged) messages: `join` is commutative and associative, and
    /// `step` on an owned inbox of 1…9 senders is `step_joined` on the
    /// join of its messages — here folded in the opposite order.
    fn join_laws<P, S>(protocol: &P, state_of: impl Fn(u64) -> S)
    where
        P: SyncProtocol<State = S, Msg = u64>,
        S: PartialEq + Debug,
    {
        assert!(P::JOINS_INBOX);
        let join = |a: u64, b: u64| {
            let mut acc = a;
            protocol.join(&mut acc, &b);
            acc
        };
        forall(128, |g| {
            let (a, b, c): (u64, u64, u64) = (g.gen(), g.gen(), g.gen());
            assert_eq!(join(a, b), join(b, a));
            assert_eq!(join(join(a, b), c), join(a, join(b, c)));

            let msgs = g.vec(1, 9, |g| g.gen::<u64>());
            let envelopes = msgs.iter().enumerate();
            let inbox = Inbox::new(
                envelopes
                    .map(|(i, &m)| Envelope::new(ProcessId(i), Round::FIRST, m))
                    .collect(),
            );
            let ctx = ProtocolCtx::new(ProcessId(0), msgs.len());
            let start: u64 = g.gen();
            let (mut stepped, mut folded) = (state_of(start), state_of(start));
            protocol.step(&ctx, &mut stepped, &inbox);
            let joined = msgs.iter().rev().copied().reduce(join);
            protocol.step_joined(&ctx, &mut folded, &joined.expect("non-empty"));
            assert_eq!(stepped, folded, "inbox {msgs:?}");
        });
    }

    #[test]
    fn round_agreement_join_laws() {
        join_laws(&RoundAgreement, |c| RoundAgreementState {
            c: RoundCounter::new(c),
        });
    }

    #[test]
    fn bounded_round_agreement_join_laws() {
        for modulus in [2, 5, 1 << 40] {
            join_laws(&BoundedRoundAgreement::new(modulus), |c| BoundedState { c });
        }
    }
}
