//! Replayable schedule files.
//!
//! A counterexample is only worth anything if it can be re-executed. The
//! schedule file is a small line-based text format carrying everything a
//! run is a function of — the [`DfsConfig`] and the omission tape — plus
//! the verdict it produced, so replay can confirm the violation
//! reproduces. Because both simulators are pure functions of their
//! configuration, replaying a schedule through the telemetry
//! [`JsonlSink`](ftss::telemetry::JsonlSink) yields **byte-identical**
//! traces on every execution; `ftss-lab check --replay` and the
//! `check_determinism` integration test rely on exactly that.
//!
//! Format (one `key: value` per line, fixed order, `#` comments and blank
//! lines ignored):
//!
//! ```text
//! ftss-check schedule v1
//! protocol: round-agreement
//! mode: graph
//! n: 3
//! rounds: 2
//! corruption-seed: 7
//! faulty: 0
//! tape-bound: 8
//! stabilization: 0
//! tape: 0110
//! detail: thm3: ...
//! ```
//!
//! The tape is a `0`/`1` string (`-` for the empty tape). `detail` is the
//! oracle's one-line verdict at the time the file was written.
//!
//! Counterexamples found by the graph explorer ([`crate::frontier`])
//! carry the `mode: graph` line after `protocol` — the tape is a witness
//! reconstructed from the state-graph search path. Files without the
//! line were written by an earlier tape enumerator (`mode: enum`, the
//! default); they still parse and replay, since replay is identical
//! either way (a witness is a plain omission tape) and the marker only
//! records provenance.
//!
//! The parser is strict: unknown keys, duplicate keys, trailing
//! `key: value` garbage, a system no mode explores (`n` outside
//! `2..=MAX_GRAPH_N`, `faulty ≥ n`) and a round count no writer reaches
//! (`rounds` outside `1..=MAX_SCHEDULE_ROUNDS`) are all rejected — a schedule file
//! that parses is exactly one a v1 writer (graph mode, or the earlier
//! enumerator) would write.

use crate::dfs::{run_tape, Counterexample, DfsConfig};
use crate::fingerprint::MAX_GRAPH_N;
use crate::oracle::{thm3_round_agreement, thm4_decided, Verdict};
use ftss::core::{ProcessId, RateAgreementSpec};
use ftss::telemetry::TraceSink;

/// The version line every schedule file starts with.
const HEADER: &str = "ftss-check schedule v1";

/// The most rounds a schedule file may name. A graph witness's rounds are
/// its search depth, and a search closes a few layers after the stable
/// window's length saturates at `stabilization + 2 ≤ 255` (depth 256 at
/// stabilization 253, n = 3, 4 and 5); the earlier tape enumerator's
/// tapes were shorter still. A replay records every round unwindowed, so
/// a file naming more is refused rather than run.
const MAX_SCHEDULE_ROUNDS: u64 = 1024;

/// The keys this version writes — and the only ones it accepts.
const KNOWN_KEYS: [&str; 10] = [
    "protocol",
    "mode",
    "n",
    "rounds",
    "corruption-seed",
    "faulty",
    "tape-bound",
    "stabilization",
    "tape",
    "detail",
];

/// How the counterexample was found (provenance marker, not replay
/// behavior — both modes replay as plain omission tapes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Found by the tape enumerator earlier versions shipped: the parse
    /// of a file with no `mode` line (the v1 spelling), or `mode: enum`.
    /// Serialized with no `mode` line, so such files keep their bytes.
    #[default]
    Enum,
    /// Reconstructed from a graph-exploration search path
    /// ([`crate::frontier`]); serialized as `mode: graph`.
    Graph,
}

/// A parsed (or about-to-be-written) schedule file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleFile {
    /// The configuration the run is a function of.
    pub cfg: DfsConfig,
    /// How the counterexample was found.
    pub mode: ScheduleMode,
    /// The omission tape.
    pub tape: Vec<bool>,
    /// The verdict recorded when the file was written.
    pub detail: String,
}

impl ScheduleFile {
    /// Packages a graph-mode counterexample for writing.
    pub fn graph(cfg: DfsConfig, ce: Counterexample) -> Self {
        ScheduleFile {
            cfg,
            mode: ScheduleMode::Graph,
            tape: ce.tape,
            detail: ce.detail,
        }
    }

    /// Renders the file. Deterministic: equal values, equal bytes.
    pub fn serialize(&self) -> String {
        let tape: String = if self.tape.is_empty() {
            "-".into()
        } else {
            self.tape
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect()
        };
        let mode = match self.mode {
            ScheduleMode::Enum => String::new(), // v1 spelling: no line
            ScheduleMode::Graph => "mode: graph\n".into(),
        };
        format!(
            "{HEADER}\n\
             protocol: round-agreement\n\
             {mode}\
             n: {}\n\
             rounds: {}\n\
             corruption-seed: {}\n\
             faulty: {}\n\
             tape-bound: {}\n\
             stabilization: {}\n\
             tape: {tape}\n\
             detail: {}\n",
            self.cfg.n,
            self.cfg.rounds,
            self.cfg.corruption_seed,
            self.cfg.faulty.index(),
            self.cfg.tape_bound,
            self.cfg.stabilization,
            self.detail.replace('\n', "; "),
        )
    }

    /// Parses a schedule file, rejecting unknown versions, missing or
    /// duplicate keys, malformed values, and a system size, faulty
    /// process or round count no mode writes.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some(h) if h == HEADER => {}
            Some(h) => return Err(format!("unsupported schedule header: {h:?}")),
            None => return Err("empty schedule file".into()),
        }
        let mut fields: Vec<(String, String)> = Vec::new();
        for line in lines {
            let (k, v) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed schedule line: {line:?}"))?;
            let k = k.trim();
            if !KNOWN_KEYS.contains(&k) {
                return Err(format!("schedule file holds unknown key {k:?}"));
            }
            fields.push((k.to_string(), v.trim().to_string()));
        }
        let take = |key: &str| -> Result<String, String> {
            let mut hits = fields.iter().filter(|(k, _)| k == key);
            let v = hits
                .next()
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("schedule file missing {key:?}"))?;
            if hits.next().is_some() {
                return Err(format!("schedule file repeats {key:?}"));
            }
            Ok(v)
        };
        let num = |key: &str| -> Result<u64, String> {
            take(key)?
                .parse::<u64>()
                .map_err(|e| format!("schedule field {key:?}: {e}"))
        };
        let protocol = take("protocol")?;
        if protocol != "round-agreement" {
            return Err(format!("unsupported schedule protocol: {protocol:?}"));
        }
        // `mode` is optional: absent means enum (v1 files predate it).
        let mode = match fields.iter().filter(|(k, _)| k == "mode").count() {
            0 => ScheduleMode::Enum,
            1 => match take("mode")?.as_str() {
                "enum" => ScheduleMode::Enum,
                "graph" => ScheduleMode::Graph,
                other => return Err(format!("unsupported schedule mode: {other:?}")),
            },
            _ => return Err("schedule file repeats \"mode\"".into()),
        };
        let tape_text = take("tape")?;
        let tape = if tape_text == "-" {
            Vec::new()
        } else {
            tape_text
                .chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    other => Err(format!("schedule tape holds {other:?}, want 0/1")),
                })
                .collect::<Result<Vec<bool>, String>>()?
        };
        // Both modes wrote 2 ≤ n ≤ MAX_GRAPH_N (the enumerator stopped at
        // 4) and a faulty process inside the system.
        let n = num("n")?;
        if !(2..=MAX_GRAPH_N as u64).contains(&n) {
            return Err(format!("schedule n = {n} is outside 2..={MAX_GRAPH_N}"));
        }
        let faulty = num("faulty")?;
        if faulty >= n {
            return Err(format!(
                "schedule faulty = {faulty} is not a process of n = {n}"
            ));
        }
        // A witness reaches its violation in some round, within the
        // ceiling.
        let rounds = num("rounds")?;
        if !(1..=MAX_SCHEDULE_ROUNDS).contains(&rounds) {
            return Err(format!(
                "schedule rounds = {rounds} is outside 1..={MAX_SCHEDULE_ROUNDS}"
            ));
        }
        Ok(ScheduleFile {
            cfg: DfsConfig {
                n: n as usize,
                rounds: rounds as usize,
                corruption_seed: num("corruption-seed")?,
                faulty: ProcessId(faulty as usize),
                tape_bound: num("tape-bound")? as usize,
                stabilization: num("stabilization")? as usize,
            },
            mode,
            tape,
            detail: take("detail")?,
        })
    }

    /// Re-executes the schedule, tracing the run into `sink`, and returns
    /// the fresh verdict. A written counterexample reproduces iff this
    /// equals `Some(self.detail)`.
    ///
    /// A recorded `thm4:` verdict (graph mode's stabilization-time atom)
    /// replays through the Theorem-4 oracle when the Theorem-3 oracle is
    /// silent — such schedules violate stabilization time without
    /// violating any Definition-2.4 obligation.
    pub fn replay(&self, sink: &mut impl TraceSink) -> Verdict {
        let (out, _) = run_tape(&self.cfg, &self.tape, sink);
        let r = self.cfg.stabilization;
        thm3_round_agreement(&out.history, r).or_else(|| {
            if self.detail.starts_with("thm4:") {
                thm4_decided(&out.history, &RateAgreementSpec::new(), r)
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use ftss_rng::Rng;

    fn sample() -> ScheduleFile {
        let mut cfg = crate::dfs::tests::small(7);
        cfg.stabilization = 0;
        ScheduleFile {
            cfg,
            mode: ScheduleMode::Enum,
            tape: vec![false, true, true, false],
            detail: "thm3: something failed".into(),
        }
    }

    #[test]
    fn serialize_parse_round_trips() {
        let f = sample();
        let text = f.serialize();
        assert_eq!(ScheduleFile::parse(&text).unwrap(), f);
        // Empty tapes round-trip through the `-` spelling.
        let mut empty = sample();
        empty.tape.clear();
        assert_eq!(ScheduleFile::parse(&empty.serialize()).unwrap(), empty);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ScheduleFile::parse("").is_err());
        assert!(ScheduleFile::parse("ftss-check schedule v2\n").is_err());
        let missing = sample().serialize().replace("rounds: 2\n", "");
        assert!(ScheduleFile::parse(&missing).is_err());
        let dup = format!("{}n: 9\n", sample().serialize());
        assert!(ScheduleFile::parse(&dup).is_err());
        let bad_tape = sample().serialize().replace("tape: 0110", "tape: 01x0");
        assert!(ScheduleFile::parse(&bad_tape).is_err());
    }

    #[test]
    fn graph_mode_round_trips_and_legacy_bytes_are_unchanged() {
        let f = ScheduleFile {
            mode: ScheduleMode::Graph,
            ..sample()
        };
        let text = f.serialize();
        assert!(text.contains("\nmode: graph\n"), "{text}");
        assert_eq!(ScheduleFile::parse(&text).unwrap(), f);
        // An explicit `mode: enum` parses; absence means the same thing,
        // and Enum files serialize WITHOUT the line (legacy bytes).
        let enum_text = sample().serialize();
        assert!(!enum_text.contains("mode:"), "{enum_text}");
        let explicit = enum_text.replace(
            "protocol: round-agreement\n",
            "protocol: round-agreement\nmode: enum\n",
        );
        assert_eq!(ScheduleFile::parse(&explicit).unwrap(), sample());
        let bad = enum_text.replace(
            "protocol: round-agreement\n",
            "protocol: round-agreement\nmode: dfs\n",
        );
        assert!(ScheduleFile::parse(&bad).is_err());
    }

    #[test]
    fn parse_rejects_unknown_keys_and_trailing_fields() {
        // Trailing well-formed `key: value` garbage used to be silently
        // ignored; now every key must be one this version writes.
        let trailing = format!("{}x-extra: 1\n", sample().serialize());
        let err = ScheduleFile::parse(&trailing).unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        let interior = sample()
            .serialize()
            .replace("faulty: 0\n", "faulty: 0\nnote: hand-edited\n");
        assert!(ScheduleFile::parse(&interior).is_err());
    }

    /// Forall fuzz, PR-7 framing discipline: random configurations
    /// round-trip exactly; any single injected unknown line flips the
    /// parse to an error; arbitrary mutations never panic.
    #[test]
    fn forall_round_trip_and_mutation_fuzz() {
        ftss_rng::check::forall(80, |g| {
            let n = g.gen_range(2..=MAX_GRAPH_N as u64) as usize;
            let f = ScheduleFile {
                cfg: DfsConfig {
                    n,
                    rounds: g.gen_range(1..9u64) as usize,
                    corruption_seed: g.next_u64(),
                    faulty: ftss::core::ProcessId(g.gen_range(0..n as u64) as usize),
                    tape_bound: g.gen_range(0..21u64) as usize,
                    stabilization: g.gen_range(0..3u64) as usize,
                },
                mode: if g.gen_bool(0.5) {
                    ScheduleMode::Graph
                } else {
                    ScheduleMode::Enum
                },
                tape: g.vec(0, 24, |g| g.gen_bool(0.5)),
                detail: "thm3: fuzz".into(),
            };
            let text = f.serialize();
            assert_eq!(ScheduleFile::parse(&text).unwrap(), f);

            // Inject an unknown key at a random line boundary: must error.
            let mut lines: Vec<&str> = text.lines().collect();
            let at = 1 + g.gen_range(0..lines.len() as u64 - 1) as usize;
            lines.insert(at, "bogus-key: 1");
            assert!(ScheduleFile::parse(&lines.join("\n")).is_err());

            // Random byte mutation: may parse or not, must never panic.
            let mut bytes = text.into_bytes();
            let at = g.gen_range(0..bytes.len() as u64) as usize;
            bytes[at] = (g.next_u64() & 0x7f) as u8;
            if let Ok(mutated) = String::from_utf8(bytes) {
                let _ = ScheduleFile::parse(&mutated);
            }
        });
    }

    #[test]
    fn replay_reproduces_the_recorded_verdict() {
        // Build a real counterexample via the broken oracle, write it,
        // parse it back, replay it: same one-line verdict.
        let mut cfg = crate::dfs::tests::small(7);
        cfg.stabilization = 0;
        let detail = crate::dfs::check_tape(&cfg, &[]).expect("violates r=0");
        let f = ScheduleFile {
            cfg,
            mode: ScheduleMode::Enum,
            tape: Vec::new(),
            detail: detail.clone(),
        };
        let parsed = ScheduleFile::parse(&f.serialize()).unwrap();
        assert_eq!(parsed.replay(&mut ftss::telemetry::NullSink), Some(detail));
    }

    /// What no mode writes is refused at parse time: each of these once
    /// reached the run and panicked (`faulty` outside the universe,
    /// `n = 0`), aborted on a terabyte allocation (`n = 3000000`), or
    /// replayed `u64::MAX` rounds into an unwindowed history (`rounds`;
    /// `rounds: 0` replayed a run of no round).
    #[test]
    fn parse_rejects_a_system_no_mode_writes() {
        let text = sample().serialize();
        for (from, to, want) in [
            ("faulty: 0\n", "faulty: 3\n", "not a process of n = 3"),
            ("n: 3\n", "n: 0\n", "outside 2..=6"),
            ("n: 3\n", "n: 1\n", "outside 2..=6"),
            ("n: 3\n", "n: 7\n", "outside 2..=6"),
            ("n: 3\n", "n: 3000000\n", "outside 2..=6"),
            ("rounds: 2\n", "rounds: 0\n", "outside 1..=1024"),
            ("rounds: 2\n", "rounds: 1025\n", "outside 1..=1024"),
            (
                "rounds: 2\n",
                "rounds: 18446744073709551615\n",
                "outside 1..=1024",
            ),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text);
            let err = ScheduleFile::parse(&bad).unwrap_err();
            assert!(err.contains(want), "{to:?}: {err}");
        }
    }
}
