//! Counterexample minimization.
//!
//! A violating tape rebuilt from a graph search path
//! ([`crate::frontier`]) may drop copies that have nothing to do with the
//! violation. The shrinker reduces it in
//! three deterministic passes, re-running the oracle after every
//! candidate edit so the violation is preserved by construction:
//!
//! 1. **choice-point truncation** — find the *shortest* prefix of the
//!    tape that still violates (everything past the tape defaults to
//!    "deliver", so truncation only removes drops);
//! 2. **greedy event deletion** — flip each remaining `drop` bit to
//!    `deliver`, keeping the flip iff the violation survives;
//! 3. **tail trimming** — strip trailing `deliver` bits (they equal the
//!    past-the-end default, so they carry no information).
//!
//! The result is 1-minimal: no single drop can be removed and no shorter
//! prefix suffices. Each pass is `O(len)` oracle runs — trivial at a
//! witness's length (`2·(n−1)` bits per round).

use crate::dfs::{Counterexample, DfsConfig};

/// Shrinks a violating tape to a minimal counterexample against `oracle`
/// — graph mode passes the Theorem-3 oracle
/// ([`check_tape`](crate::dfs::check_tape)), and for its
/// stabilization-time atom that oracle falling back to the Theorem-4 one,
/// whose violations the Theorem-3 oracle cannot always see. `tape` must
/// violate it; panics otherwise, because
/// "shrinking" a passing schedule is a harness bug.
pub fn shrink_with(
    cfg: &DfsConfig,
    tape: &[bool],
    oracle: impl Fn(&DfsConfig, &[bool]) -> Option<String>,
) -> Counterexample {
    let mut detail = oracle(cfg, tape).expect("shrink requires a violating schedule");
    let mut best: Vec<bool> = tape.to_vec();

    // Pass 1: shortest violating prefix.
    for k in 0..best.len() {
        if let Some(d) = oracle(cfg, &best[..k]) {
            best.truncate(k);
            detail = d;
            break;
        }
    }

    // Pass 2: greedy deletion of individual drops.
    for i in 0..best.len() {
        if !best[i] {
            continue;
        }
        best[i] = false;
        match oracle(cfg, &best) {
            Some(d) => detail = d,
            None => best[i] = true,
        }
    }

    // Pass 3: trailing delivers are the default — drop them.
    while best.last() == Some(&false) {
        best.pop();
    }

    Counterexample { tape: best, detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::check_tape;

    #[test]
    fn broken_oracle_shrinks_to_the_empty_tape() {
        // With the deliberately broken stabilization-0 oracle, the
        // corrupted start alone violates — no omission is needed — so any
        // violating tape must shrink to the empty schedule.
        let mut cfg = crate::dfs::tests::small(7);
        cfg.stabilization = 0;
        let noisy = vec![true, false, true, true, false, true];
        assert!(check_tape(&cfg, &noisy).is_some(), "seed must violate r=0");
        let ce = shrink_with(&cfg, &noisy, check_tape);
        assert!(ce.tape.is_empty(), "shrunk to {:?}", ce.tape);
        assert!(ce.detail.starts_with("thm3:"));
        // The shrunk schedule still violates, and deterministically so.
        assert_eq!(check_tape(&cfg, &ce.tape), Some(ce.detail.clone()));
    }
}
