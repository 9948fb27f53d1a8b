//! The five workloads, one module per user path.

mod check;
mod loadgen;
mod serve;
mod sim;
mod soak;
mod wire_ladder;

use crate::harness::Workload;
use crate::spec;

/// Sets a workload up from the run's seed: generates its inputs, builds
/// what verification compares against, and runs one shrunken warm-up
/// repetition. `smoke` shrinks repetitions, never `n` or the frame shape.
pub type Builder = fn(seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String>;

pub fn builder(name: &str) -> Result<Builder, String> {
    match name {
        spec::SIM => Ok(sim::setup),
        spec::CHECK => Ok(check::setup),
        spec::SOAK => Ok(soak::setup),
        spec::SERVE => Ok(serve::setup),
        spec::LOADGEN => Ok(loadgen::setup),
        other => {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            Err(format!(
                "unknown workload {other:?} (known: {})",
                known.join(", ")
            ))
        }
    }
}
