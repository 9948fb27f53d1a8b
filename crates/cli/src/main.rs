//! `ftss-lab` — run any protocol of the Gopal–Perry reproduction from the
//! command line, with chosen parameters, and check the paper's properties
//! on the run.
//!
//! ```text
//! ftss-lab round-agreement --n 8 --rounds 12 --seed 7 --omit-p 0.5
//! ftss-lab compile --pi phase-king --f 1 --n 5 --rounds 24 --crash 4@3
//! ftss-lab consensus --n 5 --corrupt true --crash 2@5000
//! ftss-lab detector --n 4 --crash 3@500 --poison true
//! ftss-lab theorem1 --r 8
//! ftss-lab theorem2 --rounds 8
//! ftss-lab token-ring --n 5 --rounds 80
//! ftss-lab trace --protocol round-agreement --rounds 8 --seed 1
//! ftss-lab trace --protocol detector --crash 3@500 --out run.jsonl
//! ftss-lab serve --protocol round-agreement --transport tcp --storm default --epochs 2
//! ftss-lab loadgen --transport tcp --n 4 --rounds 48 --out run.latency.json
//! ftss-lab stats --in run.jsonl --format csv
//! ftss-lab sweep --exp e1 --seeds 5 --max-n 16 --jobs 4
//! ftss-lab sweep --doc EXPERIMENTS.md | cmp - EXPERIMENTS.md
//! ftss-lab soak --plan worst-case --epochs 4 --jobs 4 --out run.soak.jsonl
//! ```
//!
//! Exit code 0 means every checked property held; 1 means a violation was
//! found (printed); 2 means a usage error.

mod args;
mod commands;
mod experiments;

use args::Args;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
    };
    if args.flag("help").unwrap_or(false) {
        println!("{}", commands::usage());
        return;
    }
    // Dispatch through the command registry — the same table the help
    // text is generated from, so the two cannot drift apart.
    let outcome = match commands::COMMANDS
        .iter()
        .find(|c| c.name == args.command.as_str())
    {
        Some(c) => (c.run)(&args),
        None => match args.command.as_str() {
            "" | "help" | "--help" | "-h" => {
                println!("{}", commands::usage());
                return;
            }
            other => {
                eprintln!("error: unknown command `{other}`\n");
                eprintln!("{}", commands::usage());
                std::process::exit(2);
            }
        },
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
