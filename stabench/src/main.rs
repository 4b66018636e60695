//! Seeded benchmark of the sta-repro analyser.
//!
//! ```text
//! cargo run --release --manifest-path stabench/Cargo.toml -- \
//!     --workload cold-nworst --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root. Each run builds its inputs from the seed,
//! measures for `--seconds`, checks every result and prints one JSON
//! object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is a separate run of the same inputs
//! that times each layer from outside and reports the per-layer metrics.
//! See `stabench/README.md`.

mod cold;
mod common;
mod eco;
mod mcmm;
mod stats;
mod trace;

use std::process::ExitCode;

use common::{Args, Ctx};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("stabench: {msg}");
            eprintln!("usage: stabench --workload cold-nworst|eco-session --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let ctx = match Ctx::new(args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("stabench: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match ctx.args.workload.as_str() {
        "cold-nworst" => cold::run(&ctx),
        "eco-session" => eco::run(&ctx),
        other => unreachable!("workload {other} was validated by Args::parse"),
    };
    match ctx.finish(outcome) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("stabench: {msg}");
            ExitCode::from(2)
        }
    }
}
