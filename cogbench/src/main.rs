//! Benchmark command.
//!
//! ```text
//! cogbench --workload <raven_d2048|raven_d4096|serve_adversarial> --seed <n>
//!          --seconds <s> --trace <0|1> [--codebook-seed <n>] [--size full|tiny]
//! ```
//!
//! Prints one JSON object as the last line of standard output: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. Exits 1 when
//! a correctness check fails (after printing the result with `"correct":
//! false`) and 2 on a usage error.

use cogsys_cogbench::{run, Fault, RunArgs, Size, Workload, DEFAULT_CODEBOOK_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: cogbench --workload <raven_d2048|raven_d4096|serve_adversarial> \
--seed <n> --seconds <s> --trace <0|1> [--codebook-seed <n>] [--size full|tiny]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut codebook_seed = DEFAULT_CODEBOOK_SEED;
    let mut size = Size::Full;
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("invalid value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--codebook-seed" => codebook_seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        codebook_seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        size,
        fault: Fault::None,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&args);
    let line = report.to_json(args.trace);
    let raw: Vec<String> = report
        .raw
        .iter()
        .map(|(name, value, unit)| format!("{name}={value:.6} {unit}"))
        .collect();
    eprintln!(
        "host slowdown factor {:.4}; as measured: {}",
        report.host_factor,
        raw.join(", ")
    );
    for violation in report.violations.iter().take(20) {
        eprintln!("check failed: {violation}");
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
