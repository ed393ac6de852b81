//! Sustained-throughput serving loop: the cross-problem batched solving engine in its
//! steady state.
//!
//! Simulates a reasoning service draining an endless problem stream: problems arrive
//! in `batch`-sized chunks and every chunk flows through ONE
//! [`cogsys_workloads::NeurosymbolicSolver::solve_batch_with`] call — one encode over
//! all `8·batch` context panels, one factorize call per attribute block, one batched
//! answer-scoring pass — with a single [`cogsys_workloads::SolverScratch`] reused
//! across chunks, so after the first window the loop allocates (almost) nothing.
//! Because the batched engine draws rng per problem in sequential order, the answers
//! are identical to solving the stream one problem at a time; only the throughput
//! changes.
//!
//! Run with: `cargo run --release --example serve_stream [-- <batch> <windows>]`
//! (defaults: batch = 64 problems, windows = 4).

use cogsys_datasets::{DatasetKind, ProblemGenerator};
use cogsys_workloads::{NeurosymbolicSolver, SolverConfig, SolverReport, SolverScratch};
use std::time::Instant;

/// Parses a positive integer argument, or exits with a usage message — a typo
/// must not silently fall back to the default and misreport throughput.
fn parse_positive(value: Option<String>, name: &str, default: usize) -> usize {
    match value {
        None => default,
        Some(raw) => match raw.parse() {
            Ok(parsed) if parsed > 0 => parsed,
            _ => {
                eprintln!(
                    "invalid {name} `{raw}` (expected a positive integer)\n\
                     usage: serve_stream [-- <batch> <windows>]"
                );
                std::process::exit(2);
            }
        },
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let batch = parse_positive(args.next(), "batch", 64);
    let windows = parse_positive(args.next(), "windows", 4);
    if let Some(extra) = args.next() {
        eprintln!("unexpected argument `{extra}`\nusage: serve_stream [-- <batch> <windows>]");
        std::process::exit(2);
    }

    let mut rng = cogsys_vsa::rng(7);
    let config = SolverConfig::default();
    let solver = NeurosymbolicSolver::new(config, &mut rng);
    let generator = ProblemGenerator::new(DatasetKind::Raven);
    let mut scratch = SolverScratch::default();

    println!(
        "serve_stream — {} problems/batch ({} panel rows per factorize call), d = {}, backend = {}\n",
        batch,
        batch * 8,
        solver.config().vector_dim,
        solver.config().backend,
    );

    // Warm-up: one full-size batch so every scratch buffer reaches its steady-state
    // shape (ensure_shape reallocates on any shape change); excluded from the report.
    let warmup = generator.generate_batch(batch, &mut rng);
    solver
        .solve_batch_with(&warmup, &mut rng, &mut scratch)
        .expect("well-formed problems solve");

    let mut total = SolverReport::default();
    let mut total_seconds = 0.0f64;
    for window in 1..=windows {
        let problems = generator.generate_batch(batch, &mut rng);
        let start = Instant::now();
        let report = solver
            .solve_batch_with(&problems, &mut rng, &mut scratch)
            .expect("well-formed problems solve");
        let seconds = start.elapsed().as_secs_f64();
        total_seconds += seconds;
        total.merge(&report);
        println!(
            "window {window}: {:7.1} problems/s  ({:6.2} ms/batch, accuracy {:5.1} %, {} factorizer iterations, \
             rows {} converged / {} limit-cycle / {} capped ({} rescued))",
            batch as f64 / seconds,
            seconds * 1e3,
            100.0 * report.accuracy(),
            report.factorizer_iterations,
            report.rows_converged,
            report.rows_limit_cycle,
            report.rows_capped,
            report.rows_rescued,
        );
    }

    println!(
        "\nsustained: {:.1} problems/s over {} problems  (accuracy {:.1} %, factorization accuracy {:.1} %)",
        total.problems as f64 / total_seconds,
        total.problems,
        100.0 * total.accuracy(),
        100.0 * total.factorization_accuracy(),
    );
}
