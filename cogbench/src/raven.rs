//! The RAVEN solve streams: closed-loop batches through
//! `NeurosymbolicSolver::solve_batch_with`, one call at a time.
//!
//! A pool of batches is generated from the seed before anything is timed; the
//! measured phase solves the whole pool once, each batch with its own solver
//! seed, and then keeps cycling through it until the phase has lasted
//! `--seconds` and made enough calls for the 90th percentile. The pool is sized
//! so that one pass takes about 18 s on a quiet host and fits a 30 s run on a
//! busy one. Accuracy is taken from the first pass, so it repeats exactly for
//! a given seed; a batch solved again must reproduce its first answers bit
//! for bit.

use crate::host::HostProbe;
use crate::layers;
use crate::report::{median, peak_rss_mb, percentile, ratio, Fingerprint, Report};
use crate::trace::Tracer;
use crate::{repeat_set_up, Fault, RunArgs, Size, Workload};
use cogsys_datasets::{DatasetKind, Problem, ProblemGenerator};
use cogsys_workloads::{
    NeurosymbolicSolver, SolveError, SolverConfig, SolverReport, SolverScratch, StageNanos,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Instant;

/// Shape of one RAVEN stream.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Hypervector dimension.
    pub dim: usize,
    /// Problems per engine call.
    pub batch: usize,
    /// Distinct batches in the input pool.
    pub pool_batches: usize,
    /// Fewest engine calls a measured phase makes.
    pub min_calls: u64,
    /// Set-ups per untraced run, half before and half after the measured phase
    /// (the median is reported).
    pub setup_reps: usize,
    /// Lowest acceptable reasoning accuracy.
    pub accuracy_floor: f64,
    /// Pool batches replayed through the factorizer probe.
    pub replay_batches: usize,
    /// Repetitions of each kernel and plan-compile probe.
    pub probe_reps: usize,
}

impl Spec {
    /// The stream for `workload` at `size`.
    pub fn new(workload: Workload, size: Size) -> Self {
        let full = Spec {
            dim: 2048,
            batch: 64,
            pool_batches: 352,
            min_calls: 100,
            setup_reps: 20,
            accuracy_floor: 0.80,
            replay_batches: 8,
            probe_reps: 21,
        };
        match (workload, size) {
            (Workload::RavenD4096, Size::Full) => Spec {
                dim: 4096,
                pool_batches: 544,
                accuracy_floor: 0.90,
                ..full
            },
            (_, Size::Full) => full,
            (w, Size::Tiny) => Spec {
                dim: if w == Workload::RavenD4096 { 1024 } else { 512 },
                batch: 4,
                pool_batches: 4,
                min_calls: 8,
                setup_reps: 2,
                accuracy_floor: 0.25,
                replay_batches: 2,
                probe_reps: 3,
            },
        }
    }

    /// Solver configuration: the default solver at this dimension.
    pub fn solver_config(&self) -> SolverConfig {
        SolverConfig {
            vector_dim: self.dim,
            ..SolverConfig::default()
        }
    }
}

/// One pool entry: the problems of an engine call and that call's solver seed.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Problems passed to the engine.
    pub problems: Vec<Problem>,
    /// Seed of the solver rng for this call.
    pub solve_seed: u64,
}

/// Generates the input pool from `seed` (outside any timed phase).
pub fn make_pool(seed: u64, spec: &Spec) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let generator = ProblemGenerator::new(DatasetKind::Raven);
    (0..spec.pool_batches.max(1))
        .map(|_| Batch {
            problems: generator.generate_batch(spec.batch, &mut rng),
            solve_seed: rng.next_u64(),
        })
        .collect()
}

/// First-pass result of one pool batch.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    fingerprint: u64,
    correct: usize,
    report: SolverReport,
}

/// Checks one answered batch and fingerprints its choices.
fn judge(
    problems: &[Problem],
    choices: &[usize],
    solved: &SolverReport,
    report: &mut Report,
) -> Outcome {
    report.check(choices.len() == problems.len(), || {
        format!("{} choices for {} problems", choices.len(), problems.len())
    });
    let mut fingerprint = Fingerprint::default();
    let mut correct = 0;
    for (problem, &choice) in problems.iter().zip(choices) {
        report.check(choice < problem.candidates.len(), || {
            format!(
                "choice {choice} out of range ({} candidates)",
                problem.candidates.len()
            )
        });
        correct += usize::from(problem.is_correct(choice));
        fingerprint.push(choice as u64);
    }
    report.check(
        solved.problems == problems.len() && solved.correct == correct,
        || {
            format!(
                "solver report says {}/{} correct, the answers say {correct}/{}",
                solved.correct,
                solved.problems,
                problems.len()
            )
        },
    );
    Outcome {
        fingerprint: fingerprint.value(),
        correct,
        report: *solved,
    }
}

/// Applies an injected fault to one batch of answers.
pub fn inject(fault: Fault, problems: &[Problem], choices: &mut [usize]) {
    match fault {
        Fault::None => {}
        Fault::WrongAnswers => {
            for (choice, problem) in choices.iter_mut().zip(problems) {
                *choice = (problem.answer_index + 1) % problem.candidates.len().max(1);
            }
        }
        Fault::OutOfRange => {
            if let (Some(choice), Some(problem)) = (choices.first_mut(), problems.first()) {
                *choice = problem.candidates.len();
            }
        }
    }
}

/// Everything a measured phase observed.
#[derive(Debug, Default)]
struct Phase {
    calls: u64,
    failed: u64,
    problems: u64,
    seconds: f64,
    call_ms: Vec<f64>,
    outcomes: Vec<Option<Outcome>>,
}

impl Phase {
    fn problems_per_s(&self) -> f64 {
        ratio(self.problems as f64, self.seconds, 0.0)
    }

    /// Fingerprint of the whole pool's first-pass choices.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::default();
        for outcome in self.outcomes.iter().flatten() {
            fp.push(outcome.fingerprint);
        }
        fp.value()
    }

    fn totals(&self) -> (usize, usize, SolverReport) {
        let mut solved = SolverReport::default();
        let (mut correct, mut problems) = (0, 0);
        for outcome in self.outcomes.iter().flatten() {
            correct += outcome.correct;
            problems += outcome.report.problems;
            solved.merge(&outcome.report);
        }
        (correct, problems, solved)
    }
}

/// The engine call of one pool batch: `solve_batch_with` untraced, or the
/// plan lookup plus `solve_batch_with_plan_timed` inside spans when traced.
pub(crate) fn solve_call(
    solver: &NeurosymbolicSolver,
    batch: &Batch,
    scratch: &mut SolverScratch,
    trace: Option<(&mut Tracer, &mut StageNanos)>,
    call: u64,
) -> Result<SolverReport, SolveError> {
    let mut rng = StdRng::seed_from_u64(batch.solve_seed);
    match trace {
        None => solver.solve_batch_with(&batch.problems, &mut rng, scratch),
        Some((tracer, stages)) => {
            let outer = tracer.enter("workloads.solve_call", call);
            let span = tracer.enter("workloads.plan_for_batch", call);
            let plan = solver.plan_for_batch(batch.problems.len());
            tracer.exit(span);
            let span = tracer.enter("workloads.solve_batch_with_plan_timed", call);
            let result = solver.solve_batch_with_plan_timed(
                &plan,
                &batch.problems,
                &mut rng,
                scratch,
                stages,
            );
            tracer.exit(span);
            tracer.exit(outer);
            result
        }
    }
}

/// Replays the pool: one whole pass, then on until `seconds` have passed and
/// `min_calls` calls were made.
#[allow(clippy::too_many_arguments)]
fn measure(
    solver: &NeurosymbolicSolver,
    scratch: &mut SolverScratch,
    pool: &[Batch],
    args: &RunArgs,
    spec: &Spec,
    mut trace: Option<(&mut Tracer, &mut StageNanos)>,
    probe: &mut HostProbe,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase {
        outcomes: vec![None; pool.len()],
        ..Phase::default()
    };
    let probed_before = probe.spent();
    let start = Instant::now();
    for (i, batch) in pool.iter().enumerate().cycle() {
        let t0 = Instant::now();
        let traced = trace.as_mut().map(|(t, s)| (&mut **t, &mut **s));
        let result = solve_call(solver, batch, scratch, traced, phase.calls);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        probe.tick();
        phase.calls += 1;
        phase.problems += batch.problems.len() as u64;
        match result {
            Ok(solved) => {
                phase.call_ms.push(ms);
                let mut choices = scratch.choices().to_vec();
                inject(args.fault, &batch.problems, &mut choices);
                let outcome = judge(&batch.problems, &choices, &solved, report);
                match phase.outcomes[i] {
                    None => phase.outcomes[i] = Some(outcome),
                    Some(first) => report.check(first.fingerprint == outcome.fingerprint, || {
                        format!("pool batch {i} answered differently on a later pass")
                    }),
                }
            }
            Err(e) => {
                phase.failed += 1;
                report.check(false, || {
                    format!("engine call failed on pool batch {i}: {e}")
                });
            }
        }
        if phase.calls >= pool.len() as u64
            && phase.calls >= spec.min_calls
            && start.elapsed().as_secs_f64() >= args.seconds
        {
            break;
        }
    }
    phase.seconds = (start.elapsed() - (probe.spent() - probed_before)).as_secs_f64();
    phase
}

/// Builds the solver, compiles the batch plan and makes the warm-up call.
fn set_up(
    spec: &Spec,
    args: &RunArgs,
    warm_up: &Batch,
    report: &mut Report,
) -> Option<((NeurosymbolicSolver, SolverScratch), f64)> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(args.codebook_seed);
    let solver = match NeurosymbolicSolver::try_new(spec.solver_config(), &mut rng) {
        Ok(solver) => solver,
        Err(e) => {
            report.check(false, || format!("solver construction failed: {e}"));
            return None;
        }
    };
    solver.plan_for_batch(spec.batch);
    let mut scratch = SolverScratch::default();
    let mut rng = StdRng::seed_from_u64(warm_up.solve_seed);
    if let Err(e) = solver.solve_batch_with(&warm_up.problems, &mut rng, &mut scratch) {
        report.check(false, || format!("warm-up call failed: {e}"));
        return None;
    }
    Some(((solver, scratch), start.elapsed().as_secs_f64()))
}

/// Records accuracy metrics and the accuracy floor check of a phase.
fn record_accuracy(phase: &Phase, spec: &Spec, report: &mut Report) {
    let (correct, problems, solved) = phase.totals();
    let accuracy = ratio(correct as f64, problems as f64, 0.0);
    report.set("accuracy", accuracy);
    report.set("factorization_accuracy", solved.factorization_accuracy());
    report.check(accuracy >= spec.accuracy_floor, || {
        format!(
            "accuracy {accuracy:.4} below the floor {}",
            spec.accuracy_floor
        )
    });
}

/// Runs a RAVEN stream workload.
pub fn run(args: &RunArgs, probe: &mut HostProbe) -> Report {
    let spec = Spec::new(args.workload, args.size);
    let mut report = Report::default();
    let pool = make_pool(args.seed, &spec);
    if !args.trace {
        let mut setups = Vec::new();
        let after = spec.setup_reps / 2;
        let Some((solver, mut scratch)) =
            repeat_set_up(spec.setup_reps - after, &mut setups, || {
                set_up(&spec, args, &pool[0], &mut report)
            })
        else {
            return report;
        };
        let phase = measure(
            &solver,
            &mut scratch,
            &pool,
            args,
            &spec,
            None,
            probe,
            &mut report,
        );
        drop((solver, scratch));
        // The other half of the set-ups runs after the measured phase, so that
        // a burst of host noise at one end of the run cannot set the median.
        repeat_set_up(after, &mut setups, || {
            set_up(&spec, args, &pool[0], &mut report)
        });
        report.attempted = phase.calls;
        report.failed = phase.failed;
        report.set("problems_per_s", phase.problems_per_s());
        report.set("call_ms_p50", percentile(&phase.call_ms, 0.5));
        report.set("call_ms_p90", percentile(&phase.call_ms, 0.9));
        record_accuracy(&phase, &spec, &mut report);
        report.set(
            "ok_frac",
            ratio((phase.calls - phase.failed) as f64, phase.calls as f64, 0.0),
        );
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
        return report;
    }

    // The traced run splits `--seconds` between an untraced and a traced
    // phase over the same half of the pool, so both see identical inputs.
    let pool = &pool[..pool.len().div_ceil(2)];
    let half = RunArgs {
        seconds: args.seconds / 2.0,
        ..*args
    };
    let Some(((solver, mut scratch), _)) = set_up(&spec, args, &pool[0], &mut report) else {
        return report;
    };
    let untraced = measure(
        &solver,
        &mut scratch,
        pool,
        &half,
        &spec,
        None,
        probe,
        &mut report,
    );
    let mut tracer = Tracer::default();
    let mut stages = StageNanos::default();
    let traced = measure(
        &solver,
        &mut scratch,
        pool,
        &half,
        &spec,
        Some((&mut tracer, &mut stages)),
        probe,
        &mut report,
    );
    report.check(traced.fingerprint() == untraced.fingerprint(), || {
        "traced run answered differently from the untraced run".to_string()
    });
    record_accuracy(&traced, &spec, &mut report);
    report.attempted = untraced.calls + traced.calls;
    report.failed = untraced.failed + traced.failed;

    let calls = traced.calls as f64;
    let call_ns = tracer.total_ns("workloads.solve_call") as f64;
    report.set("workloads.encode_ms", stages.encode as f64 / 1e6 / calls);
    report.set("workloads.decode_ms", stages.decode as f64 / 1e6 / calls);
    report.set("workloads.score_ms", stages.score as f64 / 1e6 / calls);
    report.set(
        "workloads.unattributed_frac",
        1.0 - ratio(stages.total() as f64, call_ns, 1.0),
    );
    let stats = solver.plan_cache_stats();
    report.set(
        "workloads.plan_cache_hit_frac",
        ratio(stats.hits as f64, (stats.hits + stats.misses) as f64, 0.0),
    );
    report.set(
        "workloads.plan_compile_us",
        layers::plan_compile_us(&solver, spec.batch, spec.probe_reps, &mut tracer),
    );
    let replay: Vec<&[Problem]> = pool
        .iter()
        .take(spec.replay_batches)
        .map(|b| b.problems.as_slice())
        .collect();
    let blocks = layers::factorizer_replay(&solver, &replay, args.seed, &mut tracer, &mut report);
    layers::record_blocks(&mut report, &blocks);
    let kernels = layers::vsa_kernels(
        &solver,
        spec.batch * NeurosymbolicSolver::CONTEXT_PANELS,
        spec.probe_reps,
        args.seed,
        &mut tracer,
    );
    layers::record_kernels(&mut report, &kernels);

    // The closed-loop client stands in for the serving front end: no queue,
    // no retries, no degradation, and the engine busy for all but the loop's
    // own bookkeeping.
    report.set(
        "serve.engine_frac",
        ratio(call_ns / 1e9, traced.seconds, 0.0),
    );
    report.set("serve.retry_work_frac", 0.0);
    report.set("serve.batch_mean", spec.batch as f64);
    report.set("serve.degraded_frac", 0.0);
    report.set("serve.shed", 0.0);
    report.set("serve.max_level", 0.0);
    report.set("serve.peak_queue_depth", 0.0);
    let untraced_rate = untraced.problems_per_s();
    report.set(
        "trace_overhead_frac",
        ratio(untraced_rate - traced.problems_per_s(), untraced_rate, 0.0),
    );
    eprint!("{}", tracer.summary());
    report
}
