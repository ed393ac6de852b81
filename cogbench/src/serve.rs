//! The adversarial serving workload: `ServeLoop` over a seeded
//! `TrafficShape::AdversarialMix` trace (malformed specs, bit-flipped values,
//! 4× bursts) with an arrival gap that engages the degradation ladder.
//!
//! The loop runs on its virtual clock, so its decisions (batches, levels,
//! shedding, retries) depend only on the trace and on the fixed
//! [`SERVICE_MODEL`]; only host time is measured. The engine is the real
//! `SolverEngine` behind a benchmark-side decorator that times every
//! `ChunkEngine::solve_chunk` call. The measured phase replays the trace in
//! whole passes, each through a fresh loop over the same engine; every pass must
//! resolve every request exactly as the first did.

use crate::host::HostProbe;
use crate::layers;
use crate::raven::{inject, solve_call, Batch};
use crate::report::{median, peak_rss_mb, percentile, ratio, Fingerprint, Report};
use crate::trace::Tracer;
use crate::{repeat_set_up, Fault, RunArgs, Size};
use cogsys_datasets::{DatasetKind, Problem};
use cogsys_serve::{
    ChunkEngine, ChunkResult, Counters, DegradationLevel, ExecutedChunk, Rejection, Request,
    Response, ServeConfig, ServeLoop, ServiceModel, SolverEngine, TraceConfig, TrafficShape,
};
use cogsys_workloads::{
    NeurosymbolicSolver, SolveError, SolverConfig, SolverReport, SolverScratch, StageNanos,
};
use std::time::Instant;

/// Virtual service-time model of the loop, fixed here so that the workload's
/// load never depends on a regenerated kernel sweep: 0.5 ms per engine call
/// plus 2 ms per problem, against a 1.5 ms base arrival gap.
pub const SERVICE_MODEL: ServiceModel = ServiceModel {
    micros_per_batch: 500,
    micros_per_problem: 2_000,
    stages: None,
};

/// Shape of the serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Hypervector dimension.
    pub dim: usize,
    /// Requests per trace pass.
    pub requests: usize,
    /// Fewest engine calls a measured phase makes.
    pub min_calls: u64,
    /// Set-ups per untraced run, half before and half after the measured phase
    /// (the median is reported).
    pub setup_reps: usize,
    /// Lowest acceptable accuracy of answered requests.
    pub accuracy_floor: f64,
    /// Batches of well-formed trace problems replayed through the factorizer probe.
    pub replay_batches: usize,
    /// Repetitions of each kernel and plan-compile probe.
    pub probe_reps: usize,
}

impl Spec {
    /// The workload at `size`.
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => Spec {
                dim: 2048,
                requests: 16384,
                min_calls: 100,
                setup_reps: 20,
                accuracy_floor: 0.70,
                replay_batches: 16,
                probe_reps: 21,
            },
            Size::Tiny => Spec {
                dim: 512,
                requests: 48,
                min_calls: 8,
                setup_reps: 2,
                accuracy_floor: 0.25,
                replay_batches: 2,
                probe_reps: 3,
            },
        }
    }

    /// Serving-loop configuration, every field pinned.
    pub fn serve_config(&self, args: &RunArgs) -> ServeConfig {
        ServeConfig {
            solver: SolverConfig {
                vector_dim: self.dim,
                ..SolverConfig::default()
            },
            codebook_seed: args.codebook_seed,
            chunk_seed: args.seed ^ 0x5EED_0000_0000,
            max_queue_depth: 64,
            max_batch: 16,
            retry_budget: 4,
            service: SERVICE_MODEL,
            degrade_depth: 48,
            recover_depth: 16,
        }
    }

    /// The trace: adversarial mix at a 1.5 ms base gap, every field pinned.
    pub fn trace_config(&self, seed: u64) -> TraceConfig {
        TraceConfig {
            shape: TrafficShape::AdversarialMix,
            requests: self.requests,
            interarrival_micros: 1_500,
            burst_multiplier: 4,
            phase_len: 32,
            poison_fraction: 0.15,
            scramble_fraction: 0.05,
            deadline_micros: 100_000,
            dataset: DatasetKind::Raven,
            seed,
        }
    }
}

/// One timed `solve_chunk` call.
#[derive(Debug, Clone, Copy)]
struct CallRecord {
    nanos: u64,
    problems: usize,
    ok: bool,
    retry: bool,
    unexpected: bool,
}

/// Benchmark-side decorator: times each engine call, optionally inside a span.
struct TimedEngine<'a> {
    inner: &'a mut SolverEngine,
    tracer: Option<&'a mut Tracer>,
    probe: &'a mut HostProbe,
    fault: Fault,
    calls: Vec<CallRecord>,
    solved: SolverReport,
    last_seed: Option<u64>,
}

impl ChunkEngine for TimedEngine<'_> {
    fn solve_chunk(
        &mut self,
        problems: &[Problem],
        seed: u64,
        level: DegradationLevel,
    ) -> Result<ChunkResult, SolveError> {
        let span = self
            .tracer
            .as_deref_mut()
            .map(|t| t.enter("serve.solve_chunk", seed));
        let start = Instant::now();
        let result = self.inner.solve_chunk(problems, seed, level);
        let nanos = start.elapsed().as_nanos() as u64;
        if let (Some(tracer), Some(span)) = (self.tracer.as_deref_mut(), span) {
            tracer.exit(span);
        }
        // The loop reuses a batch's seed on every retry of that batch.
        let retry = self.last_seed == Some(seed);
        self.last_seed = Some(seed);
        let unexpected = match &result {
            Ok(_) => false,
            Err(SolveError::Malformed { problem, .. }) => problems
                .get(*problem)
                .is_none_or(|p| NeurosymbolicSolver::validate_problem(p).is_ok()),
            Err(_) => true,
        };
        self.calls.push(CallRecord {
            nanos,
            problems: problems.len(),
            ok: result.is_ok(),
            retry,
            unexpected,
        });
        self.probe.tick();
        result.map(|mut chunk| {
            inject(self.fault, problems, &mut chunk.choices);
            self.solved.merge(&chunk.report);
            chunk
        })
    }
}

/// What one pass over the trace produced.
struct Pass {
    seconds: f64,
    responses: Vec<Response>,
    counters: Counters,
    calls: Vec<CallRecord>,
    solved: SolverReport,
    executed: Vec<ExecutedChunk>,
}

/// Serves the whole trace once through a fresh loop over `engine`.
fn serve_pass(
    engine: &mut SolverEngine,
    config: &ServeConfig,
    trace: &[Request],
    fault: Fault,
    tracer: Option<&mut Tracer>,
    probe: &mut HostProbe,
) -> Result<Pass, String> {
    let probed_before = probe.spent();
    let timed = TimedEngine {
        inner: engine,
        tracer,
        probe,
        fault,
        calls: Vec::new(),
        solved: SolverReport::default(),
        last_seed: None,
    };
    let mut serve = ServeLoop::with_engine(config.clone(), timed).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let responses = serve.run_trace(trace);
    let probed = serve.engine().probe.spent() - probed_before;
    let seconds = (start.elapsed() - probed).as_secs_f64();
    Ok(Pass {
        seconds,
        responses,
        counters: *serve.counters(),
        calls: serve.engine().calls.clone(),
        solved: serve.engine().solved,
        executed: serve.executed().to_vec(),
    })
}

/// Request-level tallies of one pass.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    fingerprint: u64,
    answered: usize,
    correct: usize,
    invalid: usize,
}

/// Checks every response of a pass against the trace.
fn judge(trace: &[Request], malformed: &[bool], pass: &Pass, report: &mut Report) -> Tally {
    let counters = &pass.counters;
    report.check(pass.responses.len() == trace.len(), || {
        format!(
            "{} responses for {} requests",
            pass.responses.len(),
            trace.len()
        )
    });
    report.check(
        counters.submitted == trace.len() && counters.accounted() == counters.submitted,
        || {
            format!(
                "{} requests submitted, {} accounted for",
                counters.submitted,
                counters.accounted()
            )
        },
    );
    let mut seen = vec![false; trace.len()];
    let mut fingerprint = Fingerprint::default();
    let mut tally = Tally::default();
    for response in &pass.responses {
        let id = response.id as usize;
        if id >= trace.len() || seen[id] {
            report.check(false, || {
                format!("response for unknown or repeated request {id}")
            });
            continue;
        }
        seen[id] = true;
        let problem = &trace[id].problem;
        let (code, choice) = match &response.outcome {
            Ok(answer) => {
                report.check(!malformed[id], || {
                    format!("malformed request {id} was answered")
                });
                report.check(answer.choice < problem.candidates.len(), || {
                    format!(
                        "request {id}: choice {} out of range ({} candidates)",
                        answer.choice,
                        problem.candidates.len()
                    )
                });
                tally.answered += 1;
                tally.correct += usize::from(problem.is_correct(answer.choice));
                (0, answer.choice as u64)
            }
            Err(Rejection::Invalid(_)) => {
                report.check(malformed[id], || {
                    format!("well-formed request {id} rejected as invalid")
                });
                tally.invalid += 1;
                (1, 0)
            }
            Err(Rejection::Failed(error)) => {
                report.check(
                    !malformed[id] || matches!(error, SolveError::Malformed { .. }),
                    || format!("malformed request {id} failed with {error}"),
                );
                (2, 0)
            }
            Err(Rejection::Overloaded { .. }) => (3, 0),
            Err(Rejection::DeadlineExpired { .. }) => (4, 0),
        };
        for word in [
            response.id,
            code,
            choice,
            u64::from(response.degradation.as_u8()),
        ] {
            fingerprint.push(word);
        }
    }
    tally.fingerprint = fingerprint.value();
    tally
}

/// Whole passes for at least `seconds` and `min_calls` engine calls.
struct Phase {
    passes: Vec<Pass>,
    first: Tally,
}

impl Pass {
    /// Trace requests resolved per host second.
    fn rate(&self) -> f64 {
        ratio(self.responses.len() as f64, self.seconds, 0.0)
    }

    /// Nearest-rank percentile of the answering engine calls, milliseconds.
    fn call_ms(&self, p: f64) -> f64 {
        let ms: Vec<f64> = self
            .calls
            .iter()
            .filter(|c| c.ok)
            .map(|c| c.nanos as f64 / 1e6)
            .collect();
        percentile(&ms, p)
    }
}

impl Phase {
    /// Median over passes of a per-pass statistic. Every pass makes the same
    /// decisions on the same trace, so what differs between passes is host
    /// noise, which the median keeps out.
    fn median_over_passes(&self, stat: impl Fn(&Pass) -> f64) -> f64 {
        median(&self.passes.iter().map(stat).collect::<Vec<_>>())
    }

    fn calls(&self) -> impl Iterator<Item = &CallRecord> {
        self.passes.iter().flat_map(|p| p.calls.iter())
    }
}

#[allow(clippy::too_many_arguments)]
fn measure(
    engine: &mut SolverEngine,
    config: &ServeConfig,
    trace: &[Request],
    malformed: &[bool],
    args: &RunArgs,
    spec: &Spec,
    mut tracer: Option<&mut Tracer>,
    probe: &mut HostProbe,
    report: &mut Report,
) -> Option<Phase> {
    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Option<Tally> = None;
    let mut calls = 0u64;
    let start = Instant::now();
    while passes.is_empty()
        || start.elapsed().as_secs_f64() < args.seconds
        || calls < spec.min_calls
    {
        let span = tracer
            .as_deref_mut()
            .map(|t| t.enter("serve.run_trace", passes.len() as u64));
        let pass = serve_pass(
            engine,
            config,
            trace,
            args.fault,
            tracer.as_deref_mut(),
            probe,
        );
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.exit(span);
        }
        let pass = match pass {
            Ok(pass) => pass,
            Err(e) => {
                report.check(false, || format!("serving loop construction failed: {e}"));
                return None;
            }
        };
        let tally = judge(trace, malformed, &pass, report);
        match first {
            None => first = Some(tally),
            Some(f) => report.check(f.fingerprint == tally.fingerprint, || {
                format!(
                    "pass {} resolved the trace differently from pass 0",
                    passes.len()
                )
            }),
        }
        calls += pass.calls.len() as u64;
        passes.push(pass);
    }
    Some(Phase {
        passes,
        first: first.unwrap_or_default(),
    })
}

/// Builds the engine and makes one full-size warm-up call.
fn set_up(
    config: &ServeConfig,
    warm_up: &[Problem],
    report: &mut Report,
) -> Option<(SolverEngine, f64)> {
    let start = Instant::now();
    let mut engine = match SolverEngine::new(config.solver.clone(), config.codebook_seed) {
        Ok(engine) => engine,
        Err(e) => {
            report.check(false, || format!("engine construction failed: {e}"));
            return None;
        }
    };
    if let Err(e) = engine.solve_chunk(warm_up, config.chunk_seed, DegradationLevel::Full) {
        report.check(false, || format!("warm-up call failed: {e}"));
        return None;
    }
    Some((engine, start.elapsed().as_secs_f64()))
}

/// Records the accuracy metrics and checks of a phase's first pass.
fn record_outcomes(phase: &Phase, trace_len: usize, spec: &Spec, report: &mut Report) {
    let first = &phase.first;
    let accuracy = ratio(first.correct as f64, first.answered as f64, 0.0);
    report.set("accuracy", accuracy);
    report.set(
        "factorization_accuracy",
        phase.passes[0].solved.factorization_accuracy(),
    );
    report.set(
        "ok_frac",
        ratio(
            (first.answered + first.invalid) as f64,
            trace_len as f64,
            0.0,
        ),
    );
    report.check(accuracy >= spec.accuracy_floor, || {
        format!(
            "accuracy {accuracy:.4} below the floor {}",
            spec.accuracy_floor
        )
    });
    let calls: Vec<&CallRecord> = phase.calls().collect();
    report.attempted += calls.len() as u64;
    report.failed += calls.iter().filter(|c| c.unexpected).count() as u64;
    report.check(calls.iter().all(|c| !c.unexpected), || {
        "an engine call failed with an error other than a correct rejection".to_string()
    });
}

/// Runs the serving workload.
pub fn run(args: &RunArgs, probe: &mut HostProbe) -> Report {
    let spec = Spec::new(args.size);
    let config = spec.serve_config(args);
    let mut report = Report::default();
    let trace = spec.trace_config(args.seed).generate();
    let malformed: Vec<bool> = trace
        .iter()
        .map(|r| NeurosymbolicSolver::validate_problem(&r.problem).is_err())
        .collect();
    let well_formed: Vec<Problem> = trace
        .iter()
        .zip(&malformed)
        .filter(|(_, &bad)| !bad)
        .map(|(r, _)| r.problem.clone())
        .collect();
    let warm_up = &well_formed[..config.max_batch.min(well_formed.len())];

    if !args.trace {
        let mut setups = Vec::new();
        let after = spec.setup_reps / 2;
        let Some(mut engine) = repeat_set_up(spec.setup_reps - after, &mut setups, || {
            set_up(&config, warm_up, &mut report)
        }) else {
            return report;
        };
        let Some(phase) = measure(
            &mut engine,
            &config,
            &trace,
            &malformed,
            args,
            &spec,
            None,
            probe,
            &mut report,
        ) else {
            return report;
        };
        drop(engine);
        // The other half of the set-ups runs after the measured phase, so that
        // a burst of host noise at one end of the run cannot set the median.
        repeat_set_up(after, &mut setups, || set_up(&config, warm_up, &mut report));
        report.set("problems_per_s", phase.median_over_passes(Pass::rate));
        report.set("call_ms_p50", phase.median_over_passes(|p| p.call_ms(0.5)));
        report.set("call_ms_p90", phase.median_over_passes(|p| p.call_ms(0.9)));
        record_outcomes(&phase, trace.len(), &spec, &mut report);
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
        return report;
    }

    // The traced run splits `--seconds` between an untraced and a traced phase.
    let half = RunArgs {
        seconds: args.seconds / 2.0,
        ..*args
    };
    let Some((mut engine, _)) = set_up(&config, warm_up, &mut report) else {
        return report;
    };
    let Some(untraced) = measure(
        &mut engine,
        &config,
        &trace,
        &malformed,
        &half,
        &spec,
        None,
        probe,
        &mut report,
    ) else {
        return report;
    };
    let mut tracer = Tracer::default();
    let Some(traced) = measure(
        &mut engine,
        &config,
        &trace,
        &malformed,
        &half,
        &spec,
        Some(&mut tracer),
        probe,
        &mut report,
    ) else {
        return report;
    };
    report.check(
        traced.first.fingerprint == untraced.first.fingerprint,
        || "traced run resolved the trace differently from the untraced run".to_string(),
    );
    record_outcomes(&untraced, trace.len(), &spec, &mut report);
    record_outcomes(&traced, trace.len(), &spec, &mut report);

    let stats = engine.plan_stats();
    report.set(
        "workloads.plan_cache_hit_frac",
        ratio(stats.hits as f64, (stats.hits + stats.misses) as f64, 0.0),
    );
    replay_stages(
        &engine,
        &trace,
        &traced.passes[0].executed,
        &mut tracer,
        &mut report,
    );
    let solver = engine.solver();
    report.set(
        "workloads.plan_compile_us",
        layers::plan_compile_us(solver, config.max_batch, spec.probe_reps, &mut tracer),
    );
    let replay: Vec<&[Problem]> = well_formed
        .chunks(config.max_batch)
        .take(spec.replay_batches)
        .collect();
    let blocks = layers::factorizer_replay(solver, &replay, args.seed, &mut tracer, &mut report);
    layers::record_blocks(&mut report, &blocks);
    let kernels = layers::vsa_kernels(
        solver,
        config.max_batch * NeurosymbolicSolver::CONTEXT_PANELS,
        spec.probe_reps,
        args.seed,
        &mut tracer,
    );
    layers::record_kernels(&mut report, &kernels);

    let first = &traced.passes[0];
    let counters = &first.counters;
    let solved: usize = first.calls.iter().map(|c| c.problems).sum();
    let resolved: usize = first
        .calls
        .iter()
        .filter(|c| c.retry)
        .map(|c| c.problems)
        .sum();
    let ok_calls: Vec<&CallRecord> = first.calls.iter().filter(|c| c.ok).collect();
    report.set(
        "serve.engine_frac",
        ratio(
            tracer.total_ns("serve.solve_chunk") as f64,
            tracer.total_ns("serve.run_trace") as f64,
            0.0,
        ),
    );
    report.set(
        "serve.retry_work_frac",
        ratio(resolved as f64, solved as f64, 0.0),
    );
    report.set(
        "serve.batch_mean",
        ratio(
            ok_calls.iter().map(|c| c.problems).sum::<usize>() as f64,
            ok_calls.len() as f64,
            0.0,
        ),
    );
    report.set(
        "serve.degraded_frac",
        ratio(
            counters.degraded_batches as f64,
            counters.batches as f64,
            0.0,
        ),
    );
    report.set("serve.shed", counters.shed as f64);
    report.set("serve.max_level", f64::from(counters.max_level));
    report.set("serve.peak_queue_depth", counters.peak_queue_depth as f64);
    let untraced_rate = untraced.median_over_passes(Pass::rate);
    let traced_rate = traced.median_over_passes(Pass::rate);
    report.set(
        "trace_overhead_frac",
        ratio(untraced_rate - traced_rate, untraced_rate, 0.0),
    );
    eprint!("{}", tracer.summary());
    report
}

/// Replays the executed batches of one served pass through
/// `solve_batch_with_plan_timed` on the solver of each batch's rung (the same
/// iteration-capped clones the engine derives), records the stage split, and
/// checks that every replay reproduces the served answers.
fn replay_stages(
    engine: &SolverEngine,
    trace: &[Request],
    executed: &[ExecutedChunk],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let full = engine.solver();
    let budget = full.config().factorizer.max_iterations;
    let reduced =
        full.with_iteration_cap(DegradationLevel::ReducedIterations.iteration_cap(budget));
    let coarse = full.with_iteration_cap(DegradationLevel::CoarseCleanup.iteration_cap(budget));
    let mut scratch = SolverScratch::default();
    let mut stages = StageNanos::default();
    for (call, chunk) in executed.iter().enumerate() {
        let solver = match chunk.level {
            DegradationLevel::Full | DegradationLevel::HalvedBatch => full,
            DegradationLevel::ReducedIterations => &reduced,
            DegradationLevel::CoarseCleanup => &coarse,
        };
        let batch = Batch {
            problems: chunk
                .ids
                .iter()
                .map(|&id| trace[id as usize].problem.clone())
                .collect(),
            solve_seed: chunk.seed,
        };
        let traced = Some((&mut *tracer, &mut stages));
        match solve_call(solver, &batch, &mut scratch, traced, call as u64) {
            Ok(_) => report.check(scratch.choices() == chunk.choices.as_slice(), || {
                format!("replay of served batch {call} answered differently")
            }),
            Err(e) => report.check(false, || {
                format!("replay of served batch {call} failed: {e}")
            }),
        }
    }
    let calls = executed.len() as f64;
    let call_ns = tracer.total_ns("workloads.solve_call") as f64;
    report.set(
        "workloads.encode_ms",
        ratio(stages.encode as f64 / 1e6, calls, 0.0),
    );
    report.set(
        "workloads.decode_ms",
        ratio(stages.decode as f64 / 1e6, calls, 0.0),
    );
    report.set(
        "workloads.score_ms",
        ratio(stages.score as f64 / 1e6, calls, 0.0),
    );
    report.set(
        "workloads.unattributed_frac",
        1.0 - ratio(stages.total() as f64, call_ns, 1.0),
    );
}
