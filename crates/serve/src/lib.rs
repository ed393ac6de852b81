//! # cogsys-serve — fault-tolerant serving front end
//!
//! Wraps the batched reasoning engine
//! ([`cogsys_workloads::NeurosymbolicSolver::solve_batch_with`]) in a serving
//! loop with the robustness properties a deployed accelerator front end needs:
//!
//! * **intake queue + dynamic batch former** — requests arrive on a virtual
//!   clock, wait in a bounded queue, and are coalesced into cache-resident
//!   chunks sized by the current degradation level;
//! * **admission control & backpressure** — a malformed request is answered
//!   [`Rejection::Invalid`] on arrival and never queued, so it costs no engine
//!   call; well-formed arrivals beyond the queue bound are shed immediately with
//!   [`Rejection::Overloaded`] instead of growing the tail;
//! * **deadlines** — requests whose deadline passes in the queue are dropped at
//!   batch formation; answers landing past the deadline are flagged;
//! * **graceful degradation** — a four-rung ladder
//!   ([`DegradationLevel`]: full → halved batches → reduced factorizer
//!   iterations → coarse single-pass cleanup) engaged by queue-depth
//!   watermarks, recorded on every response;
//! * **bounded retry** — a transient fault re-runs the unchanged batch under a
//!   bounded retry budget; any other engine error fails the batch at once.
//!
//! The loop is single-core and fully deterministic: time is virtual (a
//! discrete-event clock driven by a service-time model) and every chunk's
//! solver randomness comes from a seed fixed at formation time — so level-0
//! responses are decision-identical to calling the solver directly on the same
//! problems, and the [`ExecutedChunk`] log replays bit-for-bit.
//!
//! # Example
//!
//! ```rust
//! use cogsys_serve::{ServeConfig, ServeLoop, TraceConfig};
//!
//! let mut config = ServeConfig::default();
//! config.solver.vector_dim = 256; // keep the doctest quick
//! let mut serve = ServeLoop::with_solver(config).expect("valid config");
//! let trace = TraceConfig::steady(8).generate();
//! let responses = serve.run_trace(&trace);
//! assert_eq!(responses.len(), 8);
//! assert_eq!(serve.counters().accounted(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod chaos;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod request;
pub mod trace;

pub use chaos::{ChaosConfig, ChaosEngine, ChaosStats};
pub use engine::{ChunkEngine, ChunkResult, DegradationLevel, SolverEngine};
pub use error::{Rejection, ServeError};
pub use metrics::{Counters, WindowStats};
pub use request::{Answer, Request, Response};
pub use trace::{parse_recorded_arrivals, TraceConfig, TrafficShape};

use cogsys::CogSysConfig;
use cogsys_workloads::{NeurosymbolicSolver, SolveError, SolverConfig};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One fitted plan stage: fixed per-invocation overhead plus marginal cost per
/// problem, in virtual microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageFit {
    /// Fixed per-invocation overhead of this stage, virtual micros.
    pub micros_per_batch: u64,
    /// Marginal cost per problem of this stage, virtual micros.
    pub micros_per_problem: u64,
}

/// Virtual service-time model of one engine invocation.
///
/// The CI machine has one core, so serving is simulated on a discrete-event
/// clock rather than measured. Without per-stage fits, a batch of `n` problems
/// at level `L` costs `micros_per_batch + n * micros_per_problem /
/// L.service_divisor()` virtual microseconds (plus any chaos-injected
/// latency). When the bench sweep provides `plan_stage_{encode,decode,score}`
/// cells, [`ServiceModel::stages`] holds one [`StageFit`] per compiled plan
/// stage and the degradation divisor applies only to the decode stage — the
/// reduced-iteration rungs of the ladder shrink factorizer work, not encoding
/// or scoring. A failed attempt costs `micros_per_batch` of overhead either
/// way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Fixed per-invocation overhead, virtual micros.
    pub micros_per_batch: u64,
    /// Marginal cost per problem at full service, virtual micros.
    pub micros_per_problem: u64,
    /// Per-stage fits (encode, decode, score) when the bench sweep exposed
    /// plan-stage cells; `None` falls back to the whole-chunk model above.
    #[serde(default)]
    pub stages: Option<[StageFit; 3]>,
}

impl Default for ServiceModel {
    fn default() -> Self {
        Self {
            micros_per_batch: 500,
            micros_per_problem: 2_000,
            stages: None,
        }
    }
}

impl ServiceModel {
    /// Fits the model from measured packed `solve_batch` cells of a
    /// `BENCH_backends.json` sweep, so virtual latencies track real kernel costs
    /// instead of the constant placeholder in [`ServiceModel::default`].
    ///
    /// The sweep times the whole batch at two (or more) problem counts; a two-point
    /// fit through the smallest and largest count splits that into marginal
    /// per-problem cost and fixed per-invocation overhead — exactly the two
    /// parameters of this model. Both are clamped to ≥ 1 µs (a noisy sweep can
    /// produce a negative intercept). Returns `None` when the records contain no
    /// usable packed `solve_batch` cell.
    /// Preferring the per-stage cells (`plan_stage_encode` / `plan_stage_decode`
    /// / `plan_stage_score`) when the sweep recorded all three: the model then
    /// carries one [`StageFit`] per compiled plan stage and the whole-chunk
    /// totals become the stage sums, so legacy consumers keep working.
    pub fn from_bench_records(records: &[cogsys::experiments::BenchRecord]) -> Option<Self> {
        let stage_fits = [
            two_point_fit(records, "plan_stage_encode"),
            two_point_fit(records, "plan_stage_decode"),
            two_point_fit(records, "plan_stage_score"),
        ];
        if let [Some(encode), Some(decode), Some(score)] = stage_fits {
            let stages = [encode, decode, score];
            return Some(Self {
                micros_per_batch: stages.iter().map(|s| s.micros_per_batch).sum(),
                micros_per_problem: stages.iter().map(|s| s.micros_per_problem).sum(),
                stages: Some(stages),
            });
        }
        let whole = two_point_fit(records, "solve_batch")?;
        Some(Self {
            micros_per_batch: whole.micros_per_batch,
            micros_per_problem: whole.micros_per_problem,
            stages: None,
        })
    }

    /// [`ServiceModel::from_bench_records`] over a raw `BENCH_backends.json`
    /// payload.
    pub fn from_bench_json(text: &str) -> Option<Self> {
        Self::from_bench_records(&cogsys::experiments::parse_backend_throughput_json(text))
    }

    /// Virtual cost of one successful engine invocation over `problems`
    /// problems at a degradation rung with the given service divisor.
    ///
    /// With per-stage fits, the divisor — which models the reduced-iteration
    /// rungs of the ladder — applies only to the decode (resonate + polish or
    /// rescue) stage; encode and score work is unchanged by degradation. Without
    /// stage fits the legacy whole-chunk formula applies the divisor to the
    /// entire marginal term.
    pub fn invocation_micros(&self, problems: u64, service_divisor: u64) -> u64 {
        let divisor = service_divisor.max(1);
        match &self.stages {
            Some([encode, decode, score]) => {
                encode.micros_per_batch
                    + decode.micros_per_batch
                    + score.micros_per_batch
                    + problems * encode.micros_per_problem
                    + problems * decode.micros_per_problem / divisor
                    + problems * score.micros_per_problem
            }
            None => self.micros_per_batch + problems * self.micros_per_problem / divisor,
        }
    }

    /// Virtual overhead burned by a failed attempt (no per-problem work
    /// completes, but the invocation cost is paid).
    pub fn overhead_micros(&self) -> u64 {
        self.micros_per_batch
    }
}

/// Two-point fit of `micros_per_batch + n * micros_per_problem` through the
/// packed cells of `kernel` at the smallest and largest problem counts. Both
/// parameters clamp to ≥ 1 µs (a noisy sweep can produce a negative
/// intercept). `None` when no usable cell exists.
fn two_point_fit(records: &[cogsys::experiments::BenchRecord], kernel: &str) -> Option<StageFit> {
    let mut cells: Vec<(u64, f64)> = records
        .iter()
        .filter(|r| {
            r.backend == "packed"
                && r.kernel == kernel
                && r.batch > 0
                && r.ns_per_op.is_finite()
                && r.ns_per_op > 0.0
        })
        .map(|r| (r.batch as u64, r.ns_per_op))
        .collect();
    cells.sort_by_key(|cell| cell.0);
    let (b_lo, t_lo) = *cells.first()?;
    let (b_hi, t_hi) = *cells.last()?;
    if b_hi == b_lo {
        // One problem count: attribute the whole cost to the marginal term.
        return Some(StageFit {
            micros_per_batch: 1,
            micros_per_problem: to_micros(t_lo / b_lo as f64),
        });
    }
    let per_problem_ns = (t_hi - t_lo) / (b_hi - b_lo) as f64;
    let per_batch_ns = t_lo - per_problem_ns * b_lo as f64;
    Some(StageFit {
        micros_per_batch: to_micros(per_batch_ns),
        micros_per_problem: to_micros(per_problem_ns),
    })
}

/// Nanoseconds → whole virtual microseconds, clamped to ≥ 1 so the discrete-event
/// clock always advances.
fn to_micros(ns: f64) -> u64 {
    (ns / 1e3).round().max(1.0) as u64
}

/// Configuration of the serving loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Solver settings (dimensionality, factorizer, noise, backend).
    pub solver: SolverConfig,
    /// Seed the solver's codebooks are drawn from.
    pub codebook_seed: u64,
    /// Base seed of the per-chunk solver randomness (mixed with a chunk
    /// counter, so every formed batch gets an independent, reproducible seed).
    pub chunk_seed: u64,
    /// Admission bound: arrivals finding this many requests queued are shed.
    pub max_queue_depth: usize,
    /// Largest batch the former coalesces at full service.
    pub max_batch: usize,
    /// Re-runs a formed batch may take after transient faults
    /// ([`SolveError::Fault`]) before it fails. Malformed requests never reach
    /// a batch, and any other engine error fails the batch without a retry.
    pub retry_budget: usize,
    /// Virtual service-time model.
    pub service: ServiceModel,
    /// Queue depth at or above which the ladder degrades one rung per batch.
    pub degrade_depth: usize,
    /// Queue depth at or below which the ladder recovers one rung per batch.
    pub recover_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            solver: SolverConfig::default(),
            codebook_seed: 0xC09_5E21,
            chunk_seed: 0x5EED,
            max_queue_depth: 64,
            max_batch: 16,
            retry_budget: 4,
            service: ServiceModel::default(),
            degrade_depth: 48,
            recover_depth: 16,
        }
    }
}

impl ServeConfig {
    /// Derives a serving config from a full system config: the system's solver
    /// settings, with the batch former sized to keep `batch_tasks` interleaved
    /// tasks' worth of problems in flight per chunk.
    pub fn for_system(system: &CogSysConfig) -> Self {
        Self {
            solver: system.solver.clone(),
            max_batch: (system.batch_tasks * 4).clamp(4, 64),
            ..Self::default()
        }
    }

    /// Checks structural constraints.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::Config {
                message: "max_batch must be > 0".into(),
            });
        }
        if self.max_queue_depth == 0 {
            return Err(ServeError::Config {
                message: "max_queue_depth must be > 0".into(),
            });
        }
        if self.recover_depth >= self.degrade_depth {
            return Err(ServeError::Config {
                message: format!(
                    "recover_depth ({}) must be below degrade_depth ({})",
                    self.recover_depth, self.degrade_depth
                ),
            });
        }
        if self.degrade_depth > self.max_queue_depth {
            return Err(ServeError::Config {
                message: format!(
                    "degrade_depth ({}) must not exceed max_queue_depth ({})",
                    self.degrade_depth, self.max_queue_depth
                ),
            });
        }
        Ok(())
    }
}

/// One batch the loop actually executed — enough to replay it bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutedChunk {
    /// Request ids in batch order.
    pub ids: Vec<u64>,
    /// The solver seed the chunk ran with (fixed at formation time).
    pub seed: u64,
    /// Degradation level it was served at.
    pub level: DegradationLevel,
    /// Chosen candidate per request, in batch order.
    pub choices: Vec<usize>,
}

/// SplitMix64 finalizer: decorrelates sequential chunk counters into
/// independent solver seeds.
fn mix_seed(base: u64, counter: u64) -> u64 {
    let mut z = base ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault-tolerant serving loop (see the crate docs).
pub struct ServeLoop<E> {
    config: ServeConfig,
    engine: E,
    queue: VecDeque<Request>,
    clock_micros: u64,
    level: DegradationLevel,
    counters: Counters,
    executed: Vec<ExecutedChunk>,
    chunk_counter: u64,
}

impl ServeLoop<SolverEngine> {
    /// Builds a loop around the real solver engine.
    pub fn with_solver(config: ServeConfig) -> Result<Self, ServeError> {
        let engine = SolverEngine::new(config.solver.clone(), config.codebook_seed)?;
        Self::with_engine(config, engine)
    }
}

impl<E: ChunkEngine> ServeLoop<E> {
    /// Builds a loop around any [`ChunkEngine`] (chaos decorators, test stubs).
    pub fn with_engine(config: ServeConfig, engine: E) -> Result<Self, ServeError> {
        config.validate()?;
        Ok(Self {
            config,
            engine,
            queue: VecDeque::new(),
            clock_micros: 0,
            level: DegradationLevel::Full,
            counters: Counters::default(),
            executed: Vec::new(),
            chunk_counter: 0,
        })
    }

    /// Lifetime counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Log of every successfully executed batch, in execution order.
    pub fn executed(&self) -> &[ExecutedChunk] {
        &self.executed
    }

    /// Current rung of the degradation ladder.
    pub fn degradation_level(&self) -> DegradationLevel {
        self.level
    }

    /// Current virtual time.
    pub fn clock_micros(&self) -> u64 {
        self.clock_micros
    }

    /// The engine (e.g. to read chaos stats or the underlying solver).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Serves a trace to completion. `trace` must be sorted by arrival time
    /// (as [`TraceConfig::generate`] produces). Returns one terminal
    /// [`Response`] per request, in resolution order.
    pub fn run_trace(&mut self, trace: &[Request]) -> Vec<Response> {
        let mut responses = Vec::with_capacity(trace.len());
        let mut next = 0usize;
        loop {
            while next < trace.len() && trace[next].arrival_micros <= self.clock_micros {
                self.admit(trace[next].clone(), &mut responses);
                next += 1;
            }
            if self.queue.is_empty() {
                // An empty queue means the backlog is gone: going idle clears
                // the pressure the ladder was protecting against.
                self.level = DegradationLevel::Full;
                match trace.get(next) {
                    Some(request) => {
                        // Idle: jump the clock to the next arrival.
                        self.clock_micros = request.arrival_micros;
                        continue;
                    }
                    None => break,
                }
            }
            self.form_and_execute(&mut responses);
        }
        responses
    }

    /// [`Response::latency_micros`] of a request that arrived at
    /// `arrival_micros` and is resolved now.
    fn latency_since(&self, arrival_micros: u64) -> u32 {
        u32::try_from(self.clock_micros.saturating_sub(arrival_micros)).unwrap_or(u32::MAX)
    }

    /// A [`Response`] resolving `request` now at the current level with
    /// `outcome`, neither retried nor late.
    fn resolve(&self, request: &Request, outcome: Result<Answer, Rejection>) -> Response {
        Response {
            id: request.id,
            outcome,
            degradation: self.level,
            completed_micros: self.clock_micros,
            latency_micros: self.latency_since(request.arrival_micros),
            retried: false,
            missed_deadline: false,
        }
    }

    /// Admission control: a malformed request is rejected at once, before it
    /// can reach the queue or an engine call; a well-formed one is shed when
    /// the queue is at its bound.
    fn admit(&mut self, request: Request, responses: &mut Vec<Response>) {
        self.counters.submitted += 1;
        if let Err(fault) =
            NeurosymbolicSolver::validate_problem_with(self.config.solver.vocab, &request.problem)
        {
            self.counters.invalid += 1;
            responses.push(self.resolve(&request, Err(Rejection::Invalid(Box::new(fault)))));
            return;
        }
        let depth = self.queue.len();
        if depth >= self.config.max_queue_depth {
            self.counters.shed += 1;
            let overloaded = Rejection::Overloaded {
                queue_depth: depth,
                limit: self.config.max_queue_depth,
            };
            responses.push(self.resolve(&request, Err(overloaded)));
            return;
        }
        self.queue.push_back(request);
        self.counters.peak_queue_depth = self.counters.peak_queue_depth.max(self.queue.len());
    }

    /// Moves the ladder one rung per formed batch, driven by queue depth.
    fn update_ladder(&mut self) {
        let depth = self.queue.len();
        if depth >= self.config.degrade_depth {
            self.level = self.level.degrade();
        } else if depth <= self.config.recover_depth {
            self.level = self.level.recover();
        }
        self.counters.max_level = self.counters.max_level.max(self.level.as_u8());
    }

    /// Coalesces the next batch, dropping expired requests, and executes it,
    /// re-running it on transient faults under the bounded retry budget.
    fn form_and_execute(&mut self, responses: &mut Vec<Response>) {
        self.update_ladder();
        let limit = (self.config.max_batch / self.level.batch_divisor()).max(1);
        let mut batch: Vec<Request> = Vec::with_capacity(limit);
        while batch.len() < limit {
            let Some(request) = self.queue.pop_front() else {
                break;
            };
            if request.deadline_micros < self.clock_micros {
                self.counters.expired += 1;
                let expired = Rejection::DeadlineExpired {
                    deadline_micros: request.deadline_micros,
                    now_micros: self.clock_micros,
                };
                responses.push(Response {
                    missed_deadline: true,
                    ..self.resolve(&request, Err(expired))
                });
                continue;
            }
            batch.push(request);
        }
        if batch.is_empty() {
            return;
        }

        // The chunk's solver seed is fixed now and reused across retries, and
        // the batch never changes between attempts, so every attempt solves
        // the same call.
        let seed = mix_seed(self.config.chunk_seed, self.chunk_counter);
        self.chunk_counter += 1;
        let problems: Vec<_> = batch.iter().map(|r| r.problem.clone()).collect();
        let mut retries = 0;
        let outcome = loop {
            match self.engine.solve_chunk(&problems, seed, self.level) {
                // Only a transient fault is worth a re-run. Admission rejected
                // every malformed request, so an engine `Malformed` means
                // admission and the engine disagree: a bug that fails the
                // batch at once, like any other non-transient error.
                Err(SolveError::Fault { .. }) if retries < self.config.retry_budget => {
                    retries += 1;
                }
                outcome => break outcome,
            }
        };
        self.counters.retries += retries;
        let retried = retries > 0;
        // Failed attempts still burn the per-invocation overhead.
        self.clock_micros += retries as u64 * self.config.service.overhead_micros();
        let result = match outcome {
            Ok(result) => result,
            Err(error) => {
                self.clock_micros += self.config.service.overhead_micros();
                self.counters.failed += batch.len();
                for request in &batch {
                    responses.push(Response {
                        retried,
                        ..self.resolve(request, Err(Rejection::Failed(error.clone())))
                    });
                }
                return;
            }
        };
        self.clock_micros += self
            .config
            .service
            .invocation_micros(batch.len() as u64, self.level.service_divisor())
            + result.extra_micros;
        self.counters.batches += 1;
        if self.level.as_u8() > 0 {
            self.counters.degraded_batches += 1;
        }
        for (request, &choice) in batch.iter().zip(&result.choices) {
            let missed = self.clock_micros > request.deadline_micros;
            self.counters.completed += 1;
            if missed {
                self.counters.late += 1;
            }
            let correct = request.problem.is_correct(choice);
            responses.push(Response {
                retried,
                missed_deadline: missed,
                ..self.resolve(request, Ok(Answer { choice, correct }))
            });
        }
        self.executed.push(ExecutedChunk {
            ids: batch.iter().map(|r| r.id).collect(),
            seed,
            level: self.level,
            choices: result.choices,
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cogsys_datasets::Problem;
    use cogsys_workloads::{NeurosymbolicSolver, ProblemFault, SolverReport};

    /// Loop-logic stub: validates like the real engine, answers candidate 0,
    /// optionally fails its first `transient_faults` calls.
    struct StubEngine {
        transient_faults: usize,
        calls: usize,
    }

    impl StubEngine {
        fn clean() -> Self {
            Self {
                transient_faults: 0,
                calls: 0,
            }
        }
    }

    impl ChunkEngine for StubEngine {
        fn solve_chunk(
            &mut self,
            problems: &[Problem],
            _seed: u64,
            _level: DegradationLevel,
        ) -> Result<ChunkResult, SolveError> {
            self.calls += 1;
            if self.calls <= self.transient_faults {
                return Err(SolveError::Fault {
                    message: "stub fault".into(),
                });
            }
            for (index, problem) in problems.iter().enumerate() {
                if let Err(fault) = NeurosymbolicSolver::validate_problem(problem) {
                    return Err(SolveError::Malformed {
                        problem: index,
                        fault: Box::new(fault),
                    });
                }
            }
            Ok(ChunkResult {
                choices: vec![0; problems.len()],
                report: SolverReport::default(),
                extra_micros: 0,
            })
        }
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            max_queue_depth: 8,
            max_batch: 4,
            degrade_depth: 6,
            recover_depth: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn config_validation_rejects_inverted_watermarks() {
        let config = ServeConfig {
            degrade_depth: 4,
            recover_depth: 8,
            ..ServeConfig::default()
        };
        assert!(matches!(config.validate(), Err(ServeError::Config { .. })));
        assert!(ServeConfig::default().validate().is_ok());
        assert!(ServeConfig::for_system(&CogSysConfig::default())
            .validate()
            .is_ok());
    }

    #[test]
    fn overload_sheds_and_every_request_is_accounted() {
        // All 32 requests arrive at t=1 against a queue bound of 8.
        let trace_template = TraceConfig::steady(32).generate();
        let trace: Vec<Request> = trace_template
            .into_iter()
            .map(|mut r| {
                r.arrival_micros = 1;
                r.deadline_micros = 1_000_000;
                r
            })
            .collect();
        let mut serve = ServeLoop::with_engine(quick_config(), StubEngine::clean()).unwrap();
        let responses = serve.run_trace(&trace);
        assert_eq!(responses.len(), trace.len());
        let counters = serve.counters();
        assert_eq!(counters.accounted(), counters.submitted);
        assert_eq!(counters.shed, 24, "8 admitted, the rest shed");
        assert!(responses
            .iter()
            .filter(|r| !r.is_answered())
            .all(|r| matches!(r.outcome, Err(Rejection::Overloaded { .. }))));
    }

    #[test]
    fn queue_pressure_degrades_then_recovers() {
        let config = ServeConfig {
            max_queue_depth: 64,
            max_batch: 4,
            degrade_depth: 8,
            recover_depth: 2,
            ..ServeConfig::default()
        };
        // Dense arrivals: gap well below the per-batch service time.
        let trace: Vec<Request> = TraceConfig {
            requests: 48,
            interarrival_micros: 200,
            deadline_micros: 10_000_000,
            ..TraceConfig::default()
        }
        .generate();
        let mut serve = ServeLoop::with_engine(config, StubEngine::clean()).unwrap();
        let responses = serve.run_trace(&trace);
        assert!(serve.counters().max_level >= 2, "ladder engaged");
        assert!(serve.counters().degraded_batches > 0);
        assert!(responses
            .iter()
            .any(|r| r.degradation.as_u8() > 0 && r.is_answered()));
        // The queue fully drains, so the loop must have stepped back up.
        assert_eq!(serve.degradation_level(), DegradationLevel::Full);
    }

    #[test]
    fn expired_requests_are_dropped_at_formation() {
        let mut trace: Vec<Request> = TraceConfig {
            requests: 12,
            interarrival_micros: 100,
            ..TraceConfig::default()
        }
        .generate();
        for request in &mut trace {
            request.deadline_micros = request.arrival_micros + 1_500;
        }
        let mut serve = ServeLoop::with_engine(quick_config(), StubEngine::clean()).unwrap();
        let responses = serve.run_trace(&trace);
        let counters = serve.counters();
        assert!(counters.expired > 0, "tight deadlines must expire in queue");
        assert_eq!(counters.accounted(), counters.submitted);
        assert!(responses
            .iter()
            .filter(|r| matches!(r.outcome, Err(Rejection::DeadlineExpired { .. })))
            .all(|r| r.missed_deadline));
    }

    #[test]
    fn transient_faults_retry_then_fail_within_budget() {
        let config = ServeConfig {
            retry_budget: 2,
            ..quick_config()
        };
        // Engine fails its first 2 calls, succeeds afterwards: the first formed
        // batch completes after two retries, later batches run clean.
        let trace = TraceConfig::steady(3).generate();
        let mut serve = ServeLoop::with_engine(
            config.clone(),
            StubEngine {
                transient_faults: 2,
                calls: 0,
            },
        )
        .unwrap();
        let responses = serve.run_trace(&trace);
        assert_eq!(serve.counters().retries, 2);
        assert!(responses.iter().all(|r| r.is_answered()));
        assert!(responses.iter().any(|r| r.retried));

        // Engine fails forever: budget exhausts, requests fail typed.
        let mut serve = ServeLoop::with_engine(
            config,
            StubEngine {
                transient_faults: usize::MAX,
                calls: 0,
            },
        )
        .unwrap();
        let responses = serve.run_trace(&trace);
        assert!(responses
            .iter()
            .all(|r| matches!(r.outcome, Err(Rejection::Failed(SolveError::Fault { .. })))));
        assert_eq!(serve.counters().failed, 3);
    }

    #[test]
    fn response_latency_saturates() {
        let mut serve = ServeLoop::with_engine(quick_config(), StubEngine::clean()).unwrap();
        serve.clock_micros = 10;
        assert_eq!(serve.latency_since(10), 0);
        assert_eq!(serve.latency_since(20), 0);
        serve.clock_micros = 1_010;
        assert_eq!(serve.latency_since(10), 1_000);
        serve.clock_micros = u64::MAX;
        assert_eq!(serve.latency_since(0), u32::MAX);
    }

    /// `trace` with every request arriving at t=1, so they form one batch.
    fn co_arriving(mut trace: Vec<Request>) -> Vec<Request> {
        for request in &mut trace {
            request.arrival_micros = 1;
            request.deadline_micros = 1_000_000;
        }
        trace
    }

    #[test]
    fn poisoned_request_is_rejected_at_admission_and_batchmates_complete() {
        let mut trace = co_arriving(TraceConfig::steady(4).generate());
        trace[2].problem.candidates.clear();
        let mut serve = ServeLoop::with_engine(quick_config(), StubEngine::clean()).unwrap();
        let responses = serve.run_trace(&trace);
        let invalid: Vec<_> = responses.iter().filter(|r| !r.is_answered()).collect();
        assert_eq!(invalid.len(), 1);
        assert_eq!(invalid[0].id, 2);
        assert_eq!(
            invalid[0].outcome,
            Err(Rejection::Invalid(Box::new(ProblemFault::NoCandidates)))
        );
        let answered: Vec<_> = responses.iter().filter(|r| r.is_answered()).collect();
        assert_eq!(answered.len(), 3);
        assert!(answered.iter().all(|r| !r.retried), "nothing was retried");
        assert_eq!(serve.counters().invalid, 1);
        assert_eq!(serve.counters().retries, 0);
        // The poisoned request never reached the engine: one call, three problems.
        assert_eq!(serve.engine().calls, 1);
        assert_eq!(serve.executed()[0].ids, vec![0, 1, 3]);
    }

    #[test]
    fn poison_beyond_the_retry_budget_costs_batchmates_nothing() {
        // Two malformed and three well-formed requests in one batch, no retries
        // to spend: every well-formed request is still answered first time.
        let mut trace = co_arriving(TraceConfig::steady(5).generate());
        trace[1].problem.candidates.clear();
        trace[3].problem.context.pop();
        let config = ServeConfig {
            retry_budget: 0,
            max_batch: 8,
            ..quick_config()
        };
        let mut serve = ServeLoop::with_engine(config, StubEngine::clean()).unwrap();
        let responses = serve.run_trace(&trace);
        let answered: Vec<_> = responses.iter().filter(|r| r.is_answered()).collect();
        assert_eq!(
            answered.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        assert!(answered.iter().all(|r| !r.retried));
        let counters = serve.counters();
        assert_eq!(counters.retries, 0);
        assert_eq!(counters.invalid, 2);
        assert_eq!(counters.failed, 0);
        assert_eq!(counters.accounted(), counters.submitted);
    }

    #[test]
    fn engine_malformed_fails_the_batch_without_retry() {
        // Admission checks a 100-value vocabulary while the stub engine checks
        // RAVEN's: a value admission accepts and the engine rejects is a
        // disagreement, so the batch fails at once, budget or not.
        let mut trace = co_arriving(TraceConfig::steady(3).generate());
        let mut values = trace[1].problem.context[0].values();
        values[0] = 50;
        trace[1].problem.context[0] = cogsys_datasets::Panel::new_unchecked(values);
        let mut config = quick_config();
        config.solver.vocab = cogsys_datasets::AttributeVocab::uniform(100);
        let mut serve = ServeLoop::with_engine(config, StubEngine::clean()).unwrap();
        let responses = serve.run_trace(&trace);
        assert_eq!(
            serve.engine().calls,
            1,
            "no retry after an engine Malformed"
        );
        assert_eq!(serve.counters().retries, 0);
        assert_eq!(serve.counters().invalid, 0);
        assert_eq!(serve.counters().failed, 3);
        assert!(responses.iter().all(|r| matches!(
            r.outcome,
            Err(Rejection::Failed(SolveError::Malformed { problem: 1, .. }))
        ) && !r.retried));
    }

    #[test]
    fn chunk_seeds_are_decorrelated_but_deterministic() {
        let a = mix_seed(1, 0);
        let b = mix_seed(1, 1);
        assert_ne!(a, b);
        assert_eq!(mix_seed(1, 0), a);
        assert_ne!(mix_seed(2, 0), a);
    }

    #[test]
    fn service_model_fits_measured_solve_batch_cells() {
        use cogsys::experiments::BenchRecord;
        let cell = |backend: &str, kernel: &str, batch: usize, ns: f64| BenchRecord {
            backend: backend.into(),
            kernel: kernel.into(),
            dim: 2048,
            batch,
            ns_per_op: ns,
        };
        // Exact linear data: 1 ms overhead + 2 ms per problem.
        let records = vec![
            cell("packed", "solve_batch", 8, 1e6 + 8.0 * 2e6),
            cell("packed", "solve_batch", 64, 1e6 + 64.0 * 2e6),
            // A distractor the fit must ignore.
            cell("reference", "solve_batch", 8, 9e9),
        ];
        let model = ServiceModel::from_bench_records(&records).unwrap();
        assert_eq!(model.micros_per_batch, 1_000);
        assert_eq!(model.micros_per_problem, 2_000);

        // One usable cell: everything becomes marginal cost, overhead floors at 1.
        let single =
            ServiceModel::from_bench_records(&[cell("packed", "solve_batch", 8, 16e6)]).unwrap();
        assert_eq!(single.micros_per_batch, 1);
        assert_eq!(single.micros_per_problem, 2_000);

        // No usable cells at all.
        assert!(ServiceModel::from_bench_records(&[]).is_none());
        assert!(
            ServiceModel::from_bench_records(&[cell("packed", "solve_batch", 8, f64::NAN)])
                .is_none()
        );

        // A noisy negative intercept clamps to the 1 µs floor instead of panicking
        // or stalling the virtual clock.
        let noisy = ServiceModel::from_bench_records(&[
            cell("packed", "solve_batch", 8, 15e6),
            cell("packed", "solve_batch", 64, 127e6),
        ])
        .unwrap();
        assert_eq!(noisy.micros_per_problem, 2_000);
        assert_eq!(noisy.micros_per_batch, 1);
        // Legacy fit carries no stage composition.
        assert!(noisy.stages.is_none());
    }

    #[test]
    fn service_model_prefers_plan_stage_cells_when_all_three_fit() {
        use cogsys::experiments::BenchRecord;
        let cell = |kernel: &str, batch: usize, ns: f64| BenchRecord {
            backend: "packed".into(),
            kernel: kernel.into(),
            dim: 2048,
            batch,
            ns_per_op: ns,
        };
        // Exact linear stage data: encode 100 µs + 300 µs/problem, decode
        // 200 µs + 1200 µs/problem, score 50 µs + 500 µs/problem.
        let records = vec![
            cell("plan_stage_encode", 8, 1e5 + 8.0 * 3e5),
            cell("plan_stage_encode", 64, 1e5 + 64.0 * 3e5),
            cell("plan_stage_decode", 8, 2e5 + 8.0 * 12e5),
            cell("plan_stage_decode", 64, 2e5 + 64.0 * 12e5),
            cell("plan_stage_score", 8, 5e4 + 8.0 * 5e5),
            cell("plan_stage_score", 64, 5e4 + 64.0 * 5e5),
            // Whole-chunk cells the stage fit must win over.
            cell("solve_batch", 8, 9e9),
            cell("solve_batch", 64, 9e9),
        ];
        let model = ServiceModel::from_bench_records(&records).unwrap();
        let stages = model.stages.expect("all three stage kernels fitted");
        assert_eq!(stages[0].micros_per_batch, 100);
        assert_eq!(stages[0].micros_per_problem, 300);
        assert_eq!(stages[1].micros_per_batch, 200);
        assert_eq!(stages[1].micros_per_problem, 1_200);
        assert_eq!(stages[2].micros_per_batch, 50);
        assert_eq!(stages[2].micros_per_problem, 500);
        // Whole-chunk totals are the stage sums, not the distractor fit.
        assert_eq!(model.micros_per_batch, 350);
        assert_eq!(model.micros_per_problem, 2_000);

        // At full service the stage model matches the legacy formula on the
        // same totals; under degradation only the decode stage shrinks.
        assert_eq!(model.invocation_micros(8, 1), 350 + 8 * 2_000);
        assert_eq!(
            model.invocation_micros(8, 4),
            350 + 8 * 300 + 8 * 1_200 / 4 + 8 * 500
        );
        let legacy = ServiceModel {
            stages: None,
            ..model
        };
        assert_eq!(legacy.invocation_micros(8, 4), 350 + 8 * 2_000 / 4);
        assert!(
            model.invocation_micros(8, 4) > legacy.invocation_micros(8, 4),
            "whole-chunk divisor over-credits degradation vs stage composition"
        );
        // Failure overhead is the fixed cost either way.
        assert_eq!(model.overhead_micros(), 350);
        // A zero divisor is treated as full service instead of dividing by zero.
        assert_eq!(model.invocation_micros(8, 0), model.invocation_micros(8, 1));

        // Missing any one stage kernel falls back to the whole-chunk fit.
        let partial: Vec<BenchRecord> = records
            .iter()
            .filter(|r| r.kernel != "plan_stage_score")
            .cloned()
            .collect();
        let fallback = ServiceModel::from_bench_records(&partial).unwrap();
        assert!(fallback.stages.is_none());
    }
}
