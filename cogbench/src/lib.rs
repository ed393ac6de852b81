//! Repository benchmark for the CogSys reproduction.
//!
//! One command drives the public solver and serving APIs from a single thread
//! on inputs generated from a seed, prints every end-to-end metric (untraced
//! run) or every per-layer metric (traced run) as one JSON line, and checks
//! that the outputs are correct. See `README.md` in this directory for the
//! workloads and for which end-to-end metric each per-layer metric should move.

pub mod host;
pub mod layers;
pub mod raven;
pub mod report;
pub mod serve;
pub mod trace;

pub use report::Report;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop 64-problem RAVEN batches at d = 2048 (the solver default).
    RavenD2048,
    /// The same stream at d = 4096.
    RavenD4096,
    /// Adversarial trace through the serving loop at d = 2048.
    ServeAdversarial,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::RavenD2048,
        Workload::RavenD4096,
        Workload::ServeAdversarial,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RavenD2048 => "raven_d2048",
            Workload::RavenD4096 => "raven_d4096",
            Workload::ServeAdversarial => "serve_adversarial",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: `Full` is the benchmark; `Tiny` keeps tests and smoke runs quick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The shapes `BENCHMARK.json` is defined on.
    Full,
    /// Small dimensions and batches, same code paths.
    Tiny,
}

/// Fault injected after the engine answers, to prove the checks fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// Answers are left as the engine gave them.
    #[default]
    None,
    /// Every answer is replaced by an in-range wrong candidate.
    WrongAnswers,
    /// One answer is replaced by an out-of-range candidate index.
    OutOfRange,
}

/// Everything one run needs.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs (problems, traces, solver randomness).
    pub seed: u64,
    /// Seed of the solver's codebooks.
    pub codebook_seed: u64,
    /// Length of each measured phase, seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics with tracing off; `true`: per-layer metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Injected fault (tests only).
    pub fault: Fault,
}

/// Codebook seed used when none is given on the command line.
pub const DEFAULT_CODEBOOK_SEED: u64 = 7;

/// Builds `reps` times, dropping each result before the next build so that
/// set-ups never stack in memory. Pushes every set-up time onto `times` and
/// returns the last result; `None` when `reps` is 0 or a build fails.
pub(crate) fn repeat_set_up<T>(
    reps: usize,
    times: &mut Vec<f64>,
    mut build: impl FnMut() -> Option<(T, f64)>,
) -> Option<T> {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (built, seconds) = build()?;
        times.push(seconds);
        last = Some(built);
    }
    last
}

/// Runs one workload and returns its report (metrics plus check violations),
/// with every time metric scaled to a host running at nominal speed (see
/// [`host`]).
pub fn run(args: &RunArgs) -> Report {
    let mut probe = host::HostProbe::default();
    let mut report = match args.workload {
        Workload::RavenD2048 | Workload::RavenD4096 => raven::run(args, &mut probe),
        Workload::ServeAdversarial => serve::run(args, &mut probe),
    };
    report.normalize(probe.factor());
    report
}
