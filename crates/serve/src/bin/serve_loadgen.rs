//! Load generator / smoke driver for the serving loop.
//!
//! Replays a deterministic traffic trace (steady, bursty, an adversarial
//! poison mix, or a recorded arrival log) through [`cogsys_serve::ServeLoop`]
//! and prints per-window p50/p99 latency, throughput and shed/degraded/retried
//! counts, then the lifetime counters.
//!
//! ```text
//! serve_loadgen [--shape steady|bursty|adversarial|recorded:<path>]
//!               [--requests N] [--dim D] [--seed S] [--chaos]
//!               [--window-micros W] [--check] [--explain]
//! ```
//!
//! `recorded:<path>` replays arrival times from a file of newline-delimited
//! virtual-time offsets in micros (blank lines and `#` comments skipped,
//! strictly increasing); the request count comes from the file, so
//! `--requests` is rejected with it. One committed diurnal trace lives at
//! `crates/serve/traces/diurnal.txt`.
//!
//! The adversarial shape's base inter-arrival gap is the loaded service
//! model's per-problem time at full batches: calm phases arrive at capacity and
//! bursts at the preset's `burst_multiplier`× capacity, whatever the measured
//! solver speed.
//!
//! `--chaos` additionally wraps the engine in the fault-injection harness
//! (forced transient faults + injected latency). `--check` turns the run into
//! a smoke gate for CI: it exits nonzero unless the run completed with every
//! request accounted for, zero panics (trivially, by finishing), no request
//! failed by a malformed problem (admission rejects those), and — for the
//! adversarial shape — nonzero shed and poison counts. `--explain` prints the
//! compiled solve plan for a full-size batch before the run.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use cogsys_serve::{
    metrics, ChaosConfig, ChaosEngine, Rejection, ServeConfig, ServeLoop, SolverEngine, TraceConfig,
};
use cogsys_workloads::SolveError;
use std::process::ExitCode;

struct Options {
    shape: String,
    requests: usize,
    dim: usize,
    seed: u64,
    window_micros: u64,
    chaos: bool,
    check: bool,
    explain: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            shape: "steady".into(),
            requests: 192,
            dim: 1024,
            seed: 7,
            window_micros: 50_000,
            chaos: false,
            check: false,
            explain: false,
        }
    }
}

fn usage() -> String {
    "usage: serve_loadgen [--shape steady|bursty|adversarial|recorded:<path>] \
     [--requests N] [--dim D] [--seed S] [--window-micros W] [--chaos] [--check] \
     [--explain]\n  recorded:<path> replays newline-delimited virtual-time arrival \
     offsets (micros); the request count comes from the file, so --requests is \
     rejected with it"
        .into()
}

/// Strict argument parsing: unknown flags and malformed values are errors, not
/// silent fallbacks to defaults.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut explicit_requests = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{}", usage()))
        };
        match arg.as_str() {
            "--shape" => {
                let v = value_of("--shape")?;
                match v.as_str() {
                    "steady" | "bursty" | "adversarial" => options.shape = v.clone(),
                    recorded
                        if recorded
                            .strip_prefix("recorded:")
                            .is_some_and(|p| !p.is_empty()) =>
                    {
                        options.shape = v.clone();
                    }
                    other => return Err(format!("unknown shape `{other}`\n{}", usage())),
                }
            }
            "--requests" => {
                let v = value_of("--requests")?;
                explicit_requests = true;
                options.requests = v
                    .parse()
                    .map_err(|_| format!("invalid --requests `{v}`\n{}", usage()))?;
            }
            "--dim" => {
                let v = value_of("--dim")?;
                options.dim = v
                    .parse()
                    .map_err(|_| format!("invalid --dim `{v}`\n{}", usage()))?;
            }
            "--seed" => {
                let v = value_of("--seed")?;
                options.seed = v
                    .parse()
                    .map_err(|_| format!("invalid --seed `{v}`\n{}", usage()))?;
            }
            "--window-micros" => {
                let v = value_of("--window-micros")?;
                options.window_micros = v
                    .parse()
                    .map_err(|_| format!("invalid --window-micros `{v}`\n{}", usage()))?;
            }
            "--chaos" => options.chaos = true,
            "--check" => options.check = true,
            "--explain" => options.explain = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if options.requests == 0 {
        return Err(format!("--requests must be > 0\n{}", usage()));
    }
    if explicit_requests && options.shape.starts_with("recorded:") {
        return Err(format!(
            "--requests conflicts with a recorded shape (the trace file sets the count)\n{}",
            usage()
        ));
    }
    Ok(options)
}

fn run(options: &Options) -> Result<bool, String> {
    // Virtual service times come from the committed kernel sweep when present, so
    // latency distributions track measured solver costs; otherwise the constant
    // placeholder model.
    let measured_service = std::fs::read_to_string("BENCH_backends.json")
        .ok()
        .and_then(|text| cogsys_serve::ServiceModel::from_bench_json(&text));
    let service = match measured_service {
        Some(model) => {
            println!(
                "# service model: measured (BENCH_backends.json): \
                 {} us/batch + {} us/problem",
                model.micros_per_batch, model.micros_per_problem
            );
            if let Some(stages) = &model.stages {
                for (name, fit) in ["encode", "decode", "score"].iter().zip(stages) {
                    println!(
                        "#   stage {name}: {} us/batch + {} us/problem",
                        fit.micros_per_batch, fit.micros_per_problem
                    );
                }
            }
            model
        }
        None => {
            let model = cogsys_serve::ServiceModel::default();
            println!(
                "# service model: default placeholder (no readable BENCH_backends.json): \
                 {} us/batch + {} us/problem",
                model.micros_per_batch, model.micros_per_problem
            );
            model
        }
    };

    // Bounds sized so the adversarial trace exercises the front end: its
    // bursts' backlog exceeds the queue bound, and the degrade watermark sits
    // below it.
    let serve_config = ServeConfig {
        solver: cogsys_workloads::SolverConfig {
            vector_dim: options.dim,
            ..Default::default()
        },
        max_queue_depth: 16,
        max_batch: 8,
        degrade_depth: 12,
        recover_depth: 4,
        retry_budget: 6,
        service,
        ..ServeConfig::default()
    };

    let (trace, request_count) = if let Some(path) = options.shape.strip_prefix("recorded:") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("recorded trace `{path}` unreadable: {e}"))?;
        let arrivals = cogsys_serve::parse_recorded_arrivals(&text)
            .map_err(|e| format!("recorded trace `{path}`: {e}"))?;
        // Recorded arrivals carry the timing; the request content (clean
        // problems, deadlines) follows the steady preset and the seed.
        let mut trace_config = TraceConfig::steady(arrivals.len());
        trace_config.seed = options.seed;
        (
            trace_config.generate_with_arrivals(&arrivals),
            arrivals.len(),
        )
    } else {
        let mut trace_config = match options.shape.as_str() {
            "steady" => TraceConfig::steady(options.requests),
            "bursty" => TraceConfig::bursty(options.requests),
            _ => {
                // Full-batch capacity of the service model (see the module docs).
                let batch = serve_config.max_batch as u64;
                let gap = serve_config
                    .service
                    .invocation_micros(batch, 1)
                    .div_ceil(batch);
                println!("# adversarial base gap: {gap} us (full-batch capacity)");
                TraceConfig {
                    interarrival_micros: gap,
                    ..TraceConfig::adversarial(options.requests)
                }
            }
        };
        trace_config.seed = options.seed;
        (trace_config.generate(), options.requests)
    };
    let engine = SolverEngine::new(serve_config.solver.clone(), serve_config.codebook_seed)
        .map_err(|e| format!("solver construction failed: {e}"))?;
    if options.explain {
        print!("{}", engine.describe_plan(serve_config.max_batch));
    }
    let chaos_config = ChaosConfig {
        seed: options.seed ^ 0xC4A0_5715,
        forced_error_rate: if options.chaos { 0.05 } else { 0.0 },
        extra_latency_rate: if options.chaos { 0.10 } else { 0.0 },
        extra_latency_micros: 5_000,
    };
    let engine = ChaosEngine::new(engine, chaos_config);
    let mut serve = ServeLoop::with_engine(serve_config, engine)
        .map_err(|e| format!("serve construction failed: {e}"))?;

    let started = std::time::Instant::now();
    let responses = serve.run_trace(&trace);
    let wall = started.elapsed();

    println!(
        "# shape={} requests={} dim={} seed={} chaos={}",
        options.shape, request_count, options.dim, options.seed, options.chaos
    );
    println!("window_ms   done  rej  degr  retr    p50_ms    p99_ms   prob/s");
    for w in metrics::windowed(&trace, &responses, options.window_micros) {
        println!(
            "{:>9.1} {:>6} {:>4} {:>5} {:>5} {:>9.2} {:>9.2} {:>8.1}",
            w.start_micros as f64 / 1e3,
            w.completed,
            w.rejected,
            w.degraded,
            w.retried,
            w.p50_micros as f64 / 1e3,
            w.p99_micros as f64 / 1e3,
            w.problems_per_sec,
        );
    }
    let counters = serve.counters();
    let correct = responses
        .iter()
        .filter(|r| matches!(r.outcome, Ok(a) if a.correct))
        .count();
    println!(
        "totals: submitted={} completed={} (correct={}) shed={} expired={} invalid={} \
         failed={} retries={} late={} batches={} degraded_batches={} peak_queue={} max_level={}",
        counters.submitted,
        counters.completed,
        correct,
        counters.shed,
        counters.expired,
        counters.invalid,
        counters.failed,
        counters.retries,
        counters.late,
        counters.batches,
        counters.degraded_batches,
        counters.peak_queue_depth,
        counters.max_level,
    );
    let chaos_stats = serve.engine().stats();
    if options.chaos {
        println!(
            "chaos: calls={} forced_errors={} injected_latency_ms={:.1}",
            chaos_stats.calls,
            chaos_stats.forced_errors,
            chaos_stats.injected_latency_micros as f64 / 1e3,
        );
    }
    println!(
        "virtual_time_ms={:.1} wall_ms={:.0}",
        serve.clock_micros() as f64 / 1e3,
        wall.as_secs_f64() * 1e3,
    );

    // Admission rejects every malformed request, so an engine `Malformed`
    // means admission and the engine disagree.
    let malformed_failed = responses.iter().any(|r| {
        matches!(
            r.outcome,
            Err(Rejection::Failed(SolveError::Malformed { .. }))
        )
    });
    let mut ok = responses.len() == trace.len()
        && counters.accounted() == counters.submitted
        && !malformed_failed;
    if options.shape == "adversarial" {
        // The adversarial smoke must actually exercise backpressure and
        // poison isolation; a run that sheds or rejects nothing is a bug.
        ok &= counters.shed > 0 && counters.invalid > 0 && counters.max_level > 0;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            if options.check {
                eprintln!("--check failed: smoke invariants not met (see totals above)");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
