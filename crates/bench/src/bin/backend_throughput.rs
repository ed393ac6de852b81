//! Backend throughput sweep with machine-readable output and a regression guard.
//!
//! Measures the circular-convolution binding and codebook-cleanup kernels (both `f32`
//! and pre-packed `BitMatrix` queries) for every [`cogsys_vsa::BackendKind`] across
//! `d ∈ {256, 1024, 4096}` × `batch ∈ {1, 32, 256}`, plus the **end-to-end solver
//! kernel** `solve_batch` (the cross-problem batched serving engine with reused
//! scratch) at 8- and 64-problem batches with its plan-compile and per-stage cells,
//! plus the **large-codebook cleanup** cells — `cleanup_indexed` at 10^4 and 10^5
//! rows (10^6 with `BENCH_LARGE=1`), pitting the pruned exact `CleanupIndex` scan
//! (`packed`) against the flat linear packed scan (`reference`) — plus the
//! **resonator-iteration** cell `resonate_iter` (one full fused resonator iteration
//! vs the split three-pass sequence of reference kernels at d=4096) — prints the
//! speedup table, and writes the raw
//! `(backend, kernel, dim, batch) → ns/op` records to `BENCH_backends.json` in the
//! current directory — the file the CI bench-smoke step publishes so the perf
//! trajectory is tracked across PRs.
//!
//! **Regression guard:** before overwriting, the committed `BENCH_backends.json` is
//! read as the baseline; if any packed-backend kernel slowed down by more than 1.3×,
//! the binary prints the offending cells and exits non-zero, failing the CI
//! bench-smoke step. Set `BENCH_GUARD=off` to record a new baseline without gating
//! (e.g. after an intentional trade-off or a hardware change).
//!
//! The detected Hamming-kernel SIMD tier (generic / popcnt / avx2 / avx512) is
//! printed first so CI logs record which dispatch path produced the numbers; with
//! `BENCH_REQUIRE_SIMD=1` the run fails outright when dispatch fell back to the
//! generic tier (the CI runners are known-SIMD hosts, so a generic fallback there
//! means detection broke, not that the hardware shrank).
//!
//! `--explain` prints the compiled solve plans (stage IR, route, chunk width) for the
//! solver shapes the sweep measures, plus the plan-cache hit/miss counters, before the
//! timing runs.
//!
//! Run with: `cargo run --release -p cogsys-bench --bin backend_throughput`

use std::process::ExitCode;

/// Maximum tolerated slowdown of a packed kernel relative to the committed baseline.
const GUARD_FACTOR: f64 = 1.3;

fn main() -> ExitCode {
    const DIMS: [usize; 3] = [256, 1024, 4096];
    const BATCHES: [usize; 3] = [1, 32, 256];
    const SEED: u64 = 7;

    let mut explain = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--explain" => explain = true,
            other => {
                eprintln!("unknown argument `{other}`\nusage: backend_throughput [--explain]");
                return ExitCode::from(2);
            }
        }
    }

    let tier = cogsys_vsa::dispatch_tier();
    println!("dispatch tier: {tier}");
    if std::env::var("BENCH_REQUIRE_SIMD").as_deref() == Ok("1")
        && tier == cogsys_vsa::DispatchTier::Generic
    {
        eprintln!(
            "BENCH_REQUIRE_SIMD=1: dispatch fell back to the generic tier on a host \
             expected to support at least scalar popcnt"
        );
        return ExitCode::FAILURE;
    }

    if explain {
        use cogsys_workloads::{NeurosymbolicSolver, SolverConfig};
        for dim in [1024, SolverConfig::default().vector_dim] {
            let mut rng = cogsys_vsa::rng(SEED);
            let solver = NeurosymbolicSolver::new(
                SolverConfig {
                    vector_dim: dim,
                    ..SolverConfig::default()
                }
                .with_backend(cogsys_vsa::batch::BackendKind::Packed),
                &mut rng,
            );
            for &batch in &cogsys::experiments::SOLVER_BENCH_PROBLEMS {
                print!("{}", solver.plan_for_batch(batch).describe());
            }
            let stats = solver.plan_cache_stats();
            println!("plan_cache: hits={} misses={}", stats.hits, stats.misses);
        }
    }

    let path = "BENCH_backends.json";
    let baseline = std::fs::read_to_string(path)
        .ok()
        .map(|text| cogsys::experiments::parse_backend_throughput_json(&text))
        .unwrap_or_default();

    let mut records = cogsys::experiments::backend_throughput_records(&DIMS, &BATCHES, SEED);
    println!(
        "{}",
        cogsys::experiments::backend_throughput_table(&records)
    );
    records.extend(cogsys::experiments::solver_throughput_records(
        &cogsys::experiments::SOLVER_BENCH_PROBLEMS,
        SEED,
    ));

    // Large-codebook exact cleanup: the pruned CleanupIndex scan vs the flat linear
    // packed scan at 10^4 and 10^5 rows (10^6 only behind BENCH_LARGE=1 — the build
    // plus scan takes a while on a shared core).
    let mut cleanup_rows = vec![10_000usize, 100_000];
    if std::env::var("BENCH_LARGE").as_deref() == Ok("1") {
        cleanup_rows.push(1_000_000);
    }
    records.extend(cogsys::experiments::cleanup_index_records(
        &cleanup_rows,
        SEED,
    ));

    // Resonator-iteration microbench: the fused kernel vs the split three-pass
    // sequence, one full iteration over all factors at d=4096.
    records.extend(cogsys::experiments::resonate_iter_records(SEED));

    let json = cogsys::experiments::backend_throughput_json(SEED, &records);
    std::fs::write(path, &json).expect("BENCH_backends.json is writable");
    println!("wrote {} records to {path}", records.len());

    // Surface the headline acceptance numbers: packed cleanup at d=1024, batch=256,
    // with and without the per-call query packing.
    let cell = |backend: &str, kernel: &str| {
        records
            .iter()
            .find(|r| r.backend == backend && r.kernel == kernel && r.dim == 1024 && r.batch == 256)
            .map(|r| r.ns_per_op)
    };
    if let (Some(parallel), Some(packed)) = (cell("parallel", "cleanup"), cell("packed", "cleanup"))
    {
        println!(
            "cleanup d=1024 batch=256: parallel {:.3} ms, packed {:.3} ms ({:.1}x)",
            parallel / 1e6,
            packed / 1e6,
            parallel / packed.max(1.0)
        );
    }
    if let (Some(per_call), Some(prepacked)) = (
        cell("packed", "cleanup"),
        cell("packed", "cleanup_prepacked"),
    ) {
        println!(
            "packed cleanup d=1024 batch=256: pack-per-call {:.3} ms, prepacked BitMatrix \
             queries {:.3} ms ({:.2}x)",
            per_call / 1e6,
            prepacked / 1e6,
            per_call / prepacked.max(1.0)
        );
    }

    // Pruned exact cleanup index vs the linear packed scan on large codebooks.
    for &rows in &cleanup_rows {
        let idx_cell = |backend: &str| {
            records
                .iter()
                .find(|r| r.backend == backend && r.kernel == "cleanup_indexed" && r.batch == rows)
                .map(|r| r.ns_per_op)
        };
        if let (Some(indexed), Some(linear)) = (idx_cell("packed"), idx_cell("reference")) {
            let queries = cogsys::experiments::CLEANUP_INDEX_BENCH_QUERIES as f64;
            println!(
                "cleanup_indexed d=1024 rows={rows}: linear {:.3} ms/query, \
                 indexed {:.3} ms/query ({:.1}x)",
                linear / queries / 1e6,
                indexed / queries / 1e6,
                linear / indexed.max(1.0)
            );
        }
    }

    // End-to-end solver throughput at a 64-problem serving batch (8·64 = 512 panel
    // rows per factorize call) on the packed backend, and the amortized
    // plan-compilation cost.
    let solver_cell = |backend: &str, kernel: &str| {
        records
            .iter()
            .find(|r| r.backend == backend && r.kernel == kernel && r.batch == 64)
            .map(|r| r.ns_per_op)
    };
    if let Some(batched) = solver_cell("packed", "solve_batch") {
        println!(
            "solver 64-problem batch (packed): {:.1} ms ({:.0} problems/s)",
            batched / 1e6,
            64.0 / (batched / 1e9),
        );
    }
    if let Some(compile) = solver_cell("packed", "plan_compile") {
        println!(
            "plan_compile (packed, 64-problem key): {:.1} us per cold cache miss",
            compile / 1e3
        );
    }

    // The isolated per-iteration kernel: fused vs the split reference sequence.
    let iter_cell = |backend: &str| {
        records
            .iter()
            .find(|r| r.backend == backend && r.kernel == "resonate_iter")
            .map(|r| r.ns_per_op)
    };
    if let (Some(fused), Some(split)) = (iter_cell("packed"), iter_cell("reference")) {
        println!(
            "resonate_iter d={} rows={}: split {:.3} ms/iter, fused {:.3} ms/iter ({:.2}x)",
            cogsys::experiments::RESONATE_ITER_BENCH_DIM,
            cogsys::experiments::RESONATE_ITER_BENCH_ROWS,
            split / 1e6,
            fused / 1e6,
            split / fused.max(1.0),
        );
    }

    // Scheduler/simulator consumption of the real plan stages: the adSCH
    // schedule over the lowered stage IR must be structurally valid, every
    // measured stage anchor present, and — with every stage lowered to the
    // executor's kernel class and resonate charged the measured trip count — the
    // scheduled decode share must track the measured one (see
    // `plan_schedule_report`'s share contract).
    let (plan_table, plan_mismatches) = cogsys::experiments::plan_schedule_report(&records);
    println!("{plan_table}");
    if !plan_mismatches.is_empty() {
        eprintln!("plan schedule validation FAILED:");
        for m in &plan_mismatches {
            eprintln!("  {m}");
        }
        return ExitCode::FAILURE;
    }

    if std::env::var("BENCH_GUARD").as_deref() == Ok("off") {
        println!("BENCH_GUARD=off: baseline comparison skipped");
        return ExitCode::SUCCESS;
    }
    let regressions =
        cogsys::experiments::packed_bench_regressions(&baseline, &records, GUARD_FACTOR);
    if regressions.is_empty() {
        println!(
            "bench guard: no packed kernel slower than {GUARD_FACTOR}x baseline \
             ({} baseline cells)",
            baseline.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("bench guard FAILED: packed kernels regressed past {GUARD_FACTOR}x baseline:");
        for r in &regressions {
            eprintln!("  {r}");
        }
        ExitCode::FAILURE
    }
}
