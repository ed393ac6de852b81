//! Backend throughput sweep with machine-readable output and a regression guard.
//!
//! Measures the codebook-cleanup and similarity kernels on pre-packed `BitMatrix`
//! queries and the sign-plane kernels for every [`cogsys_vsa::BackendKind`] across
//! `d ∈ {256, 1024, 4096}` × `batch ∈ {1, 32, 256}`, plus the **end-to-end solver
//! kernel** `solve_batch` (the cross-problem batched serving engine with reused
//! scratch, packed backend) at 8- and 64-problem batches with its per-stage cells,
//! plus the `project_signs_<rows>` cells (the sign projection onto the 9- and
//! 6-row RAVEN factor codebooks at d=2048 and 4096, 512 weight rows, beside the
//! same `reference` twin as `project_signs`, recorded in the JSON only),
//! plus the **rescue-route** cells `product_scan_<rows>` and
//! `factorize_sweep_<rows>` (one product-plane scan and one resonator sweep of
//! 512 scene rows at the RAVEN block shapes, d=2048 and 4096, the scan beside its
//! same-run `reference` twin, the f32 cleanup over the unpacked product planes,
//! and the sweep beside its same-run `noise_free_twin`, which no guard reads) —
//! prints the speedup table, and writes the raw
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
//! The detected Hamming-kernel SIMD tier (generic / popcnt / avx2 / avx512) and the
//! sign-projection tier (generic / avx2 / avx512; the two can differ) are printed
//! first so CI logs record which dispatch paths produced the numbers; with
//! `BENCH_REQUIRE_SIMD=1` the run fails outright when either fell back to the
//! generic tier (the CI runners are known-SIMD hosts, so a generic fallback there
//! means detection broke, not that the hardware shrank).
//!
//! `--explain` prints the compiled solve plans (key and stage IR) for the
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
    let projection = cogsys_vsa::projection_tier();
    println!("dispatch tier: {tier}");
    println!("projection tier: {projection}");
    if std::env::var("BENCH_REQUIRE_SIMD").as_deref() == Ok("1") {
        use cogsys_vsa::DispatchTier::Generic;
        for (family, resolved) in [("Hamming", tier), ("projection", projection)] {
            if resolved == Generic {
                eprintln!(
                    "BENCH_REQUIRE_SIMD=1: {family} dispatch fell back to the generic tier \
                     on a host expected to support SIMD"
                );
                return ExitCode::FAILURE;
            }
        }
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

    // The projection at the RAVEN factor-codebook lengths, and the rescue
    // route's kernels at the RAVEN block shapes: one product-plane scan against
    // one resonator sweep of the same 512 scene rows.
    records.extend(cogsys::experiments::raven_projection_records(SEED));
    records.extend(cogsys::experiments::product_scan_records(SEED));

    let json = cogsys::experiments::backend_throughput_json(SEED, &records);
    std::fs::write(path, &json).expect("BENCH_backends.json is writable");
    println!("wrote {} records to {path}", records.len());

    // Surface the headline kernel numbers at d=1024, batch=256: the packed cleanup
    // scan against its f32 oracle.
    let cell = |backend: &str, kernel: &str| {
        records
            .iter()
            .find(|r| r.backend == backend && r.kernel == kernel && r.dim == 1024 && r.batch == 256)
            .map(|r| r.ns_per_op)
    };
    for kernel in ["cleanup_prepacked", "similarity_prepacked"] {
        if let (Some(reference), Some(packed)) = (cell("reference", kernel), cell("packed", kernel))
        {
            println!(
                "{kernel} d=1024 batch=256: reference {:.3} ms, packed {:.3} ms ({:.1}x)",
                reference / 1e6,
                packed / 1e6,
                reference / packed.max(1.0)
            );
        }
    }

    // End-to-end solver throughput at a 64-problem serving batch (8·64 = 512 panel
    // rows per factorize call) on the packed backend.
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

    // Per scene row: the product scan against one resonator sweep, per block
    // shape and dimension, and the sweep against its noise-free twin (the share
    // of the sweep the noise costs).
    let scan_cell = |backend: &str, kernel: &str, dim: usize| {
        records
            .iter()
            .find(|r| r.backend == backend && r.kernel == kernel && r.dim == dim)
            .map(|r| r.ns_per_op / r.batch as f64)
    };
    for dim in [2048, 4096] {
        for products in [405, 60] {
            let sweep_kernel = format!("factorize_sweep_{products}");
            if let (Some(scan), Some(sweep)) = (
                scan_cell("packed", &format!("product_scan_{products}"), dim),
                scan_cell("packed", &sweep_kernel, dim),
            ) {
                println!(
                    "product_scan d={dim} products={products}: {:.2} us/row scan, {:.2} us/row \
                     sweep ({:.2}x)",
                    scan / 1e3,
                    sweep / 1e3,
                    sweep / scan.max(1e-3),
                );
                if let Some(oracle) =
                    scan_cell("reference", &format!("product_scan_{products}"), dim)
                {
                    println!(
                        "product_scan d={dim} products={products}: reference twin {:.2} us/row \
                         ({:.1}x the scan)",
                        oracle / 1e3,
                        oracle / scan.max(1e-3),
                    );
                }
                if let Some(quiet) = scan_cell("noise_free_twin", &sweep_kernel, dim) {
                    println!(
                        "factorize_sweep d={dim} products={products}: {:.2} us/row, noise-free \
                         twin {:.2} us/row (noise {:.0}% of the sweep)",
                        sweep / 1e3,
                        quiet / 1e3,
                        100.0 * (1.0 - quiet / sweep.max(1e-3)),
                    );
                }
            }
        }
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
