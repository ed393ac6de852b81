//! # cogsys-bench — benchmark harness for the CogSys reproduction
//!
//! * `src/bin/` — one binary per paper table/figure; each prints the corresponding
//!   [`cogsys::experiments`] table (run e.g. `cargo run --release --bin fig15_runtime`).
//! * `src/bin/backend_throughput.rs` — the kernel-timing harness: the backend ×
//!   dim × batch sweep written to `BENCH_backends.json` and its regression guard.
