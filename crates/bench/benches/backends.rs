//! Backend comparison (reference vs bit-packed) on codebook cleanup, the hot batch
//! kernel, across dimensionality d ∈ {256, 1024, 4096} and batch size ∈ {1, 32, 256}.
//!
//! Run with `cargo bench --bench backends`. The headline acceptance number is the
//! `packed` cleanup speedup at d = 1024, batch = 256 (the packed backend reads the
//! codebook's cached sign planes and only packs the queries per call).

use cogsys_vsa::batch::{BackendKind, HvMatrix, VsaBackend};
use cogsys_vsa::{Codebook, Hypervector};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

const DIMS: [usize; 3] = [256, 1024, 4096];
const BATCHES: [usize; 3] = [1, 32, 256];
const CODEBOOK_ROWS: usize = 64;

fn backends() -> Vec<Arc<dyn VsaBackend>> {
    BackendKind::ALL.iter().map(|k| k.create()).collect()
}

fn random_matrix(rows: usize, dim: usize, seed: u64) -> HvMatrix {
    let mut rng = cogsys_vsa::rng(seed);
    let hvs: Vec<Hypervector> = (0..rows)
        .map(|_| Hypervector::random_bipolar(dim, &mut rng))
        .collect();
    HvMatrix::from_rows(&hvs).expect("rows share a dimension")
}

fn bench_cleanup(c: &mut Criterion) {
    let mut group = c.benchmark_group("codebook_cleanup");
    group.sample_size(10);
    for dim in DIMS {
        let mut rng = cogsys_vsa::rng(3);
        let codebook = Codebook::random("bench", CODEBOOK_ROWS, dim, &mut rng);
        for batch in BATCHES {
            let queries = random_matrix(batch, dim, 4 + batch as u64);
            for backend in backends() {
                group.bench_with_input(
                    BenchmarkId::new(backend.name(), format!("d{dim}_b{batch}")),
                    &dim,
                    |bench, _| {
                        bench.iter(|| {
                            codebook
                                .cleanup_batch(backend.as_ref(), black_box(&queries))
                                .expect("shapes match")
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cleanup);
criterion_main!(benches);
