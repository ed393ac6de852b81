//! Criterion benchmarks of the algorithm-level contribution: the iterative factorizer
//! against the brute-force product-codebook search (the latency side of Fig. 8), with
//! and without stochasticity injection.

use cogsys_factorizer::{Factorizer, FactorizerConfig};
use cogsys_vsa::codebook::{BindingOp, CodebookSet, ProductCodebook};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_factorization(c: &mut Criterion) {
    let mut group = c.benchmark_group("factorization");
    group.sample_size(10);

    for &(sizes, dim) in &[
        (&[8usize, 8, 8][..], 1024usize),
        (&[9, 9, 5, 6, 10][..], 1024),
    ] {
        let label = format!("{}f_d{}", sizes.len(), dim);
        let mut rng = cogsys_vsa::rng(3);
        let set = CodebookSet::random(sizes, dim, BindingOp::Hadamard, &mut rng);
        let indices: Vec<usize> = sizes.iter().map(|&m| m / 2).collect();
        let query = set.bind_indices(&indices).expect("indices are in range");

        group.bench_with_input(BenchmarkId::new("resonator", &label), &dim, |bench, _| {
            let factorizer = Factorizer::new(FactorizerConfig::default());
            let mut rng = cogsys_vsa::rng(4);
            bench.iter(|| {
                factorizer
                    .factorize(black_box(&set), black_box(&query), &mut rng)
                    .expect("well-formed query")
            })
        });

        group.bench_with_input(
            BenchmarkId::new("resonator_no_stochasticity", &label),
            &dim,
            |bench, _| {
                let factorizer = Factorizer::new(FactorizerConfig::without_stochasticity());
                let mut rng = cogsys_vsa::rng(4);
                bench.iter(|| {
                    factorizer
                        .factorize(black_box(&set), black_box(&query), &mut rng)
                        .expect("well-formed query")
                })
            },
        );

        // The expanded product codebook as sign planes: 512 rows for the 3-factor
        // space and 24,300 for the 5-factor one, both searched through the cleanup
        // index.
        let product = ProductCodebook::expand(&set).expect("product space fits the guard");
        group.bench_with_input(BenchmarkId::new("brute_force", &label), &dim, |bench, _| {
            bench.iter(|| {
                product
                    .brute_force_search(black_box(&query))
                    .expect("well-formed query")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_factorization);
criterion_main!(benches);
