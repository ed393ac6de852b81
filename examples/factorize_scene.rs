//! Scene-vector factorization walk-through: build NVSA-style attribute codebooks, bind
//! a scene description into a hypervector, corrupt it with perception noise, and
//! recover the attributes with the CogSys iterative factorizer — comparing memory and
//! work against the brute-force product-codebook search it replaces (paper Sec. IV,
//! Fig. 8). The brute-force side expands all 24,300 combinations into sign planes and
//! searches them with one linear popcount scan.
//!
//! The walk-through makes the resonator's **capacity cliff** explicit: a flat F = 5
//! factorization at d = 1024 sits beyond the network's operational capacity and
//! (usually) fails to converge, which is why the production pipeline splits the five
//! attributes into two bound blocks and factorizes each block separately — the same
//! strategy `cogsys-workloads` uses, demonstrated here on the packed bipolar backend.
//!
//! Run with: `cargo run --release --example factorize_scene`

use cogsys_factorizer::{FactorizationCost, Factorizer, FactorizerConfig};
use cogsys_vsa::codebook::{BindingOp, CodebookSet, ProductCodebook};
use cogsys_vsa::{ops, BackendKind, Codebook, Precision};
use cogsys_workloads::NeurosymbolicSolver;
use std::time::Instant;

fn main() {
    let mut rng = cogsys_vsa::rng(7);

    // NVSA attribute structure: position(9), number(9), type(5), size(6), color(10).
    let sizes = [9usize, 9, 5, 6, 10];
    let dim = 1024;
    let set = CodebookSet::random(&sizes, dim, BindingOp::Hadamard, &mut rng);
    println!(
        "attribute codebooks: {} factors, {} combinations, d = {}",
        set.num_factors(),
        set.combinations(),
        set.dim()
    );

    // A "scene" produced by the neural frontend: one codevector per attribute, bound
    // together, with a little interface noise.
    let truth = [4usize, 2, 3, 1, 7];
    let clean = set.bind_indices(&truth).expect("indices are in range");
    let query = ops::flip_noise(&clean, 0.05, &mut rng);

    // --- Part 1: the F = 5 capacity cliff -------------------------------------------
    // The resonator's operational capacity shrinks rapidly with the number of factors;
    // 24 300 combinations across five factors at d = 1024 is outside it, so the flat
    // factorization is expected NOT to converge. This is presented deliberately: it is
    // the reason the pipeline below factorizes per block.
    let flat = Factorizer::new(FactorizerConfig::default());
    let result = flat
        .factorize(&set, &query, &mut rng)
        .expect("query matches the codebook dimension");
    println!("\nFlat F=5 factorization (capacity cliff demo):");
    println!(
        "  decoded attributes : {:?} (truth {:?})",
        result.indices, truth
    );
    println!(
        "  iterations         : {} (budget {})",
        result.iterations,
        flat.config().max_iterations
    );
    println!("  converged          : {}", result.converged);
    if !result.converged {
        println!("  -> expected: F=5 at d=1024 exceeds the resonator's capacity.");
    }

    // --- Part 2: per-block factorization (the production strategy) ------------------
    // Split the five attributes into the pipeline's two blocks — (position, number,
    // type) and (size, color) — bind each block, superpose the two products into one
    // scene vector (exactly what `cogsys-workloads` encodes), and factorize each block
    // *out of the superposition* on the bit-packed backend (XOR unbind + popcount
    // similarity). Each block is well inside capacity; the other block acts as bounded
    // superposition noise, which is why the convergence threshold drops to
    // 0.6/sqrt(#blocks) — the flat 0.9 would be unreachable by construction.
    let blocks: [&[usize]; 2] = [&[0, 1, 2], &[3, 4]];
    let block_sets: Vec<CodebookSet> = blocks
        .iter()
        .map(|attrs| {
            let members: Vec<Codebook> =
                attrs.iter().map(|&i| set.codebooks()[i].clone()).collect();
            CodebookSet::new(members, BindingOp::Hadamard).expect("blocks are non-empty")
        })
        .collect();
    // Scene = sign(block0 + block1) plus 1% interface noise. A correct block decode
    // plateaus at cosine ≈ 0.5 against this scene (the other block halves the
    // agreement and ties break to +1), so the per-block threshold of ≈ 0.42 is
    // reachable while the flat 0.9 never is.
    let products: Vec<_> = blocks
        .iter()
        .zip(&block_sets)
        .map(|(attrs, bs)| {
            let idx: Vec<usize> = attrs.iter().map(|&i| truth[i]).collect();
            bs.bind_indices(&idx).expect("indices are in range")
        })
        .collect();
    let scene = ops::flip_noise(
        &ops::majority_bundle(products.iter()).expect("two block products"),
        0.01,
        &mut rng,
    );

    let block_threshold = NeurosymbolicSolver::block_convergence_threshold(blocks.len());
    // BackendKind::Packed is the default since the packed pipeline closed end to end;
    // the explicit call documents that this example leans on the XOR/popcount engine.
    let factorizer = Factorizer::new(
        FactorizerConfig {
            convergence_threshold: block_threshold,
            ..FactorizerConfig::default()
        }
        .with_backend(BackendKind::Packed),
    );
    println!(
        "\nPer-block factorization of the scene superposition (packed backend, \
         threshold {block_threshold:.2}):"
    );
    let mut decoded = vec![0usize; sizes.len()];
    for (b, (attrs, block_set)) in blocks.iter().zip(&block_sets).enumerate() {
        let block_result = factorizer
            .factorize(block_set, &scene, &mut rng)
            .expect("scene matches the codebook dimension");
        for (&attr, &idx) in attrs.iter().zip(&block_result.indices) {
            decoded[attr] = idx;
        }
        println!(
            "  block {b} ({} factors): decoded {:?} in {} iterations, converged = {}",
            attrs.len(),
            block_result.indices,
            block_result.iterations,
            block_result.converged
        );
    }
    println!(
        "  all attributes     : {:?} (truth {:?}) -> {}",
        decoded,
        truth,
        if decoded == truth {
            "exact"
        } else {
            "mismatch"
        }
    );

    // --- Part 3: brute-force baseline and the Fig. 8 cost comparison ----------------
    let start = Instant::now();
    let product = ProductCodebook::expand(&set).expect("product space fits the expansion guard");
    let build = start.elapsed();
    let start = Instant::now();
    let (baseline, _) = product
        .brute_force_search(&query)
        .expect("query is bipolar and matches the codebook dimension");
    let search = start.elapsed();
    println!("\nBrute-force product-codebook search:");
    println!("  decoded attributes : {baseline:?}");
    // The exhaustive search is exact at this noise level; CI runs this example, so a
    // broken product build or search fails here rather than printing a wrong tuple.
    assert_eq!(baseline, truth, "exhaustive search must recover the scene");
    println!("  candidates examined: {}", product.len());
    println!(
        "  build / search     : {:.2} ms / {:.3} ms",
        build.as_secs_f64() * 1e3,
        search.as_secs_f64() * 1e3
    );

    let cost = FactorizationCost::estimate(&set, Precision::Fp32, result.iterations as f64);
    println!("\nFactorization vs product codebook:");
    println!(
        "  codebook memory    : {:.0} KB -> {:.0} KB  ({:.1}x reduction)",
        cost.product_codebook_bytes as f64 / 1024.0,
        cost.factored_codebook_bytes as f64 / 1024.0,
        cost.memory_reduction()
    );
    println!(
        "  MACs per query     : {:.2e} -> {:.2e}  ({:.1}x reduction)",
        cost.product_macs_per_query as f64,
        cost.factored_macs_per_query as f64,
        cost.compute_reduction()
    );
}
