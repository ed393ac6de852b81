//! Regenerates every table and figure of the CogSys paper. Run with `cargo run --release --bin all_experiments`.
fn main() {
    for table in cogsys::experiments::fig04_profiling() {
        println!("{table}");
    }
    println!("{}", cogsys::experiments::fig05_roofline());
    println!("{}", cogsys::experiments::fig06_symbolic_ops());
    println!("{}", cogsys::experiments::tab02_kernel_stats());
    println!("{}", cogsys::experiments::fig08_factorization(2024));
    for table in cogsys::experiments::fig11_bs_dataflow() {
        println!("{table}");
    }
    println!("{}", cogsys::experiments::fig12_st_mapping());
    println!("{}", cogsys::experiments::tab05_pe_choice());
    println!("{}", cogsys::experiments::fig13_adsch());
    println!(
        "{}",
        cogsys::experiments::tab07_factorization_accuracy(3, 7)
    );
    println!("{}", cogsys::experiments::tab08_reasoning_accuracy(6, 7));
    println!("{}", cogsys::experiments::tab09_precision());
    println!("{}", cogsys::experiments::fig15_runtime());
    println!("{}", cogsys::experiments::fig16_energy());
    for table in cogsys::experiments::fig17_circconv_speedup() {
        println!("{table}");
    }
    println!("{}", cogsys::experiments::fig18_accelerators());
    println!("{}", cogsys::experiments::fig19_ablation());
    println!("{}", cogsys::experiments::tab10_codesign());
    let records = cogsys::experiments::backend_throughput_records(&[256, 1024], &[1, 32, 256], 7);
    println!(
        "{}",
        cogsys::experiments::backend_throughput_table(&records)
    );
}
