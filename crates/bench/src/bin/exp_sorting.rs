//! T1/F1: Theorem 3.2 sorting experiments. `--quick` shrinks the sweep;
//! `--backend {vec,ghost,trace}` picks the storage backend.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let backend = aem_bench::backend_from_args(&args);
    for t in aem_bench::exp::sorting::tables(quick, backend) {
        t.print();
    }
}
