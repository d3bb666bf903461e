//! T9/T9b/T9G: buffered priority queue and replacement-selection run
//! generation. `--quick` shrinks the sweep; `--backend {vec,ghost,trace}`
//! picks the storage backend.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let backend = aem_bench::backend_from_args(&args);
    for t in aem_bench::exp::pq::tables(quick, backend) {
        t.print();
    }
}
