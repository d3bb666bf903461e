//! T5/F2: Theorem 4.5 permuting experiments. `--quick` shrinks the sweep;
//! `--backend {vec,ghost,trace}` picks the storage backend.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let backend = aem_bench::backend_from_args(&args);
    for t in aem_bench::exp::permute::tables(quick, backend) {
        t.print();
    }
}
