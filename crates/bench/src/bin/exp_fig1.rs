//! Regenerates the "fig1" experiment of the HiDP paper and prints it as a
//! markdown table. The README's Quickstart lists every experiment binary.

fn main() {
    let table = hidp_bench::fig1_partitioning_configs();
    println!("{}", table.to_markdown());
}
