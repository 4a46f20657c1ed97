//! Regenerates the "fig8" experiment of the HiDP paper and prints it as a
//! markdown table. The README's Quickstart lists every experiment binary.

fn main() {
    let table = hidp_bench::fig8_node_scaling();
    println!("{}", table.to_markdown());
}
