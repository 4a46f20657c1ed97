//! Regenerates the "fig6" experiment of the HiDP paper and prints it as a
//! markdown table. The README's Quickstart lists every experiment binary.

fn main() {
    let table = hidp_bench::fig6_dynamic_performance();
    println!("{}", table.to_markdown());
}
