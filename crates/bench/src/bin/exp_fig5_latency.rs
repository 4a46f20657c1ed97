//! Regenerates the "fig5_latency" experiment of the HiDP paper and prints it as a
//! markdown table. The README's Quickstart lists every experiment binary.

fn main() {
    let table = hidp_bench::fig5_latency();
    println!("{}", table.to_markdown());
}
