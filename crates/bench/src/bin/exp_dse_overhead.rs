//! Regenerates the "dse_overhead" experiment of the HiDP paper and prints it as a
//! markdown table. The README's Quickstart lists every experiment binary.

fn main() {
    let table = hidp_bench::dse_overhead();
    println!("{}", table.to_markdown());
}
