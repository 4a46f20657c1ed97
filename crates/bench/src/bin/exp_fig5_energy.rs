//! Regenerates the "fig5_energy" experiment of the HiDP paper and prints it as a
//! markdown table. The README's Quickstart lists every experiment binary.

fn main() {
    let table = hidp_bench::fig5_energy();
    println!("{}", table.to_markdown());
}
