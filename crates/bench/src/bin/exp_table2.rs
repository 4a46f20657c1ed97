//! Regenerates the "table2" experiment of the HiDP paper and prints it as a
//! markdown table. The README's Quickstart lists every experiment binary.

fn main() {
    let table = hidp_bench::table2_platform();
    println!("{}", table.to_markdown());
}
