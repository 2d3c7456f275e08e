//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints context lines, then one JSON result line. Exits non-zero,
//! without a result line, on any output mismatch or failure to measure.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = perfbench::Args::parse(&argv).and_then(|args| perfbench::run(&args));
    match result {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
