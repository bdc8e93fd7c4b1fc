//! Command-line entry point; see the library documentation.

use perfbench::catalog;
use perfbench::common::Args;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let result = match perfbench::run(&args) {
        Ok(result) => result,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    };
    let expected: Vec<&str> = if args.trace {
        catalog::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| m.name).collect()
    };
    let emitted: Vec<&str> = result.metrics.keys().copied().collect();
    let mut sorted = expected.clone();
    sorted.sort_unstable();
    assert_eq!(emitted, sorted, "a run emits exactly its mode's metrics");
    println!("{}", result.to_json());
}
