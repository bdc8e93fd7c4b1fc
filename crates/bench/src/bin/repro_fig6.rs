//! Regenerates **Fig. 6**: the worst-case-ratio classification bands
//! (pass / weakness / fail), crisp and fuzzy.
//!
//! ```text
//! cargo run --release -p cichar-bench --bin repro_fig6
//! ```

use cichar_bench::{Cli, Flags};
use cichar_core::report::render_wcr_bands;
use cichar_core::wcr::WcrClass;
use cichar_fuzzy::coding::wcr_variable;

fn main() {
    // `--threads` and `--device` are accepted (and validated) for
    // symmetry with the other repro binaries; this figure is a pure
    // rendering with no measurements to fan out and no device to load.
    Cli::parse(&[Flags::Threads, Flags::Device]);
    println!("== Fig. 6 reproduction: WCR classification ==\n");
    print!("{}", render_wcr_bands());

    println!("\ncrisp classification sweep:");
    for i in 0..=12 {
        let wcr = i as f64 * 0.1;
        println!("  WCR {wcr:.1} -> {}", WcrClass::from_wcr(wcr));
    }

    println!("\nfuzzy coding (§5) of the same axis:");
    let variable = wcr_variable();
    println!("  WCR  | pass  | weakness | fail");
    for i in 0..=12 {
        let wcr = i as f64 * 0.1;
        let g = variable.grades(wcr);
        println!("  {wcr:.1}  | {:.2}  | {:.2}     | {:.2}", g[0], g[1], g[2]);
    }
}
