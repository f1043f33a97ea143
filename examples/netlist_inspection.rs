//! Gate-level inspection of the proposed 4×4 multiplier: the published
//! Table 3 INIT values, the re-derivation proof, bit-accurate
//! simulation, static timing, and the toggle-energy model.
//!
//! ```text
//! cargo run --example netlist_inspection
//! ```

use approx_multipliers::core::structural::{approx_4x4_netlist, verify_table3, TABLE3};
use approx_multipliers::fabric::cost::Characterizer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table 3 of the paper, re-derived from the logic equations:\n");
    println!(
        "{:<6} {:>18} {:>10} {:>8}",
        "LUT", "INIT", "reachable", "match"
    );
    for check in verify_table3() {
        println!(
            "{:<6} {:>18} {:>10} {:>8}",
            check.name,
            format!("{:016X}", check.published.raw()),
            check.reachable,
            if check.matches { "yes" } else { "NO" }
        );
    }
    println!("\npin assignments (printed I5..I0, as in the paper):");
    for row in &TABLE3 {
        println!("  {:<6} {:?}", row.name, row.pins);
    }

    let nl = approx_4x4_netlist();
    let (cost, timing) = Characterizer::virtex7().characterize_with_timing(&nl)?;
    println!("\nnetlist `{}`: {}", nl.name(), cost.area);
    println!("{timing}");

    // Simulate a few products straight off the gates.
    for (a, b) in [(13u64, 13u64), (15, 15), (7, 6), (6, 7)] {
        let p = nl.eval(&[a, b])?[0];
        let marker = if p == a * b { "" } else { "  <- approximation" };
        println!("  {a:>2} x {b:>2} = {p:>3} (exact {:>3}){marker}", a * b);
    }

    // Dynamic-energy proxy under the characterizer's uniform random
    // stimulus, the one every front end shares.
    println!(
        "\nenergy proxy: {:.3} units/op over {} vectors, EDP {:.3}",
        cost.energy_per_op,
        Characterizer::STIMULUS_LEN,
        cost.edp
    );
    Ok(())
}
