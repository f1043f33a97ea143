//! Design rosters shared by the experiments: one place that knows how
//! to turn an architecture name into a behavioral model or a structural
//! netlist. Area, delay and energy come from
//! `axmul_fabric::cost::Characterizer`, the recipe every front end
//! shares.

use axmul_baselines::{
    kulkarni_netlist, pp_truncated_netlist, rehman_netlist, IpOpt, Kulkarni, RehmanW, VivadoIp,
};
use axmul_core::structural::{ca_netlist, cc_netlist};
use axmul_fabric::Netlist;

/// A named structural design at a given operand width.
#[derive(Debug)]
pub struct RosterEntry {
    /// Display name (matches the behavioral `Multiplier::name` style).
    pub name: String,
    /// The netlist.
    pub netlist: Netlist,
}

/// The Fig. 7 roster at one operand width: the proposed designs, the
/// state-of-the-art baselines, truncated, and both IP variants.
///
/// # Panics
///
/// Panics unless `bits` ∈ {4, 8, 16}.
#[must_use]
pub fn fig7_roster(bits: u32) -> Vec<RosterEntry> {
    assert!(matches!(bits, 4 | 8 | 16), "Fig. 7 covers 4/8/16 bits");
    let mut v = vec![
        RosterEntry {
            name: format!("K {bits}x{bits}"),
            netlist: kulkarni_netlist(bits).expect("valid width"),
        },
        RosterEntry {
            name: format!("W {bits}x{bits}"),
            netlist: rehman_netlist(bits).expect("valid width"),
        },
        RosterEntry {
            name: format!("Ca {bits}x{bits}"),
            netlist: ca_netlist(bits).expect("valid width"),
        },
        RosterEntry {
            name: format!("Cc {bits}x{bits}"),
            netlist: cc_netlist(bits).expect("valid width"),
        },
        RosterEntry {
            name: format!("Trunc({bits},{})", bits / 2 + 1),
            netlist: pp_truncated_netlist(bits, bits, bits / 2 + 1),
        },
        RosterEntry {
            name: format!("VivadoIP-Area {bits}x{bits}"),
            netlist: VivadoIp::new(bits, IpOpt::Area).netlist(),
        },
    ];
    v.push(RosterEntry {
        name: format!("VivadoIP-Speed {bits}x{bits}"),
        netlist: VivadoIp::new(bits, IpOpt::Speed).netlist(),
    });
    v
}

/// The behavioral 8×8 multipliers of Table 5 (excluding the exact
/// reference), boxed for uniform handling.
#[must_use]
pub fn table5_roster() -> Vec<Box<dyn axmul_core::Multiplier>> {
    use axmul_baselines::Truncated;
    use axmul_core::behavioral::{Ca, Cc};
    vec![
        Box::new(Ca::new(8).expect("8 is valid")),
        Box::new(Cc::new(8).expect("8 is valid")),
        Box::new(RehmanW::new(8).expect("8 is valid")),
        Box::new(Kulkarni::new(8).expect("8 is valid")),
        Box::new(Truncated::new(8, 4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_roster_is_complete() {
        let r = fig7_roster(8);
        assert_eq!(r.len(), 7);
        assert!(r.iter().any(|e| e.name.starts_with("Ca")));
        assert!(r.iter().any(|e| e.name.contains("VivadoIP-Speed")));
    }

    #[test]
    fn table5_roster_names() {
        let names: Vec<String> = table5_roster()
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        assert_eq!(names, ["Ca 8x8", "Cc 8x8", "W 8x8", "K 8x8", "Mult(8,4)"]);
    }
}
