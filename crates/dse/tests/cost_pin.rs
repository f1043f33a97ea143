//! Pins the hardware-cost path and the compiled programs to digests
//! taken before the path was optimized: any change that moves an area
//! count, a critical path, an energy or EDP bit, or one instruction,
//! slot or `net_src` entry of a compiled program fails here.
//!
//! The designs are every distinct 8×8 DSE key (the 1250 configurations
//! plus the five 4×4 leaves) and Ca, Cc, K and W at 16 and 32 bits.
//! The wide designs are also compiled with stuck-at faults baked in,
//! the path fault coverage and the NN fault tables take.
//!
//! The sweep takes seconds in release and minutes in debug, so it is
//! ignored by default; run it with
//! `cargo test --release -p axmul-dse --test cost_pin -- --ignored`.

use axmul_baselines::{kulkarni_netlist, rehman_netlist};
use axmul_core::structural::{ca_netlist, cc_netlist};
use axmul_dse::{Config, Leaf};
use axmul_fabric::compile::CompiledNetlist;
use axmul_fabric::cost::{Characterizer, NetlistCost};
use axmul_fabric::fault::Fault;
use axmul_fabric::{NetId, Netlist};

/// Digest of every `NetlistCost` in design order.
const COST_DIGEST: u64 = 0x99b2_0635_9476_af2d;
/// Digest of every `format!("{:?}", CompiledNetlist::compile(..))` in
/// design order, faulted compilations last.
const PROGRAM_DIGEST: u64 = 0x1e97_fc3f_c55c_0cb9;

/// FNV-1a, 64-bit: a fixed, dependency-free digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Separator, so adjacent records cannot run together.
        self.0 = (self.0 ^ 0xFF).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Every pinned design, in a fixed order.
fn designs() -> Vec<(String, Netlist)> {
    let mut out: Vec<(String, Netlist)> = Leaf::ALL
        .iter()
        .map(|&l| Config::Leaf(l))
        .chain(Config::enumerate(8))
        .map(|cfg| (cfg.key(), cfg.assemble()))
        .collect();
    for bits in [16, 32] {
        out.push((format!("Ca {bits}"), ca_netlist(bits).unwrap()));
        out.push((format!("Cc {bits}"), cc_netlist(bits).unwrap()));
        out.push((format!("K {bits}"), kulkarni_netlist(bits).unwrap()));
        out.push((format!("W {bits}"), rehman_netlist(bits).unwrap()));
    }
    out
}

/// Area fields exactly, the floats by their bits.
fn cost_line(name: &str, c: &NetlistCost) -> String {
    format!(
        "{name} {:?} {:016x} {:016x} {:016x}",
        c.area,
        c.critical_path_ns.to_bits(),
        c.energy_per_op.to_bits(),
        c.edp.to_bits()
    )
}

/// A deterministic spread of stuck-at faults: every 7th net, with
/// alternating polarity, plus a repeated net (the last fault wins).
fn faults_for(netlist: &Netlist) -> Vec<Fault> {
    let mut faults: Vec<Fault> = (0..netlist.net_count())
        .step_by(7)
        .enumerate()
        .map(|(i, net)| Fault {
            net: NetId::new(net as u32),
            stuck_at: i % 2 == 1,
        })
        .collect();
    faults.push(Fault::sa1(NetId::new(0)));
    faults
}

#[test]
#[ignore = "characterizes 1263 designs; run in release"]
fn cost_and_programs_match_the_pinned_digests() {
    let ch = Characterizer::virtex7();
    let mut cost = Fnv::new();
    let mut program = Fnv::new();
    let designs = designs();
    assert_eq!(designs.len(), 1255 + 8);
    for (name, nl) in &designs {
        cost.write(&cost_line(name, &ch.characterize(nl).unwrap()));
        program.write(&format!("{:?}", CompiledNetlist::compile(nl)));
    }
    for (_, nl) in designs.iter().skip(1255) {
        let faults = faults_for(nl);
        program.write(&format!(
            "{:?}",
            CompiledNetlist::compile_with_faults(nl, &faults)
        ));
        program.write(&format!(
            "{:?}",
            CompiledNetlist::compile_with_faults(nl, &faults[faults.len() / 2..][..1])
        ));
    }
    assert_eq!(
        (cost.0, program.0),
        (COST_DIGEST, PROGRAM_DIGEST),
        "got cost {:#018x}, program {:#018x}",
        cost.0,
        program.0
    );
}
