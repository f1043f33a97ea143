//! Satellite property test for the compiled bit-sliced simulator: for
//! **every structural netlist in the roster** — the paper's designs,
//! every baseline family, the EvoApprox-style library, the adder
//! netlists and a stride of the 1 250 enumerated recursive 8×8
//! configurations — the compiled program's outputs and *per-net* words
//! are bit-identical to the scalar [`Netlist::eval`] reference and the
//! interpretive [`WideSim`]. Net-word equality over all nets subsumes
//! toggle-count equality, so the energy proxy is covered too.
//!
//! The scalar oracle's edge cases are pinned against the compiled
//! program as well: three input buses, input words with bits set above
//! the bus width, `O5` outputs and partly used `CARRY4` outputs, and
//! undriven nets of an unvalidated [`Netlist::from_parts`], which read 0.

use approx_multipliers::adders::{carry_free_adder_netlist, exact_adder_netlist, loa_netlist};
use approx_multipliers::baselines::{
    array_mult_netlist, csa_tree_mult_netlist, evo, kulkarni_kernel_netlist, kulkarni_netlist,
    pp_truncated_netlist, rehman_kernel_netlist, rehman_netlist, IpOpt, VivadoIp,
};
use approx_multipliers::core::correction::correctable_4x4_netlist;
use approx_multipliers::core::structural::{
    approx_4x2_netlist, approx_4x4_accsum_netlist, approx_4x4_netlist, ca_netlist, cc_netlist,
};
use approx_multipliers::dse::Config;
use approx_multipliers::fabric::compile::{CompiledNetlist, CompiledSim};
use approx_multipliers::fabric::sim::WideSim;
use approx_multipliers::fabric::{Cell, CellId, Driver, Init, NetId, Netlist};

fn roster() -> Vec<Netlist> {
    let mut r = vec![
        approx_4x2_netlist(),
        approx_4x4_netlist(),
        approx_4x4_accsum_netlist(),
        correctable_4x4_netlist(),
        ca_netlist(4).unwrap(),
        ca_netlist(8).unwrap(),
        cc_netlist(4).unwrap(),
        cc_netlist(8).unwrap(),
        kulkarni_kernel_netlist(),
        kulkarni_netlist(8).unwrap(),
        rehman_kernel_netlist(),
        rehman_netlist(8).unwrap(),
        pp_truncated_netlist(8, 8, 1),
        pp_truncated_netlist(8, 8, 2),
        pp_truncated_netlist(8, 8, 3),
        array_mult_netlist(8, 8),
        csa_tree_mult_netlist(8, 8),
        VivadoIp::new(8, IpOpt::Area).netlist(),
        VivadoIp::new(8, IpOpt::Speed).netlist(),
        exact_adder_netlist(8),
        loa_netlist(8, 3),
        carry_free_adder_netlist(8),
    ];
    for design in evo::library() {
        r.push(design.netlist());
    }
    r
}

/// Deterministic SplitMix64 stream (same generator the fabric's
/// stimulus uses; no external RNG dependency).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 128 lanes per bus: corners first, then a deterministic random fill,
/// each masked to the bus width.
fn lanes_for(netlist: &Netlist, seed: u64) -> Vec<Vec<u64>> {
    let mut state = seed;
    netlist
        .input_buses()
        .iter()
        .map(|(_, bits)| {
            let w = bits.len() as u32;
            let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            let mut lanes = vec![0, mask, 1 & mask, mask >> 1];
            while lanes.len() < 128 {
                lanes.push(splitmix(&mut state) & mask);
            }
            lanes
        })
        .collect()
}

/// Asserts the scalar `Netlist::eval` and a compiled simulation give
/// the same outputs on every lane of `lanes` (`lanes[bus][lane]`, up to
/// 128 lanes, passed to both exactly as given). Returns the scalar
/// outputs, `[lane][bus]`.
fn assert_eval_matches_compiled(netlist: &Netlist, lanes: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let name = netlist.name();
    let refs: Vec<&[u64]> = lanes.iter().map(Vec::as_slice).collect();
    let prog = CompiledNetlist::compile(netlist);
    let mut sim: CompiledSim<'_, 2> = prog.simulator();
    let compiled = sim.eval(&refs).unwrap();
    (0..lanes[0].len())
        .map(|lane| {
            let vector: Vec<u64> = lanes.iter().map(|bus| bus[lane]).collect();
            let scalar = netlist.eval(&vector).unwrap();
            for (bus, &want) in scalar.iter().enumerate() {
                let got = compiled[bus][lane];
                assert_eq!(got, want, "{name}: output bus {bus}, lane {lane}");
            }
            scalar
        })
        .collect()
}

/// Asserts the compiled program reproduces `Netlist::eval` outputs and
/// every `WideSim` net word exactly, on a 128-lane stimulus.
fn assert_compiled_matches(netlist: &Netlist) {
    let name = netlist.name();
    let lanes = lanes_for(netlist, 0x0D0C_5EED ^ netlist.net_count() as u64);
    assert_eval_matches_compiled(netlist, &lanes);

    let refs: Vec<&[u64]> = lanes.iter().map(Vec::as_slice).collect();
    let prog = CompiledNetlist::compile(netlist);
    let mut sim: CompiledSim<'_, 2> = prog.simulator();
    assert_eq!(sim.load(&refs).unwrap(), 128);
    sim.run();

    // Every net word versus the interpretive WideSim, 64 lanes at a
    // time (equality over all nets subsumes toggle-count equality).
    let mut wide = WideSim::new(netlist);
    for half in 0..2 {
        let half_refs: Vec<&[u64]> = lanes
            .iter()
            .map(|bus| &bus[64 * half..64 * (half + 1)])
            .collect();
        let nets = wide.eval_nets(&half_refs).unwrap();
        for (net, &want) in nets.iter().enumerate() {
            let got = sim.net_word(NetId::new(net as u32))[half];
            assert_eq!(got, want, "{name}: net {net}, half {half}");
        }
    }
}

#[test]
fn compiled_sim_matches_reference_across_the_roster() {
    let designs = roster();
    assert!(designs.len() > 40, "roster covers the evo library too");
    for nl in &designs {
        assert_compiled_matches(nl);
    }
}

#[test]
fn compiled_sim_matches_reference_on_enumerated_recursive_configs() {
    let configs = Config::enumerate(8);
    assert_eq!(configs.len(), 1250);
    let sampled: Vec<&Config> = configs.iter().step_by(83).collect();
    assert!(sampled.len() >= 15);
    for cfg in sampled {
        assert_compiled_matches(&cfg.assemble());
    }
}

#[test]
fn scalar_oracle_ignores_bits_above_the_bus_width_on_three_buses() {
    // The correction circuit has three input buses: a, b and the
    // one-bit enable `en`.
    let nl = correctable_4x4_netlist();
    let widths: Vec<usize> = nl.input_buses().iter().map(|(_, b)| b.len()).collect();
    assert_eq!(widths, [4, 4, 1]);
    let mut state = 0x0E_D6E5;
    let raw: Vec<Vec<u64>> = (0..3)
        .map(|_| (0..128).map(|_| splitmix(&mut state)).collect())
        .collect();
    assert!(
        raw.iter().flatten().any(|w| w >> 4 != 0),
        "high bits are set"
    );
    let masked: Vec<Vec<u64>> = raw
        .iter()
        .zip(&widths)
        .map(|(bus, &w)| bus.iter().map(|v| v & ((1 << w) - 1)).collect())
        .collect();
    assert_eq!(
        assert_eval_matches_compiled(&nl, &raw),
        assert_eval_matches_compiled(&nl, &masked)
    );
}

/// Exhaustive 7-bit stimulus for a netlist with buses `a` (4 bits) and
/// `b` (3 bits).
fn a4_b3_lanes() -> Vec<Vec<u64>> {
    vec![
        (0..128).map(|v| v & 15).collect(),
        (0..128).map(|v| v >> 4).collect(),
    ]
}

#[test]
fn scalar_oracle_covers_o5_outputs_and_partly_used_carry4_outputs() {
    let n = NetId::new;
    let mut drivers: Vec<Driver> = (0..4).map(|j| Driver::Input(0, j)).collect();
    drivers.extend((0..3).map(|j| Driver::Input(1, j)));
    drivers.extend([
        Driver::Const(false),
        Driver::LutO6(CellId::new(0)),
        Driver::LutO5(CellId::new(0)),
        Driver::LutO6(CellId::new(1)),
        Driver::LutO5(CellId::new(1)),
        Driver::CarrySum(CellId::new(2), 1),
        Driver::CarryCout(CellId::new(2), 0),
        Driver::CarrySum(CellId::new(2), 3),
        Driver::CarryCout(CellId::new(2), 2),
    ]);
    let cells = vec![
        Cell::Lut {
            init: Init::from_raw(0x9C3E_51A7_0F62_D8B4),
            inputs: [n(0), n(1), n(2), n(4), n(5), n(6)],
            o6: n(8),
            o5: Some(n(9)),
        },
        Cell::Lut {
            init: Init::from_raw(0x36F0_A5C9_E417_8B2D),
            inputs: [n(3), n(4), n(1), n(6), n(0), n(2)],
            o6: n(10),
            o5: Some(n(11)),
        },
        Cell::Carry4 {
            cin: n(4),
            s: [n(8), n(10), n(9), n(11)],
            di: [n(0), n(1), n(5), n(6)],
            o: [None, Some(n(12)), None, Some(n(14))],
            co: [Some(n(13)), None, Some(n(15)), None],
        },
    ];
    let nl = Netlist::from_parts(
        "o5_partial_carry",
        drivers,
        cells,
        vec![
            ("a".into(), (0..4).map(n).collect()),
            ("b".into(), (4..7).map(n).collect()),
        ],
        vec![
            ("lut".into(), (8..12).map(n).collect()),
            ("carry".into(), (12..16).map(n).collect()),
        ],
    );
    let outs = assert_eval_matches_compiled(&nl, &a4_b3_lanes());
    // O5 must differ from O6 somewhere, or the O5 path went untested.
    assert!(outs.iter().any(|o| o[0] & 1 != o[0] >> 1 & 1));
}

#[test]
fn undriven_nets_of_an_unvalidated_netlist_read_zero() {
    let n = NetId::new;
    let mut drivers: Vec<Driver> = (0..4).map(|j| Driver::Input(0, j)).collect();
    drivers.extend((0..3).map(|j| Driver::Input(1, j)));
    drivers.extend([
        // Net 7: driven by a cell that does not exist.
        Driver::LutO6(CellId::new(9)),
        Driver::LutO6(CellId::new(0)),
        // Net 9: an input bit of a bus that is never declared.
        Driver::Input(2, 0),
    ]);
    let cells = vec![Cell::Lut {
        init: Init::OR2,
        inputs: [n(7), n(0), n(9), n(9), n(9), n(9)],
        o6: n(8),
        o5: None,
    }];
    let nl = Netlist::from_parts(
        "undriven",
        drivers,
        cells,
        vec![
            ("a".into(), (0..4).map(n).collect()),
            ("b".into(), (4..7).map(n).collect()),
        ],
        vec![("y".into(), vec![n(7), n(8), n(9)])],
    );
    for (lane, out) in assert_eval_matches_compiled(&nl, &a4_b3_lanes())
        .iter()
        .enumerate()
    {
        // y = {undriven, OR(undriven, a[0]), undriven} = a[0] << 1.
        assert_eq!(out[0], (lane as u64 & 1) << 1, "lane {lane}");
    }
}
