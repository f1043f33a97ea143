//! Compositional wce proofs agree with the exhaustive truth, with the
//! netlist CEGAR, and with the proven 16×16 roster values, and a design
//! whose product-block claims are wrong can never change a proven wce:
//! every check it fails sends the proof to the netlist CEGAR. The
//! netlist CEGAR is checked against the exhaustive truth on its own
//! too.

use axmul_baselines::kulkarni_netlist;
use axmul_core::behavioral::Summation;
use axmul_core::structural::{
    approx_4x4_netlist, cc_netlist, combine_partial_products, TERNARY_INIT,
};
use axmul_dse::{CharCache, Config, Leaf};
use axmul_fabric::cost::Characterizer;
use axmul_fabric::{Cell, Init, NetId, Netlist, NetlistBuilder};
use axmul_sat::{prove_wce, WceEngine, WceOptions, WceProof};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The same design with no provenance: always the netlist CEGAR.
fn provenance_free(nl: &Netlist) -> Netlist {
    Netlist::from_parts(
        nl.name(),
        nl.drivers().to_vec(),
        nl.cells().to_vec(),
        nl.input_buses().to_vec(),
        nl.output_buses().to_vec(),
    )
}

/// Proves `nl` and checks that the witness replays to exactly the wce.
fn prove(nl: &Netlist) -> WceProof {
    let proof = prove_wce(nl, &WceOptions::default()).expect("provable");
    let (a, b) = proof.witness;
    let p = nl.eval(&[a, b]).expect("replay")[0];
    assert_eq!(
        u128::from(p).abs_diff(u128::from(a) * u128::from(b)),
        proof.wce,
        "{}: witness ({a}, {b}) does not replay to the wce",
        nl.name()
    );
    proof
}

/// Proves every config and compares with the `CharCache` exhaustive
/// sweep; every proof must be compositional.
fn check_against_sweep(configs: &[Config]) {
    let cache = CharCache::new(Characterizer::virtex7());
    for cfg in configs {
        let swept = cache.characterize(cfg).expect("sweep").stats.max_error;
        let proof = prove(&cfg.assemble());
        assert_eq!(proof.engine, WceEngine::Compositional, "{}", cfg.key());
        assert_eq!(
            proof.wce,
            u128::from(swept.unsigned_abs()),
            "{}: proven wce differs from the sweep",
            cfg.key()
        );
    }
}

#[test]
fn seeded_8x8_configs_agree_with_the_sweep() {
    let mut rng = StdRng::seed_from_u64(0xC0_4B05);
    let mut configs: Vec<Config> = (0..32).map(|_| Config::random(8, &mut rng)).collect();
    configs.push("(a X X X X)".parse().expect("key"));
    configs.push("(c X X X X)".parse().expect("key"));
    assert!(
        configs.iter().filter(|c| c.key().contains('X')).count() >= 8,
        "the draw must exercise exact leaves"
    );
    check_against_sweep(&configs);
    // An all-exact Ca quad is exact; its Cc twin still drops carries.
    let exact = prove(&"(a X X X X)".parse::<Config>().expect("key").assemble());
    assert_eq!(exact.wce, 0);
    assert_eq!(exact.ascent_steps, 0);
}

#[test]
fn roster_16x16_designs_reproduce_their_proven_wce() {
    // `BENCH_sat.json` values, proven by the netlist CEGAR.
    for (nl, wce) in [
        (kulkarni_netlist(16).expect("width"), 954_408_050),
        (cc_netlist(16).expect("width"), 578_760_256),
    ] {
        let proof = prove(&nl);
        assert_eq!(proof.engine, WceEngine::Compositional, "{}", nl.name());
        assert_eq!(proof.wce, wce, "{}", nl.name());
    }
}

/// How [`hand_quad`] falsifies its design or its claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tamper {
    None,
    /// The `hl` claim lists two product bits swapped.
    PermutedBus,
    /// One carry-free column's XOR3 has one table bit flipped.
    FlippedInit,
    /// The `ll` leaf reads `AH[0]` in place of `AL[0]`, but is claimed
    /// as `AL·BL`.
    OutsideRead,
    /// The `hh` claim is missing.
    MissingBlock,
}

/// A Cc 8×8 quad of approximate 4×4 leaves assembled by hand, so its
/// claims and its summation can be falsified.
fn hand_quad(tamper: Tamper) -> Netlist {
    let leaf = approx_4x4_netlist();
    let mut bld = NetlistBuilder::new(format!("hand_{tamper:?}"));
    let a = bld.inputs("a", 8);
    let b = bld.inputs("b", 8);
    let (al, ah) = a.split_at(4);
    let (bl, bh) = b.split_at(4);
    let operands: [(&[NetId], &[NetId]); 4] = [(al, bl), (ah, bl), (al, bh), (ah, bh)];
    let mut q: Vec<Vec<NetId>> = Vec::new();
    for (i, (x, y)) in operands.iter().enumerate() {
        let mut x = x.to_vec();
        if tamper == Tamper::OutsideRead && i == 0 {
            x[0] = ah[0];
        }
        q.push(bld.instantiate(&leaf, &[&x, y]).remove(0));
    }
    for (i, (x, y)) in operands.iter().enumerate() {
        if tamper == Tamper::MissingBlock && i == 3 {
            continue;
        }
        let mut p = q[i].clone();
        if tamper == Tamper::PermutedBus && i == 1 {
            p.swap(2, 5);
        }
        bld.claim_product(x, y, &p);
    }
    // Fig. 6: low half of `ll`, XOR3 columns, top half of `hh`.
    let m = 4;
    let mut p: Vec<NetId> = q[0][..m].to_vec();
    for r in 0..2 * m {
        let (i0, i1, i2) = if r < m {
            (q[0][m + r], q[1][r], q[2][r])
        } else {
            (q[1][r], q[2][r], q[3][r - m])
        };
        let init = if tamper == Tamper::FlippedInit && r == 3 {
            Init::from_raw(Init::XOR3.raw() ^ 0b10)
        } else {
            Init::XOR3
        };
        p.push(bld.lut3(init, i0, i1, i2));
    }
    p.extend_from_slice(&q[3][m..]);
    bld.output_bus("p", &p);
    bld.finish().expect("well-formed")
}

#[test]
fn false_claims_fall_back_to_the_netlist_cegar() {
    let honest = prove(&hand_quad(Tamper::None));
    assert_eq!(honest.engine, WceEngine::Compositional);
    let assembled = prove(&"(c A A A A)".parse::<Config>().expect("key").assemble());
    assert_eq!(honest.wce, assembled.wce);

    for tamper in [
        Tamper::PermutedBus,
        Tamper::FlippedInit,
        Tamper::OutsideRead,
        Tamper::MissingBlock,
    ] {
        let nl = hand_quad(tamper);
        let claimed = prove(&nl);
        let reference = prove(&provenance_free(&nl));
        assert_eq!(reference.engine, WceEngine::Netlist);
        assert_eq!(
            claimed.engine,
            WceEngine::Netlist,
            "{tamper:?} passed the checks"
        );
        assert_eq!(claimed.wce, reference.wce, "{tamper:?}");
    }
}

/// A Ca 8×8 quad of approximate 4×4 leaves whose ternary adder
/// (Fig. 5b) is written out one `LUT6_2` per column, so that column 2's
/// INIT can carry a flipped bit.
fn hand_ca_quad(flip: Option<u32>) -> Netlist {
    let leaf = approx_4x4_netlist();
    let mut bld = NetlistBuilder::new(format!("hand_ca_{flip:?}"));
    let a = bld.inputs("a", 8);
    let b = bld.inputs("b", 8);
    let (al, ah) = a.split_at(4);
    let (bl, bh) = b.split_at(4);
    let mut q: Vec<Vec<NetId>> = Vec::new();
    for (x, y) in [(al, bl), (ah, bl), (al, bh), (ah, bh)] {
        q.push(bld.instantiate(&leaf, &[x, y]).remove(0));
        bld.claim_product(x, y, q.last().expect("pushed"));
    }
    let m = 4;
    let (zero, one) = (bld.constant(false), bld.constant(true));
    let mut p: Vec<NetId> = q[0][..m].to_vec();
    let (mut props, mut gens) = (Vec::new(), Vec::new());
    let mut majority = zero;
    for r in 0..3 * m {
        let x = if r < m { q[0][m + r] } else { q[3][r - m] };
        let (y, z) = if r < 2 * m {
            (q[1][r], q[2][r])
        } else {
            (zero, zero)
        };
        let init = match flip {
            Some(bit) if r == 2 => Init::from_raw(TERNARY_INIT.raw() ^ 1 << bit),
            _ => TERNARY_INIT,
        };
        let (o6, o5) = bld.lut6_2(init, [x, y, z, majority, zero, one]);
        props.push(o6);
        gens.push(majority);
        majority = o5;
    }
    p.extend(bld.carry_chain(zero, &props, &gens).0);
    bld.output_bus("p", &p);
    bld.finish().expect("well-formed")
}

#[test]
fn a_flipped_ternary_adder_bit_falls_back_to_the_netlist_cegar() {
    let honest = prove(&hand_ca_quad(None));
    assert_eq!(honest.engine, WceEngine::Compositional);
    let assembled = prove(&"(a A A A A)".parse::<Config>().expect("key").assemble());
    assert_eq!(honest.wce, assembled.wce);

    // The claims are the honest quad's, so only the cut-point check can
    // turn the proof away: the flipped LUT no longer hashes onto the
    // reference adder, and SAT refutes the cut.
    // O6 reads the upper half (I5 = 1): x = z = 1, y = v = 0. O5 reads
    // the lower half: x = y = 1, z = v = 0.
    let honest_nl = hand_ca_quad(None);
    for (half, bit) in [("O6", 32 + 0b0101), ("O5", 0b0011)] {
        let nl = hand_ca_quad(Some(bit));
        let visible = (0..1u64 << 16).any(|i| {
            let ab = [i & 255, i >> 8];
            nl.eval(&ab).expect("eval") != honest_nl.eval(&ab).expect("eval")
        });
        assert!(visible, "the {half} flip must change the product");
        let proof = prove(&nl);
        assert_eq!(
            proof.engine,
            WceEngine::Netlist,
            "{half} flip passed the checks"
        );
        assert_eq!(proof.wce, swept_wce(&nl), "{half}");
    }
}

/// Exhaustive max |P − A·B| of an 8×8 netlist.
fn swept_wce(nl: &Netlist) -> u128 {
    let mut worst = 0u128;
    for a in 0..256u64 {
        for b in 0..256u64 {
            let p = nl.eval(&[a, b]).expect("eval")[0];
            worst = worst.max(u128::from(p).abs_diff(u128::from(a * b)));
        }
    }
    worst
}

#[test]
fn faulty_leaves_under_honest_claims_prove_their_true_wce() {
    // Each quad gets one 4×4 leaf with a random INIT bit flipped; the
    // claims stay honest, so the proof is compositional and must still
    // equal the exhaustive truth of the faulty design.
    let mut rng = StdRng::seed_from_u64(0xFA_17);
    for round in 0..8 {
        let good = approx_4x4_netlist();
        let faulty = loop {
            let mut cells = good.cells().to_vec();
            let luts: Vec<usize> = (0..cells.len())
                .filter(|&i| matches!(cells[i], Cell::Lut { .. }))
                .collect();
            let target = luts[rng.random_range(0..luts.len())];
            if let Cell::Lut { init, .. } = &mut cells[target] {
                *init = Init::from_raw(init.raw() ^ 1 << rng.random_range(0..64u32));
            }
            let faulty = Netlist::from_parts(
                "faulty",
                good.drivers().to_vec(),
                cells,
                good.input_buses().to_vec(),
                good.output_buses().to_vec(),
            );
            // Keep only flips the leaf's products can see.
            let differs = (0..256u64).any(|i| {
                let ab = [i & 15, i >> 4];
                faulty.eval(&ab).expect("eval") != good.eval(&ab).expect("eval")
            });
            if differs {
                break faulty;
            }
        };
        let summation = if round % 2 == 0 {
            Summation::Accurate
        } else {
            Summation::CarryFree
        };
        let slot = rng.random_range(0..4usize);
        let mut bld = NetlistBuilder::new(format!("faulty_quad_{round}"));
        let a = bld.inputs("a", 8);
        let b = bld.inputs("b", 8);
        let (al, ah) = a.split_at(4);
        let (bl, bh) = b.split_at(4);
        let mut q: Vec<Vec<NetId>> = Vec::new();
        for (i, (x, y)) in [(al, bl), (ah, bl), (al, bh), (ah, bh)]
            .into_iter()
            .enumerate()
        {
            let leaf = if i == slot { &faulty } else { &good };
            q.push(bld.instantiate(leaf, &[x, y]).remove(0));
            bld.claim_product(x, y, &q[i]);
        }
        let p = combine_partial_products(&mut bld, &q[0], &q[1], &q[2], &q[3], summation);
        bld.output_bus("p", &p);
        let nl = bld.finish().expect("well-formed");
        let proof = prove(&nl);
        assert_eq!(proof.engine, WceEngine::Compositional, "round {round}");
        assert_eq!(proof.wce, swept_wce(&nl), "round {round}");
    }
}

/// All 1250 8×8 configs against the exhaustive sweep (release: about
/// 30 s).
#[test]
#[ignore = "full sweep; run in release with --ignored"]
fn every_8x8_config_agrees_with_the_sweep() {
    check_against_sweep(&Config::enumerate(8));
}

/// A seeded draw of 64 8×8 configs without provenance, proven by the
/// netlist CEGAR, against the exhaustive sweep (release: about 15 s).
/// The draw keeps configs whose top quadrant is the approximate kernel
/// or 3-bit truncation: with an exact, 1- or 2-bit-truncated top
/// quadrant, one accurate-summation miter can take up to ≈30 s.
#[test]
#[ignore = "netlist CEGAR sweep; run in release with --ignored"]
fn seeded_netlist_proofs_agree_with_the_sweep() {
    let mut rng = StdRng::seed_from_u64(0x4E7_115);
    let configs: Vec<Config> = std::iter::repeat_with(|| Config::random(8, &mut rng))
        .filter(|cfg| match cfg {
            Config::Quad { sub, .. } => matches!(
                sub[3],
                Config::Leaf(Leaf::Approx) | Config::Leaf(Leaf::Truncated(3))
            ),
            Config::Leaf(_) => false,
        })
        .take(64)
        .collect();
    assert!(
        configs.iter().any(|c| c.key().starts_with("(a"))
            && configs.iter().any(|c| c.key().starts_with("(c")),
        "the draw must cover both summations"
    );
    let cache = CharCache::new(Characterizer::virtex7());
    for cfg in &configs {
        let swept = cache.characterize(cfg).expect("sweep").stats.max_error;
        let proof = prove(&provenance_free(&cfg.assemble()));
        assert_eq!(proof.engine, WceEngine::Netlist, "{}", cfg.key());
        assert_eq!(
            proof.wce,
            u128::from(swept.unsigned_abs()),
            "{}: proven wce differs from the sweep",
            cfg.key()
        );
        assert!(
            proof.stats.solves <= u64::from(proof.ascent_steps) + 2,
            "{}: more than one UNSAT answer per side",
            cfg.key()
        );
    }
}
