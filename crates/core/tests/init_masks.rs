//! `Init::depends_on` / `Init::depends_on_o5` are branch-free mask
//! tests; this checks them against the definition — scan every index
//! pair that differs only in the pin — on every pin 0..=5.

use axmul_core::structural::{TABLE3, TERNARY_INIT};
use axmul_fabric::Init;

/// The definition: `O6` depends on `Ii` iff some index with bit `i`
/// clear reads differently from its partner with bit `i` set.
fn scan_o6(init: Init, i: u8) -> bool {
    let stride = 1u8 << i;
    (0..64u8).any(|idx| idx & stride == 0 && init.o6(idx) != init.o6(idx | stride))
}

/// The same over the lower-half `O5` table; `I5` never reaches `O5`.
fn scan_o5(init: Init, i: u8) -> bool {
    if i == 5 {
        return false;
    }
    let stride = 1u8 << i;
    (0..32u8).any(|idx| idx & stride == 0 && init.o5(idx) != init.o5(idx | stride))
}

fn check(init: Init) {
    for i in 0..6 {
        assert_eq!(init.depends_on(i), scan_o6(init, i), "O6 {init} pin {i}");
        assert_eq!(init.depends_on_o5(i), scan_o5(init, i), "O5 {init} pin {i}");
    }
}

/// Every `k`-input function placed on every `k`-subset of the pins.
fn placed_tables(k: usize) -> Vec<Init> {
    let mut out = Vec::new();
    for pins in 0u8..64 {
        if pins.count_ones() as usize != k {
            continue;
        }
        let chosen: Vec<u8> = (0..6).filter(|p| pins >> p & 1 == 1).collect();
        for f in 0u32..1 << (1 << k) {
            out.push(Init::from_fn(|idx| {
                let sel = chosen
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (j, &p)| acc | u32::from(idx >> p & 1) << j);
                f >> sel & 1 == 1
            }));
        }
    }
    out
}

#[test]
fn masks_match_the_scan_on_placed_small_tables() {
    let two = placed_tables(2);
    let three = placed_tables(3);
    assert_eq!(two.len(), 15 * 16);
    assert_eq!(three.len(), 20 * 256);
    for init in two.into_iter().chain(three) {
        check(init);
    }
}

#[test]
fn masks_match_the_scan_on_named_and_paper_tables() {
    let named = [
        Init::ZERO,
        Init::ONE,
        Init::XOR2,
        Init::AND2,
        Init::OR2,
        Init::XOR3,
        Init::BUF,
        TERNARY_INIT,
    ];
    for init in named
        .into_iter()
        .chain(TABLE3.iter().map(|row| Init::from_raw(row.init)))
    {
        check(init);
    }
    assert!(!Init::ZERO.depends_on(0) && !Init::ONE.depends_on_o5(4));
}

#[test]
fn masks_match_the_scan_on_random_tables() {
    // SplitMix64, seeded: the same 100 000 tables every run.
    let mut state = 0x1417_5EEDu64;
    for _ in 0..100_000 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        check(Init::from_raw(z ^ (z >> 31)));
    }
}

#[test]
#[should_panic(expected = "LUT6 has inputs 0..=5")]
fn pin_six_is_rejected() {
    let _ = Init::XOR2.depends_on(6);
}
