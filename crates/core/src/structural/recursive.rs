//! Structural recursive multipliers: `Ca` (accurate ternary-adder
//! summation, Fig. 5) and `Cc` (carry-free XOR summation, Fig. 6), plus
//! the generic composition machinery ([`compose_netlist`]) that builds
//! a `2M×2M` multiplier netlist from *any* `M×M` kernel netlist — used
//! by the baselines crate to construct the Kulkarni and Rehman
//! multipliers on the same fabric.
//!
//! The LUT counts follow the recurrences the paper's Table 4 implies:
//!
//! ```text
//! LUTs_Ca(2M) = 4·LUTs_Ca(M) + (2M + 1)     -> 12, 57, 245, ...
//! LUTs_Cc(2M) = 4·LUTs_Cc(M) + 2M           -> 12, 56, 240, ...
//! ```
//!
//! In the accurate summation, the topmost `M − 1` columns have a single
//! contributor (`AH·BH`'s upper bits) and are wired straight onto the
//! carry chain without LUTs — on the device these use the slice bypass
//! pins, which is how the paper's counts come out.

use axmul_fabric::{Init, NetId, Netlist, NetlistBuilder};

use super::table3::approx_4x4_netlist;
use super::ternary::ternary_add;
use crate::behavioral::Summation;
use crate::WidthError;

fn check_bits(bits: u32, kernel_bits: u32) -> Result<(), WidthError> {
    if bits >= kernel_bits && bits <= 32 && bits.is_power_of_two() && kernel_bits.is_power_of_two()
    {
        Ok(())
    } else {
        Err(WidthError { bits })
    }
}

/// Builds the structural `Ca bits×bits` netlist: approximate 4×4
/// elementary blocks (Table 3), partial products summed **accurately**
/// with carry-chain ternary adders.
///
/// # Errors
///
/// Returns [`WidthError`] unless `bits` ∈ {4, 8, 16, 32}.
///
/// # Examples
///
/// ```
/// use axmul_core::structural::ca_netlist;
///
/// let nl = ca_netlist(8)?;
/// assert_eq!(nl.lut_count(), 57); // Table 4
/// # Ok::<(), axmul_core::WidthError>(())
/// ```
pub fn ca_netlist(bits: u32) -> Result<Netlist, WidthError> {
    compose_netlist(&approx_4x4_netlist(), bits, Summation::Accurate)
}

/// Builds the structural `Cc bits×bits` netlist: the same elementary
/// blocks with the **carry-free** column summation of Fig. 6.
///
/// # Errors
///
/// Returns [`WidthError`] unless `bits` ∈ {4, 8, 16, 32}.
///
/// # Examples
///
/// ```
/// use axmul_core::structural::cc_netlist;
///
/// let nl = cc_netlist(16)?;
/// assert_eq!(nl.lut_count(), 240); // Table 4
/// # Ok::<(), axmul_core::WidthError>(())
/// ```
pub fn cc_netlist(bits: u32) -> Result<Netlist, WidthError> {
    compose_netlist(&approx_4x4_netlist(), bits, Summation::CarryFree)
}

/// Composes a `bits×bits` multiplier netlist from an `M×M` kernel
/// netlist by repeated doubling (Fig. 5a), using the given
/// partial-product summation at every level.
///
/// The kernel must have two input buses of equal width `M` (a power of
/// two) and one output bus of width `2M`. This is the generic engine
/// behind [`ca_netlist`]/[`cc_netlist`]; the baselines crate feeds it
/// 2×2 kernels to build the Kulkarni (`K`) and Rehman (`W`) multipliers
/// structurally on the same fabric.
///
/// # Errors
///
/// Returns [`WidthError`] unless `bits` is a power of two with
/// `kernel width <= bits <= 32`.
///
/// # Panics
///
/// Panics if the kernel's bus shape is not `M`/`M` in, `2M` out.
pub fn compose_netlist(
    kernel: &Netlist,
    bits: u32,
    summation: Summation,
) -> Result<Netlist, WidthError> {
    let kb = kernel_width(kernel);
    check_bits(bits, kb)?;
    let mut current = kernel.clone();
    let mut width = kb;
    while width < bits {
        current = double(&current, width, summation);
        width *= 2;
    }
    Ok(current)
}

fn kernel_width(kernel: &Netlist) -> u32 {
    let ins = kernel.input_buses();
    assert_eq!(ins.len(), 2, "kernel must have exactly two input buses");
    assert_eq!(
        ins[0].1.len(),
        ins[1].1.len(),
        "kernel operand widths must match"
    );
    let outs = kernel.output_buses();
    assert_eq!(outs.len(), 1, "kernel must have one output bus");
    assert_eq!(
        outs[0].1.len(),
        2 * ins[0].1.len(),
        "kernel output must be twice the operand width"
    );
    ins[0].1.len() as u32
}

fn double(sub: &Netlist, sub_bits: u32, summation: Summation) -> Netlist {
    let tag = match summation {
        Summation::Accurate => "acc",
        Summation::CarryFree => "cfree",
    };
    let bits = 2 * sub_bits;
    let name = format!("{}_{tag}_{bits}x{bits}", sub.name());
    quad_netlist(name, sub, sub, sub, sub, summation)
}

/// Builds a `2M×2M` multiplier netlist from four *independent* `M×M`
/// quadrant netlists (`AL·BL`, `AH·BL`, `AL·BH`, `AH·BH` in that
/// order), combined with the given summation — the structural twin of
/// [`crate::behavioral::Quad`], and the assembly step of the
/// `axmul-dse` design-space explorer.
///
/// Each quadrant must have two equal-width input buses of one common
/// width `M` and a single `2M`-bit output bus. Quadrant netlists may
/// themselves be quad compositions, so arbitrary recursive
/// configurations are expressible.
///
/// The result claims each quadrant's output bus as the product of its
/// operand halves ([`axmul_fabric::Netlist::product_blocks`]) and keeps
/// the quadrants' own claims, which is what lets `axmul-sat` prove its
/// worst-case error compositionally.
///
/// # Panics
///
/// Panics if any quadrant's bus shape is not `M`/`M` in, `2M` out, or
/// if the quadrant widths disagree.
///
/// # Examples
///
/// ```
/// use axmul_core::behavioral::Summation;
/// use axmul_core::structural::{approx_4x4_netlist, compose_quad_netlist};
///
/// let k = approx_4x4_netlist();
/// let nl = compose_quad_netlist("ca8", &k, &k, &k, &k, Summation::Accurate);
/// assert_eq!(nl.lut_count(), 57); // identical to ca_netlist(8)
/// ```
pub fn compose_quad_netlist(
    name: impl Into<String>,
    ll: &Netlist,
    hl: &Netlist,
    lh: &Netlist,
    hh: &Netlist,
    summation: Summation,
) -> Netlist {
    let m = kernel_width(ll);
    for (quadrant, nl) in [("hl", hl), ("lh", lh), ("hh", hh)] {
        assert_eq!(
            kernel_width(nl),
            m,
            "quadrant `{quadrant}` width disagrees with `ll`"
        );
    }
    quad_netlist(name.into(), ll, hl, lh, hh, summation)
}

fn quad_netlist(
    name: String,
    ll: &Netlist,
    hl: &Netlist,
    lh: &Netlist,
    hh: &Netlist,
    summation: Summation,
) -> Netlist {
    let m = kernel_width(ll) as usize;
    let bits = 2 * m;
    let mut bld = NetlistBuilder::new(name);
    let a = bld.inputs("a", bits);
    let b = bld.inputs("b", bits);
    let (al, ah) = a.split_at(m);
    let (bl, bh) = b.split_at(m);
    let ll = bld.instantiate(ll, &[al, bl]).remove(0);
    let hl = bld.instantiate(hl, &[ah, bl]).remove(0);
    let lh = bld.instantiate(lh, &[al, bh]).remove(0);
    let hh = bld.instantiate(hh, &[ah, bh]).remove(0);
    // Provenance for compositional proofs: each quadrant bus is claimed
    // as the product of its operand halves.
    bld.claim_product(al, bl, &ll);
    bld.claim_product(ah, bl, &hl);
    bld.claim_product(al, bh, &lh);
    bld.claim_product(ah, bh, &hh);
    let p = combine_partial_products(&mut bld, &ll, &hl, &lh, &hh, summation);
    debug_assert_eq!(p.len(), 2 * bits);
    bld.output_bus("p", &p);
    bld.finish().expect("recursive netlist is well-formed")
}

/// Combines the four `M×M` partial products of a `2M×2M` multiplier
/// (Fig. 5a) into the `4M` product bits, using either the accurate
/// ternary-adder summation (Fig. 5b) or the carry-free XOR columns of
/// Fig. 6.
///
/// `ll`, `hl`, `lh`, `hh` are the `2M`-bit outputs of the `AL·BL`,
/// `AH·BL`, `AL·BH` and `AH·BH` sub-multipliers. Exposed so that
/// heterogeneous designs (mixing exact and approximate quadrants, as in
/// the EvoApprox-style library) can share the paper's summation
/// hardware.
///
/// # Panics
///
/// Panics if the partial products are not all the same even length.
pub fn combine_partial_products(
    bld: &mut NetlistBuilder,
    ll: &[NetId],
    hl: &[NetId],
    lh: &[NetId],
    hh: &[NetId],
    summation: Summation,
) -> Vec<NetId> {
    let two_m = ll.len();
    assert!(
        two_m >= 2 && two_m.is_multiple_of(2),
        "partial products must be 2M bits"
    );
    assert!(
        hl.len() == two_m && lh.len() == two_m && hh.len() == two_m,
        "partial products must have equal widths"
    );
    let m = two_m / 2;
    let mut p: Vec<NetId> = ll[..m].to_vec();
    match summation {
        Summation::Accurate => {
            // Columns m..4m-1, relative r = column - m:
            //   x[r] = LL[m + r]        for r <  m   (LL upper half)
            //   x[r] = HH[r - m]        for r >= m   (disjoint ranges)
            //   y[r] = HL[r], z[r] = LH[r] for r < 2m.
            let width = 3 * m;
            let mut x: Vec<Option<NetId>> = vec![None; width];
            let mut y: Vec<Option<NetId>> = vec![None; width];
            let mut z: Vec<Option<NetId>> = vec![None; width];
            for r in 0..m {
                x[r] = Some(ll[m + r]);
            }
            for r in 0..2 * m {
                x[m + r] = Some(hh[r]);
                y[r] = Some(hl[r]);
                z[r] = Some(lh[r]);
            }
            let sums = ternary_add(bld, &x, &y, &z, width);
            p.extend(sums);
        }
        Summation::CarryFree => {
            // Fig. 6: columns m..3m-1 are 3-input XORs without carry;
            // the top m bits pass HH's upper half through.
            for r in 0..2 * m {
                let (i0, i1, i2) = if r < m {
                    (ll[m + r], hl[r], lh[r])
                } else {
                    (hl[r], lh[r], hh[r - m])
                };
                let o6 = bld.lut3(Init::XOR3, i0, i1, i2);
                p.push(o6);
            }
            p.extend_from_slice(&hh[m..2 * m]);
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::{Ca, Cc};
    use crate::Multiplier;
    use axmul_fabric::sim::for_each_operand_pair;

    #[test]
    fn lut_counts_reproduce_table4() {
        assert_eq!(ca_netlist(4).unwrap().lut_count(), 12);
        assert_eq!(ca_netlist(8).unwrap().lut_count(), 57);
        assert_eq!(ca_netlist(16).unwrap().lut_count(), 245);
        assert_eq!(cc_netlist(4).unwrap().lut_count(), 12);
        assert_eq!(cc_netlist(8).unwrap().lut_count(), 56);
        assert_eq!(cc_netlist(16).unwrap().lut_count(), 240);
    }

    #[test]
    fn invalid_widths_rejected() {
        assert!(ca_netlist(6).is_err());
        assert!(cc_netlist(2).is_err());
        assert!(ca_netlist(64).is_err());
    }

    #[test]
    fn ca8_equals_behavioral_exhaustively() {
        let nl = ca_netlist(8).unwrap();
        let m = Ca::new(8).unwrap();
        for_each_operand_pair(&nl, |a, b, out| {
            assert_eq!(out[0], m.multiply(a, b), "a={a} b={b}");
        })
        .unwrap();
    }

    #[test]
    fn cc8_equals_behavioral_exhaustively() {
        let nl = cc_netlist(8).unwrap();
        let m = Cc::new(8).unwrap();
        for_each_operand_pair(&nl, |a, b, out| {
            assert_eq!(out[0], m.multiply(a, b), "a={a} b={b}");
        })
        .unwrap();
    }

    #[test]
    fn ca16_equals_behavioral_on_samples() {
        let nl = ca_netlist(16).unwrap();
        let m = Ca::new(16).unwrap();
        check_16(&nl, &m);
    }

    #[test]
    fn cc16_equals_behavioral_on_samples() {
        let nl = cc_netlist(16).unwrap();
        let m = Cc::new(16).unwrap();
        check_16(&nl, &m);
    }

    #[test]
    fn quad_of_identical_kernels_matches_double() {
        // compose_quad_netlist with four copies of the 4x4 kernel must be
        // exactly the homogeneous recursive step.
        let kernel = crate::structural::approx_4x4_netlist();
        for (summation, reference) in [
            (Summation::Accurate, ca_netlist(8).unwrap()),
            (Summation::CarryFree, cc_netlist(8).unwrap()),
        ] {
            let quad = compose_quad_netlist("quad8", &kernel, &kernel, &kernel, &kernel, summation);
            assert_eq!(quad.lut_count(), reference.lut_count());
            let m: Box<dyn Multiplier> = match summation {
                Summation::Accurate => Box::new(Ca::new(8).unwrap()),
                Summation::CarryFree => Box::new(Cc::new(8).unwrap()),
            };
            for_each_operand_pair(&quad, |a, b, out| {
                assert_eq!(out[0], m.multiply(a, b), "a={a} b={b}");
            })
            .unwrap();
        }
    }

    #[test]
    fn heterogeneous_quad_matches_behavioral_quad() {
        use crate::behavioral::{Approx4x4, Quad};
        // Mix the approximate 4x4 with its accurate-summation variant in
        // one recursion level and cross-check against the behavioral Quad.
        let ax = crate::structural::approx_4x4_netlist();
        let acc = crate::structural::approx_4x4_accsum_netlist();
        let nl = compose_quad_netlist("mixed8", &ax, &acc, &ax, &acc, Summation::Accurate);
        let model = Quad::new(
            Box::new(Approx4x4::new()) as Box<dyn Multiplier>,
            Box::new(crate::behavioral::Approx4x4AccSum::new()),
            Box::new(Approx4x4::new()),
            Box::new(crate::behavioral::Approx4x4AccSum::new()),
            Summation::Accurate,
        )
        .unwrap();
        for_each_operand_pair(&nl, |a, b, out| {
            assert_eq!(out[0], model.multiply(a, b), "a={a} b={b}");
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "width disagrees")]
    fn quad_rejects_mismatched_kernels() {
        let k4 = crate::structural::approx_4x4_netlist();
        let k8 = ca_netlist(8).unwrap();
        let _ = compose_quad_netlist("bad", &k4, &k4, &k8, &k4, Summation::Accurate);
    }

    #[test]
    fn compose_with_exact_2x2_kernel_is_exact() {
        // A 2x2 exact kernel built directly from four product-bit LUTs.
        let mut bld = NetlistBuilder::new("exact2x2");
        let a = bld.inputs("a", 2);
        let b = bld.inputs("b", 2);
        let (p1, p0) = {
            let z = bld.constant(false);
            let one = bld.constant(true);
            // O6 (upper) = a1b0 XOR a0b1, O5 = a0 & b0.
            let init = axmul_fabric::Init::from_dual(
                |i| {
                    let (a0, a1, b0, b1) = (
                        i & 1 == 1,
                        i >> 1 & 1 == 1,
                        i >> 2 & 1 == 1,
                        i >> 3 & 1 == 1,
                    );
                    (a1 && b0) ^ (a0 && b1)
                },
                |i| (i & 1 == 1) && (i >> 2 & 1 == 1),
            );
            bld.lut6_2(init, [a[0], a[1], b[0], b[1], z, one])
        };
        let (p2_hi, p2_lo) = {
            let z = bld.constant(false);
            let one = bld.constant(true);
            // O6 = a1 & b1 & (a0 NAND b0 correction): exact p2/p3.
            let init = axmul_fabric::Init::from_dual(
                |i| {
                    let v = (i as u64 & 3) * (i as u64 >> 2 & 3);
                    v >> 2 & 1 == 1
                },
                |i| {
                    let v = (i as u64 & 3) * (i as u64 >> 2 & 3);
                    v >> 3 & 1 == 1
                },
            );
            bld.lut6_2(init, [a[0], a[1], b[0], b[1], z, one])
        };
        bld.output_bus("p", &[p0, p1, p2_hi, p2_lo]);
        let kernel = bld.finish().unwrap();
        let nl = compose_netlist(&kernel, 8, Summation::Accurate).unwrap();
        for_each_operand_pair(&nl, |a, b, out| {
            assert_eq!(out[0], a * b, "a={a} b={b}");
        })
        .unwrap();
    }

    fn check_16(nl: &Netlist, m: &dyn Multiplier) {
        // Deterministic structured + pseudo-random coverage.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        for i in 0..4096u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (a, b) = match i % 4 {
                0 => ((i * 17) & 0xFFFF, (i * 31) & 0xFFFF),
                1 => (0xFFFF, state & 0xFFFF),
                2 => (state & 0xFFFF, 0xDDDD),
                _ => (state >> 16 & 0xFFFF, state & 0xFFFF),
            };
            let out = nl.eval(&[a, b]).unwrap();
            assert_eq!(out[0], m.multiply(a, b), "a={a} b={b}");
        }
    }
}
