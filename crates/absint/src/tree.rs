//! Error-interval analysis of recursive multiplier configuration
//! trees.
//!
//! An [`AbsTree`] mirrors the DSE configuration grammar (`X`, `A`,
//! `T1`–`T3` leaves; accurate / carry-free quads) without depending on
//! the `axmul-dse` crate — dse converts its `Config` into an
//! `AbsTree` and calls [`analyze_tree`]. The analysis is purely
//! structural: leaf bounds are seeded from the paper's exact error
//! tables and closed forms (no simulation), then composed bottom-up
//! through the two summation schemes with interval arithmetic.
//!
//! # Leaf seeds
//!
//! Writing `e(a, b) = approx(a, b) − exact(a, b)`:
//!
//! * `X` (exact 4×4): `e ≡ 0`.
//! * `A` (the paper's approximate 4×4): Table 2 of the paper lists the
//!   complete error set — six operand pairs, each with `e = −8`, the
//!   smallest erring product being `7·6 = 42`. Hence `e ∈ [−8, 0]`,
//!   `|e| = 8` achieved at `(a, b) = (7, 6)`, and pointwise
//!   `|e| ≤ (8/42)·exact`.
//! * `T(k)` (partial-product truncation): the kernel drops every
//!   partial-product bit `a_i·b_j` with `i + j < k`, so
//!   `e = −Σ_{i+j<k} a_i·b_j·2^{i+j} ∈ [−D_k, 0]` with
//!   `D_1, D_2, D_3 = 1, 5, 17`, achieved at `(15, 15)` where every
//!   dropped bit is 1. The drop is a sub-sum of the product itself, so
//!   pointwise `|e| ≤ 1.0·exact`.
//!
//! # Composition
//!
//! A quad node splits `a = a_H·2^m + a_L`, `b = b_H·2^m + b_L` and
//! combines quadrant outputs `ll, hl, lh, hh`:
//!
//! * **Accurate**: `A = ll + (hl + lh)·2^m + hh·2^2m`. Errors add with
//!   the same weights, so the error interval is the weighted interval
//!   sum.
//! * **Carry-free**: the middle columns are XOR-ed instead of added
//!   (`C = (ll & lo) + [((ll≫m) ⊕ hl ⊕ lh ⊕ ((hh & lo)≪m)) &
//!   lo2m]·2^m + (hh≫m)·2^3m`), which only *discards* carries: with
//!   `T = (ll≫m) + hl + lh + (hh & lo)·2^m` and `X` its XOR,
//!   `C − A = (X − T)·2^m ≤ 0`. Per column at most 3 of the four terms
//!   contribute a bit, so each column drops at most 2 and
//!   `T − X ≤ min(2·(2^{2m} − 1), max T)` — the carry-free
//!   deviation bound added below the accurate interval.
//!
//! Achievable lower bounds lift through both schemes (see
//! [`compose`]), so every tree bound comes with an operand witness
//! bracketing the true worst-case error from below.

use axmul_core::behavioral::Summation;

use crate::cert::{CertStep, Certificate, Rule};
use crate::domain::{ErrorBound, Interval};
use crate::AbsintError;

/// Operand width of the 4×4 leaf kernels.
pub const LEAF_BITS: u32 = 4;

/// Widest operand the tree analysis accepts (per side). The engine
/// does all arithmetic in `u128`/`i128`; 32-bit operands keep every
/// intermediate (values `< 2^64`, shifted quadrant terms `< 2^96`)
/// comfortably in range.
pub const MAX_ABSINT_BITS: u32 = 32;

/// The 4×4 kernel choices, mirroring the DSE `Leaf` grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeafKind {
    /// Exact 4×4 multiplier.
    Exact,
    /// The paper's approximate 4×4 multiplier.
    Approx4x4,
    /// Partial-product truncation of depth `k` (`1 ≤ k ≤ 3`).
    PpTruncated(u32),
}

impl LeafKind {
    /// Canonical single-token code: `X`, `A`, `T1`–`T3`.
    #[must_use]
    pub fn code(self) -> String {
        match self {
            LeafKind::Exact => "X".to_string(),
            LeafKind::Approx4x4 => "A".to_string(),
            LeafKind::PpTruncated(k) => format!("T{k}"),
        }
    }
}

/// A configuration tree in the shape the analysis consumes: leaves at
/// 4×4, quads doubling the width (`LL`, `HL`, `LH`, `HH` order).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AbsTree {
    /// A 4×4 kernel.
    Leaf(LeafKind),
    /// A `2M×2M` node over four `M×M` subtrees.
    Quad {
        /// Quadrant summation scheme.
        summation: Summation,
        /// Subtrees in `LL`, `HL`, `LH`, `HH` order.
        sub: Box<[AbsTree; 4]>,
    },
}

impl AbsTree {
    /// Operand width in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        match self {
            AbsTree::Leaf(_) => LEAF_BITS,
            AbsTree::Quad { sub, .. } => 2 * sub[0].bits(),
        }
    }

    /// Canonical key, identical to the DSE `Config::key` grammar.
    #[must_use]
    pub fn key(&self) -> String {
        match self {
            AbsTree::Leaf(l) => l.code(),
            AbsTree::Quad { summation, sub } => {
                let tag = match summation {
                    Summation::Accurate => 'a',
                    Summation::CarryFree => 'c',
                };
                format!(
                    "({tag} {} {} {} {})",
                    sub[0].key(),
                    sub[1].key(),
                    sub[2].key(),
                    sub[3].key()
                )
            }
        }
    }
}

/// The result of analyzing one configuration tree.
#[derive(Debug, Clone)]
pub struct TreeAnalysis {
    /// Canonical key of the analyzed tree.
    pub key: String,
    /// Operand width in bits.
    pub bits: u32,
    /// The root error bound.
    pub bound: ErrorBound,
    /// Machine-checkable derivation of [`TreeAnalysis::bound`].
    pub certificate: Certificate,
}

/// The seed [`ErrorBound`] of one leaf kernel (see the module docs for
/// the derivation of each entry).
///
/// # Panics
///
/// Panics on `PpTruncated(k)` with `k` outside `1..=3`.
#[must_use]
pub fn leaf_seed(kind: LeafKind) -> ErrorBound {
    // All 4×4 kernels output at most 15·15 = 225 and at least 0.
    let value = Interval::new(0, 225);
    match kind {
        LeafKind::Exact => ErrorBound {
            err_lo: 0,
            err_hi: 0,
            wce_lb: 0,
            witness: Some((0, 0)),
            mre: 0.0,
            value,
            no_error_at_zero: true,
        },
        LeafKind::Approx4x4 => ErrorBound {
            err_lo: -8,
            err_hi: 0,
            wce_lb: 8,
            witness: Some((7, 6)),
            mre: 8.0 / 42.0,
            value,
            no_error_at_zero: true,
        },
        LeafKind::PpTruncated(k) => {
            assert!((1..=3).contains(&k), "truncation depth {k} out of range");
            // Σ_{i+j<k} 2^{i+j} over the 4×4 partial-product grid.
            let d = [1i128, 5, 17][(k - 1) as usize];
            ErrorBound {
                err_lo: -d,
                err_hi: 0,
                wce_lb: d as u128,
                witness: Some((15, 15)),
                mre: 1.0,
                value,
                no_error_at_zero: true,
            }
        }
    }
}

fn mask(bits: u32) -> u128 {
    (1u128 << bits) - 1
}

/// Composes four quadrant bounds (`LL`, `HL`, `LH`, `HH`, each for an
/// `m×m` block) into the bound of the `2m×2m` parent.
///
/// Witness invariant: a child witness `(a, b)` is assumed to achieve
/// an error `e ≤ 0` with `|e| ≥ wce_lb` (true of every bound this
/// crate derives, and preserved by weakening) — the lifted parent
/// witness then satisfies the same invariant:
///
/// * **Single-quadrant lift** (both schemes): take the quadrant `Q`
///   maximizing `wce_lb_Q · 2^{shift_Q}` and zero the operand halves
///   the other quadrants consume. If those three siblings are
///   error-free at zero, they output exactly 0, every carry-free
///   column holds at most one nonzero term (so no carry is dropped),
///   and the parent error equals `Q`'s error times its weight.
/// * **Combined lift** (accurate only): when the four child witnesses
///   agree on the operand halves they share (`LL`/`LH` on `a_L`,
///   `LL`/`HL` on `b_L`, `HL`/`HH` on `a_H`, `LH`/`HH` on `b_H`) and
///   every child error is non-positive, the quadrant errors add with
///   their weights under the combined operands — e.g. all-`A` trees
///   get `wce_lb = wce_ub` (the bound is exact).
#[must_use]
pub fn compose(summation: Summation, m: u32, children: &[ErrorBound; 4]) -> ErrorBound {
    let [ll, hl, lh, hh] = children;
    let shifts = [0, m, m, 2 * m];

    // Accurate interval composition — also the backbone of the
    // carry-free case (which only subtracts further).
    let acc_err_lo = ll.err_lo + ((hl.err_lo + lh.err_lo) << m) + (hh.err_lo << (2 * m));
    let acc_err_hi = ll.err_hi + ((hl.err_hi + lh.err_hi) << m) + (hh.err_hi << (2 * m));
    let acc_value = ll
        .value
        .add(&hl.value.add(&lh.value).shl(m))
        .add(&hh.value.shl(2 * m));

    let all_nonpos = children.iter().all(|c| c.err_hi <= 0);
    let noz = children.iter().all(|c| c.no_error_at_zero);
    let max_mre = children.iter().map(|c| c.mre).fold(0.0f64, f64::max);

    // Single-quadrant achievable lift: quadrant q's witness with the
    // other operand halves zeroed. Sound only when the three siblings
    // are error-free at zero.
    let single = (0..4)
        .filter(|&q| {
            children[q].witness.is_some() && (0..4).all(|o| o == q || children[o].no_error_at_zero)
        })
        .map(|q| {
            let (wa, wb) = children[q].witness.expect("filtered on witness presence");
            let lifted = match q {
                0 => (wa, wb),
                1 => (wa << m, wb),
                2 => (wa, wb << m),
                _ => (wa << m, wb << m),
            };
            (children[q].wce_lb << shifts[q], lifted)
        })
        .max_by_key(|(lb, _)| *lb);

    match summation {
        Summation::Accurate => {
            // Combined lift when the witnesses agree on shared halves.
            let combined = match (ll.witness, hl.witness, lh.witness, hh.witness) {
                (Some(wll), Some(whl), Some(wlh), Some(whh))
                    if all_nonpos
                        && wll.0 == wlh.0
                        && wll.1 == whl.1
                        && whl.0 == whh.0
                        && wlh.1 == whh.1 =>
                {
                    let lb = children
                        .iter()
                        .zip(shifts)
                        .map(|(c, s)| c.wce_lb << s)
                        .sum::<u128>();
                    Some((lb, (wll.0 | (whl.0 << m), wll.1 | (wlh.1 << m))))
                }
                _ => None,
            };
            let (wce_lb, witness) =
                match combined.into_iter().chain(single).max_by_key(|(lb, _)| *lb) {
                    Some((lb, w)) => (lb, Some(w)),
                    None => (0, None),
                };
            ErrorBound {
                err_lo: acc_err_lo,
                err_hi: acc_err_hi,
                wce_lb,
                witness,
                mre: max_mre,
                value: acc_value,
                no_error_at_zero: noz,
            }
        }
        Summation::CarryFree => {
            // Bound on the dropped middle-column carries T − X (see the
            // module docs), then shifted into place by 2^m.
            let t_hi =
                (ll.value.hi >> m) + hl.value.hi + lh.value.hi + (hh.value.hi.min(mask(m)) << m);
            let drop_hi = (2 * (mask(2 * m))).min(t_hi) << m;
            let value_hi = acc_value.hi.min(
                ll.value.hi.min(mask(m)) + (mask(2 * m) << m) + ((hh.value.hi >> m) << (3 * m)),
            );
            let value_lo =
                ((hh.value.lo >> m) << (3 * m)).max(acc_value.lo.saturating_sub(drop_hi));
            let (wce_lb, witness) = match single {
                Some((lb, w)) => (lb, Some(w)),
                None => (0, None),
            };
            ErrorBound {
                err_lo: acc_err_lo - drop_hi as i128,
                err_hi: acc_err_hi,
                wce_lb,
                witness,
                // The dropped carries are at most the accurate sum A
                // itself; when every child under-estimates, A ≤ exact,
                // giving |e| ≤ (max_mre + 1)·exact pointwise. Otherwise
                // A ≤ (1 + max_mre)·exact still bounds the drop.
                mre: if all_nonpos {
                    max_mre + 1.0
                } else {
                    2.0 * max_mre + 1.0
                },
                value: Interval::new(value_lo, value_hi),
                no_error_at_zero: noz,
            }
        }
    }
}

/// Runs the abstract interpretation over a configuration tree,
/// producing the root [`ErrorBound`] and a step-by-step
/// [`Certificate`] of its derivation.
///
/// # Errors
///
/// Returns [`AbsintError::WidthTooLarge`] when the tree's operand
/// width exceeds [`MAX_ABSINT_BITS`].
pub fn analyze_tree(tree: &AbsTree) -> Result<TreeAnalysis, AbsintError> {
    let bits = tree.bits();
    if bits > MAX_ABSINT_BITS {
        return Err(AbsintError::WidthTooLarge {
            bits,
            max: MAX_ABSINT_BITS,
        });
    }
    let mut steps: Vec<CertStep> = Vec::new();
    let root = walk(tree, &mut steps);
    let bound = steps[root].bound.clone();
    Ok(TreeAnalysis {
        key: tree.key(),
        bits,
        bound,
        certificate: Certificate::new(steps),
    })
}

/// Post-order walk appending one certificate step per node; returns
/// the index of the node's step.
fn walk(tree: &AbsTree, steps: &mut Vec<CertStep>) -> usize {
    match tree {
        AbsTree::Leaf(kind) => {
            steps.push(CertStep {
                key: tree.key(),
                rule: Rule::Seed(*kind),
                bound: leaf_seed(*kind),
            });
            steps.len() - 1
        }
        AbsTree::Quad { summation, sub } => {
            let children = [
                walk(&sub[0], steps),
                walk(&sub[1], steps),
                walk(&sub[2], steps),
                walk(&sub[3], steps),
            ];
            let m = sub[0].bits();
            let bounds = [
                steps[children[0]].bound.clone(),
                steps[children[1]].bound.clone(),
                steps[children[2]].bound.clone(),
                steps[children[3]].bound.clone(),
            ];
            steps.push(CertStep {
                key: tree.key(),
                rule: Rule::Compose {
                    summation: *summation,
                    m,
                    children,
                },
                bound: compose(*summation, m, &bounds),
            });
            steps.len() - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(kind: LeafKind, bits: u32, summation: Summation) -> AbsTree {
        if bits == LEAF_BITS {
            AbsTree::Leaf(kind)
        } else {
            let sub = uniform(kind, bits / 2, summation);
            AbsTree::Quad {
                summation,
                sub: Box::new([sub.clone(), sub.clone(), sub.clone(), sub]),
            }
        }
    }

    #[test]
    fn keys_match_the_dse_grammar() {
        assert_eq!(
            uniform(LeafKind::Approx4x4, 8, Summation::Accurate).key(),
            "(a A A A A)"
        );
        assert_eq!(
            uniform(LeafKind::PpTruncated(2), 8, Summation::CarryFree).key(),
            "(c T2 T2 T2 T2)"
        );
    }

    #[test]
    fn exact_trees_have_zero_error() {
        for summation in [Summation::Accurate, Summation::CarryFree] {
            for bits in [4, 8, 16, 32] {
                let t = uniform(LeafKind::Exact, bits, summation);
                let a = analyze_tree(&t).unwrap();
                assert_eq!(a.bound.err_hi, 0);
                if summation == Summation::Accurate {
                    assert_eq!(a.bound.err_lo, 0, "{}", a.key);
                    let top = mask(bits);
                    assert!(a.bound.value.contains(top * top));
                }
                a.certificate.verify().unwrap();
            }
        }
    }

    #[test]
    fn carry_free_exact_tree_still_drops_carries() {
        // (c X X X X) is NOT error-free: the XOR combine discards real
        // carries of the exact quadrant products.
        let t = uniform(LeafKind::Exact, 8, Summation::CarryFree);
        let a = analyze_tree(&t).unwrap();
        assert!(a.bound.err_lo < 0);
        assert_eq!(a.bound.err_hi, 0);
    }

    #[test]
    fn paper_ca_8x8_bound_is_exact() {
        // Known ground truth of the all-approximate accurate design:
        // max error 8 + (8 + 8)·16 + 8·256 = 2312, at a=0x77, b=0x66.
        let t = uniform(LeafKind::Approx4x4, 8, Summation::Accurate);
        let a = analyze_tree(&t).unwrap();
        assert_eq!(a.bound.wce_ub(), 2312);
        assert_eq!(a.bound.wce_lb, 2312);
        assert_eq!(a.bound.witness, Some((0x77, 0x66)));
        assert!((a.bound.mre - 8.0 / 42.0).abs() < 1e-12);
        a.certificate.verify().unwrap();
    }

    #[test]
    fn paper_cc_8x8_bound_brackets_the_truth() {
        let t = uniform(LeafKind::Approx4x4, 8, Summation::CarryFree);
        let a = analyze_tree(&t).unwrap();
        // The HH quadrant alone achieves 8·256 = 2048 with the other
        // quadrants zeroed (no carries to drop).
        assert_eq!(a.bound.wce_lb, 2048);
        assert_eq!(a.bound.witness, Some((7 << 4, 6 << 4)));
        assert!(a.bound.wce_ub() >= 2312);
        a.certificate.verify().unwrap();
    }

    #[test]
    fn truncated_leaf_seed_magnitudes() {
        assert_eq!(leaf_seed(LeafKind::PpTruncated(1)).wce_lb, 1);
        assert_eq!(leaf_seed(LeafKind::PpTruncated(2)).wce_lb, 5);
        assert_eq!(leaf_seed(LeafKind::PpTruncated(3)).wce_lb, 17);
    }

    #[test]
    fn witness_brackets_scale_to_32_bits() {
        let t = uniform(LeafKind::Approx4x4, 32, Summation::Accurate);
        let a = analyze_tree(&t).unwrap();
        assert_eq!(a.bound.wce_lb, a.bound.wce_ub());
        let (wa, wb) = a.bound.witness.unwrap();
        assert_eq!(wa, 0x7777_7777);
        assert_eq!(wb, 0x6666_6666);
        a.certificate.verify().unwrap();
    }

    #[test]
    fn width_cap_is_enforced() {
        let t = uniform(LeafKind::Exact, 64, Summation::Accurate);
        assert!(matches!(
            analyze_tree(&t),
            Err(AbsintError::WidthTooLarge { bits: 64, .. })
        ));
    }

    #[test]
    fn mixed_tree_err_interval_adds_weighted() {
        // (a X A X T2): only HL (weight 2^4) and HH (weight 2^8) err.
        let t = AbsTree::Quad {
            summation: Summation::Accurate,
            sub: Box::new([
                AbsTree::Leaf(LeafKind::Exact),
                AbsTree::Leaf(LeafKind::Approx4x4),
                AbsTree::Leaf(LeafKind::Exact),
                AbsTree::Leaf(LeafKind::PpTruncated(2)),
            ]),
        };
        let a = analyze_tree(&t).unwrap();
        assert_eq!(a.bound.err_lo, -(8 * 16 + 5 * 256));
        assert_eq!(a.bound.err_hi, 0);
        // Combined witness: X witnesses are (0,0) and share halves
        // only if consistent — (0,0)/(7,6)/(0,0)/(15,15) do not agree,
        // so the single-quadrant HH lift wins: 5·256.
        assert_eq!(a.bound.wce_lb, 5 * 256);
        a.certificate.verify().unwrap();
    }
}
