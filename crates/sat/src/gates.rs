//! Constant-folding, structurally-hashed gate builders over a
//! [`Solver`].
//!
//! A [`Sig`] is a three-valued wire: a compile-time constant or a
//! solver literal. Every builder folds constants at encode time
//! (`x ⊕ 0 = x`, `mux(s, t, t) = t`, ...) and hash-conses the gates it
//! does emit, so two structurally identical circuits over the same
//! input literals collapse into the *same* variables — a miter between
//! them reduces to `false` before the search even starts. The LUT
//! encoder builds parity, AND and majority tables through [`xor_many`],
//! [`and`] and [`maj`], so a LUT and gate-level logic of the same
//! function collapse too; [`maj`] hashes self-dually, so a complemented
//! majority meets the negation of the plain one.
//!
//! The mux builder emits the two redundant consensus clauses
//! `(¬t ∨ ¬e ∨ z)` and `(t ∨ e ∨ ¬z)` in addition to the four defining
//! ones, making unit propagation as strong as three-valued simulation:
//! when both data inputs agree, the output propagates even while the
//! select is still unassigned. This mirrors the `KnownBit::mux`
//! semantics of `axmul-absint`, keeping the CARRY4 encoding consistent
//! with the abstract interpreter it certifies.

use crate::solver::{GateKey, Lit, Model, Solver};

/// A wire during encoding: constant or literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sig {
    /// A compile-time constant.
    Const(bool),
    /// A solver literal.
    Lit(Lit),
}

impl Sig {
    /// Constant false.
    pub const FALSE: Sig = Sig::Const(false);
    /// Constant true.
    pub const TRUE: Sig = Sig::Const(true);

    /// The constant value, if this wire is one.
    #[must_use]
    pub fn as_const(self) -> Option<bool> {
        match self {
            Sig::Const(b) => Some(b),
            Sig::Lit(_) => None,
        }
    }

    /// The wire's value under a model (constants evaluate to
    /// themselves).
    #[must_use]
    pub fn value(self, model: &Model) -> bool {
        match self {
            Sig::Const(b) => b,
            Sig::Lit(l) => model.value(l),
        }
    }

    /// Materializes the wire as a literal (constants map to the
    /// solver's pinned true/false literals).
    #[must_use]
    pub fn lit(self, s: &Solver) -> Lit {
        match self {
            Sig::Const(true) => s.true_lit(),
            Sig::Const(false) => s.false_lit(),
            Sig::Lit(l) => l,
        }
    }
}

impl std::ops::Not for Sig {
    type Output = Sig;
    fn not(self) -> Sig {
        match self {
            Sig::Const(b) => Sig::Const(!b),
            Sig::Lit(l) => Sig::Lit(!l),
        }
    }
}

const KIND_AND: u8 = 1;
const KIND_XOR: u8 = 2;
const KIND_MUX: u8 = 3;
const KIND_MAJ: u8 = 4;

/// `a ∧ b` with folding and hashing.
pub fn and(s: &mut Solver, a: Sig, b: Sig) -> Sig {
    match (a, b) {
        (Sig::Const(false), _) | (_, Sig::Const(false)) => Sig::FALSE,
        (Sig::Const(true), x) | (x, Sig::Const(true)) => x,
        (Sig::Lit(la), Sig::Lit(lb)) => {
            if la == lb {
                return a;
            }
            if la == !lb {
                return Sig::FALSE;
            }
            let (l0, l1) = sort2(la, lb);
            let key = GateKey::Gate(KIND_AND, [l0.code() as u32, l1.code() as u32, 0]);
            if let Some(z) = s.cached_gate(&key) {
                return Sig::Lit(z);
            }
            let z = s.new_var();
            s.add_clause(&[!l0, !l1, z]);
            s.add_clause(&[l0, !z]);
            s.add_clause(&[l1, !z]);
            s.cache_gate(key, z);
            Sig::Lit(z)
        }
    }
}

/// `a ∨ b` via De Morgan over [`and`].
pub fn or(s: &mut Solver, a: Sig, b: Sig) -> Sig {
    !and(s, !a, !b)
}

/// `a ⊕ b` with folding and polarity-canonical hashing.
pub fn xor(s: &mut Solver, a: Sig, b: Sig) -> Sig {
    match (a, b) {
        (Sig::Const(x), Sig::Const(y)) => Sig::Const(x ^ y),
        (Sig::Const(false), x) | (x, Sig::Const(false)) => x,
        (Sig::Const(true), x) | (x, Sig::Const(true)) => !x,
        (Sig::Lit(la), Sig::Lit(lb)) => {
            if la == lb {
                return Sig::FALSE;
            }
            if la == !lb {
                return Sig::TRUE;
            }
            // Canonical: positive operands; output polarity absorbs
            // the stripped negations.
            let out_neg = la.is_neg() ^ lb.is_neg();
            let pa = Lit::new(la.var(), false);
            let pb = Lit::new(lb.var(), false);
            let (l0, l1) = sort2(pa, pb);
            let key = GateKey::Gate(KIND_XOR, [l0.code() as u32, l1.code() as u32, 0]);
            let z = match s.cached_gate(&key) {
                Some(z) => z,
                None => {
                    let z = s.new_var();
                    s.add_clause(&[!l0, !l1, !z]);
                    s.add_clause(&[l0, l1, !z]);
                    s.add_clause(&[!l0, l1, z]);
                    s.add_clause(&[l0, !l1, z]);
                    s.cache_gate(key, z);
                    z
                }
            };
            Sig::Lit(if out_neg { !z } else { z })
        }
    }
}

/// `x₀ ⊕ x₁ ⊕ …` with folding and order- and polarity-canonical
/// hashing: constants and negations fold into the output polarity,
/// repeated variables cancel, and the remaining variables are chained
/// through [`xor`] in variable order. Any operand list with the same
/// parity over the same variables therefore yields the same literal,
/// which is what lets a parity LUT and a gate-level parity meet.
pub fn xor_many(s: &mut Solver, operands: &[Sig]) -> Sig {
    let mut negate = false;
    let mut vars: Vec<Lit> = Vec::with_capacity(operands.len());
    for op in operands {
        match op {
            Sig::Const(b) => negate ^= b,
            Sig::Lit(l) => {
                negate ^= l.is_neg();
                vars.push(Lit::new(l.var(), false));
            }
        }
    }
    vars.sort_unstable_by_key(|l| l.var());
    let mut chain = Sig::FALSE;
    let mut i = 0;
    while i < vars.len() {
        if vars.get(i + 1) == Some(&vars[i]) {
            i += 2;
            continue;
        }
        chain = xor(s, chain, Sig::Lit(vars[i]));
        i += 1;
    }
    if negate {
        !chain
    } else {
        chain
    }
}

/// `sel ? t : e` with folding, hashing and the redundant consensus
/// clauses that make propagation three-valued-consistent.
pub fn mux(s: &mut Solver, sel: Sig, t: Sig, e: Sig) -> Sig {
    if t == e {
        return t;
    }
    match sel {
        Sig::Const(true) => return t,
        Sig::Const(false) => return e,
        Sig::Lit(_) => {}
    }
    if t == !e {
        // mux(sel, t, ¬t): sel=1 → t, sel=0 → ¬t, i.e. ¬(sel ⊕ t).
        return !xor(s, sel, t);
    }
    match (t, e) {
        (Sig::Const(true), _) => return or(s, sel, e),
        (Sig::Const(false), _) => return and(s, !sel, e),
        (_, Sig::Const(true)) => return or(s, !sel, t),
        (_, Sig::Const(false)) => return and(s, sel, t),
        _ => {}
    }
    let (mut sl, mut tl, mut el) = (sel.lit(s), t.lit(s), e.lit(s));
    // Canonical: positive select (swapping branches), then strip a
    // shared branch negation into the output.
    if sl.is_neg() {
        sl = !sl;
        std::mem::swap(&mut tl, &mut el);
    }
    let out_neg = tl.is_neg() && el.is_neg();
    if out_neg {
        tl = !tl;
        el = !el;
    }
    let key = GateKey::Gate(
        KIND_MUX,
        [sl.code() as u32, tl.code() as u32, el.code() as u32],
    );
    let z = match s.cached_gate(&key) {
        Some(z) => z,
        None => {
            let z = s.new_var();
            s.add_clause(&[!sl, !tl, z]);
            s.add_clause(&[!sl, tl, !z]);
            s.add_clause(&[sl, !el, z]);
            s.add_clause(&[sl, el, !z]);
            // Consensus pair: both branches agree => output known
            // regardless of the select.
            s.add_clause(&[!tl, !el, z]);
            s.add_clause(&[tl, el, !z]);
            s.cache_gate(key, z);
            z
        }
    };
    Sig::Lit(if out_neg { !z } else { z })
}

/// Majority of three (the full-adder carry), with folding and
/// self-dual hashing: `maj(¬a, ¬b, ¬c) = ¬maj(a, b, c)`, so operands
/// with two or more negations are flipped and the output negated, and
/// both forms share one variable.
pub fn maj(s: &mut Solver, a: Sig, b: Sig, c: Sig) -> Sig {
    // Fold constants: maj(a, b, 0) = a∧b, maj(a, b, 1) = a∨b.
    match (a.as_const(), b.as_const(), c.as_const()) {
        (Some(false), _, _) => return and(s, b, c),
        (Some(true), _, _) => return or(s, b, c),
        (_, Some(false), _) => return and(s, a, c),
        (_, Some(true), _) => return or(s, a, c),
        (_, _, Some(false)) => return and(s, a, b),
        (_, _, Some(true)) => return or(s, a, b),
        _ => {}
    }
    if a == b {
        return a;
    }
    if a == c {
        return a;
    }
    if b == c {
        return b;
    }
    if a == !b {
        return c;
    }
    if a == !c {
        return b;
    }
    if b == !c {
        return a;
    }
    let mut ls = [a.lit(s), b.lit(s), c.lit(s)];
    let out_neg = ls.iter().filter(|l| l.is_neg()).count() >= 2;
    if out_neg {
        ls = ls.map(|l| !l);
    }
    ls.sort();
    let key = GateKey::Gate(
        KIND_MAJ,
        [
            ls[0].code() as u32,
            ls[1].code() as u32,
            ls[2].code() as u32,
        ],
    );
    let z = match s.cached_gate(&key) {
        Some(z) => z,
        None => {
            let z = s.new_var();
            let [la, lb, lc] = ls;
            s.add_clause(&[!la, !lb, z]);
            s.add_clause(&[!la, !lc, z]);
            s.add_clause(&[!lb, !lc, z]);
            s.add_clause(&[la, lb, !z]);
            s.add_clause(&[la, lc, !z]);
            s.add_clause(&[lb, lc, !z]);
            s.cache_gate(key, z);
            z
        }
    };
    Sig::Lit(if out_neg { !z } else { z })
}

/// Full adder: `(sum, carry)` of `a + b + cin`.
pub fn full_adder(s: &mut Solver, a: Sig, b: Sig, cin: Sig) -> (Sig, Sig) {
    let ab = xor(s, a, b);
    let sum = xor(s, ab, cin);
    let carry = maj(s, a, b, cin);
    (sum, carry)
}

/// Ripple-carry sum of two little-endian vectors (plus carry-in),
/// `max(a, b) + 1` bits wide.
pub fn ripple_add(s: &mut Solver, a: &[Sig], b: &[Sig], cin: Sig) -> Vec<Sig> {
    let w = a.len().max(b.len());
    let mut out = Vec::with_capacity(w + 1);
    let mut carry = cin;
    for i in 0..w {
        let ai = a.get(i).copied().unwrap_or(Sig::FALSE);
        let bi = b.get(i).copied().unwrap_or(Sig::FALSE);
        let (sum, c) = full_adder(s, ai, bi, carry);
        out.push(sum);
        carry = c;
    }
    out.push(carry);
    out
}

/// Exact unsigned product of two little-endian vectors, as a
/// shift-add (ripple array) reference circuit: the behavioral
/// `Multiplier` contract rendered in CNF.
pub fn exact_product(s: &mut Solver, a: &[Sig], b: &[Sig]) -> Vec<Sig> {
    let w = a.len() + b.len();
    let mut acc: Vec<Sig> = vec![Sig::FALSE; w.max(1)];
    for (j, &bj) in b.iter().enumerate() {
        let mut carry = Sig::FALSE;
        for (i, &ai) in a.iter().enumerate() {
            let pp = and(s, ai, bj);
            let (sum, c) = full_adder(s, acc[j + i], pp, carry);
            acc[j + i] = sum;
            carry = c;
        }
        let mut k = j + a.len();
        while k < acc.len() {
            let (sum, c) = full_adder(s, acc[k], carry, Sig::FALSE);
            acc[k] = sum;
            carry = c;
            if carry == Sig::FALSE {
                break;
            }
            k += 1;
        }
    }
    acc
}

/// `p − e` of two little-endian unsigned vectors as a two's-complement
/// vector of `max(w) + 1` bits, sign bit last: `p + ¬e + 1` with both
/// operands zero-extended to `w + 1` bits before complementing.
pub fn signed_diff(s: &mut Solver, p: &[Sig], e: &[Sig]) -> Vec<Sig> {
    let w = p.len().max(e.len());
    let mut carry = Sig::TRUE;
    let mut d = Vec::with_capacity(w + 1);
    for i in 0..=w {
        let pi = p.get(i).copied().unwrap_or(Sig::FALSE);
        let ei = e.get(i).copied().unwrap_or(Sig::FALSE);
        let (sum, c) = full_adder(s, pi, !ei, carry);
        d.push(sum);
        carry = c;
    }
    d
}

/// The sign of a signed difference that a query asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `d > m`.
    Positive,
    /// `d < −m`.
    Negative,
}

/// `d > m` or `d < −m` (by `side`) for a two's-complement vector `d`
/// from [`signed_diff`], as one constant comparator on `d`'s bit
/// pattern. With `w` magnitude bits below the sign, a negative `d` is
/// `low − 2^w`, so `d < −m` is `sign ∧ low ≤ 2^w − 1 − m`.
pub fn exceeds(s: &mut Solver, d: &[Sig], m: u128, side: Side) -> Sig {
    let Some((&sign, low)) = d.split_last() else {
        return Sig::FALSE;
    };
    match side {
        Side::Positive => {
            let gt = gt_const(s, low, m);
            and(s, !sign, gt)
        }
        Side::Negative => {
            let all_ones = match low.len() {
                w @ 0..128 => (1u128 << w) - 1,
                _ => u128::MAX,
            };
            if m > all_ones {
                return Sig::FALSE;
            }
            let gt = gt_const(s, low, all_ones - m);
            and(s, sign, !gt)
        }
    }
}

/// `x > k` for a little-endian vector against a constant.
pub fn gt_const(s: &mut Solver, x: &[Sig], k: u128) -> Sig {
    if x.len() < 128 && (k >> x.len()) != 0 {
        return Sig::FALSE;
    }
    let mut acc = Sig::FALSE;
    for (i, &xi) in x.iter().enumerate() {
        let ki = (k >> i) & 1 == 1;
        acc = if ki { and(s, xi, acc) } else { or(s, xi, acc) };
    }
    acc
}

/// Decodes a little-endian vector under a model.
#[must_use]
pub fn decode(model: &Model, bits: &[Sig]) -> u128 {
    let mut v = 0u128;
    for (i, &b) in bits.iter().enumerate().take(128) {
        if b.value(model) {
            v |= 1 << i;
        }
    }
    v
}

fn sort2(a: Lit, b: Lit) -> (Lit, Lit) {
    if a.code() <= b.code() {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    fn model_for(s: &mut Solver, assumps: &[Lit]) -> Model {
        match s.solve(assumps, 100_000) {
            SolveResult::Sat(m) => m,
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn gates_match_boolean_semantics_exhaustively() {
        for bits in 0u32..8 {
            let (va, vb, vc) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let mut s = Solver::new();
            let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
            let (sa, sb, sc) = (Sig::Lit(a), Sig::Lit(b), Sig::Lit(c));
            let g_and = and(&mut s, sa, sb);
            let g_xor = xor(&mut s, sa, sb);
            let g_or = or(&mut s, sa, sb);
            let g_mux = mux(&mut s, sa, sb, sc);
            let g_maj = maj(&mut s, sa, sb, sc);
            let g_xor_many = xor_many(&mut s, &[sc, !sa, Sig::TRUE, sb, sa]);
            let (g_sum, g_cry) = full_adder(&mut s, sa, sb, sc);
            let fix = [
                Lit::new(a.var(), !va),
                Lit::new(b.var(), !vb),
                Lit::new(c.var(), !vc),
            ];
            let m = model_for(&mut s, &fix);
            assert_eq!(g_and.value(&m), va & vb);
            assert_eq!(g_xor.value(&m), va ^ vb);
            assert_eq!(g_or.value(&m), va | vb);
            assert_eq!(g_mux.value(&m), if va { vb } else { vc });
            assert_eq!(g_maj.value(&m), (va & vb) | (va & vc) | (vb & vc));
            assert_eq!(g_xor_many.value(&m), vb ^ vc);
            let total = va as u32 + vb as u32 + vc as u32;
            assert_eq!(g_sum.value(&m), total & 1 == 1);
            assert_eq!(g_cry.value(&m), total >= 2);
        }
    }

    #[test]
    fn constant_folding_emits_no_clauses() {
        let mut s = Solver::new();
        let a = Sig::Lit(s.new_var());
        let before = s.num_vars();
        assert_eq!(and(&mut s, a, Sig::TRUE), a);
        assert_eq!(and(&mut s, a, Sig::FALSE), Sig::FALSE);
        assert_eq!(xor(&mut s, a, Sig::FALSE), a);
        assert_eq!(xor(&mut s, a, Sig::TRUE), !a);
        assert_eq!(xor(&mut s, a, a), Sig::FALSE);
        assert_eq!(xor(&mut s, a, !a), Sig::TRUE);
        assert_eq!(mux(&mut s, a, Sig::TRUE, Sig::FALSE), a);
        assert_eq!(mux(&mut s, Sig::TRUE, a, !a), a);
        assert_eq!(maj(&mut s, a, a, !a), a);
        assert_eq!(s.num_vars(), before, "folded gates must not allocate");
    }

    #[test]
    fn structural_hashing_reuses_variables() {
        let mut s = Solver::new();
        let a = Sig::Lit(s.new_var());
        let b = Sig::Lit(s.new_var());
        let x1 = xor(&mut s, a, b);
        let n = s.num_vars();
        let x2 = xor(&mut s, b, a); // commuted: same gate
        let x3 = xor(&mut s, !a, b); // polarity-stripped: same var, negated
        assert_eq!(x1, x2);
        assert_eq!(x3, !x1);
        assert_eq!(s.num_vars(), n);
        let m1 = mux(&mut s, a, b, x1);
        let n = s.num_vars();
        let m2 = mux(&mut s, !a, x1, b); // select-flipped: same gate
        assert_eq!(m1, m2);
        assert_eq!(s.num_vars(), n);
    }

    #[test]
    fn majority_is_hashed_self_dual() {
        let mut s = Solver::new();
        let [a, b, c] = [(); 3].map(|()| Sig::Lit(s.new_var()));
        let base = maj(&mut s, a, b, c);
        let n = s.num_vars();
        assert_eq!(maj(&mut s, !a, !b, !c), !base);
        assert_eq!(maj(&mut s, !c, !a, !b), !base);
        let mixed = maj(&mut s, a, !b, c);
        assert_eq!(s.num_vars(), n + 1, "one negation is a new function");
        assert_eq!(maj(&mut s, !a, b, !c), !mixed);
        assert_eq!(maj(&mut s, !c, b, !a), !mixed);
        assert_eq!(s.num_vars(), n + 1, "complemented forms share a variable");
        // The flipped gate still computes the majority.
        for bits in 0u32..8 {
            let fix: Vec<Lit> = [a, b, c]
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let l = x.lit(&s);
                    if bits >> i & 1 == 1 {
                        l
                    } else {
                        !l
                    }
                })
                .collect();
            let m = model_for(&mut s, &fix);
            let (va, vb, vc) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let major = |x: bool, y: bool, z: bool| (x & y) | (x & z) | (y & z);
            assert_eq!(maj(&mut s, !a, !b, !c).value(&m), !major(va, vb, vc));
            assert_eq!(maj(&mut s, !a, b, !c).value(&m), major(!va, vb, !vc));
        }
    }

    #[test]
    fn exact_product_decodes_correctly() {
        // 4x4: pin operands via assumptions, read the product back.
        let mut s = Solver::new();
        let a: Vec<Sig> = (0..4).map(|_| Sig::Lit(s.new_var())).collect();
        let b: Vec<Sig> = (0..4).map(|_| Sig::Lit(s.new_var())).collect();
        let prod = exact_product(&mut s, &a, &b);
        for (av, bv) in [(0u128, 0u128), (3, 5), (15, 15), (9, 12), (7, 11)] {
            let mut assumps = Vec::new();
            for (i, sig) in a.iter().enumerate() {
                let l = sig.lit(&s);
                assumps.push(if (av >> i) & 1 == 1 { l } else { !l });
            }
            for (i, sig) in b.iter().enumerate() {
                let l = sig.lit(&s);
                assumps.push(if (bv >> i) & 1 == 1 { l } else { !l });
            }
            let m = model_for(&mut s, &assumps);
            assert_eq!(decode(&m, &prod), av * bv, "{av}*{bv}");
        }
    }

    #[test]
    fn side_queries_are_sat_exactly_beyond_the_bound() {
        // Every 4-bit p and e, every bound k: the positive query is SAT
        // exactly when p − e > k, the negative one when e − p > k.
        let mut s = Solver::new();
        let p: Vec<Sig> = (0..4).map(|_| Sig::Lit(s.new_var())).collect();
        let e: Vec<Sig> = (0..4).map(|_| Sig::Lit(s.new_var())).collect();
        let d = signed_diff(&mut s, &p, &e);
        assert_eq!(d.len(), 5);
        let queries: Vec<(u128, Side, Sig)> = (0..=16u128)
            .flat_map(|k| [Side::Positive, Side::Negative].map(|side| (k, side)))
            .map(|(k, side)| (k, side, exceeds(&mut s, &d, k, side)))
            .collect();
        for pv in 0u128..16 {
            for ev in 0u128..16 {
                let mut operands = Vec::new();
                for (bits, v) in [(&p, pv), (&e, ev)] {
                    for (i, sig) in bits.iter().enumerate() {
                        let l = sig.lit(&s);
                        operands.push(if v >> i & 1 == 1 { l } else { !l });
                    }
                }
                for &(k, side, query) in &queries {
                    let expect = match side {
                        Side::Positive => pv > ev && pv - ev > k,
                        Side::Negative => ev > pv && ev - pv > k,
                    };
                    let sat = match query {
                        Sig::Const(c) => c,
                        Sig::Lit(l) => {
                            let assumps = [operands.clone(), vec![l]].concat();
                            matches!(s.solve(&assumps, 100_000), SolveResult::Sat(_))
                        }
                    };
                    assert_eq!(sat, expect, "p={pv} e={ev} k={k} {side:?}");
                }
            }
        }
    }

    #[test]
    fn gt_const_folds_oversized_constants() {
        let mut s = Solver::new();
        let x: Vec<Sig> = (0..4).map(|_| Sig::Lit(s.new_var())).collect();
        assert_eq!(gt_const(&mut s, &x, 1 << 20), Sig::FALSE);
        // x > 15 is impossible for a 4-bit vector... but the builder
        // only folds when the constant has bits beyond the vector; the
        // 4-bit/15 case needs all bits set AND one more, which the
        // and/or chain correctly reduces to FALSE only via solving.
        let g = gt_const(&mut s, &x, 15);
        let gl = g.lit(&s);
        assert!(matches!(s.solve(&[gl], 10_000), SolveResult::Unsat));
    }

    #[test]
    fn xor_many_is_canonical_for_order_polarity_and_constants() {
        let mut s = Solver::new();
        let [a, b, c, d] = [(); 4].map(|()| Sig::Lit(s.new_var()));
        let base = xor_many(&mut s, &[a, b, c]);
        let n = s.num_vars();
        assert_eq!(xor_many(&mut s, &[c, a, b]), base);
        assert_eq!(xor_many(&mut s, &[!a, b, !c]), base);
        assert_eq!(xor_many(&mut s, &[!b, a, c]), !base);
        assert_eq!(xor_many(&mut s, &[Sig::FALSE, b, Sig::TRUE, a, !c]), base);
        assert_eq!(xor_many(&mut s, &[a, d, b, !d, c]), !base);
        assert_eq!(xor_many(&mut s, &[a, a]), Sig::FALSE);
        assert_eq!(xor_many(&mut s, &[a, !a]), Sig::TRUE);
        assert_eq!(xor_many(&mut s, &[]), Sig::FALSE);
        assert_eq!(xor_many(&mut s, &[Sig::TRUE, !a]), a);
        assert_eq!(xor_many(&mut s, &[b, a]), xor(&mut s, a, b));
        assert_eq!(s.num_vars(), n, "equal parities must share one gate chain");
    }

    #[test]
    fn a_parity_lut_returns_the_xor_many_literal() {
        let mut s = Solver::new();
        let [a, b, c] = [(); 3].map(|()| Sig::Lit(s.new_var()));
        // Parity of pins 0, 1 and 3; pin 2 is a constant, 4 and 5 are
        // ignored.
        let table = axmul_fabric::Init::from_fn(|i| (i & 0b1011).count_ones() % 2 == 1);
        let pins = [c, !a, Sig::TRUE, b, a, c];
        let lut = crate::encode::lut_output(&mut s, table.raw(), &pins);
        assert_eq!(lut, xor_many(&mut s, &[a, b, c, Sig::TRUE]));
        assert_eq!(lut, !xor_many(&mut s, &[c, b, a]));
    }
}
