//! The configuration space: recursive multiplier configurations as a
//! tree of per-sub-block choices.
//!
//! A [`Config`] is either a 4×4 *leaf* (one of the [`Leaf`] kernel
//! choices) or a *quad* node combining four sub-configurations — the
//! `AL·BL`, `AH·BL`, `AL·BH`, `AH·BH` quadrants — with one of the
//! paper's two summation schemes. An 8×8 configuration is a quad of
//! leaves; a 16×16 configuration is a quad of 8×8 quads, and so on.
//!
//! Every configuration has a *canonical key* ([`Config::key`]) that
//! serializes the tree uniquely: `X`, `A`, `T1`–`T3` for leaves and
//! `(a LL HL LH HH)` / `(c …)` for accurate / carry-free quads. The key
//! is the memoization handle of the characterization cache.

use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

use axmul_baselines::{array_mult_netlist, pp_truncated_netlist};
use axmul_core::behavioral::Summation;
use axmul_core::structural::{approx_4x4_netlist, compose_quad_netlist};
use axmul_fabric::Netlist;
use rand::Rng;

/// Width of the leaf kernels (the recursion terminates at 4×4).
pub const LEAF_BITS: u32 = 4;

/// The 4×4 kernel choices at the bottom of the recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Leaf {
    /// Exact 4×4 array multiplier.
    Exact,
    /// The paper's approximate 4×4 multiplier (Table 3 INITs).
    Approx,
    /// Partial-product truncation: product bits below weight `k` are
    /// dropped (`1 ≤ k ≤ 3`).
    Truncated(u32),
}

impl Leaf {
    /// All supported leaf choices, in canonical enumeration order.
    pub const ALL: [Leaf; 5] = [
        Leaf::Exact,
        Leaf::Approx,
        Leaf::Truncated(1),
        Leaf::Truncated(2),
        Leaf::Truncated(3),
    ];

    /// Canonical single-token code: `X`, `A`, `T1`, `T2`, `T3`.
    #[must_use]
    pub fn code(self) -> String {
        match self {
            Leaf::Exact => "X".to_string(),
            Leaf::Approx => "A".to_string(),
            Leaf::Truncated(k) => format!("T{k}"),
        }
    }

    /// Builds the leaf's structural netlist.
    ///
    /// # Panics
    ///
    /// Panics on `Truncated(k)` with `k` outside `1..=3`.
    #[must_use]
    pub fn netlist(self) -> Netlist {
        match self {
            Leaf::Exact => array_mult_netlist(LEAF_BITS, LEAF_BITS),
            Leaf::Approx => approx_4x4_netlist(),
            Leaf::Truncated(k) => {
                assert!((1..=3).contains(&k), "truncation depth {k} out of range");
                pp_truncated_netlist(LEAF_BITS, LEAF_BITS, k)
            }
        }
    }

    /// The leaf's netlist from a process-wide memo of the five
    /// [`Leaf::ALL`] netlists, each built on its first use.
    ///
    /// # Panics
    ///
    /// Panics on a leaf outside [`Leaf::ALL`].
    fn shared_netlist(self) -> &'static Netlist {
        static MEMO: [OnceLock<Netlist>; Leaf::ALL.len()] =
            [const { OnceLock::new() }; Leaf::ALL.len()];
        let slot = Leaf::ALL
            .iter()
            .position(|&l| l == self)
            .unwrap_or_else(|| panic!("leaf {self:?} out of range"));
        MEMO[slot].get_or_init(|| self.netlist())
    }
}

/// One recursive multiplier configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Config {
    /// A 4×4 kernel.
    Leaf(Leaf),
    /// A `2M×2M` node built from four `M×M` sub-configurations
    /// (`LL`, `HL`, `LH`, `HH` order) and a summation scheme.
    Quad {
        /// Summation combining the four quadrant products.
        summation: Summation,
        /// The quadrant sub-configurations.
        sub: Box<[Config; 4]>,
    },
}

impl Config {
    /// Operand width of this configuration in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        match self {
            Config::Leaf(_) => LEAF_BITS,
            Config::Quad { sub, .. } => 2 * sub[0].bits(),
        }
    }

    /// Canonical serialization; equal keys ⇔ identical configurations.
    #[must_use]
    pub fn key(&self) -> String {
        match self {
            Config::Leaf(l) => l.code(),
            Config::Quad { summation, sub } => {
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

    /// Quad node over four identical sub-configurations.
    #[must_use]
    pub fn uniform(sub: Config, summation: Summation) -> Self {
        Config::Quad {
            summation,
            sub: Box::new([sub.clone(), sub.clone(), sub.clone(), sub]),
        }
    }

    /// The paper's homogeneous approx-Ca / approx-Cc configuration at
    /// `bits` (4, 8, 16, …): all-approximate leaves, one summation
    /// everywhere.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is a power of two ≥ 4.
    #[must_use]
    pub fn paper(bits: u32, summation: Summation) -> Self {
        assert!(
            bits >= LEAF_BITS && bits.is_power_of_two(),
            "unsupported width {bits}"
        );
        let mut cfg = Config::Leaf(Leaf::Approx);
        let mut w = LEAF_BITS;
        while w < bits {
            cfg = Config::uniform(cfg, summation);
            w *= 2;
        }
        cfg
    }

    /// The sibling group of an 8×8 quad, its summation and its `LL`
    /// and `HL` leaves, or `None` for any other configuration. A
    /// group's quads share every chunk of the exhaustive error sweep on
    /// which their `LH` and `HH` rows agree
    /// ([`crate::CharCache::characterize_group`]).
    pub(crate) fn sibling_group(&self) -> Option<(Summation, Leaf, Leaf)> {
        match self {
            Config::Quad { summation, sub } => match **sub {
                [Config::Leaf(ll), Config::Leaf(hl), Config::Leaf(_), Config::Leaf(_)] => {
                    Some((*summation, ll, hl))
                }
                _ => None,
            },
            Config::Leaf(_) => None,
        }
    }

    /// Assembles the configuration's structural netlist (named by its
    /// canonical key). Leaves come from a process-wide memo of the five
    /// leaf netlists, so an 8×8 quad costs one compose; wider trees
    /// compose every quad node on each call.
    #[must_use]
    pub fn assemble(&self) -> Netlist {
        self.assemble_shared().into_owned()
    }

    /// [`Config::assemble`], borrowing a leaf's netlist from the memo.
    fn assemble_shared(&self) -> Cow<'static, Netlist> {
        match self {
            Config::Leaf(l) => Cow::Borrowed(l.shared_netlist()),
            Config::Quad { summation, sub } => {
                let [ll, hl, lh, hh] = sub.each_ref().map(Config::assemble_shared);
                Cow::Owned(compose_quad_netlist(
                    self.key(),
                    &ll,
                    &hl,
                    &lh,
                    &hh,
                    *summation,
                ))
            }
        }
    }

    /// Enumerates every configuration of the given width: `5^(4^d) × 2^…`
    /// grows doubly exponentially, so this is only feasible for
    /// `bits = 4` (5 configs) and `bits = 8` (1250 configs).
    ///
    /// # Panics
    ///
    /// Panics for `bits > 8` — use [`Config::random`] or the hill-climb
    /// strategy there.
    #[must_use]
    pub fn enumerate(bits: u32) -> Vec<Config> {
        match bits {
            4 => Leaf::ALL.iter().copied().map(Config::Leaf).collect(),
            8 => {
                let leaves = Config::enumerate(4);
                let mut out = Vec::with_capacity(2 * leaves.len().pow(4));
                for summation in [Summation::Accurate, Summation::CarryFree] {
                    for ll in &leaves {
                        for hl in &leaves {
                            for lh in &leaves {
                                for hh in &leaves {
                                    out.push(Config::Quad {
                                        summation,
                                        sub: Box::new([
                                            ll.clone(),
                                            hl.clone(),
                                            lh.clone(),
                                            hh.clone(),
                                        ]),
                                    });
                                }
                            }
                        }
                    }
                }
                out
            }
            _ => panic!("exhaustive enumeration is infeasible beyond 8 bits (got {bits})"),
        }
    }

    /// Draws a uniform-random configuration of the given width.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is a power of two ≥ 4.
    pub fn random(bits: u32, rng: &mut impl Rng) -> Self {
        assert!(
            bits >= LEAF_BITS && bits.is_power_of_two(),
            "unsupported width {bits}"
        );
        if bits == LEAF_BITS {
            return Config::Leaf(Leaf::ALL[rng.random_range(0..Leaf::ALL.len())]);
        }
        let summation = if rng.random::<bool>() {
            Summation::Accurate
        } else {
            Summation::CarryFree
        };
        let m = bits / 2;
        Config::Quad {
            summation,
            sub: Box::new([
                Config::random(m, rng),
                Config::random(m, rng),
                Config::random(m, rng),
                Config::random(m, rng),
            ]),
        }
    }

    /// Returns a copy with one random local change: either one leaf
    /// swapped for a different kernel, or one quad node's summation
    /// flipped. This is the hill-climb neighborhood.
    pub fn mutate(&self, rng: &mut impl Rng) -> Self {
        let mut next = self.clone();
        let sites = next.count_sites();
        let target = rng.random_range(0..sites);
        next.mutate_site(target, rng);
        next
    }

    /// Number of mutable sites (leaves + quad summations) in the tree.
    fn count_sites(&self) -> usize {
        match self {
            Config::Leaf(_) => 1,
            Config::Quad { sub, .. } => 1 + sub.iter().map(Config::count_sites).sum::<usize>(),
        }
    }

    /// Applies a mutation to the `target`-th site (pre-order numbering).
    fn mutate_site(&mut self, target: usize, rng: &mut impl Rng) {
        match self {
            Config::Leaf(l) => {
                debug_assert_eq!(target, 0);
                let mut pick = *l;
                while pick == *l {
                    pick = Leaf::ALL[rng.random_range(0..Leaf::ALL.len())];
                }
                *l = pick;
            }
            Config::Quad { summation, sub } => {
                if target == 0 {
                    *summation = match summation {
                        Summation::Accurate => Summation::CarryFree,
                        Summation::CarryFree => Summation::Accurate,
                    };
                    return;
                }
                let mut rest = target - 1;
                for s in sub.iter_mut() {
                    let n = s.count_sites();
                    if rest < n {
                        s.mutate_site(rest, rng);
                        return;
                    }
                    rest -= n;
                }
                unreachable!("site index out of range");
            }
        }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

/// Error parsing a canonical configuration key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    message: String,
}

impl ParseConfigError {
    fn new(message: impl Into<String>) -> Self {
        ParseConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad configuration key: {}", self.message)
    }
}

impl std::error::Error for ParseConfigError {}

/// Widest parseable configuration: depth 5 above the 4-bit leaves, i.e.
/// 128×128. Guards the recursive parser against hostile input depth.
const MAX_PARSE_BITS: u32 = 128;

/// Parses the canonical key syntax emitted by [`Config::key`]:
/// leaf codes `X`, `A`, `T1`–`T3`, quads `(a LL HL LH HH)` /
/// `(c LL HL LH HH)`. The round trip `key → parse → key` is exact.
impl std::str::FromStr for Config {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut tokens = tokenize(s);
        let cfg = parse_node(&mut tokens)?;
        if let Some(extra) = tokens.next() {
            return Err(ParseConfigError::new(format!(
                "trailing input after configuration: `{extra}`"
            )));
        }
        Ok(cfg)
    }
}

/// Splits a key into `(`, `)` and atom tokens.
fn tokenize(s: &str) -> std::vec::IntoIter<String> {
    let mut tokens = Vec::new();
    let mut atom = String::new();
    for c in s.chars() {
        match c {
            '(' | ')' => {
                if !atom.is_empty() {
                    tokens.push(std::mem::take(&mut atom));
                }
                tokens.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !atom.is_empty() {
                    tokens.push(std::mem::take(&mut atom));
                }
            }
            c => atom.push(c),
        }
    }
    if !atom.is_empty() {
        tokens.push(atom);
    }
    tokens.into_iter()
}

fn parse_node(tokens: &mut std::vec::IntoIter<String>) -> Result<Config, ParseConfigError> {
    let Some(tok) = tokens.next() else {
        return Err(ParseConfigError::new("empty input"));
    };
    match tok.as_str() {
        "(" => {
            let summation = match tokens.next().as_deref() {
                Some("a") => Summation::Accurate,
                Some("c") => Summation::CarryFree,
                Some(other) => {
                    return Err(ParseConfigError::new(format!(
                        "expected summation tag `a` or `c`, found `{other}`"
                    )))
                }
                None => return Err(ParseConfigError::new("unterminated quad")),
            };
            let sub = [
                parse_node(tokens)?,
                parse_node(tokens)?,
                parse_node(tokens)?,
                parse_node(tokens)?,
            ];
            match tokens.next().as_deref() {
                Some(")") => {}
                Some(other) => {
                    return Err(ParseConfigError::new(format!(
                        "expected `)`, found `{other}`"
                    )))
                }
                None => return Err(ParseConfigError::new("unterminated quad")),
            }
            let bits = sub[0].bits();
            if sub.iter().any(|s| s.bits() != bits) {
                return Err(ParseConfigError::new(
                    "quad sub-blocks must all have the same width",
                ));
            }
            if 2 * bits > MAX_PARSE_BITS {
                return Err(ParseConfigError::new(format!(
                    "configuration wider than {MAX_PARSE_BITS} bits"
                )));
            }
            Ok(Config::Quad {
                summation,
                sub: Box::new(sub),
            })
        }
        ")" => Err(ParseConfigError::new("unexpected `)`")),
        "X" => Ok(Config::Leaf(Leaf::Exact)),
        "A" => Ok(Config::Leaf(Leaf::Approx)),
        "T1" => Ok(Config::Leaf(Leaf::Truncated(1))),
        "T2" => Ok(Config::Leaf(Leaf::Truncated(2))),
        "T3" => Ok(Config::Leaf(Leaf::Truncated(3))),
        other => Err(ParseConfigError::new(format!(
            "unknown leaf code `{other}` (expected X, A, T1, T2 or T3)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn enumerate_8x8_space_size() {
        let all = Config::enumerate(8);
        assert_eq!(all.len(), 2 * 5usize.pow(4)); // 1250
        let keys: HashSet<String> = all.iter().map(Config::key).collect();
        assert_eq!(keys.len(), all.len(), "keys must be unique");
        assert!(all.iter().all(|c| c.bits() == 8));
    }

    #[test]
    fn paper_configs_have_expected_keys() {
        assert_eq!(Config::paper(8, Summation::Accurate).key(), "(a A A A A)");
        assert_eq!(Config::paper(8, Summation::CarryFree).key(), "(c A A A A)");
        assert_eq!(
            Config::paper(16, Summation::Accurate).key(),
            "(a (a A A A A) (a A A A A) (a A A A A) (a A A A A))"
        );
    }

    #[test]
    fn paper_configs_assemble_to_table4_areas() {
        let ca8 = Config::paper(8, Summation::Accurate).assemble();
        assert_eq!(ca8.lut_count(), 57);
        let cc8 = Config::paper(8, Summation::CarryFree).assemble();
        assert_eq!(cc8.lut_count(), 56);
        let ca16 = Config::paper(16, Summation::Accurate).assemble();
        assert_eq!(ca16.lut_count(), 245);
    }

    #[test]
    fn random_configs_are_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            assert_eq!(Config::random(16, &mut r1), Config::random(16, &mut r2));
        }
    }

    #[test]
    fn mutation_changes_exactly_one_site() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let cfg = Config::random(8, &mut rng);
            let mutant = cfg.mutate(&mut rng);
            assert_ne!(cfg.key(), mutant.key(), "mutation must change the config");
            assert_eq!(mutant.bits(), cfg.bits());
            // Keys differ in exactly one token.
            let (ka, kb) = (cfg.key(), mutant.key());
            let a: Vec<&str> = ka.split_whitespace().collect();
            let b: Vec<&str> = kb.split_whitespace().collect();
            // Summation flips change one char inside a token, leaf swaps
            // change one token; both keep the token count.
            assert_eq!(a.len(), b.len());
            let diffs = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            assert_eq!(diffs, 1, "{} vs {}", cfg.key(), mutant.key());
        }
    }

    #[test]
    fn parse_round_trips_every_8x8_key() {
        for cfg in Config::enumerate(8) {
            let parsed: Config = cfg.key().parse().unwrap();
            assert_eq!(parsed, cfg);
            assert_eq!(parsed.key(), cfg.key());
        }
    }

    #[test]
    fn parse_round_trips_random_wide_keys() {
        let mut rng = StdRng::seed_from_u64(0xC0F);
        for _ in 0..50 {
            let cfg = Config::random(32, &mut rng);
            let parsed: Config = cfg.key().parse().unwrap();
            assert_eq!(parsed, cfg);
        }
    }

    #[test]
    fn parse_tolerates_flexible_whitespace() {
        let cfg: Config = "  (a\t(c X T1 T2 T3)  (a A A A A)\n (a X X X X) (c T2 T2 T2 T2))  "
            .parse()
            .unwrap();
        assert_eq!(
            cfg.key(),
            "(a (c X T1 T2 T3) (a A A A A) (a X X X X) (c T2 T2 T2 T2))"
        );
    }

    #[test]
    fn parse_rejects_malformed_keys() {
        for bad in [
            "",
            "Q",
            "T4",
            "(a A A A)",
            "(a A A A A A)",
            "(b A A A A)",
            "(a A A A A",
            "a A A A A)",
            "(a A A A A) X",
            "(a A A (a A A A A) A)", // mixed sub-block widths
            "()",
            ")",
        ] {
            assert!(bad.parse::<Config>().is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn parse_rejects_over_deep_trees() {
        let mut key = "A".to_string();
        for _ in 0..8 {
            key = format!("(a {key} {key} {key} {key})");
        }
        let err = key.parse::<Config>().unwrap_err();
        assert!(err.to_string().contains("wider"), "{err}");
    }

    #[test]
    fn leaf_netlists_have_multiplier_shape() {
        for leaf in Leaf::ALL {
            let nl = leaf.netlist();
            let buses = nl.input_buses();
            assert_eq!(buses.len(), 2, "{leaf:?}");
            assert_eq!(buses[0].1.len(), 4);
            assert_eq!(buses[1].1.len(), 4);
        }
    }

    #[test]
    fn memoized_leaves_assemble_like_fresh_builds() {
        use axmul_netio::fingerprint;
        for leaf in Leaf::ALL {
            let fresh = fingerprint(&leaf.netlist());
            for call in 0..3 {
                let memo = Config::Leaf(leaf).assemble();
                assert_eq!(fingerprint(&memo), fresh, "{leaf:?}, call {call}");
            }
        }
        for key in ["(a A T1 X T3)", "(c T2 A A X)"] {
            let cfg: Config = key.parse().unwrap();
            let Config::Quad { summation, sub } = &cfg else {
                unreachable!("{key} is a quad")
            };
            let [ll, hl, lh, hh] = sub.each_ref().map(|s| match s {
                Config::Leaf(l) => l.netlist(),
                Config::Quad { .. } => unreachable!("{key} is 8x8"),
            });
            let fresh = compose_quad_netlist(key.to_string(), &ll, &hl, &lh, &hh, *summation);
            assert_eq!(fingerprint(&cfg.assemble()), fingerprint(&fresh), "{key}");
        }
    }
}
