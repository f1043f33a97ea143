use std::fmt;
use std::str::FromStr;

use crate::FabricError;

/// A 64-bit `LUT6_2` truth table — the "INIT value" of Xilinx parlance.
///
/// A 7-series `LUT6_2` is a fracturable 6-input lookup table with two
/// outputs:
///
/// * `O6 = INIT[{I5, I4, I3, I2, I1, I0}]` — the full 6-input function;
/// * `O5 = INIT[{0, I4, I3, I2, I1, I0}]` — a 5-input function stored in
///   the *lower* 32 bits of the INIT vector.
///
/// When both outputs are used as independent 5-input functions, `I5` is
/// tied to logic `1` so that `O6` reads the *upper* 32 bits while `O5`
/// reads the lower 32 bits. This is exactly the convention of Table 3 of
/// the DAC'18 paper, which this crate reproduces verbatim.
///
/// The bit index is `I5*32 + I4*16 + I3*8 + I2*4 + I1*2 + I0`.
///
/// # Examples
///
/// ```
/// use axmul_fabric::Init;
///
/// // AND of I0 and I1 (upper inputs ignored -> replicate across table).
/// let and2 = Init::from_fn(|i| (i & 1 == 1) && (i >> 1 & 1 == 1));
/// assert!(and2.o6(0b000011));
/// assert!(!and2.o6(0b000001));
///
/// // Table 3, LUT3 of the approximate 4x4 multiplier:
/// let lut3: Init = "F800000000000000".parse()?;
/// assert_eq!(lut3.to_string(), "64'hF800000000000000");
/// # Ok::<(), axmul_fabric::FabricError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Init(u64);

impl Init {
    /// The constant-zero truth table.
    pub const ZERO: Init = Init(0);
    /// The constant-one truth table.
    pub const ONE: Init = Init(u64::MAX);
    /// 2-input XOR of `I0`, `I1` (replicated over the unused inputs).
    pub const XOR2: Init = Init(0x6666_6666_6666_6666);
    /// 2-input AND of `I0`, `I1` (replicated over the unused inputs).
    pub const AND2: Init = Init(0x8888_8888_8888_8888);
    /// 2-input OR of `I0`, `I1` (replicated over the unused inputs).
    pub const OR2: Init = Init(0xEEEE_EEEE_EEEE_EEEE);
    /// 3-input XOR of `I0..=I2` (replicated over the unused inputs).
    pub const XOR3: Init = Init(0x9696_9696_9696_9696);
    /// Identity on `I0` (buffer).
    pub const BUF: Init = Init(0xAAAA_AAAA_AAAA_AAAA);

    /// Builds an INIT vector from a raw 64-bit truth table.
    ///
    /// Bit `i` of `raw` is the value of `O6` for the input combination
    /// whose 6-bit encoding (`{I5..I0}`) equals `i`.
    #[must_use]
    pub const fn from_raw(raw: u64) -> Self {
        Init(raw)
    }

    /// Returns the raw 64-bit truth table.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Builds an INIT vector by evaluating `f` on all 64 input
    /// combinations. `f` receives the 6-bit index `{I5..I0}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use axmul_fabric::Init;
    /// // Majority of I0, I1, I2.
    /// let maj = Init::from_fn(|i| (i & 1) + (i >> 1 & 1) + (i >> 2 & 1) >= 2);
    /// assert!(maj.o6(0b000110));
    /// assert!(!maj.o6(0b000100));
    /// ```
    #[must_use]
    pub fn from_fn(mut f: impl FnMut(u8) -> bool) -> Self {
        let mut raw = 0u64;
        for i in 0..64u8 {
            if f(i) {
                raw |= 1 << i;
            }
        }
        Init(raw)
    }

    /// Builds the INIT of a dual-output (`LUT6_2`) cell from two 5-input
    /// functions: `o5` occupies the lower 32 entries and `o6_upper` the
    /// upper 32. Use this with `I5` tied to `1`.
    ///
    /// Each closure receives the 5-bit index `{I4..I0}`.
    #[must_use]
    pub fn from_dual(mut o6_upper: impl FnMut(u8) -> bool, mut o5: impl FnMut(u8) -> bool) -> Self {
        let mut raw = 0u64;
        for i in 0..32u8 {
            if o5(i) {
                raw |= 1 << i;
            }
            if o6_upper(i) {
                raw |= 1 << (32 + i);
            }
        }
        Init(raw)
    }

    /// Evaluates the `O6` output for the 6-bit input encoding
    /// `{I5, I4, I3, I2, I1, I0}` (bit 5 is `I5`).
    #[must_use]
    pub const fn o6(self, index: u8) -> bool {
        (self.0 >> (index & 0x3F)) & 1 == 1
    }

    /// Evaluates the `O5` output: the lower-half table indexed by
    /// `{I4, I3, I2, I1, I0}` (`I5` is ignored, per the 7-series CLB).
    #[must_use]
    pub const fn o5(self, index: u8) -> bool {
        (self.0 >> (index & 0x1F)) & 1 == 1
    }

    /// Number of input combinations (out of 64) for which `O6` is `1`.
    #[must_use]
    pub const fn ones(self) -> u32 {
        self.0.count_ones()
    }

    /// Returns `true` if `O6` actually depends on input `i` (0..=5),
    /// i.e. toggling `Ii` changes the output for at least one setting of
    /// the other inputs.
    ///
    /// Branch-free: shifting the table right by `2^i` lines every index
    /// with `Ii = 1` up with its `Ii = 0` partner, so the XOR is nonzero
    /// at an index with bit `i` clear exactly where `Ii` matters.
    ///
    /// Used by area accounting (ignored pins), the timing analyzer (to
    /// ignore tied-off pins), the lint dead-logic pass and the SAT
    /// decomposer, and handy for sanity-checking hand-written INITs.
    ///
    /// # Panics
    ///
    /// Panics if `i > 5`.
    #[must_use]
    pub const fn depends_on(self, i: u8) -> bool {
        assert!(i < 6, "LUT6 has inputs 0..=5");
        let t = self.0;
        (t ^ (t >> (1u32 << i))) & LOW[i as usize] != 0
    }

    /// Returns `true` if the `O5` output (lower-half table) depends on
    /// input `i` (0..=4). `I5` never reaches `O5`, so `depends_on_o5(5)`
    /// is always `false`. The same mask test as [`Init::depends_on`],
    /// restricted to the lower 32 indices.
    ///
    /// The timing analyzer uses this to give each output of a fractured
    /// `LUT6_2` its own arrival time: e.g. in the ternary adder, `O5`
    /// (the exported majority) does not depend on the incoming majority
    /// pin, so majority signals do not ripple.
    ///
    /// # Panics
    ///
    /// Panics if `i > 5`.
    #[must_use]
    pub const fn depends_on_o5(self, i: u8) -> bool {
        assert!(i < 6, "LUT6 has inputs 0..=5");
        let t = self.0;
        i < 5 && (t ^ (t >> (1u32 << i))) & LOW[i as usize] & 0xFFFF_FFFF != 0
    }
}

/// `LOW[i]` selects the truth-table indices whose bit `i` is clear.
const LOW: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

impl fmt::Display for Init {
    /// Formats as Verilog-style `64'hXXXXXXXXXXXXXXXX`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "64'h{:016X}", self.0)
    }
}

impl fmt::LowerHex for Init {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Init {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Init {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<u64> for Init {
    fn from(raw: u64) -> Self {
        Init(raw)
    }
}

impl From<Init> for u64 {
    fn from(init: Init) -> u64 {
        init.0
    }
}

impl FromStr for Init {
    type Err = FabricError;

    /// Parses a bare 16-digit (or shorter) hex literal, optionally
    /// prefixed with `0x` or `64'h`, as printed by Vivado and by
    /// Table 3 of the paper.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s
            .trim()
            .trim_start_matches("64'h")
            .trim_start_matches("0x")
            .trim_start_matches("0X");
        u64::from_str_radix(t, 16)
            .map(Init)
            .map_err(|_| FabricError::ParseInit {
                literal: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn o6_indexes_full_table() {
        let init = Init::from_raw(1 << 37);
        assert!(init.o6(37));
        assert!(!init.o6(36));
    }

    #[test]
    fn o5_ignores_i5() {
        let init = Init::from_raw((1 << 3) | (1 << (32 + 9)));
        assert!(init.o5(3));
        assert!(init.o5(3 | 0b10_0000), "O5 must mask off I5");
        assert!(!init.o5(9), "upper-half bits never reach O5");
    }

    #[test]
    fn from_fn_matches_manual() {
        let xor = Init::from_fn(|i| ((i & 1) ^ (i >> 1 & 1)) == 1);
        assert_eq!(xor, Init::XOR2);
    }

    #[test]
    fn from_dual_places_halves() {
        let d = Init::from_dual(|i| i == 0, |i| i == 31);
        assert!(d.o6(32));
        assert!(!d.o6(0));
        assert!(d.o5(31));
    }

    #[test]
    fn named_tables_are_correct() {
        for i in 0..64u8 {
            let a = i & 1 == 1;
            let b = i >> 1 & 1 == 1;
            let c = i >> 2 & 1 == 1;
            assert_eq!(Init::XOR2.o6(i), a ^ b);
            assert_eq!(Init::AND2.o6(i), a && b);
            assert_eq!(Init::OR2.o6(i), a || b);
            assert_eq!(Init::XOR3.o6(i), a ^ b ^ c);
            assert_eq!(Init::BUF.o6(i), a);
        }
    }

    #[test]
    fn parse_accepts_paper_and_verilog_styles() {
        let a: Init = "B4CCF00066AACC00".parse().unwrap();
        let b: Init = "0xB4CCF00066AACC00".parse().unwrap();
        let c: Init = "64'hB4CCF00066AACC00".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.raw(), 0xB4CC_F000_66AA_CC00);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("zz".parse::<Init>().is_err());
        assert!("".parse::<Init>().is_err());
        assert!("123456789ABCDEF01".parse::<Init>().is_err(), "17 digits");
    }

    #[test]
    fn display_round_trips() {
        let a = Init::from_raw(0x07C0_FF00_0000_0000);
        let shown = a.to_string();
        assert_eq!(shown, "64'h07C0FF0000000000");
        assert_eq!(shown.parse::<Init>().unwrap(), a);
    }

    #[test]
    fn depends_on_detects_support() {
        assert!(Init::XOR2.depends_on(0));
        assert!(Init::XOR2.depends_on(1));
        assert!(!Init::XOR2.depends_on(5));
        assert!(!Init::ZERO.depends_on(0));
    }
}
