//! # axmul-netio — netlist interchange
//!
//! The fabric layer can *emit* structural Verilog and VHDL
//! ([`axmul_fabric::export`]), but until this crate the repository was
//! a closed world: nothing could read a netlist back in, so the lint,
//! abstract-interpretation, characterization, and daemon layers only
//! ever saw designs generated in-process. `axmul-netio` closes the
//! loop with two interchange formats, both dependency-free and both
//! proven lossless:
//!
//! * **Structural Verilog** ([`verilog`]) — a lexer + recursive-descent
//!   parser + elaborator for exactly the `LUT6_2`/`CARRY4` dialect
//!   [`axmul_fabric::export::to_verilog`] emits. Re-importing an export
//!   is a *byte-level fixpoint*: `to_verilog(import(to_verilog(n)))`
//!   equals `to_verilog(n)`, which also makes the content
//!   [`fingerprint`] — and every characterization-cache key derived
//!   from it — stable across a round trip. Foreign files in the same
//!   dialect import too (renumbered into canonical form).
//! * **`axnl-v1` JSON** ([`axnl`]) — a versioned, schema-checked JSON
//!   encoding with explicit net ids, hex INIT strings, and an embedded
//!   fingerprint so corruption is detected at read time.
//!
//! Neither format carries product-block provenance
//! ([`axmul_fabric::Netlist::product_blocks`]): an imported netlist
//! claims no blocks, so `axmul-sat` proves its worst-case error with
//! the netlist CEGAR, and exports and fingerprints of a composed design
//! are the same as those of its provenance-free twin.
//!
//! All failures are typed [`NetioError`] values with source locations
//! (Verilog) or JSON paths (`axnl`) — hostile input can produce an
//! error, never a panic or a silently-wrong netlist. The generic JSON
//! parser/printer lives here as [`json`] and is shared with
//! `axmul-serve`'s wire protocol.
//!
//! ## Quick start
//!
//! ```
//! use axmul_fabric::{export::to_verilog, Init, NetlistBuilder};
//!
//! let mut b = NetlistBuilder::new("tiny");
//! let a = b.inputs("a", 2);
//! let (x, _) = b.lut2(Init::AND2, a[0], a[1]);
//! b.output("y", x);
//! let netlist = b.finish().unwrap();
//!
//! let text = to_verilog(&netlist);
//! let back = axmul_netio::import(&text).unwrap(); // auto-detects format
//! assert_eq!(to_verilog(&back), text);            // byte fixpoint
//! assert_eq!(
//!     axmul_netio::fingerprint(&back),
//!     axmul_netio::fingerprint(&netlist),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axnl;
pub mod error;
pub mod json;
pub mod verilog;

pub use axnl::{fingerprint, from_axnl, to_axnl, AXNL_FORMAT};
pub use error::{Loc, NetioError};
pub use verilog::from_verilog;

use axmul_fabric::Netlist;

/// The two interchange formats this crate speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Structural Verilog in the exported `LUT6_2`/`CARRY4` dialect.
    Verilog,
    /// The `axnl-v1` JSON document format.
    Axnl,
}

impl Format {
    /// Stable lower-case name (`"verilog"` / `"axnl"`), as used by the
    /// CLI and the daemon's `import-netlist` requests.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Format::Verilog => "verilog",
            Format::Axnl => "axnl",
        }
    }
}

impl std::str::FromStr for Format {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "verilog" | "v" => Ok(Format::Verilog),
            "axnl" | "json" => Ok(Format::Axnl),
            _ => Err(()),
        }
    }
}

/// Guesses the format of an interchange document from its first
/// non-whitespace byte: JSON documents open with `{`, Verilog with a
/// comment or the `module` keyword.
#[must_use]
pub fn detect_format(text: &str) -> Format {
    match text.trim_start().as_bytes().first() {
        Some(b'{') => Format::Axnl,
        _ => Format::Verilog,
    }
}

/// Imports a netlist from either format, auto-detected via
/// [`detect_format`].
///
/// # Errors
///
/// Any [`NetioError`] the chosen format's reader can produce.
pub fn import(text: &str) -> Result<Netlist, NetioError> {
    match detect_format(text) {
        Format::Verilog => from_verilog(text),
        Format::Axnl => from_axnl(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmul_fabric::export::to_verilog;
    use axmul_fabric::{Init, NetlistBuilder};

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.inputs("a", 2);
        let (x, _) = b.lut2(Init::AND2, a[0], a[1]);
        b.output("y", x);
        b.finish().unwrap()
    }

    #[test]
    fn auto_detection_routes_both_formats() {
        let nl = tiny();
        assert_eq!(detect_format(&to_verilog(&nl)), Format::Verilog);
        assert_eq!(detect_format(&to_axnl(&nl)), Format::Axnl);
        let v = import(&to_verilog(&nl)).unwrap();
        let j = import(&to_axnl(&nl)).unwrap();
        assert_eq!(v.drivers(), j.drivers());
        assert_eq!(v.cells(), j.cells());
        assert_eq!(fingerprint(&v), fingerprint(&j));
    }

    #[test]
    fn format_names_parse_back() {
        for f in [Format::Verilog, Format::Axnl] {
            assert_eq!(f.name().parse::<Format>().unwrap(), f);
        }
        assert_eq!("json".parse::<Format>().unwrap(), Format::Axnl);
        assert!("edif".parse::<Format>().is_err());
    }
}
