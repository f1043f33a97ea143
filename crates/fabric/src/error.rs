use std::fmt;

/// Error type for all fallible fabric operations.
///
/// Covers netlist construction errors (dangling nets, double drivers),
/// elaboration errors (combinational cycles), and simulation errors
/// (wrong input arity).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FabricError {
    /// A net is referenced as a cell input or primary output but has no
    /// driver (no cell output, primary input, or constant drives it).
    UndrivenNet {
        /// The offending net.
        net: u32,
        /// Netlist name, for diagnostics.
        netlist: String,
    },
    /// A net is driven by more than one source.
    MultipleDrivers {
        /// The offending net.
        net: u32,
    },
    /// The netlist contains a combinational cycle through the listed net.
    CombinationalCycle {
        /// A net on the cycle.
        net: u32,
    },
    /// `eval` was called with the wrong number of primary-input words.
    InputArity {
        /// Number of primary inputs the netlist declares.
        expected: usize,
        /// Number of input words supplied by the caller.
        got: usize,
    },
    /// An INIT literal could not be parsed as a 64-bit hex value.
    ParseInit {
        /// The rejected literal.
        literal: String,
    },
    /// A port name was declared twice on the same netlist.
    DuplicatePort {
        /// The duplicated name.
        name: String,
    },
    /// A bus is wider than the 64-bit word that carries its value in
    /// word-per-bus simulation ([`crate::Netlist::eval`], the compiled
    /// simulator's `load`/`eval` and operand sweeps, and `WideSim`).
    BusTooWide {
        /// `true` for an output bus, `false` for an input bus.
        output: bool,
        /// Index of the bus among the netlist's input or output buses.
        bus: usize,
        /// The bus width in bits.
        width: usize,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UndrivenNet { net, netlist } => {
                write!(f, "net {net} in netlist `{netlist}` has no driver")
            }
            FabricError::MultipleDrivers { net } => {
                write!(f, "net {net} is driven by more than one source")
            }
            FabricError::CombinationalCycle { net } => {
                write!(f, "combinational cycle through net {net}")
            }
            FabricError::InputArity { expected, got } => {
                write!(f, "expected {expected} primary-input values, got {got}")
            }
            FabricError::ParseInit { literal } => {
                write!(f, "invalid INIT literal `{literal}`")
            }
            FabricError::DuplicatePort { name } => {
                write!(f, "duplicate port name `{name}`")
            }
            FabricError::BusTooWide { output, bus, width } => {
                let dir = if *output { "output" } else { "input" };
                write!(
                    f,
                    "{dir} bus {bus} is {width} bits wide; word-valued simulation carries at most 64"
                )
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Rejects the first bus whose width (in `widths`, by bus index) does
/// not fit the one `u64` word per bus that word-valued simulation
/// loads and returns.
pub(crate) fn check_word_buses(
    widths: impl IntoIterator<Item = usize>,
    output: bool,
) -> Result<(), FabricError> {
    match widths.into_iter().enumerate().find(|&(_, w)| w > 64) {
        Some((bus, width)) => Err(FabricError::BusTooWide { output, bus, width }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = FabricError::UndrivenNet {
            net: 7,
            netlist: "m".into(),
        };
        assert_eq!(e.to_string(), "net 7 in netlist `m` has no driver");
        let e = FabricError::InputArity {
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("expected 2"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FabricError>();
    }
}
