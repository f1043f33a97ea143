use std::fmt;

use axmul_fabric::FabricError;

/// Errors surfaced by the inference engine.
///
/// Every malformed model or input is reported as a typed error — layer
/// shape validation happens up front in [`crate::Model::new`], so
/// the MAC inner loops never panic on fixture mistakes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// A layer's parameter buffer disagrees with its declared shape,
    /// or consecutive layers disagree on the activation shape.
    ShapeMismatch {
        /// Which layer (index and kind) failed validation.
        layer: String,
        /// The element count the declared shape requires.
        expected: usize,
        /// The element count actually present.
        got: usize,
    },
    /// An input image does not match the model's declared input size.
    BadInput {
        /// `c * h * w` of the model input.
        expected: usize,
        /// Length of the offending image.
        got: usize,
    },
    /// A multiplier with unsupported operand widths was offered as a
    /// MAC backend (the int8 datapath needs an 8×8 core).
    Width {
        /// First-operand width of the rejected multiplier.
        a_bits: u32,
        /// Second-operand width of the rejected multiplier.
        b_bits: u32,
    },
    /// The model has no layers, or its last layer is not a logits-
    /// producing [`crate::Dense`] (one with `requant: None`).
    NoLogits,
    /// Netlist simulation or characterization failed underneath.
    Fabric(FabricError),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch {
                layer,
                expected,
                got,
            } => write!(
                f,
                "shape mismatch in {layer}: expected {expected} elements, got {got}"
            ),
            NnError::BadInput { expected, got } => {
                write!(f, "input image has {got} pixels, model expects {expected}")
            }
            NnError::Width { a_bits, b_bits } => write!(
                f,
                "MAC backend needs an 8x8 multiplier, got {a_bits}x{b_bits}"
            ),
            NnError::NoLogits => write!(
                f,
                "model must end in a Dense layer with requant: None (raw i32 logits)"
            ),
            NnError::Fabric(e) => write!(f, "fabric error: {e}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Fabric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FabricError> for NnError {
    fn from(e: FabricError) -> Self {
        NnError::Fabric(e)
    }
}
