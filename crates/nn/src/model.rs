//! The shape-validated layer stack.

use crate::error::NnError;
use crate::layers::{avg_pool, relu, Layer, Shape};
use crate::table::MacBackend;

/// An int8 feed-forward network: an input shape and a layer stack
/// ending in a logits-producing [`Dense`](crate::Dense) (one with `requant: None`).
///
/// Construct with [`Model::new`], which validates every parameter
/// buffer against its declared shape and the activation shapes across
/// the whole chain — a mismatched fixture is a typed [`NnError`], never
/// a panic in the MAC loops.
#[derive(Debug, Clone)]
pub struct Model {
    input: Shape,
    layers: Vec<Layer>,
}

impl Model {
    /// Builds and validates a model.
    ///
    /// # Errors
    ///
    /// * [`NnError::ShapeMismatch`] — a weight/bias buffer disagrees
    ///   with its layer's declared dimensions, or a layer cannot accept
    ///   its predecessor's output shape.
    /// * [`NnError::NoLogits`] — empty stack, last layer not a `Dense`
    ///   with `requant: None`, or a logits head in the middle.
    pub fn new(input: Shape, layers: Vec<Layer>) -> Result<Self, NnError> {
        let model = Model { input, layers };
        model.validate()?;
        Ok(model)
    }

    /// Input activation shape.
    #[must_use]
    pub fn input(&self) -> Shape {
        self.input
    }

    /// The layer stack.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of classes (outputs of the final dense head).
    #[must_use]
    pub fn classes(&self) -> usize {
        match self.layers.last() {
            Some(Layer::Dense(d)) => d.out_f,
            _ => 0,
        }
    }

    /// Total int8 multiplies per inference — the budget every MAC
    /// backend pays per sample.
    #[must_use]
    pub fn macs_per_inference(&self) -> usize {
        let mut shape = self.input;
        let mut macs = 0usize;
        for layer in &self.layers {
            match layer {
                Layer::Conv2d(c) => {
                    let out = c.out_shape(shape);
                    macs += c.out_c * c.in_c * c.k * c.k * out.h * out.w;
                    shape = out;
                }
                Layer::Dense(d) => {
                    macs += d.in_f * d.out_f;
                    shape = Shape {
                        c: d.out_f,
                        h: 1,
                        w: 1,
                    };
                }
                Layer::Relu => {}
                Layer::AvgPool2d { k } => {
                    shape = Shape {
                        c: shape.c,
                        h: shape.h / k,
                        w: shape.w / k,
                    };
                }
            }
        }
        macs
    }

    fn validate(&self) -> Result<(), NnError> {
        let mismatch = |layer: String, expected: usize, got: usize| NnError::ShapeMismatch {
            layer,
            expected,
            got,
        };
        if self.layers.is_empty() {
            return Err(NnError::NoLogits);
        }
        let mut shape = self.input;
        for (i, layer) in self.layers.iter().enumerate() {
            let head_allowed = i + 1 == self.layers.len();
            match layer {
                Layer::Conv2d(c) => {
                    let want = c.out_c * c.in_c * c.k * c.k;
                    if c.weights.len() != want {
                        return Err(mismatch(
                            format!("layer {i} (Conv2d weights)"),
                            want,
                            c.weights.len(),
                        ));
                    }
                    if c.bias.len() != c.out_c {
                        return Err(mismatch(
                            format!("layer {i} (Conv2d bias)"),
                            c.out_c,
                            c.bias.len(),
                        ));
                    }
                    if c.in_c != shape.c || c.k == 0 || c.k > shape.h || c.k > shape.w {
                        return Err(mismatch(
                            format!("layer {i} (Conv2d input)"),
                            shape.len(),
                            c.in_c * shape.h * shape.w,
                        ));
                    }
                    shape = c.out_shape(shape);
                }
                Layer::Dense(d) => {
                    if d.weights.len() != d.in_f * d.out_f {
                        return Err(mismatch(
                            format!("layer {i} (Dense weights)"),
                            d.in_f * d.out_f,
                            d.weights.len(),
                        ));
                    }
                    if d.bias.len() != d.out_f {
                        return Err(mismatch(
                            format!("layer {i} (Dense bias)"),
                            d.out_f,
                            d.bias.len(),
                        ));
                    }
                    if d.in_f != shape.len() {
                        return Err(mismatch(
                            format!("layer {i} (Dense input)"),
                            shape.len(),
                            d.in_f,
                        ));
                    }
                    if d.requant.is_none() && !head_allowed {
                        return Err(NnError::NoLogits);
                    }
                    shape = Shape {
                        c: d.out_f,
                        h: 1,
                        w: 1,
                    };
                }
                Layer::Relu => {}
                Layer::AvgPool2d { k } => {
                    if *k == 0 || !shape.h.is_multiple_of(*k) || !shape.w.is_multiple_of(*k) {
                        return Err(mismatch(
                            format!("layer {i} (AvgPool2d window)"),
                            shape.h,
                            *k,
                        ));
                    }
                    shape = Shape {
                        c: shape.c,
                        h: shape.h / k,
                        w: shape.w / k,
                    };
                }
            }
        }
        match self.layers.last() {
            Some(Layer::Dense(d)) if d.requant.is_none() => Ok(()),
            _ => Err(NnError::NoLogits),
        }
    }

    /// Runs one quantized image through the network, returning the raw
    /// `i32` logits of the final dense head.
    ///
    /// # Errors
    ///
    /// [`NnError::BadInput`] if `image.len() != input shape`.
    pub fn logits(&self, backend: &dyn MacBackend, image: &[i8]) -> Result<Vec<i32>, NnError> {
        if image.len() != self.input.len() {
            return Err(NnError::BadInput {
                expected: self.input.len(),
                got: image.len(),
            });
        }
        let mut act = image.to_vec();
        let mut shape = self.input;
        for (i, layer) in self.layers.iter().enumerate() {
            match layer {
                Layer::Conv2d(c) => {
                    act = c.forward(backend, &act, shape);
                    shape = c.out_shape(shape);
                }
                Layer::Dense(d) => {
                    let acc = d.accumulate(backend, &act);
                    match d.requant {
                        Some(r) => {
                            act = acc.iter().map(|&v| r.apply(v)).collect();
                            shape = Shape {
                                c: d.out_f,
                                h: 1,
                                w: 1,
                            };
                        }
                        None => {
                            debug_assert_eq!(i + 1, self.layers.len());
                            return Ok(acc);
                        }
                    }
                }
                Layer::Relu => relu(&mut act),
                Layer::AvgPool2d { k } => {
                    let (next, ns) = avg_pool(&act, shape, *k);
                    act = next;
                    shape = ns;
                }
            }
        }
        unreachable!("validate() guarantees a logits head")
    }

    /// Top-1 class of one quantized image (ties break to the lowest
    /// class index, so predictions are deterministic).
    ///
    /// # Errors
    ///
    /// Propagates [`Model::logits`] errors.
    pub fn predict(&self, backend: &dyn MacBackend, image: &[i8]) -> Result<usize, NnError> {
        let logits = self.logits(backend, image)?;
        Ok(argmax(&logits))
    }
}

/// Index of the maximum value; first occurrence wins.
#[must_use]
pub fn argmax(logits: &[i32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::quant::Requant;
    use crate::table::ProductTable;

    fn tiny_dense(weights: Vec<i8>) -> Result<Model, NnError> {
        Model::new(
            Shape { c: 1, h: 1, w: 2 },
            vec![Layer::Dense(Dense {
                in_f: 2,
                out_f: 2,
                weights,
                bias: vec![0, 0],
                requant: None,
            })],
        )
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[3, 7, 7, 1]), 1);
        assert_eq!(argmax(&[-1]), 0);
    }

    #[test]
    fn mismatched_weight_shape_is_a_typed_error() {
        let err = tiny_dense(vec![1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            NnError::ShapeMismatch {
                layer: "layer 0 (Dense weights)".into(),
                expected: 4,
                got: 3
            }
        );
    }

    #[test]
    fn logits_and_predict_run_exactly() {
        let m = tiny_dense(vec![1, 0, 0, 2]).unwrap();
        let exact = ProductTable::exact();
        assert_eq!(m.logits(&exact, &[5, 3]).unwrap(), vec![5, 6]);
        assert_eq!(m.predict(&exact, &[5, 3]).unwrap(), 1);
        assert_eq!(
            m.logits(&exact, &[1]).unwrap_err(),
            NnError::BadInput {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn mid_stack_logits_head_is_rejected() {
        let err = Model::new(
            Shape { c: 1, h: 1, w: 1 },
            vec![
                Layer::Dense(Dense {
                    in_f: 1,
                    out_f: 1,
                    weights: vec![1],
                    bias: vec![0],
                    requant: None,
                }),
                Layer::Relu,
            ],
        )
        .unwrap_err();
        assert_eq!(err, NnError::NoLogits);
    }

    #[test]
    fn head_requant_must_be_none() {
        let err = Model::new(
            Shape { c: 1, h: 1, w: 1 },
            vec![Layer::Dense(Dense {
                in_f: 1,
                out_f: 1,
                weights: vec![1],
                bias: vec![0],
                requant: Some(Requant::from_scale(0.5)),
            })],
        )
        .unwrap_err();
        assert_eq!(err, NnError::NoLogits);
    }
}
