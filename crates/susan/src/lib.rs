//! # axmul-susan
//!
//! The paper's application case study: an image-smoothing accelerator
//! for the SUSAN algorithm (Smith & Brady) with **pluggable 8×8
//! multipliers**, used to produce Table 6 (PSNR per multiplier,
//! including the swapped-operand variants), Fig. 11 (output quality)
//! and Fig. 12 (the operand histogram that motivates operand swapping).
//!
//! * [`Image`] — 8-bit grayscale images with PGM I/O and
//!   [`Image::psnr`].
//! * [`synthetic_test_image`] — a deterministic stand-in for the
//!   paper's test photograph (gradients + edges + texture + noise),
//!   since no image assets ship with this repository.
//! * [`SusanParams`] / [`susan_smooth`] — the integer SUSAN smoothing
//!   datapath; every product in the inner loop goes through the
//!   supplied [`Multiplier`](axmul_core::Multiplier).
//! * [`Recording`] — a multiplier adapter that captures the operand
//!   trace (Fig. 12).
//! * [`accelerator_area`] — the datapath area model behind the paper's
//!   "17 % / 17.2 % area gain" claim.
//!
//! ```
//! use axmul_core::behavioral::Ca;
//! use axmul_core::Exact;
//! use axmul_susan::{susan_smooth, synthetic_test_image, SusanParams};
//!
//! let img = synthetic_test_image(64, 64, 1);
//! let p = SusanParams::default();
//! let golden = susan_smooth(&img, &p, &Exact::new(8, 8));
//! let approx = susan_smooth(&img, &p, &Ca::new(8)?);
//! assert!(golden.psnr(&approx) > 25.0);
//! # Ok::<(), axmul_core::WidthError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel;
mod filter;
mod image;
mod kernels;
mod trace;

pub use accel::{accelerator_area, AcceleratorArea};
pub use filter::{susan_smooth, SusanParams};
pub use image::{synthetic_test_image, Image, ParseImageError};
pub use kernels::{gaussian_blur, sobel_magnitude};
pub use trace::{operand_histogram, Recording};
