//! One function per paper artifact. Every function is pure (returns a
//! report string) so the `repro` binary, tests, and Criterion benches
//! can all drive the same code.

mod ablations;
mod absint;
mod dse;
mod extensions;
mod figures;
mod lint;
mod netio;
mod nn;
mod sat;
mod serve;
mod simbench;
mod tables;

pub use ablations::{ablate_4x2_trunc, ablate_cc_depth, ablate_elem, ablate_swap};
pub use absint::absint;
pub use dse::{dse_scaling, dse_subset, ext_dse, ext_dse_cached};
pub use extensions::{ablate_cfree_op, ext_adders, ext_correction, ext_signed};
pub use figures::{fig1, fig10, fig12, fig7, fig8, fig9};
pub use lint::{lint_all_reports, lint_roster};
pub use netio::netio;
pub use nn::nn;
pub use sat::sat;
pub use serve::{serve_bench, serve_smoke};
pub use simbench::sim_bench;
pub use tables::{susan_area, table1, table2, table3, table4, table5, table6};

/// Runs every experiment in paper order and concatenates the reports.
#[must_use]
pub fn all() -> String {
    [
        table1(),
        fig1(),
        table2(),
        table3(),
        table4(),
        table5(),
        fig7(),
        fig8(),
        fig9(),
        fig10(),
        table6(),
        fig12(),
        susan_area(),
        ablate_cc_depth(),
        ablate_4x2_trunc(),
        ablate_elem(),
        ablate_swap(),
        ablate_cfree_op(),
        ext_correction(),
        ext_adders(),
        ext_signed(),
        ext_dse().0,
        dse_scaling(),
        nn(false),
        lint_roster(),
        absint(false).0,
        netio(false).0,
        sat(false).0,
    ]
    .join("\n")
}
