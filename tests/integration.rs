//! Cross-crate integration tests: pipelines that exercise several
//! workspace crates together through the facade.

use approx_multipliers::apps::jpeg::{decode_gray, encode_gray};
use approx_multipliers::apps::reed_solomon::RsEncoder;
use approx_multipliers::core::behavioral::{Ca, Cc, Summation};
use approx_multipliers::core::structural::compose_netlist;
use approx_multipliers::core::{Exact, Multiplier};
use approx_multipliers::fabric::area::AreaReport;
use approx_multipliers::fabric::compile::{CompiledNetlist, CompiledSim};
use approx_multipliers::fabric::cost::Characterizer;
use approx_multipliers::fabric::timing::{analyze, DelayModel};
use approx_multipliers::metrics::{ErrorPmf, ErrorStats};
use approx_multipliers::susan::{
    operand_histogram, susan_smooth, synthetic_test_image, Image, Recording, SusanParams,
};

/// Image → SUSAN (traced) → operand histogram → error stats over the
/// real application trace: the full Fig. 12 / §5 analysis loop.
#[test]
fn trace_driven_error_analysis() {
    let img = synthetic_test_image(48, 48, 5);
    let rec = Recording::new(Exact::new(8, 8));
    let _ = susan_smooth(&img, &SusanParams::default(), &rec);
    let trace = rec.into_trace();
    assert!(!trace.is_empty());

    // The histogram covers exactly the traced operations.
    let hist = operand_histogram(&trace, 16);
    let total: u64 = hist.iter().flatten().sum();
    assert_eq!(total as usize, trace.len());

    // Error statistics over the application trace differ from uniform:
    // the trace is weight-biased, which is the basis for swapping.
    let ca = Ca::new(8).expect("valid");
    let on_trace = ErrorStats::over_pairs(&ca, trace.iter().copied());
    let uniform = ErrorStats::exhaustive(&ca);
    assert!(on_trace.samples > 0);
    assert!(
        (on_trace.error_probability - uniform.error_probability).abs() > 1e-4,
        "application trace should not look uniform"
    );
}

/// Netlist-level pipeline: compose a multiplier, simulate it wide,
/// time it, and measure energy — every fabric service on one design.
#[test]
fn fabric_services_compose() {
    let kernel = approx_multipliers::core::structural::approx_4x4_netlist();
    let nl = compose_netlist(&kernel, 8, Summation::Accurate).expect("valid");
    let area = AreaReport::of(&nl);
    assert_eq!(area.luts, 57);

    let prog = CompiledNetlist::compile(&nl);
    let mut sim: CompiledSim<'_, 1> = prog.simulator();
    let a: Vec<u64> = (0..64).collect();
    let b: Vec<u64> = (0..64).map(|i| 255 - i).collect();
    let out = sim.eval(&[&a, &b]).expect("simulates");
    let ca = Ca::new(8).expect("valid");
    for i in 0..64 {
        assert_eq!(
            out[0][i as usize],
            ca.multiply(a[i as usize], b[i as usize])
        );
    }

    let t = analyze(&nl, &DelayModel::virtex7());
    assert!(t.critical_path_ns > 0.0);
    let cost = Characterizer::virtex7()
        .characterize(&nl)
        .expect("measures");
    assert_eq!(cost.area, area);
    assert_eq!(cost.critical_path_ns, t.critical_path_ns);
    assert!(cost.edp > 0.0);
}

/// JPEG + RS together: compress an image, protect the bitstream,
/// verify, corrupt, detect — the two Table 1 applications chained.
#[test]
fn jpeg_then_reed_solomon() {
    let img = synthetic_test_image(64, 48, 9);
    let enc = encode_gray(img.width(), img.height(), img.pixels(), 75).expect("encodes");
    let dec = decode_gray(&enc).expect("decodes");
    let decoded = Image::from_fn(img.width(), img.height(), |x, y| dec[y * img.width() + x]);
    assert!(img.psnr(&decoded) > 28.0, "JPEG q75 fidelity");

    let rs = RsEncoder::rs_255_239();
    for chunk in enc.bytes.chunks(239) {
        let mut msg = chunk.to_vec();
        msg.resize(239, 0);
        let mut cw = rs.encode(&msg);
        assert!(rs.syndromes_zero(&cw));
        cw[17] ^= 0x40;
        assert!(!rs.syndromes_zero(&cw), "corruption detected");
    }
}

/// The metrics crate agrees with itself: PMF mass, stats, and the
/// multiplier's own error method are mutually consistent on Cc.
#[test]
fn metrics_are_self_consistent() {
    let cc = Cc::new(8).expect("valid");
    let stats = ErrorStats::exhaustive(&cc);
    let pmf = ErrorPmf::exhaustive(&cc);
    let pmf_occurrences: u64 = pmf.iter().map(|(_, c)| c).sum();
    assert_eq!(pmf_occurrences, stats.error_occurrences);
    let pmf_mass: f64 = pmf
        .iter()
        .map(|(e, c)| e.unsigned_abs() as f64 * c as f64)
        .sum();
    assert!((pmf_mass / 65536.0 - stats.avg_error).abs() < 1e-9);
    // Spot-check against the trait's own error accessor.
    let manual: i64 = (0..256u64)
        .flat_map(|a| (0..256u64).map(move |b| (a, b)))
        .map(|(a, b)| cc.error(a, b).abs())
        .sum();
    assert!((manual as f64 / 65536.0 - stats.avg_error).abs() < 1e-9);
}

/// Smoothing with a netlist-backed multiplier: wrap the structural Ca
/// in the `Multiplier` trait and push an image through it — proving
/// the gate-level model is usable as an application component.
#[test]
fn application_on_gate_level_multiplier() {
    struct NetlistMul(approx_multipliers::fabric::Netlist);
    impl Multiplier for NetlistMul {
        fn a_bits(&self) -> u32 {
            8
        }
        fn b_bits(&self) -> u32 {
            8
        }
        fn multiply(&self, a: u64, b: u64) -> u64 {
            self.0.eval(&[a & 0xFF, b & 0xFF]).expect("simulates")[0]
        }
        fn name(&self) -> &str {
            "Ca 8x8 (netlist)"
        }
    }
    let gate_level =
        NetlistMul(approx_multipliers::core::structural::ca_netlist(8).expect("valid"));
    let img = synthetic_test_image(24, 24, 3);
    let params = SusanParams::default();
    let behavioral = susan_smooth(&img, &params, &Ca::new(8).expect("valid"));
    let structural = susan_smooth(&img, &params, &gate_level);
    assert_eq!(behavioral, structural, "bit-identical through the gates");
}
