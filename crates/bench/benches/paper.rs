//! Criterion benches, one group per paper artifact: each group runs
//! the computation that regenerates that table or figure, so
//! `cargo bench` both re-measures the library's performance and
//! re-derives every experimental result.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use axmul_baselines::{Kulkarni, RehmanW};
use axmul_bench::roster::{characterize, fig7_roster, table5_roster};
use axmul_core::behavioral::{approx_4x4, Ca, Cc};
use axmul_core::structural::{approx_4x4_netlist, ca_netlist, verify_table3};
use axmul_core::{Exact, Multiplier};
use axmul_fabric::compile::CompiledNetlist;
use axmul_fabric::sim::for_each_operand_pair;
use axmul_fabric::timing::{analyze, DelayModel};
use axmul_metrics::{bit_accuracy, pareto_front, DesignPoint, ErrorPmf, ErrorStats};
use axmul_susan::{operand_histogram, susan_smooth, synthetic_test_image, Recording, SusanParams};

fn bench_table2_elementary(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_elementary_4x4");
    g.bench_function("behavioral_exhaustive_256", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for a in 0..16u64 {
                for bb in 0..16u64 {
                    acc = acc.wrapping_add(approx_4x4(black_box(a), black_box(bb)));
                }
            }
            acc
        })
    });
    g.finish();
}

fn bench_table3_netlist(c: &mut Criterion) {
    let mut g = c.benchmark_group("table3_init_verification");
    g.bench_function("verify_published_inits", |b| b.iter(verify_table3));
    let nl = approx_4x4_netlist();
    g.bench_function("netlist_exhaustive_sim_256", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for_each_operand_pair(&nl, |_, _, out| acc ^= out[0]).expect("simulates");
            acc
        })
    });
    g.finish();
}

fn bench_table4_structural(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4_build_and_sta");
    let model = DelayModel::virtex7();
    for bits in [4u32, 8, 16] {
        g.bench_function(format!("ca_{bits}x{bits}"), |b| {
            b.iter(|| {
                let nl = ca_netlist(black_box(bits)).expect("valid");
                analyze(&nl, &model).critical_path_ns
            })
        });
    }
    g.finish();
}

fn bench_table5_error_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("table5_exhaustive_stats");
    g.sample_size(10);
    for m in table5_roster() {
        g.bench_function(m.name().replace(' ', "_"), |b| {
            b.iter(|| ErrorStats::exhaustive(&m))
        });
    }
    g.finish();
}

fn bench_fig7_characterization(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_characterize_8x8");
    g.sample_size(10);
    let roster = fig7_roster(8);
    for entry in &roster {
        g.bench_function(entry.name.replace(' ', "_"), |b| {
            b.iter(|| characterize(&entry.name, &entry.netlist))
        });
    }
    g.finish();
}

fn bench_fig8_profiles(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_bit_profiles");
    g.sample_size(10);
    let ca = Ca::new(8).expect("valid");
    g.bench_function("bit_accuracy_ca8", |b| b.iter(|| bit_accuracy(&ca)));
    g.bench_function("error_pmf_ca8", |b| b.iter(|| ErrorPmf::exhaustive(&ca)));
    g.finish();
}

fn bench_fig9_pareto(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_pareto_front");
    // Front extraction over a synthetic 1000-point cloud.
    let points: Vec<DesignPoint> = (0..1000)
        .map(|i| {
            let x = f64::from(i);
            DesignPoint::new(format!("p{i}"), (x * 7.3) % 13.0, (x * 3.1) % 11.0)
        })
        .collect();
    g.bench_function("front_1000_points", |b| b.iter(|| pareto_front(&points)));
    g.finish();
}

fn bench_table6_susan(c: &mut Criterion) {
    let mut g = c.benchmark_group("table6_susan_smoothing");
    g.sample_size(10);
    let img = synthetic_test_image(64, 64, 11);
    let params = SusanParams::default();
    for m in [
        Box::new(Exact::new(8, 8)) as Box<dyn Multiplier>,
        Box::new(Ca::new(8).expect("valid")),
        Box::new(Cc::new(8).expect("valid")),
        Box::new(Kulkarni::new(8).expect("valid")),
        Box::new(RehmanW::new(8).expect("valid")),
    ] {
        g.bench_function(
            format!("smooth_64x64_{}", m.name().replace(' ', "_")),
            |b| b.iter(|| susan_smooth(&img, &params, &m)),
        );
    }
    g.finish();
}

fn bench_fig12_trace(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_operand_histogram");
    g.sample_size(10);
    let img = synthetic_test_image(48, 48, 9);
    let params = SusanParams::default();
    g.bench_function("trace_and_bin", |b| {
        b.iter(|| {
            let rec = Recording::new(Exact::new(8, 8));
            let _ = susan_smooth(&img, &params, &rec);
            operand_histogram(&rec.into_trace(), 16)
        })
    });
    g.finish();
}

fn bench_table1_apps(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_applications");
    let enc = axmul_apps::reed_solomon::RsEncoder::rs_255_239();
    let msg: Vec<u8> = (0..239).map(|i| i as u8).collect();
    g.bench_function("rs_encode_255_239", |b| b.iter(|| enc.encode(&msg)));
    let pixels: Vec<u8> = (0..64 * 64).map(|i| (i % 251) as u8).collect();
    g.bench_function("jpeg_encode_64x64_q75", |b| {
        b.iter(|| axmul_apps::jpeg::encode_gray(64, 64, &pixels, 75).expect("valid input"))
    });
    g.finish();
}

fn bench_multiplier_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("multiplier_throughput");
    let designs: Vec<Box<dyn Multiplier>> = vec![
        Box::new(Exact::new(8, 8)),
        Box::new(Ca::new(8).expect("valid")),
        Box::new(Cc::new(8).expect("valid")),
        Box::new(Kulkarni::new(8).expect("valid")),
        Box::new(RehmanW::new(8).expect("valid")),
        Box::new(Ca::new(16).expect("valid")),
    ];
    for m in designs {
        g.bench_function(format!("mul_{}", m.name().replace(' ', "_")), |b| {
            let mut x = 17u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                m.multiply(black_box(x & 0xFFFF), black_box(x >> 16 & 0xFFFF))
            })
        });
    }
    g.finish();
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    // Exhaustive 65 536-pair sweep per architecture: pairs/sec of the
    // compiled bit-sliced path (compile included, as in exhaustive_wide).
    for entry in fig7_roster(8) {
        g.bench_function(
            format!("exhaustive_sweep_{}", entry.name.replace(' ', "_")),
            |b| {
                b.iter(|| {
                    let prog = CompiledNetlist::compile(&entry.netlist);
                    let mut acc = 0u64;
                    prog.for_each_operand_pair_in(0..1 << 16, |_, _, out| {
                        acc = acc.wrapping_add(out[0]);
                    })
                    .expect("two-bus netlist");
                    acc
                })
            },
        );
    }
    // The full characterization record (stats accumulation included).
    let nl = ca_netlist(8).expect("valid");
    g.bench_function("error_stats_exhaustive_wide_ca8", |b| {
        b.iter(|| ErrorStats::exhaustive_wide(black_box(&nl)).expect("two-bus netlist"))
    });
    g.finish();
}

fn bench_dse(c: &mut Criterion) {
    let mut g = c.benchmark_group("design_space_exploration");
    g.sample_size(10);
    // End-to-end subset exploration: characterization cache, worker
    // pool and Pareto annotation included.
    g.bench_function("homogeneous_subset_10_configs", |b| {
        b.iter(axmul_bench::experiments::dse_subset)
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table2_elementary,
    bench_table3_netlist,
    bench_table4_structural,
    bench_table5_error_analysis,
    bench_fig7_characterization,
    bench_fig8_profiles,
    bench_fig9_pareto,
    bench_table6_susan,
    bench_fig12_trace,
    bench_table1_apps,
    bench_multiplier_throughput,
    bench_sim_throughput,
    bench_dse
);
criterion_main!(benches);
