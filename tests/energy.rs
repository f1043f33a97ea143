//! Satellite bit-identity test for the packed wide-lane energy path:
//! for every structural netlist in the roster — the paper's designs,
//! the baseline families, adders — and a stride of the 1 250
//! enumerated recursive 8×8 configurations, the packed integer-toggle
//! measurement ([`measure_packed`]) produces an [`EnergyReport`] whose
//! `energy_per_op` and `edp` are **bit-identical** to the scalar
//! reference ([`measure_reference`]) for every worker count, and the
//! production `characterize` path agrees with both.

use approx_multipliers::adders::{carry_free_adder_netlist, exact_adder_netlist, loa_netlist};
use approx_multipliers::baselines::{
    array_mult_netlist, csa_tree_mult_netlist, kulkarni_netlist, pp_truncated_netlist,
    rehman_netlist, IpOpt, VivadoIp,
};
use approx_multipliers::core::structural::{ca_netlist, cc_netlist};
use approx_multipliers::dse::{CharCache, Config};
use approx_multipliers::fabric::compile::CompiledNetlist;
use approx_multipliers::fabric::cost::Characterizer;
use approx_multipliers::fabric::power::{
    measure, measure_packed, measure_reference, uniform_stimulus, PackedStimulus,
};
use approx_multipliers::fabric::timing::analyze;
use approx_multipliers::fabric::Netlist;

fn roster() -> Vec<Netlist> {
    vec![
        ca_netlist(4).unwrap(),
        ca_netlist(8).unwrap(),
        cc_netlist(4).unwrap(),
        cc_netlist(8).unwrap(),
        kulkarni_netlist(8).unwrap(),
        rehman_netlist(8).unwrap(),
        pp_truncated_netlist(8, 8, 3),
        array_mult_netlist(8, 8),
        csa_tree_mult_netlist(8, 8),
        VivadoIp::new(8, IpOpt::Area).netlist(),
        VivadoIp::new(8, IpOpt::Speed).netlist(),
        exact_adder_netlist(8),
        loa_netlist(8, 3),
        carry_free_adder_netlist(8),
    ]
}

/// Steps that straddle the 64-step lane word and the 256-step pass.
const LENGTHS: &[usize] = &[1, 65, 300];

fn assert_bit_identical(netlist: &Netlist) {
    let ch = Characterizer::virtex7();
    let prog = CompiledNetlist::compile(netlist);
    let critical_path_ns = analyze(netlist, &ch.delay).critical_path_ns;
    for &steps in LENGTHS {
        let stimulus = uniform_stimulus(netlist, steps, ch.stimulus_seed);
        let reference = measure_reference(netlist, &ch.energy, &ch.delay, &stimulus)
            .expect("reference measures");
        let one_shot =
            measure(netlist, &ch.energy, &ch.delay, &stimulus).expect("one-shot measures");
        assert_eq!(
            one_shot.energy_per_op.to_bits(),
            reference.energy_per_op.to_bits(),
            "{}: measure diverged at {} steps",
            netlist.name(),
            steps
        );
        let packed = PackedStimulus::uniform(netlist, steps, ch.stimulus_seed);
        for workers in [1usize, 2, 3] {
            let wide = measure_packed(
                netlist,
                &prog,
                &ch.energy,
                critical_path_ns,
                &packed,
                workers,
            )
            .expect("packed measure");
            assert_eq!(
                wide.energy_per_op.to_bits(),
                reference.energy_per_op.to_bits(),
                "{}: energy diverged at {} steps, {} workers",
                netlist.name(),
                steps,
                workers
            );
            assert_eq!(
                wide.edp.to_bits(),
                reference.edp.to_bits(),
                "{}: EDP diverged at {} steps, {} workers",
                netlist.name(),
                steps,
                workers
            );
        }
    }
}

#[test]
fn roster_energy_reports_are_bit_identical_to_reference() {
    for nl in roster() {
        assert_bit_identical(&nl);
    }
}

/// The production characterization (1024-step stimulus, hoisted STA)
/// reports the same energy/EDP bits as the scalar reference on the
/// full stimulus, for a stride of the DSE's enumerated quad netlists.
#[test]
fn dse_configs_characterize_bit_identical_to_reference() {
    let cache = CharCache::new(Characterizer::virtex7());
    let ch = Characterizer::virtex7();
    let configs = Config::enumerate(8);
    for cfg in configs.iter().step_by(97) {
        let block = cache.characterize(cfg).expect("config characterizes");
        let nl = &*block.netlist;
        let stimulus = uniform_stimulus(nl, ch.stimulus_len, ch.stimulus_seed);
        let reference =
            measure_reference(nl, &ch.energy, &ch.delay, &stimulus).expect("reference measures");
        assert_eq!(
            block.cost.energy_per_op.to_bits(),
            reference.energy_per_op.to_bits(),
            "{}: characterize energy diverged from scalar reference",
            cfg.key()
        );
        assert_eq!(
            block.cost.edp.to_bits(),
            reference.edp.to_bits(),
            "{}: characterize EDP diverged from scalar reference",
            cfg.key()
        );
    }
}
