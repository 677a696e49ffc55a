//! Regenerates **Fig. 8**: (a) controller netlists with feedback, model
//! checked for protocol conformance and liveness under fairness;
//! (b) producer/consumer data-correctness co-simulation with killing
//! consumers.

use elastic_core::sim::{EnvConfig, SinkCfg, SourceCfg};
use elastic_core::systems::linear_pipeline;
use elastic_core::verify::{check_network_properties, cosim_check_wide};
use elastic_mc::BridgeOptions;

fn main() {
    println!("Fig. 8(a) — exhaustive CTL checking of controller netlists\n");
    for (stages, tokens) in [(1usize, 0usize), (2, 1)] {
        let (net, _, _) = linear_pipeline(stages, tokens).expect("builds");
        let (results, states) =
            check_network_properties(&net, BridgeOptions::default()).expect("checks");
        let holding = results.iter().filter(|r| r.holds).count();
        println!("  {stages}-buffer pipeline ({tokens} tokens): {holding}/{} properties hold ({states} states)",
            results.len());
        assert_eq!(holding, results.len());
    }

    println!("\nFig. 8(b) — gate-level vs behavioural co-simulation under a");
    println!("nondeterministic killing environment (alternating-data producers):\n");
    let (net, _, _) = linear_pipeline(3, 1).expect("builds");
    let cfg = EnvConfig {
        default_source: SourceCfg {
            rate: 0.7,
            data: elastic_core::sim::DataGen::Alternate,
        },
        default_sink: SinkCfg {
            stop_prob: 0.3,
            kill_prob: 0.2,
        },
        ..Default::default()
    };
    // All eight schedules run simultaneously as lanes of the bit-parallel
    // backend, each cross-checked against its behavioural reference (and
    // lane 0 against the scalar gate-level interpreter).
    let lanes = 8;
    cosim_check_wide(&net, &cfg, 0, lanes, 1500, 1).expect("back-ends agree");
    println!(
        "  {lanes} schedules x 1500 cycles: every lane agrees with its behavioural \
         reference, lane 0 also with the scalar gate-level simulator"
    );
    println!("\nall checks passed");
}
