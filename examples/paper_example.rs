//! The paper's example system (Fig. 9) in all five Table 1 configurations:
//! throughput, counterflow statistics and control-layer area.
//!
//! Run with `cargo run --example paper_example`.

use elastic_circuits::core::compile::{compile, CompileOptions};
use elastic_circuits::core::dmg_bridge::lazy_throughput_bound;
use elastic_circuits::core::sim::{BehavSim, RandomEnv};
use elastic_circuits::core::systems::{paper_example, Config};
use elastic_circuits::netlist::area::AreaReport;
use elastic_circuits::netlist::opt::optimize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for config in Config::all() {
        let sys = paper_example(config)?;
        let mut sim = BehavSim::new(&sys.network)?;
        let mut env = RandomEnv::new(7, sys.env_config.clone());
        sim.run(&mut env, 10_000)?;
        let th = sim.report().positive_rate(sys.output_channel);
        let compiled = compile(
            &sys.network,
            &CompileOptions {
                data_width: 2,
                ..CompileOptions::default()
            },
        )?;
        let (opt, _) = optimize(&compiled.netlist)?;
        println!(
            "{:<22} Th {th:.3}   control area: {}",
            config.label(),
            AreaReport::of(&opt)
        );
    }
    let sys = paper_example(Config::NoEarlyEval)?;
    let bound = lazy_throughput_bound(&sys.network, &sys.env_config)?;
    println!(
        "\nlazy marked-graph bound: {:.3} (critical cycle {:?})",
        bound.bound, bound.critical
    );
    println!("the active configuration beats it — that is early evaluation at work.");
    Ok(())
}
