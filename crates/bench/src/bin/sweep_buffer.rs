//! Ablation: depth of the opcode bypass buffer `C` on `S -> W`
//! (generalizing Table 1's "No buffer" row): 0 = row 2, 1 = row 1,
//! deeper buffers show diminishing returns.
//!
//! Each depth is rebuilt as a custom Fig. 9 topology and measured as a
//! sharded Monte-Carlo campaign (`SystemSpec::Custom` through the
//! experiment engine), replacing the old single-seed behavioural run with
//! a `--trials`-schedule gate-level estimate plus confidence interval.
//!
//! Usage: `sweep_buffer [--trials N] [--threads N] [--cycles N]
//! [--seed N] [--json PATH] [--queue N]
//! [--backend {auto,scalar,wide,wide1,wide2,wide4,wide8}]` (backend
//! defaults to runtime width dispatch over the streaming pipeline).

use elastic_bench::exp::{run_experiment, CampaignReport, CliOpts, Experiment, SystemSpec};
use elastic_core::systems::{paper_example, paper_example_with_c_depth, Config};
use elastic_netlist::wide::LANES;

fn main() {
    let opts = CliOpts::parse(LANES, 2000);
    let base = paper_example(Config::ActiveAntiTokens).expect("builds");
    let mut report = CampaignReport {
        name: "sweep_buffer".into(),
        ..Default::default()
    };
    println!(
        "{:>8} {:>11} {:>8}   ({} trials x {} cycles per point, {} threads)",
        "C depth", "throughput", "+/-ci95", opts.trials, opts.cycles, opts.threads
    );
    for depth in 0..=4usize {
        let sys = paper_example_with_c_depth(Config::ActiveAntiTokens, depth).expect("builds");
        let (network, output) = (sys.network, sys.output_channel);
        let exp = Experiment {
            label: format!("c_depth={depth}"),
            system: SystemSpec::Custom { network, output },
            env: base.env_config.clone(),
            cycles: opts.cycles,
            trials: opts.trials,
            seed: opts.seed.wrapping_add(19),
        };
        let res = run_experiment(&exp, &opts.engine()).expect("campaign point");
        println!(
            "{depth:>8} {:>11.3} {:>8.3}",
            res.stats.mean(),
            res.stats.ci95()
        );
        report.points.push(res);
    }
    println!("\ndepth 0 is Table 1 row 2 (no buffer); depth 1 is row 1;");
    println!("beyond depth 1 the bypass is no longer the bottleneck, and each");
    println!("extra stage only adds forward latency on the S->W path.");
    opts.json.write(&report.to_json());
}
