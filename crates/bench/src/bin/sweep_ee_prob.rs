//! Ablation: throughput of the example system as the fast-branch (I)
//! selection probability sweeps from 0 to 1, early vs lazy control.
//!
//! Every point is a Monte-Carlo campaign run by the sharded experiment
//! engine (`elastic_bench::exp`): the control layer is compiled to gates
//! once per configuration (only the environment varies along the sweep,
//! so every point of a configuration runs on its prepared harness),
//! `--trials` independent random schedules are split into 64-lane shards
//! and executed by a `--threads`-wide worker pool on the bit-parallel
//! `WideSimulator`. Variable-latency completions
//! follow the schedule convention (open-loop Bernoulli at rate `1/mean`,
//! see `Schedule::random`), so M1/M2 delays are geometric with the
//! configured means.
//!
//! Usage: `sweep_ee_prob [--trials N] [--threads N] [--cycles N]
//! [--seed N] [--json PATH] [--queue N]
//! [--backend {auto,scalar,wide,wide1,wide2,wide4,wide8}]` (backend
//! defaults to runtime width dispatch over the streaming pipeline).

use elastic_bench::exp::{ee_prob_experiment, run_prepared, CampaignReport, CliOpts, EE_CONFIGS};
use elastic_bench::WideHarness;
use elastic_core::systems::paper_example;
use elastic_netlist::wide::LANES;

fn main() {
    let opts = CliOpts::parse(LANES, 2000);
    let prepared = EE_CONFIGS.map(|(config, _)| {
        let sys = paper_example(config).expect("builds");
        let harness = WideHarness::try_new(&sys.network, sys.output_channel).expect("compiles");
        (sys.network, harness)
    });
    let mut report = CampaignReport {
        name: "sweep_ee_prob".into(),
        ..Default::default()
    };
    println!(
        "{:>6} {:>9} {:>8} {:>9} {:>8}   ({} trials x {} cycles per point, {} threads)",
        "p(I)", "early", "+/-ci95", "lazy", "+/-ci95", opts.trials, opts.cycles, opts.threads
    );
    for step in 0..=10 {
        let p_i = f64::from(step) / 10.0;
        let mut cells = [(0.0f64, 0.0f64); 2];
        for (k, (config, tag)) in EE_CONFIGS.into_iter().enumerate() {
            let exp = ee_prob_experiment(p_i, config, tag, opts.cycles, opts.trials, opts.seed)
                .expect("builds");
            let (network, harness) = &prepared[k];
            let res = run_prepared(harness, network, &exp, &opts.engine()).expect("campaign point");
            cells[k] = (res.stats.mean(), res.stats.ci95());
            report.points.push(res);
        }
        println!(
            "{p_i:>6.1} {:>9.3} {:>8.3} {:>9.3} {:>8.3}",
            cells[0].0, cells[0].1, cells[1].0, cells[1].1
        );
    }

    opts.json.write(&report.to_json());
}
