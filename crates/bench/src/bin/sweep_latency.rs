//! Ablation: throughput vs the slow-path latency of M1 (mean latency
//! sweep), early vs lazy — early evaluation decouples the system from the
//! slow unit, the lazy join tracks 1/latency.
//!
//! Each point is a sharded multi-threaded Monte-Carlo campaign
//! (`elastic_bench::exp`, `--trials` schedules in 64-lane words on the
//! bit-parallel backend). Pre-generated schedules model variable-latency
//! completions as an open-loop Bernoulli stream with rate `1/mean` (see
//! `Schedule::random`), so the configured value is the *mean* completion
//! time (geometric latency), not an exact per-token latency — the
//! decoupling-vs-1/latency contrast is unchanged.
//!
//! Usage: `sweep_latency [--trials N] [--threads N] [--cycles N]
//! [--seed N] [--json PATH] [--queue N]
//! [--backend {auto,scalar,wide,wide1,wide2,wide4,wide8}]` (backend
//! defaults to runtime width dispatch over the streaming pipeline).

use elastic_bench::exp::{run_experiment, CampaignReport, CliOpts, Experiment, SystemSpec};
use elastic_core::sim::LatencyDist;
use elastic_core::systems::{paper_example, Config};
use elastic_netlist::wide::LANES;

fn main() {
    let opts = CliOpts::parse(LANES, 2000);
    let mut report = CampaignReport {
        name: "sweep_latency".into(),
        ..Default::default()
    };
    println!(
        "{:>9} {:>9} {:>8} {:>9} {:>8}   ({} trials x {} cycles per point, {} threads)",
        "M1 mean*", "early", "+/-ci95", "lazy", "+/-ci95", opts.trials, opts.cycles, opts.threads
    );
    for lat in [1u32, 2, 4, 8, 16] {
        let mut cells = [(0.0f64, 0.0f64); 2];
        for (k, (config, tag)) in [
            (Config::ActiveAntiTokens, "early"),
            (Config::NoEarlyEval, "lazy"),
        ]
        .into_iter()
        .enumerate()
        {
            let sys = paper_example(config).expect("builds");
            let mut env = sys.env_config.clone();
            env.vls.insert("M1".into(), LatencyDist::fixed(lat));
            let exp = Experiment {
                label: format!("m1={lat}/{tag}"),
                system: SystemSpec::Paper(config),
                env,
                cycles: opts.cycles,
                trials: opts.trials,
                seed: opts.seed.wrapping_add(16),
            };
            let res = run_experiment(&exp, &opts.engine()).expect("campaign point");
            cells[k] = (res.stats.mean(), res.stats.ci95());
            report.points.push(res);
        }
        println!(
            "{lat:>9} {:>9.3} {:>8.3} {:>9.3} {:>8.3}",
            cells[0].0, cells[0].1, cells[1].0, cells[1].1
        );
    }
    println!("\n* mean of the geometric completion stream (Bernoulli at 1/mean);");
    println!("  schedules are open-loop, so exact fixed latencies are not expressible.");
    if let Some(path) = &opts.json {
        report.write_json(path).expect("write json");
        println!("wrote {path}");
    }
}
