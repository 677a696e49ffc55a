//! Ablation: throughput of the example system as the fast-branch (I)
//! selection probability sweeps from 0 to 1, early vs lazy control.
//!
//! Every point is a Monte-Carlo campaign run by the sharded experiment
//! engine (`elastic_bench::exp`): the control layer is compiled to gates
//! once per configuration, `--trials` independent random schedules are
//! split into 64-lane shards and executed by a `--threads`-wide worker
//! pool on the bit-parallel `WideSimulator`. Variable-latency completions
//! follow the schedule convention (open-loop Bernoulli at rate `1/mean`,
//! see `Schedule::random`), so M1/M2 delays are geometric with the
//! configured means. The binary ends with a wide-vs-scalar speedup
//! measurement — the per-trial cost drops by well over an order of
//! magnitude.
//!
//! Usage: `sweep_ee_prob [--trials N] [--threads N] [--cycles N]
//! [--seed N] [--json PATH] [--queue N]
//! [--backend {auto,scalar,wide,wide1,wide2,wide4,wide8}]` (backend
//! defaults to runtime width dispatch over the streaming pipeline).

use elastic_bench::exp::{
    ee_prob_experiment, run_experiment, CampaignReport, CliOpts, Experiment, SystemSpec, EE_CONFIGS,
};
use elastic_bench::measure_speedup;
use elastic_core::systems::{paper_example, Config};
use elastic_netlist::wide::LANES;

fn main() {
    let opts = CliOpts::parse(LANES, 2000);
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
            let res = run_experiment(&exp, &opts.engine()).expect("campaign point");
            cells[k] = (res.stats.mean(), res.stats.ci95());
            report.points.push(res);
        }
        println!(
            "{p_i:>6.1} {:>9.3} {:>8.3} {:>9.3} {:>8.3}",
            cells[0].0, cells[0].1, cells[1].0, cells[1].1
        );
    }

    // Speedup of the bit-parallel backend over the scalar gate-level
    // interpreter, one worker each, on one 64-trial word of the active
    // configuration.
    let config = Config::ActiveAntiTokens;
    let speed = measure_speedup(&Experiment {
        label: "speedup".into(),
        system: SystemSpec::Paper(config),
        env: paper_example(config).expect("builds").env_config,
        cycles: opts.cycles,
        trials: LANES,
        seed: 13,
    })
    .expect("speedup point");
    assert!(speed.rates_match, "wide and scalar paths diverged");
    println!(
        "\nwide backend: {} trials x {} cycles in {:.3}s; scalar backend {:.3}s \
         -> {:.1}x per-trial speedup (rates bit-identical)",
        speed.lanes,
        speed.cycles,
        speed.wide_secs,
        speed.scalar_secs,
        speed.speedup()
    );
    if let Some(path) = &opts.json {
        report.write_json(path).expect("write json");
        println!("wrote {path}");
    }
}
