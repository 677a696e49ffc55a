//! Regenerates **Table 1** of the paper: throughput, per-channel transfer
//! statistics and control-layer area for the five configurations of the
//! Fig. 9 example.
//!
//! Two layers of results:
//!
//! 1. the paper's single 10k-cycle behavioural simulation per row
//!    (per-channel `+ - x` rates and optimized area), and
//! 2. a sharded multi-threaded Monte-Carlo `Th` estimate per row from the
//!    experiment engine — `--trials` independent gate-level schedules with
//!    a 95% confidence interval, which is what single-run numbers lack.
//!
//! Usage: `table1 [cycles] [--trials N] [--threads N] [--cycles N]
//! [--seed N] [--json PATH] [--queue N]
//! [--backend {auto,scalar,wide,wide1,wide2,wide4,wide8}]`

use elastic_bench::exp::{run_experiment, CampaignReport, CliOpts, Experiment, SystemSpec};
use elastic_core::systems::{paper_example, Config};
use elastic_netlist::wide::LANES;

fn main() {
    // A positional horizon must parse; silently running the 10k default
    // after a typo would print a table for a simulation that never ran.
    let cycles: usize = match std::env::args().nth(1) {
        Some(raw) if !raw.starts_with("--") => raw.parse().unwrap_or_else(|_| {
            eprintln!("error: invalid cycle count {raw:?}");
            std::process::exit(2);
        }),
        _ => 10_000,
    };
    // The positional horizon also seeds the Monte-Carlo default, so both
    // halves of the output share one horizon unless --cycles overrides it.
    let opts = CliOpts::parse(LANES, cycles);
    let rows = elastic_bench::run_table1(cycles as u64, 2007);
    println!("Table 1 — {cycles}-cycle simulations, seed 2007\n");
    println!("{}", elastic_bench::format_table1(&rows));

    // Monte-Carlo Th per configuration: the sharded campaign quantifies the
    // spread the paper's single runs cannot.
    let mut report = CampaignReport {
        name: "table1".into(),
        ..Default::default()
    };
    println!(
        "Monte-Carlo Th ({} trials x {} cycles, {} threads):",
        opts.trials, opts.cycles, opts.threads
    );
    for config in Config::all() {
        let sys = paper_example(config).expect("builds");
        let exp = Experiment {
            label: config.label().to_string(),
            system: SystemSpec::Paper(config),
            env: sys.env_config,
            cycles: opts.cycles,
            trials: opts.trials,
            seed: opts.seed.wrapping_add(2007),
        };
        let res = run_experiment(&exp, &opts.engine()).expect("campaign point");
        println!("  {:<22} {}", res.label, res.summary());
        report.points.push(res);
    }
    if let Some(path) = &opts.json {
        report.write_json(path).expect("write json");
        println!("wrote {path}");
    }
}
