//! Benchmark campaign over the real-design corpus — the binary behind
//! `BENCH_pr10.json`.
//!
//! Sweeps every corpus design (`elastic_core::corpus`) under all five
//! Table-1-style control configurations across an early-evaluation
//! probability × slow-latency knob grid, through the streaming Monte-Carlo
//! engine. For each (design, knob) cell the lazy configuration is the
//! baseline; every other configuration's mean throughput is reported as a
//! gain over it. On top of the sweep:
//!
//! 1. **Export round-trip** — every (design, configuration) network is
//!    compiled to gates and pushed through
//!    [`elastic_netlist::export::round_trip_check`]: all three renderers
//!    must be deterministic and the BLIF `.latch` count must equal the
//!    netlist's state-element count. Any failure exits non-zero.
//! 2. **Analytic cross-check** — each lazy point's measured mean must
//!    respect the marked-graph `min_cycle_ratio` bound where the
//!    abstraction applies; designs that are not strongly connected after
//!    abstraction (the feed-forward ones) are reported as skipped.
//! 3. **Gain gate** — at the most favourable knob cell (high cheap-branch
//!    probability, high slow latency) the active-anti-token configuration
//!    must beat lazy on every design, or the run exits non-zero.
//!
//! Usage: `corpus_campaign [--trials N] [--threads N] [--cycles N]
//! [--seed N] [--queue N] [--backend {auto,scalar,wide,wide1,wide2,wide4,
//! wide8}] [--json PATH]` (JSON defaults to `BENCH_pr10.json`).

use elastic_bench::exp::{
    json_f64, lazy_bound_check, run_prepared, CampaignReport, CliOpts, Experiment, SystemSpec,
};
use elastic_bench::WideHarness;
use elastic_core::compile::{compile, CompileOptions};
use elastic_core::corpus::{build, CorpusConfig, Knobs, DESIGNS};
use elastic_core::network::ElasticNetwork;
use elastic_netlist::export::round_trip_check;
use elastic_netlist::wide::LANES;

/// Cheap-branch probabilities swept per design cell.
const EE_PROBS: [f64; 2] = [0.3, 0.8];
/// Slow latencies of the variable-latency units swept per design cell.
const LATENCIES: [u32; 2] = [4, 12];

/// One configuration's throughput relative to the lazy baseline of the
/// same (design, knobs) cell.
struct Gain {
    design: &'static str,
    config: CorpusConfig,
    ee_prob: f64,
    latency: u32,
    mean: f64,
    lazy_mean: f64,
}

impl Gain {
    fn ratio(&self) -> f64 {
        if self.lazy_mean > 0.0 {
            self.mean / self.lazy_mean
        } else {
            f64::NAN
        }
    }
}

fn main() {
    let opts = CliOpts::parse(LANES, 2000);
    let engine = opts.engine();
    let json_path = opts
        .json
        .clone()
        .unwrap_or_else(|| "BENCH_pr10.json".into());
    let mut report = CampaignReport {
        name: format!(
            "pr10_corpus trials={} cycles={} threads={} queue={} backend={}",
            opts.trials,
            opts.cycles,
            opts.threads,
            opts.queue,
            opts.backend.label()
        ),
        ..Default::default()
    };
    println!(
        "corpus campaign: {} designs x 5 configs x {} knob cells, {} trials x {} cycles per point",
        DESIGNS.len(),
        EE_PROBS.len() * LATENCIES.len(),
        opts.trials,
        opts.cycles
    );

    // Compile each (design, configuration) once. The knobs only shape the
    // environment (guard distribution, latency draws), never the network,
    // so one harness serves every knob cell; the round-trip export check
    // rides along on the same gate-level compile.
    let configs = CorpusConfig::all();
    let mut prepared: Vec<(&'static str, CorpusConfig, ElasticNetwork, WideHarness)> = Vec::new();
    for design in DESIGNS {
        for config in configs {
            let sys = build(design, config, &Knobs::default()).expect("corpus design builds");
            let copts = CompileOptions {
                data_width: sys.data_width,
                ..CompileOptions::default()
            };
            let compiled = compile(&sys.network, &copts).unwrap_or_else(|e| {
                eprintln!("{design}/{}: gate-level compile failed: {e}", config.tag());
                std::process::exit(1);
            });
            if let Err(e) = round_trip_check(&compiled.netlist) {
                eprintln!("{design}/{}: export round-trip failed: {e}", config.tag());
                std::process::exit(1);
            }
            let harness =
                WideHarness::try_new(&sys.network, sys.output_channel).expect("harness compiles");
            prepared.push((design, config, sys.network, harness));
        }
    }
    println!(
        "export round-trip: {} netlists x 3 formats deterministic, .latch counts match",
        prepared.len()
    );

    let for_cell = |design: &str, config: CorpusConfig| {
        let (_, _, network, harness) = prepared
            .iter()
            .find(|(d, c, _, _)| *d == design && *c == config)
            .expect("prepared above");
        (network, harness)
    };

    // Sweep. Lazy runs first in each cell so the other configurations can
    // report their gain over it immediately.
    let ordered = [
        CorpusConfig::Lazy,
        CorpusConfig::Active,
        CorpusConfig::NoBypass,
        CorpusConfig::PassiveA,
        CorpusConfig::PassiveB,
    ];
    let mut gains: Vec<Gain> = Vec::new();
    let mut skipped_bounds: Vec<String> = Vec::new();
    for &ee_prob in &EE_PROBS {
        for &latency in &LATENCIES {
            let knobs = Knobs { ee_prob, latency };
            for design in DESIGNS {
                let mut lazy_mean = 0.0f64;
                for config in ordered {
                    let sys = build(design, config, &knobs).expect("corpus design builds");
                    let label = format!("{design}/{}/p{ee_prob:.1}/l{latency}", config.tag());
                    let exp = Experiment {
                        label: label.clone(),
                        system: SystemSpec::Custom {
                            network: sys.network.clone(),
                            output: sys.output_channel,
                        },
                        env: sys.env.clone(),
                        cycles: opts.cycles,
                        trials: opts.trials,
                        seed: opts.seed,
                    };
                    let (network, harness) = for_cell(design, config);
                    let res = run_prepared(harness, network, &exp, &engine).expect("point runs");
                    let mean = res.stats.mean();
                    if config == CorpusConfig::Lazy {
                        lazy_mean = mean;
                        let tol = 3.0 * res.stats.ci95() + 1.0 / opts.cycles as f64;
                        match lazy_bound_check(network, &exp.env, mean, tol) {
                            Ok(check) => {
                                println!(
                                    "  {label:<34} {:.4}  [bound {:.4}: {}]",
                                    mean,
                                    check.bound,
                                    if check.ok { "ok" } else { "VIOLATED" }
                                );
                                assert!(
                                    check.ok,
                                    "{label}: lazy mean exceeded its min-cycle-ratio bound"
                                );
                                report.bound_checks.push((label.clone(), check));
                            }
                            Err(e) => {
                                println!("  {label:<34} {mean:.4}  [bound skipped: {e}]");
                                skipped_bounds.push(label.clone());
                            }
                        }
                    } else {
                        let g = Gain {
                            design,
                            config,
                            ee_prob,
                            latency,
                            mean,
                            lazy_mean,
                        };
                        println!("  {label:<34} {mean:.4}  [x{:.3} vs lazy]", g.ratio());
                        gains.push(g);
                    }
                    report.points.push(res);
                }
            }
        }
    }

    // Gain gate: the paper's headline effect must reproduce on every
    // design at the favourable corner of the knob grid.
    let best_p = EE_PROBS[EE_PROBS.len() - 1];
    let best_l = LATENCIES[LATENCIES.len() - 1];
    for design in DESIGNS {
        let g = gains
            .iter()
            .find(|g| {
                g.design == design
                    && g.config == CorpusConfig::Active
                    && g.ee_prob == best_p
                    && g.latency == best_l
            })
            .expect("swept above");
        assert!(
            g.mean > g.lazy_mean,
            "{design}: active ({:.4}) does not beat lazy ({:.4}) at p={best_p} l={best_l}",
            g.mean,
            g.lazy_mean
        );
    }
    println!(
        "gain gate: active beats lazy on all {} designs at p={best_p:.1} l={best_l}",
        DESIGNS.len()
    );
    if !skipped_bounds.is_empty() {
        println!(
            "bound checks skipped (not strongly connected after abstraction): {}",
            skipped_bounds.join(", ")
        );
    }

    // Splice the gains table into the standard campaign JSON.
    let mut json = report.to_json();
    let tail = "\n}\n";
    assert!(json.ends_with(tail), "campaign JSON shape changed");
    json.truncate(json.len() - tail.len());
    json.push_str(",\n  \"gains\": [\n");
    for (i, g) in gains.iter().enumerate() {
        let sep = if i + 1 == gains.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"design\": \"{}\", \"config\": \"{}\", \"ee_prob\": {}, \
             \"latency\": {}, \"mean\": {}, \"lazy_mean\": {}, \"gain\": {}}}{sep}\n",
            g.design,
            g.config.tag(),
            json_f64(g.ee_prob),
            g.latency,
            json_f64(g.mean),
            json_f64(g.lazy_mean),
            json_f64(g.ratio()),
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&json_path, json).expect("write json");
    println!("wrote {json_path}");
}
