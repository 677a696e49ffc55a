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
//! 4. **Scalar anchor** — in the first knob cell, the first
//!    [`ANCHOR_LANES`] lanes of every (design, configuration) point must
//!    equal the scalar interpreter on the unoptimized netlist
//!    ([`WideHarness::try_run_scalar`]), which checks every folded corpus
//!    tape the engine ran end to end against the reference semantics. The
//!    30 replays are independent and run after the sweep, on the
//!    engine's worker count.
//!
//! Usage: `corpus_campaign [--trials N] [--threads N] [--cycles N]
//! [--seed N] [--queue N] [--backend {auto,scalar,wide,wide1,wide2,wide4,
//! wide8}] [--json PATH]`; the report is written only to the `--json`
//! path.

use std::sync::atomic::{AtomicUsize, Ordering};

use elastic_bench::exp::{
    effective_threads, lazy_bound_check, run_prepared, CampaignReport, CliOpts, Experiment,
    SystemSpec,
};
use elastic_bench::WideHarness;
use elastic_core::compile::{compile, CompileOptions};
use elastic_core::corpus::{build, CorpusConfig, Knobs, DESIGNS};
use elastic_core::network::ElasticNetwork;
use elastic_core::sim::EnvConfig;
use elastic_lint::json::Json;
use elastic_netlist::export::round_trip_check;
use elastic_netlist::wide::LANES;

/// Cheap-branch probabilities swept per design cell.
const EE_PROBS: [f64; 2] = [0.3, 0.8];
/// Slow latencies of the variable-latency units swept per design cell.
const LATENCIES: [u32; 2] = [4, 12];
/// Leading lanes of each first-cell point replayed on the scalar
/// interpreter.
const ANCHOR_LANES: usize = 4;

/// A scalar-anchor replay: the point's label, its network, harness and
/// environment, and the per-lane rates of its leading lanes on the
/// engine.
type Anchor<'a> = (
    String,
    &'a ElasticNetwork,
    &'a WideHarness,
    EnvConfig,
    Vec<f64>,
);

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
    // rides along on a raw compile at the payload width the campaign
    // simulates (the bits the guards read).
    let configs = CorpusConfig::all();
    let mut prepared: Vec<(&'static str, CorpusConfig, ElasticNetwork, WideHarness)> = Vec::new();
    for design in DESIGNS {
        for config in configs {
            let sys = build(design, config, &Knobs::default()).expect("corpus design builds");
            let compiled = compile(&sys.network, &CompileOptions::default()).unwrap_or_else(|e| {
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
    let mut anchors: Vec<Anchor> = Vec::new();
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
                    if (ee_prob, latency) == (EE_PROBS[0], LATENCIES[0]) {
                        let sub = ANCHOR_LANES.min(opts.trials);
                        let wide = res.stats.per_lane[..sub].to_vec();
                        anchors.push((label.clone(), network, harness, exp.env.clone(), wide));
                    }
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

    // The anchor replays, one per worker at a time.
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..effective_threads(opts.threads, anchors.len()) {
            s.spawn(|| {
                while let Some((label, network, harness, env, wide)) =
                    anchors.get(next.fetch_add(1, Ordering::Relaxed))
                {
                    let scheds =
                        WideHarness::schedules(network, env, opts.seed, opts.cycles, wide.len());
                    let scalar = harness.try_run_scalar(&scheds).expect("scalar replay runs");
                    assert_eq!(
                        wide, &scalar.per_lane,
                        "{label}: optimized pipeline diverged from the scalar interpreter"
                    );
                }
            });
        }
    });
    println!(
        "scalar anchor: first {} lanes of {} points at p={:.1} l={} == unoptimized gate-level interpreter",
        ANCHOR_LANES.min(opts.trials),
        anchors.len(),
        EE_PROBS[0],
        LATENCIES[0]
    );

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

    // The standard campaign report, with the gains table as one more
    // member.
    let Json::Object(mut fields) = report.to_json() else {
        unreachable!("a campaign report is a JSON object");
    };
    let gains = gains.iter().map(|g| {
        Json::object([
            ("design", g.design.into()),
            ("config", g.config.tag().into()),
            ("ee_prob", g.ee_prob.into()),
            ("latency", g.latency.into()),
            ("mean", g.mean.into()),
            ("lazy_mean", g.lazy_mean.into()),
            ("gain", g.ratio().into()),
        ])
    });
    fields.push(("gains".into(), Json::array(gains)));
    opts.json.write(&Json::Object(fields));
}
