//! Monte-Carlo workloads: campaign points through the streaming experiment
//! engine on one worker, over systems built and compiled once in set-up.
//!
//! Each workload takes its point shape from the repository's own callers:
//! `campaign` is the `campaign` binary's 1024 trials × 2000 cycles on the
//! Fig. 9 example (two eight-word shards), `corpus` is `corpus_campaign`'s
//! 64 trials × 2000 cycles on the real-design corpus (one single-word
//! shard, the width the sweep binaries run at).
//!
//! A case is one system under one draw of its environment knobs and trial
//! seed. Draw `m` is shared by every configuration of a design, so they all
//! see the same guard mix and trial seeds — the pairing the
//! early-versus-lazy check relies on.

use std::time::Instant;

use elastic_bench::exp::{
    ee_prob_experiment, lazy_bound_check, run_prepared, shards_for, EngineOpts, Experiment,
    SystemSpec,
};
use elastic_bench::{dispatch_backend, Backend, BackendSel, McStats, WideHarness};
use elastic_core::corpus::{self, CorpusConfig, Knobs, DESIGNS};
use elastic_core::network::ElasticNetwork;
use elastic_core::systems::{paper_example, Config};
use elastic_core::ChanId;

use crate::trace::Tracer;
use crate::{mix, unit, Point};

/// Lanes of one machine word.
const LANES: usize = 64;
/// Leading lanes of each case replayed on the scalar gate-level
/// interpreter over the unoptimized netlist.
const ANCHOR_LANES: usize = 4;

/// The systems a workload sweeps.
#[derive(Clone, Copy)]
pub enum Family {
    /// The five Table 1 configurations of the Fig. 9 example; a draw sets
    /// the fast-branch probability on `Din`.
    Fig9,
    /// Every corpus design under its five configurations; a draw sets the
    /// cheap-branch probability and the slow latency.
    Corpus,
}

/// A workload's point shape.
pub struct Shape {
    pub family: Family,
    pub trials: usize,
    pub cycles: usize,
    /// Knob draws per system.
    pub draws: u64,
}

/// The `campaign` binary's default point.
pub const CAMPAIGN: Shape = Shape {
    family: Family::Fig9,
    trials: 1024,
    cycles: 2000,
    draws: 2,
};

/// The `corpus_campaign` (and sweep binaries') default point.
pub const CORPUS: Shape = Shape {
    family: Family::Corpus,
    trials: LANES,
    cycles: 2000,
    draws: 2,
};

/// A compiled system.
struct System {
    label: String,
    /// Index of the design; configurations of one design share it.
    design: usize,
    lazy: bool,
    active: bool,
    network: ElasticNetwork,
    harness: WideHarness,
}

/// One system under one draw, and what its first run returned.
struct Case {
    system: usize,
    exp: Experiment,
    first: Option<McStats>,
}

/// A Monte-Carlo workload after set-up: a fixed list of deterministic
/// cases.
pub struct McWorkload {
    trials: usize,
    systems: Vec<System>,
    cases: Vec<Case>,
    /// Correctness problems found while measuring.
    problems: Vec<String>,
}

fn one_worker() -> EngineOpts {
    EngineOpts {
        threads: 1,
        ..EngineOpts::default()
    }
}

/// Compiles one built network, recording its tape size.
fn compile(
    tracer: &mut Option<&mut Tracer>,
    label: &str,
    network: &ElasticNetwork,
    output: ChanId,
) -> Result<WideHarness, String> {
    let harness = Tracer::around(tracer, "compile", || WideHarness::try_new(network, output))
        .map_err(|e| format!("{label}: compile: {e}"))?;
    if let Some(t) = tracer.as_deref_mut() {
        let prog = harness.program();
        t.sample("tape_instrs", (prog.high().len() + prog.low().len()) as f64);
    }
    Ok(harness)
}

impl McWorkload {
    /// Builds and compiles every system once, then draws the cases.
    pub fn setup(
        shape: &Shape,
        seed: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<McWorkload, String> {
        let mut systems = Vec::new();
        let mut cases = Vec::new();
        match shape.family {
            Family::Fig9 => {
                for config in Config::all() {
                    let label = format!("{config:?}");
                    let sys = Tracer::around(&mut tracer, "build", || paper_example(config))
                        .map_err(|e| format!("{label}: build: {e}"))?;
                    let harness = compile(&mut tracer, &label, &sys.network, sys.output_channel)?;
                    systems.push(System {
                        label,
                        design: 0,
                        lazy: config == Config::NoEarlyEval,
                        active: config == Config::ActiveAntiTokens,
                        network: sys.network,
                        harness,
                    });
                }
                for m in 0..shape.draws {
                    let r = mix(seed, m);
                    // Fast-branch probability of the opcode stream on `Din`.
                    let p_i = 0.1 + 0.8 * unit(mix(r, 2));
                    for (i, config) in Config::all().into_iter().enumerate() {
                        let exp = ee_prob_experiment(
                            p_i,
                            config,
                            &systems[i].label,
                            shape.cycles,
                            shape.trials,
                            mix(r, 1),
                        )
                        .map_err(|e| format!("{config:?}: {e}"))?;
                        cases.push(Case {
                            system: i,
                            exp,
                            first: None,
                        });
                    }
                }
            }
            Family::Corpus => {
                let all: Vec<(usize, CorpusConfig)> = (0..DESIGNS.len())
                    .flat_map(|d| CorpusConfig::all().map(|config| (d, config)))
                    .collect();
                // The knobs shape only the environment, so one compile per
                // (design, configuration) serves every draw.
                for &(d, config) in &all {
                    let label = format!("{}/{}", DESIGNS[d], config.tag());
                    let sys = Tracer::around(&mut tracer, "build", || {
                        corpus::build(DESIGNS[d], config, &Knobs::default())
                    })
                    .map_err(|e| format!("{label}: build: {e}"))?;
                    let harness = compile(&mut tracer, &label, &sys.network, sys.output_channel)?;
                    systems.push(System {
                        label,
                        design: d,
                        lazy: config == CorpusConfig::Lazy,
                        active: config == CorpusConfig::Active,
                        network: sys.network,
                        harness,
                    });
                }
                for m in 0..shape.draws {
                    let r = mix(seed, m);
                    let knobs = Knobs {
                        ee_prob: 0.5 + 0.4 * unit(mix(r, 2)),
                        latency: 8 + (mix(r, 3) % 9) as u32,
                    };
                    for (i, &(d, config)) in all.iter().enumerate() {
                        let sys = corpus::build(DESIGNS[d], config, &knobs)
                            .map_err(|e| format!("{}: build: {e}", systems[i].label))?;
                        let exp = Experiment {
                            label: format!(
                                "{}/p{:.3}/l{}",
                                systems[i].label, knobs.ee_prob, knobs.latency
                            ),
                            system: SystemSpec::Custom {
                                network: sys.network,
                                output: sys.output_channel,
                            },
                            env: sys.env,
                            cycles: shape.cycles,
                            trials: shape.trials,
                            seed: mix(r, 1),
                        };
                        cases.push(Case {
                            system: i,
                            exp,
                            first: None,
                        });
                    }
                }
            }
        }
        Ok(McWorkload {
            trials: shape.trials,
            systems,
            cases,
            problems: Vec::new(),
        })
    }
}

/// The engine's one-worker path, called layer by layer from here so each
/// layer gets its own span: runtime width dispatch, sharding, then per
/// shard stimulus generation and blocked tape execution, then the
/// in-order reduction.
fn traced_point(
    harness: &WideHarness,
    network: &ElasticNetwork,
    exp: &Experiment,
    tracer: &mut Tracer,
) -> Result<McStats, String> {
    let root = tracer.open("point", None);
    let backend = dispatch_backend(harness.program(), exp.trials);
    let width = backend.lanes() / Backend::Wide1.lanes();
    let plan = harness
        .program()
        .block_plan(width, EngineOpts::default().block_bytes);
    let mut parts = Vec::new();
    for shard in shards_for(exp.trials, exp.seed, backend.lanes()) {
        let work = (shard.lanes * exp.cycles) as u64;
        let span = tracer.open("stimulus", Some(root));
        let stim = harness
            .generate_stimulus(
                network,
                &exp.env,
                shard.seed,
                exp.cycles,
                shard.lanes,
                width,
            )
            .map_err(|e| format!("{}: stimulus: {e}", exp.label))?;
        tracer.close(span, work);
        tracer.sample("input_slots", stim.slots().len() as f64);
        let span = tracer.open("tape", Some(root));
        let stats = harness
            .try_run_stim(&stim, shard.lanes, &plan)
            .map_err(|e| format!("{}: tape: {e}", exp.label))?;
        tracer.close(span, work);
        parts.push(stats);
    }
    let span = tracer.open("reduce", Some(root));
    let stats = McStats::concat(parts);
    tracer.close(span, 0);
    tracer.close(root, (exp.trials * exp.cycles) as u64);
    Ok(stats)
}

impl McWorkload {
    /// Number of cases; point `i` runs case `i % cases()`.
    pub fn cases(&self) -> usize {
        self.cases.len()
    }

    /// Runs one case through the engine; with a tracer, also replays it
    /// layer by layer into spans.
    ///
    /// # Errors
    ///
    /// The engine's error, as text.
    pub fn point(&mut self, case: usize, tracer: Option<&mut Tracer>) -> Result<Point, String> {
        let c = &mut self.cases[case];
        let sys = &self.systems[c.system];
        let t0 = Instant::now();
        let res = run_prepared(&sys.harness, &sys.network, &c.exp, &one_worker())
            .map_err(|e| format!("{}: {e}", c.exp.label))?;
        let secs = t0.elapsed().as_secs_f64();
        if let Some(tracer) = tracer {
            let traced = traced_point(&sys.harness, &sys.network, &c.exp, tracer)?;
            if traced.per_lane != res.stats.per_lane {
                self.problems.push(format!(
                    "{}: layer-by-layer run differs from the engine",
                    c.exp.label
                ));
            }
            // The min-cycle-ratio analysis `corpus_campaign` runs on every
            // lazy point.
            if sys.lazy {
                let span = tracer.open("bound", None);
                let _ = lazy_bound_check(&sys.network, &c.exp.env, res.stats.mean(), 0.0);
                tracer.close(span, 0);
            }
        }
        match &c.first {
            None => {
                let mean = res.stats.mean();
                if !(mean > 0.0 && mean <= 1.0) || res.stats.trials() != self.trials {
                    self.problems.push(format!(
                        "{}: {} trials with mean throughput {mean}",
                        c.exp.label,
                        res.stats.trials()
                    ));
                }
                c.first = Some(res.stats);
            }
            Some(first) if first.per_lane != res.stats.per_lane => {
                self.problems
                    .push(format!("{}: repeated point differs", c.exp.label));
            }
            Some(_) => {}
        }
        Ok(Point {
            secs,
            lane_cycles: (c.exp.trials * c.exp.cycles) as u64,
        })
    }

    /// Checks the outputs of the points run so far; returns the problems.
    pub fn check(&mut self) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.problems);
        let mut bounded = 0;
        for case in &self.cases {
            let Some(stats) = &case.first else {
                continue;
            };
            let sys = &self.systems[case.system];
            let (exp, label) = (&case.exp, &case.exp.label);
            // Re-chunked onto shards of another word width behind a
            // one-deep queue, the same trials must give the same per-lane
            // vector.
            let other = if exp.trials > LANES {
                Backend::Wide1
            } else {
                Backend::Wide2
            };
            let replay = EngineOpts {
                backend: BackendSel::Fixed(other),
                queue: 1,
                ..one_worker()
            };
            match run_prepared(&sys.harness, &sys.network, exp, &replay) {
                Ok(r) if r.stats.per_lane == stats.per_lane => {}
                Ok(_) => problems.push(format!("{label}: {} replay differs", other.label())),
                Err(e) => problems.push(format!("{label}: {} replay: {e}", other.label())),
            }
            // The leading lanes through the scalar interpreter on the
            // unoptimized netlist: the reference semantics.
            let anchor = Experiment {
                trials: ANCHOR_LANES,
                ..exp.clone()
            };
            let scalar = EngineOpts {
                backend: BackendSel::Fixed(Backend::Scalar),
                ..one_worker()
            };
            match run_prepared(&sys.harness, &sys.network, &anchor, &scalar) {
                Ok(r) if r.stats.per_lane[..] == stats.per_lane[..ANCHOR_LANES] => {}
                Ok(_) => problems.push(format!("{label}: scalar interpreter differs")),
                Err(e) => problems.push(format!("{label}: scalar interpreter: {e}")),
            }
            // Lazy throughput cannot beat the min-cycle-ratio bound of its
            // marked graph, where the abstraction applies (feed-forward
            // corpus designs are not strongly connected and have none).
            if sys.lazy {
                let tol = 3.0 * stats.ci95() + 1.0 / exp.cycles as f64;
                if let Ok(check) = lazy_bound_check(&sys.network, &exp.env, stats.mean(), tol) {
                    bounded += 1;
                    if !check.ok {
                        problems.push(format!(
                            "{label}: lazy mean {} above its bound {}",
                            check.measured, check.bound
                        ));
                    }
                }
            }
        }
        if bounded == 0 {
            problems.push("no lazy point had a min-cycle-ratio bound".into());
        }
        // Active anti-tokens beat the lazy join on every design, summed
        // over the draws (paired environments and trial seeds).
        let designs = self.systems.iter().map(|s| s.design).max().unwrap_or(0) + 1;
        for design in 0..designs {
            let total = |pick: fn(&System) -> bool| -> f64 {
                self.cases
                    .iter()
                    .filter(|c| {
                        let s = &self.systems[c.system];
                        s.design == design && pick(s)
                    })
                    .filter_map(|c| c.first.as_ref().map(McStats::mean))
                    .sum()
            };
            let (active, lazy) = (total(|s| s.active), total(|s| s.lazy));
            if active <= lazy {
                problems.push(format!(
                    "design {design}: active anti-tokens ({active:.4}) do not beat \
                     the lazy join ({lazy:.4})"
                ));
            }
        }
        problems
    }
}
