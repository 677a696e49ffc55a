//! Sharded multi-threaded Monte-Carlo experiment engine.
//!
//! A single [`crate::WideHarness::try_run_stim`] advances at most
//! [`crate::MAX_TRIALS_PER_RUN`] (= 512) trials in one bit-parallel pass.
//! This module scales the paper's randomized experiments (Sect. 6.1,
//! Figs. 5–9, Table 1) to arbitrary trial counts across OS threads:
//!
//! ```text
//!   Experiment { system × env × cycles × trials, seed } × BackendSel
//!        │ dispatch_backend()       runtime word width W from tape
//!        │ shards_for()             footprint + trial count (or forced);
//!        ▼                          ⌈trials/L⌉ shards of L = W·64 lanes
//!   [Shard 0][Shard 1]…[Shard n-1]  seed+L·i .. seed+L·i+lanes
//!        │ stream::run_pipeline     compile+optimize once, share
//!        ▼                          &WideHarness; hybrid workers generate
//!   generate(k+1) ∥ execute(k)      shard k+1 while shard k executes
//!        │ try_run_stim             a W-word matrix with W < 8 runs its
//!        │                          horizon as K ≤ 8/W time segments in one
//!        │                          W·K-word pass, repaired until each
//!        │                          starts where the one before it ended
//!        │ results by shard index   (bounded queue, see `stream`); the
//!        ▼                          scalar backend: schedules ∥ try_run_scalar
//!   McStats { per_lane[trials] } → mean / stddev / 95% CI
//! ```
//!
//! The entry points are [`run_experiment`] and, on a prebuilt harness,
//! [`run_prepared`].
//!
//! **Determinism contract:** trial *j* of the campaign always runs lane
//! *j* mod 64 of the lane word seeded `seed + 64⌊j/64⌋` (stimulus contract
//! 2, `elastic_core::verify::STIMULUS_CONTRACT`), every shard holds a
//! multiple of 64 trials, and shards are reduced in shard-index order
//! — so the per-lane vector (and therefore mean/sd/CI) is bit-identical for
//! every thread count, **every queue depth, every backend (runtime-
//! dispatched or forced), every cache-block size, every chunk size and
//! every time segmentation**, including a single-threaded scalar run of
//! the same seeds. A segmented shard counts each segment's repaired prefix
//! and its previous suffix only once the segment's carried state equals
//! its previous trajectory's on every live lane; the cycle function is
//! deterministic and lane-independent, so that state fixes the rest of the
//! segment, and every count is the straight run's.
//!
//! **Oversubscription contract:** the engine never spawns more workers
//! than there are shards, and clamps the pool to the machine's available
//! parallelism — an explicit `--threads 8` on a 1-core host runs 1 worker
//! and records both numbers ([`PointResult::requested_threads`] vs
//! [`PointResult::threads`]), instead of timeslicing eight threads over
//! one core and *slowing down* (the BENCH_pr4.json `scaling` regression).
//!
//! **Thread-safety contract:** a compiled [`elastic_netlist::levelize::Program`]
//! is immutable instruction data and a
//! [`elastic_netlist::wide::WideSimulator`] is plain owned state; both are
//! `Send + Sync` (statically asserted in `elastic_netlist::wide`), so one
//! [`WideHarness`] is shared by reference across the pipeline's workers and
//! each worker clones the power-up prototype per shard.
//!
//! Analytic cross-check: for configurations without early evaluation the
//! system is a marked graph, and measured throughput must respect the
//! minimum-cycle-ratio bound (paper Sect. 6.1, reference \[8\]) — see
//! [`lazy_bound_check`].

use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

use elastic_core::channel::ChanId;
use elastic_core::dmg_bridge::lazy_throughput_bound;
use elastic_core::gen::{self, TopoParams};
use elastic_core::network::ElasticNetwork;
use elastic_core::sim::{DataGen, EnvConfig, SourceCfg};
use elastic_core::systems::{paper_example, Config};
use elastic_core::CoreError;
use elastic_lint::cli::{flag_value, parse_flag, parse_positive, reject_unknown_flags, ReportFile};
use elastic_lint::json::Json;
use elastic_netlist::wide::LANES;

use crate::stabilize::{StabilizationOpts, StabilizationReport};
use crate::stream::run_pipeline;
use crate::{
    dispatch_backend, Backend, BackendSel, McStats, WideHarness, DISPATCH_FOOTPRINT_BYTES,
};

/// Which elastic system a campaign point simulates.
#[derive(Debug, Clone)]
pub enum SystemSpec {
    /// One of the five Table 1 configurations of the paper's Fig. 9
    /// example.
    Paper(Config),
    /// An arbitrary user-built network; `output` is the channel whose
    /// positive-transfer rate is reported as throughput.
    Custom {
        /// The elastic control network.
        network: ElasticNetwork,
        /// Observed output channel.
        output: ChanId,
    },
    /// A randomly generated topology (`elastic_core::gen`): the fuzz
    /// campaign's scenario-diversity axis, usable by any Monte-Carlo
    /// experiment. Pair it with the environment of
    /// [`gen::generate`]'s [`gen::GeneratedSystem::env`] so
    /// the schedules match the topology's sources/sinks/VL units.
    Generated(TopoParams),
}

impl SystemSpec {
    /// Resolves the spec into a network and its observed output channel.
    ///
    /// # Errors
    ///
    /// Propagates build failures of the paper example or the topology
    /// generator.
    pub fn build(&self) -> Result<(ElasticNetwork, ChanId), CoreError> {
        match self {
            SystemSpec::Paper(config) => {
                let sys = paper_example(*config)?;
                Ok((sys.network, sys.output_channel))
            }
            SystemSpec::Custom { network, output } => Ok((network.clone(), *output)),
            SystemSpec::Generated(params) => {
                let sys = gen::generate(params)?;
                Ok((sys.network, sys.output_channel))
            }
        }
    }
}

/// One point of a Monte-Carlo campaign: a system, an environment, a horizon
/// and a trial budget.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Point label (free-form; lands in reports and JSON).
    pub label: String,
    /// The system to simulate.
    pub system: SystemSpec,
    /// Environment distributions (offer/stop/kill rates, payload and
    /// latency distributions) used to generate the random schedules.
    pub env: EnvConfig,
    /// Cycles per trial.
    pub cycles: usize,
    /// Number of independent trials (any size; split into ⌈trials/64⌉
    /// shards).
    pub trials: usize,
    /// Base seed: trial `j` is lane `j mod 64` of the lane word seeded
    /// `seed + 64⌊j/64⌋` (wrapping at `u64::MAX`).
    pub seed: u64,
}

/// One unit of worker-pool work: a run of consecutive trials (at most the
/// backend's lane capacity). A shard's position in [`shards_for`]'s vector
/// is its pipeline item index, and so its place in the reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Seed of the shard's first lane; its lane `k` is lane `k mod 64` of
    /// the word seeded `seed + 64⌊k/64⌋`.
    pub seed: u64,
    /// Live lanes in this shard (only the final shard may be partial).
    pub lanes: usize,
}

/// Splits `trials` into ⌈trials/lanes_per_shard⌉ shards with deterministic
/// seed derivation: shard `i` starts at `seed + lanes_per_shard·i`. With a
/// multiple of 64 lanes per shard (every backend's), trial `j` of the
/// flattened order is therefore lane `j mod 64` of the word seeded
/// `seed + 64⌊j/64⌋` — independent of the thread count **and of the chunk
/// size**: re-chunking for a wider backend permutes nothing. Arithmetic wraps at `u64::MAX`
/// (consistently with the per-lane derivation in
/// [`WideHarness::schedules`]), so a near-maximal user seed stays
/// deterministic instead of panicking in debug builds.
///
/// # Panics
///
/// Panics if `lanes_per_shard` is zero.
pub fn shards_for(trials: usize, seed: u64, lanes_per_shard: usize) -> Vec<Shard> {
    assert!(lanes_per_shard > 0, "shards need at least one lane");
    (0..trials.div_ceil(lanes_per_shard))
        .map(|i| Shard {
            seed: seed.wrapping_add((i * lanes_per_shard) as u64),
            lanes: lanes_per_shard.min(trials - i * lanes_per_shard),
        })
        .collect()
}

/// Outcome of one campaign point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Point label (copied from the [`Experiment`]).
    pub label: String,
    /// Reduced statistics; `per_lane[j]` is trial `j`.
    pub stats: McStats,
    /// Worker threads actually spawned (requested, clamped to the shard
    /// count and the machine's available parallelism).
    pub threads: usize,
    /// Worker threads the caller asked for, before clamping.
    pub requested_threads: usize,
    /// Number of shards executed.
    pub shards: usize,
    /// Wall-clock seconds for the whole point (compile + stimulus + runs;
    /// compile excluded when a prebuilt harness is supplied).
    pub wall_secs: f64,
    /// Backend label (see [`Backend::label`]): the word width of each
    /// shard's stimulus matrix — for [`BackendSel::Auto`], the width the
    /// dispatch picked. A matrix under eight words may execute as `W·K`
    /// words, `K` time segments side by side
    /// ([`WideHarness::try_run_stim`]).
    pub backend: &'static str,
    /// Backend selection mode label (see [`BackendSel::label`]): `"auto"`
    /// when the width was runtime-dispatched, else the forced backend.
    pub dispatch: &'static str,
    /// Bounded queue depth of the shard pipeline (at least 1).
    pub queue: usize,
}

impl PointResult {
    /// Formats `mean ±ci95 (sd)` for tables.
    pub fn summary(&self) -> String {
        format!(
            "{:.4} ±{:.4} (sd {:.4})",
            self.stats.mean(),
            self.stats.ci95(),
            self.stats.stddev()
        )
    }

    /// End-to-end throughput of the point in simulated cycles per
    /// wall-clock second (`trials × cycles / wall_secs`) — the headline
    /// per-core metric of the Monte-Carlo engine.
    pub fn cycles_per_sec(&self) -> f64 {
        let total = self.stats.trials() as f64 * self.stats.cycles as f64;
        if self.wall_secs > 0.0 {
            total / self.wall_secs
        } else {
            f64::INFINITY
        }
    }
}

/// Errors surfaced by the experiment engine.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ExpError {
    /// The experiment spec is unusable (zero trials or cycles).
    EmptyExperiment,
    /// A source rate or sink probability of the environment is NaN or
    /// infinite.
    NonFiniteProbability {
        /// The configured component, or `default source` / `default sink`.
        component: String,
        /// The field: `rate`, `stop_prob` or `kill_prob`.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Building, compiling or analysing the system failed.
    Core(CoreError),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::EmptyExperiment => {
                write!(f, "experiment needs at least one trial and one cycle")
            }
            ExpError::NonFiniteProbability {
                component,
                field,
                value,
            } => write!(f, "{component}: {field} must be finite, got {value}"),
            ExpError::Core(e) => write!(f, "system error: {e}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<CoreError> for ExpError {
    fn from(e: CoreError) -> Self {
        ExpError::Core(e)
    }
}

/// Tunables of the streaming experiment engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOpts {
    /// Requested worker threads; the engine clamps to the shard count and
    /// the machine's available parallelism (see [`effective_threads`]).
    pub threads: usize,
    /// Bounded stimulus-queue depth: at most this many packed stimulus
    /// matrices exist at once (queued + mid-pack), which is the pipeline's
    /// memory bound. Clamped to at least 1.
    pub queue: usize,
    /// Backend selection: runtime width dispatch or a forced backend.
    pub backend: BackendSel,
    /// Byte budget for cache-blocked tape scheduling
    /// ([`elastic_netlist::levelize::Program::block_plan`]).
    pub block_bytes: usize,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            threads: default_threads(),
            queue: 2,
            backend: BackendSel::Auto,
            block_bytes: DISPATCH_FOOTPRINT_BYTES,
        }
    }
}

/// The worker count the engine actually spawns for `requested` threads
/// over `shards` shards: clamped so that (a) spare workers with no shard
/// to claim are never spawned, and (b) the pool never oversubscribes the
/// machine — `requested > available_parallelism` timeslices workers over
/// the same cores and *increases* wall time (the BENCH_pr4.json `scaling`
/// regression: 2 threads took 2.5× as long as 1 on a 1-core host).
pub fn effective_threads(requested: usize, shards: usize) -> usize {
    requested.clamp(1, shards.max(1)).min(default_threads())
}

/// Runs one campaign point: compiles the system **once** (through the full
/// optimize → levelize → peephole pipeline), then runs it like
/// [`run_prepared`].
///
/// The word width is taken from `opts.backend` — [`dispatch_backend`] at
/// runtime for [`BackendSel::Auto`] — and each shard covers
/// `backend.lanes()` trials. The shards run through the `stream` module's
/// worker pool with the [`WideHarness`] shared by reference: the stimulus
/// for shard *k+1* is generated while shard *k* executes behind a bounded
/// queue. On the scalar reference backend the producer generates the
/// shard's schedules instead, and the consumer replays them one gate-level
/// interpreter run per trial.
///
/// See the module docs for the determinism and oversubscription contracts.
///
/// # Errors
///
/// [`ExpError::EmptyExperiment`] for a zero-trial/zero-cycle spec;
/// [`ExpError::NonFiniteProbability`] for a NaN or infinite source rate or
/// sink probability; [`ExpError::Core`] when the system fails to build,
/// compile, or run.
///
/// # Panics
///
/// Panics only on library bugs (a worker thread panicking mid-shard), never
/// on bad experiment inputs.
pub fn run_experiment(exp: &Experiment, opts: &EngineOpts) -> Result<PointResult, ExpError> {
    check_experiment(exp)?;
    let t0 = Instant::now();
    let (network, out) = exp.system.build()?;
    let harness = WideHarness::try_new(&network, out)?;
    run_core(&harness, &network, exp, opts, t0)
}

/// Runs one campaign point against a **prebuilt** harness, skipping the
/// per-point compile: campaign binaries sweeping many environments over
/// the same system build the [`WideHarness`] once and amortize it.
/// `exp.system` is ignored — `harness`/`network` stand in for it, and the
/// caller is responsible for their consistency. `wall_secs` (and therefore
/// [`PointResult::cycles_per_sec`]) covers only stimulus + execution.
///
/// # Errors
///
/// [`ExpError::EmptyExperiment`] for a zero-trial/zero-cycle spec;
/// [`ExpError::NonFiniteProbability`] for a NaN or infinite source rate or
/// sink probability; [`ExpError::Core`] when a pipeline stage fails.
pub fn run_prepared(
    harness: &WideHarness,
    network: &ElasticNetwork,
    exp: &Experiment,
    opts: &EngineOpts,
) -> Result<PointResult, ExpError> {
    check_experiment(exp)?;
    run_core(harness, network, exp, opts, Instant::now())
}

/// Rejects an experiment with no trials or cycles, or whose environment
/// has a NaN or infinite source rate or sink probability.
fn check_experiment(exp: &Experiment) -> Result<(), ExpError> {
    if exp.trials == 0 || exp.cycles == 0 {
        return Err(ExpError::EmptyExperiment);
    }
    let env = &exp.env;
    let offending = std::iter::once(("default source", &env.default_source))
        .chain(env.sources.iter().map(|(name, c)| (name.as_str(), c)))
        .map(|(name, c)| (name, "rate", c.rate))
        .chain(
            std::iter::once(("default sink", &env.default_sink))
                .chain(env.sinks.iter().map(|(name, c)| (name.as_str(), c)))
                .flat_map(|(name, c)| {
                    [
                        (name, "stop_prob", c.stop_prob),
                        (name, "kill_prob", c.kill_prob),
                    ]
                }),
        )
        .filter(|&(_, _, value)| !value.is_finite())
        // Map order varies from run to run; report the first by name.
        .min_by_key(|&(name, field, _)| (name, field));
    match offending {
        Some((component, field, value)) => Err(ExpError::NonFiniteProbability {
            component: component.to_string(),
            field,
            value,
        }),
        None => Ok(()),
    }
}

/// The engine core shared by both entry points: dispatch the backend,
/// shard the trials, run the shards through the pipeline, concatenate the
/// per-shard statistics in shard-index order.
fn run_core(
    harness: &WideHarness,
    network: &ElasticNetwork,
    exp: &Experiment,
    opts: &EngineOpts,
    t0: Instant,
) -> Result<PointResult, ExpError> {
    let backend = match opts.backend {
        BackendSel::Auto => dispatch_backend(harness.program(), exp.trials),
        BackendSel::Fixed(b) => b,
    };
    let work = shards_for(exp.trials, exp.seed, backend.lanes());
    let threads = effective_threads(opts.threads, work.len());
    let (env, cycles) = (&exp.env, exp.cycles);
    let per_shard = if backend == Backend::Scalar {
        run_pipeline(
            work.len(),
            threads,
            opts.queue,
            |i| {
                let Shard { seed, lanes, .. } = work[i];
                Ok(WideHarness::schedules(network, env, seed, cycles, lanes))
            },
            |_, schedules| harness.try_run_scalar(&schedules),
        )?
    } else {
        let width = backend.lanes() / LANES;
        let plan = harness.program().block_plan(width, opts.block_bytes);
        run_pipeline(
            work.len(),
            threads,
            opts.queue,
            |i| {
                let Shard { seed, lanes, .. } = work[i];
                harness.generate_stimulus(network, env, seed, cycles, lanes, width)
            },
            |i, stim| harness.try_run_stim(&stim, work[i].lanes, &plan),
        )?
    };
    let stats = McStats::concat(per_shard);
    debug_assert_eq!(stats.trials(), exp.trials);
    Ok(PointResult {
        label: exp.label.clone(),
        stats,
        threads,
        requested_threads: opts.threads,
        shards: work.len(),
        wall_secs: t0.elapsed().as_secs_f64(),
        backend: backend.label(),
        dispatch: opts.backend.label(),
        queue: opts.queue.max(1),
    })
}

/// The early-vs-lazy configuration pair every early-evaluation ablation
/// sweeps: the paper's headline contrast (Table 1 rows 1 and 5).
pub const EE_CONFIGS: [(Config, &str); 2] = [
    (Config::ActiveAntiTokens, "early"),
    (Config::NoEarlyEval, "lazy"),
];

/// Builds the `sweep_ee_prob`-style campaign point for fast-branch
/// probability `p_i`: the Fig. 9 example with the opcode distribution on
/// `Din` set to I with probability `p_i` and the remaining mass split 3:1
/// between F and M. Shared by `sweep_ee_prob` and `campaign` so their
/// points stay equivalent by construction.
///
/// # Errors
///
/// Propagates build failures of the paper example.
pub fn ee_prob_experiment(
    p_i: f64,
    config: Config,
    tag: &str,
    cycles: usize,
    trials: usize,
    seed: u64,
) -> Result<Experiment, ExpError> {
    let sys = paper_example(config)?;
    let rest = 1.0 - p_i;
    let mut env = sys.env_config.clone();
    env.sources.insert(
        "Din".into(),
        SourceCfg {
            rate: 1.0,
            data: DataGen::Weighted(vec![(0b00, p_i), (0b10, rest * 0.75), (0b01, rest * 0.25)]),
        },
    );
    Ok(Experiment {
        label: format!("p_i={p_i:.2}/{tag}"),
        system: SystemSpec::Paper(config),
        env,
        cycles,
        trials,
        seed,
    })
}

/// Outcome of the marked-graph analytic cross-check of one lazy point.
#[derive(Debug, Clone)]
pub struct BoundCheck {
    /// The `min_cycle_ratio` throughput bound of the abstracted system.
    pub bound: f64,
    /// Measured Monte-Carlo mean throughput.
    pub measured: f64,
    /// Tolerance granted for finite-horizon noise.
    pub tolerance: f64,
    /// Whether `measured <= bound + tolerance`.
    pub ok: bool,
    /// Component names on the critical cycle.
    pub critical: Vec<String>,
}

/// Cross-checks a measured lazy-configuration throughput against the
/// minimum-cycle-ratio bound of its marked-graph abstraction
/// (`elastic_core::dmg_bridge`). Lazy systems cannot beat the bound; a
/// sharded campaign whose lazy mean exceeds it has a bug (bad seeding, a
/// polluted partial shard, a broken reducer), which is exactly what this
/// check is for.
///
/// # Errors
///
/// Propagates abstraction/analysis failures (e.g. a system that is not
/// strongly connected after abstraction) — as typed errors, not panics, so
/// campaign runners can report and continue.
pub fn lazy_bound_check(
    network: &ElasticNetwork,
    env: &EnvConfig,
    measured: f64,
    tolerance: f64,
) -> Result<BoundCheck, ExpError> {
    let b = lazy_throughput_bound(network, env)?;
    Ok(BoundCheck {
        bound: b.bound,
        measured,
        tolerance,
        ok: measured <= b.bound + tolerance,
        critical: b.critical,
    })
}

/// One thread-scaling measurement of a campaign's reference point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingRow {
    /// Threads the ladder step asked for.
    pub requested: usize,
    /// Threads the engine actually spawned (see [`effective_threads`]) —
    /// the corrected PR6 methodology: BENCH_pr4.json recorded requested
    /// threads only, which on an oversubscribed host made "2 threads" a
    /// measurement of timeslicing overhead, not scaling.
    pub effective: usize,
    /// Wall-clock seconds of the reference point at this step.
    pub wall_secs: f64,
}

/// A campaign-level record: the report of `campaign` (`BENCH_pr6.json`),
/// `corpus_campaign` (`BENCH_pr10.json`), `table1` and the sweeps.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Completed points.
    pub points: Vec<PointResult>,
    /// Analytic cross-checks, as `(point label, check)` pairs.
    pub bound_checks: Vec<(String, BoundCheck)>,
    /// Thread-scaling measurements for one reference point.
    pub scaling: Vec<ScalingRow>,
}

impl CampaignReport {
    /// The whole report as a JSON object.
    pub fn to_json(&self) -> Json {
        let points = self.points.iter().map(|p| {
            Json::object([
                ("point", p.label.as_str().into()),
                ("mean", p.stats.mean().into()),
                ("sd", p.stats.stddev().into()),
                ("ci95", p.stats.ci95().into()),
                ("trials", p.stats.trials().into()),
                ("cycles", p.stats.cycles.into()),
                ("shards", p.shards.into()),
                ("threads", p.threads.into()),
                ("requested_threads", p.requested_threads.into()),
                ("queue", p.queue.into()),
                ("wall_secs", p.wall_secs.into()),
                ("backend", p.backend.into()),
                ("dispatch", p.dispatch.into()),
                ("cycles_per_sec", p.cycles_per_sec().into()),
            ])
        });
        let bound_checks = self.bound_checks.iter().map(|(label, c)| {
            Json::object([
                ("point", label.as_str().into()),
                ("bound", c.bound.into()),
                ("measured", c.measured.into()),
                ("tolerance", c.tolerance.into()),
                ("ok", c.ok.into()),
                (
                    "critical",
                    Json::array(c.critical.iter().map(String::as_str)),
                ),
            ])
        });
        let scaling = self.scaling.iter().map(|row| {
            Json::object([
                ("requested_threads", row.requested.into()),
                ("effective_threads", row.effective.into()),
                ("wall_secs", row.wall_secs.into()),
            ])
        });
        let mut fields = vec![
            ("campaign", self.name.as_str().into()),
            ("points", Json::array(points)),
            ("bound_checks", Json::array(bound_checks)),
        ];
        // A campaign that measured no thread scaling (the corpus) has no
        // `scaling` field rather than an empty one.
        if !self.scaling.is_empty() {
            fields.push(("scaling", Json::array(scaling)));
        }
        Json::object(fields)
    }
}

/// Shared command-line options of the campaign binaries
/// (`--trials N --threads N --cycles N --seed N --json PATH --queue N
/// --backend {auto,scalar,wide,wide1,wide2,wide4,wide8}`).
#[derive(Debug)]
pub struct CliOpts {
    /// Trials per point.
    pub trials: usize,
    /// Worker threads (defaults to the machine's available parallelism;
    /// the engine clamps, see [`effective_threads`]).
    pub threads: usize,
    /// Cycles per trial.
    pub cycles: usize,
    /// Base seed.
    pub seed: u64,
    /// The `--json` report file, created when the options are parsed; no
    /// report is written without one.
    pub json: ReportFile,
    /// Backend selection (defaults to runtime dispatch, `auto`).
    pub backend: BackendSel,
    /// Streaming-pipeline stimulus queue depth.
    pub queue: usize,
}

impl CliOpts {
    /// Every flag [`CliOpts::parse`] reads; each takes a value.
    const FLAGS: [&'static str; 7] = [
        "--trials",
        "--threads",
        "--cycles",
        "--seed",
        "--json",
        "--backend",
        "--queue",
    ];

    /// Parses `std::env::args`, falling back to the given defaults when a
    /// flag is absent. Every malformed command line is a hard error (exit
    /// 2): a flag other than those listed on [`CliOpts`] (the binaries
    /// built on this parser read no other flag), and a flag with an
    /// unparsable or missing value. These binaries produce published measurements, and
    /// silently running the default campaign after a typo would record
    /// numbers for a campaign that never ran.
    pub fn parse(default_trials: usize, default_cycles: usize) -> CliOpts {
        let args: Vec<String> = std::env::args().collect();
        reject_unknown_flags(&args, &Self::FLAGS, &[]);
        let backend = match flag_value(&args, "--backend") {
            None => BackendSel::Auto,
            Some(raw) => BackendSel::parse(&raw).unwrap_or_else(|| {
                eprintln!(
                    "error: invalid value for --backend: {raw:?} \
                     (expected auto, scalar, wide, wide1, wide2, wide4 or wide8)"
                );
                std::process::exit(2);
            }),
        };
        let (trials, threads, cycles, seed, queue) = (
            parse_positive(&args, "--trials", default_trials),
            parse_positive(&args, "--threads", default_threads()),
            parse_positive(&args, "--cycles", default_cycles),
            parse_flag(&args, "--seed", 1),
            parse_positive(&args, "--queue", EngineOpts::default().queue),
        );
        CliOpts {
            trials,
            threads,
            cycles,
            seed,
            // Last, so a usage error leaves an existing report untouched.
            json: ReportFile::open(flag_value(&args, "--json").as_deref()),
            backend,
            queue,
        }
    }

    /// The [`EngineOpts`] these CLI options describe.
    pub fn engine(&self) -> EngineOpts {
        EngineOpts {
            threads: self.threads,
            queue: self.queue,
            backend: self.backend,
            ..EngineOpts::default()
        }
    }
}

/// `flag`'s comma-separated list, `dflt` when the flag is absent; empty
/// items are skipped and an unparsable one exits with status 2.
pub fn parse_list<T: std::str::FromStr>(args: &[String], flag: &str, dflt: Vec<T>) -> Vec<T> {
    let Some(raw) = flag_value(args, flag) else {
        return dflt;
    };
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid value in {flag}: {s:?}");
                std::process::exit(2);
            })
        })
        .collect()
}

/// The fault campaigns' `--classes a,b,...|all`: every class of `all` when
/// the flag is absent or `all`.
pub fn parse_classes(args: &[String], all: &[&str]) -> Vec<String> {
    let every = || all.iter().map(|&c| c.to_string()).collect();
    let classes: Vec<String> = parse_list(args, "--classes", every());
    if classes == ["all"] {
        every()
    } else {
        classes
    }
}

/// The fault campaigns' `--check`: re-runs `report`'s campaign through
/// `rerun` at a different worker count and queue depth and asserts that
/// every job outcome is bit-identical. A failing re-run exits with status
/// 2.
///
/// # Panics
///
/// Panics when a job's site or lane outcomes diverge.
pub fn check_determinism(
    report: &StabilizationReport,
    rerun: impl Fn(&StabilizationOpts) -> Result<StabilizationReport, CoreError>,
) {
    let alt = StabilizationOpts {
        threads: if report.threads == 1 { 2 } else { 1 },
        queue: if report.opts.queue == 1 { 4 } else { 1 },
        ..report.opts.clone()
    };
    let reference = rerun(&alt).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    for (a, b) in report.jobs.iter().zip(&reference.jobs) {
        assert_eq!(a.site, b.site, "job sites diverged between thread counts");
        assert_eq!(
            a.lanes, b.lanes,
            "lane outcomes diverged between thread counts"
        );
    }
    println!(
        "determinism: {} worker(s)/queue {} == {} worker(s)/queue {} on {} jobs (bit-identical)",
        report.threads,
        report.opts.queue,
        reference.threads,
        alt.queue,
        report.jobs.len()
    );
}

/// The machine's available parallelism (1 when unknown), read once per
/// process: `std::thread::available_parallelism` rereads the cgroup CPU
/// files on every call, and each engine point asks twice (its default
/// options and [`effective_threads`]).
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::systems::linear_pipeline;
    use elastic_lint::cli::unknown_flag;

    #[test]
    fn unknown_flags_are_found_and_values_are_skipped() {
        let args = |line: &str| -> Vec<String> {
            std::iter::once("bin")
                .chain(line.split_whitespace())
                .map(String::from)
                .collect()
        };
        let unknown =
            |line: &str| unknown_flag(&args(line), &CliOpts::FLAGS, &[]).map(String::from);
        assert_eq!(unknown(""), None);
        assert_eq!(
            unknown("--trials 256 --json out.json --backend wide8"),
            None
        );
        // A positional argument is not a flag (table1's horizon).
        assert_eq!(unknown("5000 --cycles 100"), None);
        // A flag that no campaign reads, and a misspelled one.
        assert_eq!(unknown("--probs 1.5").as_deref(), Some("--probs"));
        assert_eq!(
            unknown("--trials 8 --trial 256").as_deref(),
            Some("--trial")
        );
        // A value flag's argument is its value, even when spelled like a
        // flag; the argument after it is checked again.
        assert_eq!(unknown("--json --out"), None);
        assert_eq!(unknown("--json a --out").as_deref(), Some("--out"));
        // Switches stand alone: the argument after one is checked.
        let unknown_with_switch =
            |line: &str| unknown_flag(&args(line), &["--seed"], &["--check"]).map(String::from);
        assert_eq!(unknown_with_switch("--check --seed 3"), None);
        assert_eq!(
            unknown_with_switch("--check --chek").as_deref(),
            Some("--chek")
        );
        assert_eq!(unknown_with_switch("--check 3 --seed"), None);
        // The program name is never read as a flag.
        assert_eq!(unknown_flag(&["--bin".to_string()], &[], &[]), None);
    }

    /// Engine options with `threads` workers and the `backend` selection.
    fn engine(threads: usize, backend: BackendSel) -> EngineOpts {
        EngineOpts {
            threads,
            backend,
            ..EngineOpts::default()
        }
    }

    fn pipeline_spec() -> (SystemSpec, EnvConfig) {
        let (net, _, out) = linear_pipeline(2, 1).unwrap();
        (
            SystemSpec::Custom {
                network: net,
                output: out,
            },
            EnvConfig::default(),
        )
    }

    #[test]
    fn shard_derivation_covers_trials_exactly() {
        // N % 64 == 0, N % 64 != 0 and N < 64 all partition cleanly.
        for (trials, expect) in [(128usize, vec![64, 64]), (100, vec![64, 36]), (5, vec![5])] {
            let sh = shards_for(trials, 1000, LANES);
            assert_eq!(sh.len(), expect.len(), "{trials} trials");
            for (i, s) in sh.iter().enumerate() {
                assert_eq!(s.lanes, expect[i]);
                assert_eq!(s.seed, 1000 + (i * LANES) as u64);
            }
            assert_eq!(sh.iter().map(|s| s.lanes).sum::<usize>(), trials);
        }
        assert!(shards_for(0, 0, LANES).is_empty());
    }

    #[test]
    fn near_max_seed_wraps_instead_of_panicking() {
        // Regression: seed arithmetic close to u64::MAX must wrap (like the
        // sweep binaries' seed offsets), not overflow-panic in debug builds.
        let base = u64::MAX - 70;
        let sh = shards_for(130, base, LANES);
        assert_eq!(sh[0].seed, base);
        assert_eq!(sh[1].seed, base.wrapping_add(64));
        assert_eq!(sh[2].seed, 57, "wrapped past u64::MAX");
        let (system, env) = pipeline_spec();
        let exp = Experiment {
            label: "wrap".into(),
            system,
            env,
            cycles: 20,
            trials: 130,
            seed: base,
        };
        let one = run_experiment(&exp, &engine(1, BackendSel::Auto)).unwrap();
        let multi = run_experiment(&exp, &engine(3, BackendSel::Auto)).unwrap();
        assert_eq!(one.stats.per_lane, multi.stats.per_lane);
    }

    #[test]
    fn empty_experiment_is_an_error() {
        let (system, env) = pipeline_spec();
        let exp = Experiment {
            label: "empty".into(),
            system,
            env,
            cycles: 100,
            trials: 0,
            seed: 1,
        };
        assert!(matches!(
            run_experiment(&exp, &engine(2, BackendSel::Auto)),
            Err(ExpError::EmptyExperiment)
        ));
    }

    #[test]
    fn partial_shard_matches_direct_wide_run() {
        // 70 trials: one 512-lane shard (partial) on the default wide8
        // backend, two shards on wide1. Neither chunking may leak its dead
        // upper lanes into the estimate, and both must flatten to the same
        // per-lane vector as direct single-word runs.
        let (system, env) = pipeline_spec();
        let exp = Experiment {
            label: "partial".into(),
            system: system.clone(),
            env: env.clone(),
            cycles: 60,
            trials: 70,
            seed: 400,
        };
        let res = run_experiment(&exp, &engine(2, BackendSel::Auto)).unwrap();
        assert_eq!(res.stats.trials(), 70);
        assert_eq!(res.shards, 1, "one 512-lane shard on the default backend");
        let narrow = run_experiment(&exp, &engine(2, BackendSel::Fixed(Backend::Wide1))).unwrap();
        assert_eq!(narrow.shards, 2, "two 64-lane shards on wide1");
        // Reference: drive the two 64-lane shards directly through
        // WideHarness.
        let (net, out) = system.build().unwrap();
        let h = WideHarness::new(&net, out);
        let plan = h.program().block_plan(1, usize::MAX);
        let expect: Vec<f64> = [(400, 64), (400 + 64, 6)]
            .into_iter()
            .flat_map(|(seed, lanes)| {
                let stim = h.generate_stimulus(&net, &env, seed, 60, lanes, 1).unwrap();
                h.try_run_stim(&stim, lanes, &plan).unwrap().per_lane
            })
            .collect();
        assert_eq!(res.stats.per_lane, expect);
        assert_eq!(narrow.stats.per_lane, expect);
    }

    #[test]
    fn all_backends_agree_bit_exactly() {
        // The same experiment on every backend — scalar interpreter on the
        // raw netlist included — must produce the identical per-lane
        // vector: the end-to-end cross-check of the optimize → levelize →
        // peephole → generate pipeline.
        let (system, env) = pipeline_spec();
        let exp = Experiment {
            label: "backends".into(),
            system,
            env,
            cycles: 40,
            trials: 70,
            seed: 3000,
        };
        let reference =
            run_experiment(&exp, &engine(1, BackendSel::Fixed(Backend::Scalar))).unwrap();
        assert_eq!(reference.backend, "scalar");
        for backend in [
            Backend::Wide1,
            Backend::Wide2,
            Backend::Wide4,
            Backend::Wide8,
        ] {
            let res = run_experiment(&exp, &engine(2, BackendSel::Fixed(backend))).unwrap();
            assert_eq!(res.stats.per_lane, reference.stats.per_lane, "{backend:?}");
            assert_eq!(res.backend, backend.label());
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (system, env) = pipeline_spec();
        let exp = Experiment {
            label: "det".into(),
            system,
            env,
            cycles: 50,
            trials: 130,
            seed: 77,
        };
        let one = run_experiment(&exp, &engine(1, BackendSel::Auto)).unwrap();
        for threads in [2, 3, 8] {
            let multi = run_experiment(&exp, &engine(threads, BackendSel::Auto)).unwrap();
            assert_eq!(
                one.stats.per_lane, multi.stats.per_lane,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn lazy_bound_check_holds_on_paper_lazy_config() {
        let sys = paper_example(Config::NoEarlyEval).unwrap();
        let exp = Experiment {
            label: "lazy".into(),
            system: SystemSpec::Paper(Config::NoEarlyEval),
            env: sys.env_config.clone(),
            cycles: 300,
            trials: 96,
            seed: 9,
        };
        let res = run_experiment(&exp, &engine(2, BackendSel::Auto)).unwrap();
        let check =
            lazy_bound_check(&sys.network, &sys.env_config, res.stats.mean(), 0.03).unwrap();
        assert!(
            check.ok,
            "lazy mean {} exceeded bound {}",
            check.measured, check.bound
        );
        assert!(!check.critical.is_empty());
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = CampaignReport {
            name: "unit \"quoted\"".into(),
            points: vec![PointResult {
                label: "p\\0".into(),
                stats: McStats {
                    cycles: 10,
                    per_lane: vec![0.25, 0.75],
                },
                threads: 2,
                requested_threads: 8,
                shards: 1,
                wall_secs: 0.5,
                backend: "wide8",
                dispatch: "auto",
                queue: 2,
            }],
            bound_checks: vec![(
                "lazy".into(),
                BoundCheck {
                    bound: 0.25,
                    measured: 0.2,
                    tolerance: 0.01,
                    ok: true,
                    critical: vec!["M1".into()],
                },
            )],
            scaling: vec![
                ScalingRow {
                    requested: 1,
                    effective: 1,
                    wall_secs: 2.0,
                },
                ScalingRow {
                    requested: 4,
                    effective: 1,
                    wall_secs: f64::NAN,
                },
            ],
        };
        let json = report.to_json().to_string();
        assert!(json.contains("\"campaign\": \"unit \\\"quoted\\\"\""));
        assert!(json.contains("\"point\": \"p\\\\0\""));
        assert!(json.contains("\"mean\": 0.500000"));
        assert!(json.contains("\"trials\": 2"));
        assert!(json.contains("\"backend\": \"wide8\""));
        assert!(json.contains("\"dispatch\": \"auto\""));
        assert!(json.contains("\"requested_threads\": 8"));
        assert!(json.contains("\"queue\": 2"));
        assert!(json.contains("\"requested_threads\": 4, \"effective_threads\": 1"));
        // 2 trials × 10 cycles / 0.5 s = 40 cycles/sec.
        assert!(json.contains("\"cycles_per_sec\": 40.000000"));
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"critical\": [\"M1\"]"));
        // Non-finite wall times degrade to null instead of invalid JSON.
        assert!(json.contains("\"wall_secs\": null"));
        // Balanced braces/brackets as a cheap well-formedness proxy.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "{open}{close}"
            );
        }
        // Without scaling rows the field is left out.
        let unscaled = CampaignReport {
            scaling: Vec::new(),
            ..report
        };
        assert!(!unscaled.to_json().to_string().contains("\"scaling\""));
    }
}
