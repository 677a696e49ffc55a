//! Shared harness code for the table/figure regeneration binaries and the
//! Criterion benches.
//!
//! The Monte-Carlo machinery lives here: [`SimLowering`] is the one
//! compile-for-simulation pipeline — raw compile, one observed-cone
//! optimizer pass, testbench, tape peephole — and [`WideHarness`]
//! runs a lowered network over up to [`MAX_TRIALS_PER_RUN`] independent
//! random schedules per run through the multi-word bit-parallel
//! [`elastic_netlist::wide::WideSim`] backend, with a scalar reference path
//! on the *unoptimized* netlist ([`WideHarness::run_scalar`]) for
//! end-to-end equivalence checks. The [`exp`] module scales single runs to
//! arbitrary-size campaigns sharded across OS threads; [`stabilize`] runs
//! the fault campaigns on the same lowering.

pub mod diff;
pub mod exp;
pub mod fuzz;
mod segment;
pub mod stabilize;
mod stream;

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use elastic_core::channel::ChanId;
use elastic_core::compile::{compile, CompileOptions, FaultInjection};
use elastic_core::network::ElasticNetwork;
use elastic_core::sim::{BehavSim, EnvConfig, RandomEnv};
use elastic_core::stats::SimReport;
use elastic_core::systems::{paper_example, Config, PaperSystem};
use elastic_core::verify::{NetlistTestbench, PackedStimulus, Schedule};
use elastic_core::CoreError;
use elastic_netlist::area::AreaReport;
use elastic_netlist::kernel::Kernel;
use elastic_netlist::levelize::{BlockPlan, Program};
use elastic_netlist::opt::{optimize, optimize_observed};
use elastic_netlist::reach::{DEEP_BUDGET, SEARCH_BUDGET};
use elastic_netlist::sim::Simulator;
use elastic_netlist::wide::LANES;
use elastic_netlist::{NetId, Netlist};

use crate::segment::Segmentation;

/// One row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Configuration label (paper row name).
    pub label: String,
    /// System throughput (positive transfers per cycle at the environment).
    pub throughput: f64,
    /// Per-channel `(name, positive, negative, kill)` rates for the five
    /// Table 1 channels.
    pub channels: Vec<(String, f64, f64, f64)>,
    /// Post-optimization area of the compiled control layer.
    pub area: AreaReport,
}

/// Runs one Table 1 configuration for `cycles` cycles with `seed`.
///
/// # Panics
///
/// Panics if the fixed example system fails to build or simulate — that
/// would be a library bug, and the binaries want a loud failure.
pub fn run_table1_row(config: Config, cycles: u64, seed: u64) -> Table1Row {
    let sys = paper_example(config).expect("example builds");
    let mut sim = BehavSim::new(&sys.network).expect("network is valid");
    let mut env = RandomEnv::new(seed, sys.env_config.clone());
    sim.run(&mut env, cycles).expect("simulation runs");
    let report = sim.report();
    let ch = &sys.channels;
    let named: [(&str, ChanId); 5] = [
        ("F2->F3", ch.f2_f3),
        ("F3->W", ch.f3_w),
        ("S->M1", ch.s_m1),
        ("M1->M2", ch.m1_m2),
        ("M2->W", ch.m2_w),
    ];
    let channels = named
        .iter()
        .map(|&(name, c)| {
            (
                name.to_string(),
                report.positive_rate(c),
                report.negative_rate(c),
                report.kill_rate(c),
            )
        })
        .collect();
    let area = control_area(&sys);
    Table1Row {
        label: config.label().to_string(),
        throughput: report.positive_rate(sys.output_channel),
        channels,
        area,
    }
}

/// Compiles the control layer of a system, optimizes it and reports area.
/// Every configuration compiles at the two-bit opcode width, so Table 1
/// compares the five areas at one datapath width (the derived width would
/// give the lazy configuration none).
///
/// # Panics
///
/// Panics on compilation failure (library bug).
pub fn control_area(sys: &PaperSystem) -> AreaReport {
    let compiled = compile(
        &sys.network,
        &CompileOptions {
            data_width: 2,
            ..CompileOptions::default()
        },
    )
    .expect("compiles");
    let (opt, _) = optimize(&compiled.netlist).expect("optimizes");
    AreaReport::of(&opt)
}

/// Runs all five configurations and returns the rows in paper order.
pub fn run_table1(cycles: u64, seed: u64) -> Vec<Table1Row> {
    Config::all()
        .into_iter()
        .map(|c| run_table1_row(c, cycles, seed))
        .collect()
}

/// Formats the regenerated table alongside the paper's reference values.
pub fn format_table1(rows: &[Table1Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<22} {:>6}  {:<28} {:<28} {:<28} {:<28} {:<28}  area",
        "Configuration",
        "Th",
        "F2->F3 (+ - x)",
        "F3->W (+ - x)",
        "S->M1 (+ - x)",
        "M1->M2 (+ - x)",
        "M2->W (+ - x)"
    );
    for r in rows {
        let _ = write!(s, "{:<22} {:>6.3}  ", r.label, r.throughput);
        for (_, p, nr, k) in &r.channels {
            let _ = write!(s, "{p:>7.3} {nr:>7.3} {k:>7.3}      ");
        }
        let _ = writeln!(s, "{}", r.area);
    }
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "Paper reference (Table 1): Th = 0.400 / 0.343 / 0.387 / 0.280 / 0.277;"
    );
    let _ = writeln!(
        s,
        "area lit = 253 / 241 / 213 / 234 / 176 (SIS factored literals)."
    );
    s
}

/// Per-lane positive-transfer statistics of one Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct McStats {
    /// Simulated cycles per trial.
    pub cycles: u64,
    /// Positive-transfer rate of the observed channel per trial.
    pub per_lane: Vec<f64>,
}

impl McStats {
    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.per_lane.len()
    }

    /// Mean throughput across trials (0 for an empty run).
    pub fn mean(&self) -> f64 {
        if self.per_lane.is_empty() {
            return 0.0;
        }
        self.per_lane.iter().sum::<f64>() / self.per_lane.len() as f64
    }

    /// Sample standard deviation across trials (0 for a single trial).
    pub fn stddev(&self) -> f64 {
        if self.per_lane.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self
            .per_lane
            .iter()
            .map(|&x| (x - m) * (x - m))
            .sum::<f64>()
            / (self.per_lane.len() - 1) as f64;
        var.sqrt()
    }

    /// Half-width of the normal-approximation 95% confidence interval on
    /// the mean: `1.96 · s / √n` (0 for fewer than two trials).
    pub fn ci95(&self) -> f64 {
        if self.per_lane.len() < 2 {
            return 0.0;
        }
        1.96 * self.stddev() / (self.per_lane.len() as f64).sqrt()
    }

    /// Concatenates per-shard statistics into one campaign-level `McStats`,
    /// preserving lane order (shard 0's lanes first). The caller supplies
    /// the shards in shard-index order so the result is independent of
    /// which worker thread ran which shard.
    ///
    /// # Panics
    ///
    /// Panics if the shards disagree on the cycle horizon — their rates
    /// would not be commensurable.
    pub fn concat(shards: impl IntoIterator<Item = McStats>) -> McStats {
        let mut out = McStats {
            cycles: 0,
            per_lane: Vec::new(),
        };
        for s in shards {
            assert!(
                out.per_lane.is_empty() || out.cycles == s.cycles,
                "shards must share one horizon ({} vs {})",
                out.cycles,
                s.cycles
            );
            out.cycles = s.cycles;
            out.per_lane.extend_from_slice(&s.per_lane);
        }
        out
    }
}

/// Maximum trials a single [`WideHarness::try_run_stim`] advances at
/// once: the widest (`W = 8`) multi-word backend runs 512 trials per tape
/// pass.
pub const MAX_TRIALS_PER_RUN: usize = 8 * LANES;

/// Which execution engine a Monte-Carlo run uses.
///
/// All backends produce bit-identical per-lane [`McStats`] for the same
/// seeds (asserted by tests and the `campaign` binary); they differ only
/// in speed. `Scalar` runs the raw unoptimized netlist through the
/// gate-level interpreter — the end-to-end reference that cross-checks the
/// whole optimize → levelize → peephole → generate pipeline.
///
/// A `Wide*` label names the word width `W` of each shard's stimulus
/// matrix. A matrix under eight words whose horizon is long enough
/// executes as `W·K` words: `K` time segments of its horizon side by side
/// in one pass ([`WideHarness::try_run_stim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One scalar gate-level [`Simulator`] run per trial, raw netlist.
    Scalar,
    /// Single-word compiled backend (64 trials per matrix).
    Wide1,
    /// Two-word compiled backend (128 trials per matrix).
    Wide2,
    /// Four-word compiled backend (256 trials per matrix).
    Wide4,
    /// Eight-word compiled backend (512 trials per matrix) — the default.
    #[default]
    Wide8,
}

impl Backend {
    /// Every backend, scalar first.
    pub const ALL: [Backend; 5] = [
        Backend::Scalar,
        Backend::Wide1,
        Backend::Wide2,
        Backend::Wide4,
        Backend::Wide8,
    ];

    /// Trials one run (and therefore one campaign shard) covers. The
    /// scalar backend is per-trial, so it keeps the classic 64-trial shard
    /// for scheduling parity with `Wide1`.
    pub fn lanes(self) -> usize {
        match self {
            Backend::Scalar | Backend::Wide1 => LANES,
            Backend::Wide2 => 2 * LANES,
            Backend::Wide4 => 4 * LANES,
            Backend::Wide8 => 8 * LANES,
        }
    }

    /// CLI name (`--backend` value).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Wide1 => "wide1",
            Backend::Wide2 => "wide2",
            Backend::Wide4 => "wide4",
            Backend::Wide8 => "wide8",
        }
    }

    /// Parses a `--backend` value; `wide` is an alias for the widest
    /// backend.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "scalar" => Some(Backend::Scalar),
            "wide" | "wide8" => Some(Backend::Wide8),
            "wide1" => Some(Backend::Wide1),
            "wide2" => Some(Backend::Wide2),
            "wide4" => Some(Backend::Wide4),
            _ => None,
        }
    }
}

/// How the experiment engine chooses its execution backend: a forced
/// [`Backend`], or per-topology runtime dispatch via [`dispatch_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendSel {
    /// Pick the word width at runtime from the compiled tape's value-arena
    /// footprint and the campaign's trial count — the default.
    #[default]
    Auto,
    /// Force one backend (the pre-PR6 behaviour; `--backend wide4` etc.).
    Fixed(Backend),
}

impl BackendSel {
    /// CLI name (`--backend` value).
    pub fn label(self) -> &'static str {
        match self {
            BackendSel::Auto => "auto",
            BackendSel::Fixed(b) => b.label(),
        }
    }

    /// Parses a `--backend` value: `auto`, or anything [`Backend::parse`]
    /// accepts.
    pub fn parse(s: &str) -> Option<BackendSel> {
        if s == "auto" {
            return Some(BackendSel::Auto);
        }
        Backend::parse(s).map(BackendSel::Fixed)
    }
}

/// Value-arena byte budget the runtime width dispatch keeps a topology's
/// working set under: half of a 1 MiB L2, leaving room for the stimulus
/// rows streaming through the same cache. Many x86 cores have 1 MiB of L2,
/// some 2 MiB (the 2-vCPU Xeon host of BENCH.md); the budget is sized for
/// the smaller cache.
pub const DISPATCH_FOOTPRINT_BYTES: usize = 512 * 1024;

/// Picks the word width for a topology at runtime: the widest `W` whose
/// `W`-word value arena fits [`DISPATCH_FOOTPRINT_BYTES`], narrowed while a
/// narrower backend already holds every trial (`trials ≤ (W/2)·LANES`) —
/// wider words would only splat zeros through dead lanes. Never returns
/// [`Backend::Scalar`]; the scalar path is a reference, not a dispatch
/// target. The choice is recorded in campaign JSON as `dispatch`.
pub fn dispatch_backend(prog: &Program, trials: usize) -> Backend {
    let mut w = 8usize;
    while w > 1 && prog.footprint_bytes(w) > DISPATCH_FOOTPRINT_BYTES {
        w /= 2;
    }
    while w > 1 && trials <= (w / 2) * LANES {
        w /= 2;
    }
    match w {
        1 => Backend::Wide1,
        2 => Backend::Wide2,
        4 => Backend::Wide4,
        _ => Backend::Wide8,
    }
}

/// A network lowered for simulation — the one compile-for-simulation
/// pipeline behind [`WideHarness`] and the fault campaigns
/// ([`stabilize`]):
///
/// 1. **compile** — the raw gate-for-gate netlist, with one corruption gate
///    and `fault.<channel>.<rail>` arm input spliced in per fault site
///    ([`CompileOptions::faults`]);
/// 2. **optimize** — one [`optimize_observed`] pass, the paper's "simple
///    logic synthesis" (Sect. 6) ahead of simulation, that keeps only the
///    logic that can influence the output channel's `V⁺/S⁺/V⁻` rails and
///    all four rails of every fault-site channel (which keeps each
///    corruption gate and its arm input);
/// 3. **testbench** — [`NetlistTestbench::with_faults`] resolves the
///    stimulus columns on the observed netlist, fault arms last in site
///    order;
/// 4. **levelize + peephole** — [`Program::compile_optimized`] emits the
///    instruction tapes and collapses copies, fuses inverters and drops
///    phase-dead recomputation.
///
/// Payloads carry the bits the early-evaluation guards read
/// ([`ElasticNetwork::required_data_width`]), none for a lazy network.
#[derive(Debug, Clone)]
pub struct SimLowering {
    /// The observed-cone netlist the tape was levelized from.
    pub netlist: Netlist,
    /// Peephole-optimized tape over [`Self::netlist`].
    pub prog: Program,
    /// Testbench resolved against [`Self::netlist`] (input names survive
    /// optimization).
    pub tb: NetlistTestbench,
    /// The output channel's `(V⁺, S⁺, V⁻)` rails in [`Self::netlist`].
    pub out: [NetId; 3],
    /// Per fault site, its channel's `(V⁺, S⁺, V⁻, S⁻)` rails in
    /// [`Self::netlist`].
    pub sites: Vec<[NetId; 4]>,
}

impl SimLowering {
    /// Lowers `net` observing channel `out`, with the corruption gates of
    /// the rail faults `faults` spliced in.
    ///
    /// # Errors
    ///
    /// Propagates compilation and testbench-resolution failures;
    /// [`CoreError::FaultSite`] for a structural fault, which has no
    /// channel to observe.
    pub fn build(
        net: &ElasticNetwork,
        out: ChanId,
        faults: &[FaultInjection],
    ) -> Result<SimLowering, CoreError> {
        let raw = compile(
            net,
            &CompileOptions {
                faults: faults.to_vec(),
                ..CompileOptions::default()
            },
        )?;
        let site_rails = faults
            .iter()
            .map(|f| {
                let chan = f
                    .channel()
                    .and_then(|name| net.channels().find(|&c| net.channel(c).name == name))
                    .ok_or_else(|| {
                        CoreError::FaultSite(format!("{} has no channel to observe", f.label()))
                    })?;
                let r = &raw.channels[chan.index()];
                Ok([r.vp, r.sp, r.vn, r.sn])
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        let o = &raw.channels[out.index()];
        // `optimize_observed` keeps the first occurrence of a rail observed
        // twice (a site on the output channel, two sites on one channel).
        let observe: Vec<NetId> = [o.vp, o.sp, o.vn]
            .into_iter()
            .chain(site_rails.iter().flatten().copied())
            .collect();
        let (netlist, map) = optimize_observed(&raw.netlist, &observe).map_err(CoreError::from)?;
        let remap = |id: NetId| map[id.index()].expect("observed rails survive as outputs");
        let tb = NetlistTestbench::with_faults(net, &netlist, faults)?;
        let (prog, _) = Program::compile_optimized(&netlist).map_err(CoreError::from)?;
        Ok(SimLowering {
            prog,
            tb,
            out: [o.vp, o.sp, o.vn].map(remap),
            sites: site_rails.into_iter().map(|r| r.map(remap)).collect(),
            netlist,
        })
    }
}

/// A lowered network plus everything needed to simulate trials on it —
/// compile once, run many stimulus batches.
///
/// Construction runs the [`SimLowering`] pipeline without fault sites.
/// The wide path is one producer and one loop:
/// [`WideHarness::generate_stimulus`] writes a [`PackedStimulus`] matrix
/// and [`WideHarness::try_run_stim`] streams it through a
/// [`WideSim<W>`](elastic_netlist::wide::WideSim) with bit-sliced transfer
/// counting (a matrix under eight words as time segments side by side in
/// a wider pass), on the tape folded to the inputs the matrix holds fixed
/// ([`Program::fold_inputs`]); each distinct fixed set is folded at its
/// first use and kept, and folded once more, deeper, once its runs pay
/// for it ([`WideHarness::folded_program`]). The scalar reference path
/// ([`WideHarness::try_run_scalar`]) replays each trial's [`Schedule`] on
/// the raw gate-for-gate compile, built on that path's first use.
///
/// # Panics
///
/// The non-`try` constructors and runners panic on library errors
/// (compilation failures, missing rails, bad batches): the bench binaries
/// want loud failures, like the rest of this crate.
pub struct WideHarness {
    /// The network, kept for the scalar reference path's raw compile.
    net: ElasticNetwork,
    out: ChanId,
    /// The scalar reference path, built on first use.
    scalar: OnceLock<Result<ScalarRef, CoreError>>,
    /// Peephole-optimized tape over the observed-cone netlist — the wide
    /// path all `Wide*` backends execute, folded to each stimulus's fixed
    /// inputs.
    prog: Program,
    /// [`Self::prog`] folded to each fixed-input set a run has brought.
    folds: Mutex<Vec<Fold>>,
    /// Testbench resolved against the observed-cone netlist.
    wide_tb: NetlistTestbench,
    /// The observed channel's `(V⁺, S⁺, V⁻)` rails in the observed-cone
    /// netlist.
    obs_rails: [NetId; 3],
}

/// The lane-cycles a fixed-input set of a [`WideHarness`] runs before a
/// first fold whose state search gave up is redone under
/// [`DEEP_BUDGET`]: 1024 per transition of the deep search. A search
/// costs about 20–40 ns per transition and a lane-cycle about 1–1.5 ns
/// (2-vCPU Xeon VM), so the re-fold, even one whose search gives up
/// again, costs at most about 4% of the simulation before it.
/// perfbench's `campaign` points (1024 × 2000 lane-cycles) reach it
/// after about 131 points of a configuration; a harness built per point
/// (`table1` and `sweep_*` at their defaults, at most 640k lane-cycles)
/// never does.
pub(crate) const DEEP_FOLD_WORK: u64 = 1024 * DEEP_BUDGET as u64;

/// A fixed-input set, as [`PackedStimulus::fixed_inputs`] lists it, and
/// a [`WideHarness`]'s tape folded to it.
struct Fold {
    fixed: Vec<(u32, bool)>,
    prog: Arc<Program>,
    /// The lane-cycles charged to the set while a deep fold is due (the
    /// first fold's search gave up); `None` once none is.
    work: Option<u64>,
}

/// The scalar reference path of a [`WideHarness`]: the raw (unoptimized)
/// compile's testbench, its power-up-state [`Simulator`] (cloned per
/// reference run) and the observed channel's `(V⁺, S⁺, V⁻)` raw rails.
struct ScalarRef {
    tb: NetlistTestbench,
    proto: Simulator,
    rails: [NetId; 3],
}

impl WideHarness {
    /// Compiles `net` and resolves the testbench handles. `out` is the
    /// channel whose positive-transfer rate is reported as throughput.
    pub fn new(net: &ElasticNetwork, out: ChanId) -> WideHarness {
        Self::try_new(net, out).expect("compiles")
    }

    /// Fallible variant of [`WideHarness::new`] for campaign runners that
    /// must surface a broken system spec instead of panicking a worker.
    ///
    /// # Errors
    ///
    /// Propagates compilation and testbench-resolution failures.
    pub fn try_new(net: &ElasticNetwork, out: ChanId) -> Result<WideHarness, CoreError> {
        let lowered = SimLowering::build(net, out, &[])?;
        Ok(WideHarness {
            net: net.clone(),
            out,
            scalar: OnceLock::new(),
            prog: lowered.prog,
            folds: Mutex::new(Vec::new()),
            wide_tb: lowered.tb,
            obs_rails: lowered.out,
        })
    }

    /// The scalar reference path, compiled on first use.
    fn scalar_ref(&self) -> Result<&ScalarRef, CoreError> {
        self.scalar
            .get_or_init(|| {
                let compiled = compile(&self.net, &CompileOptions::default())?;
                let r = &compiled.channels[self.out.index()];
                Ok(ScalarRef {
                    tb: NetlistTestbench::new(&self.net, &compiled.netlist)?,
                    proto: Simulator::new(&compiled.netlist).map_err(CoreError::from)?,
                    rails: [r.vp, r.sp, r.vn],
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Shared horizon of a schedule batch.
    ///
    /// # Errors
    ///
    /// [`CoreError::ScheduleBatch`] when the batch is empty or mixes
    /// horizons — per-lane rates would silently be wrong for the shorter
    /// schedules otherwise.
    fn try_horizon(schedules: &[Schedule]) -> Result<u64, CoreError> {
        let Some(first) = schedules.first() else {
            return Err(CoreError::ScheduleBatch("empty schedule batch".into()));
        };
        let cycles = first.cycles();
        if let Some(bad) = schedules.iter().find(|s| s.cycles() != cycles) {
            return Err(CoreError::ScheduleBatch(format!(
                "mixed horizons: {cycles} vs {}",
                bad.cycles()
            )));
        }
        Ok(cycles as u64)
    }

    /// The schedules of trials `0..lanes` of a point seeded `seed`: lane
    /// `k` is lane `k mod 64` of the lane word seeded `seed + 64⌊k/64⌋`
    /// (wrapping at `u64::MAX`; see [`Schedule::random`]), so a shard of
    /// `exp::shards_for`, seeded at its first trial, reads its own trials.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`MAX_TRIALS_PER_RUN`].
    pub fn schedules(
        net: &ElasticNetwork,
        env: &EnvConfig,
        seed: u64,
        cycles: usize,
        lanes: usize,
    ) -> Vec<Schedule> {
        assert!(
            (1..=MAX_TRIALS_PER_RUN).contains(&lanes),
            "1..={MAX_TRIALS_PER_RUN} lanes"
        );
        (0..lanes)
            .map(|k| {
                let word_seed = seed.wrapping_add((k / LANES * LANES) as u64);
                Schedule::random(net, env, word_seed, k % LANES, cycles)
            })
            .collect()
    }

    /// Generates a packed stimulus matrix for `lanes` trials with
    /// [`PackedStimulus::generate`] — the streaming pipeline's producer
    /// stage. Schedule `k` of [`WideHarness::schedules`] with the same
    /// arguments is the scalar view of lane `k`.
    ///
    /// # Errors
    ///
    /// [`CoreError::ScheduleBatch`] when `lanes` is zero or exceeds
    /// `width · LANES`.
    pub fn generate_stimulus(
        &self,
        net: &ElasticNetwork,
        env: &EnvConfig,
        seed: u64,
        cycles: usize,
        lanes: usize,
        width: usize,
    ) -> Result<PackedStimulus, CoreError> {
        PackedStimulus::generate(&self.wide_tb, net, env, seed, lanes, cycles, width)
    }

    /// The tape the next [`Self::try_run_stim`] of `stim` runs:
    /// [`Self::program`] folded to the inputs `stim` holds fixed
    /// ([`PackedStimulus::fixed_inputs`]; see [`Program::fold_inputs`]).
    ///
    /// The first call with a set folds it under [`SEARCH_BUDGET`] and
    /// keeps the tape. Where that search gave up, every run of the set is
    /// charged its lanes × cycles, and the first call after the set has
    /// run 1024 lane-cycles per transition of [`DEEP_BUDGET`] (2^28) folds
    /// it once more under that budget: from then on the deep tape is
    /// returned, or the first one still if the deep search gave up too.
    /// Both tapes are exact on every run the engine makes, so the switch
    /// moves no count. The budgets and the ratio are constants.
    ///
    /// # Errors
    ///
    /// [`CoreError::Netlist`] when a fixed slot of `stim` is not an input
    /// of the tape (a stimulus generated for another harness).
    pub fn folded_program(&self, stim: &PackedStimulus) -> Result<Arc<Program>, CoreError> {
        self.tape(stim, 0)
    }

    /// [`Self::folded_program`], then `work` lane-cycles charged to
    /// `stim`'s fixed set.
    pub(crate) fn tape(&self, stim: &PackedStimulus, work: u64) -> Result<Arc<Program>, CoreError> {
        let fixed = stim.fixed_inputs();
        // Every update leaves each entry valid, so a poisoned lock holds no
        // torn entry.
        let mut folds = self.folds.lock().unwrap_or_else(PoisonError::into_inner);
        let i = match folds.iter().position(|f| f.fixed[..] == *fixed) {
            Some(i) => i,
            None => {
                let (prog, finished) = self.prog.fold_inputs(fixed, SEARCH_BUDGET)?;
                folds.push(Fold {
                    fixed: fixed.to_vec(),
                    prog: Arc::new(prog),
                    work: (!finished).then_some(0),
                });
                folds.len() - 1
            }
        };
        let fold = &mut folds[i];
        fold.work = match fold.work {
            Some(run) if run >= DEEP_FOLD_WORK => {
                let (prog, finished) = self.prog.fold_inputs(fixed, DEEP_BUDGET)?;
                if finished {
                    fold.prog = Arc::new(prog);
                }
                None
            }
            run => run.map(|run| run + work),
        };
        Ok(Arc::clone(&fold.prog))
    }

    /// Executes a pre-built stimulus matrix — the streaming pipeline's
    /// consumer stage. The word width is dispatched at runtime from
    /// `stim.width()` onto the matching monomorphized backend. The tape is
    /// [`Self::program`] folded to the inputs the matrix holds fixed
    /// ([`PackedStimulus::fixed_inputs`]), run through a cache-block plan
    /// rebuilt on it for `plan`'s byte budget
    /// ([`elastic_netlist::wide::WideSim::cycle_packed_blocked`]). Only the
    /// first `lanes` trials count toward the statistics; trailing lanes of
    /// a partial word are masked out. (A dead lane may read a folded input
    /// as its fixed value, and no count reads a dead lane.)
    ///
    /// A matrix of `W` words that leaves words of the eight-word pass idle
    /// runs its horizon as `K` time segments side by side in one `W·K`-word
    /// pass, repaired until each segment starts from its predecessor's end
    /// state (the `segment` module): `K` is the largest of 2, 4 and 8 whose
    /// pass fits eight words and [`DISPATCH_FOOTPRINT_BYTES`] and whose
    /// segments are at least 250 cycles long, else 1, one straight run.
    /// Every per-lane count equals the straight run's.
    ///
    /// # Errors
    ///
    /// [`CoreError::ScheduleBatch`] when `lanes` is zero, exceeds the
    /// stimulus width's capacity, or `stim.width()` is not one of
    /// {1, 2, 4, 8}; propagates slot-validation failures.
    pub fn try_run_stim(
        &self,
        stim: &PackedStimulus,
        lanes: usize,
        plan: &BlockPlan,
    ) -> Result<McStats, CoreError> {
        self.run_stim(stim, lanes, plan.budget_bytes(), None, None)
            .map(|(stats, _)| stats)
    }

    /// [`Self::try_run_stim`] on the simulator's own kernel build, or on
    /// `pin`, as `segments` time segments (`None`: the derived count),
    /// with how the horizon ran.
    pub(crate) fn run_stim(
        &self,
        stim: &PackedStimulus,
        lanes: usize,
        budget: usize,
        pin: Option<Kernel>,
        segments: Option<usize>,
    ) -> Result<(McStats, Segmentation), CoreError> {
        match stim.width() {
            1 => self.run_stim_w::<1>(stim, lanes, budget, pin, segments),
            2 => self.run_stim_w::<2>(stim, lanes, budget, pin, segments),
            4 => self.run_stim_w::<4>(stim, lanes, budget, pin, segments),
            8 => self.run_stim_w::<8>(stim, lanes, budget, pin, segments),
            w => Err(CoreError::ScheduleBatch(format!(
                "unsupported stimulus width {w} (expected 1, 2, 4 or 8)"
            ))),
        }
    }

    fn run_stim_w<const W: usize>(
        &self,
        stim: &PackedStimulus,
        lanes: usize,
        budget: usize,
        pin: Option<Kernel>,
        segments: Option<usize>,
    ) -> Result<(McStats, Segmentation), CoreError> {
        if lanes == 0 || lanes > W * LANES {
            return Err(CoreError::ScheduleBatch(format!(
                "{lanes} trials do not fit a {W}-word backend (1..={})",
                W * LANES
            )));
        }
        let cycles = stim.cycles();
        let prog = self.tape(stim, (lanes * cycles) as u64)?;
        let k = segments.unwrap_or_else(|| segment::segments_for(&prog, W, cycles));
        let (prog, rails) = (&*prog, self.obs_rails);
        let (counts, shape) = match W * k {
            _ if k == 0 || cycles < k => Err(CoreError::ScheduleBatch(format!(
                "{cycles} cycles do not make {k} segments"
            ))),
            1 => segment::run::<W, 1>(prog, stim, lanes, rails, budget, pin),
            2 => segment::run::<W, 2>(prog, stim, lanes, rails, budget, pin),
            4 => segment::run::<W, 4>(prog, stim, lanes, rails, budget, pin),
            8 => segment::run::<W, 8>(prog, stim, lanes, rails, budget, pin),
            _ => Err(CoreError::ScheduleBatch(format!(
                "{k} segments of a {W}-word matrix exceed eight words"
            ))),
        }?;
        let per_lane = counts
            .iter()
            .map(|&c| f64::from(c) / cycles as f64)
            .collect();
        Ok((
            McStats {
                cycles: cycles as u64,
                per_lane,
            },
            shape,
        ))
    }

    /// Reference path: one scalar gate-level [`Simulator`] run per
    /// schedule over the **unoptimized** netlist. Produces identical
    /// statistics to every other backend (asserted in tests) — this is the
    /// end-to-end cross-check of the optimizer, the peephole pass and the
    /// generated stimulus, and the baseline for speedup measurements.
    ///
    /// # Errors
    ///
    /// [`CoreError::ScheduleBatch`] for an empty or mixed-horizon batch;
    /// compilation failures of the raw netlist on first use.
    pub fn try_run_scalar(&self, schedules: &[Schedule]) -> Result<McStats, CoreError> {
        let cycles = Self::try_horizon(schedules)?;
        let scalar = self.scalar_ref()?;
        let [vp, sp, vn] = scalar.rails;
        let per_lane = schedules
            .iter()
            .map(|sched| {
                let mut sim = scalar.proto.clone();
                let mut count = 0u64;
                for t in 0..cycles {
                    sim.cycle(&scalar.tb.inputs_at(sched, t)).expect("runs");
                    if sim.value(vp) && !sim.value(sp) && !sim.value(vn) {
                        count += 1;
                    }
                }
                count as f64 / cycles as f64
            })
            .collect();
        Ok(McStats { cycles, per_lane })
    }

    /// Panicking wrapper around [`WideHarness::try_run_scalar`].
    ///
    /// # Panics
    ///
    /// Panics on empty or mixed-horizon batches.
    pub fn run_scalar(&self, schedules: &[Schedule]) -> McStats {
        self.try_run_scalar(schedules).expect("runs")
    }

    /// The peephole-optimized program the wide backends execute, before
    /// [`Self::try_run_stim`] folds it to a stimulus's fixed inputs (tape
    /// statistics for reports and benches, the width dispatch's
    /// footprint).
    pub fn program(&self) -> &Program {
        &self.prog
    }
}

/// Positive/negative/kill rates of a channel from a report: `None` when
/// `chan` does not belong to the report.
pub fn try_rates(report: &SimReport, chan: ChanId) -> Option<(f64, f64, f64)> {
    Some((
        report.try_positive_rate(chan)?,
        report.try_negative_rate(chan)?,
        report.try_kill_rate(chan)?,
    ))
}

/// Unwraps a checked per-channel rate for the figure binaries: prints a
/// proper error naming the channel and exits with status 1 instead of
/// panicking with `expect("channel in range")` — the satellite hardening
/// for binaries whose channel ids can come from user input.
pub fn rate_or_exit(rate: Option<f64>, what: &str) -> f64 {
    rate.unwrap_or_else(|| {
        eprintln!("error: channel {what} is not part of this simulation report");
        std::process::exit(1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes_hold() {
        let rows = run_table1(6000, 11);
        let th: Vec<f64> = rows.iter().map(|r| r.throughput).collect();
        // Row order: Active, NoBuffer, PassiveF3W, PassiveM2W, NoEarlyEval.
        assert!(th[0] > th[4] * 1.15, "active {} >> lazy {}", th[0], th[4]);
        assert!(th[0] > th[1], "active {} > no-buffer {}", th[0], th[1]);
        assert!(th[2] > th[3], "passive-F3 {} > passive-M {}", th[2], th[3]);
        assert!(th[3] < th[0], "passive-M {} < active {}", th[3], th[0]);
        // Area ordering: lazy smallest; active >= passive variants.
        let lits: Vec<usize> = rows.iter().map(|r| r.area.literals).collect();
        assert!(
            lits[4] < lits[0],
            "lazy area {} < active {}",
            lits[4],
            lits[0]
        );
        assert!(
            lits[2] <= lits[0],
            "passive F3 {} <= active {}",
            lits[2],
            lits[0]
        );
        assert!(
            lits[3] <= lits[0],
            "passive M {} <= active {}",
            lits[3],
            lits[0]
        );
    }

    #[test]
    fn table_formatting_contains_all_rows() {
        let rows = run_table1(300, 1);
        let text = format_table1(&rows);
        for r in &rows {
            assert!(text.contains(&r.label));
        }
    }

    #[test]
    fn execution_pipeline_shrinks_the_tape() {
        // The optimize → observed-cone DCE → peephole front end must leave
        // a much shorter instruction tape than a raw levelization of the
        // same system — that reduction is the per-cycle work the engine no
        // longer does.
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let h = WideHarness::new(&sys.network, sys.output_channel);
        let raw_nl = compile(&sys.network, &CompileOptions::default())
            .unwrap()
            .netlist;
        let raw = Program::compile(&raw_nl).unwrap();
        let raw_len = raw.high().len() + raw.low().len();
        let opt_len = h.program().high().len() + h.program().low().len();
        assert!(
            opt_len * 2 < raw_len,
            "optimized tape {opt_len} not under half the raw {raw_len}"
        );
        println!("tape: raw {raw_len} instrs -> optimized {opt_len}");
    }

    /// The five Fig. 9 systems, then the 30 corpus systems at the default
    /// knobs: label, network, environment and harness.
    pub(crate) fn fig9_and_corpus() -> Vec<(String, ElasticNetwork, EnvConfig, WideHarness)> {
        use elastic_core::corpus::{all_systems, Knobs};
        let mut systems: Vec<_> = Config::all()
            .into_iter()
            .map(|c| {
                let sys = paper_example(c).unwrap();
                let h = WideHarness::new(&sys.network, sys.output_channel);
                (c.label().to_string(), sys.network, sys.env_config, h)
            })
            .collect();
        for sys in all_systems(&Knobs::default()).unwrap() {
            let label = format!("{}/{}", sys.design, sys.config.tag());
            let h = WideHarness::new(&sys.network, sys.output_channel);
            systems.push((label, sys.network, sys.env, h));
        }
        assert_eq!(systems.len(), 35);
        systems
    }

    #[test]
    fn fig9_and_corpus_tape_totals_are_pinned() {
        // The instruction totals of the 35 tapes, and of the same tapes
        // folded to their environment's fixed inputs (the tapes
        // `try_run_stim` runs, pinned flip-flops folded away) at first use
        // and after the deep fold, the flip-flops the folded tapes still
        // commit, and the stimulus columns of each set. A change that
        // grows a tape or the stimulus fails here; one that shrinks them
        // updates the pins. The first-use pins fell from 1259 and 2688
        // instructions and 259 and 591 flip-flops when the fold began to
        // search the reachable states (`elastic_netlist::reach`): 32 of
        // the 35 systems finish within its budget, and every flip-flop no
        // reachable state sets folds. The other three (`Active
        // anti-tokens`, `Passive (F3->W)`, `Passive (M2->W)`) finish
        // within the deep budget: their deep folds drop all 34, 28 and 30
        // of their never-set flip-flops and keep 30 each (57, 50 and 52
        // at first use); the corpus tapes have no deep fold.
        let tapes = fig9_and_corpus();
        let len = |p: &Program| p.high().len() + p.low().len();
        let (fig9, corpus) = tapes.split_at(5);
        // (tape, first-use fold, deep fold, their flip-flops, stimulus
        // columns) summed over a set.
        let totals = |set: &[(String, ElasticNetwork, EnvConfig, WideHarness)]| {
            set.iter().fold(
                ([0; 5], 0),
                |([tape, first, deep, first_ffs, deep_ffs], cols), (label, net, env, h)| {
                    let stim = h.generate_stimulus(net, env, 1, 1, 1, 1).unwrap();
                    let p = h.folded_program(&stim).unwrap();
                    h.tape(&stim, DEEP_FOLD_WORK).unwrap();
                    let d = h.folded_program(&stim).unwrap();
                    assert!(
                        len(&d) <= len(&p)
                            && len(&p) <= len(h.program())
                            && d.ffs().len() <= p.ffs().len()
                            && p.ffs().len() <= h.program().ffs().len(),
                        "{label}: folding grew the tape"
                    );
                    (
                        [
                            tape + len(h.program()),
                            first + len(&p),
                            deep + len(&d),
                            first_ffs + p.ffs().len(),
                            deep_ffs + d.ffs().len(),
                        ],
                        cols + stim.slots().len(),
                    )
                },
            )
        };
        let (fig9_totals, fig9_cols) = totals(fig9);
        let (corpus_totals, corpus_cols) = totals(corpus);
        assert_eq!(
            fig9_totals,
            [1548, 938, 621, 202, 133],
            "Fig. 9: tape, first-use fold, deep fold, their flip-flops"
        );
        assert_eq!(
            corpus_totals,
            [4679, 1661, 1661, 378, 378],
            "corpus: tape, first-use fold, deep fold, their flip-flops"
        );
        assert_eq!((fig9_cols, corpus_cols), (33, 225), "stimulus columns");
    }

    #[test]
    fn deep_fold_switches_a_long_running_harness_once() {
        // The work that pays for the deep search is charged, not
        // simulated. `Passive (M2->W)`'s first search gives up, so the
        // set runs its 225-instruction first-use tape until it has run
        // `DEEP_FOLD_WORK` lane-cycles, and from the next call on the
        // 128-instruction deep tape, with every per-lane count unchanged;
        // no further work folds it again. `No buffer (S->W)`'s first
        // search finishes, so it keeps its one tape.
        let len = |p: &Program| p.high().len() + p.low().len();
        for (config, lens) in [
            (Config::PassiveM2W, Some((225, 128))),
            (Config::NoBufferSw, None),
        ] {
            let sys = paper_example(config).unwrap();
            let (net, env) = (&sys.network, &sys.env_config);
            let h = WideHarness::new(net, sys.output_channel);
            let (lanes, cycles) = (64, 300);
            let stim = h.generate_stimulus(net, env, 3, cycles, lanes, 1).unwrap();
            let plan = h.program().block_plan(1, usize::MAX);
            let before = h.try_run_stim(&stim, lanes, &plan).unwrap();
            let p = h.folded_program(&stim).unwrap();
            let ran = (lanes * cycles) as u64;
            h.tape(&stim, DEEP_FOLD_WORK - ran - 1).unwrap();
            assert!(Arc::ptr_eq(&p, &h.folded_program(&stim).unwrap()));
            h.tape(&stim, 1).unwrap();
            let d = h.folded_program(&stim).unwrap();
            let after = h.try_run_stim(&stim, lanes, &plan).unwrap();
            assert_eq!(before.per_lane, after.per_lane, "{}", config.label());
            h.tape(&stim, 2 * DEEP_FOLD_WORK).unwrap();
            assert!(Arc::ptr_eq(&d, &h.folded_program(&stim).unwrap()));
            match lens {
                Some(lens) => assert_eq!((len(&p), len(&d)), lens, "{}", config.label()),
                None => assert!(Arc::ptr_eq(&p, &d), "{}: folded again", config.label()),
            }
        }
    }

    #[test]
    fn folded_fig9_and_corpus_tapes_pass_the_tape_lint() {
        // The tapes the engine runs: each system's observed-cone lowering,
        // folded to its environment's fixed inputs under the first-use and
        // the deep budget, through the tape passes (E201-E204) with no
        // error, and no flip-flop either fold dropped seen away from its
        // power-up value on a run of the unfolded tape in that environment
        // (E206). The deep fold is linted only where it differs.
        use elastic_lint::tape::{check_fold_pins, lint_program};
        for (label, net, env, h) in &fig9_and_corpus() {
            let lowered = SimLowering::build(net, h.out, &[]).unwrap();
            let stim = PackedStimulus::generate(&lowered.tb, net, env, 1, 1, 1, 1).unwrap();
            let fixed = stim.fixed_inputs();
            let (first, finished) = lowered.prog.fold_inputs(fixed, SEARCH_BUDGET).unwrap();
            let mut tapes = vec![first];
            if !finished {
                tapes.push(lowered.prog.fold_inputs(fixed, DEEP_BUDGET).unwrap().0);
            }
            for folded in &tapes {
                let report = lint_program(&lowered.netlist, folded, true);
                let errors: Vec<_> = report.errors().collect();
                assert!(errors.is_empty(), "{label}: {errors:?}");
                let pins = check_fold_pins(&lowered.netlist, &lowered.prog, folded, fixed);
                assert!(pins.is_empty(), "{label}: {pins:?}");
            }
        }
    }

    #[test]
    fn no_inverter_survives_in_fig9_or_corpus_tapes() {
        // The kill- and stop-gating literals of the controllers are all
        // read as complements by the gates consuming them (AndNot, Nor2,
        // AndN inverted tails), so no `Not` instruction is left in any of
        // the five Fig. 9 tapes or the 30 corpus tapes.
        use elastic_netlist::levelize::Instr;
        for (label, _, _, h) in &fig9_and_corpus() {
            let p = h.program();
            let nots = p
                .high()
                .iter()
                .chain(p.low())
                .filter(|i| matches!(i, Instr::Not { .. }))
                .count();
            assert_eq!(nots, 0, "{label}: {nots} inverters left");
        }
    }

    #[test]
    fn try_run_rejects_bad_batches_typed() {
        // Satellite hardening: empty and mixed-horizon batches are typed
        // errors on the scalar reference path, not panics.
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let h = WideHarness::new(&sys.network, sys.output_channel);
        assert!(matches!(
            h.try_run_scalar(&[]),
            Err(CoreError::ScheduleBatch(_))
        ));
        let mut mixed = WideHarness::schedules(&sys.network, &sys.env_config, 1, 50, 2);
        mixed.push(Schedule::random(&sys.network, &sys.env_config, 9, 0, 60));
        assert!(matches!(
            h.try_run_scalar(&mixed),
            Err(CoreError::ScheduleBatch(_))
        ));
    }

    #[test]
    fn wide_and_scalar_mc_agree_exactly() {
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let h = WideHarness::new(&sys.network, sys.output_channel);
        let stim = h
            .generate_stimulus(&sys.network, &sys.env_config, 5, 400, 6, 1)
            .unwrap();
        let plan = h.program().block_plan(1, usize::MAX);
        let wide = h.try_run_stim(&stim, 6, &plan).unwrap();
        let scheds = WideHarness::schedules(&sys.network, &sys.env_config, 5, 400, 6);
        let scalar = h.run_scalar(&scheds);
        assert_eq!(wide.per_lane, scalar.per_lane);
        assert!(wide.mean() > 0.1 && wide.mean() < 1.0, "{}", wide.mean());
    }

    #[test]
    fn mc_stats_mean_and_stddev() {
        let s = McStats {
            cycles: 10,
            per_lane: vec![0.2, 0.4],
        };
        assert!((s.mean() - 0.3).abs() < 1e-12);
        assert!((s.stddev() - (0.02f64).sqrt()).abs() < 1e-12);
        let one = McStats {
            cycles: 10,
            per_lane: vec![0.5],
        };
        assert_eq!(one.stddev(), 0.0);
    }

    #[test]
    fn stimulus_path_matches_schedule_path_exactly() {
        // The streaming producer/consumer pair (generate_stimulus +
        // try_run_stim) must be bit-identical to the scalar reference on
        // the same seeds' schedules for every width, for blocked
        // execution and on every kernel build this CPU runs, on the Fig. 9
        // tape and a corpus tape.
        use elastic_core::corpus::{self, CorpusConfig, Knobs};
        let fig9 = paper_example(Config::ActiveAntiTokens).unwrap();
        let design = corpus::build("rr_arbiter", CorpusConfig::Active, &Knobs::default()).unwrap();
        let (seed, cycles) = (21u64, 300usize);
        for (net, out, env) in [
            (&fig9.network, fig9.output_channel, &fig9.env_config),
            (&design.network, design.output_channel, &design.env),
        ] {
            let h = WideHarness::new(net, out);
            let batch = h.run_scalar(&WideHarness::schedules(net, env, seed, cycles, 70));
            for width in [1usize, 2, 4, 8] {
                let lanes = batch.per_lane.len().min(width * LANES);
                let stim = h
                    .generate_stimulus(net, env, seed, cycles, lanes, width)
                    .unwrap();
                for budget in [usize::MAX, 256] {
                    let plan = h.program().block_plan(width, budget);
                    let streamed = h.try_run_stim(&stim, lanes, &plan).unwrap();
                    assert_eq!(
                        streamed.per_lane,
                        batch.per_lane[..lanes],
                        "width {width} budget {budget}"
                    );
                    for kernel in Kernel::available() {
                        let (pinned, _) = h
                            .run_stim(&stim, lanes, budget, Some(kernel), None)
                            .unwrap();
                        assert_eq!(
                            pinned.per_lane, streamed.per_lane,
                            "{kernel:?} width {width} budget {budget}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn try_run_stim_rejects_bad_lane_counts() {
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let h = WideHarness::new(&sys.network, sys.output_channel);
        let stim = h
            .generate_stimulus(&sys.network, &sys.env_config, 3, 50, 64, 1)
            .unwrap();
        let plan = h.program().block_plan(1, usize::MAX);
        assert!(matches!(
            h.try_run_stim(&stim, 0, &plan),
            Err(CoreError::ScheduleBatch(_))
        ));
        assert!(matches!(
            h.try_run_stim(&stim, 65, &plan),
            Err(CoreError::ScheduleBatch(_))
        ));
    }

    #[test]
    fn dispatch_picks_sane_widths() {
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let h = WideHarness::new(&sys.network, sys.output_channel);
        let p = h.program();
        // The paper example's tape is tiny, so trials drive the choice.
        assert_eq!(dispatch_backend(p, 1), Backend::Wide1);
        assert_eq!(dispatch_backend(p, LANES), Backend::Wide1);
        assert_eq!(dispatch_backend(p, LANES + 1), Backend::Wide2);
        assert_eq!(dispatch_backend(p, 4 * LANES + 1), Backend::Wide8);
        assert_eq!(dispatch_backend(p, 100_000), Backend::Wide8);
        // Never scalar, and the choice always holds the trials it is asked
        // about (or is the widest backend).
        for trials in [1, 63, 64, 65, 500, 512, 513] {
            let b = dispatch_backend(p, trials);
            assert!(b != Backend::Scalar);
            assert!(b.lanes() >= trials.min(MAX_TRIALS_PER_RUN));
        }
    }

    #[test]
    fn backend_sel_parses_auto_and_fixed() {
        assert_eq!(BackendSel::parse("auto"), Some(BackendSel::Auto));
        assert_eq!(
            BackendSel::parse("wide4"),
            Some(BackendSel::Fixed(Backend::Wide4))
        );
        assert_eq!(BackendSel::parse("nope"), None);
        assert_eq!(BackendSel::Auto.label(), "auto");
        assert_eq!(BackendSel::Fixed(Backend::Scalar).label(), "scalar");
        assert_eq!(BackendSel::default(), BackendSel::Auto);
    }

    #[test]
    fn wide_mc_reproduces_table1_ordering() {
        // The wide Monte-Carlo backend must reproduce the Table 1 shape:
        // active anti-tokens beat the lazy join clearly, averaged over many
        // independent schedules.
        let mut means = Vec::new();
        for config in [Config::ActiveAntiTokens, Config::NoEarlyEval] {
            let sys = paper_example(config).unwrap();
            let h = WideHarness::new(&sys.network, sys.output_channel);
            let stim = h
                .generate_stimulus(&sys.network, &sys.env_config, 11, 1500, 32, 1)
                .unwrap();
            let plan = h.program().block_plan(1, usize::MAX);
            means.push(h.try_run_stim(&stim, 32, &plan).unwrap().mean());
        }
        assert!(
            means[0] > means[1] * 1.1,
            "active {} should beat lazy {}",
            means[0],
            means[1]
        );
    }
}
