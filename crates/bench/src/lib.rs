//! Shared harness code for the table/figure regeneration binaries and the
//! Criterion benches.
//!
//! The Monte-Carlo machinery lives here: [`SimLowering`] is the one
//! compile-for-simulation pipeline — netlist optimization, observed-cone
//! dead-code elimination, testbench, tape peephole — and [`WideHarness`]
//! runs a lowered network over up to [`MAX_TRIALS_PER_RUN`] independent
//! random schedules per run through the multi-word bit-parallel
//! [`elastic_netlist::wide::WideSim`] backend, with a scalar reference path
//! on the *unoptimized* netlist ([`WideHarness::run_scalar`]) for
//! end-to-end equivalence checks and speedup measurements. The [`exp`]
//! module scales single runs to arbitrary-size campaigns sharded across OS
//! threads; [`stabilize`] runs the fault campaigns on the same lowering.

pub mod exp;
pub mod fuzz;
pub mod stabilize;
mod stream;

use std::sync::OnceLock;

use elastic_core::channel::ChanId;
use elastic_core::compile::{compile, CompileOptions, FaultInjection};
use elastic_core::network::ElasticNetwork;
use elastic_core::sim::{BehavSim, EnvConfig, RandomEnv};
use elastic_core::stats::SimReport;
use elastic_core::systems::{paper_example, Config, PaperSystem};
use elastic_core::verify::{NetlistTestbench, PackedStimulus, Schedule};
use elastic_core::CoreError;
use elastic_netlist::area::AreaReport;
use elastic_netlist::levelize::{BlockPlan, Program};
use elastic_netlist::opt::{optimize, optimize_observed};
use elastic_netlist::sim::Simulator;
use elastic_netlist::wide::{lane_masks, WideSim, LANES};
use elastic_netlist::{NetId, Netlist};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One scalar gate-level [`Simulator`] run per trial, raw netlist.
    Scalar,
    /// Single-word compiled backend (64 trials per pass).
    Wide1,
    /// Two-word compiled backend (128 trials per pass).
    Wide2,
    /// Four-word compiled backend (256 trials per pass).
    Wide4,
    /// Eight-word compiled backend (512 trials per pass) — the default.
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
/// 1. **optimize** — [`CompileOptions::optimize`] reruns the paper's
///    "simple logic synthesis" (Sect. 6) ahead of simulation, with one
///    corruption gate and `fault.<channel>.<rail>` arm input spliced in per
///    fault site ([`CompileOptions::faults`]);
/// 2. **observed-cone DCE** — [`optimize_observed`] keeps only the logic
///    that can influence the output channel's `V⁺/S⁺/V⁻` rails and all four
///    rails of every fault-site channel (which keeps each corruption gate
///    and its arm input);
/// 3. **testbench** — [`NetlistTestbench::with_faults`] resolves the
///    stimulus columns on the observed netlist, fault arms last in site
///    order;
/// 4. **levelize + peephole** — [`Program::compile_optimized`] emits the
///    instruction tapes and collapses copies, fuses inverters and drops
///    phase-dead recomputation.
///
/// Payloads are [`MC_DATA_WIDTH`] bits wide.
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
        let opt = compile(
            net,
            &CompileOptions {
                data_width: MC_DATA_WIDTH,
                optimize: true,
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
                let r = &opt.channels[chan.index()];
                Ok([r.vp, r.sp, r.vn, r.sn])
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        let o = &opt.channels[out.index()];
        // `optimize_observed` keeps the first occurrence of a rail observed
        // twice (a site on the output channel, two sites on one channel).
        let observe: Vec<NetId> = [o.vp, o.sp, o.vn]
            .into_iter()
            .chain(site_rails.iter().flatten().copied())
            .collect();
        let (netlist, map) = optimize_observed(&opt.netlist, &observe).map_err(CoreError::from)?;
        let remap = |id: NetId| map[id.index()].expect("observed rails survive as outputs");
        let tb = NetlistTestbench::with_faults(net, &netlist, MC_DATA_WIDTH, faults)?;
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
/// and [`WideHarness::try_run_stim`] streams it through a [`WideSim<W>`]
/// with bit-sliced transfer counting. The scalar reference path
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
    /// path all `Wide*` backends execute.
    prog: Program,
    /// Testbench resolved against the observed-cone netlist.
    wide_tb: NetlistTestbench,
    /// The observed channel's `(V⁺, S⁺, V⁻)` rails in the observed-cone
    /// netlist.
    obs_rails: [NetId; 3],
}

/// The scalar reference path of a [`WideHarness`]: the raw (unoptimized)
/// compile's testbench, its power-up-state [`Simulator`] (cloned per
/// reference run) and the observed channel's `(V⁺, S⁺, V⁻)` raw rails.
struct ScalarRef {
    tb: NetlistTestbench,
    proto: Simulator,
    rails: [NetId; 3],
}

/// Payload width used by the Monte-Carlo harness (matches the 2-bit opcode
/// space of the paper's example).
pub const MC_DATA_WIDTH: usize = 2;

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
            wide_tb: lowered.tb,
            obs_rails: lowered.out,
        })
    }

    /// The scalar reference path, compiled on first use.
    fn scalar_ref(&self) -> Result<&ScalarRef, CoreError> {
        self.scalar
            .get_or_init(|| {
                let compiled = compile(
                    &self.net,
                    &CompileOptions {
                        data_width: MC_DATA_WIDTH,
                        ..CompileOptions::default()
                    },
                )?;
                let r = &compiled.channels[self.out.index()];
                Ok(ScalarRef {
                    tb: NetlistTestbench::new(&self.net, &compiled.netlist, MC_DATA_WIDTH)?,
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

    /// Generates `lanes` independent random schedules with seeds
    /// `seed..seed + lanes` (wrapping at `u64::MAX`, matching the shard
    /// seed derivation of `exp::shards_for`).
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
        (0..lanes as u64)
            .map(|k| Schedule::random(net, env, seed.wrapping_add(k), cycles))
            .collect()
    }

    /// Generates a packed stimulus matrix for `lanes` trials with
    /// [`PackedStimulus::generate`] — the streaming pipeline's producer
    /// stage. Lane `k` replays the RNG stream of seed `seed + k`, so
    /// schedule `k` of [`WideHarness::schedules`] with the same arguments
    /// is its scalar view.
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

    /// Executes a pre-built stimulus matrix — the streaming pipeline's
    /// consumer stage. The word width is dispatched at runtime from
    /// `stim.width()` onto the matching monomorphized backend, and the tape
    /// runs through `plan`'s cache blocks
    /// ([`WideSim::cycle_packed_blocked`]). Only the first `lanes` trials
    /// count toward the statistics; trailing lanes of a partial word are
    /// masked out.
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
        match stim.width() {
            1 => self.run_stim_w::<1>(stim, lanes, plan),
            2 => self.run_stim_w::<2>(stim, lanes, plan),
            4 => self.run_stim_w::<4>(stim, lanes, plan),
            8 => self.run_stim_w::<8>(stim, lanes, plan),
            w => Err(CoreError::ScheduleBatch(format!(
                "unsupported stimulus width {w} (expected 1, 2, 4 or 8)"
            ))),
        }
    }

    fn run_stim_w<const W: usize>(
        &self,
        stim: &PackedStimulus,
        lanes: usize,
        plan: &BlockPlan,
    ) -> Result<McStats, CoreError> {
        if lanes == 0 || lanes > W * LANES {
            return Err(CoreError::ScheduleBatch(format!(
                "{lanes} trials do not fit a {W}-word backend (1..={})",
                W * LANES
            )));
        }
        let cycles = stim.cycles() as u64;
        let mut sim: WideSim<W> = WideSim::from_program(self.prog.clone());
        sim.check_input_slots(stim.slots())
            .map_err(CoreError::from)?;
        let live = lane_masks::<W>(lanes);
        let [vp, sp, vn] = self.obs_rails;
        let mut counts = vec![0u32; lanes];
        // Bit-sliced vertical counters: per lane word, 8 planes hold each
        // lane's transfer count for up to 255 cycles (plane `b` is bit `b`
        // of every lane's count). Adding a transfer mask is a ripple-carry
        // over the planes — ~2 word ops per cycle on average, instead of
        // one `trailing_zeros` round-trip per set bit (≈ 48 on a dense
        // word). Flushes decode the planes into the scalar counts.
        let mut planes = [[0u64; 8]; W];
        let mut window = 0u32;
        let flush = |counts: &mut [u32], planes: &mut [[u64; 8]; W]| {
            for (w, pl) in planes.iter_mut().enumerate() {
                for (b, plane) in pl.iter_mut().enumerate() {
                    let mut m = *plane;
                    while m != 0 {
                        counts[w * LANES + m.trailing_zeros() as usize] += 1 << b;
                        m &= m - 1;
                    }
                    *plane = 0;
                }
            }
        };
        for t in 0..cycles as usize {
            sim.cycle_packed_blocked(stim.slots(), stim.row(t), plan);
            for (w, &mask) in live.iter().enumerate() {
                let mut carry = sim.word(vp, w) & !sim.word(sp, w) & !sim.word(vn, w) & mask;
                for plane in planes[w].iter_mut() {
                    if carry == 0 {
                        break;
                    }
                    let c = *plane & carry;
                    *plane ^= carry;
                    carry = c;
                }
                debug_assert_eq!(carry, 0, "255-cycle window overflowed a lane counter");
            }
            window += 1;
            if window == 255 {
                flush(&mut counts, &mut planes);
                window = 0;
            }
        }
        if window > 0 {
            flush(&mut counts, &mut planes);
        }
        Ok(McStats {
            cycles,
            per_lane: counts
                .iter()
                .map(|&c| f64::from(c) / cycles as f64)
                .collect(),
        })
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

    /// The peephole-optimized program the wide backends execute (tape
    /// statistics for reports and benches).
    pub fn program(&self) -> &Program {
        &self.prog
    }
}

/// Outcome of a wide-vs-scalar speedup measurement.
#[derive(Debug, Clone)]
pub struct SpeedupReport {
    /// Trials (lanes) measured.
    pub lanes: usize,
    /// Cycles per trial.
    pub cycles: u64,
    /// Wall-clock seconds of one engine worker on the wide backend:
    /// stimulus generation and tape execution.
    pub wide_secs: f64,
    /// Wall-clock seconds of one worker on the scalar backend: schedule
    /// generation and one gate-level run per trial.
    pub scalar_secs: f64,
    /// Whether both paths produced identical per-lane rates.
    pub rates_match: bool,
}

impl SpeedupReport {
    /// Per-trial speedup of the wide backend over the scalar path.
    pub fn speedup(&self) -> f64 {
        self.scalar_secs / self.wide_secs
    }
}

/// Times one engine worker ([`exp::run_prepared`] on the dispatched wide
/// backend) against one worker of the scalar backend, which runs
/// [`WideHarness::try_run_scalar`], on the same point, and cross-checks
/// their per-lane rates. The system is compiled once, outside both times.
///
/// # Errors
///
/// Everything [`exp::run_experiment`] reports.
pub fn measure_speedup(point: &exp::Experiment) -> Result<SpeedupReport, exp::ExpError> {
    let (network, out) = point.system.build()?;
    let harness = WideHarness::try_new(&network, out)?;
    let one = exp::EngineOpts {
        threads: 1,
        ..exp::EngineOpts::default()
    };
    let wide = exp::run_prepared(&harness, &network, point, &one)?;
    let scalar_backend = exp::EngineOpts {
        backend: BackendSel::Fixed(Backend::Scalar),
        ..one
    };
    let scalar = exp::run_prepared(&harness, &network, point, &scalar_backend)?;
    Ok(SpeedupReport {
        lanes: point.trials,
        cycles: wide.stats.cycles,
        wide_secs: wide.wall_secs,
        scalar_secs: scalar.wall_secs,
        rates_match: wide.stats.per_lane == scalar.stats.per_lane,
    })
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
        let raw_nl = compile(
            &sys.network,
            &CompileOptions {
                data_width: MC_DATA_WIDTH,
                ..CompileOptions::default()
            },
        )
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
        mixed.push(Schedule::random(&sys.network, &sys.env_config, 9, 60));
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
        // the same seeds' schedules for every width and for blocked
        // execution.
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let h = WideHarness::new(&sys.network, sys.output_channel);
        let (seed, cycles, lanes) = (21u64, 300usize, 70usize);
        let scheds = WideHarness::schedules(&sys.network, &sys.env_config, seed, cycles, lanes);
        let batch = h.run_scalar(&scheds);
        for width in [2usize, 4, 8] {
            let stim = h
                .generate_stimulus(&sys.network, &sys.env_config, seed, cycles, lanes, width)
                .unwrap();
            for budget in [usize::MAX, 256] {
                let plan = h.program().block_plan(width, budget);
                let streamed = h.try_run_stim(&stim, lanes, &plan).unwrap();
                assert_eq!(
                    streamed.per_lane, batch.per_lane,
                    "width {width} budget {budget}"
                );
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
