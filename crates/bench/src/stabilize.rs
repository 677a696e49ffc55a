//! Fault-campaign Monte-Carlo engine — the core of the
//! `stabilization_campaign` (`BENCH_pr9.json`) and `fault_campaign`
//! (`BENCH_pr7.json`) binaries.
//!
//! The engine drives [`FaultProcess`]es swept over *classes × intensities
//! × generated topologies*. The one-shot classes ([`FAULT_CLASSES`]) arm
//! one [`FaultProcess::Once`] window per trial, its length the intensity,
//! at a cycle where [`injectable_site`] found the fault *effective*
//! against a clean behavioural pre-run; the process classes
//! ([`PROCESS_CLASSES`]) are `periodic` re-injection, `sustained` stuck-at
//! intervals, `correlated` multi-site bursts and a `byzantine` per-side
//! channel adversary. Every site of a process becomes a corruption gate
//! with its own trailing stimulus column ([`SimLowering`]); every lane
//! runs an independent, seeded instance of the process
//! ([`FaultProcess::windows`]) — 64–512 fault instances per tape pass.
//!
//! Each lane feeds a stabilization tracker
//! ([`RecoveryDetector::fault_event`]) on the primary site's rails: at
//! every disturbance-interval start the tracker retimes, so
//! [`RecoveryDetector::stabilization_time`] reports the cycles from the
//! **last** fault event to sustained `(I*R*T)*` conformance —
//! re-injection mid-recovery resets the clock instead of silently keeping
//! the first recovery. For a one-shot window that is the recovery time:
//! cycles from the injection to the end of the last violating cycle. Lanes
//! that never stabilize contribute to the non-stabilization rate and
//! report their steady-state [`RecoveryDetector::violation_rate`] instead.
//! A second, unarmed pass of the identical stimulus gives each lane's
//! throughput dip, yielding a dip-versus-intensity curve per class.
//!
//! [`StabilizationReport::to_json`] renders the stabilization report and
//! [`StabilizationReport::to_recovery_json`] the one-shot recovery report
//! (per class: recovery p50/p99, non-recovery rate, mean dip over the
//! disturbed lanes).
//!
//! The report closes with explicit-state **convergence verdicts**
//! ([`check_network_convergence`]): for the small named systems (the
//! fig. 8 pipeline controllers and the paper's fig. 9 configurations) and
//! the first few generated topologies, the model checker explores every
//! fault-reachable controller state and decides whether all fault-free
//! runs re-enter the legal state set — the convergence half of a
//! self-stabilization proof. Systems too wide for exhaustive exploration
//! record a typed skip, never a wedged campaign. [`run_fault_sweep`] runs
//! the sweep without this section.
//!
//! Jobs run through the generic streaming pipeline (`stream::run_pipeline`)
//! with index-derived seeds and in-order reduction, so the whole report is
//! bit-identical for every thread count and queue depth.

use std::time::Instant;

use elastic_core::channel::ChannelSignals;
use elastic_core::compile::{FaultInjection, FaultRail};
use elastic_core::fault::FaultProcess;
use elastic_core::gen::{generate, injectable_site, TopoParams};
use elastic_core::protocol::RecoveryDetector;
use elastic_core::systems::{linear_pipeline, paper_example, Config};
use elastic_core::verify::{check_network_convergence, PackedStimulus};
use elastic_core::CoreError;
use elastic_lint::json::Json;
use elastic_mc::{BridgeOptions, ConvergenceReport};
use elastic_netlist::levelize::Program;
use elastic_netlist::wide::{lane_masks, WideSim, LANES};
use elastic_netlist::NetId;

use crate::exp::{default_threads, effective_threads};
use crate::stream::run_pipeline;
use crate::{dispatch_backend, SimLowering, MAX_TRIALS_PER_RUN};

/// Every one-shot rail-fault class, in report order: each runs as a
/// [`FaultProcess::Once`] window whose length is the intensity. (The
/// structural `drop_anti_token` is a *lowering* sabotage, not a transient
/// rail fault, and lives in the fuzz campaign's inject mode instead.)
pub const FAULT_CLASSES: [&str; 5] = [
    "rail_flip",
    "stuck_at_0",
    "stuck_at_1",
    "duplicate_token",
    "lose_token",
];

/// Every fault-process class, in report order.
pub const PROCESS_CLASSES: [&str; 4] = ["periodic", "sustained", "correlated", "byzantine"];

/// Campaign options (the `stabilization_campaign` and `fault_campaign` CLI
/// surfaces).
#[derive(Debug, Clone)]
pub struct StabilizationOpts {
    /// Generated topologies to sweep (seeds `seed..seed + topologies`).
    pub topologies: usize,
    /// Base seed for topology sampling and schedule generation.
    pub seed: u64,
    /// Cycles per trial (the horizon): at least 16 with one-shot classes
    /// only, 32 once a process class runs.
    pub cycles: usize,
    /// Trials (= packed lanes) per job, 1..=512.
    pub lanes: usize,
    /// Base period of the periodic and byzantine processes, and the unit
    /// of the sustained interval length (at least 2).
    pub period: usize,
    /// Intensity sweep: the window length of a one-shot class (in
    /// `1..=cycles`); armed cycles per period (periodic/byzantine),
    /// period-multiples of stuck-at (sustained) or bursts (correlated) of
    /// a process class (in `1..=period`).
    pub intensities: Vec<usize>,
    /// Violation-free cycles required at the horizon for a lane to count
    /// as stabilized ([`RecoveryDetector::stabilization_time`]).
    pub recovery_tail: usize,
    /// Worker threads (clamped like the throughput engine).
    pub threads: usize,
    /// Streaming-pipeline job queue depth.
    pub queue: usize,
    /// Classes to drive (from [`FAULT_CLASSES`] and [`PROCESS_CLASSES`]).
    pub classes: Vec<String>,
    /// Leading generated topologies additionally sent to the model
    /// checker for a convergence verdict (budget-gated; 0 disables).
    pub mc_topologies: usize,
}

impl Default for StabilizationOpts {
    fn default() -> Self {
        StabilizationOpts {
            topologies: 100,
            seed: 1,
            cycles: 256,
            lanes: 64,
            period: 32,
            intensities: vec![1, 2, 4],
            recovery_tail: 16,
            threads: default_threads(),
            queue: 2,
            classes: PROCESS_CLASSES.iter().map(|&c| c.to_string()).collect(),
            mc_topologies: 4,
        }
    }
}

/// One compiled-and-armed campaign job, ready to execute.
struct StabJob {
    /// Peephole-optimized tape over the observed-cone netlist.
    prog: Program,
    /// The primary site's `(V⁺, S⁺, V⁻, S⁻)` rails — the tracker's feed.
    site: [NetId; 4],
    /// The output channel's `(V⁺, S⁺, V⁻)` rails — throughput counting.
    out: [NetId; 3],
    /// Stimulus with every site's per-lane process windows armed.
    armed: PackedStimulus,
    /// The identical stimulus, all arm columns zero.
    baseline: PackedStimulus,
    /// Per-lane fault-event cycles (starts of merged disturbance
    /// intervals), sorted ascending.
    events: Vec<Vec<u64>>,
    /// Display name of the primary faulted channel.
    site_name: String,
}

/// Per-lane outcome of one armed trial under a fault process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneStabilization {
    /// The armed run violated an obligation the unarmed run did not.
    pub disturbed: bool,
    /// The trace re-entered `(I*R*T)*` and held it through the final
    /// recovery tail ([`RecoveryDetector::stabilization_time`] is `Some`).
    pub stabilized: bool,
    /// Cycles from the last fault event to sustained conformance (0 for
    /// unstabilized or undisturbed lanes).
    pub stab_cycles: u64,
    /// Violating cycles per observed cycle — the steady-state disturbance
    /// level when the process never quiesces.
    pub violation_rate: f64,
    /// Fault-free transfer rate minus armed transfer rate at the output.
    pub dip: f64,
}

/// Outcome of one topology × class × intensity job.
#[derive(Debug, Clone)]
pub struct StabJobOutcome {
    /// Topology index within the campaign.
    pub topology: usize,
    /// Process class label.
    pub class: String,
    /// Intensity this job ran at.
    pub intensity: usize,
    /// Primary faulted channel; `None` when the topology had no usable
    /// process of this class (skipped, not failed).
    pub site: Option<String>,
    /// Per-lane outcomes (empty for skipped jobs).
    pub lanes: Vec<LaneStabilization>,
}

/// One intensity point of a class's stabilization curve.
#[derive(Debug, Clone)]
pub struct IntensityStats {
    /// Intensity of this point.
    pub intensity: usize,
    /// Topologies with a usable process at this intensity.
    pub sites: usize,
    /// Armed trials across those topologies.
    pub trials: usize,
    /// Trials whose tracker observed an injected violation.
    pub disturbed: usize,
    /// Disturbed trials that stabilized.
    pub stabilized: usize,
    /// Median stabilization time over disturbed-and-stabilized trials.
    pub stab_p50: f64,
    /// 99th-percentile stabilization time (nearest rank).
    pub stab_p99: f64,
    /// `1 − stabilized/disturbed` (0 when nothing was disturbed).
    pub non_stabilization_rate: f64,
    /// Mean steady-state violation rate over disturbed trials.
    pub mean_violation_rate: f64,
    /// Mean output-throughput dip over **all** armed trials — one point
    /// of the class's dip-versus-intensity curve (not conditioned on
    /// disturbance: a sustained stall costs throughput while staying
    /// protocol-legal).
    pub mean_dip: f64,
    /// Mean output-throughput dip over the **disturbed** trials only — the
    /// recovery report's dip ([`StabilizationReport::to_recovery_json`]).
    pub mean_disturbed_dip: f64,
}

/// Aggregated statistics of one process class.
#[derive(Debug, Clone)]
pub struct ProcessClassStats {
    /// Process class label.
    pub class: String,
    /// Median stabilization time over every disturbed-and-stabilized
    /// trial of the class (all intensities pooled).
    pub stab_p50: f64,
    /// 99th-percentile stabilization time over the same pool.
    pub stab_p99: f64,
    /// `1 − stabilized/disturbed` over the pool.
    pub non_stabilization_rate: f64,
    /// Mean steady-state violation rate over disturbed trials.
    pub mean_violation_rate: f64,
    /// The dip-versus-intensity curve, in `opts.intensities` order.
    pub points: Vec<IntensityStats>,
}

/// Convergence verdict of one system, or the typed reason it was skipped.
#[derive(Debug, Clone)]
pub struct McVerdict {
    /// System display name.
    pub system: String,
    /// The explicit-state report when exploration fit the budget.
    pub report: Option<ConvergenceReport>,
    /// The typed error when it did not (budget, width, compile).
    pub error: Option<String>,
}

/// The whole campaign, serialized to `BENCH_pr9.json`
/// ([`Self::to_json`]) or, for a one-shot sweep, `BENCH_pr7.json`
/// ([`Self::to_recovery_json`]).
#[derive(Debug, Clone)]
pub struct StabilizationReport {
    /// The options the campaign ran with.
    pub opts: StabilizationOpts,
    /// Worker threads actually spawned.
    pub threads: usize,
    /// Per-class aggregates, in `opts.classes` order.
    pub classes: Vec<ProcessClassStats>,
    /// Per-job outcomes (topology-major, class, then intensity).
    pub jobs: Vec<StabJobOutcome>,
    /// Convergence verdicts: named systems first, then the leading
    /// generated topologies (empty after [`run_fault_sweep`]).
    pub mc: Vec<McVerdict>,
    /// Wall-clock seconds for the whole campaign.
    pub wall_secs: f64,
}

/// Nearest-rank percentile of a sorted sample (`NaN` for an empty one —
/// rendered as JSON `null`).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// The pooled lanes of a set of jobs.
struct Pool {
    /// Jobs that ran (had a site).
    sites: usize,
    trials: usize,
    disturbed: usize,
    /// Sorted stabilization times of the disturbed-and-stabilized lanes.
    samples: Vec<u64>,
    /// Σ violation rate over the disturbed lanes.
    violation_rate: f64,
    /// Σ dip over **all** lanes — a sustained stall dents throughput
    /// without ever violating the protocol, so the dip curve must not
    /// condition on disturbance.
    dip: f64,
    /// Σ dip over the disturbed lanes (the recovery report's dip).
    disturbed_dip: f64,
}

impl Pool {
    fn of(jobs: &[&StabJobOutcome]) -> Pool {
        let lanes: Vec<&LaneStabilization> = jobs.iter().flat_map(|j| j.lanes.iter()).collect();
        let disturbed: Vec<&&LaneStabilization> = lanes.iter().filter(|l| l.disturbed).collect();
        let mut samples: Vec<u64> = disturbed
            .iter()
            .filter(|l| l.stabilized)
            .map(|l| l.stab_cycles)
            .collect();
        samples.sort_unstable();
        Pool {
            sites: jobs.iter().filter(|j| j.site.is_some()).count(),
            trials: lanes.len(),
            disturbed: disturbed.len(),
            samples,
            violation_rate: disturbed.iter().map(|l| l.violation_rate).sum(),
            dip: lanes.iter().map(|l| l.dip).sum(),
            disturbed_dip: disturbed.iter().map(|l| l.dip).sum(),
        }
    }

    /// `1 − stabilized/disturbed` (0 when nothing was disturbed).
    fn non_stabilization_rate(&self) -> f64 {
        if self.disturbed == 0 {
            0.0
        } else {
            1.0 - self.samples.len() as f64 / self.disturbed as f64
        }
    }

    /// `total / disturbed` (0 when nothing was disturbed).
    fn per_disturbed(&self, total: f64) -> f64 {
        if self.disturbed == 0 {
            0.0
        } else {
            total / self.disturbed as f64
        }
    }
}

impl StabilizationReport {
    /// Aggregates per-job outcomes into per-class curves.
    fn aggregate(opts: &StabilizationOpts, jobs: &[StabJobOutcome]) -> Vec<ProcessClassStats> {
        opts.classes
            .iter()
            .map(|class| {
                let of_class: Vec<&StabJobOutcome> =
                    jobs.iter().filter(|j| &j.class == class).collect();
                let points = opts
                    .intensities
                    .iter()
                    .map(|&intensity| {
                        let cell: Vec<&StabJobOutcome> = of_class
                            .iter()
                            .filter(|j| j.intensity == intensity)
                            .copied()
                            .collect();
                        let p = Pool::of(&cell);
                        IntensityStats {
                            intensity,
                            sites: p.sites,
                            trials: p.trials,
                            disturbed: p.disturbed,
                            stabilized: p.samples.len(),
                            stab_p50: percentile(&p.samples, 0.50),
                            stab_p99: percentile(&p.samples, 0.99),
                            non_stabilization_rate: p.non_stabilization_rate(),
                            mean_violation_rate: p.per_disturbed(p.violation_rate),
                            mean_dip: if p.trials == 0 {
                                0.0
                            } else {
                                p.dip / p.trials as f64
                            },
                            mean_disturbed_dip: p.per_disturbed(p.disturbed_dip),
                        }
                    })
                    .collect();
                let p = Pool::of(&of_class);
                ProcessClassStats {
                    class: class.clone(),
                    stab_p50: percentile(&p.samples, 0.50),
                    stab_p99: percentile(&p.samples, 0.99),
                    non_stabilization_rate: p.non_stabilization_rate(),
                    mean_violation_rate: p.per_disturbed(p.violation_rate),
                    points,
                }
            })
            .collect()
    }

    /// The stabilization report as a JSON object.
    pub fn to_json(&self) -> Json {
        let o = &self.opts;
        let name = format!(
            "pr9_stabilization_campaign topologies={} cycles={} lanes={} period={} tail={} seed={}",
            o.topologies, o.cycles, o.lanes, o.period, o.recovery_tail, o.seed
        );
        let classes = self.classes.iter().map(|c| {
            let curve = c.points.iter().map(|p| {
                Json::object([
                    ("intensity", p.intensity.into()),
                    ("sites", p.sites.into()),
                    ("trials", p.trials.into()),
                    ("disturbed", p.disturbed.into()),
                    ("stabilized", p.stabilized.into()),
                    ("stab_p50", p.stab_p50.into()),
                    ("stab_p99", p.stab_p99.into()),
                    ("non_stabilization_rate", p.non_stabilization_rate.into()),
                    ("mean_violation_rate", p.mean_violation_rate.into()),
                    ("mean_throughput_dip", p.mean_dip.into()),
                ])
            });
            Json::object([
                ("class", c.class.as_str().into()),
                ("stab_p50", c.stab_p50.into()),
                ("stab_p99", c.stab_p99.into()),
                ("non_stabilization_rate", c.non_stabilization_rate.into()),
                ("mean_violation_rate", c.mean_violation_rate.into()),
                ("curve", Json::array(curve)),
            ])
        });
        let mc = self.mc.iter().map(|v| match &v.report {
            Some(r) => Json::object([
                ("system", v.system.as_str().into()),
                ("status", "ok".into()),
                ("converging", r.converging.into()),
                ("ff_states", r.ff_states.into()),
                ("legal", r.legal.into()),
                ("diverging", r.diverging.into()),
                ("convergence_bound", r.convergence_bound.into()),
                ("fault_inputs", r.fault_inputs.into()),
            ]),
            None => Json::object([
                ("system", v.system.as_str().into()),
                ("status", "skipped".into()),
                ("error", v.error.as_deref().unwrap_or("unknown").into()),
            ]),
        });
        Json::object([
            ("campaign", name.into()),
            ("topologies", o.topologies.into()),
            ("cycles", o.cycles.into()),
            ("lanes", o.lanes.into()),
            ("period", o.period.into()),
            ("intensities", Json::array(o.intensities.iter().copied())),
            ("recovery_tail", o.recovery_tail.into()),
            ("seed", o.seed.into()),
            ("threads", self.threads.into()),
            ("queue", o.queue.into()),
            ("wall_secs", self.wall_secs.into()),
            ("classes", Json::array(classes)),
            ("mc", Json::array(mc)),
        ])
    }

    /// A one-shot sweep as the recovery report: per class, the sites,
    /// trials, disturbed and recovered (stabilized) lanes, the
    /// recovery-time p50/p99, the non-recovery rate and the mean throughput
    /// dip over the **disturbed** lanes. The report has a single window
    /// length: the first intensity, whose curve point each class renders.
    pub fn to_recovery_json(&self) -> Json {
        let o = &self.opts;
        let window = o.intensities[0];
        let name = format!(
            "pr7_fault_campaign topologies={} cycles={} lanes={} window={window} tail={} seed={}",
            o.topologies, o.cycles, o.lanes, o.recovery_tail, o.seed
        );
        let classes = self.classes.iter().map(|c| {
            let p = &c.points[0];
            Json::object([
                ("class", c.class.as_str().into()),
                ("sites", p.sites.into()),
                ("trials", p.trials.into()),
                ("disturbed", p.disturbed.into()),
                ("recovered", p.stabilized.into()),
                ("recovery_p50", p.stab_p50.into()),
                ("recovery_p99", p.stab_p99.into()),
                ("non_recovery_rate", p.non_stabilization_rate.into()),
                ("mean_throughput_dip", p.mean_disturbed_dip.into()),
            ])
        });
        Json::object([
            ("campaign", name.into()),
            ("topologies", o.topologies.into()),
            ("cycles", o.cycles.into()),
            ("lanes", o.lanes.into()),
            ("window_len", window.into()),
            ("recovery_tail", o.recovery_tail.into()),
            ("seed", o.seed.into()),
            ("threads", self.threads.into()),
            ("requested_threads", o.threads.into()),
            ("queue", o.queue.into()),
            ("wall_secs", self.wall_secs.into()),
            ("classes", Json::array(classes)),
        ])
    }
}

/// Constructs the fault process a job drives, or `None` when the sampled
/// topology offers no usable site for the class — the choice is a pure
/// function of `(sys, class, intensity, opts, sched_seed)`, so every
/// worker count builds the same process.
fn build_process(
    sys: &elastic_core::gen::GeneratedSystem,
    class: &str,
    intensity: usize,
    opts: &StabilizationOpts,
    sched_seed: u64,
) -> Option<FaultProcess> {
    let cycles = opts.cycles;
    let process = match class {
        once if FAULT_CLASSES.contains(&once) => {
            let (fault, eff) = injectable_site(sys, once, sched_seed, cycles)?;
            // With the expansion's own clamp, lane k's window starts at
            // `(eff + k % PROCESS_STAGGER).min(cycles - intensity)`.
            FaultProcess::Once {
                fault,
                start: eff.min(cycles.saturating_sub(intensity)),
                len: intensity,
            }
        }
        "periodic" => {
            let (fault, eff) = injectable_site(sys, "rail_flip", sched_seed, cycles)?;
            FaultProcess::Periodic {
                fault,
                period: opts.period,
                duty: intensity,
                start: eff.min(cycles.saturating_sub(intensity)),
            }
        }
        "sustained" => {
            let (fault, eff) = injectable_site(sys, "stuck_at_0", sched_seed, cycles)?;
            let len = (intensity * opts.period).min(cycles.saturating_sub(eff));
            if len == 0 {
                return None;
            }
            FaultProcess::Sustained {
                fault,
                start: eff,
                len,
            }
        }
        "correlated" => {
            let (fault, _) = injectable_site(sys, "rail_flip", sched_seed, cycles)?;
            let first = fault.channel()?.to_string();
            // Second site: another channel when the topology has one, the
            // probed channel's forward stop otherwise — always a distinct
            // (channel, rail) pair.
            let second = sys
                .network
                .channels()
                .map(|c| sys.network.channel(c).name.clone())
                .find(|n| *n != first);
            let site2 = match second {
                Some(channel) => FaultInjection::RailFlip {
                    channel,
                    rail: FaultRail::Vp,
                },
                None => FaultInjection::RailFlip {
                    channel: first.clone(),
                    rail: FaultRail::Sp,
                },
            };
            let len = (opts.period / 4).max(1).min(cycles / intensity.max(1));
            if len == 0 {
                return None;
            }
            FaultProcess::Correlated {
                faults: vec![fault, site2],
                bursts: intensity,
                len,
            }
        }
        "byzantine" => {
            // Prefer the probed-effective channel when it is
            // active-active; any non-passive channel otherwise.
            let probed = injectable_site(sys, "rail_flip", sched_seed, cycles)
                .and_then(|(f, _)| f.channel().map(str::to_string));
            let non_passive = |name: &String| {
                sys.network.channels().any(|c| {
                    sys.network.channel(c).name == *name && !sys.network.channel(c).passive
                })
            };
            let channel = probed.filter(non_passive).or_else(|| {
                sys.network
                    .channels()
                    .map(|c| sys.network.channel(c))
                    .find(|ch| !ch.passive)
                    .map(|ch| ch.name.clone())
            })?;
            FaultProcess::Byzantine {
                channel,
                period: opts.period,
                duty: intensity,
            }
        }
        _ => return None,
    };
    // The constructions above are clamped to validate by design; a
    // topology that still fails (e.g. a degenerate horizon) is a skip,
    // not a campaign abort.
    process.validate(&sys.network, cycles).ok()?;
    Some(process)
}

/// Builds one campaign job: sample the topology, construct the process,
/// lower it with one corruption gate per site, generate the stimulus at
/// the word width [`dispatch_backend`] picks for the tape and arm every
/// site's per-lane windows.
fn build_job(
    topo: usize,
    class: &str,
    intensity: usize,
    opts: &StabilizationOpts,
) -> Result<Option<StabJob>, CoreError> {
    let params = TopoParams::sample(opts.seed.wrapping_add(topo as u64));
    let Ok(sys) = generate(&params) else {
        return Ok(None);
    };
    let sched_seed = opts.seed.wrapping_add((topo * opts.lanes) as u64);
    let Some(process) = build_process(&sys, class, intensity, opts, sched_seed) else {
        return Ok(None);
    };
    let sites = process.sites();
    let lowered = SimLowering::build(&sys.network, sys.output_channel, &sites)?;
    let width = dispatch_backend(&lowered.prog, opts.lanes).lanes() / LANES;
    let baseline = PackedStimulus::generate(
        &lowered.tb,
        &sys.network,
        &sys.env,
        sched_seed,
        opts.lanes,
        opts.cycles,
        width,
    )?;
    let mut armed = baseline.clone();
    let mut events = Vec::with_capacity(opts.lanes);
    for lane in 0..opts.lanes {
        for (site, windows) in process
            .windows(sched_seed, lane, opts.cycles)
            .iter()
            .enumerate()
        {
            for &(start, len) in windows {
                armed.arm_fault(site, lane, start, len)?;
            }
        }
        events.push(
            process
                .merged_windows(sched_seed, lane, opts.cycles)
                .iter()
                .map(|&(s, _)| s)
                .collect(),
        );
    }
    Ok(Some(StabJob {
        prog: lowered.prog,
        site: lowered.sites[0],
        out: lowered.out,
        armed,
        baseline,
        events,
        site_name: sites[0]
            .channel()
            .expect("process sites are rail faults")
            .to_string(),
    }))
}

/// One tape pass: advances every lane through `stim`, counting output
/// transfers and feeding each lane's tracker — with fault events marked at
/// the lane's disturbance-interval starts when `retime` is set.
fn drive<const W: usize>(
    job: &StabJob,
    stim: &PackedStimulus,
    retime: bool,
) -> Result<(Vec<u32>, Vec<RecoveryDetector>), CoreError> {
    let lanes = job.events.len();
    let mut sim: WideSim<W> = WideSim::from_program(job.prog.clone());
    sim.check_input_slots(stim.slots())
        .map_err(CoreError::from)?;
    let live = lane_masks::<W>(lanes);
    let [svp, ssp, svn, ssn] = job.site;
    let [ovp, osp, ovn] = job.out;
    let mut counts = vec![0u32; lanes];
    let mut dets = vec![RecoveryDetector::new(); lanes];
    let mut cursor = vec![0usize; lanes];
    for t in 0..stim.cycles() {
        if retime {
            for (k, det) in dets.iter_mut().enumerate() {
                if job.events[k].get(cursor[k]) == Some(&(t as u64)) {
                    det.fault_event();
                    cursor[k] += 1;
                }
            }
        }
        sim.cycle_packed(stim.slots(), stim.row(t));
        for (w, &mask) in live.iter().enumerate() {
            let (vpw, spw, vnw, snw) = (
                sim.word(svp, w),
                sim.word(ssp, w),
                sim.word(svn, w),
                sim.word(ssn, w),
            );
            for b in 0..LANES.min(lanes - w * LANES) {
                dets[w * LANES + b].observe(ChannelSignals {
                    vp: vpw >> b & 1 == 1,
                    sp: spw >> b & 1 == 1,
                    vn: vnw >> b & 1 == 1,
                    sn: snw >> b & 1 == 1,
                    data: 0,
                });
            }
            let mut m = sim.word(ovp, w) & !sim.word(osp, w) & !sim.word(ovn, w) & mask;
            while m != 0 {
                counts[w * LANES + m.trailing_zeros() as usize] += 1;
                m &= m - 1;
            }
        }
    }
    Ok((counts, dets))
}

/// Executes one built job: unarmed baseline pass, armed pass with fault
/// events, per-lane classification.
fn run_job_w<const W: usize>(
    job: &StabJob,
    opts: &StabilizationOpts,
) -> Result<Vec<LaneStabilization>, CoreError> {
    let (base_counts, base_dets) = drive::<W>(job, &job.baseline, false)?;
    let (armed_counts, armed_dets) = drive::<W>(job, &job.armed, true)?;
    let cycles = job.armed.cycles() as f64;
    Ok((0..job.events.len())
        .map(|j| {
            let det = &armed_dets[j];
            let disturbed = det.violations() > base_dets[j].violations();
            let stab = det.stabilization_time(opts.recovery_tail);
            LaneStabilization {
                disturbed,
                stabilized: stab.is_some(),
                stab_cycles: stab.unwrap_or(0),
                violation_rate: det.violation_rate(),
                dip: (f64::from(base_counts[j]) - f64::from(armed_counts[j])) / cycles,
            }
        })
        .collect())
}

/// Width-dispatched [`run_job_w`].
fn run_job(job: &StabJob, opts: &StabilizationOpts) -> Result<Vec<LaneStabilization>, CoreError> {
    match job.armed.width() {
        1 => run_job_w::<1>(job, opts),
        2 => run_job_w::<2>(job, opts),
        4 => run_job_w::<4>(job, opts),
        8 => run_job_w::<8>(job, opts),
        w => Err(CoreError::ScheduleBatch(format!(
            "unsupported stimulus width {w}"
        ))),
    }
}

/// The budget every convergence exploration runs under: wide enough for
/// the pipeline controllers and the lazy fig. 9 configuration, tight
/// enough that an oversized system skips immediately with a typed budget
/// error instead of wedging the campaign. The input cap is the sharp
/// gate: each extra free input doubles the per-state successor fan-out,
/// so the early-evaluation configurations (seven inputs at the two data
/// bits their guards dictate) and most generated topologies record an
/// instant `too many inputs` skip rather than burning the state budget.
fn mc_budget() -> BridgeOptions {
    BridgeOptions {
        max_ff_states: 1 << 12,
        max_inputs: 6,
    }
}

/// The canonical single-site process used for convergence verdicts: a
/// duty-1 periodic V⁺ flip on the first non-passive channel. (The
/// explicit-state analysis only consumes the *sites*; windows are
/// irrelevant to the reachable-set computation.)
fn mc_process(net: &elastic_core::ElasticNetwork) -> Option<FaultProcess> {
    let channel = net
        .channels()
        .map(|c| net.channel(c))
        .find(|ch| !ch.passive)
        .map(|ch| ch.name.clone())?;
    Some(FaultProcess::Periodic {
        fault: FaultInjection::RailFlip {
            channel,
            rail: FaultRail::Vp,
        },
        period: 8,
        duty: 1,
        start: 0,
    })
}

/// One convergence verdict, with every failure recorded as a typed skip.
fn mc_verdict(system: &str, net: &elastic_core::ElasticNetwork, cycles: usize) -> McVerdict {
    let Some(process) = mc_process(net) else {
        return McVerdict {
            system: system.to_string(),
            report: None,
            error: Some("no non-passive channel to corrupt".into()),
        };
    };
    match check_network_convergence(net, &process, cycles.max(16), mc_budget()) {
        Ok(report) => McVerdict {
            system: system.to_string(),
            report: Some(report),
            error: None,
        },
        Err(e) => McVerdict {
            system: system.to_string(),
            report: None,
            error: Some(e.to_string()),
        },
    }
}

/// Convergence verdicts for the named small systems (fig. 8 pipeline
/// controllers, fig. 9 paper configurations) and the campaign's leading
/// generated topologies.
fn mc_section(opts: &StabilizationOpts) -> Vec<McVerdict> {
    let mut out = Vec::new();
    for (stages, tokens) in [(1usize, 0usize), (2, 1)] {
        match linear_pipeline(stages, tokens) {
            Ok((net, _, _)) => out.push(mc_verdict(
                &format!("linear_pipeline({stages},{tokens})"),
                &net,
                opts.cycles,
            )),
            Err(e) => out.push(McVerdict {
                system: format!("linear_pipeline({stages},{tokens})"),
                report: None,
                error: Some(e.to_string()),
            }),
        }
    }
    for cfg in Config::all() {
        let name = format!("paper_example({cfg:?})");
        match paper_example(cfg) {
            Ok(sys) => out.push(mc_verdict(&name, &sys.network, opts.cycles)),
            Err(e) => out.push(McVerdict {
                system: name,
                report: None,
                error: Some(e.to_string()),
            }),
        }
    }
    for topo in 0..opts.mc_topologies.min(opts.topologies) {
        let name = format!("topology_{topo}");
        let params = TopoParams::sample(opts.seed.wrapping_add(topo as u64));
        match generate(&params) {
            Ok(sys) => out.push(mc_verdict(&name, &sys.network, opts.cycles)),
            Err(e) => out.push(McVerdict {
                system: name,
                report: None,
                error: Some(e.to_string()),
            }),
        }
    }
    out
}

/// Rejects an unusable option set before any job runs (the errors of
/// [`run_fault_sweep`]).
fn check_opts(opts: &StabilizationOpts) -> Result<(), CoreError> {
    let once = |c: &str| FAULT_CLASSES.contains(&c);
    if let Some(bad) = opts
        .classes
        .iter()
        .find(|c| !once(c) && !PROCESS_CLASSES.contains(&c.as_str()))
    {
        return Err(CoreError::FaultProcess(format!(
            "unknown fault class {bad:?} (expected one of {FAULT_CLASSES:?} or {PROCESS_CLASSES:?})"
        )));
    }
    // A one-shot window needs warm-up plus a recovery tail; a process
    // also needs room to repeat.
    let min_cycles = if opts.classes.iter().all(|c| once(c)) {
        16
    } else {
        32
    };
    if opts.cycles < min_cycles {
        return Err(CoreError::FaultSite(format!(
            "campaign horizon {} is too short for these classes plus a recovery tail \
             (min {min_cycles})",
            opts.cycles
        )));
    }
    if opts.lanes == 0 || opts.lanes > MAX_TRIALS_PER_RUN {
        return Err(CoreError::FaultSite(format!(
            "{} lanes per job (expected 1..={MAX_TRIALS_PER_RUN})",
            opts.lanes
        )));
    }
    if opts.period < 2 {
        return Err(CoreError::FaultProcess(format!(
            "process period {} is too short (min 2)",
            opts.period
        )));
    }
    if opts.intensities.is_empty() {
        return Err(CoreError::FaultProcess(
            "empty intensity sweep: give at least one intensity".into(),
        ));
    }
    for class in &opts.classes {
        let (max, what) = if once(class) {
            (opts.cycles, "window length")
        } else {
            (opts.period, "intensity")
        };
        if let Some(&bad) = opts.intensities.iter().find(|&&i| i == 0 || i > max) {
            return Err(CoreError::FaultProcess(format!(
                "{class} {what} {bad} outside 1..={max}"
            )));
        }
    }
    Ok(())
}

/// Runs the job sweep alone: `topologies × classes × intensities` jobs
/// through the streaming pipeline, reduced in job order and aggregated per
/// class, with no convergence section — the `fault_campaign` front-end.
///
/// # Errors
///
/// [`CoreError::FaultProcess`] for an unknown class label, a degenerate
/// period or an invalid intensity sweep (a one-shot window outside
/// `1..=cycles`, a process intensity outside `1..=period`);
/// [`CoreError::FaultSite`] for a horizon too short for the classes or a
/// lane count outside `1..=512`; the first job error otherwise (missing
/// sites are skipped jobs, not errors).
pub fn run_fault_sweep(opts: &StabilizationOpts) -> Result<StabilizationReport, CoreError> {
    check_opts(opts)?;
    let t0 = Instant::now();
    let nc = opts.classes.len();
    let ni = opts.intensities.len();
    let jobs_total = opts.topologies * nc * ni;
    let threads = effective_threads(opts.threads, jobs_total);
    let jobs = if jobs_total == 0 {
        Vec::new()
    } else {
        run_pipeline::<Option<StabJob>, StabJobOutcome>(
            jobs_total,
            threads,
            opts.queue,
            |i| {
                build_job(
                    i / (nc * ni),
                    &opts.classes[i / ni % nc],
                    opts.intensities[i % ni],
                    opts,
                )
            },
            |i, payload| {
                let topology = i / (nc * ni);
                let class = opts.classes[i / ni % nc].clone();
                let intensity = opts.intensities[i % ni];
                match payload {
                    None => Ok(StabJobOutcome {
                        topology,
                        class,
                        intensity,
                        site: None,
                        lanes: Vec::new(),
                    }),
                    Some(job) => {
                        let lanes = run_job(&job, opts)?;
                        Ok(StabJobOutcome {
                            topology,
                            class,
                            intensity,
                            site: Some(job.site_name),
                            lanes,
                        })
                    }
                }
            },
        )?
    };
    Ok(StabilizationReport {
        opts: opts.clone(),
        threads,
        classes: StabilizationReport::aggregate(opts, &jobs),
        jobs,
        mc: Vec::new(),
        wall_secs: t0.elapsed().as_secs_f64(),
    })
}

/// Runs the campaign: the job sweep ([`run_fault_sweep`]) plus the
/// convergence section.
///
/// # Errors
///
/// See [`run_fault_sweep`].
pub fn run_stabilization_campaign(
    opts: &StabilizationOpts,
) -> Result<StabilizationReport, CoreError> {
    let t0 = Instant::now();
    let mut report = run_fault_sweep(opts)?;
    report.mc = mc_section(opts);
    report.wall_secs = t0.elapsed().as_secs_f64();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts(threads: usize) -> StabilizationOpts {
        StabilizationOpts {
            topologies: 5,
            seed: 11,
            cycles: 128,
            lanes: 8,
            period: 16,
            intensities: vec![1, 2],
            recovery_tail: 12,
            threads,
            queue: 2,
            mc_topologies: 1,
            ..StabilizationOpts::default()
        }
    }

    #[test]
    fn small_campaign_disturbs_and_is_thread_deterministic() {
        let a = run_stabilization_campaign(&small_opts(1)).unwrap();
        assert_eq!(a.classes.len(), PROCESS_CLASSES.len());
        let disturbed: usize = a
            .classes
            .iter()
            .flat_map(|c| c.points.iter())
            .map(|p| p.disturbed)
            .sum();
        assert!(disturbed > 0, "no lane observed an injected violation");
        for c in &a.classes {
            for p in &c.points {
                assert!(p.stabilized <= p.disturbed, "{}@{}", c.class, p.intensity);
                assert!(p.disturbed <= p.trials, "{}@{}", c.class, p.intensity);
                if p.stabilized > 0 {
                    assert!(p.stab_p50 <= p.stab_p99, "{}@{}", c.class, p.intensity);
                }
            }
        }
        // The convergence section covers the named systems plus one
        // generated topology, and at least the pipeline controllers
        // produce real verdicts.
        assert_eq!(a.mc.len(), 2 + Config::all().len() + 1);
        assert!(a.mc[0].report.is_some(), "{:?}", a.mc[0]);
        assert!(a.mc[1].report.is_some(), "{:?}", a.mc[1]);
        for v in &a.mc {
            assert!(v.report.is_some() || v.error.is_some(), "{}", v.system);
        }
        // Bit-identical report for a different worker count and queue.
        let b = run_stabilization_campaign(&StabilizationOpts {
            queue: 4,
            ..small_opts(3)
        })
        .unwrap();
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.topology, y.topology);
            assert_eq!(x.class, y.class);
            assert_eq!(x.intensity, y.intensity);
            assert_eq!(x.site, y.site);
            assert_eq!(x.lanes, y.lanes);
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let r = run_stabilization_campaign(&StabilizationOpts {
            topologies: 2,
            lanes: 4,
            mc_topologies: 0,
            ..small_opts(2)
        })
        .unwrap();
        let json = r.to_json().to_string();
        for class in PROCESS_CLASSES {
            assert!(json.contains(&format!("\"class\": \"{class}\"")), "{json}");
        }
        for key in [
            "\"stab_p50\"",
            "\"non_stabilization_rate\"",
            "\"mean_throughput_dip\"",
            "\"mc\"",
            "\"converging\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn bad_options_are_typed_errors() {
        let base = small_opts(1);
        for (bad, wants_process_err) in [
            (
                StabilizationOpts {
                    classes: vec!["meltdown".into()],
                    ..base.clone()
                },
                true,
            ),
            (
                StabilizationOpts {
                    cycles: 16,
                    ..base.clone()
                },
                false,
            ),
            (
                StabilizationOpts {
                    lanes: 0,
                    ..base.clone()
                },
                false,
            ),
            (
                StabilizationOpts {
                    period: 1,
                    ..base.clone()
                },
                true,
            ),
            (
                StabilizationOpts {
                    intensities: vec![],
                    ..base.clone()
                },
                true,
            ),
            (
                StabilizationOpts {
                    intensities: vec![17],
                    ..base.clone()
                },
                true,
            ),
        ] {
            let err = run_stabilization_campaign(&bad).unwrap_err();
            match (wants_process_err, &err) {
                (true, CoreError::FaultProcess(_)) | (false, CoreError::FaultSite(_)) => {}
                other => panic!("wrong error class: {other:?}"),
            }
        }
    }

    fn recovery_opts(threads: usize) -> StabilizationOpts {
        StabilizationOpts {
            topologies: 6,
            seed: 11,
            cycles: 96,
            lanes: 8,
            intensities: vec![1],
            recovery_tail: 12,
            threads,
            queue: 2,
            classes: FAULT_CLASSES.iter().map(|&c| c.to_string()).collect(),
            ..StabilizationOpts::default()
        }
    }

    #[test]
    fn recovery_campaign_disturbs_and_is_thread_deterministic() {
        let a = run_fault_sweep(&recovery_opts(1)).unwrap();
        assert_eq!(a.classes.len(), FAULT_CLASSES.len());
        assert!(
            a.mc.is_empty(),
            "the sweep alone has no convergence section"
        );
        let points: Vec<&IntensityStats> = a.classes.iter().map(|c| &c.points[0]).collect();
        assert!(
            points.iter().map(|p| p.sites).sum::<usize>() > 0,
            "no injectable sites across 6 topologies"
        );
        assert!(
            points.iter().map(|p| p.disturbed).sum::<usize>() > 0,
            "no lane observed an injected violation"
        );
        // Every armed-and-disturbed lane measured a coherent recovery
        // outcome: recovered lanes have a recovery point, percentiles are
        // ordered.
        for (c, p) in a.classes.iter().zip(&points) {
            assert!(p.stabilized <= p.disturbed, "{}", c.class);
            assert!(p.disturbed <= p.trials, "{}", c.class);
            if p.stabilized > 0 {
                assert!(p.stab_p50 <= p.stab_p99, "{}", c.class);
                assert!(p.stab_p50 >= 1.0, "{}", c.class);
            }
        }
        // Bit-identical report for a different worker count.
        let b = run_fault_sweep(&recovery_opts(3)).unwrap();
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.topology, y.topology);
            assert_eq!(x.class, y.class);
            assert_eq!(x.site, y.site);
            assert_eq!(x.lanes, y.lanes);
        }
    }

    #[test]
    fn recovery_json_is_well_formed() {
        let r = run_fault_sweep(&StabilizationOpts {
            topologies: 2,
            cycles: 64,
            lanes: 4,
            ..recovery_opts(2)
        })
        .unwrap();
        let json = r.to_recovery_json().to_string();
        for class in FAULT_CLASSES {
            assert!(json.contains(&format!("\"class\": \"{class}\"")), "{json}");
        }
        for key in [
            "\"window_len\": 1,",
            "\"recovery_p50\"",
            "\"non_recovery_rate\"",
            "\"mean_throughput_dip\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn bad_recovery_options_are_typed_errors() {
        let base = recovery_opts(1);
        for (bad, wants_process_err) in [
            (
                StabilizationOpts {
                    classes: vec!["meltdown".into()],
                    ..base.clone()
                },
                true,
            ),
            (
                StabilizationOpts {
                    cycles: 8,
                    ..base.clone()
                },
                false,
            ),
            (
                StabilizationOpts {
                    lanes: 0,
                    ..base.clone()
                },
                false,
            ),
            (
                StabilizationOpts {
                    lanes: MAX_TRIALS_PER_RUN + 1,
                    ..base.clone()
                },
                false,
            ),
        ] {
            match (wants_process_err, run_fault_sweep(&bad).unwrap_err()) {
                (true, CoreError::FaultProcess(_)) | (false, CoreError::FaultSite(_)) => {}
                other => panic!("wrong error class: {other:?}"),
            }
        }
        // A one-shot sweep needs only 16 cycles; a process needs 32.
        run_fault_sweep(&StabilizationOpts {
            cycles: 16,
            topologies: 1,
            ..base.clone()
        })
        .unwrap();
        // An empty class list is a no-op campaign, not an error.
        let empty = run_fault_sweep(&StabilizationOpts {
            classes: Vec::new(),
            ..base
        })
        .unwrap();
        assert!(empty.classes.is_empty());
        assert!(empty.jobs.is_empty());
    }

    #[test]
    fn recovery_window_outside_the_horizon_is_typed() {
        // A zero-length window must not run as some other length under a
        // report that records 0; a window longer than the horizon cannot
        // be placed at all.
        for window in [0, 97] {
            let bad = StabilizationOpts {
                intensities: vec![window],
                ..recovery_opts(1)
            };
            assert!(
                matches!(run_fault_sweep(&bad), Err(CoreError::FaultProcess(_))),
                "window {window}"
            );
        }
        // A window as long as the horizon fits (every lane starts at 0).
        let whole = run_fault_sweep(&StabilizationOpts {
            topologies: 1,
            intensities: vec![96],
            ..recovery_opts(1)
        })
        .unwrap();
        assert!(whole
            .to_recovery_json()
            .to_string()
            .contains("\"window_len\": 96,"));
    }
}
