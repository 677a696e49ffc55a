//! Fault-injection equivalence and regression tests.
//!
//! 1. **Lane equivalence** (proptest): a wide backend running lane *k*
//!    with fault-process instance *k* — one-shot windows of every rail
//!    fault class and every process class — must be bit-identical, every
//!    observed rail, every cycle, to a scalar netlist run of trial *k* with
//!    the same windows armed on its schedule, across word widths `W ∈
//!    {1,2,4,8}` and the plain and cache-blocked tape paths. The wide side
//!    runs the campaigns' stimulus: generated, then armed per lane.
//! 2. **Empty-fault regression**: a campaign with no fault injected must
//!    reproduce the committed `BENCH_pr6.json` means bit-identically —
//!    the fault plumbing (fault-arm inputs, stimulus fault columns,
//!    generalized worker pipeline) is strictly pay-for-what-you-inject.
//!
//! Counterexample seeds shrunk during development are pinned in
//! `proptest-regressions/fault.txt` and replayed before the random phase.

use elastic_bench::exp::{ee_prob_experiment, run_experiment, EngineOpts};
use elastic_bench::stabilize::{FAULT_CLASSES, PROCESS_CLASSES};
use elastic_bench::{SimLowering, WideHarness};
use elastic_core::compile::{FaultInjection, FaultRail};
use elastic_core::fault::FaultProcess;
use elastic_core::gen::{generate, injectable_site, GeneratedSystem, TopoParams};
use elastic_core::systems::Config;
use elastic_core::verify::{PackedStimulus, Schedule};
use elastic_core::CoreError;
use elastic_netlist::sim::Simulator;
use elastic_netlist::wide::{WideSim, LANES};
use elastic_netlist::NetId;
use proptest::prelude::*;

const CYCLES: usize = 48;

/// One fully prepared faulted system: its lowering (observed-cone netlist,
/// testbench with one fault-arm column per site, tape program), the
/// schedules armed with each lane's process-instance windows and the
/// observed rail set (output V⁺S⁺V⁻ + every site's V⁺S⁺V⁻S⁻).
struct Prepared {
    lowered: SimLowering,
    rails: Vec<NetId>,
    schedules: Vec<Schedule>,
    /// `(site, lane, start, len)` of every armed window.
    windows: Vec<(usize, usize, usize, usize)>,
    sys: GeneratedSystem,
    seed: u64,
    scalar: Simulator,
}

/// Builds a small instance of the named class on `sys` — a one-shot
/// class as a `window`-cycle [`FaultProcess::Once`] at a probed-effective
/// cycle — or `None` when the sampled topology offers no usable site
/// (mirrors the campaign engine's per-class construction at test scale).
fn test_process(
    sys: &GeneratedSystem,
    class: &str,
    seed: u64,
    window: usize,
) -> Option<FaultProcess> {
    let process = match class {
        once if FAULT_CLASSES.contains(&once) => {
            let (fault, eff) = injectable_site(sys, once, seed, CYCLES)?;
            FaultProcess::Once {
                fault,
                start: eff.min(CYCLES - window),
                len: window,
            }
        }
        "periodic" => {
            let (fault, eff) = injectable_site(sys, "rail_flip", seed, CYCLES)?;
            FaultProcess::Periodic {
                fault,
                period: 12,
                duty: 2,
                start: eff.min(CYCLES - 2),
            }
        }
        "sustained" => {
            let (fault, eff) = injectable_site(sys, "stuck_at_0", seed, CYCLES)?;
            FaultProcess::Sustained {
                fault,
                start: eff,
                len: 8.min(CYCLES - eff),
            }
        }
        "correlated" => {
            let (fault, _) = injectable_site(sys, "rail_flip", seed, CYCLES)?;
            let first = fault.channel()?.to_string();
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
                    channel: first,
                    rail: FaultRail::Sp,
                },
            };
            FaultProcess::Correlated {
                faults: vec![fault, site2],
                bursts: 2,
                len: 4,
            }
        }
        "byzantine" => {
            let channel = sys
                .network
                .channels()
                .map(|c| sys.network.channel(c))
                .find(|ch| !ch.passive)
                .map(|ch| ch.name.clone())?;
            FaultProcess::Byzantine {
                channel,
                period: 12,
                duty: 2,
            }
        }
        other => panic!("unknown process class {other}"),
    };
    process.validate(&sys.network, CYCLES).ok()?;
    Some(process)
}

/// Prepares a system lowered with one corruption gate per process site,
/// schedules armed with lane *k*'s process-instance windows on every
/// site, or `None` when the topology has no usable process of the class.
fn prepare(topo: u64, class: &str, seed: u64, lanes: usize, window: usize) -> Option<Prepared> {
    let sys = generate(&TopoParams::sample(topo)).ok()?;
    let process = test_process(&sys, class, seed, window)?;
    let sites = process.sites();
    let lowered = SimLowering::build(&sys.network, sys.output_channel, &sites).ok()?;
    assert_eq!(
        lowered.tb.fault_cols().len(),
        sites.len(),
        "one column per site"
    );
    let rails = lowered
        .out
        .iter()
        .chain(lowered.sites.iter().flatten())
        .copied()
        .collect();
    let scalar = Simulator::new(&lowered.netlist).ok()?;
    let mut schedules = WideHarness::schedules(&sys.network, &sys.env, seed, CYCLES, lanes);
    let mut windows = Vec::new();
    for (k, sched) in schedules.iter_mut().enumerate() {
        for (site, site_windows) in process.windows(seed, k, CYCLES).iter().enumerate() {
            for &(start, len) in site_windows {
                sched.arm_fault(site, start, len).expect("window fits");
                windows.push((site, k, start, len));
            }
        }
    }
    Some(Prepared {
        lowered,
        rails,
        schedules,
        windows,
        sys,
        seed,
        scalar,
    })
}

/// Scalar reference: runs trial `k`'s schedule (windows armed) through the
/// gate-level interpreter on the same observed netlist, recording every
/// observed rail each cycle.
fn scalar_trace(p: &Prepared, k: usize) -> Vec<Vec<bool>> {
    let mut sim = p.scalar.clone();
    (0..CYCLES as u64)
        .map(|t| {
            sim.cycle(&p.lowered.tb.inputs_at(&p.schedules[k], t))
                .expect("runs");
            p.rails.iter().map(|&r| sim.value(r)).collect()
        })
        .collect()
}

/// Wide path: runs the armed stimulus of all lanes and records the same
/// rails per lane per cycle, on the plain or cache-blocked tape.
fn wide_trace<const W: usize>(
    p: &Prepared,
    stim: &PackedStimulus,
    blocked: bool,
) -> Vec<Vec<Vec<bool>>> {
    let prog = &p.lowered.prog;
    let mut sim: WideSim<W> = WideSim::from_program(prog.clone());
    sim.check_input_slots(stim.slots()).expect("slots");
    let plan = prog.block_plan(W, 4096);
    let lanes = p.schedules.len();
    let mut out = vec![Vec::with_capacity(CYCLES); lanes];
    for t in 0..CYCLES {
        if blocked {
            sim.cycle_packed_blocked(stim.slots(), stim.row(t), &plan);
        } else {
            sim.cycle_packed(stim.slots(), stim.row(t));
        }
        for (k, lane_out) in out.iter_mut().enumerate() {
            let (w, b) = (k / LANES, k % LANES);
            lane_out.push(
                p.rails
                    .iter()
                    .map(|&r| sim.word(r, w) >> b & 1 == 1)
                    .collect(),
            );
        }
    }
    out
}

/// Wide lane *k* running fault-process instance *k* ≡ scalar run of trial
/// *k* with the same per-site windows armed on its schedule — all rails,
/// all cycles, word width `[1, 2, 4, 8][wsel]`, plain and blocked tapes.
/// The wide stimulus is generated, then armed per lane and site. Rejects
/// topologies with no usable process.
fn check_lane_equivalence(
    topo: u64,
    class: &str,
    seed: u64,
    lanes: usize,
    window: usize,
    wsel: usize,
) -> Result<(), TestCaseError> {
    let Some(p) = prepare(topo, class, seed, lanes, window) else {
        return Err(TestCaseError::Reject);
    };
    let scalar: Vec<Vec<Vec<bool>>> = (0..lanes).map(|k| scalar_trace(&p, k)).collect();
    let width = [1usize, 2, 4, 8][wsel];
    let tb = &p.lowered.tb;
    let mut stim =
        PackedStimulus::generate(tb, &p.sys.network, &p.sys.env, p.seed, lanes, CYCLES, width)
            .expect("generates");
    let cols = tb.fault_cols();
    for &(site, lane, start, len) in &p.windows {
        stim.arm_fault(cols[site], lane, start, len).expect("arms");
    }
    for blocked in [false, true] {
        let wide = match width {
            1 => wide_trace::<1>(&p, &stim, blocked),
            2 => wide_trace::<2>(&p, &stim, blocked),
            4 => wide_trace::<4>(&p, &stim, blocked),
            _ => wide_trace::<8>(&p, &stim, blocked),
        };
        for k in 0..lanes {
            prop_assert_eq!(
                &wide[k],
                &scalar[k],
                "lane {} diverged (topo {}, class {}, W={}, blocked={})",
                k,
                topo,
                class,
                width,
                blocked
            );
        }
    }
    Ok(())
}

proptest! {
    /// Lane equivalence for every one-shot rail fault class, as a
    /// `len`-cycle [`FaultProcess::Once`] window staggered per lane.
    #[test]
    fn wide_fault_lane_equals_scalar_faulted_trial(
        topo in 0u64..500,
        class_idx in 0usize..5,
        lanes in 1usize..10,
        len in 1usize..4,
        wsel in 0usize..4,
    ) {
        let class = FAULT_CLASSES[class_idx];
        check_lane_equivalence(topo, class, topo.wrapping_add(0xfa), lanes, len, wsel)?;
    }

    /// Lane equivalence for every multi-window fault-process class.
    #[test]
    fn wide_process_lane_equals_scalar_process_trial(
        topo in 0u64..500,
        class_idx in 0usize..4,
        lanes in 1usize..10,
        wsel in 0usize..4,
    ) {
        let class = PROCESS_CLASSES[class_idx];
        check_lane_equivalence(topo, class, topo.wrapping_add(0x9b), lanes, 1, wsel)?;
    }
}

/// A zero-intensity process (periodic, duty 0) expands to no windows on
/// any lane, so the armed stimulus is byte-identical to the fault-free
/// one and every observed rail reproduces the fault-free trace
/// digit-for-digit — the process plumbing is strictly
/// pay-for-what-you-inject, exactly like the `BENCH_pr6.json` regression
/// below for the fault-free engine.
#[test]
fn zero_intensity_process_is_fault_free_bit_for_bit() {
    /// Output-rail trace of one schedule on a compile of `sys` carrying
    /// `faults` corruption gates (none ever armed).
    fn output_trace(
        sys: &GeneratedSystem,
        faults: &[FaultInjection],
        seed: u64,
    ) -> Option<Vec<Vec<bool>>> {
        let lowered = SimLowering::build(&sys.network, sys.output_channel, faults).ok()?;
        let sched = WideHarness::schedules(&sys.network, &sys.env, seed, CYCLES, 1).remove(0);
        let mut sim = Simulator::new(&lowered.netlist).ok()?;
        Some(
            (0..CYCLES as u64)
                .map(|t| {
                    sim.cycle(&lowered.tb.inputs_at(&sched, t)).expect("runs");
                    lowered.out.iter().map(|&r| sim.value(r)).collect()
                })
                .collect(),
        )
    }

    let mut checked = 0;
    for topo in 0u64..40 {
        let Ok(sys) = generate(&TopoParams::sample(topo)) else {
            continue;
        };
        let Some((fault, _)) = injectable_site(&sys, "rail_flip", topo, CYCLES) else {
            continue;
        };
        let process = FaultProcess::Periodic {
            fault,
            period: 12,
            duty: 0,
            start: 0,
        };
        process.validate(&sys.network, CYCLES).expect("valid");
        for lane in 0..4 {
            assert!(
                process
                    .windows(topo, lane, CYCLES)
                    .iter()
                    .all(Vec::is_empty),
                "duty 0 must arm nothing"
            );
            assert!(process.merged_windows(topo, lane, CYCLES).is_empty());
        }
        let Some(gated) = output_trace(&sys, &process.sites(), topo.wrapping_add(0x9b)) else {
            continue;
        };
        let free = output_trace(&sys, &[], topo.wrapping_add(0x9b)).expect("fault-free compiles");
        assert_eq!(
            gated, free,
            "topo {topo}: a never-armed corruption gate changed an observed rail"
        );
        checked += 1;
        if checked >= 5 {
            return;
        }
    }
    panic!("fewer than 5 topologies yielded a usable zero-intensity process");
}

/// Satellite-6 closure at the packed-stimulus layer: malformed process
/// arming surfaces as typed [`CoreError::FaultSite`] values — wrong
/// column, wrong lane, window past the horizon — never a panic, and the
/// testbench resolves exactly one column per site.
#[test]
fn packed_layer_rejects_bad_process_arming_typed() {
    let p = (0u64..200)
        .find_map(|topo| prepare(topo, "byzantine", 0x5e, 2, 1))
        .expect("some topology supports a byzantine process");
    let tb = &p.lowered.tb;
    let cols = tb.fault_cols();
    assert_eq!(cols.len(), 2, "byzantine resolves two side columns");
    let mut stim = PackedStimulus::generate(tb, &p.sys.network, &p.sys.env, p.seed, 2, CYCLES, 1)
        .expect("generates");
    for (err, label) in [
        (stim.arm_fault(cols[1] + 1, 0, 0, 1), "phantom column"),
        (stim.arm_fault(cols[0], 64, 0, 1), "phantom lane"),
        (stim.arm_fault(cols[0], 0, 0, 0), "empty window"),
        (stim.arm_fault(cols[0], 0, CYCLES - 1, 2), "past horizon"),
        (
            stim.arm_fault(cols[0], 0, usize::MAX, 2),
            "overflowing window",
        ),
    ] {
        match err {
            Err(CoreError::FaultSite(_)) => {}
            other => panic!("{label}: expected FaultSite, got {other:?}"),
        }
    }
}

/// Locates a file at the workspace root (walking up from this crate).
fn workspace_file(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|a| a.join(name))
        .find(|p| p.is_file())
        .unwrap_or_else(|| panic!("{name} not found above {}", env!("CARGO_MANIFEST_DIR")))
}

/// Pulls `"key": value` out of one JSON point line (hand-rolled, like the
/// writers in this workspace).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).expect("terminated");
    rest[..end].trim_matches('"')
}

#[test]
fn empty_fault_campaign_reproduces_bench_pr6_means() {
    // BENCH_pr6.json was produced by `campaign` at its defaults: 1024
    // trials x 2000 cycles, seed 1. Re-running those points through the
    // engine — which now carries the whole fault subsystem (fault-arm
    // inputs, stimulus fault column, generalized pipeline) with *no* fault
    // set — must reproduce every committed mean and standard deviation to
    // the last printed digit.
    let text = std::fs::read_to_string(workspace_file("BENCH_pr6.json")).expect("baseline");
    let mut checked = 0;
    // The bound_checks section also carries "point" keys — campaign points
    // are the lines that additionally report a mean.
    for line in text
        .lines()
        .filter(|l| l.contains("\"point\": ") && l.contains("\"mean\": "))
    {
        let label = field(line, "point");
        let (p_part, tag) = label.split_once('/').expect("label shape");
        let p_i: f64 = p_part
            .strip_prefix("p_i=")
            .expect("label shape")
            .parse()
            .unwrap();
        let config = match tag {
            "early" => Config::ActiveAntiTokens,
            "lazy" => Config::NoEarlyEval,
            other => panic!("unknown config tag {other}"),
        };
        let trials: usize = field(line, "trials").parse().unwrap();
        let cycles: usize = field(line, "cycles").parse().unwrap();
        let exp = ee_prob_experiment(p_i, config, tag, cycles, trials, 1).expect("builds");
        let res = run_experiment(&exp, &EngineOpts::default()).expect("runs");
        assert_eq!(
            format!("{:.6}", res.stats.mean()),
            field(line, "mean"),
            "{label}: mean drifted from the PR6 baseline"
        );
        assert_eq!(
            format!("{:.6}", res.stats.stddev()),
            field(line, "sd"),
            "{label}: stddev drifted from the PR6 baseline"
        );
        checked += 1;
    }
    assert_eq!(checked, 6, "BENCH_pr6.json carries six campaign points");
}
