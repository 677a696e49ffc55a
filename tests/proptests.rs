//! Property-based tests over the core invariants, using proptest.

use elastic_circuits::core::dsl::isomorphic;
use elastic_circuits::core::protocol::is_self_language;
use elastic_circuits::core::sim::{BehavSim, DataGen, EnvConfig, RandomEnv, SinkCfg, SourceCfg};
use elastic_circuits::core::systems::{
    linear_pipeline, linear_pipeline_imperative, paper_example, paper_example_imperative, Config,
};
use elastic_circuits::dmg::analysis::simple_cycles;
use elastic_circuits::dmg::examples::{fig1_dmg, pipeline_ring};
use elastic_circuits::dmg::exec::{RandomExecutor, SchedulingPolicy};
use elastic_circuits::netlist::levelize::Program;
use elastic_circuits::netlist::sim::Simulator;
use elastic_circuits::netlist::wide::{WideSim, WideSimulator, LANES};
use elastic_circuits::netlist::{LatchPhase, NetId, Netlist};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random netlist: a DAG of combinational gates and latches over a
/// few primary inputs, plus flip-flops bound to arbitrary nets (feedback
/// allowed — flip-flops cut every cycle). Latch data inputs only reference
/// earlier nets, so no within-phase loop can form and the netlist is valid
/// by construction.
fn random_netlist(rng: &mut StdRng) -> Netlist {
    let mut n = Netlist::new("random");
    let mut nets: Vec<NetId> = (0..rng.gen_range(1usize..4))
        .map(|i| n.input(format!("in{i}")))
        .collect();
    let ffs: Vec<NetId> = (0..rng.gen_range(0usize..4))
        .map(|_| n.dff(rng.gen_bool(0.5)))
        .collect();
    nets.extend(&ffs);
    // A few late-bound wires usable as latch enables/data before their
    // driver exists in index order (bound to an *input* at the end, so no
    // combinational cycle forms but index order crosses the settle order —
    // the glitch-capture regression shape).
    let wires: Vec<NetId> = (0..rng.gen_range(0usize..3)).map(|_| n.wire()).collect();
    nets.extend(&wires);
    for _ in 0..rng.gen_range(5usize..40) {
        let pick = |rng: &mut StdRng, nets: &[NetId]| nets[rng.gen_range(0..nets.len())];
        let id = match rng.gen_range(0u32..10) {
            0 => {
                let a = pick(rng, &nets);
                n.not(a)
            }
            1 => {
                let (a, b) = (pick(rng, &nets), pick(rng, &nets));
                n.and2(a, b)
            }
            2 => {
                let (a, b) = (pick(rng, &nets), pick(rng, &nets));
                n.or2(a, b)
            }
            3 => {
                let (a, b) = (pick(rng, &nets), pick(rng, &nets));
                n.xor(a, b)
            }
            4 => {
                let (s, a, b) = (pick(rng, &nets), pick(rng, &nets), pick(rng, &nets));
                n.mux(s, a, b)
            }
            5 => {
                let ins: Vec<NetId> = (0..rng.gen_range(0usize..5))
                    .map(|_| pick(rng, &nets))
                    .collect();
                n.and(ins)
            }
            6 => {
                let ins: Vec<NetId> = (0..rng.gen_range(0usize..5))
                    .map(|_| pick(rng, &nets))
                    .collect();
                n.or(ins)
            }
            7 => n.constant(rng.gen_bool(0.5)),
            8 => {
                let phase = if rng.gen_bool(0.5) {
                    LatchPhase::High
                } else {
                    LatchPhase::Low
                };
                let l = n.latch(phase, rng.gen_bool(0.5));
                let d = pick(rng, &nets);
                n.bind_latch(l, d).unwrap();
                l
            }
            _ => {
                let phase = if rng.gen_bool(0.5) {
                    LatchPhase::High
                } else {
                    LatchPhase::Low
                };
                let en = pick(rng, &nets);
                let l = n.latch_en(phase, en, rng.gen_bool(0.5));
                let d = pick(rng, &nets);
                n.bind_latch(l, d).unwrap();
                l
            }
        };
        nets.push(id);
    }
    for &q in &ffs {
        let d = nets[rng.gen_range(0..nets.len())];
        n.bind_dff(q, d).unwrap();
    }
    let inputs = n.inputs().to_vec();
    for &w in &wires {
        let src = inputs[rng.gen_range(0..inputs.len())];
        n.bind_wire(w, src).unwrap();
    }
    n
}

/// The checked-in corpus (`proptest-regressions/proptests.txt`) must be
/// found and parsed, otherwise the `cc <seed>` replay guarantee is silently
/// lost (e.g. after a move of the file or a format change).
#[test]
fn regression_corpus_is_loaded() {
    let seeds = proptest::corpus_seeds("proptests");
    assert!(
        seeds.len() >= 4,
        "expected the checked-in regression corpus, got {seeds:?}"
    );
    assert!(seeds.contains(&2007), "bootstrap seed missing: {seeds:?}");
}

proptest! {
    /// Token preservation: any interleaving of P/N/E firings keeps every
    /// cycle's token sum constant (the fundamental SCDMG invariant).
    #[test]
    fn dmg_cycles_preserve_tokens(seed in 0u64..500, steps in 1usize..200) {
        let g = fig1_dmg();
        let (cycles, _) = simple_cycles(&g, 100);
        let init = g.initial_marking();
        let sums: Vec<i64> = cycles.iter().map(|c| c.tokens(&init)).collect();
        let mut m = g.initial_marking();
        let mut exec = RandomExecutor::new(seed, SchedulingPolicy::UniformEnabled);
        exec.run(&g, &mut m, steps).unwrap();
        for (c, &expect) in cycles.iter().zip(&sums) {
            prop_assert_eq!(c.tokens(&m), expect);
        }
    }

    /// Ring pipelines with any legal token count stay live and their
    /// min-cycle-ratio bound is tokens/length (capped by bubbles).
    #[test]
    fn ring_throughput_bound(stages in 2usize..8, tokens in 1usize..8) {
        prop_assume!(tokens < stages * 2);
        let g = pipeline_ring(stages, tokens, 2);
        let r = elastic_circuits::dmg::analysis::min_cycle_ratio(&g, &vec![1; stages]).unwrap();
        let expect = (tokens as f64 / stages as f64)
            .min((stages as f64 * 2.0 - tokens as f64) / stages as f64);
        prop_assert!((r.ratio - expect).abs() < 1e-6,
            "stages {} tokens {}: got {} expect {}", stages, tokens, r.ratio, expect);
    }

    /// The SELF protocol language (I*R*T)* holds on every channel of a
    /// pipeline under arbitrary environment probabilities, and tokens are
    /// never lost, duplicated or reordered.
    #[test]
    fn pipeline_protocol_and_fifo(
        seed in 0u64..200,
        rate in 0.1f64..1.0,
        stop in 0.0f64..0.9,
        stages in 1usize..5,
    ) {
        let (net, _, cout) = linear_pipeline(stages, 0).unwrap();
        let snk = net.component_by_name("snk").unwrap();
        let mut cfg = EnvConfig::default();
        cfg.sources.insert("src".into(), SourceCfg { rate, data: DataGen::Counter });
        cfg.sinks.insert("snk".into(), SinkCfg { stop_prob: stop, kill_prob: 0.0 });
        let mut sim = BehavSim::new(&net).unwrap();
        let mut env = RandomEnv::new(seed, cfg);
        let mut trace = String::new();
        for _ in 0..400 {
            sim.step(&mut env).unwrap(); // protocol monitor armed inside
            trace.push(match sim.signals(cout).event() {
                elastic_circuits::core::channel::ChannelEvent::PositiveTransfer => 'T',
                elastic_circuits::core::channel::ChannelEvent::Retry => 'R',
                elastic_circuits::core::channel::ChannelEvent::Kill => 'K',
                _ => 'I',
            });
        }
        prop_assert!(is_self_language(&trace), "trace {}", trace);
        let got = sim.sink_received(snk);
        for (i, w) in got.windows(2).enumerate() {
            prop_assert_eq!(w[0] + 1, w[1], "gap at {}", i);
        }
    }

    /// The bit-parallel compiled backend is indistinguishable from the
    /// scalar gate-level interpreter: for random netlists and random
    /// per-lane input streams, every net of `WideSimulator` lane k matches
    /// a scalar `Simulator` run driven with lane k's inputs, on every one
    /// of 32 cycles.
    #[test]
    fn wide_lane_matches_scalar_simulator(seed in 0u64..10_000, lane_pick in 0u64..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_netlist(&mut rng);
        let lane = lane_pick as usize % LANES;
        let inputs = net.inputs().to_vec();
        let mut wide = WideSimulator::new(&net).unwrap();
        let mut scalar = Simulator::new(&net).unwrap();
        for cycle in 0..32 {
            let masks: Vec<(NetId, u64)> = inputs
                .iter()
                .map(|&i| (i, rng.gen_range(0..u64::MAX)))
                .collect();
            wide.cycle(&masks).unwrap();
            let drive: Vec<(NetId, bool)> = masks
                .iter()
                .map(|&(i, m)| (i, m >> lane & 1 == 1))
                .collect();
            scalar.cycle(&drive).unwrap();
            for id in net.nets() {
                prop_assert_eq!(
                    wide.value_lane(id, lane),
                    scalar.value(id),
                    "cycle {} lane {} net {}",
                    cycle,
                    lane,
                    net.net_name(id)
                );
            }
        }
    }

    /// The peephole-optimized tape (copy collapse, inverter fusion,
    /// constant folding, phase-aware dead-code elimination) is cycle-by-
    /// cycle lane-identical to the scalar gate-level interpreter on the
    /// preserved observation set — outputs and state elements — of random
    /// netlists under random 64-lane stimulus.
    #[test]
    fn peephole_tape_matches_scalar_simulator(seed in 0u64..10_000, lane_pick in 0u64..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = random_netlist(&mut rng);
        // Observe a random non-empty subset of nets; everything else may
        // legally go stale under the peephole contract.
        let all: Vec<NetId> = net.nets().collect();
        for _ in 0..rng.gen_range(1usize..5) {
            let pick = all[rng.gen_range(0..all.len())];
            net.mark_output(pick).unwrap();
        }
        let lane = lane_pick as usize % LANES;
        let inputs = net.inputs().to_vec();
        let (prog, stats) = Program::compile_optimized(&net).unwrap();
        prop_assert!(stats.instrs_after <= stats.instrs_before);
        let mut probes: Vec<NetId> = net.outputs().to_vec();
        probes.extend(net.state_elements());
        let mut wide = WideSimulator::from_program(prog);
        let mut scalar = Simulator::new(&net).unwrap();
        for cycle in 0..24 {
            let masks: Vec<(NetId, u64)> = inputs
                .iter()
                .map(|&i| (i, rng.gen_range(0..u64::MAX)))
                .collect();
            wide.cycle(&masks).unwrap();
            let drive: Vec<(NetId, bool)> = masks
                .iter()
                .map(|&(i, m)| (i, m >> lane & 1 == 1))
                .collect();
            scalar.cycle(&drive).unwrap();
            for &id in &probes {
                prop_assert_eq!(
                    wide.value_lane(id, lane),
                    scalar.value(id),
                    "cycle {} lane {} net {}",
                    cycle,
                    lane,
                    net.net_name(id)
                );
            }
        }
    }

    /// The multi-word backend: lane k of a `WideSim<4>` (256 trials per
    /// pass) matches a scalar `Simulator` run driven with lane k's inputs,
    /// on every net of random netlists — trial k lives in word k/64,
    /// bit k%64.
    #[test]
    fn multi_word_lane_matches_scalar_trial(seed in 0u64..10_000, lane_pick in 0u64..256) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(1));
        let net = random_netlist(&mut rng);
        let lane = lane_pick as usize % WideSim::<4>::num_lanes();
        let inputs = net.inputs().to_vec();
        let mut wide = WideSim::<4>::new(&net).unwrap();
        let mut scalar = Simulator::new(&net).unwrap();
        for cycle in 0..16 {
            let words: Vec<(NetId, [u64; 4])> = inputs
                .iter()
                .map(|&i| {
                    (i, [
                        rng.gen_range(0..u64::MAX),
                        rng.gen_range(0..u64::MAX),
                        rng.gen_range(0..u64::MAX),
                        rng.gen_range(0..u64::MAX),
                    ])
                })
                .collect();
            wide.cycle_wide(&words).unwrap();
            let drive: Vec<(NetId, bool)> = words
                .iter()
                .map(|&(i, w)| (i, w[lane / 64] >> (lane % 64) & 1 == 1))
                .collect();
            scalar.cycle(&drive).unwrap();
            for id in net.nets() {
                prop_assert_eq!(
                    wide.lane(id, lane),
                    scalar.value(id),
                    "cycle {} lane {} net {}",
                    cycle,
                    lane,
                    net.net_name(id)
                );
            }
        }
    }

    /// The tri-backend differential over generated topologies: for any
    /// sampled `TopoParams`, the behavioural reference, its DMG-replayed
    /// transfer trace, the compiled execution pipeline and the analytic
    /// min-cycle-ratio bound must all agree (`elastic_circuits::core::gen`).
    /// On failure the counterexample is shrunk to a minimal failing
    /// parameter set before being reported.
    #[test]
    fn generated_topology_differential(seed in 0u64..100_000) {
        use elastic_circuits::core::gen::{
            check_seed, shrink_params, DiffOptions, TopoParams,
        };
        let opts = DiffOptions { cycles: 160, lanes: 2, ..Default::default() };
        if let Err(e) = check_seed(seed, &opts) {
            let minimal = shrink_params(&TopoParams::sample(seed), &opts);
            prop_assert!(false, "differential failed: {e}\nminimal failing params: {minimal:?}");
        }
    }

    /// Generated topologies compile and round-trip through all three
    /// exporters (and the VCD renderer) without panicking — a typed
    /// `NetlistError` is the only acceptable failure mode, and compiled
    /// controllers (flip-flop based, pre-sanitized names) must in fact
    /// export cleanly.
    #[test]
    fn generated_topologies_export_cleanly(seed in 0u64..100_000) {
        use elastic_circuits::core::compile::{compile, CompileOptions};
        use elastic_circuits::core::gen::{generate, TopoParams};
        use elastic_circuits::netlist::export::{to_blif, to_smv, to_verilog};
        use elastic_circuits::netlist::vcd::VcdRecorder;
        let sys = generate(&TopoParams::sample(seed)).unwrap();
        // Early-evaluation guard masks need at least one data bit.
        let opts = CompileOptions {
            data_width: 2,
            ..CompileOptions::default()
        };
        let compiled = compile(&sys.network, &opts).unwrap();
        let v = to_verilog(&compiled.netlist);
        prop_assert!(v.is_ok(), "verilog export failed: {:?}", v.unwrap_err());
        let b = to_blif(&compiled.netlist);
        prop_assert!(b.is_ok(), "blif export failed: {:?}", b.unwrap_err());
        let s = to_smv(&compiled.netlist);
        prop_assert!(s.is_ok(), "smv export failed: {:?}", s.unwrap_err());
        let vcd = VcdRecorder::new(&compiled.netlist).render();
        prop_assert!(vcd.contains("$enddefinitions"));
    }

    /// With kills enabled, received data is still strictly increasing
    /// (no duplication, no reordering — kills only delete).
    #[test]
    fn kills_only_delete(seed in 0u64..200, kill in 0.05f64..0.5) {
        let (net, _, _) = linear_pipeline(3, 0).unwrap();
        let snk = net.component_by_name("snk").unwrap();
        let mut cfg = EnvConfig::default();
        cfg.sources.insert("src".into(), SourceCfg { rate: 0.8, data: DataGen::Counter });
        cfg.sinks.insert("snk".into(), SinkCfg { stop_prob: 0.2, kill_prob: kill });
        let mut sim = BehavSim::new(&net).unwrap();
        let mut env = RandomEnv::new(seed, cfg);
        sim.run(&mut env, 600).unwrap();
        let got = sim.sink_received(snk);
        for w in got.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// The DSL-built Fig. 9 system is component- and channel-identical to
    /// the seed's imperative construction, in every Table 1 configuration.
    #[test]
    fn dsl_paper_example_isomorphic_to_seed(cfg_idx in 0usize..5) {
        let config = Config::all()[cfg_idx];
        let dsl = paper_example(config).unwrap();
        let imp = paper_example_imperative(config).unwrap();
        if let Err(diff) = isomorphic(&dsl.network, &imp) {
            prop_assert!(false, "{config:?}: {diff}");
        }
    }

    /// Same for the linear pipeline family, over all sensible shapes.
    #[test]
    fn dsl_linear_pipeline_isomorphic_to_seed(stages in 0usize..8, tokens in 0usize..8) {
        let tokens = tokens.min(stages);
        let (net, _, _) = linear_pipeline(stages, tokens).unwrap();
        let imp = linear_pipeline_imperative(stages, tokens).unwrap();
        if let Err(diff) = isomorphic(&net, &imp) {
            prop_assert!(false, "stages={stages} tokens={tokens}: {diff}");
        }
    }
}
