//! Property-based tests over the core invariants, using proptest.

use std::collections::HashMap;

use elastic_circuits::core::dsl::isomorphic;
use elastic_circuits::core::protocol::is_self_language;
use elastic_circuits::core::sim::{BehavSim, DataGen, EnvConfig, RandomEnv, SinkCfg, SourceCfg};
use elastic_circuits::core::systems::{
    linear_pipeline, linear_pipeline_imperative, paper_example, paper_example_imperative, Config,
};
use elastic_circuits::dmg::analysis::simple_cycles;
use elastic_circuits::dmg::examples::{fig1_dmg, pipeline_ring};
use elastic_circuits::dmg::exec::{RandomExecutor, SchedulingPolicy};
use elastic_circuits::mc::{netlist_kripke, BridgeOptions, Kripke};
use elastic_circuits::netlist::kernel::Kernel;
use elastic_circuits::netlist::levelize::Program;
use elastic_circuits::netlist::reach;
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
/// A random gate (AND, OR, XOR, mux or three-input AND) over operands
/// drawn from `ops`, each inverted at random.
fn random_gate(net: &mut Netlist, rng: &mut StdRng, ops: [NetId; 3]) -> NetId {
    let lit = |net: &mut Netlist, rng: &mut StdRng| {
        let x = ops[rng.gen_range(0..3)];
        if rng.gen_bool(0.3) {
            net.not(x)
        } else {
            x
        }
    };
    let (a, b, c) = (lit(net, rng), lit(net, rng), lit(net, rng));
    match rng.gen_range(0u32..5) {
        0 => net.and2(a, b),
        1 => net.or2(a, b),
        2 => net.xor(a, b),
        3 => net.mux(a, b, c),
        _ => net.and([a, b, c]),
    }
}

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

    /// The peephole-optimized tape on every kernel build: a `WideSim<8>`
    /// (512 trials per pass) runs the optimized tape of a random netlist
    /// through each build this CPU runs, fed packed stimulus rows the way
    /// Monte-Carlo shards feed it. Every build must produce the same words
    /// on the preserved observation set, and one lane per word must match
    /// a scalar `Simulator` run driven with that lane's inputs. Latches of
    /// both phases come from `random_netlist`; observed readers of
    /// inverters appended to it put `Nor2`s and `AndN` inverted tails on
    /// the tape.
    #[test]
    fn optimized_tape_matches_scalar_on_every_kernel(seed in 0u64..10_000, lane_pick in 0u64..64) {
        const W: usize = 8;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(5).wrapping_add(2));
        let mut net = random_netlist(&mut rng);
        let all: Vec<NetId> = net.nets().collect();
        for _ in 0..rng.gen_range(1usize..5) {
            let pick = all[rng.gen_range(0..all.len())];
            net.mark_output(pick).unwrap();
        }
        for _ in 0..rng.gen_range(1usize..4) {
            let pick = |rng: &mut StdRng| all[rng.gen_range(0..all.len())];
            let (x, y, z) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
            let nx = net.not(x);
            let ny = net.not(y);
            let reader = match rng.gen_range(0u32..3) {
                0 => net.and_not(nx, y), // Nor2(x, y)
                1 => net.and([x, ny, z]), // AndN, tail [y]
                _ => net.and([nx, z, ny]), // AndN, tail [x, y]
            };
            net.mark_output(reader).unwrap();
        }
        let (prog, _) = Program::compile_optimized(&net).unwrap();
        let mut probes: Vec<NetId> = net.outputs().to_vec();
        probes.extend(net.state_elements());
        let slots: Vec<u32> = net.inputs().iter().map(|i| i.index() as u32).collect();
        // One lane per word, at a different bit in each.
        let lanes: Vec<usize> = (0..W)
            .map(|w| w * LANES + (lane_pick as usize + 7 * w) % LANES)
            .collect();
        let builds = Kernel::available();
        let mut sims: Vec<WideSim<W>> = builds
            .iter()
            .map(|&k| WideSim::from_program(prog.clone()).with_kernel(k))
            .collect();
        let mut scalars: Vec<Simulator> = lanes.iter().map(|_| Simulator::new(&net).unwrap()).collect();
        for cycle in 0..24 {
            let row: Vec<u64> = (0..slots.len() * W).map(|_| rng.gen_range(0..u64::MAX)).collect();
            for sim in &mut sims {
                sim.cycle_packed(&slots, &row);
            }
            for &id in &probes {
                for (sim, kernel) in sims.iter().zip(&builds).skip(1) {
                    for w in 0..W {
                        prop_assert_eq!(
                            sim.word(id, w),
                            sims[0].word(id, w),
                            "cycle {} word {} net {}: {:?} vs {:?}",
                            cycle,
                            w,
                            net.net_name(id),
                            kernel,
                            builds[0]
                        );
                    }
                }
            }
            for (scalar, &lane) in scalars.iter_mut().zip(&lanes) {
                let drive: Vec<(NetId, bool)> = net
                    .inputs()
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (id, row[i * W + lane / LANES] >> (lane % LANES) & 1 == 1))
                    .collect();
                scalar.cycle(&drive).unwrap();
                for &id in &probes {
                    for (sim, kernel) in sims.iter().zip(&builds) {
                        prop_assert_eq!(
                            sim.lane(id, lane),
                            scalar.value(id),
                            "cycle {} lane {} net {} on {:?}",
                            cycle,
                            lane,
                            net.net_name(id),
                            kernel
                        );
                    }
                }
            }
        }
    }

    /// The tape folded to fixed inputs (`Program::fold_inputs`) on every
    /// kernel build: a random subset of a random netlist's inputs (the
    /// first one always) is held at random constants in every lane and
    /// cycle, and a `WideSim<8>` on the folded optimized tape must match a
    /// scalar `Simulator` on the preserved observation set (every output
    /// and state element, pinned flip-flops included) in one lane per
    /// word. Gates appended in duplicate, with commuted operands, give
    /// value numbering equal instructions to merge, one of them folding
    /// to a constant. Flip-flops appended behind a held input exercise
    /// the flip-flop induction: the first is forced to its power-up value
    /// and folds away (so every case folds at least one), the others
    /// power up at random (one forced to the complement of its power-up
    /// value stays), a pair holding each other at 0 folds only through
    /// the optimistic assumption, and others read themselves through a
    /// random reconverging cone. A mod-3 counter stepping on a random net
    /// and a flip-flop set only from its unreachable state 11 exercise the
    /// reachable-state search: no literal scan pins that flip-flop, and
    /// it folds whenever the search completes.
    #[test]
    fn folded_tape_matches_scalar_on_every_kernel(seed in 0u64..10_000, lane_pick in 0u64..64) {
        const W: usize = 8;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7).wrapping_add(3));
        let mut net = random_netlist(&mut rng);
        let all: Vec<NetId> = net.nets().collect();
        for _ in 0..rng.gen_range(1usize..5) {
            let pick = all[rng.gen_range(0..all.len())];
            net.mark_output(pick).unwrap();
        }
        for _ in 0..rng.gen_range(1usize..4) {
            let pick = |rng: &mut StdRng| all[rng.gen_range(0..all.len())];
            let (x, y, z) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
            let (first, second) = match rng.gen_range(0u32..3) {
                0 => (net.and2(x, y), net.and2(y, x)),
                1 => (net.and([x, y, z]), net.and([z, x, y])),
                _ => (net.or2(x, y), net.or2(y, x)),
            };
            let same = net.xor(first, second); // 0 once merged
            let reader = net.or2(same, z);
            net.mark_output(reader).unwrap();
            if rng.gen_bool(0.3) {
                net.mark_output(second).unwrap();
            }
        }
        let mut held: Vec<(NetId, bool)> = Vec::new();
        for (k, &i) in net.inputs().iter().enumerate() {
            if k == 0 || rng.gen_bool(0.5) {
                held.push((i, rng.gen_bool(0.5)));
            }
        }
        let fixed: Vec<(u32, bool)> = held.iter().map(|&(i, v)| (i.index() as u32, v)).collect();
        // Flip-flops whose data a held input forces to its value (an AND
        // with a held 0, an OR with a held 1); the first one powers up at
        // that value.
        let mut gated = Vec::new();
        for k in 0..rng.gen_range(1usize..4) {
            let (f, v) = held[rng.gen_range(0..held.len())];
            let q = net.dff(if k == 0 { v } else { rng.gen_bool(0.5) });
            let x = if rng.gen_bool(0.3) { q } else { all[rng.gen_range(0..all.len())] };
            let d = if v { net.or2(f, x) } else { net.and2(f, x) };
            net.bind_dff(q, d).unwrap();
            gated.push(q);
        }
        // Flip-flops whose data is a random cone over the flip-flop and
        // two nets that reconverges (two gates over those three, and a
        // gate over both and one of the nets again), so the literals the
        // fold compares decide whether they stay.
        for _ in 0..rng.gen_range(1usize..5) {
            let q = net.dff(rng.gen_bool(0.5));
            let (y, z) = (all[rng.gen_range(0..all.len())], all[rng.gen_range(0..all.len())]);
            let g = random_gate(&mut net, &mut rng, [q, y, z]);
            let h = random_gate(&mut net, &mut rng, [q, y, z]);
            let d = random_gate(&mut net, &mut rng, [g, h, y]);
            net.bind_dff(q, d).unwrap();
            gated.push(q);
        }
        if rng.gen_bool(0.5) {
            let (a, b) = (all[rng.gen_range(0..all.len())], all[rng.gen_range(0..all.len())]);
            let (q1, q2) = (net.dff(false), net.dff(false));
            let (d1, d2) = (net.and2(q2, a), net.and2(q1, b));
            net.bind_dff(q1, d1).unwrap();
            net.bind_dff(q2, d2).unwrap();
            gated.extend([q1, q2]);
        }
        let inc = all[rng.gen_range(0..all.len())];
        let (c0, c1, z) = (net.dff(false), net.dff(false), net.dff(false));
        let idle = net.or2(c0, c1);
        let step0 = net.not(idle);
        let d0 = net.mux(inc, step0, c0);
        let d1 = net.mux(inc, c0, c1);
        net.bind_dff(c0, d0).unwrap();
        net.bind_dff(c1, d1).unwrap();
        let both = net.and2(c0, c1);
        let dz = net.or2(z, both);
        net.bind_dff(z, dz).unwrap();
        gated.extend([c1, z]);
        for q in gated {
            let reader = net.xor(q, all[rng.gen_range(0..all.len())]);
            net.mark_output(reader).unwrap();
        }
        let (prog, _) = Program::compile_optimized(&net).unwrap();
        let (folded, finished) = prog.fold_inputs(&fixed, reach::SEARCH_BUDGET).unwrap();
        prop_assert!(folded.high().len() + folded.low().len() <= prog.high().len() + prog.low().len());
        prop_assert!(folded.ffs().len() < prog.ffs().len(), "no flip-flop folded");
        // The fold searches the tape without the flip-flops the literal
        // scan pins: the same reachable states, one by one, and the same
        // inputs, so it completes whenever this search of the whole tape
        // does.
        if reach::search(&prog, &fixed, &[], reach::SEARCH_BUDGET).is_some() {
            prop_assert!(finished, "the whole tape's search completed and the fold's did not");
            prop_assert!(
                folded.ffs().iter().all(|f| f.q as usize != z.index()),
                "the search completed and the flip-flop set from 11 stayed"
            );
        }
        let mut probes: Vec<NetId> = net.outputs().to_vec();
        probes.extend(net.state_elements());
        let slots: Vec<u32> = net.inputs().iter().map(|i| i.index() as u32).collect();
        let lanes: Vec<usize> = (0..W)
            .map(|w| w * LANES + (lane_pick as usize + 5 * w) % LANES)
            .collect();
        let builds = Kernel::available();
        let mut sims: Vec<WideSim<W>> = builds
            .iter()
            .map(|&k| WideSim::from_program(folded.clone()).with_kernel(k))
            .collect();
        let mut scalars: Vec<Simulator> = lanes.iter().map(|_| Simulator::new(&net).unwrap()).collect();
        for cycle in 0..24 {
            let row: Vec<u64> = slots
                .iter()
                .flat_map(|s| {
                    let held = fixed.iter().find(|&&(f, _)| f == *s).map(|&(_, v)| v);
                    (0..W)
                        .map(|_| match held {
                            Some(v) => 0u64.wrapping_sub(u64::from(v)),
                            None => rng.gen_range(0..u64::MAX),
                        })
                        .collect::<Vec<u64>>()
                })
                .collect();
            for sim in &mut sims {
                sim.cycle_packed(&slots, &row);
            }
            for (scalar, &lane) in scalars.iter_mut().zip(&lanes) {
                let drive: Vec<(NetId, bool)> = net
                    .inputs()
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (id, row[i * W + lane / LANES] >> (lane % LANES) & 1 == 1))
                    .collect();
                scalar.cycle(&drive).unwrap();
                for &id in &probes {
                    for (sim, kernel) in sims.iter().zip(&builds) {
                        prop_assert_eq!(
                            sim.lane(id, lane),
                            scalar.value(id),
                            "cycle {} lane {} net {} on {:?}, fixed {:?}",
                            cycle,
                            lane,
                            net.net_name(id),
                            kernel,
                            fixed
                        );
                    }
                }
            }
        }
    }

    /// The reachable-state search against a brute-force reference built
    /// only on the scalar simulator's `cycle` and `value`. On latch-free
    /// random netlists of one to three inputs and one to six flip-flops
    /// (at most 64 states of 8 inputs each, inside the search budget),
    /// every flip-flop and gate named and every input free, the reference
    /// reaches each state by replaying an input path from power-up,
    /// breadth first. `reach::search` on the peephole-optimized tape
    /// reaches as many states, and `netlist_kripke` (the same search on the
    /// raw lowering) gives every (state, input) pair the reference's
    /// successor and every named net the reference's set of pairs.
    #[test]
    fn state_search_counts_the_model_checkers_states(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(11).wrapping_add(5));
        let mut net = Netlist::new("latch_free");
        let mut nets: Vec<NetId> = (0..rng.gen_range(1usize..4))
            .map(|i| net.input(format!("in{i}")))
            .collect();
        let inputs = nets.clone();
        let ffs: Vec<NetId> = (0..rng.gen_range(1usize..7))
            .map(|_| net.dff(rng.gen_bool(0.5)))
            .collect();
        nets.extend(&ffs);
        for _ in 0..rng.gen_range(2usize..20) {
            let ops = [0; 3].map(|_| nets[rng.gen_range(0..nets.len())]);
            let gate = random_gate(&mut net, &mut rng, ops);
            nets.push(gate);
        }
        for &q in &ffs {
            let d = nets[rng.gen_range(0..nets.len())];
            net.bind_dff(q, d).unwrap();
        }
        for (k, &n) in nets.iter().enumerate().skip(inputs.len()) {
            net.set_name(n, format!("n{k}")).unwrap();
        }
        let combos = 1usize << inputs.len();
        let drive = |c: usize| -> Vec<(NetId, bool)> {
            inputs.iter().enumerate().map(|(j, &i)| (i, c >> j & 1 == 1)).collect()
        };
        // A power-up simulator run along `path` and then one cycle under
        // `c`: the cycle of the pair (the state `path` reaches, `c`).
        let run = |path: &[usize], c: usize| {
            let mut sim = Simulator::new(&net).unwrap();
            for &p in path.iter().chain([&c]) {
                sim.cycle(&drive(p)).unwrap();
            }
            sim
        };
        let state = |sim: &Simulator| ffs.iter().map(|&q| sim.value(q)).collect::<Vec<bool>>();
        let named = net.named_nets();
        let mut paths: Vec<Vec<usize>> = vec![Vec::new()];
        let mut index = HashMap::from([(state(&run(&[], 0)), 0)]);
        let mut succ = Vec::new();
        let mut atoms: Vec<Vec<usize>> = vec![Vec::new(); named.len()];
        let mut k = 0;
        while k < paths.len() {
            for c in 0..combos {
                let mut sim = run(&paths[k], c);
                for (pairs, &(_, n)) in atoms.iter_mut().zip(&named) {
                    if sim.value(n) {
                        pairs.push(succ.len());
                    }
                }
                // The next cycle starts from the pair's successor.
                sim.cycle(&drive(0)).unwrap();
                let mut path = paths[k].clone();
                path.push(c);
                let fresh = paths.len();
                let next = *index.entry(state(&sim)).or_insert(fresh);
                if next == fresh {
                    paths.push(path);
                }
                succ.push(next);
            }
            k += 1;
        }
        let (prog, _) = Program::compile_optimized(&net).unwrap();
        let searched = reach::search(&prog, &[], &[], reach::SEARCH_BUDGET);
        prop_assert!(searched.is_some(), "64 states of 8 inputs fit the budget");
        prop_assert_eq!(searched.unwrap().states, paths.len());
        let kripke = netlist_kripke(&net, &[], BridgeOptions::default()).unwrap();
        prop_assert_eq!(kripke.num_ff_states(), paths.len());
        prop_assert_eq!(kripke.num_states(), succ.len());
        let mut post = Vec::new();
        for (pair, &next) in succ.iter().enumerate() {
            post.clear();
            kripke.post(pair, &mut post);
            prop_assert_eq!(post[0] / combos, next, "successor of pair {}", pair);
        }
        for (pairs, &(name, _)) in atoms.iter().zip(&named) {
            let set = kripke.atom_set(name).unwrap();
            prop_assert_eq!(&set.iter().collect::<Vec<_>>(), pairs, "pairs of {}", name);
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
