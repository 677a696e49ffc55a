//! Cross-crate integration tests: end-to-end flows spanning the DMG model,
//! the elastic core, the netlist compiler and the model checker.

use elastic_circuits::core::sim::{BehavSim, DataGen, EnvConfig, RandomEnv, SinkCfg, SourceCfg};
use elastic_circuits::core::systems::{linear_pipeline, paper_example, Config};
use elastic_circuits::core::verify::cosim_check;

#[test]
fn fig8a_cosim_smoke_linear_pipeline() {
    // Fast, fully deterministic gate-level vs behavioural equivalence check
    // on linear_pipeline(2, 0): one fixed seed, every rail of every channel
    // compared on every cycle. The randomized fuzz test below covers
    // breadth; this pins the fig. 8 equivalence claim in tier-1 even if the
    // fuzz seeds ever change.
    let (net, _, _) = linear_pipeline(2, 0).unwrap();
    let cfg = EnvConfig {
        default_source: SourceCfg {
            rate: 0.7,
            data: DataGen::Counter,
        },
        default_sink: SinkCfg {
            stop_prob: 0.3,
            kill_prob: 0.2,
        },
        ..Default::default()
    };
    cosim_check(&net, &cfg, 2007, 1, 500, 2).expect("gate-level and behavioural sims must agree");
}

#[test]
fn fig8b_data_correctness_alternating_stream() {
    // Producers alternate 0/1; consumers nondeterministically stop or kill.
    // Whatever survives must still alternate (each kill removes exactly one
    // element of the stream and the stream is 0,1,0,1,... so any *suffix
    // after removals* is still strictly alternating only if removals are
    // FIFO-consistent — which they are: anti-tokens always annihilate the
    // oldest in-flight token on their path).
    let (net, _, _) = linear_pipeline(4, 0).unwrap();
    let snk = net.component_by_name("snk").unwrap();
    let mut cfg = EnvConfig::default();
    cfg.sources.insert(
        "src".into(),
        SourceCfg {
            rate: 0.8,
            data: DataGen::Counter,
        },
    );
    cfg.sinks.insert(
        "snk".into(),
        SinkCfg {
            stop_prob: 0.3,
            kill_prob: 0.25,
        },
    );
    for seed in 0..10 {
        let mut sim = BehavSim::new(&net).unwrap();
        let mut env = RandomEnv::new(seed, cfg.clone());
        sim.run(&mut env, 3000).unwrap();
        let got = sim.sink_received(snk);
        assert!(!got.is_empty());
        for w in got.windows(2) {
            assert!(w[0] < w[1], "seed {seed}: order violated: {w:?}");
        }
    }
}

#[test]
fn paper_table1_ordering_end_to_end() {
    let mut th = Vec::new();
    for config in Config::all() {
        let sys = paper_example(config).unwrap();
        let mut sim = BehavSim::new(&sys.network).unwrap();
        let mut env = RandomEnv::new(3, sys.env_config.clone());
        sim.run(&mut env, 8000).unwrap();
        th.push(sim.report().positive_rate(sys.output_channel));
    }
    // Active > PassiveF3W > NoBuffer > PassiveM2W >= lazy-ish ordering.
    assert!(th[0] > th[2], "active {} > passiveF3 {}", th[0], th[2]);
    assert!(th[2] > th[1], "passiveF3 {} > nobuffer {}", th[2], th[1]);
    assert!(th[1] > th[3], "nobuffer {} > passiveM {}", th[1], th[3]);
    assert!(
        th[3] > th[4] * 0.95,
        "passiveM {} ~>= lazy {}",
        th[3],
        th[4]
    );
}

#[test]
fn gate_level_agrees_with_reference_on_random_networks() {
    // Randomized topology fuzzing: chains with random joins/forks, random
    // environments, gate-level vs behavioural equivalence.
    use elastic_circuits::core::network::ElasticNetwork;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = ElasticNetwork::new(format!("fuzz{seed}"));
        let s1 = net.add_source("s1").unwrap();
        let s2 = net.add_source("s2").unwrap();
        let b1 = net.add_eb("b1", rng.gen_bool(0.5)).unwrap();
        let b2 = net.add_eb("b2", rng.gen_bool(0.5)).unwrap();
        let j = net.add_join("j", 2).unwrap();
        let b3 = net.add_eb("b3", false).unwrap();
        let f = net.add_fork("f", 2).unwrap();
        let k1 = net.add_sink("k1").unwrap();
        let k2 = net.add_sink("k2").unwrap();
        net.connect(s1, 0, b1, 0, "c1").unwrap();
        net.connect(s2, 0, b2, 0, "c2").unwrap();
        net.connect(b1, 0, j, 0, "j1").unwrap();
        net.connect(b2, 0, j, 1, "j2").unwrap();
        net.connect(j, 0, b3, 0, "jo").unwrap();
        net.connect(b3, 0, f, 0, "fi").unwrap();
        let o1 = net.connect(f, 0, k1, 0, "o1").unwrap();
        net.connect(f, 1, k2, 0, "o2").unwrap();
        if rng.gen_bool(0.3) {
            net.set_passive(o1).unwrap();
        }
        let cfg = EnvConfig {
            default_source: SourceCfg {
                rate: rng.gen_range(0.3..1.0),
                data: DataGen::Counter,
            },
            default_sink: SinkCfg {
                stop_prob: rng.gen_range(0.0..0.5),
                kill_prob: rng.gen_range(0.0..0.4),
            },
            ..Default::default()
        };
        cosim_check(&net, &cfg, seed.wrapping_mul(97), 1, 700, 2)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn verilog_blif_smv_export_of_paper_example() {
    use elastic_circuits::core::compile::{compile, CompileOptions};
    use elastic_circuits::netlist::export::{to_blif, to_smv, to_verilog};
    let sys = paper_example(Config::ActiveAntiTokens).unwrap();
    let compiled = compile(
        &sys.network,
        &CompileOptions {
            data_width: 2,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let v = to_verilog(&compiled.netlist).unwrap();
    assert!(v.contains("module") && v.contains("endmodule"));
    assert!(v.len() > 5000, "full controller netlist");
    let b = to_blif(&compiled.netlist).unwrap();
    assert!(b.contains(".model") && b.contains(".latch"));
    let s = to_smv(&compiled.netlist).unwrap();
    assert!(s.contains("MODULE main") && s.contains("next("));
}

#[test]
fn throughput_equalization_is_a_dmg_theorem() {
    // The repetitive-behaviour property of SCDMGs (Sect. 2.2) predicts that
    // Th = (+) + (-) + (x) is identical on every channel. Check it on the
    // counterflow-heavy active configuration.
    let sys = paper_example(Config::ActiveAntiTokens).unwrap();
    let mut sim = BehavSim::new(&sys.network).unwrap();
    let mut env = RandomEnv::new(17, sys.env_config.clone());
    sim.run(&mut env, 12_000).unwrap();
    let r = sim.report();
    let reference = r.throughput(sys.channels.dout);
    for c in sys.network.channels() {
        let name = &sys.network.channel(c).name;
        // Channels entirely inside the M/F branches see the same Th; the
        // only systematic deviation is bounded occupancy drift.
        let th = r.throughput(c);
        assert!(
            (th - reference).abs() < 0.03,
            "{name}: Th {th} vs reference {reference}"
        );
    }
}

#[test]
fn fig9_rebuilt_through_the_elasticization_flow() {
    // Build the paper's datapath as a *synchronous* description and run it
    // through the Sect. 6 elasticization; the result must carry the same
    // early-evaluation behaviour as the hand-built systems::paper_example.
    use elastic_circuits::core::elasticize::{elasticize, SyncDatapath};
    use elastic_circuits::core::systems::w_early_eval;

    let mut dp = SyncDatapath::new("fig9_sync");
    let din = dp.input("Din").unwrap();
    let dout = dp.output("Dout").unwrap();
    let s = dp.block("S", 2).unwrap();
    let eb_i = dp.register("EBi", false).unwrap();
    let f1 = dp.register("F1", false).unwrap();
    let f2 = dp.register("F2", false).unwrap();
    let f3 = dp.register("F3", false).unwrap();
    let eb_sm = dp.register("EBsm", false).unwrap();
    let m1 = dp.var_latency_block("M1").unwrap();
    let m2 = dp.var_latency_block("M2").unwrap();
    let eb_mo = dp.register("EBmo", false).unwrap();
    let c = dp.register("C", false).unwrap();
    let w = dp.early_block("W", 4, w_early_eval()).unwrap();
    let w1 = dp.register("W1", true).unwrap();
    let w2 = dp.register("W2", true).unwrap();
    let w3 = dp.register("W3", true).unwrap();
    dp.wire(din, s, 0);
    dp.wire(s, eb_i, 0);
    dp.wire(s, f1, 0);
    dp.wire(s, eb_sm, 0);
    dp.wire(s, c, 0);
    dp.wire(f1, f2, 0);
    dp.wire(f2, f3, 0);
    dp.wire(eb_sm, m1, 0);
    dp.wire(m1, m2, 0);
    dp.wire(m2, eb_mo, 0);
    dp.wire(c, w, 0);
    dp.wire(eb_i, w, 1);
    dp.wire(f3, w, 2);
    dp.wire(eb_mo, w, 3);
    dp.wire(w, w1, 0);
    dp.wire(w1, w2, 0);
    dp.wire(w2, w3, 0);
    dp.wire(w3, dout, 0);
    dp.wire(w3, s, 1);

    let net = elasticize(&dp).unwrap();
    let sys = paper_example(Config::ActiveAntiTokens).unwrap();
    let mut env_cfg = sys.env_config.clone();
    // The elasticized VL controllers are named "<block>.vl".
    let m1d = env_cfg.vls.remove("M1").unwrap();
    let m2d = env_cfg.vls.remove("M2").unwrap();
    env_cfg.vls.insert("M1.vl".into(), m1d);
    env_cfg.vls.insert("M2.vl".into(), m2d);

    let mut sim = BehavSim::new(&net).unwrap();
    let mut env = RandomEnv::new(3, env_cfg);
    sim.run(&mut env, 8000).unwrap();
    let out = net.channel_by_name("W3->Dout").unwrap();
    let th = sim.report().positive_rate(out);

    // Same topology, same environment: throughput in the same band as the
    // hand-built active configuration.
    let mut ref_sim = BehavSim::new(&sys.network).unwrap();
    let mut ref_env = RandomEnv::new(3, sys.env_config.clone());
    ref_sim.run(&mut ref_env, 8000).unwrap();
    let ref_th = ref_sim.report().positive_rate(sys.output_channel);
    assert!(
        (th - ref_th).abs() < 0.06,
        "elasticized {th} vs hand-built {ref_th}"
    );
}

#[test]
fn vcd_capture_of_compiled_controllers() {
    use elastic_circuits::core::compile::{compile, CompileOptions};
    use elastic_circuits::netlist::sim::Simulator;
    use elastic_circuits::netlist::vcd::VcdRecorder;
    let (net, _, _) = linear_pipeline(2, 1).unwrap();
    let compiled = compile(&net, &CompileOptions::default()).unwrap();
    let nl = &compiled.netlist;
    let mut sim = Simulator::new(nl).unwrap();
    let mut vcd = VcdRecorder::with_nets(nl, &["out.vp", "out.sp"]).unwrap();
    let offer = nl.find("src.offer").unwrap();
    for _ in 0..10 {
        sim.cycle(&[(offer, true)]).unwrap();
        vcd.sample(&sim);
    }
    let text = vcd.render();
    assert!(text.contains("$enddefinitions"));
    assert!(text.contains("out_vp"));
}
