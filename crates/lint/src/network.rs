//! Network-level lint passes over [`ElasticNetwork`].
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | E101 | error    | token-starved cycle (deadlocks at power-up, paper Sect. 2) |
//! | E102 | error    | cycle with no elastic buffer (combinational loop after compile) |
//! | E103 | error    | unconnected input/output port |
//! | E104 | error    | degenerate join/fork arity, or an early-evaluation guard that fails validation against its join |
//! | E105 | error    | early-enabling join input whose anti-tokens have nowhere to annihilate (no backward path to a token source or passive boundary) |
//! | E106 | error    | controller not forward-reachable from any token origin (dead logic) |
//! | W201 | warning  | passive channel with no early-evaluation join downstream |
//! | W202 | warning  | single-point-of-failure channel: a lost token on a closed one-token buffer ring is unrecoverable |
//! | W301 | warning  | buffer capacity caps the lazy throughput bound below 1 token/cycle |
//!
//! The passes only use the network's public accessors, so they run on
//! networks in any state of construction — unlike
//! [`ElasticNetwork::check`], an unwired port is a finding (E103), not a
//! precondition failure.

use elastic_core::network::{CompId, ComponentKind, ElasticNetwork};
use elastic_core::sim::EnvConfig;

use crate::{Diagnostic, LintReport};

/// Runs every structural network pass (E101–E106, W201, W202).
///
/// [`lint_network_with_env`] additionally runs the throughput-bound pass,
/// which needs the environment's latency distributions.
pub fn lint_network(net: &ElasticNetwork) -> LintReport {
    let mut diags = Vec::new();
    check_unconnected_ports(net, &mut diags);
    check_arity(net, &mut diags);
    check_bufferless_cycles(net, &mut diags);
    check_token_liveness(net, &mut diags);
    check_counterflow_paths(net, &mut diags);
    check_reachability(net, &mut diags);
    check_passive_utility(net, &mut diags);
    check_single_point_of_failure(net, &mut diags);
    LintReport::new(diags)
}

/// Runs [`lint_network`] plus the W301 static throughput lint, which
/// cross-checks buffer capacities against the min-cycle-ratio bound of
/// [`elastic_core::dmg_bridge`].
pub fn lint_network_with_env(net: &ElasticNetwork, env: &EnvConfig) -> LintReport {
    let mut report = lint_network(net);
    check_throughput_bound(net, env, &mut report.diagnostics);
    report
}

/// E103: every declared port must be wired to a channel.
fn check_unconnected_ports(net: &ElasticNetwork, diags: &mut Vec<Diagnostic>) {
    for c in net.components() {
        let comp = net.component(c);
        for port in 0..comp.kind.num_inputs() {
            if net.input_channel(c, port).is_none() {
                diags.push(Diagnostic::error(
                    "E103",
                    comp.name.clone(),
                    format!("input port {port} is unconnected"),
                ));
            }
        }
        for port in 0..comp.kind.num_outputs() {
            if net.output_channel(c, port).is_none() {
                diags.push(Diagnostic::error(
                    "E103",
                    comp.name.clone(),
                    format!("output port {port} is unconnected"),
                ));
            }
        }
    }
}

/// E104: zero-arity joins/forks, and early-evaluation guards that fail
/// validation against their join's arity. `add_early_join` validates at
/// construction, but the raw `add()` escape hatch does not — this pass
/// closes that hole.
fn check_arity(net: &ElasticNetwork, diags: &mut Vec<Diagnostic>) {
    for c in net.components() {
        let comp = net.component(c);
        match &comp.kind {
            ComponentKind::Join { inputs, ee } => {
                if *inputs == 0 {
                    diags.push(
                        Diagnostic::error("E104", comp.name.clone(), "join declares zero inputs")
                            .with_suggestion("a join needs at least one input channel"),
                    );
                }
                if let Some(ee) = ee {
                    if let Err(e) = ee.validate(*inputs) {
                        diags.push(Diagnostic::error(
                            "E104",
                            comp.name.clone(),
                            format!(
                                "early-evaluation function is invalid for a {inputs}-input \
                                 join: {e}"
                            ),
                        ));
                    }
                }
            }
            ComponentKind::Fork { outputs } if *outputs == 0 => {
                diags.push(
                    Diagnostic::error("E104", comp.name.clone(), "fork declares zero outputs")
                        .with_suggestion("a fork needs at least one output channel"),
                );
            }
            _ => {}
        }
    }
}

/// E102: a cycle passing only through components that do not register all
/// rails (joins, forks, variable-latency units) compiles to a
/// combinational loop.
fn check_bufferless_cycles(net: &ElasticNetwork, diags: &mut Vec<Diagnostic>) {
    if let Some(cycle) = net.find_uncut_cycle(ComponentKind::cuts_forward_path) {
        diags.push(
            Diagnostic::error(
                "E102",
                cycle_site(net, &cycle),
                "cycle contains no elastic buffer; the compiled control rails form a \
                 combinational loop",
            )
            .with_suggestion("insert an elastic buffer (add_eb/add_buffer) on the cycle"),
        );
    }
}

/// E101: a cycle avoiding every token-holding buffer carries no initial
/// token, so its joins wait on each other forever (paper Sect. 2's
/// liveness obligation).
fn check_token_liveness(net: &ElasticNetwork, diags: &mut Vec<Diagnostic>) {
    if let Some(cycle) = net.find_uncut_cycle(ComponentKind::cuts_token_free_path) {
        diags.push(
            Diagnostic::error(
                "E101",
                cycle_site(net, &cycle),
                "cycle carries no initial token and will deadlock at power-up",
            )
            .with_suggestion("set init_token on one of the cycle's elastic buffers"),
        );
    }
}

/// E105: an early-evaluation join emits anti-tokens on the inputs it fires
/// without. Each such input needs somewhere for the anti-token to
/// annihilate: walking the channel backward must reach a source, a
/// token-holding buffer, or a passive boundary that absorbs it. An input
/// whose backward cone has none of these accumulates anti-tokens forever.
fn check_counterflow_paths(net: &ElasticNetwork, diags: &mut Vec<Diagnostic>) {
    for c in net.components() {
        let comp = net.component(c);
        let ComponentKind::Join {
            inputs,
            ee: Some(ee),
        } = &comp.kind
        else {
            continue;
        };
        // An input receives anti-tokens only if some term can fire without
        // it. The guard is implicitly required by every term.
        for port in 0..*inputs {
            if port == ee.guard_input {
                continue;
            }
            let always_required = ee.terms.iter().all(|t| t.required.contains(&port));
            if always_required {
                continue;
            }
            let Some(chan) = net.input_channel(c, port) else {
                continue; // E103 reports the missing wire.
            };
            if net.channel(chan).passive {
                // Passive interface: the anti-token is stopped at this
                // boundary and annihilates against the next arriving token.
                continue;
            }
            if !counterflow_reaches_token_source(net, net.channel(chan).from.0) {
                diags.push(
                    Diagnostic::error(
                        "E105",
                        format!("{} input {port} ({})", comp.name, net.channel(chan).name),
                        "anti-tokens emitted on this input have no backward path to a \
                         token source or passive boundary",
                    )
                    .with_suggestion(
                        "mark the channel passive (set_passive) or route the input from a \
                         token-producing region",
                    ),
                );
            }
        }
    }
}

/// Backward closure over active channels from `start`: true when the cone
/// contains a source, a token-holding buffer, or crosses a passive
/// boundary (all of which consume anti-tokens).
fn counterflow_reaches_token_source(net: &ElasticNetwork, start: CompId) -> bool {
    let absorbs = |k: &ComponentKind| {
        matches!(
            k,
            ComponentKind::Source
                | ComponentKind::Eb {
                    init_token: true,
                    ..
                }
        )
    };
    if absorbs(&net.component(start).kind) {
        return true;
    }
    let mut visited = vec![false; net.num_components()];
    visited[start.index()] = true;
    let mut queue = vec![start];
    while let Some(v) = queue.pop() {
        for port in 0..net.component(v).kind.num_inputs() {
            let Some(chan) = net.input_channel(v, port) else {
                continue;
            };
            if net.channel(chan).passive {
                return true;
            }
            let w = net.channel(chan).from.0;
            if absorbs(&net.component(w).kind) {
                return true;
            }
            if !visited[w.index()] {
                visited[w.index()] = true;
                queue.push(w);
            }
        }
    }
    false
}

/// E106: every controller should be forward-reachable from a token origin
/// (a source or a token-holding buffer); anything else can never see a
/// token and is dead logic.
fn check_reachability(net: &ElasticNetwork, diags: &mut Vec<Diagnostic>) {
    let n = net.num_components();
    let mut reached = vec![false; n];
    let mut queue: Vec<CompId> = net
        .components()
        .filter(|&c| {
            matches!(
                net.component(c).kind,
                ComponentKind::Source
                    | ComponentKind::Eb {
                        init_token: true,
                        ..
                    }
            )
        })
        .collect();
    for &c in &queue {
        reached[c.index()] = true;
    }
    while let Some(v) = queue.pop() {
        for port in 0..net.component(v).kind.num_outputs() {
            let Some(chan) = net.output_channel(v, port) else {
                continue;
            };
            let w = net.channel(chan).to.0;
            if !reached[w.index()] {
                reached[w.index()] = true;
                queue.push(w);
            }
        }
    }
    for c in net.components() {
        if !reached[c.index()] {
            diags.push(
                Diagnostic::error(
                    "E106",
                    net.component(c).name.clone(),
                    "not reachable from any source or token-holding buffer; no token can \
                     ever arrive here",
                )
                .with_suggestion("wire the component into the token flow or remove it"),
            );
        }
    }
}

/// W201: a passive anti-token interface only earns its keep when
/// anti-tokens can actually arrive — from a downstream early-evaluation
/// join (or a killing sink, which is an environment property the lint
/// cannot see).
fn check_passive_utility(net: &ElasticNetwork, diags: &mut Vec<Diagnostic>) {
    for chan_id in net.channels() {
        let chan = net.channel(chan_id);
        if !chan.passive {
            continue;
        }
        // Forward closure from the consumer.
        let mut visited = vec![false; net.num_components()];
        let mut queue = vec![chan.to.0];
        visited[chan.to.0.index()] = true;
        let mut found_ee = false;
        'walk: while let Some(v) = queue.pop() {
            if matches!(
                net.component(v).kind,
                ComponentKind::Join { ee: Some(_), .. }
            ) {
                found_ee = true;
                break 'walk;
            }
            for port in 0..net.component(v).kind.num_outputs() {
                let Some(c2) = net.output_channel(v, port) else {
                    continue;
                };
                let w = net.channel(c2).to.0;
                if !visited[w.index()] {
                    visited[w.index()] = true;
                    queue.push(w);
                }
            }
        }
        if !found_ee {
            diags.push(Diagnostic::warning(
                "W201",
                chan.name.clone(),
                "passive anti-token interface with no early-evaluation join downstream; \
                 only sink kills could ever use it",
            ));
        }
    }
}

/// W202: a cycle passing only through buffers and variable-latency units
/// is a *closed* token ring — no join merges outside tokens in, no fork
/// offers a redundant path, so its token population is invariant under
/// the protocol. When such a ring circulates exactly one token, every
/// channel on it is a single point of failure: a `lose_token` fault there
/// removes the ring's only token, and with no source upstream and no
/// second token-holding buffer on the cycle the loss is provably
/// non-recoverable — the ring idles forever (the fault-injection
/// campaigns observe exactly this as a permanent zero-throughput,
/// never-recovering outcome). A ring with two or more tokens degrades but
/// stays live; a ring with none is already dead at power-up (E101).
fn check_single_point_of_failure(net: &ElasticNetwork, diags: &mut Vec<Diagnostic>) {
    let cuts =
        |k: &ComponentKind| !matches!(k, ComponentKind::Eb { .. } | ComponentKind::VarLatency);
    let Some(cycle) = net.find_uncut_cycle(cuts) else {
        return;
    };
    let tokens = cycle
        .iter()
        .filter(|&&c| {
            matches!(
                net.component(c).kind,
                ComponentKind::Eb {
                    init_token: true,
                    ..
                }
            )
        })
        .count();
    if tokens != 1 {
        return;
    }
    for (i, &v) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()];
        for port in 0..net.component(v).kind.num_outputs() {
            let Some(chan) = net.output_channel(v, port) else {
                continue;
            };
            if net.channel(chan).to.0 == next {
                diags.push(
                    Diagnostic::warning(
                        "W202",
                        net.channel(chan).name.clone(),
                        format!(
                            "single point of failure: losing a token here kills the only \
                             token of the closed buffer ring {} — no redundant path or \
                             spare token can ever recover it",
                            cycle_site(net, &cycle)
                        ),
                    )
                    .with_suggestion(
                        "hold a spare token in a second buffer on the ring, or break the \
                         ring with a join fed from a token-producing region",
                    ),
                );
            }
        }
    }
}

/// W301: the min-cycle-ratio bound of the marked-graph abstraction, under
/// the environment's mean latencies. A bound below 1 means some
/// buffer/latency cycle structurally caps throughput — often a missing
/// pipeline buffer. Analysis failures (open networks, sick structure) are
/// skipped: the structural passes already cover those.
fn check_throughput_bound(net: &ElasticNetwork, env: &EnvConfig, diags: &mut Vec<Diagnostic>) {
    let Ok(bound) = elastic_core::dmg_bridge::lazy_throughput_bound(net, env) else {
        return;
    };
    if bound.bound < 1.0 - 1e-9 {
        diags.push(
            Diagnostic::warning(
                "W301",
                bound.critical.join(" -> "),
                format!(
                    "buffer capacity and latency cap the lazy throughput bound at {:.3} \
                     tokens/cycle on this cycle",
                    bound.bound
                ),
            )
            .with_suggestion(
                "add buffer stages (capacity) on the critical cycle, or accept the cap",
            ),
        );
    }
}

/// Renders a cycle as a site string: `a -> b -> c`.
fn cycle_site(net: &ElasticNetwork, cycle: &[CompId]) -> String {
    cycle
        .iter()
        .map(|&c| net.component(c).name.as_str())
        .collect::<Vec<_>>()
        .join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::ee::{EarlyEval, EeTerm};

    /// A source->join->fork->sink diamond with a buffered feedback ring.
    fn ring(init_token: bool) -> ElasticNetwork {
        let mut net = ElasticNetwork::new("ring");
        let j = net.add_join("j", 2).unwrap();
        let f = net.add_fork("f", 2).unwrap();
        let b = net.add_eb("b", init_token).unwrap();
        let src = net.add_source("src").unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(src, 0, j, 0, "in").unwrap();
        net.connect(j, 0, f, 0, "jf").unwrap();
        net.connect(f, 0, b, 0, "fb").unwrap();
        net.connect(b, 0, j, 1, "bj").unwrap();
        net.connect(f, 1, snk, 0, "out").unwrap();
        net
    }

    #[test]
    fn live_ring_is_clean() {
        let report = lint_network(&ring(true));
        assert!(report.is_clean(), "{}", report.render_human());
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn starved_ring_trips_e101() {
        let report = lint_network(&ring(false));
        assert!(report.has_code("E101"), "{}", report.render_human());
        assert!(!report.is_clean());
        let d = report.errors().find(|d| d.code == "E101").unwrap();
        assert!(d.site.contains('b'), "{}", d.site);
    }

    #[test]
    fn bufferless_ring_trips_e102() {
        let mut net = ElasticNetwork::new("comb");
        let j = net.add_join("j", 2).unwrap();
        let f = net.add_fork("f", 2).unwrap();
        let src = net.add_source("src").unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(src, 0, j, 0, "in").unwrap();
        net.connect(j, 0, f, 0, "jf").unwrap();
        net.connect(f, 0, j, 1, "fb").unwrap();
        net.connect(f, 1, snk, 0, "out").unwrap();
        let report = lint_network(&net);
        assert!(report.has_code("E102"), "{}", report.render_human());
        // The same cycle is also token-starved.
        assert!(report.has_code("E101"), "{}", report.render_human());
    }

    #[test]
    fn unwired_port_trips_e103() {
        let mut net = ElasticNetwork::new("partial");
        let _src = net.add_source("src").unwrap();
        let report = lint_network(&net);
        assert!(report.has_code("E103"), "{}", report.render_human());
    }

    #[test]
    fn invalid_ee_guard_trips_e104() {
        use elastic_core::network::ComponentKind;

        // Raw add() bypasses add_early_join's validation: a guard term
        // requiring an out-of-range input.
        let mut net = ElasticNetwork::new("badee");
        let ee = EarlyEval::new(
            0,
            vec![EeTerm {
                guard_mask: 0,
                guard_value: 0,
                required: vec![7],
                select: 7,
            }],
        );
        let j = net.add(
            "j",
            ComponentKind::Join {
                inputs: 2,
                ee: Some(ee),
            },
        );
        let _ = j.unwrap();
        let report = lint_network(&net);
        assert!(report.has_code("E104"), "{}", report.render_human());
    }

    #[test]
    fn zero_arity_trips_e104() {
        use elastic_core::network::ComponentKind;
        let mut net = ElasticNetwork::new("degenerate");
        net.add(
            "j0",
            ComponentKind::Join {
                inputs: 0,
                ee: None,
            },
        )
        .unwrap();
        net.add("f0", ComponentKind::Fork { outputs: 0 }).unwrap();
        let report = lint_network(&net);
        let e104 = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "E104")
            .count();
        assert_eq!(e104, 2, "{}", report.render_human());
    }

    #[test]
    fn ee_input_without_counterflow_path_trips_e105() {
        // Early join whose non-guard input is fed from an empty buffer
        // whose own input is unwired: anti-tokens pile up with nothing to
        // annihilate against.
        let mut net = ElasticNetwork::new("orphan");
        let ee = EarlyEval::new(
            0,
            vec![EeTerm {
                guard_mask: 0,
                guard_value: 0,
                required: vec![],
                select: 0,
            }],
        );
        let j = net.add_early_join("w", 2, ee).unwrap();
        let src = net.add_source("src").unwrap();
        let b = net.add_eb("b", false).unwrap(); // no token, input left unwired
        let snk = net.add_sink("snk").unwrap();
        net.connect(src, 0, j, 0, "guard").unwrap();
        net.connect(b, 0, j, 1, "operand").unwrap();
        net.connect(j, 0, snk, 0, "out").unwrap();
        let report = lint_network(&net);
        assert!(report.has_code("E105"), "{}", report.render_human());
        // Marking the operand channel passive legalizes the absorption.
        let chan = net.channel_by_name("operand").unwrap();
        net.set_passive(chan).unwrap();
        let report = lint_network(&net);
        assert!(!report.has_code("E105"), "{}", report.render_human());
    }

    #[test]
    fn unreachable_controller_trips_e106() {
        let mut net = ring(true);
        // A buffer wired into its own island: two empty buffers in a loop
        // would be E101 too, so use a token-free pair hanging off nothing.
        let x = net.add_eb("island_a", false).unwrap();
        let y = net.add_eb("island_b", false).unwrap();
        net.connect(x, 0, y, 0, "xy").unwrap();
        let report = lint_network(&net);
        let sites: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "E106")
            .map(|d| d.site.as_str())
            .collect();
        assert!(sites.contains(&"island_a"), "{}", report.render_human());
        assert!(sites.contains(&"island_b"), "{}", report.render_human());
    }

    #[test]
    fn pointless_passive_channel_warns_w201() {
        let mut net = ElasticNetwork::new("p");
        let src = net.add_source("src").unwrap();
        let b = net.add_eb("b", false).unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(src, 0, b, 0, "in").unwrap();
        let c = net.connect(b, 0, snk, 0, "out").unwrap();
        net.set_passive(c).unwrap();
        let report = lint_network(&net);
        assert!(report.has_code("W201"), "{}", report.render_human());
        assert!(
            report.is_clean(),
            "warnings only: {}",
            report.render_human()
        );
    }

    /// A closed two-buffer token ring (no source, join or fork on the
    /// cycle) holding `tokens` initial tokens.
    fn closed_ring(tokens: usize) -> ElasticNetwork {
        let mut net = ElasticNetwork::new("closed");
        let a = net.add_eb("a", tokens >= 1).unwrap();
        let b = net.add_eb("b", tokens >= 2).unwrap();
        net.connect(a, 0, b, 0, "ab").unwrap();
        net.connect(b, 0, a, 0, "ba").unwrap();
        net
    }

    #[test]
    fn one_token_closed_ring_warns_w202_on_every_channel() {
        let report = lint_network(&closed_ring(1));
        let sites: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "W202")
            .map(|d| d.site.as_str())
            .collect();
        assert_eq!(sites, ["ab", "ba"], "{}", report.render_human());
        assert!(
            report.is_clean(),
            "warnings only: {}",
            report.render_human()
        );
    }

    #[test]
    fn redundant_token_or_join_suppresses_w202() {
        // A second circulating token is a spare: one loss degrades but
        // does not kill the ring.
        let report = lint_network(&closed_ring(2));
        assert!(!report.has_code("W202"), "{}", report.render_human());
        // A ring through a join/fork (the diamond fixture) merges outside
        // token flow — not a closed ring, whatever its token count.
        let report = lint_network(&ring(true));
        assert!(!report.has_code("W202"), "{}", report.render_human());
    }

    /// Cross-check against the fault campaigns' non-recovery outcomes: a
    /// `lose_token` strike on a W202-flagged channel is *permanently*
    /// non-recoverable — the ring's throughput drops to zero and stays
    /// there, exactly the never-recovering tail the injection campaigns
    /// record for these sites.
    #[test]
    fn w202_channel_lose_token_never_recovers() {
        use elastic_core::compile::FaultInjection;
        use elastic_core::fault::FaultProcess;
        use elastic_core::sim::{BehavSim, EnvConfig, RandomEnv};

        let net = closed_ring(1);
        let report = lint_network(&net);
        let flagged: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "W202")
            .map(|d| d.site.clone())
            .collect();
        assert!(!flagged.is_empty());

        let mut env = RandomEnv::new(7, EnvConfig::default());
        // Fault-free reference: the token circulates forever.
        let mut sim = BehavSim::new(&net).unwrap();
        sim.run(&mut env, 64).unwrap();
        let free = sim.report();
        let chan = net.channel_by_name(&flagged[0]).unwrap();
        assert!(free.channels[chan.index()].positive > 16);

        // Strike the flagged channel with lose-token over a whole token
        // period, then keep simulating four times longer than the strike.
        let mut sim = BehavSim::new(&net).unwrap();
        let strike = FaultProcess::Once {
            fault: FaultInjection::LoseToken {
                channel: flagged[0].clone(),
            },
            start: 8,
            len: 4,
        };
        sim.inject_process(&strike, 0, 0, 64).unwrap();
        sim.set_check_protocol(false);
        let mut env = RandomEnv::new(7, EnvConfig::default());
        sim.run(&mut env, 64).unwrap();
        let struck = sim.report();
        let after_strike: u64 = struck.channels[chan.index()].positive;
        // Activity stops at the strike and never comes back: everything
        // the channel transferred happened in the pre-strike prefix.
        assert!(
            after_strike <= 8,
            "ring recovered after losing its only token: {after_strike} transfers"
        );
        assert!(free.channels[chan.index()].positive > 4 * after_strike);
    }

    #[test]
    fn paper_systems_lint_clean() {
        use elastic_core::systems::{paper_example, Config};
        for config in Config::all() {
            let sys = paper_example(config).unwrap();
            let report = lint_network_with_env(&sys.network, &sys.env_config);
            assert!(
                report.is_clean(),
                "{}: {}",
                config.label(),
                report.render_human()
            );
        }
    }
}
