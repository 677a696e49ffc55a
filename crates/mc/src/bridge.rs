//! Bridge from gate-level netlists to Kripke structures.
//!
//! Primary inputs of the netlist are treated as free (nondeterministic)
//! environment variables, exactly like `VAR`s in an SMV model: a Kripke
//! state is a pair *(flip-flop state, input valuation)* and every state has
//! one successor per input valuation of the next cycle. Every *named* net
//! becomes an atomic proposition, evaluated on the settled combinational
//! valuation of the pair.
//!
//! The pairs are enumerated by [`reach::search`], the netlist crate's one
//! breadth-first search over netlist states (the tape fold runs it too),
//! on the raw lowering of [`Program::compile`]: no peephole pass runs, so
//! every named net keeps its value slot, and the search records the
//! successor of every pair and the value of every named net on it. The
//! compiler's controllers are latch-free, so the search's carried state is
//! the flip-flop state.
//!
//! Fairness constraints are given as net names: the set of pairs where the
//! net is true must recur on fair paths (used for "the environment offers
//! data / accepts data infinitely often" when checking liveness).

use std::collections::HashMap;

use elastic_netlist::levelize::Program;
use elastic_netlist::{reach, NetId, Netlist};

use crate::bitset::StateSet;
use crate::error::McError;
use crate::kripke::{Kripke, StateId};

/// Budgets for the exhaustive exploration.
#[derive(Debug, Clone, Copy)]
pub struct BridgeOptions {
    /// Maximum number of distinct flip-flop states.
    pub max_ff_states: usize,
    /// Maximum number of primary inputs (the input alphabet is `2^inputs`).
    pub max_inputs: usize,
}

impl Default for BridgeOptions {
    fn default() -> Self {
        BridgeOptions {
            max_ff_states: 1 << 20,
            max_inputs: 14,
        }
    }
}

/// A Kripke structure backed by the reachable state space of a netlist.
#[derive(Debug, Clone)]
pub struct NetlistKripke {
    /// Number of input valuations (`2^k`).
    combos: usize,
    /// Successor flip-flop state per pair, indexed `ff_idx * combos + i`.
    delta: Vec<u32>,
    /// Atom sets over pairs, one per named net.
    atoms: HashMap<String, StateSet>,
    /// Fairness sets over pairs.
    fairness: Vec<StateSet>,
    /// The flip-flop states, packed (for state descriptions in witnesses):
    /// the same number of words each, state net `e` in bit `e % 64` of
    /// word `e / 64`.
    keys: Vec<u64>,
    /// Names of the state nets and input nets, for descriptions.
    state_names: Vec<String>,
    input_names: Vec<String>,
}

impl NetlistKripke {
    /// Number of distinct flip-flop states discovered.
    pub fn num_ff_states(&self) -> usize {
        self.delta.len() / self.combos
    }

    /// Decomposes a pair id into (flip-flop state index, input index).
    fn split(&self, s: StateId) -> (usize, usize) {
        (s / self.combos, s % self.combos)
    }

    /// Self-stabilization convergence analysis for a netlist carrying
    /// fault-arm inputs (primary inputs named `fault.*`, as spliced by
    /// `elastic_core::compile` for each corruption site).
    ///
    /// The structure's flip-flop states were explored under *all* input
    /// valuations, arms included, so they are exactly the fault-reachable
    /// states. The **legal** set is re-derived as the states reachable
    /// from reset with every arm held low. Convergence then asks: from
    /// every fault-reachable state, does *every* fault-free run (arms low,
    /// environment still adversarial) re-enter the legal set? A state
    /// diverges iff it can start an infinite arm-low run that avoids the
    /// legal set forever — the greatest fixpoint of "outside the legal set
    /// with some arm-low successor still inside the fixpoint". When no
    /// state diverges, the protocol is self-stabilizing in the closure
    /// sense (the legal set is closed under arm-low transitions by
    /// construction) and [`ConvergenceReport::convergence_bound`] is the
    /// worst-case number of fault-free cycles back to legality.
    ///
    /// A netlist without `fault.*` inputs is trivially converging: every
    /// reachable state is legal.
    pub fn convergence_report(&self) -> ConvergenceReport {
        let fault_bits: Vec<usize> = self
            .input_names
            .iter()
            .enumerate()
            .filter(|(_, n)| n.starts_with("fault."))
            .map(|(i, _)| i)
            .collect();
        let arm_mask: usize = fault_bits.iter().map(|&b| 1usize << b).sum();
        let clean: Vec<usize> = (0..self.combos).filter(|c| c & arm_mask == 0).collect();
        let nff = self.num_ff_states();

        // Legal set: BFS from reset over arm-low transitions only.
        let mut legal = vec![false; nff];
        let mut queue = vec![0usize];
        legal[0] = true;
        while let Some(s) = queue.pop() {
            for &c in &clean {
                let t = self.delta[s * self.combos + c] as usize;
                if !legal[t] {
                    legal[t] = true;
                    queue.push(t);
                }
            }
        }
        let legal_count = legal.iter().filter(|&&l| l).count();

        // Backward closure: level[s] = worst-case arm-low cycles until the
        // run is inside the legal set, for every environment choice. A
        // state joins level k+1 once all its arm-low successors sit at
        // level <= k; states that never join can sustain an infinite
        // illegal arm-low run — they diverge.
        let mut level = vec![None::<usize>; nff];
        for (s, &l) in legal.iter().enumerate() {
            if l {
                level[s] = Some(0);
            }
        }
        let mut bound = 0usize;
        loop {
            let mut changed = false;
            for s in 0..nff {
                if level[s].is_some() {
                    continue;
                }
                let worst = clean
                    .iter()
                    .map(|&c| level[self.delta[s * self.combos + c] as usize])
                    .try_fold(0usize, |acc, l| l.map(|l| acc.max(l)));
                if let Some(w) = worst {
                    level[s] = Some(w + 1);
                    bound = bound.max(w + 1);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let diverging = level.iter().filter(|l| l.is_none()).count();
        ConvergenceReport {
            ff_states: nff,
            legal: legal_count,
            diverging,
            converging: diverging == 0,
            convergence_bound: bound,
            fault_inputs: fault_bits.len(),
        }
    }
}

/// Verdict of [`NetlistKripke::convergence_report`]: does the protocol
/// re-enter its legal `(I*R*T)*` state set from every fault-reachable
/// state once the fault arms go quiet?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Fault-reachable flip-flop states (explored under all arm values).
    pub ff_states: usize,
    /// States reachable from reset with every arm held low.
    pub legal: usize,
    /// States from which some fault-free run avoids the legal set forever.
    pub diverging: usize,
    /// `diverging == 0`: the network is self-stabilizing under this fault
    /// set.
    pub converging: bool,
    /// Worst-case fault-free cycles from any fault-reachable state back
    /// into the legal set (0 when every reachable state is legal).
    pub convergence_bound: usize,
    /// Number of `fault.*` arm inputs found.
    pub fault_inputs: usize,
}

/// Explores the reachable states of `netlist` under all input sequences and
/// builds the Kripke structure.
///
/// Every named net becomes an atom; `fairness_nets` lists net names whose
/// truth must recur along fair paths.
///
/// # Errors
///
/// * [`McError::Budget`] when the input count or state budget is exceeded;
/// * [`McError::UnknownAtom`] when a fairness net name does not exist;
/// * [`McError::Netlist`] for netlist construction errors (unbound state,
///   combinational cycles).
pub fn netlist_kripke(
    netlist: &Netlist,
    fairness_nets: &[&str],
    opts: BridgeOptions,
) -> Result<NetlistKripke, McError> {
    let num_inputs = netlist.inputs().len();
    if num_inputs > opts.max_inputs {
        return Err(McError::Budget {
            what: "inputs",
            limit: opts.max_inputs,
        });
    }
    // The alphabet is 2^inputs; a raised `max_inputs` must not turn into a
    // shift-overflow panic once the input count reaches the word width
    // (`1usize << 64` aborts in debug builds). Anything wide enough to
    // overflow the shift is unexplorable anyway, so it is the same typed
    // budget violation.
    let combos = if num_inputs < usize::BITS as usize {
        1usize << num_inputs
    } else {
        return Err(McError::Budget {
            what: "inputs",
            limit: opts.max_inputs.min(usize::BITS as usize - 1),
        });
    };
    let prog = Program::compile(netlist)?;
    let named = netlist.named_nets();
    for f in fairness_nets {
        if !named.iter().any(|&(n, _)| n == *f) {
            return Err(McError::UnknownAtom((*f).to_string()));
        }
    }
    let watch: Vec<u32> = named.iter().map(|&(_, n)| n.index() as u32).collect();
    let budget = opts.max_ff_states.saturating_mul(combos);
    let reach = reach::search(&prog, &[], &watch, budget).ok_or(McError::Budget {
        what: "states",
        limit: opts.max_ff_states,
    })?;
    let n_pairs = reach.next.len();
    let atoms: HashMap<String, StateSet> = named
        .iter()
        .zip(reach.watched)
        .map(|(&(name, _), bits)| (name.to_string(), StateSet::from_blocks(bits, n_pairs)))
        .collect();
    let fairness = fairness_nets
        .iter()
        .map(|f| atoms.get(*f).expect("validated above").clone())
        .collect();
    let entries = prog.ffs().iter().map(|f| f.q);
    let state_names = entries
        .chain(prog.carried_slots().iter().copied())
        .map(|s| netlist.net_name(NetId::from_index(s as usize)))
        .collect();
    let input_names = netlist
        .inputs()
        .iter()
        .map(|&n| netlist.net_name(n))
        .collect();
    Ok(NetlistKripke {
        combos,
        delta: reach.next,
        atoms,
        fairness,
        keys: reach.keys,
        state_names,
        input_names,
    })
}

impl Kripke for NetlistKripke {
    fn num_states(&self) -> usize {
        self.delta.len()
    }

    fn initial_states(&self) -> StateSet {
        let mut s = StateSet::empty(self.num_states());
        for i in 0..self.combos {
            s.insert(i); // pairs (ff-state 0, every input valuation)
        }
        s
    }

    fn pre_exists(&self, target: &StateSet) -> StateSet {
        // g[s'] = some pair (s', *) is in target.
        let nff = self.num_ff_states();
        let mut g = vec![false; nff];
        for p in target.iter() {
            g[p / self.combos] = true;
        }
        let mut out = StateSet::empty(self.num_states());
        for (p, &succ) in self.delta.iter().enumerate() {
            if g[succ as usize] {
                out.insert(p);
            }
        }
        out
    }

    fn post(&self, s: StateId, out: &mut Vec<StateId>) {
        let succ = self.delta[s] as usize;
        out.extend((0..self.combos).map(|i| succ * self.combos + i));
    }

    fn atom_set(&self, name: &str) -> Option<StateSet> {
        self.atoms.get(name).cloned()
    }

    fn fairness_sets(&self) -> Vec<StateSet> {
        self.fairness.clone()
    }

    fn describe_state(&self, s: StateId) -> String {
        let (ff, combo) = self.split(s);
        let words = self.keys.len() / self.num_ff_states();
        let key = &self.keys[ff * words..(ff + 1) * words];
        let regs: Vec<String> = self
            .state_names
            .iter()
            .enumerate()
            .map(|(e, n)| format!("{n}={}", key[e / 64] >> (e % 64) & 1))
            .collect();
        let ins: Vec<String> = self
            .input_names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{n}={}", u8::from(combo >> i & 1 == 1)))
            .collect();
        format!("[{} | {}]", regs.join(" "), ins.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, check_fair};
    use crate::parse;
    use elastic_netlist::Netlist;

    /// One-bit handshake: req input; grant FF follows req one cycle later.
    fn follower() -> Netlist {
        let mut n = Netlist::new("follower");
        let req = n.input("req");
        let grant = n.dff_bound(req, false);
        n.set_name(grant, "grant").unwrap();
        n
    }

    #[test]
    fn follower_properties() {
        let k = netlist_kripke(&follower(), &[], BridgeOptions::default()).unwrap();
        assert_eq!(k.num_ff_states(), 2);
        assert_eq!(k.num_states(), 4);
        let f = parse("AG (req -> AX grant)").unwrap();
        assert!(check(&k, &f).unwrap().holds());
        // The input valuation is part of the state (SMV-style), so
        // grant & !req deterministically loses the grant next cycle...
        let g = parse("AG ((grant & req) -> AX grant)").unwrap();
        assert!(check(&k, &g).unwrap().holds());
        // ...and `EX grant` fails from (grant, req=0) pairs.
        let ng = parse("AG (grant -> EX grant)").unwrap();
        assert!(!check(&k, &ng).unwrap().holds());
        let h = parse("AG grant").unwrap();
        assert!(!check(&k, &h).unwrap().holds());
    }

    #[test]
    fn liveness_needs_fairness() {
        let n = follower();
        let free = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        let live = parse("AG AF grant").unwrap();
        assert!(
            !check(&free, &live).unwrap().holds(),
            "env may never request"
        );
        let fair = netlist_kripke(&n, &["req"], BridgeOptions::default()).unwrap();
        assert!(check_fair(&fair, &live).unwrap().holds());
    }

    #[test]
    fn unknown_fairness_net() {
        let e = netlist_kripke(&follower(), &["nope"], BridgeOptions::default()).unwrap_err();
        assert_eq!(e, McError::UnknownAtom("nope".into()));
    }

    #[test]
    fn input_budget_enforced() {
        let mut n = Netlist::new("wide");
        for i in 0..4 {
            n.input(format!("i{i}"));
        }
        let e = netlist_kripke(
            &n,
            &[],
            BridgeOptions {
                max_ff_states: 10,
                max_inputs: 3,
            },
        )
        .unwrap_err();
        assert!(matches!(e, McError::Budget { what: "inputs", .. }));
    }

    #[test]
    fn word_width_inputs_are_a_typed_budget_error_not_a_shift_panic() {
        // Regression: raising `max_inputs` past the word width used to hit
        // `1usize << 64` and abort. The wide netlist is rejected with a
        // typed budget error before any exploration is attempted.
        let mut n = Netlist::new("very_wide");
        for i in 0..usize::BITS as usize {
            n.input(format!("i{i}"));
        }
        let e = netlist_kripke(
            &n,
            &[],
            BridgeOptions {
                max_ff_states: 4,
                max_inputs: usize::MAX,
            },
        )
        .unwrap_err();
        assert!(matches!(e, McError::Budget { what: "inputs", .. }), "{e:?}");
    }

    #[test]
    fn state_descriptions_mention_nets() {
        let n = follower();
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        let d = k.describe_state(1);
        assert!(d.contains("grant=0"), "{d}");
        assert!(d.contains("req=1"), "{d}");
    }

    #[test]
    fn convergence_trivial_without_fault_arms() {
        let k = netlist_kripke(&follower(), &[], BridgeOptions::default()).unwrap();
        let r = k.convergence_report();
        assert_eq!(r.fault_inputs, 0);
        assert!(r.converging);
        assert_eq!(r.diverging, 0);
        assert_eq!(r.legal, r.ff_states);
        assert_eq!(r.convergence_bound, 0);
    }

    #[test]
    fn convergence_of_a_self_draining_corruption() {
        // A 2-bit shift chain fed by the fault arm: while armed the chain
        // fills with illegal state, once the arm drops the ones drain out
        // in two cycles — self-stabilizing with convergence bound 2.
        let mut n = Netlist::new("drain");
        let arm = n.input("fault.c.vp");
        let b0 = n.dff_bound(arm, false);
        let b1 = n.dff_bound(b0, false);
        n.set_name(b0, "b0").unwrap();
        n.set_name(b1, "b1").unwrap();
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        let r = k.convergence_report();
        assert_eq!(r.fault_inputs, 1);
        assert_eq!(r.ff_states, 4, "arm reaches all four chain states");
        assert_eq!(r.legal, 1, "arm-low from reset stays at 00");
        assert!(r.converging, "{r:?}");
        assert_eq!(r.convergence_bound, 2, "two cycles to flush the chain");
    }

    #[test]
    fn convergence_detects_a_latching_fault() {
        // A sticky bit: once the arm has set it, it feeds itself and never
        // clears — the corrupted state survives arbitrarily long fault-free
        // operation, so the netlist is NOT self-stabilizing.
        let mut n = Netlist::new("sticky");
        let arm = n.input("fault.c.vp");
        let bit = n.dff(false);
        let d = n.or([bit, arm]);
        n.bind_dff(bit, d).unwrap();
        n.set_name(bit, "stuck").unwrap();
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        let r = k.convergence_report();
        assert_eq!(r.ff_states, 2);
        assert_eq!(r.legal, 1);
        assert_eq!(r.diverging, 1, "the latched state never re-legalizes");
        assert!(!r.converging);
    }

    #[test]
    fn counter_reaches_all_states() {
        // 2-bit counter: 4 ff states, no inputs.
        let mut n = Netlist::new("counter");
        let b0 = n.dff(false);
        let b1 = n.dff(false);
        let nb0 = n.not(b0);
        let carry = b0;
        let d1 = n.xor(b1, carry);
        n.bind_dff(b0, nb0).unwrap();
        n.bind_dff(b1, d1).unwrap();
        n.set_name(b0, "b0").unwrap();
        n.set_name(b1, "b1").unwrap();
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        assert_eq!(k.num_ff_states(), 4);
        let f = parse("AG AF (b1 & b0)").unwrap();
        assert!(check(&k, &f).unwrap().holds());
    }
}
