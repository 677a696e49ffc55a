//! Cycle-accurate two-phase simulation of netlists.
//!
//! A simulated clock cycle has the following structure:
//!
//! 1. **rising edge** — every flip-flop output takes the data value that was
//!    settled at the end of the previous cycle;
//! 2. **high phase** — combinational logic and `H`-phase latches settle;
//! 3. **falling edge** — `H` latches freeze;
//! 4. **low phase** — combinational logic and `L`-phase latches settle.
//!
//! [`Simulator::cycle`] runs all four, after which [`Simulator::value`]
//! reads the settled valuation of the completed cycle.

use crate::build::{Gate, LatchPhase, NetId, Netlist};
use crate::check;
use crate::error::NetlistError;

/// A cycle-accurate simulator over an owned copy of a netlist.
#[derive(Debug, Clone)]
pub struct Simulator {
    net: Netlist,
    values: Vec<bool>,
    /// Flip-flop data values captured at the end of the last settle, applied
    /// at the next rising edge.
    captured: Vec<bool>,
    ffs: Vec<NetId>,
    /// Dependency-ordered evaluation sequence per clock phase, so each
    /// settle pass reads only already-settled operands (no glitch captures
    /// on enable-gated latches whose enable cone crosses net-index order).
    order_high: Vec<NetId>,
    order_low: Vec<NetId>,
    time: u64,
}

impl Simulator {
    /// Builds a simulator, checking that all state elements are bound and
    /// that the netlist has no combinational cycles.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::UnboundState`] and
    /// [`NetlistError::CombinationalCycle`].
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        netlist.check_bound()?;
        check::check_combinational_cycles(netlist)?;
        let n = netlist.len();
        let mut values = vec![false; n];
        let mut ffs = Vec::new();
        for id in netlist.nets() {
            match netlist.gate(id) {
                Gate::Dff { init, .. } => {
                    ffs.push(id);
                    values[id.index()] = *init;
                }
                Gate::Latch { init, .. } => values[id.index()] = *init,
                Gate::Const(v) => values[id.index()] = *v,
                _ => {}
            }
        }
        let captured = ffs.iter().map(|f| values[f.index()]).collect();
        let order_high = check::topo_order_in_phase(netlist, LatchPhase::High);
        let order_low = check::topo_order_in_phase(netlist, LatchPhase::Low);
        Ok(Simulator {
            net: netlist.clone(),
            values,
            captured,
            ffs,
            order_high,
            order_low,
            time: 0,
        })
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        &self.net
    }

    /// Number of completed cycles.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Sets a primary input for the upcoming settle.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownNet`] if `net` is not a primary input of this
    /// netlist.
    pub fn set_input(&mut self, net: NetId, value: bool) -> Result<(), NetlistError> {
        if net.index() >= self.values.len() || !matches!(self.net.gate(net), Gate::Input) {
            return Err(NetlistError::UnknownNet(net));
        }
        self.values[net.index()] = value;
        Ok(())
    }

    /// Current value of any net (meaningful after a settle).
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Values of several nets at once.
    pub fn values_of(&self, nets: &[NetId]) -> Vec<bool> {
        nets.iter().map(|&n| self.value(n)).collect()
    }

    /// Runs one full clock cycle: rising edge, then settle of both phases,
    /// then capture of the flip-flop inputs for the next edge.
    ///
    /// After `cycle` returns, [`Simulator::value`] reads the settled
    /// valuation of the cycle just completed.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::Oscillation`] from the settle and input
    /// errors from [`Simulator::set_input`].
    pub fn cycle(&mut self, inputs: &[(NetId, bool)]) -> Result<(), NetlistError> {
        // Rising edge.
        for (slot, &ff) in self.captured.iter().zip(&self.ffs) {
            self.values[ff.index()] = *slot;
        }
        for &(net, v) in inputs {
            self.set_input(net, v)?;
        }
        self.settle()?;
        // Capture for the next rising edge.
        for (slot, &ff) in self.captured.iter_mut().zip(&self.ffs) {
            if let Gate::Dff { d: Some(d), .. } = self.net.gate(ff) {
                *slot = self.values[d.index()];
            }
        }
        self.time += 1;
        Ok(())
    }

    /// Settles the combinational logic and transparent latches for both
    /// clock phases (high then low) without touching flip-flops.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Oscillation`] if a level-sensitive loop fails to
    /// reach a fixpoint.
    fn settle(&mut self) -> Result<(), NetlistError> {
        self.settle_phase(LatchPhase::High)?;
        self.settle_phase(LatchPhase::Low)
    }

    fn settle_phase(&mut self, phase: LatchPhase) -> Result<(), NetlistError> {
        // Evaluation follows the phase's dependency order, so a structurally
        // acyclic netlist settles in one pass (the second pass verifies
        // quiescence); the budget only matters for the pathological loops
        // the constructor already rejects.
        let order = match phase {
            LatchPhase::High => &self.order_high,
            LatchPhase::Low => &self.order_low,
        };
        let budget = self.net.len() + 2;
        for _ in 0..budget {
            let mut changed = false;
            for &net in order {
                let id = net.index();
                let new = match self.net.gate(net) {
                    Gate::Input | Gate::Dff { .. } => continue,
                    Gate::Const(v) => *v,
                    Gate::Buf(a) => self.values[a.index()],
                    Gate::Wire { src } => self.values[src.expect("checked by check_bound").index()],
                    Gate::Not(a) => !self.values[a.index()],
                    Gate::And(v) => v.iter().all(|a| self.values[a.index()]),
                    Gate::Or(v) => v.iter().any(|a| self.values[a.index()]),
                    Gate::Xor(a, b) => self.values[a.index()] ^ self.values[b.index()],
                    Gate::Mux { sel, a, b } => {
                        if self.values[sel.index()] {
                            self.values[a.index()]
                        } else {
                            self.values[b.index()]
                        }
                    }
                    Gate::Latch {
                        d, en, phase: lp, ..
                    } => {
                        if *lp != phase {
                            continue; // opaque this phase
                        }
                        let enabled = en.is_none_or(|e| self.values[e.index()]);
                        if !enabled {
                            continue;
                        }
                        let d = d.expect("checked by check_bound");
                        self.values[d.index()]
                    }
                };
                if new != self.values[id] {
                    self.values[id] = new;
                    changed = true;
                }
            }
            if !changed {
                return Ok(());
            }
        }
        Err(NetlistError::Oscillation {
            phase: match phase {
                LatchPhase::High => "high",
                LatchPhase::Low => "low",
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Netlist;

    #[test]
    fn combinational_logic_settles() {
        let mut n = Netlist::new("comb");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and2(a, b);
        let y = n.or2(a, b);
        let z = n.xor(x, y);
        let mut sim = Simulator::new(&n).unwrap();
        sim.cycle(&[(a, true), (b, false)]).unwrap();
        assert!(!sim.value(x));
        assert!(sim.value(y));
        assert!(sim.value(z));
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut n = Netlist::new("pipe");
        let a = n.input("a");
        let q1 = n.dff_bound(a, false);
        let q2 = n.dff_bound(q1, false);
        let mut sim = Simulator::new(&n).unwrap();
        sim.cycle(&[(a, true)]).unwrap();
        assert!(!sim.value(q1), "first cycle still shows init");
        sim.cycle(&[(a, false)]).unwrap();
        assert!(sim.value(q1));
        assert!(!sim.value(q2));
        sim.cycle(&[(a, false)]).unwrap();
        assert!(!sim.value(q1));
        assert!(sim.value(q2));
    }

    #[test]
    fn toggle_ff_feedback() {
        let mut n = Netlist::new("toggle");
        let q = n.dff(false);
        let d = n.not(q);
        n.bind_dff(q, d).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        let mut seen = Vec::new();
        for _ in 0..4 {
            sim.cycle(&[]).unwrap();
            seen.push(sim.value(q));
        }
        assert_eq!(seen, vec![false, true, false, true]);
    }

    #[test]
    fn mux_selects() {
        let mut n = Netlist::new("mux");
        let s = n.input("s");
        let a = n.constant(true);
        let b = n.constant(false);
        let z = n.mux(s, a, b);
        let mut sim = Simulator::new(&n).unwrap();
        sim.cycle(&[(s, true)]).unwrap();
        assert!(sim.value(z));
        sim.cycle(&[(s, false)]).unwrap();
        assert!(!sim.value(z));
    }

    #[test]
    fn latch_is_transparent_in_its_phase_and_holds_after() {
        let mut n = Netlist::new("latch");
        let a = n.input("a");
        let h = n.latch(LatchPhase::High, false);
        n.bind_latch(h, a).unwrap();
        let l = n.latch(LatchPhase::Low, false);
        n.bind_latch(l, h).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        // Master-slave pair behaves like a flip-flop at cycle granularity,
        // except the low latch passes the captured value in the same cycle.
        sim.cycle(&[(a, true)]).unwrap();
        assert!(sim.value(h));
        assert!(
            sim.value(l),
            "L latch follows the frozen H value in the low phase"
        );
        sim.cycle(&[(a, false)]).unwrap();
        assert!(!sim.value(h));
        assert!(!sim.value(l));
    }

    #[test]
    fn enabled_latch_holds_when_disabled() {
        let mut n = Netlist::new("gated");
        let a = n.input("a");
        let en = n.input("en");
        let h = n.latch_en(LatchPhase::High, en, false);
        n.bind_latch(h, a).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.cycle(&[(a, true), (en, true)]).unwrap();
        assert!(sim.value(h));
        sim.cycle(&[(a, false), (en, false)]).unwrap();
        assert!(sim.value(h), "disabled latch holds");
        sim.cycle(&[(a, false), (en, true)]).unwrap();
        assert!(!sim.value(h));
    }

    #[test]
    fn oscillating_latch_loop_detected() {
        // A high-phase latch whose input is its own negation oscillates.
        let mut n = Netlist::new("osc");
        let l = n.latch(LatchPhase::High, false);
        let d = n.not(l);
        n.bind_latch(l, d).unwrap();
        // The structural check treats a single-phase latch loop as a
        // combinational cycle, so the simulator refuses to build.
        assert!(matches!(
            Simulator::new(&n).unwrap_err(),
            NetlistError::CombinationalCycle(_)
        ));
    }

    #[test]
    fn input_validation() {
        let mut n = Netlist::new("m");
        let a = n.input("a");
        let x = n.not(a);
        let mut sim = Simulator::new(&n).unwrap();
        assert!(sim.set_input(x, true).is_err(), "cannot drive a non-input");
    }

    #[test]
    fn time_advances() {
        let mut n = Netlist::new("m");
        let _ = n.input("a");
        let mut sim = Simulator::new(&n).unwrap();
        sim.cycle(&[]).unwrap();
        sim.cycle(&[]).unwrap();
        assert_eq!(sim.time(), 2);
    }
}
