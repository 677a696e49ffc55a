//! Bit-parallel compiled simulation: up to `W × 64` independent trials per
//! step.
//!
//! [`WideSim<W>`] executes a levelized [`Program`] with every value slot
//! widened to `[u64; W]`: bit *k* of word *w* belongs to trial (*lane*)
//! `w·64 + k`, so one pass over the instruction tape — one decode — drives
//! up to 512 independent Monte Carlo schedules (`W ∈ {1, 2, 4, 8}`) with
//! word-wide AND/OR/XOR/NOT/MUX operations and batched flip-flop commits.
//! The inner loops are const-generic over `W`, so the compiler unrolls and
//! vectorizes them per width. [`WideSimulator`] is the single-word
//! (`W = 1`) instance with the full per-lane convenience API. This is the
//! engine behind the paper's randomized experiments (Sect. 6.1, Figs. 5–9,
//! Table 1): the netlist is compiled once and the per-trial cost drops by
//! roughly the lane count.
//!
//! Lane 0 of a wide run is bit-exact with [`sim::Simulator`](crate::sim::Simulator)
//! under the same inputs — asserted by the co-simulation harness in
//! `elastic_core::verify` and by property tests over random netlists
//! (including `W > 1` lane-k-equals-scalar-trial-k properties).
//!
//! # Example
//!
//! Pack 64 trials of a toggle flip-flop gated by a per-lane enable: lanes
//! with the enable high toggle every cycle, the rest hold. Lane packing is
//! one bit per trial; extraction reads any net in any lane.
//!
//! ```
//! use elastic_netlist::{Netlist, wide::{WideSimulator, LANES}};
//!
//! # fn main() -> Result<(), elastic_netlist::NetlistError> {
//! let mut n = Netlist::new("toggle_en");
//! let en = n.input("en");
//! let q = n.dff(false);
//! let t = n.xor(q, en); // q' = q ^ en
//! n.bind_dff(q, t)?;
//!
//! let mut sim = WideSimulator::new(&n)?;
//! assert_eq!(LANES, 64);
//! // Lane k enables the toggle iff k is even — one mask drives all trials.
//! let even_lanes: u64 = 0x5555_5555_5555_5555;
//! sim.cycle(&[(en, even_lanes)])?; // toggle captured, visible next cycle
//! sim.cycle(&[(en, even_lanes)])?; // even lanes now show 1
//! assert!(sim.value_lane(q, 0), "lane 0 toggled");
//! assert!(!sim.value_lane(q, 1), "lane 1 never enabled");
//! assert_eq!(sim.value(q), even_lanes, "all 64 trials at once");
//! sim.cycle(&[(en, even_lanes)])?; // even lanes toggle back to 0
//! assert_eq!(sim.value(q), 0);
//! // Extract one lane as a plain bool vector (scalar-simulator layout):
//! // q is back at 0, the next-state t = q ^ en is 1 on the even lane.
//! assert_eq!(sim.lane_values(&[q, t], 2), vec![false, true]);
//! # Ok(())
//! # }
//! ```

use crate::build::{NetId, Netlist};
use crate::error::NetlistError;
use crate::levelize::{BlockPlan, Instr, Program};

/// Number of independent trials evaluated per step (bits in the lane word).
pub const LANES: usize = 64;

/// Lane word with the low `lanes` bits set — the mask covering the live
/// lanes of a (possibly partial) shard. Sharded Monte-Carlo campaigns slice
/// `trials` into `⌈trials/64⌉` words; the final word usually covers fewer
/// than [`LANES`] trials, and masking keeps the dead upper lanes from
/// polluting aggregate statistics.
///
/// # Panics
///
/// Panics if `lanes > LANES` (`lanes == 0` yields the empty mask).
pub const fn lane_mask(lanes: usize) -> u64 {
    assert!(lanes <= LANES, "at most LANES lanes per word");
    if lanes == LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Per-word live-lane masks for a shard of `lanes` trials on a `W`-word
/// simulator: word `w` covers lanes `w·64 .. w·64+64`, and only the final
/// populated word may be partial (the multi-word generalization of
/// [`lane_mask`]).
///
/// # Panics
///
/// Panics if `lanes > W * LANES`.
pub fn lane_masks<const W: usize>(lanes: usize) -> [u64; W] {
    assert!(lanes <= W * LANES, "at most {} lanes per shard", W * LANES);
    let mut masks = [0u64; W];
    for (w, word) in masks.iter_mut().enumerate() {
        let lo = w * LANES;
        *word = if lanes >= lo + LANES {
            u64::MAX
        } else if lanes > lo {
            lane_mask(lanes - lo)
        } else {
            0
        };
    }
    masks
}

// Thread-safety contract of the wide backend: a compiled `Program` is
// immutable instruction data, so one compilation can be shared by reference
// across scoped worker threads, and a `WideSim` is plain
// owned state (`Vec<[u64; W]>` words, no interior mutability or aliasing),
// so each worker can clone the power-up prototype and run shards
// independently. The experiment engine in `elastic_bench` relies on both
// bounds; this assertion turns an accidental `Rc`/`RefCell` regression into
// a compile error here rather than a trait-bound error downstream.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
    assert_send_sync::<WideSimulator>();
    assert_send_sync::<WideSim<8>>();
};

/// A compiled, bit-parallel simulator running `W ×` [`LANES`] trials at
/// once: every value slot is a `[u64; W]`, and one instruction decode
/// drives all `W` words through a const-generic inner loop.
///
/// The cycle structure matches [`sim::Simulator::cycle`](crate::sim::Simulator::cycle):
/// rising edge (batched flip-flop commit), high-phase tape, low-phase tape,
/// capture of flip-flop data inputs. There is no oscillation error at run
/// time — [`Program::compile`] rejects the offending netlists statically.
///
/// The `W = 1` instance is aliased as [`WideSimulator`] and carries the
/// per-lane convenience API (`value`, `set_input`, `state`, …); wider
/// instances are driven through [`WideSim::cycle_wide`] or the allocation-
/// free [`WideSim::cycle_packed`] hot path.
#[derive(Debug, Clone)]
pub struct WideSim<const W: usize> {
    prog: Program,
    /// One `[u64; W]` per net: bit `k` of word `w` is the value in lane
    /// `w * 64 + k`.
    values: Vec<[u64; W]>,
    /// Flip-flop data captured at the end of the last settle, one entry per
    /// element of [`Program::ffs`].
    captured: Vec<[u64; W]>,
    /// Per-slot input marker for input validation.
    is_input: Vec<bool>,
    time: u64,
}

/// The single-word (64-trial) instance of [`WideSim`] — the backend
/// introduced in PR 2, API-compatible with its original form.
pub type WideSimulator = WideSim<1>;

/// Broadcasts a `bool` to a full lane word.
fn splat(v: bool) -> u64 {
    if v {
        u64::MAX
    } else {
        0
    }
}

impl<const W: usize> WideSim<W> {
    /// Compiles `netlist` (see [`Program::compile`]) and initializes all
    /// lanes to the power-up state.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::UnboundState`] and
    /// [`NetlistError::CombinationalCycle`].
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        Ok(Self::from_program(Program::compile(netlist)?))
    }

    /// Wraps an already-compiled — possibly [`Program::peephole`]-optimized
    /// — program, with all lanes at the power-up state. The primary-input
    /// set is taken from [`Program::inputs`].
    ///
    /// On a peephole-optimized program only primary outputs, state elements
    /// and flip-flop captures hold exact per-cycle values; probe other nets
    /// only on an unoptimized program.
    pub fn from_program(prog: Program) -> Self {
        let mut is_input = vec![false; prog.num_slots()];
        for &i in prog.inputs() {
            is_input[i.index()] = true;
        }
        let values: Vec<[u64; W]> = prog.init().iter().map(|&b| [splat(b); W]).collect();
        let captured = prog.ffs().iter().map(|f| values[f.q as usize]).collect();
        WideSim {
            prog,
            values,
            captured,
            is_input,
            time: 0,
        }
    }

    /// Total number of independent trials: `W ×` [`LANES`].
    pub const fn num_lanes() -> usize {
        W * LANES
    }

    /// The levelized program being executed.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Number of completed cycles.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Lane word `w` of any net (meaningful after a settle): bit `k` is the
    /// value in lane `w * 64 + k`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range or `w >= W`.
    pub fn word(&self, net: NetId, w: usize) -> u64 {
        self.values[net.index()][w]
    }

    /// Value of one net in one of the `W × 64` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range or `lane >= W * 64`.
    pub fn lane(&self, net: NetId, lane: usize) -> bool {
        assert!(lane < W * LANES, "lane {lane} out of range");
        self.values[net.index()][lane / LANES] >> (lane % LANES) & 1 == 1
    }

    /// Sets all `W` words of a primary input for the upcoming settle.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownNet`] if `net` is not a primary input.
    pub fn set_input_words(&mut self, net: NetId, words: [u64; W]) -> Result<(), NetlistError> {
        if net.index() >= self.values.len() || !self.is_input[net.index()] {
            return Err(NetlistError::UnknownNet(net));
        }
        self.values[net.index()] = words;
        Ok(())
    }

    /// Runs one full clock cycle in every lane with word-set inputs: rising
    /// edge (batched flip-flop commit), settle of both phases, capture of
    /// flip-flop data inputs.
    ///
    /// # Errors
    ///
    /// Input errors from [`WideSim::set_input_words`]. Unlike the scalar
    /// interpreter there is no oscillation path — settling is one pass per
    /// phase over the compiled tape.
    pub fn cycle_wide(&mut self, inputs: &[(NetId, [u64; W])]) -> Result<(), NetlistError> {
        self.commit();
        for &(net, words) in inputs {
            self.set_input_words(net, words)?;
        }
        self.finish_cycle();
        Ok(())
    }

    /// Validates a packed-stimulus slot list once, before the hot loop:
    /// every slot must be a primary input.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownNet`] naming the first offending slot.
    pub fn check_input_slots(&self, slots: &[u32]) -> Result<(), NetlistError> {
        for &s in slots {
            if s as usize >= self.values.len() || !self.is_input[s as usize] {
                return Err(NetlistError::UnknownNet(NetId(s)));
            }
        }
        Ok(())
    }

    /// Runs one full clock cycle driven by a packed stimulus row: slot
    /// `slots[i]` receives words `row[i*W .. (i+1)*W]`, written straight
    /// into the values arena. This is the allocation-free Monte-Carlo hot
    /// path: no `NetId` validation and no heap traffic per cycle — validate
    /// the slot list once with [`WideSim::check_input_slots`].
    ///
    /// # Panics
    ///
    /// Debug builds assert `row.len() == slots.len() * W` and that every
    /// slot is a primary input; release builds panic on out-of-range slots
    /// via the slice index.
    pub fn cycle_packed(&mut self, slots: &[u32], row: &[u64]) {
        debug_assert_eq!(row.len(), slots.len() * W, "one W-word group per slot");
        self.commit();
        for (i, &s) in slots.iter().enumerate() {
            debug_assert!(self.is_input[s as usize], "slot {s} is not an input");
            let v = &mut self.values[s as usize];
            for w in 0..W {
                v[w] = row[i * W + w];
            }
        }
        self.finish_cycle();
    }

    /// [`cycle_packed`](Self::cycle_packed) with a cache-blocking plan from
    /// [`Program::block_plan`]: each tape runs as its plan's consecutive
    /// instruction ranges. Because the ranges partition the tape in order,
    /// the result is bit-identical to `cycle_packed` for every plan — the
    /// split only bounds the working set touched between block boundaries.
    pub fn cycle_packed_blocked(&mut self, slots: &[u32], row: &[u64], plan: &BlockPlan) {
        debug_assert_eq!(row.len(), slots.len() * W, "one W-word group per slot");
        self.commit();
        for (i, &s) in slots.iter().enumerate() {
            debug_assert!(self.is_input[s as usize], "slot {s} is not an input");
            let v = &mut self.values[s as usize];
            for w in 0..W {
                v[w] = row[i * W + w];
            }
        }
        for &(s, e) in plan.high() {
            Self::run_tape(&mut self.values, &self.prog.high()[s..e], self.prog.args());
        }
        for &(s, e) in plan.low() {
            Self::run_tape(&mut self.values, &self.prog.low()[s..e], self.prog.args());
        }
        for (slot, f) in self.captured.iter_mut().zip(self.prog.ffs()) {
            *slot = self.values[f.d as usize];
        }
        self.time += 1;
    }

    /// Rising edge: commit the captured flip-flop data to the outputs.
    fn commit(&mut self) {
        for (slot, f) in self.captured.iter().zip(self.prog.ffs()) {
            self.values[f.q as usize] = *slot;
        }
    }

    /// Settle both phases, capture flip-flop data, advance time.
    fn finish_cycle(&mut self) {
        self.settle();
        for (slot, f) in self.captured.iter_mut().zip(self.prog.ffs()) {
            *slot = self.values[f.d as usize];
        }
        self.time += 1;
    }

    /// Settles the combinational logic and transparent latches for both
    /// clock phases (high then low) without touching flip-flops: a single
    /// pass over each tape, in dependency order.
    pub fn settle(&mut self) {
        Self::run_tape(&mut self.values, self.prog.high(), self.prog.args());
        Self::run_tape(&mut self.values, self.prog.low(), self.prog.args());
    }

    fn run_tape(values: &mut [[u64; W]], tape: &[Instr], args: &[u32]) {
        for &instr in tape {
            match instr {
                Instr::Fill { dst, ones } => values[dst as usize] = [splat(ones); W],
                Instr::Copy { dst, src } => values[dst as usize] = values[src as usize],
                Instr::Not { dst, src } => {
                    let s = values[src as usize];
                    let d = &mut values[dst as usize];
                    for w in 0..W {
                        d[w] = !s[w];
                    }
                }
                Instr::And2 { dst, a, b } => {
                    let (x, y) = (values[a as usize], values[b as usize]);
                    let d = &mut values[dst as usize];
                    for w in 0..W {
                        d[w] = x[w] & y[w];
                    }
                }
                Instr::Or2 { dst, a, b } => {
                    let (x, y) = (values[a as usize], values[b as usize]);
                    let d = &mut values[dst as usize];
                    for w in 0..W {
                        d[w] = x[w] | y[w];
                    }
                }
                Instr::Xor2 { dst, a, b } => {
                    let (x, y) = (values[a as usize], values[b as usize]);
                    let d = &mut values[dst as usize];
                    for w in 0..W {
                        d[w] = x[w] ^ y[w];
                    }
                }
                Instr::AndNot { dst, a, b } => {
                    let (x, y) = (values[a as usize], values[b as usize]);
                    let d = &mut values[dst as usize];
                    for w in 0..W {
                        d[w] = x[w] & !y[w];
                    }
                }
                Instr::OrNot { dst, a, b } => {
                    let (x, y) = (values[a as usize], values[b as usize]);
                    let d = &mut values[dst as usize];
                    for w in 0..W {
                        d[w] = x[w] | !y[w];
                    }
                }
                Instr::AndN { dst, start, len } => {
                    let mut acc = [u64::MAX; W];
                    for &a in &args[start as usize..(start + len) as usize] {
                        let v = values[a as usize];
                        for w in 0..W {
                            acc[w] &= v[w];
                        }
                    }
                    values[dst as usize] = acc;
                }
                Instr::OrN { dst, start, len } => {
                    let mut acc = [0u64; W];
                    for &a in &args[start as usize..(start + len) as usize] {
                        let v = values[a as usize];
                        for w in 0..W {
                            acc[w] |= v[w];
                        }
                    }
                    values[dst as usize] = acc;
                }
                Instr::Mux { dst, sel, a, b } => {
                    let (s, x, y) = (values[sel as usize], values[a as usize], values[b as usize]);
                    let d = &mut values[dst as usize];
                    for w in 0..W {
                        d[w] = s[w] & x[w] | !s[w] & y[w];
                    }
                }
                Instr::LatchEn { dst, d, en } => {
                    let (e, x) = (values[en as usize], values[d as usize]);
                    let q = &mut values[dst as usize];
                    for w in 0..W {
                        q[w] = e[w] & x[w] | !e[w] & q[w];
                    }
                }
            }
        }
    }
}

impl WideSim<1> {
    /// Sets a primary input across all lanes: bit `k` of `mask` drives lane
    /// `k` for the upcoming settle.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownNet`] if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, mask: u64) -> Result<(), NetlistError> {
        self.set_input_words(net, [mask])
    }

    /// Sets a primary input in a single lane, leaving the other lanes as
    /// they are.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownNet`] if `net` is out of range or not a
    /// primary input (checked before anything is read);
    /// [`NetlistError::LaneOutOfRange`] if `lane >= LANES`.
    pub fn set_input_lane(&mut self, net: NetId, lane: usize, v: bool) -> Result<(), NetlistError> {
        if lane >= LANES {
            return Err(NetlistError::LaneOutOfRange { lane, lanes: LANES });
        }
        if net.index() >= self.values.len() || !self.is_input[net.index()] {
            return Err(NetlistError::UnknownNet(net));
        }
        let cur = self.values[net.index()][0];
        self.values[net.index()][0] = cur & !(1 << lane) | (u64::from(v) << lane);
        Ok(())
    }

    /// Lane word of any net (meaningful after a settle): bit `k` is the
    /// value in lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn value(&self, net: NetId) -> u64 {
        self.values[net.index()][0]
    }

    /// Value of one net in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range or `lane >= LANES`.
    pub fn value_lane(&self, net: NetId, lane: usize) -> bool {
        assert!(lane < LANES, "lane {lane} out of range");
        self.values[net.index()][0] >> lane & 1 == 1
    }

    /// Extracts one lane across several nets — the wide counterpart of
    /// [`sim::Simulator::values_of`](crate::sim::Simulator::values_of).
    pub fn lane_values(&self, nets: &[NetId], lane: usize) -> Vec<bool> {
        nets.iter().map(|&n| self.value_lane(n, lane)).collect()
    }

    /// Runs one full clock cycle in every lane: rising edge (batched
    /// flip-flop commit), settle of both phases, capture of flip-flop data
    /// inputs.
    ///
    /// # Errors
    ///
    /// Input errors from [`WideSimulator::set_input`]. Unlike the scalar
    /// interpreter there is no oscillation path — settling is one pass per
    /// phase over the compiled tape.
    pub fn cycle(&mut self, inputs: &[(NetId, u64)]) -> Result<(), NetlistError> {
        self.commit();
        for &(net, mask) in inputs {
            self.set_input(net, mask)?;
        }
        self.finish_cycle();
        Ok(())
    }

    /// Snapshot of the state-element lane words, in
    /// [`Netlist::state_elements`] order (wide counterpart of
    /// [`sim::Simulator::state`](crate::sim::Simulator::state)).
    pub fn state(&self) -> Vec<u64> {
        self.prog
            .state_nets()
            .iter()
            .map(|&n| self.values[n.index()][0])
            .collect()
    }

    /// Overwrites the state-element lane words and clears pending flip-flop
    /// captures, so the next [`WideSimulator::cycle`] starts every lane from
    /// exactly this state.
    ///
    /// # Errors
    ///
    /// [`NetlistError::StateWidthMismatch`] when `words.len()` differs from
    /// the number of state elements.
    pub fn load_state(&mut self, words: &[u64]) -> Result<(), NetlistError> {
        let WideSim {
            prog,
            values,
            captured,
            ..
        } = self;
        let state_nets = prog.state_nets();
        if words.len() != state_nets.len() {
            return Err(NetlistError::StateWidthMismatch {
                expected: state_nets.len(),
                got: words.len(),
            });
        }
        for (&net, &w) in state_nets.iter().zip(words) {
            values[net.index()] = [w];
        }
        // Every flip-flop is a state net, so its freshly loaded output is
        // exactly what the next rising edge must commit.
        for (slot, f) in captured.iter_mut().zip(prog.ffs()) {
            *slot = values[f.q as usize];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::LatchPhase;
    use crate::sim::Simulator;

    /// Drives the scalar and wide backends with the same per-lane inputs and
    /// asserts every net matches in every requested lane.
    fn cosim(n: &Netlist, cycles: usize, lane_inputs: &[Vec<Vec<bool>>]) {
        // lane_inputs[lane][cycle][input_idx]
        let lanes = lane_inputs.len();
        let mut wide = WideSimulator::new(n).unwrap();
        let inputs = n.inputs().to_vec();
        let mut scalars: Vec<Simulator> = (0..lanes).map(|_| Simulator::new(n).unwrap()).collect();
        for t in 0..cycles {
            let masks: Vec<(NetId, u64)> = inputs
                .iter()
                .enumerate()
                .map(|(ii, &inp)| {
                    let mut m = 0u64;
                    for (lane, li) in lane_inputs.iter().enumerate() {
                        if li[t][ii] {
                            m |= 1 << lane;
                        }
                    }
                    (inp, m)
                })
                .collect();
            wide.cycle(&masks).unwrap();
            for (lane, sim) in scalars.iter_mut().enumerate() {
                let drive: Vec<(NetId, bool)> = inputs
                    .iter()
                    .enumerate()
                    .map(|(ii, &inp)| (inp, lane_inputs[lane][t][ii]))
                    .collect();
                sim.cycle(&drive).unwrap();
                for net in n.nets() {
                    assert_eq!(
                        wide.value_lane(net, lane),
                        sim.value(net),
                        "cycle {t} lane {lane} net {}",
                        n.net_name(net)
                    );
                }
            }
        }
    }

    fn patterned_inputs(
        lanes: usize,
        cycles: usize,
        num_inputs: usize,
        salt: u64,
    ) -> Vec<Vec<Vec<bool>>> {
        (0..lanes)
            .map(|lane| {
                (0..cycles)
                    .map(|t| {
                        (0..num_inputs)
                            .map(|i| {
                                // Cheap deterministic pattern mixing all three indices.
                                let x = (lane as u64 + 3)
                                    .wrapping_mul(t as u64 + 5)
                                    .wrapping_mul(i as u64 + 7)
                                    .wrapping_add(salt);
                                x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_scalar_on_mixed_logic() {
        let mut n = Netlist::new("mix");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let x = n.and([a, b, c]);
        let y = n.or2(x, a);
        let z = n.xor(y, b);
        let m = n.mux(c, z, y);
        let q = n.dff_bound(m, false);
        let h = n.latch(LatchPhase::High, false);
        n.bind_latch(h, q).unwrap();
        let l = n.latch_en(LatchPhase::Low, a, true);
        n.bind_latch(l, h).unwrap();
        let _out = n.and2(l, q);
        cosim(&n, 12, &patterned_inputs(8, 12, 3, 1));
    }

    #[test]
    fn matches_scalar_on_feedback_ffs() {
        let mut n = Netlist::new("fb");
        let en = n.input("en");
        let q0 = n.dff(false);
        let q1 = n.dff(true);
        let t0 = n.xor(q0, en);
        let t1 = n.mux(en, q0, q1);
        n.bind_dff(q0, t0).unwrap();
        n.bind_dff(q1, t1).unwrap();
        cosim(&n, 16, &patterned_inputs(5, 16, 1, 9));
    }

    #[test]
    fn all_64_lanes_independent() {
        let mut n = Netlist::new("cnt");
        let inc = n.input("inc");
        let q = n.dff(false);
        let d = n.xor(q, inc);
        n.bind_dff(q, d).unwrap();
        let mut sim = WideSimulator::new(&n).unwrap();
        // Lane k toggles only on cycles divisible by (k % 4 + 1).
        for t in 0..8u64 {
            let mut mask = 0u64;
            for lane in 0..LANES as u64 {
                if t % (lane % 4 + 1) == 0 {
                    mask |= 1 << lane;
                }
            }
            sim.cycle(&[(inc, mask)]).unwrap();
        }
        // Recompute expected parity per lane. A DFF shows an input one cycle
        // later, so after 8 cycles only the first 7 inputs are visible.
        for lane in 0..LANES as u64 {
            let toggles = (0..7u64).filter(|t| t % (lane % 4 + 1) == 0).count();
            assert_eq!(
                sim.value_lane(q, lane as usize),
                toggles % 2 == 1,
                "lane {lane}"
            );
        }
    }

    #[test]
    fn enable_through_late_bound_wire_matches_scalar() {
        // Regression: an enable-gated latch whose enable cone passes through
        // a wire with a *higher* net index than the latch. An index-order
        // settle sweep would evaluate the latch against the stale enable and
        // glitch-capture; both backends must use the settled enable.
        let mut n = Netlist::new("hazard");
        let a = n.input("a");
        let en_w = n.wire();
        let l = n.latch_en(LatchPhase::High, en_w, false);
        n.bind_latch(l, a).unwrap();
        let na = n.not(a);
        n.bind_wire(en_w, na).unwrap();
        cosim(&n, 6, &patterned_inputs(4, 6, 1, 21));
        // And explicitly: with a=0 then a=1, en = !a settles to 0 in cycle
        // 2, so the latch must hold its reset value.
        let mut wide = WideSimulator::new(&n).unwrap();
        let mut scalar = Simulator::new(&n).unwrap();
        wide.cycle(&[(a, 0)]).unwrap();
        scalar.cycle(&[(a, false)]).unwrap();
        wide.cycle(&[(a, u64::MAX)]).unwrap();
        scalar.cycle(&[(a, true)]).unwrap();
        assert!(!scalar.value(l), "latch holds: enable settled low");
        assert_eq!(wide.value(l), 0, "wide agrees in every lane");
    }

    #[test]
    fn lane_mask_covers_partial_and_full_words() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(5), 0b1_1111);
        assert_eq!(lane_mask(63), u64::MAX >> 1);
        assert_eq!(lane_mask(LANES), u64::MAX);
    }

    #[test]
    fn clones_run_independently_across_threads() {
        // The sharding contract: one compiled prototype, one clone per
        // worker, bit-identical results regardless of which thread ran
        // which shard.
        let mut n = Netlist::new("shard");
        let inc = n.input("inc");
        let q = n.dff(false);
        let d = n.xor(q, inc);
        n.bind_dff(q, d).unwrap();
        let proto = WideSimulator::new(&n).unwrap();
        let run = |mask: u64| {
            let mut sim = proto.clone();
            for _ in 0..5 {
                sim.cycle(&[(inc, mask)]).unwrap();
            }
            sim.value(q)
        };
        let expected: Vec<u64> = [0u64, u64::MAX, 0xAAAA_5555_AAAA_5555]
            .iter()
            .map(|&m| run(m))
            .collect();
        let got: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = [0u64, u64::MAX, 0xAAAA_5555_AAAA_5555]
                .iter()
                .map(|&m| s.spawn(move || run(m)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(expected, got);
    }

    #[test]
    fn set_input_validation() {
        let mut n = Netlist::new("v");
        let a = n.input("a");
        let x = n.not(a);
        let mut sim = WideSimulator::new(&n).unwrap();
        assert!(sim.set_input(x, 1).is_err(), "cannot drive a non-input");
        sim.set_input_lane(a, 3, true).unwrap();
        assert_eq!(sim.value(a), 8);
        // Out-of-range lane and non-input nets are typed errors, not panics
        // — and the lane check comes first, before any slot is read.
        assert!(matches!(
            sim.set_input_lane(a, LANES, true),
            Err(NetlistError::LaneOutOfRange {
                lane: 64,
                lanes: 64
            })
        ));
        assert!(matches!(
            sim.set_input_lane(x, 0, true),
            Err(NetlistError::UnknownNet(_))
        ));
        assert!(matches!(
            sim.set_input_lane(NetId(999), 0, true),
            Err(NetlistError::UnknownNet(_))
        ));
        assert_eq!(sim.value(a), 8, "failed calls leave the lanes untouched");
    }

    #[test]
    fn multi_word_lane_matches_single_word() {
        // A 4-word simulator runs 256 trials; lane k must equal lane k % 64
        // of a single-word run driven with the same per-lane bits.
        let mut n = Netlist::new("mw");
        let en = n.input("en");
        let q = n.dff(false);
        let t = n.xor(q, en);
        n.bind_dff(q, t).unwrap();
        let mut wide = WideSim::<4>::new(&n).unwrap();
        let mut narrow = WideSimulator::new(&n).unwrap();
        assert_eq!(WideSim::<4>::num_lanes(), 256);
        let pattern = 0xF0F0_A5A5_0F0F_5A5Au64;
        for step in 0..6u64 {
            let m = pattern.rotate_left(step as u32 * 7);
            wide.cycle_wide(&[(en, [m, !m, m.rotate_left(1), 0])])
                .unwrap();
            narrow.cycle(&[(en, m)]).unwrap();
            for lane in 0..64 {
                assert_eq!(
                    wide.lane(q, lane),
                    narrow.value_lane(q, lane),
                    "word 0 lane {lane} step {step}"
                );
            }
            assert_eq!(wide.word(q, 0), narrow.value(q));
        }
        // Word 3 was driven all-zero: those lanes never toggle.
        assert_eq!(wide.word(q, 3), 0);
    }

    #[test]
    fn cycle_packed_equals_cycle_wide() {
        let mut n = Netlist::new("packed");
        let a = n.input("a");
        let b = n.input("b");
        let q = n.dff(false);
        let d = n.xor(q, a);
        let x = n.and2(d, b);
        n.bind_dff(q, x).unwrap();
        let mut by_net = WideSim::<2>::new(&n).unwrap();
        let mut by_slot = WideSim::<2>::new(&n).unwrap();
        let slots = [a.0, b.0];
        by_slot.check_input_slots(&slots).unwrap();
        assert!(
            by_slot.check_input_slots(&[x.0]).is_err(),
            "non-input slots rejected up front"
        );
        for step in 0..8u64 {
            let row = [
                step.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                !step,
                step.rotate_left(13) ^ 0xAAAA,
                step.wrapping_mul(3),
            ];
            by_net
                .cycle_wide(&[(a, [row[0], row[1]]), (b, [row[2], row[3]])])
                .unwrap();
            by_slot.cycle_packed(&slots, &row);
            assert_eq!(by_net.word(q, 0), by_slot.word(q, 0), "step {step}");
            assert_eq!(by_net.word(q, 1), by_slot.word(q, 1), "step {step}");
        }
        assert_eq!(by_net.time(), by_slot.time());
    }

    #[test]
    fn cycle_packed_blocked_equals_unblocked() {
        // Enough gates across both phases that small budgets force real
        // splits, including latches (whose instructions read their own
        // destination) crossing block boundaries.
        let mut n = Netlist::new("blocked");
        let a = n.input("a");
        let b = n.input("b");
        let q = n.dff(false);
        let mut x = n.xor(q, a);
        for i in 0..20 {
            let l = n.latch(
                if i % 2 == 0 {
                    LatchPhase::High
                } else {
                    LatchPhase::Low
                },
                false,
            );
            n.bind_latch(l, x).unwrap();
            x = if i % 3 == 0 {
                n.and2(l, b)
            } else {
                n.xor(l, a)
            };
        }
        n.bind_dff(q, x).unwrap();
        let prog = Program::compile(&n).unwrap();
        let slots = [a.0, b.0];
        // Budgets from "everything in one block" down to one slot per
        // block (which degrades to per-instruction blocks).
        for budget in [usize::MAX, prog.footprint_bytes(2), 256, 64, 1] {
            let plan = prog.block_plan(2, budget);
            let mut flat = WideSim::<2>::from_program(prog.clone());
            let mut blocked = WideSim::<2>::from_program(prog.clone());
            for step in 0..12u64 {
                let row = [
                    step.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    !step,
                    step.rotate_left(17) ^ 0x5555,
                    step.wrapping_mul(11),
                ];
                flat.cycle_packed(&slots, &row);
                blocked.cycle_packed_blocked(&slots, &row, &plan);
                for net in n.nets() {
                    for w in 0..2 {
                        assert_eq!(
                            flat.word(net, w),
                            blocked.word(net, w),
                            "budget {budget} step {step} net {} word {w}",
                            n.net_name(net)
                        );
                    }
                }
            }
            assert_eq!(flat.time(), blocked.time());
        }
    }

    #[test]
    fn lane_masks_cover_multi_word_shards() {
        assert_eq!(lane_masks::<1>(5), [0b1_1111]);
        assert_eq!(lane_masks::<2>(64), [u64::MAX, 0]);
        assert_eq!(lane_masks::<2>(70), [u64::MAX, 0b11_1111]);
        assert_eq!(lane_masks::<4>(256), [u64::MAX; 4]);
        assert_eq!(lane_masks::<4>(0), [0; 4]);
    }

    #[test]
    fn state_roundtrip_wide() {
        let mut n = Netlist::new("state");
        let q = n.dff(false);
        let d = n.not(q);
        n.bind_dff(q, d).unwrap();
        let mut sim = WideSimulator::new(&n).unwrap();
        assert!(sim.load_state(&[0, 0]).is_err(), "width checked");
        sim.load_state(&[0xFFFF_0000_FFFF_0000]).unwrap();
        assert_eq!(sim.state(), vec![0xFFFF_0000_FFFF_0000]);
        // The loaded state is what the first cycle commits; the toggled
        // value q' = !q becomes visible one cycle later, per lane.
        sim.cycle(&[]).unwrap();
        assert_eq!(sim.value(q), 0xFFFF_0000_FFFF_0000);
        sim.cycle(&[]).unwrap();
        assert_eq!(sim.value(q), !0xFFFF_0000_FFFF_0000u64);
    }

    #[test]
    fn time_advances() {
        let mut n = Netlist::new("t");
        let _ = n.input("a");
        let mut sim = WideSimulator::new(&n).unwrap();
        sim.cycle(&[]).unwrap();
        sim.cycle(&[]).unwrap();
        assert_eq!(sim.time(), 2);
    }
}
