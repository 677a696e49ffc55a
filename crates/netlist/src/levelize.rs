//! Levelization: lowering a netlist into a flat, topologically sorted
//! instruction tape.
//!
//! [`sim::Simulator`](crate::sim::Simulator) evaluates one gate at a time
//! and iterates the whole netlist to a fixpoint — robust, but slow when the
//! paper's experiments (Figs. 5–9, Table 1) need thousands of random
//! schedules. [`Program::compile`] pays the scheduling cost once instead:
//! it checks the netlist statically (bound state, no combinational cycles),
//! then emits one straight-line instruction sequence per clock phase in
//! dependency order. Executing a tape is a single pass — no fixpoint
//! iteration and no possibility of [`NetlistError::Oscillation`] — and the
//! instruction operands are dense slot indices, so a backend can evaluate
//! many independent trials at once with word-wide operations (see
//! [`wide::WideSimulator`](crate::wide::WideSimulator)).
//!
//! The two-phase clocking discipline of the interpreter is preserved
//! exactly: the high tape evaluates combinational gates and `H`-phase
//! latches, the low tape combinational gates and `L`-phase latches, and
//! flip-flops commit between cycles. Because the structural check rejects
//! loops that close within one phase, a topological pass per phase reaches
//! the same settled valuation as the interpreter's fixpoint.

use crate::build::{Gate, LatchPhase, NetId, Netlist};
use crate::check;
use crate::error::NetlistError;
use crate::reach;

/// One straight-line instruction of a levelized [`Program`].
///
/// `dst`/operand fields are *slot* indices; slot `i` holds the value of net
/// `NetId(i)`, so probes can keep using [`NetId`]s unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `slots[dst] = if ones { all-ones } else { zero }` — an empty
    /// [`Gate::And`] / [`Gate::Or`] input list.
    Fill {
        /// Destination slot.
        dst: u32,
        /// Fill with ones (true) or zeros (false).
        ones: bool,
    },
    /// `slots[dst] = slots[src]` — buffers, bound wires and transparent
    /// latches without an enable.
    Copy {
        /// Destination slot.
        dst: u32,
        /// Source slot.
        src: u32,
    },
    /// `slots[dst] = !slots[src]`.
    Not {
        /// Destination slot.
        dst: u32,
        /// Source slot.
        src: u32,
    },
    /// `slots[dst] = slots[a] & slots[b]`.
    And2 {
        /// Destination slot.
        dst: u32,
        /// First input slot.
        a: u32,
        /// Second input slot.
        b: u32,
    },
    /// `slots[dst] = slots[a] | slots[b]`.
    Or2 {
        /// Destination slot.
        dst: u32,
        /// First input slot.
        a: u32,
        /// Second input slot.
        b: u32,
    },
    /// `slots[dst] = slots[a] ^ slots[b]`.
    Xor2 {
        /// Destination slot.
        dst: u32,
        /// First input slot.
        a: u32,
        /// Second input slot.
        b: u32,
    },
    /// `slots[dst] = slots[a] & !slots[b]` — produced by the
    /// [`Program::peephole`] pass fusing a `Not` into its `And2` consumer
    /// (the `x & !y` kill-gating shape is everywhere in elastic
    /// controllers). Never emitted by the initial lowering.
    AndNot {
        /// Destination slot.
        dst: u32,
        /// Non-inverted input slot.
        a: u32,
        /// Inverted input slot.
        b: u32,
    },
    /// `slots[dst] = slots[a] | !slots[b]` — peephole fusion of a `Not`
    /// into its `Or2` consumer. Never emitted by the initial lowering.
    OrNot {
        /// Destination slot.
        dst: u32,
        /// Non-inverted input slot.
        a: u32,
        /// Inverted input slot.
        b: u32,
    },
    /// `slots[dst] = !(slots[a] | slots[b])` — produced by the
    /// [`Program::peephole`] pass absorbing a `Not` into the non-inverted
    /// side of an [`Instr::AndNot`] (`!a & !b`). Never emitted by the
    /// initial lowering.
    Nor2 {
        /// Destination slot.
        dst: u32,
        /// First inverted input slot.
        a: u32,
        /// Second inverted input slot.
        b: u32,
    },
    /// N-ary AND with an inverted operand tail, over the window
    /// `args[start..start + len]` (see [`Program::args`]): the first
    /// `len - inv` operands are the plain part, the last `inv` the tail,
    /// and `slots[dst] = AND(plain) & !OR(tail)`. The initial lowering
    /// emits `inv = 0`; the [`Program::peephole`] pass moves each operand
    /// computed by a `Not` into the tail as that `Not`'s source.
    AndN {
        /// Destination slot.
        dst: u32,
        /// Start offset into the operand pool.
        start: u32,
        /// Number of operands, plain part and tail together.
        len: u32,
        /// Number of operands in the inverted tail (`inv <= len`).
        inv: u32,
    },
    /// N-ary OR over `args[start..start + len]`.
    OrN {
        /// Destination slot.
        dst: u32,
        /// Start offset into the operand pool.
        start: u32,
        /// Number of operands.
        len: u32,
    },
    /// `slots[dst] = if slots[sel] { slots[a] } else { slots[b] }`.
    Mux {
        /// Destination slot.
        dst: u32,
        /// Select slot.
        sel: u32,
        /// Slot taken when `sel` is true.
        a: u32,
        /// Slot taken when `sel` is false.
        b: u32,
    },
    /// Enable-gated transparent latch in its active phase:
    /// `slots[dst] = if slots[en] { slots[d] } else { slots[dst] }` — the
    /// hold path reads the latch's own previous value.
    LatchEn {
        /// Destination slot (the latch output).
        dst: u32,
        /// Data slot.
        d: u32,
        /// Enable slot.
        en: u32,
    },
}

impl Instr {
    /// Destination slot of this instruction.
    pub fn dst(self) -> u32 {
        match self {
            Instr::Fill { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Not { dst, .. }
            | Instr::And2 { dst, .. }
            | Instr::Or2 { dst, .. }
            | Instr::Xor2 { dst, .. }
            | Instr::AndNot { dst, .. }
            | Instr::OrNot { dst, .. }
            | Instr::Nor2 { dst, .. }
            | Instr::AndN { dst, .. }
            | Instr::OrN { dst, .. }
            | Instr::Mux { dst, .. }
            | Instr::LatchEn { dst, .. } => dst,
        }
    }

    /// The slots this instruction reads, resolving N-ary operand-pool
    /// windows through `args` (see [`Program::args`]). A
    /// [`Instr::LatchEn`] reads its own destination (the hold path), so
    /// its `dst` is among the returned operands. Public so external
    /// analyses (the `elastic_lint` translation-validation passes) share
    /// the executor's exact operand semantics instead of re-deriving them.
    pub fn operands(self, args: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        push_operands(self, args, &mut out);
        out
    }
}

// A tape word stays five `u32`s wide: `Mux` and `AndN` carry four
// fields next to the tag, and no variant may carry more.
const _: () = assert!(std::mem::size_of::<Instr>() == 20);

/// Appends the slots `instr` reads to `out`. A [`Instr::LatchEn`] reads its
/// own destination (the hold path), so `dst` is among its operands.
fn push_operands(instr: Instr, args: &[u32], out: &mut Vec<u32>) {
    match instr {
        Instr::Fill { .. } => {}
        Instr::Copy { src, .. } | Instr::Not { src, .. } => out.push(src),
        Instr::And2 { a, b, .. }
        | Instr::Or2 { a, b, .. }
        | Instr::Xor2 { a, b, .. }
        | Instr::AndNot { a, b, .. }
        | Instr::OrNot { a, b, .. }
        | Instr::Nor2 { a, b, .. } => {
            out.push(a);
            out.push(b);
        }
        Instr::AndN { start, len, .. } | Instr::OrN { start, len, .. } => {
            out.extend(&args[start as usize..(start + len) as usize]);
        }
        Instr::Mux { sel, a, b, .. } => {
            out.push(sel);
            out.push(a);
            out.push(b);
        }
        Instr::LatchEn { dst, d, en } => {
            out.push(d);
            out.push(en);
            out.push(dst);
        }
    }
}

/// A flip-flop commit record: at every rising edge slot `q` takes the value
/// captured from slot `d` at the end of the previous cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FfCommit {
    /// The flip-flop's output slot.
    pub q: u32,
    /// The slot of its data input.
    pub d: u32,
}

/// A cache-blocking schedule over a program's two phase tapes: consecutive
/// instruction ranges whose touched value slots fit a byte budget, so each
/// block's working set stays L1/L2-resident while the wide backend sweeps
/// its lane words through it.
///
/// Blocks partition each tape **in order** — executing them back to back
/// performs exactly the instruction sequence of the unblocked tape, so
/// results are bit-identical for every block size (asserted by property
/// tests in `wide.rs` and the experiment-engine proptests).
///
/// Produced by [`Program::block_plan`]; consumed by
/// [`wide::WideSim::cycle_packed_blocked`](crate::wide::WideSim::cycle_packed_blocked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPlan {
    /// `(start, end)` instruction ranges partitioning the high tape.
    high: Vec<(usize, usize)>,
    /// `(start, end)` instruction ranges partitioning the low tape.
    low: Vec<(usize, usize)>,
    /// The byte budget the plan was built for.
    budget_bytes: usize,
}

impl BlockPlan {
    /// Instruction ranges of the high-phase tape, in execution order.
    pub fn high(&self) -> &[(usize, usize)] {
        &self.high
    }

    /// Instruction ranges of the low-phase tape, in execution order.
    pub fn low(&self) -> &[(usize, usize)] {
        &self.low
    }

    /// The working-set byte budget this plan was built for.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Total number of blocks across both tapes.
    pub fn len(&self) -> usize {
        self.high.len() + self.low.len()
    }

    /// Whether the plan holds no blocks (both tapes empty).
    pub fn is_empty(&self) -> bool {
        self.high.is_empty() && self.low.is_empty()
    }
}

/// A levelized netlist: one instruction tape per clock phase, plus the
/// flip-flop commit list and initial slot values.
///
/// Produced by [`Program::compile`]; executed by
/// [`wide::WideSimulator`](crate::wide::WideSimulator). The tape layout is
/// public so alternative backends (e.g. a future SIMD or JIT evaluator) can
/// reuse the levelization pass.
///
/// A compiled program is immutable plain data (`Send + Sync`, asserted in
/// `wide.rs`): compile once, then share it by reference across the worker
/// threads of a sharded Monte-Carlo campaign.
#[derive(Debug, Clone)]
pub struct Program {
    num_slots: usize,
    init: Vec<bool>,
    high: Vec<Instr>,
    low: Vec<Instr>,
    args: Vec<u32>,
    ffs: Vec<FfCommit>,
    inputs: Vec<NetId>,
    state_nets: Vec<NetId>,
    outputs: Vec<NetId>,
    /// See [`Program::carried_slots`]; recomputed whenever the tapes change.
    carried: Vec<u32>,
}

impl Program {
    /// Lowers `netlist` into a levelized program.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::UnboundState`] and
    /// [`NetlistError::CombinationalCycle`] — the same preconditions as
    /// [`sim::Simulator::new`](crate::sim::Simulator::new). A compiled
    /// program can never oscillate, so those are the only failure modes.
    pub fn compile(netlist: &Netlist) -> Result<Program, NetlistError> {
        netlist.check_bound()?;
        check::check_combinational_cycles(netlist)?;
        let n = netlist.len();
        let mut init = vec![false; n];
        let mut ffs = Vec::new();
        for id in netlist.nets() {
            match netlist.gate(id) {
                Gate::Dff { init: v, d } => {
                    init[id.index()] = *v;
                    let d = d.expect("checked by check_bound");
                    ffs.push(FfCommit { q: id.0, d: d.0 });
                }
                Gate::Latch { init: v, .. } => init[id.index()] = *v,
                Gate::Const(v) => init[id.index()] = *v,
                _ => {}
            }
        }
        let mut args = Vec::new();
        let high = emit_phase(netlist, LatchPhase::High, &mut args);
        let low = emit_phase(netlist, LatchPhase::Low, &mut args);
        let mut prog = Program {
            num_slots: n,
            init,
            high,
            low,
            args,
            ffs,
            inputs: netlist.inputs().to_vec(),
            state_nets: netlist.state_elements(),
            outputs: netlist.outputs().to_vec(),
            carried: Vec::new(),
        };
        prog.carried = prog.find_carried();
        Ok(prog)
    }

    /// Compiles and immediately runs the [`Program::peephole`] pass.
    ///
    /// The resulting tapes preserve, cycle by cycle, the values of the
    /// netlist's primary outputs, state elements and flip-flop captures —
    /// other nets may go stale (their instructions can be eliminated), so
    /// probe only outputs and state on a peephole-optimized program.
    ///
    /// # Errors
    ///
    /// Same as [`Program::compile`].
    pub fn compile_optimized(netlist: &Netlist) -> Result<(Program, PeepholeStats), NetlistError> {
        let mut p = Program::compile(netlist)?;
        let stats = p.peephole();
        Ok((p, stats))
    }

    /// Number of value slots (= number of nets in the source netlist).
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Power-up value of every slot (flip-flop/latch `init` bits, constant
    /// drivers; everything else false).
    pub fn init(&self) -> &[bool] {
        &self.init
    }

    /// The high-phase instruction tape, in evaluation order.
    pub fn high(&self) -> &[Instr] {
        &self.high
    }

    /// The low-phase instruction tape, in evaluation order.
    pub fn low(&self) -> &[Instr] {
        &self.low
    }

    /// Operand pool for [`Instr::AndN`] / [`Instr::OrN`] windows.
    pub fn args(&self) -> &[u32] {
        &self.args
    }

    /// Flip-flop commit list, in net order. A program folded by
    /// [`Program::fold_inputs`] lists only the flip-flops it still
    /// commits: one that never leaves its power-up value on a run from
    /// power-up with the fixed inputs held is dropped, when a literal scan
    /// of the tapes or an exact search of the reachable states proves it
    /// (with no fixed input at all too), and its `q` slot, still among
    /// [`Program::state_nets`], keeps its power-up value
    /// ([`Program::init`]). The carried state of a simulator
    /// ([`wide::WideSim::read_carried`](crate::wide::WideSim::read_carried))
    /// holds one capture per flip-flop listed here.
    pub fn ffs(&self) -> &[FfCommit] {
        &self.ffs
    }

    /// Primary inputs of the source netlist, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// State-element nets in [`Netlist::state_elements`] order — the state
    /// vector layout shared with the scalar simulator.
    pub fn state_nets(&self) -> &[NetId] {
        &self.state_nets
    }

    /// Primary outputs of the source netlist — the observation set the
    /// [`Program::peephole`] pass preserves (together with state elements
    /// and flip-flop captures).
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The slots one cycle hands the next besides the flip-flop captures:
    /// those a tape writes and a cycle reads before it writes them, in
    /// slot order. A hold latch's output is one (its `LatchEn` reads its
    /// own previous value), as is a value the low tape computes and the
    /// next high tape reads. Flip-flop outputs are rewritten from the
    /// captures and inputs from the stimulus at every rising edge, and a
    /// slot no tape writes keeps its power-up value, so with the captures
    /// these slots are the whole state a cycle depends on: two simulators
    /// that agree on them (and on the captures) in a lane agree there on
    /// every later cycle under the same inputs. Empty for a latch-free
    /// tape.
    pub fn carried_slots(&self) -> &[u32] {
        &self.carried
    }

    /// Computes [`Program::carried_slots`] from the tapes: one forward
    /// scan in execution order (high tape, then low tape).
    fn find_carried(&self) -> Vec<u32> {
        let mut tape_written = vec![false; self.num_slots];
        for i in self.high.iter().chain(&self.low) {
            tape_written[i.dst() as usize] = true;
        }
        let mut written = vec![false; self.num_slots];
        let mut carried = vec![false; self.num_slots];
        let mut ops = Vec::new();
        for &instr in self.high.iter().chain(&self.low) {
            ops.clear();
            push_operands(instr, &self.args, &mut ops);
            for &o in &ops {
                let o = o as usize;
                carried[o] |= tape_written[o] && !written[o];
            }
            written[instr.dst() as usize] = true;
        }
        (0..self.num_slots as u32)
            .filter(|&s| carried[s as usize])
            .collect()
    }

    /// Bytes of simulator value state a `width`-word backend needs for this
    /// program (the `values` arena of a
    /// [`wide::WideSim`](crate::wide::WideSim)): `num_slots × width × 8`.
    /// The runtime word-width dispatch of the Monte-Carlo engine uses this
    /// to keep the arena cache-resident.
    pub fn footprint_bytes(&self, width: usize) -> usize {
        self.num_slots * width * 8
    }

    /// Splits both phase tapes into consecutive instruction blocks whose
    /// touched-slot working set stays within `budget_bytes` for a
    /// `width`-word backend — see [`BlockPlan`]. Each block gets at least
    /// one instruction, so a tiny budget degrades to per-instruction blocks
    /// rather than failing.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn block_plan(&self, width: usize, budget_bytes: usize) -> BlockPlan {
        assert!(width > 0, "block plan needs a word width");
        let bytes_per_slot = width * 8;
        let mut operands = Vec::new();
        let mut split = |tape: &[Instr]| -> Vec<(usize, usize)> {
            let mut blocks = Vec::new();
            let mut start = 0usize;
            // Slot-indexed epoch marks: slot i is in the current block's
            // working set iff touched[i] == epoch. Reset is O(1) per block.
            let mut touched = vec![0u32; self.num_slots];
            let mut epoch = 1u32;
            let mut live = 0usize;
            for (i, &instr) in tape.iter().enumerate() {
                operands.clear();
                operands.push(instr.dst());
                push_operands(instr, &self.args, &mut operands);
                let fresh = operands
                    .iter()
                    .filter(|&&s| touched[s as usize] != epoch)
                    .count();
                if i > start && (live + fresh) * bytes_per_slot > budget_bytes {
                    blocks.push((start, i));
                    start = i;
                    epoch += 1;
                    live = 0;
                }
                for &s in &operands {
                    if touched[s as usize] != epoch {
                        touched[s as usize] = epoch;
                        live += 1;
                    }
                }
            }
            if start < tape.len() {
                blocks.push((start, tape.len()));
            }
            blocks
        };
        BlockPlan {
            high: split(&self.high),
            low: split(&self.low),
            budget_bytes,
        }
    }

    /// Peephole-optimizes the instruction tapes in place:
    ///
    /// 1. **copy-chain collapsing** — readers of a `Copy` destination are
    ///    redirected to its source (sound within a tape: every slot is
    ///    written at most once per tape, in dependency order);
    /// 2. **inverter fusion** — each reader of a `Not` reads its source
    ///    instead, as a complement: an `And2`, `AndNot` or `AndN` operand
    ///    becomes an [`Instr::AndNot`], an [`Instr::Nor2`] or a member of
    ///    the [`Instr::AndN`] inverted tail (a tail operand that is itself
    ///    a `Not` output moves back to the plain part), an `Or2` operand
    ///    an [`Instr::OrNot`], and an inverted mux select swaps the arms.
    ///    Step 5 then drops every `Not` whose readers all absorbed it; a
    ///    `Not` whose value is observed (output, state, flip-flop data) or
    ///    read by another gate kind stays;
    /// 3. **constant folding** — slots never written by either tape (and
    ///    not inputs or state) are stuck at their power-up value, `Fill`
    ///    destinations are tape-local constants, and both fold through
    ///    every gate kind (including shrinking `AndN`/`OrN` operand runs
    ///    and deleting never-enabled hold latches). An inverted operand
    ///    folds as its complement: constant-true zeroes its gate,
    ///    constant-false drops out;
    /// 4. **value numbering** — an instruction whose canonical form (its
    ///    kind and operand literals, commutative operands sorted, the AND
    ///    family as one literal list) matches an earlier instruction of the
    ///    same tape becomes a `Copy` of that instruction's destination, so
    ///    step 1 redirects its readers. A merge needs every operand to be
    ///    written before the first occurrence or never written in that
    ///    tape, so both occurrences read the same values; a `LatchEn`,
    ///    whose hold path reads its own previous value, never merges;
    /// 5. **phase-aware dead-code elimination** — an instruction survives
    ///    only if its destination is read before being overwritten, by a
    ///    live instruction, a flip-flop capture, or an end-of-cycle
    ///    observation of an output/state net. A combinational gate whose
    ///    value is only consumed after the low phase thus executes once per
    ///    cycle instead of twice — for latch-free controllers this removes
    ///    the high tape entirely. A merged duplicate whose value is
    ///    observed keeps its `Copy`. The elimination also runs before
    ///    steps 1–4, which then skip what nothing reads.
    ///
    /// After the pass, only primary outputs, state elements and flip-flop
    /// captures are guaranteed to hold their exact per-cycle values; other
    /// slots may be stale. Equivalence on the preserved nets is asserted
    /// against the scalar interpreter by property tests over random
    /// netlists, on every [`Kernel`](crate::kernel::Kernel) build of the
    /// wide backend. The pass is idempotent: a second run over its output
    /// changes nothing.
    pub fn peephole(&mut self) -> PeepholeStats {
        self.optimize(&[])
    }

    /// A copy of this program with the primary inputs `fixed` — `(slot,
    /// value)` pairs — held at their values, and with the flip-flops that
    /// never leave their power-up value under them folded away
    /// (sequential constant propagation).
    ///
    /// Two proofs decide which flip-flops fold:
    ///
    /// 1. **A literal scan**, by induction from power-up to a greatest
    ///    fixpoint: assume every flip-flop holds its power-up value, scan
    ///    the tapes once with the fixed inputs and those `q` slots as
    ///    constants (`end_literals`: constants, copies and complements
    ///    followed through every gate, so `x & !x` is 0), drop the
    ///    assumption for each flip-flop whose `d` slot does not end the
    ///    cycle as that constant, and repeat until nothing drops. Every
    ///    flip-flop left holds its power-up value at cycle 0 and, while
    ///    all of them do, captures it again, so none ever leaves it.
    /// 2. **An exact state search** over what the scan left
    ///    ([`reach::search`], the search the model checker's Kripke
    ///    structures are built on): every carried state (flip-flop captures and
    ///    [`Program::carried_slots`]) reachable from power-up with the
    ///    fixed inputs held and every other input free, breadth first,
    ///    512 (state, input) pairs per eight-word simulator cycle. Each
    ///    flip-flop whose capture is its power-up value in every reachable
    ///    state folds too: it never leaves that value on a run the fold is
    ///    exact on, though no one-cycle scan shows it (a flip-flop set only
    ///    from an unreachable state). The search is budgeted: past
    ///    `budget` transitions it gives up and the fold is the literal
    ///    scan's alone. A tape is folded at its first use with
    ///    [`reach::SEARCH_BUDGET`], and again with [`reach::DEEP_BUDGET`]
    ///    where the first search gave up and the work run on the tape pays
    ///    for a longer one (`elastic_bench::WideHarness`); the budgets are
    ///    constants, not options.
    ///
    /// A flip-flop can fold with no fixed input at all (two that hold
    /// each other at their power-up 0, one that recaptures its own output,
    /// one set only from an unreachable state), so `fold_inputs(&[], budget)` may
    /// drop flip-flops too. The folded flip-flops leave [`Program::ffs`]
    /// (their `q` slots keep [`Program::init`], and nothing writes them),
    /// and one [`Program::peephole`] pass then runs with the fixed inputs
    /// and those `q` slots read as constants, so the logic they feed and
    /// the folded flip-flops' data cones go.
    ///
    /// The folded program still lists every input and still accepts a
    /// write to every input slot. It matches this one on the observation
    /// set of [`Program::peephole`] (a folded flip-flop's state slot
    /// included) on a run that starts at power-up, or from a state a
    /// simulator of the folded program reached on such a run, with each
    /// fixed input carrying its value in every cycle since cycle 0: the
    /// very runs the search enumerates. Anything else can differ with no
    /// error: a state loaded from a run of another program, or one in
    /// which a fixed input once carried the other value, may have a
    /// folded flip-flop away from its power-up value, which the folded
    /// program cannot hold. Its carried state ([`Program::carried_slots`],
    /// and one capture per flip-flop it still lists) covers only what it
    /// still commits. The Monte-Carlo engine's dead lanes, past a
    /// matrix's trial count, read 0 in every column, a fixed input held
    /// at 1 included, so their inputs may lie outside the alphabet the
    /// fold assumed; no count or coalescence check reads a dead lane.
    ///
    /// Returns the folded program and whether the state search finished
    /// (`true` also when the scan left no flip-flop to search); `false`
    /// says it gave up at `budget`, and a larger budget may fold more.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownNet`] naming the first slot of `fixed` that
    /// is not a primary input.
    pub fn fold_inputs(
        &self,
        fixed: &[(u32, bool)],
        budget: usize,
    ) -> Result<(Program, bool), NetlistError> {
        if let Some(&(s, _)) = fixed
            .iter()
            .find(|&&(s, _)| !self.inputs.contains(&NetId(s)))
        {
            return Err(NetlistError::UnknownNet(NetId(s)));
        }
        let mut pinned = self.literal_pins(fixed);
        let mut folded = self.clone();
        folded.ffs.retain(|f| !pinned.contains(f));
        let mut finished = true;
        if !folded.ffs.is_empty() {
            match reach::search(&folded, fixed, &[], budget) {
                Some(reach) => {
                    folded.ffs.retain(|f| !reach.constant.contains(f));
                    pinned.extend(reach.constant);
                }
                None => finished = false,
            }
        }
        folded.optimize(&self.held(fixed, &pinned));
        Ok((folded, finished))
    }

    /// The flip-flops the literal scan pins under `fixed`: the greatest
    /// fixpoint of [`Program::fold_inputs`]'s induction, each round one
    /// [`Program::end_literals`] scan.
    fn literal_pins(&self, fixed: &[(u32, bool)]) -> Vec<FfCommit> {
        let init = |f: &FfCommit| self.init[f.q as usize];
        let mut pinned = self.ffs.clone();
        loop {
            let end = self.end_literals(&self.held(fixed, &pinned));
            let assumed = pinned.len();
            pinned.retain(|f| end[f.d as usize] == u32::from(!init(f)));
            if pinned.len() == assumed {
                return pinned;
            }
        }
    }

    /// `fixed`, then the `q` slot of each flip-flop of `pinned` at its
    /// power-up value.
    fn held(&self, fixed: &[(u32, bool)], pinned: &[FfCommit]) -> Vec<(u32, bool)> {
        let pins = pinned.iter().map(|f| (f.q, self.init[f.q as usize]));
        fixed.iter().copied().chain(pins).collect()
    }

    /// The literal each slot ends a cycle with: one forward scan of both
    /// tapes in execution order. A literal is `value << 1 | inverted`;
    /// value 0 is the constant 1, so [`ONE`] and [`ZERO`] are the
    /// constants. Every slot starts the cycle as a value of its own, or as
    /// its constant where [`Program::stuck_slots`] with `held` gives one.
    /// An instruction that copies or inverts a literal writes it, one
    /// whose operand literals decide it writes the deciding literal (a
    /// constant in the AND or OR family, a literal beside its complement
    /// or repeated, an XOR of a literal with itself, its complement or a
    /// constant, a mux or latch with a constant select or equal data), and
    /// any other writes a new value. A slot that ends with a constant
    /// literal ends every cycle that starts from a state agreeing with
    /// `held` at that constant.
    fn end_literals(&self, held: &[(u32, bool)]) -> Vec<u32> {
        let mut x: Vec<u32> = (1..)
            .zip(self.stuck_slots(held))
            .map(|(v, k)| k.map_or(v << 1, |b| u32::from(!b)))
            .collect();
        let mut next = self.num_slots as u32 + 1;
        let mut buf = Vec::new();
        for &instr in self.high.iter().chain(&self.low) {
            let r = |s: u32| x[s as usize];
            let window = |start: u32, len: u32| &self.args[start as usize..(start + len) as usize];
            let lit = match instr {
                Instr::Fill { ones, .. } => Some(u32::from(!ones)),
                Instr::Copy { src, .. } => Some(r(src)),
                Instr::Not { src, .. } => Some(r(src) ^ 1),
                Instr::And2 { a, b, .. } => and_literal(&mut buf, [r(a), r(b)]),
                Instr::AndNot { a, b, .. } => and_literal(&mut buf, [r(a), r(b) ^ 1]),
                Instr::Nor2 { a, b, .. } => and_literal(&mut buf, [r(a) ^ 1, r(b) ^ 1]),
                Instr::AndN {
                    start, len, inv, ..
                } => {
                    let plain = (len - inv) as usize;
                    let ops = window(start, len).iter().enumerate();
                    and_literal(&mut buf, ops.map(|(i, &s)| r(s) ^ u32::from(i >= plain)))
                }
                Instr::Or2 { a, b, .. } => or_literal(&mut buf, [r(a), r(b)]),
                Instr::OrNot { a, b, .. } => or_literal(&mut buf, [r(a), r(b) ^ 1]),
                Instr::OrN { start, len, .. } => {
                    or_literal(&mut buf, window(start, len).iter().map(|&s| r(s)))
                }
                Instr::Xor2 { a, b, .. } => match (r(a), r(b)) {
                    // `x ^ x` is 0 and `x ^ !x` is 1.
                    (a, b) if a ^ b <= 1 => Some(a ^ b ^ 1),
                    (k, x) | (x, k) if k >> 1 == 0 => Some(x ^ k ^ 1),
                    _ => None,
                },
                Instr::Mux { sel, a, b, .. } => match (r(sel), r(a), r(b)) {
                    (ONE, x, _) | (ZERO, _, x) => Some(x),
                    (_, a, b) => (a == b).then_some(a),
                },
                Instr::LatchEn { dst, d, en } => match (r(en), r(d), r(dst)) {
                    (ONE, x, _) | (ZERO, _, x) => Some(x),
                    (_, d, q) => (d == q).then_some(d),
                },
            };
            x[instr.dst() as usize] = lit.unwrap_or_else(|| {
                next += 1;
                (next - 1) << 1
            });
        }
        x
    }

    /// The slots that hold one value for a whole cycle: a slot neither
    /// tape writes keeps its power-up value, unless it is an input (the
    /// testbench drives it) or a state element (flip-flop commits write it
    /// between cycles). `held` then pins input and flip-flop output slots
    /// to the given values.
    fn stuck_slots(&self, held: &[(u32, bool)]) -> Vec<Option<bool>> {
        let mut konst: Vec<Option<bool>> = self.init.iter().map(|&b| Some(b)).collect();
        for i in self.high.iter().chain(&self.low) {
            konst[i.dst() as usize] = None;
        }
        for &s in self.inputs.iter().chain(&self.state_nets) {
            konst[s.index()] = None;
        }
        for &(s, v) in held {
            konst[s as usize] = Some(v);
        }
        konst
    }

    /// The [`Program::peephole`] pass with the slots of `held` (inputs and
    /// flip-flop outputs) read as the given constants.
    fn optimize(&mut self, held: &[(u32, bool)]) -> PeepholeStats {
        let n = self.num_slots;
        let mut stats = PeepholeStats {
            instrs_before: self.high.len() + self.low.len(),
            ..PeepholeStats::default()
        };
        // Rewriting only deletes or simplifies, so what is dead now stays
        // dead: drop it first and the passes skip it (the recomputation of
        // latch-free logic in the high tape is most of a lowered tape).
        self.eliminate_dead();
        let konst_base = self.stuck_slots(held);
        // Forward rewrite of both tapes to a joint fixpoint (a fold in one
        // pass can expose a fusion in the next).
        loop {
            let mut changed = false;
            let high = std::mem::take(&mut self.high);
            let (high, ch) = rewrite_tape(&high, &mut self.args, &konst_base, n, &mut stats);
            self.high = high;
            changed |= ch;
            let low = std::mem::take(&mut self.low);
            let (low, cl) = rewrite_tape(&low, &mut self.args, &konst_base, n, &mut stats);
            self.low = low;
            changed |= cl;
            if !changed {
                break;
            }
        }
        self.eliminate_dead();
        self.carried = self.find_carried();
        stats.instrs_after = self.high.len() + self.low.len();
        stats
    }

    /// Phase-aware dead-code elimination over both tapes (step 5 of
    /// [`Program::peephole`]): backward liveness in execution order (low
    /// tape, then high tape, with needs at the top of the high tape wrapping
    /// to the previous cycle's end), iterated to a fixpoint. Roots are the
    /// end-of-cycle observations: primary outputs, state elements and
    /// flip-flop data captures.
    fn eliminate_dead(&mut self) {
        let n = self.num_slots;
        let mut roots = vec![false; n];
        for &o in &self.outputs {
            roots[o.index()] = true;
        }
        for &s in &self.state_nets {
            roots[s.index()] = true;
        }
        for f in &self.ffs {
            roots[f.d as usize] = true;
        }
        let mut live_high = vec![false; self.high.len()];
        let mut live_low = vec![false; self.low.len()];
        // Slots whose value at the top of the high tape is read before being
        // rewritten — they bind to the previous cycle's end-of-low values.
        // (Flip-flop outputs and inputs are overwritten at the cycle
        // boundary, but they have no tape writers, so carrying their needs
        // across is harmless.)
        let mut boundary = vec![false; n];
        let mut ops: Vec<u32> = Vec::new();
        loop {
            let mut changed = false;
            // `needed[s]`: at the current point of the backward scan, the
            // value of slot `s` is read later in the cycle before any write.
            let mut needed = roots.clone();
            for (s, &b) in boundary.iter().enumerate() {
                needed[s] = needed[s] || b;
            }
            for (tape, live) in [(&self.low, &mut live_low), (&self.high, &mut live_high)] {
                for (pos, &instr) in tape.iter().enumerate().rev() {
                    let dst = instr.dst() as usize;
                    if needed[dst] || live[pos] {
                        if !live[pos] {
                            live[pos] = true;
                            changed = true;
                        }
                        // This write satisfies any later read of `dst`; its
                        // operands become needed in turn. (A `LatchEn` lists
                        // its own destination as an operand, so the hold
                        // path re-arms the need across the boundary.)
                        needed[dst] = false;
                        ops.clear();
                        push_operands(instr, &self.args, &mut ops);
                        for &o in &ops {
                            needed[o as usize] = true;
                        }
                    } else {
                        // Dead write: later reads bind to it, so it blocks
                        // upstream needs — `needed[dst]` is already false.
                    }
                }
            }
            if needed != boundary {
                boundary = needed;
                changed = true;
            }
            if !changed {
                break;
            }
        }
        let mut keep = live_high.iter();
        self.high
            .retain(|_| *keep.next().expect("one flag per instr"));
        let mut keep = live_low.iter();
        self.low
            .retain(|_| *keep.next().expect("one flag per instr"));
    }
}

/// The literal of the constant 1 in [`Program::end_literals`].
const ONE: u32 = 0;
/// The literal of the constant 0 in [`Program::end_literals`].
const ZERO: u32 = 1;

/// The literal the AND of `lits` folds to, if its literals decide it: 0
/// beside a 0 or a literal and its complement, else 1 or the one literal
/// left once the 1s and repeats drop. `buf` is scratch.
fn and_literal(buf: &mut Vec<u32>, lits: impl IntoIterator<Item = u32>) -> Option<u32> {
    buf.clear();
    for lit in lits {
        match lit {
            ONE => {}
            ZERO => return Some(ZERO),
            _ => buf.push(lit),
        }
    }
    buf.sort_unstable();
    buf.dedup();
    // A literal and its complement sort next to each other.
    if buf.windows(2).any(|w| w[0] ^ 1 == w[1]) {
        return Some(ZERO);
    }
    match buf[..] {
        [] => Some(ONE),
        [lit] => Some(lit),
        _ => None,
    }
}

/// The literal the OR of `lits` folds to: the complement of the AND of
/// their complements.
fn or_literal(buf: &mut Vec<u32>, lits: impl IntoIterator<Item = u32>) -> Option<u32> {
    and_literal(buf, lits.into_iter().map(|lit| lit ^ 1)).map(|lit| lit ^ 1)
}

/// Statistics of one [`Program::peephole`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeStats {
    /// Instructions across both tapes before the pass.
    pub instrs_before: usize,
    /// Instructions across both tapes after the pass.
    pub instrs_after: usize,
    /// Inverters absorbed into a reader: each time a reader's operand was
    /// replaced by the source of the `Not` computing it (into `AndNot`,
    /// `OrNot`, `Nor2`, an `AndN` tail, or a swapped mux), counted once
    /// per reader operand.
    pub fused: usize,
    /// Folding steps applied (one instruction may fold several times on its
    /// way to a fixpoint).
    pub folded: usize,
    /// Instructions value numbering turned into a `Copy` of an earlier
    /// instruction of the same tape.
    pub merged: usize,
}

/// One forward rewrite pass over a tape: alias-resolves operands through
/// copies, folds/fuses each instruction to a fixpoint, and merges it with
/// an equal earlier one (see [`Program::peephole`] steps 1–4). Returns the
/// rewritten tape and whether anything changed.
fn rewrite_tape(
    tape: &[Instr],
    args: &mut Vec<u32>,
    konst_base: &[Option<bool>],
    num_slots: usize,
    stats: &mut PeepholeStats,
) -> (Vec<Instr>, bool) {
    let mut facts = Facts {
        alias: (0..num_slots as u32).collect(),
        inv: vec![None; num_slots],
        konst: konst_base.to_vec(),
    };
    // The literal buffer of every AND- and OR-family fold of this pass.
    let mut lits = Vec::new();
    // `pending[s]`: slot `s` is written later in this tape, so a read of
    // it here sees the previous cycle's value.
    let mut pending = vec![false; num_slots];
    for i in tape {
        pending[i.dst() as usize] = true;
    }
    let mut numbering = ValueTable::new(tape.len());
    let mut form = Vec::new();
    let mut out: Vec<Instr> = Vec::with_capacity(tape.len());
    let mut changed = false;
    for &orig in tape {
        match simplify(orig, args, &facts, &mut lits, stats) {
            None => changed = true, // hold-latch deleted: the slot keeps its value
            Some(mut instr) => {
                let dst = instr.dst();
                if canonical_form(instr, args, &mut form)
                    && form[1..].iter().all(|&lit| !pending[(lit >> 1) as usize])
                {
                    if let Some(src) = numbering.find_or_insert(&form, dst) {
                        stats.merged += 1;
                        instr = Instr::Copy { dst, src };
                    }
                }
                pending[dst as usize] = false;
                changed |= instr != orig;
                match instr {
                    Instr::Fill { dst, ones } => facts.konst[dst as usize] = Some(ones),
                    Instr::Copy { dst, src } => {
                        facts.alias[dst as usize] = src;
                        facts.konst[dst as usize] = facts.konst[src as usize];
                        facts.inv[dst as usize] = facts.inv[src as usize];
                    }
                    Instr::Not { dst, src } => facts.inv[dst as usize] = Some(src),
                    _ => {}
                }
                out.push(instr);
            }
        }
    }
    (out, changed)
}

/// Tape-local facts of [`rewrite_tape`], keyed by slot. All are sound for
/// the remainder of the tape because every slot is written at most once
/// per tape and the tape is in dependency order.
struct Facts {
    /// The source of the `Copy` writing a slot (the slot itself if none).
    alias: Vec<u32>,
    /// The source of the `Not` writing a slot.
    inv: Vec<Option<u32>>,
    /// A slot's constant value.
    konst: Vec<Option<bool>>,
}

impl Facts {
    /// Follows copies from `s` to the slot holding its value.
    fn resolve(&self, mut s: u32) -> u32 {
        while self.alias[s as usize] != s {
            s = self.alias[s as usize];
        }
        s
    }
}

/// Writes the canonical form of `instr` to `form` for value numbering: a
/// kind word, then the operands as literals `slot << 1 | inverted`. The
/// AND family (`Not` is a one-literal AND) and the OR family (`Or2`,
/// `OrNot`, `OrN`) list their literals, and `Xor2` its two operands,
/// sorted, so commuted operands give one form and an `AndNot` the form of
/// the equal one-tail `AndN`; a `Mux` keeps its operand order. Returns
/// false for the kinds that never merge: `Fill` and `Copy`, which the
/// constant and copy facts already cover, and `LatchEn`, whose hold path
/// reads its own previous value.
fn canonical_form(instr: Instr, args: &[u32], form: &mut Vec<u32>) -> bool {
    const AND: u32 = 0;
    const OR: u32 = 1;
    const XOR: u32 = 2;
    const MUX: u32 = 3;
    let lit = |s: u32, inverted: bool| s << 1 | u32::from(inverted);
    form.clear();
    match instr {
        Instr::Fill { .. } | Instr::Copy { .. } | Instr::LatchEn { .. } => return false,
        Instr::Not { src, .. } => form.extend([AND, lit(src, true)]),
        Instr::And2 { a, b, .. } => form.extend([AND, lit(a, false), lit(b, false)]),
        Instr::AndNot { a, b, .. } => form.extend([AND, lit(a, false), lit(b, true)]),
        Instr::Nor2 { a, b, .. } => form.extend([AND, lit(a, true), lit(b, true)]),
        Instr::AndN {
            start, len, inv, ..
        } => {
            let plain = (len - inv) as usize;
            let window = &args[start as usize..(start + len) as usize];
            form.push(AND);
            form.extend(window.iter().enumerate().map(|(i, &s)| lit(s, i >= plain)));
        }
        Instr::Or2 { a, b, .. } => form.extend([OR, lit(a, false), lit(b, false)]),
        Instr::OrNot { a, b, .. } => form.extend([OR, lit(a, false), lit(b, true)]),
        Instr::OrN { start, len, .. } => {
            form.push(OR);
            form.extend(
                args[start as usize..(start + len) as usize]
                    .iter()
                    .map(|&s| lit(s, false)),
            );
        }
        Instr::Xor2 { a, b, .. } => form.extend([XOR, lit(a, false), lit(b, false)]),
        Instr::Mux { sel, a, b, .. } => {
            form.extend([MUX, lit(sel, false), lit(a, false), lit(b, false)]);
            return true;
        }
    }
    form[1..].sort_unstable();
    true
}

/// The value-numbering table of one [`rewrite_tape`] pass: the canonical
/// form of each instruction entered so far and the slot it wrote. The
/// forms sit back to back in one buffer and the buckets probe linearly by
/// a hash of the form, so a lookup allocates nothing.
struct ValueTable {
    /// Every entered form, back to back.
    forms: Vec<u32>,
    /// Per entry: the start and length of its form, and its slot.
    entries: Vec<(usize, usize, u32)>,
    /// Entry index + 1 per bucket, 0 for an empty bucket; a power of two
    /// at least twice the entries a pass can enter.
    buckets: Vec<u32>,
}

impl ValueTable {
    /// A table for a pass over a `len`-instruction tape.
    fn new(len: usize) -> ValueTable {
        ValueTable {
            forms: Vec::new(),
            entries: Vec::with_capacity(len),
            buckets: vec![0; (2 * len).next_power_of_two().max(2)],
        }
    }

    /// The slot of the entry whose form is `form`; when there is none,
    /// enters `form` as written to `dst` and returns `None`.
    fn find_or_insert(&mut self, form: &[u32], dst: u32) -> Option<u32> {
        let hash = form.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        });
        let mask = self.buckets.len() - 1;
        let mut b = (hash >> 32) as usize & mask;
        while let Some(e) = self.buckets[b].checked_sub(1) {
            let (start, len, slot) = self.entries[e as usize];
            if self.forms[start..start + len] == *form {
                return Some(slot);
            }
            b = (b + 1) & mask;
        }
        self.buckets[b] = self.entries.len() as u32 + 1;
        self.entries.push((self.forms.len(), form.len(), dst));
        self.forms.extend_from_slice(form);
        None
    }
}

/// Folds one instruction to a local fixpoint under the tape-local facts.
/// Returns `None` when the instruction can be deleted outright (a hold
/// latch whose enable is constant-false or whose data is its own output).
#[allow(clippy::too_many_lines)]
fn simplify(
    orig: Instr,
    args: &mut Vec<u32>,
    facts: &Facts,
    lits: &mut Vec<(u32, bool)>,
    stats: &mut PeepholeStats,
) -> Option<Instr> {
    let r = |s: u32| facts.resolve(s);
    let k = |s: u32| facts.konst[s as usize];
    let iv = |s: u32| facts.inv[s as usize];
    let mut cur = match orig {
        Instr::Fill { .. } | Instr::AndN { .. } | Instr::OrN { .. } => orig,
        Instr::Copy { dst, src } => Instr::Copy { dst, src: r(src) },
        Instr::Not { dst, src } => Instr::Not { dst, src: r(src) },
        Instr::And2 { dst, a, b } => Instr::And2 {
            dst,
            a: r(a),
            b: r(b),
        },
        Instr::Or2 { dst, a, b } => Instr::Or2 {
            dst,
            a: r(a),
            b: r(b),
        },
        Instr::Xor2 { dst, a, b } => Instr::Xor2 {
            dst,
            a: r(a),
            b: r(b),
        },
        Instr::AndNot { dst, a, b } => Instr::AndNot {
            dst,
            a: r(a),
            b: r(b),
        },
        Instr::OrNot { dst, a, b } => Instr::OrNot {
            dst,
            a: r(a),
            b: r(b),
        },
        Instr::Nor2 { dst, a, b } => Instr::Nor2 {
            dst,
            a: r(a),
            b: r(b),
        },
        Instr::Mux { dst, sel, a, b } => Instr::Mux {
            dst,
            sel: r(sel),
            a: r(a),
            b: r(b),
        },
        Instr::LatchEn { dst, d, en } => Instr::LatchEn {
            dst,
            d: r(d),
            en: r(en),
        },
    };
    loop {
        let next = match cur {
            Instr::Fill { .. } => break,
            Instr::Copy { dst, src } => match k(src) {
                Some(v) => Instr::Fill { dst, ones: v },
                None => break,
            },
            Instr::Not { dst, src } => match (k(src), iv(src)) {
                (Some(v), _) => Instr::Fill { dst, ones: !v },
                (None, Some(x)) => Instr::Copy { dst, src: x }, // double negation
                (None, None) => break,
            },
            // The AND family: one literal list, one canonical form.
            Instr::And2 { .. } | Instr::AndNot { .. } | Instr::Nor2 { .. } | Instr::AndN { .. } => {
                fold_and(cur, args, facts, lits, stats)
            }
            Instr::Or2 { dst, a, b } => {
                if k(a) == Some(true) || k(b) == Some(true) || iv(a) == Some(b) || iv(b) == Some(a)
                {
                    Instr::Fill { dst, ones: true }
                } else if k(a) == Some(false) || a == b {
                    Instr::Copy { dst, src: b }
                } else if k(b) == Some(false) {
                    Instr::Copy { dst, src: a }
                } else if let Some(x) = iv(b) {
                    stats.fused += 1;
                    Instr::OrNot { dst, a, b: x }
                } else if let Some(x) = iv(a) {
                    stats.fused += 1;
                    Instr::OrNot { dst, a: b, b: x }
                } else {
                    break;
                }
            }
            Instr::Xor2 { dst, a, b } => match (k(a), k(b)) {
                (Some(x), Some(y)) => Instr::Fill { dst, ones: x ^ y },
                (Some(false), None) => Instr::Copy { dst, src: b },
                (Some(true), None) => Instr::Not { dst, src: b },
                (None, Some(false)) => Instr::Copy { dst, src: a },
                (None, Some(true)) => Instr::Not { dst, src: a },
                (None, None) if a == b => Instr::Fill { dst, ones: false },
                (None, None) if iv(a) == Some(b) || iv(b) == Some(a) => {
                    Instr::Fill { dst, ones: true }
                }
                (None, None) => break,
            },
            // a | !b
            Instr::OrNot { dst, a, b } => {
                if k(a) == Some(true) || k(b) == Some(false) || a == b {
                    Instr::Fill { dst, ones: true }
                } else if k(b) == Some(true) || iv(b) == Some(a) {
                    Instr::Copy { dst, src: a }
                } else if k(a) == Some(false) || iv(a) == Some(b) {
                    Instr::Not { dst, src: b }
                } else if let Some(x) = iv(b) {
                    stats.fused += 1;
                    Instr::Or2 { dst, a, b: x } // !b == x
                } else {
                    break;
                }
            }
            Instr::OrN { dst, start, len } => {
                // The operands, alias-resolved, in the literal buffer.
                let range = start as usize..(start + len) as usize;
                lits.clear();
                lits.extend(args[range.clone()].iter().map(|&s| (r(s), false)));
                if lits.iter().any(|&(s, _)| {
                    k(s) == Some(true) || iv(s).is_some_and(|x| lits.contains(&(x, false)))
                }) {
                    Instr::Fill { dst, ones: true }
                } else {
                    // Compact the operands that are neither constant false
                    // nor repeated into the front of the buffer.
                    let mut kept = 0;
                    for i in 0..lits.len() {
                        let lit = lits[i];
                        if k(lit.0) != Some(false) && !lits[..kept].contains(&lit) {
                            lits[kept] = lit;
                            kept += 1;
                        }
                    }
                    lits.truncate(kept);
                    match lits[..] {
                        [] => Instr::Fill { dst, ones: false },
                        [(x, _)] => Instr::Copy { dst, src: x },
                        [(x, _), (y, _)] => Instr::Or2 { dst, a: x, b: y },
                        _ => {
                            if lits.iter().map(|&(s, _)| s).eq(args[range].iter().copied()) {
                                break;
                            }
                            let new_start = args.len() as u32;
                            args.extend(lits.iter().map(|&(s, _)| s));
                            Instr::OrN {
                                dst,
                                start: new_start,
                                len: kept as u32,
                            }
                        }
                    }
                }
            }
            Instr::Mux { dst, sel, a, b } => match k(sel) {
                Some(true) => Instr::Copy { dst, src: a },
                Some(false) => Instr::Copy { dst, src: b },
                None if a == b => Instr::Copy { dst, src: a },
                None => match (k(a), k(b)) {
                    (Some(true), Some(false)) => Instr::Copy { dst, src: sel },
                    (Some(false), Some(true)) => Instr::Not { dst, src: sel },
                    (Some(true), _) => Instr::Or2 { dst, a: sel, b },
                    (Some(false), _) => Instr::AndNot { dst, a: b, b: sel },
                    (_, Some(true)) => Instr::OrNot { dst, a, b: sel },
                    (_, Some(false)) => Instr::And2 { dst, a: sel, b: a },
                    (None, None) => {
                        if let Some(x) = iv(sel) {
                            stats.fused += 1;
                            Instr::Mux {
                                dst,
                                sel: x,
                                a: b,
                                b: a,
                            }
                        } else if sel == a {
                            Instr::Or2 { dst, a: sel, b } // s ? s : b == s | b
                        } else if sel == b {
                            Instr::And2 { dst, a: sel, b: a } // s ? a : s == s & a
                        } else {
                            break;
                        }
                    }
                },
            },
            Instr::LatchEn { dst, d, en } => match k(en) {
                Some(true) => Instr::Copy { dst, src: d },
                Some(false) => return None, // never enabled: holds forever
                None if d == dst => return None, // recaptures its own value
                None => break,
            },
        };
        if next == cur {
            break;
        }
        stats.folded += 1;
        cur = next;
    }
    Some(cur)
}

/// Folds `cur`, an `And2`, `AndNot`, `Nor2` or `AndN`, read as an AND of
/// literals — `(slot, inverted)` pairs, kept in the scratch buffer `lits` —
/// into the cheapest instruction writing its `dst`. Each operand is
/// alias-resolved, and an
/// operand written by a `Not` is read as that `Not`'s source with the
/// polarity flipped (the inverter is absorbed). A constant literal folds:
/// false zeroes the AND, true drops out; a repeated literal drops, and a
/// literal beside its complement zeroes the AND. The survivors pick the
/// form — `Fill`, `Copy`, `Not`, `And2`, `AndNot`, `Nor2`, or an `AndN`
/// whose inverted tail holds the inverted literals — and `cur` is returned
/// unchanged when it already is that `AndN`.
fn fold_and(
    cur: Instr,
    args: &mut Vec<u32>,
    facts: &Facts,
    lits: &mut Vec<(u32, bool)>,
    stats: &mut PeepholeStats,
) -> Instr {
    let dst = cur.dst();
    lits.clear();
    match cur {
        Instr::And2 { a, b, .. } => lits.extend([(a, false), (b, false)]),
        Instr::AndNot { a, b, .. } => lits.extend([(a, false), (b, true)]),
        Instr::Nor2 { a, b, .. } => lits.extend([(a, true), (b, true)]),
        Instr::AndN {
            start, len, inv, ..
        } => {
            let plain = (len - inv) as usize;
            let window = &args[start as usize..(start + len) as usize];
            lits.extend(window.iter().enumerate().map(|(i, &s)| (s, i >= plain)));
        }
        _ => {}
    }
    // Compact the surviving literals into the front of the buffer.
    let mut kept = 0;
    for i in 0..lits.len() {
        let (s, neg) = lits[i];
        let mut lit = (facts.resolve(s), neg);
        if let Some(x) = facts.inv[lit.0 as usize] {
            stats.fused += 1;
            lit = (x, !neg);
        }
        match facts.konst[lit.0 as usize] {
            Some(v) if v == lit.1 => return Instr::Fill { dst, ones: false },
            Some(_) => {}
            None if lits[..kept].contains(&(lit.0, !lit.1)) => {
                return Instr::Fill { dst, ones: false }
            }
            None if !lits[..kept].contains(&lit) => {
                lits[kept] = lit;
                kept += 1;
            }
            None => {}
        }
    }
    lits.truncate(kept);
    // Plain literals first, then the inverted tail, each in operand order.
    lits.sort_by_key(|&(_, neg)| neg);
    match lits[..] {
        [] => Instr::Fill { dst, ones: true },
        [(a, false)] => Instr::Copy { dst, src: a },
        [(a, true)] => Instr::Not { dst, src: a },
        [(a, false), (b, false)] => Instr::And2 { dst, a, b },
        [(a, false), (b, true)] => Instr::AndNot { dst, a, b },
        [(a, true), (b, true)] => Instr::Nor2 { dst, a, b },
        _ => {
            let inv = lits.iter().filter(|&&(_, neg)| neg).count() as u32;
            let window = || lits.iter().map(|&(s, _)| s);
            if let Instr::AndN {
                start,
                len,
                inv: cur_inv,
                ..
            } = cur
            {
                let ops = &args[start as usize..(start + len) as usize];
                if cur_inv == inv && ops.iter().copied().eq(window()) {
                    return cur;
                }
            }
            let start = args.len() as u32;
            args.extend(window());
            Instr::AndN {
                dst,
                start,
                len: lits.len() as u32,
                inv,
            }
        }
    }
}

/// Whether `net` is (re)computed during `phase`, i.e. gets an instruction.
fn active_in_phase(netlist: &Netlist, net: NetId, phase: LatchPhase) -> bool {
    match netlist.gate(net) {
        Gate::Input | Gate::Const(_) | Gate::Dff { .. } => false,
        Gate::Latch { phase: lp, .. } => *lp == phase,
        _ => true,
    }
}

/// Emits the instruction tape for one phase: lowers the phase-active gates
/// in the dependency order of [`check::topo_order_in_phase`] (acyclic by
/// precondition — the same edge definition the structural check and the
/// scalar simulator use), so every instruction's operands are settled
/// before it executes.
fn emit_phase(netlist: &Netlist, phase: LatchPhase, args: &mut Vec<u32>) -> Vec<Instr> {
    check::topo_order_in_phase(netlist, phase)
        .into_iter()
        .filter(|&v| active_in_phase(netlist, v, phase))
        .filter_map(|v| lower_gate(netlist, v, args))
        .collect()
}

/// Lowers one gate to an instruction (`None` for gates with no evaluation
/// step in any phase — unreachable here, kept total for clarity).
fn lower_gate(netlist: &Netlist, net: NetId, args: &mut Vec<u32>) -> Option<Instr> {
    let dst = net.0;
    Some(match netlist.gate(net) {
        Gate::Input | Gate::Const(_) | Gate::Dff { .. } => return None,
        Gate::Buf(a) => Instr::Copy { dst, src: a.0 },
        Gate::Wire { src } => Instr::Copy {
            dst,
            src: src.expect("checked by check_bound").0,
        },
        Gate::Not(a) => Instr::Not { dst, src: a.0 },
        Gate::And(v) => match v.as_slice() {
            [] => Instr::Fill { dst, ones: true },
            [a] => Instr::Copy { dst, src: a.0 },
            [a, b] => Instr::And2 {
                dst,
                a: a.0,
                b: b.0,
            },
            many => {
                let start = args.len() as u32;
                args.extend(many.iter().map(|a| a.0));
                Instr::AndN {
                    dst,
                    start,
                    len: many.len() as u32,
                    inv: 0,
                }
            }
        },
        Gate::Or(v) => match v.as_slice() {
            [] => Instr::Fill { dst, ones: false },
            [a] => Instr::Copy { dst, src: a.0 },
            [a, b] => Instr::Or2 {
                dst,
                a: a.0,
                b: b.0,
            },
            many => {
                let start = args.len() as u32;
                args.extend(many.iter().map(|a| a.0));
                Instr::OrN {
                    dst,
                    start,
                    len: many.len() as u32,
                }
            }
        },
        Gate::Xor(a, b) => Instr::Xor2 {
            dst,
            a: a.0,
            b: b.0,
        },
        Gate::Mux { sel, a, b } => Instr::Mux {
            dst,
            sel: sel.0,
            a: a.0,
            b: b.0,
        },
        Gate::Latch { d, en, .. } => {
            let d = d.expect("checked by check_bound").0;
            match en {
                Some(en) => Instr::LatchEn { dst, d, en: en.0 },
                None => Instr::Copy { dst, src: d },
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Netlist;

    #[test]
    fn compile_rejects_unbound_and_cyclic() {
        let mut n = Netlist::new("bad");
        let q = n.dff(false);
        assert!(matches!(
            Program::compile(&n).unwrap_err(),
            NetlistError::UnboundState { .. }
        ));
        let d = n.not(q);
        n.bind_dff(q, d).unwrap();
        Program::compile(&n).unwrap();

        let mut c = Netlist::new("cyc");
        let l = c.latch(LatchPhase::High, false);
        let inv = c.not(l);
        c.bind_latch(l, inv).unwrap();
        assert!(matches!(
            Program::compile(&c).unwrap_err(),
            NetlistError::CombinationalCycle(_)
        ));
    }

    #[test]
    fn operands_precede_uses_in_both_tapes() {
        let mut n = Netlist::new("order");
        let a = n.input("a");
        let b = n.input("b");
        // Deliberately build consumers before producers are referenced in
        // index order via a late-bound wire.
        let w = n.wire();
        let x = n.and2(w, b);
        let y = n.or2(x, a);
        n.bind_wire(w, y).unwrap();
        // y -> x -> w is a combinational cycle; break it with a fresh net.
        let mut n = Netlist::new("order2");
        let a = n.input("a");
        let b = n.input("b");
        let w = n.wire();
        let x = n.and2(w, b);
        let _y = n.or2(x, a);
        let src = n.xor(a, b);
        n.bind_wire(w, src).unwrap();
        let p = Program::compile(&n).unwrap();
        for tape in [p.high(), p.low()] {
            let mut written = vec![false; p.num_slots()];
            for i in tape {
                let (dst, operands): (u32, Vec<u32>) = match *i {
                    Instr::Fill { dst, .. } => (dst, vec![]),
                    Instr::Copy { dst, src } | Instr::Not { dst, src } => (dst, vec![src]),
                    Instr::And2 { dst, a, b }
                    | Instr::Or2 { dst, a, b }
                    | Instr::Xor2 { dst, a, b }
                    | Instr::AndNot { dst, a, b }
                    | Instr::OrNot { dst, a, b }
                    | Instr::Nor2 { dst, a, b } => (dst, vec![a, b]),
                    Instr::AndN {
                        dst, start, len, ..
                    }
                    | Instr::OrN { dst, start, len } => (
                        dst,
                        p.args()[start as usize..(start + len) as usize].to_vec(),
                    ),
                    Instr::Mux { dst, sel, a, b } => (dst, vec![sel, a, b]),
                    Instr::LatchEn { dst, d, en } => (dst, vec![d, en]),
                };
                for op in operands {
                    let is_source = matches!(
                        n.gate(NetId(op)),
                        Gate::Input | Gate::Const(_) | Gate::Dff { .. } | Gate::Latch { .. }
                    );
                    assert!(
                        written[op as usize] || is_source,
                        "instruction for slot {dst} reads unsettled slot {op}"
                    );
                }
                written[dst as usize] = true;
            }
        }
    }

    #[test]
    fn nary_gates_use_operand_pool() {
        let mut n = Netlist::new("nary");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let x = n.and([a, b, c]);
        let _ = n.or([a, b, c, x]);
        let p = Program::compile(&n).unwrap();
        // Both phase tapes re-evaluate the combinational gates, so the
        // operand pool holds one run per phase: (3 + 4) * 2.
        assert_eq!(p.args().len(), 14);
        assert!(p
            .high()
            .iter()
            .any(|i| matches!(i, Instr::AndN { len: 3, .. })));
        assert!(p
            .high()
            .iter()
            .any(|i| matches!(i, Instr::OrN { len: 4, .. })));
    }

    #[test]
    fn latch_phases_split_across_tapes() {
        let mut n = Netlist::new("ms");
        let a = n.input("a");
        let h = n.latch(LatchPhase::High, false);
        n.bind_latch(h, a).unwrap();
        let l = n.latch(LatchPhase::Low, false);
        n.bind_latch(l, h).unwrap();
        let p = Program::compile(&n).unwrap();
        assert!(p
            .high()
            .iter()
            .any(|i| matches!(i, Instr::Copy { dst, .. } if *dst == h.0)));
        assert!(!p
            .high()
            .iter()
            .any(|i| matches!(i, Instr::Copy { dst, .. } if *dst == l.0)));
        assert!(p
            .low()
            .iter()
            .any(|i| matches!(i, Instr::Copy { dst, .. } if *dst == l.0)));
    }

    /// Runs `optimized` and the unoptimized compile of `n` cycle by cycle
    /// on the same input pattern and compares the given nets after every
    /// cycle.
    fn cosim_programs(n: &Netlist, optimized: Program, probes: &[NetId], cycles: usize) {
        let raw = Program::compile(n).unwrap();
        cosim_pair(n, raw, optimized, probes, &[], cycles);
    }

    /// Runs both programs, tapes over the nets of `n`, cycle by cycle on
    /// the same input pattern, each input of `fixed` held at its value,
    /// and compares the given nets after every cycle (via a wide backend —
    /// the only Program executor in this crate).
    fn cosim_pair(
        n: &Netlist,
        reference: Program,
        optimized: Program,
        probes: &[NetId],
        fixed: &[(u32, bool)],
        cycles: usize,
    ) {
        use crate::wide::WideSim;
        let mut reference = WideSim::<1>::from_program(reference);
        let mut opt = WideSim::<1>::from_program(optimized);
        let inputs = n.inputs().to_vec();
        for t in 0..cycles {
            let drive: Vec<(NetId, u64)> = inputs
                .iter()
                .enumerate()
                .map(|(i, &inp)| match fixed.iter().find(|&&(s, _)| s == inp.0) {
                    Some(&(_, v)) => (inp, 0u64.wrapping_sub(u64::from(v))),
                    None => {
                        let x = (t as u64 + 3).wrapping_mul(i as u64 + 7);
                        (inp, x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    }
                })
                .collect();
            reference.cycle(&drive).unwrap();
            opt.cycle(&drive).unwrap();
            for &p in probes {
                assert_eq!(
                    reference.value(p),
                    opt.value(p),
                    "cycle {t} net {}",
                    n.net_name(p)
                );
            }
        }
    }

    /// Every instruction of both tapes of `p`.
    fn instrs(p: &Program) -> impl Iterator<Item = &Instr> {
        p.high().iter().chain(p.low())
    }

    /// A fusion case of [`peephole_fuses_and_preserves_outputs`]: the
    /// netlist, the program the peephole pass starts from, the nets to
    /// probe, and a check of the optimized program.
    type FusionCase = (Netlist, Program, Vec<NetId>, fn(&Program, &PeepholeStats));

    /// The x & !y / x | !y kill-gating shapes of elastic controllers fuse
    /// into `AndNot`/`OrNot`.
    fn fusion_and_not_or_not() -> FusionCase {
        let mut n = Netlist::new("fuse");
        let a = n.input("a");
        let b = n.input("b");
        let q = n.dff(false);
        let kill = n.and_not(a, b); // Not + And2 -> AndNot
        let nb = n.not(b);
        let keep = n.or2(q, nb); // Not + Or2 -> OrNot (nb also feeds kill path)
        let d = n.xor(kill, keep);
        n.bind_dff(q, d).unwrap();
        let out = n.or2(kill, keep);
        n.mark_output(out).unwrap();
        let p = Program::compile(&n).unwrap();
        let check: fn(&Program, &PeepholeStats) = |p, stats| {
            assert!(stats.fused >= 2, "{stats:?}");
            assert!(stats.instrs_after < stats.instrs_before, "{stats:?}");
            assert!(
                p.low()
                    .iter()
                    .any(|i| matches!(i, Instr::AndNot { .. } | Instr::OrNot { .. })),
                "fused ops survive into the tape: {:?}",
                p.low()
            );
        };
        (n, p, vec![out, q], check)
    }

    /// `and([a, !b, c])` becomes one `AndN` whose one-operand inverted
    /// tail reads `b`, and the `Not` is gone.
    fn fusion_and_tail() -> FusionCase {
        let mut n = Netlist::new("tail");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let nb = n.not(b);
        let x = n.and([a, nb, c]);
        let q = n.dff_bound(x, false);
        n.mark_output(x).unwrap();
        let p = Program::compile(&n).unwrap();
        let check: fn(&Program, &PeepholeStats) = |p, stats| {
            assert!(stats.fused >= 1, "{stats:?}");
            assert!(
                !instrs(p).any(|i| matches!(i, Instr::Not { .. })),
                "inverter absorbed: {:?}",
                p.low()
            );
            let tails: Vec<&[u32]> = instrs(p)
                .filter_map(|&i| match i {
                    Instr::AndN {
                        start,
                        len: 3,
                        inv: 1,
                        ..
                    } => Some(&p.args()[start as usize..start as usize + 3]),
                    _ => None,
                })
                .collect();
            assert_eq!(
                tails.len(),
                1,
                "one AndN with a one-operand tail: {:?}",
                p.low()
            );
            assert_eq!(tails[0][2], 1, "the tail reads b (slot 1): {:?}", tails[0]);
        };
        (n, p, vec![x, q], check)
    }

    /// `and_not(!a, b)` becomes `Nor2(a, b)`.
    fn fusion_nor2() -> FusionCase {
        let mut n = Netlist::new("nor");
        let a = n.input("a");
        let b = n.input("b");
        let na = n.not(a);
        let y = n.and_not(na, b);
        n.mark_output(y).unwrap();
        let p = Program::compile(&n).unwrap();
        let check: fn(&Program, &PeepholeStats) = |p, stats| {
            assert!(stats.fused >= 2, "{stats:?}");
            assert!(p.high().is_empty(), "{:?}", p.high());
            assert_eq!(p.low(), &[Instr::Nor2 { dst: 4, a: 0, b: 1 }]);
        };
        (n, p, vec![y], check)
    }

    /// A `Not` marked as an output survives, while its reader still
    /// absorbs it.
    fn fusion_observed_not() -> FusionCase {
        let mut n = Netlist::new("seen");
        let a = n.input("a");
        let b = n.input("b");
        let na = n.not(a);
        let y = n.and2(na, b);
        n.mark_output(na).unwrap();
        n.mark_output(y).unwrap();
        let p = Program::compile(&n).unwrap();
        let check: fn(&Program, &PeepholeStats) = |p, _| {
            assert!(
                p.low().contains(&Instr::Not { dst: 2, src: 0 }),
                "observed inverter kept: {:?}",
                p.low()
            );
            assert!(
                p.low().contains(&Instr::AndNot { dst: 3, a: 1, b: 0 }),
                "reader absorbed it: {:?}",
                p.low()
            );
        };
        (n, p, vec![na, y], check)
    }

    /// Constants in an inverted tail fold as complements: a constant-false
    /// tail operand drops out, a constant-true one zeroes the `AndN`. The
    /// lowering never emits a tail, so the start program's `AndN`s are
    /// rewritten to equivalent tailed ones over the constants.
    fn fusion_constant_tail() -> FusionCase {
        let mut n = Netlist::new("ktail");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let zero = n.constant(false);
        let one = n.constant(true);
        let nz = n.not(zero);
        let no = n.not(one);
        let keep = n.and([a, b, nz]); // a & b & !0 == a & b
        let kill = n.and([a, c, no]); // a & c & !1 == 0
        n.mark_output(keep).unwrap();
        n.mark_output(kill).unwrap();
        let mut p = Program::compile(&n).unwrap();
        for instr in p.high.iter_mut().chain(p.low.iter_mut()) {
            let tailed = match instr.dst() {
                d if d == keep.0 => [a.0, b.0, zero.0],
                d if d == kill.0 => [a.0, c.0, one.0],
                _ => continue,
            };
            let start = p.args.len() as u32;
            p.args.extend(tailed);
            *instr = Instr::AndN {
                dst: instr.dst(),
                start,
                len: 3,
                inv: 1,
            };
        }
        let check: fn(&Program, &PeepholeStats) = |p, _| {
            assert!(
                p.low().contains(&Instr::And2 { dst: 7, a: 0, b: 1 }),
                "constant-false tail operand dropped: {:?}",
                p.low()
            );
            assert!(
                p.low().contains(&Instr::Fill {
                    dst: 8,
                    ones: false
                }),
                "constant-true tail operand zeroed the AND: {:?}",
                p.low()
            );
        };
        (n, p, vec![keep, kill], check)
    }

    /// Rewrites the instruction writing `dst` in both tapes of `p` to an
    /// `AndN` over `ops` with an inverted tail of `inv` operands.
    fn rewrite_as_and_n(p: &mut Program, dst: NetId, ops: &[u32], inv: u32) {
        for instr in p.high.iter_mut().chain(p.low.iter_mut()) {
            if instr.dst() == dst.0 {
                let start = p.args.len() as u32;
                p.args.extend(ops);
                *instr = Instr::AndN {
                    dst: dst.0,
                    start,
                    len: ops.len() as u32,
                    inv,
                };
            }
        }
    }

    /// Commuted operands merge: `and2(b, a)` becomes a copy of
    /// `and2(a, b)`, which makes the two readers `xor(x, c)` and
    /// `xor(c, y)` equal in turn. The second reader is observed, so its
    /// value stays, as a `Copy` of the first.
    fn numbering_commuted() -> FusionCase {
        let mut n = Netlist::new("commuted");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let x = n.and2(a, b);
        let y = n.and2(b, a);
        let first = n.xor(x, c);
        let second = n.xor(c, y);
        n.mark_output(first).unwrap();
        n.mark_output(second).unwrap();
        let p = Program::compile(&n).unwrap();
        let check: fn(&Program, &PeepholeStats) = |p, stats| {
            assert_eq!(stats.merged, 2, "{stats:?}");
            let [first, second] = [p.outputs()[0].0, p.outputs()[1].0];
            assert!(p.high().is_empty(), "{:?}", p.high());
            assert_eq!(p.low().len(), 3, "{:?}", p.low());
            assert!(p.low().contains(&Instr::And2 { dst: 3, a: 0, b: 1 }));
            assert!(p.low().contains(&Instr::Xor2 {
                dst: first,
                a: 3,
                b: 2
            }));
            assert!(p.low().contains(&Instr::Copy {
                dst: second,
                src: first
            }));
        };
        (n, p, vec![first, second], check)
    }

    /// An `AndNot` and the equal `AndN` with a one-operand tail merge.
    fn numbering_and_not_tail() -> FusionCase {
        let mut n = Netlist::new("tail2");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and_not(a, b);
        let y = n.and2(a, b); // rewritten below to AndN([a | b])
        n.mark_output(x).unwrap();
        n.mark_output(y).unwrap();
        let mut p = Program::compile(&n).unwrap();
        rewrite_as_and_n(&mut p, y, &[a.0, b.0], 1);
        let check: fn(&Program, &PeepholeStats) = |p, stats| {
            assert!(stats.merged >= 1, "{stats:?}");
            let [x, y] = [p.outputs()[0].0, p.outputs()[1].0];
            assert_eq!(
                p.low(),
                &[
                    Instr::AndNot { dst: x, a: 0, b: 1 },
                    Instr::Copy { dst: y, src: x }
                ]
            );
        };
        (n, p, vec![x, y], check)
    }

    /// An operand written later in the tape does not merge: with the
    /// low-phase latch `l`'s instruction moved after the first of two
    /// equal readers `and2(b, l)`, the first reads the latch's previous
    /// value and the second its new one.
    fn numbering_read_before_write() -> FusionCase {
        let mut n = Netlist::new("wrap");
        let a = n.input("a");
        let b = n.input("b");
        let en = n.input("en");
        let l = n.latch_en(LatchPhase::Low, en, false);
        n.bind_latch(l, a).unwrap();
        let x = n.and2(b, l);
        let y = n.and2(b, l);
        n.mark_output(x).unwrap();
        n.mark_output(y).unwrap();
        let mut p = Program::compile(&n).unwrap();
        let at = |p: &Program, dst: NetId| p.low.iter().position(|i| i.dst() == dst.0).unwrap();
        let reader = p.low.remove(at(&p, x));
        let latch = at(&p, l);
        p.low.insert(latch, reader);
        assert!(at(&p, x) < at(&p, l) && at(&p, l) < at(&p, y));
        let check: fn(&Program, &PeepholeStats) = |p, _| {
            let [x, y] = [p.outputs()[0].0, p.outputs()[1].0];
            for dst in [x, y] {
                assert!(
                    p.low().contains(&Instr::And2 { dst, a: 1, b: 3 }),
                    "both readers computed: {:?}",
                    p.low()
                );
            }
        };
        (n, p, vec![x, y, l], check)
    }

    /// Two enable latches with the same data and enable never merge: each
    /// holds its own value (here, from different power-up values).
    fn numbering_latches() -> FusionCase {
        let mut n = Netlist::new("latches");
        let a = n.input("a");
        let en = n.input("en");
        let l1 = n.latch_en(LatchPhase::High, en, false);
        let l2 = n.latch_en(LatchPhase::High, en, true);
        n.bind_latch(l1, a).unwrap();
        n.bind_latch(l2, a).unwrap();
        n.mark_output(l1).unwrap();
        n.mark_output(l2).unwrap();
        let p = Program::compile(&n).unwrap();
        let check: fn(&Program, &PeepholeStats) = |p, stats| {
            assert_eq!(stats.merged, 0, "{stats:?}");
            let latches = instrs(p)
                .filter(|i| matches!(i, Instr::LatchEn { .. }))
                .count();
            assert_eq!(latches, 2, "{:?}", p.high());
        };
        (n, p, vec![l1, l2], check)
    }

    #[test]
    fn peephole_fuses_and_preserves_outputs() {
        // Each case's optimized program passes its check, a second
        // peephole pass over it changes nothing, and its observed nets stay
        // cycle-exact against the program the pass started from.
        for (n, mut p, probes, check) in [
            fusion_and_not_or_not(),
            fusion_and_tail(),
            fusion_nor2(),
            fusion_observed_not(),
            fusion_constant_tail(),
            numbering_commuted(),
            numbering_and_not_tail(),
            numbering_read_before_write(),
            numbering_latches(),
        ] {
            let name = n.name().to_string();
            let start = p.clone();
            let stats = p.peephole();
            check(&p, &stats);
            let mut again = p.clone();
            let second = again.peephole();
            assert_eq!(
                (again.high(), again.low(), again.args()),
                (p.high(), p.low(), p.args()),
                "{name}: a second pass changed the program"
            );
            assert_eq!(
                (second.fused, second.folded, second.merged),
                (0, 0, 0),
                "{name}: {second:?}"
            );
            cosim_pair(&n, start, p, &probes, &[], 24);
        }
    }

    #[test]
    fn canonical_forms_equate_commuted_and_equal_gates() {
        let args = [1, 0, 2, 0, 1, 2];
        let form = |i: Instr| {
            let mut f = Vec::new();
            canonical_form(i, &args, &mut f).then_some(f)
        };
        let eq = |i: Instr, j: Instr| {
            assert_eq!(form(i), form(j), "{i:?} vs {j:?}");
        };
        eq(
            Instr::And2 { dst: 9, a: 0, b: 1 },
            Instr::And2 { dst: 8, a: 1, b: 0 },
        );
        eq(
            Instr::AndNot { dst: 9, a: 1, b: 0 },
            Instr::AndN {
                dst: 8,
                start: 0,
                len: 2,
                inv: 1,
            },
        );
        eq(
            Instr::Or2 { dst: 9, a: 2, b: 0 },
            Instr::OrN {
                dst: 8,
                start: 2,
                len: 2,
            },
        );
        eq(
            Instr::Xor2 { dst: 9, a: 0, b: 1 },
            Instr::Xor2 { dst: 8, a: 1, b: 0 },
        );
        // An inverted literal, a select and a hold path are not commuted
        // away.
        assert_ne!(
            form(Instr::AndNot { dst: 9, a: 1, b: 0 }),
            form(Instr::AndNot { dst: 9, a: 0, b: 1 })
        );
        assert_ne!(
            form(Instr::Mux {
                dst: 9,
                sel: 0,
                a: 1,
                b: 2
            }),
            form(Instr::Mux {
                dst: 9,
                sel: 1,
                a: 0,
                b: 2
            })
        );
        assert_eq!(
            form(Instr::LatchEn {
                dst: 9,
                d: 0,
                en: 1
            }),
            None
        );
        assert_eq!(form(Instr::Copy { dst: 9, src: 0 }), None);
    }

    #[test]
    fn fold_inputs_folds_fixed_inputs_and_rejects_other_slots() {
        let mut n = Netlist::new("fold");
        let a = n.input("a");
        let b = n.input("b");
        let q = n.dff(false);
        let x = n.and2(a, b);
        let d = n.xor(x, q);
        n.bind_dff(q, d).unwrap();
        n.mark_output(x).unwrap();
        let (p, _) = Program::compile_optimized(&n).unwrap();
        // b held at 1: x is a copy of a. b held at 0: x is constant.
        let high = p
            .fold_inputs(&[(b.0, true)], reach::SEARCH_BUDGET)
            .unwrap()
            .0;
        assert!(high.low().contains(&Instr::Copy { dst: x.0, src: a.0 }));
        let low = p
            .fold_inputs(&[(b.0, false)], reach::SEARCH_BUDGET)
            .unwrap()
            .0;
        assert!(low.low().contains(&Instr::Fill {
            dst: x.0,
            ones: false
        }));
        assert_eq!(high.inputs(), p.inputs(), "every input stays an input");
        for bad in [x.0, q.0, 99] {
            assert!(matches!(
                p.fold_inputs(&[(a.0, true), (bad, false)], reach::SEARCH_BUDGET),
                Err(NetlistError::UnknownNet(NetId(s))) if s == bad
            ));
        }
    }

    /// A random netlist of every gate kind, latches with and without an
    /// enable included, built in creation order (flip-flops bound last),
    /// with random outputs.
    fn random_netlist(rng: &mut rand::rngs::StdRng) -> Netlist {
        use rand::Rng;
        let mut n = Netlist::new("random");
        let mut nets: Vec<NetId> = (0..rng.gen_range(1..4))
            .map(|i| n.input(format!("in{i}")))
            .collect();
        let ffs: Vec<NetId> = (0..rng.gen_range(0..5))
            .map(|_| n.dff(rng.gen_bool(0.5)))
            .collect();
        nets.extend(&ffs);
        for _ in 0..rng.gen_range(4..30) {
            let mut pick = || nets[rng.gen_range(0..nets.len())];
            let (a, b, c) = (pick(), pick(), pick());
            let phase = if rng.gen_bool(0.5) {
                LatchPhase::High
            } else {
                LatchPhase::Low
            };
            let id = match rng.gen_range(0..10) {
                0 => n.not(a),
                1 => n.and2(a, b),
                2 => n.or2(a, b),
                3 => n.xor(a, b),
                4 => n.mux(a, b, c),
                5 => n.and([a, b, c]),
                6 => n.or([a, b, c]),
                7 => n.constant(rng.gen_bool(0.5)),
                8 => {
                    let l = n.latch(phase, rng.gen_bool(0.5));
                    n.bind_latch(l, a).unwrap();
                    l
                }
                _ => {
                    let l = n.latch_en(phase, b, rng.gen_bool(0.5));
                    n.bind_latch(l, a).unwrap();
                    l
                }
            };
            nets.push(id);
        }
        for &q in &ffs {
            let d = nets[rng.gen_range(0..nets.len())];
            n.bind_dff(q, d).unwrap();
        }
        for _ in 0..rng.gen_range(1..4) {
            let o = nets[rng.gen_range(0..nets.len())];
            n.mark_output(o).unwrap();
        }
        n
    }

    /// Runs one cycle of `p`'s tapes, the high tape then the low tape, on
    /// the slot values `slots` (one lane).
    fn run_tapes(p: &Program, slots: &mut [bool]) {
        for &i in p.high().iter().chain(p.low()) {
            let v = |s: u32| slots[s as usize];
            let window = |start: u32, len: u32| &p.args()[start as usize..(start + len) as usize];
            slots[i.dst() as usize] = match i {
                Instr::Fill { ones, .. } => ones,
                Instr::Copy { src, .. } => v(src),
                Instr::Not { src, .. } => !v(src),
                Instr::And2 { a, b, .. } => v(a) & v(b),
                Instr::Or2 { a, b, .. } => v(a) | v(b),
                Instr::Xor2 { a, b, .. } => v(a) ^ v(b),
                Instr::AndNot { a, b, .. } => v(a) & !v(b),
                Instr::OrNot { a, b, .. } => v(a) | !v(b),
                Instr::Nor2 { a, b, .. } => !(v(a) | v(b)),
                Instr::AndN {
                    start, len, inv, ..
                } => {
                    let plain = (len - inv) as usize;
                    let mut ops = window(start, len).iter().enumerate();
                    ops.all(|(k, &s)| v(s) != (k >= plain))
                }
                Instr::OrN { start, len, .. } => window(start, len).iter().any(|&s| v(s)),
                Instr::Mux { sel, a, b, .. } => v(if v(sel) { a } else { b }),
                Instr::LatchEn { dst, d, en } => v(if v(en) { d } else { dst }),
            };
        }
    }

    #[test]
    fn end_literals_hold_from_every_start_state() {
        // On random peephole-optimized tapes (every instruction kind), with
        // random inputs and flip-flop outputs held: a cycle run from any
        // values of the other slots (stuck slots at their power-up
        // values) ends each slot with a constant literal at that constant,
        // and the slots that share a value end equal, or complementary
        // where their literals are.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(27);
        for case in 0..400 {
            let n = random_netlist(&mut rng);
            let (p, _) = Program::compile_optimized(&n).unwrap();
            let candidates = p
                .inputs()
                .iter()
                .map(|i| i.0)
                .chain(p.ffs().iter().map(|f| f.q));
            let held: Vec<(u32, bool)> = candidates
                .filter_map(|s| match rng.gen_range(0..4) {
                    0 | 1 => None,
                    v => Some((s, v == 3)),
                })
                .collect();
            let end = p.end_literals(&held);
            let stuck = p.stuck_slots(&held);
            for _ in 0..8 {
                let mut slots: Vec<bool> = stuck
                    .iter()
                    .map(|k| k.unwrap_or_else(|| rng.gen_bool(0.5)))
                    .collect();
                run_tapes(&p, &mut slots);
                // The value each literal's value takes, from the first
                // slot that carries it (value 0 is the constant 1).
                let mut seen = vec![None; (end.iter().max().unwrap() >> 1) as usize + 1];
                seen[0] = Some(true);
                for (s, &lit) in end.iter().enumerate() {
                    let v = slots[s] ^ (lit & 1 == 1);
                    let first = *seen[(lit >> 1) as usize].get_or_insert(v);
                    assert_eq!(first, v, "case {case}: slot {s}, literal {lit}, {p:?}");
                }
            }
        }
    }

    /// Folds the peephole-optimized compile of `n` to `fixed` under the
    /// search budget `budget` and checks the folded program cycle-exact
    /// against the raw compile on every output and state element of `n`,
    /// each fixed input at its value.
    fn fold_checked(n: &Netlist, fixed: &[(u32, bool)], budget: usize) -> Program {
        let (p, _) = Program::compile_optimized(n).unwrap();
        let (folded, _) = p.fold_inputs(fixed, budget).unwrap();
        let mut probes = n.outputs().to_vec();
        probes.extend(n.state_elements());
        let raw = Program::compile(n).unwrap();
        cosim_pair(n, raw, folded.clone(), &probes, fixed, 24);
        folded
    }

    #[test]
    fn fold_pins_a_flip_flop_and_drops_its_cone() {
        // `en` held at 0 gates the data of `q` to 0, its power-up value:
        // `q` leaves the commit list, and the gates computing its data,
        // which nothing else reads, leave the tapes. Held at 1, `en`
        // passes `q ^ b` through, and `q` stays.
        let mut n = Netlist::new("gated");
        let en = n.input("en");
        let b = n.input("b");
        let q = n.dff(false);
        let x = n.xor(q, b);
        let d = n.and2(en, x);
        n.bind_dff(q, d).unwrap();
        let out = n.or2(q, b);
        n.mark_output(out).unwrap();
        let (p, _) = Program::compile_optimized(&n).unwrap();
        assert!(instrs(&p).any(|i| i.dst() == x.0), "{:?}", p.low());
        let folded = fold_checked(&n, &[(en.0, false)], reach::SEARCH_BUDGET);
        assert!(folded.ffs().is_empty());
        assert!(
            !instrs(&folded).any(|i| [x.0, d.0].contains(&i.dst())),
            "{:?}",
            folded.low()
        );
        // `q | b` with `q` stuck at 0 is a copy of `b`.
        assert!(folded.low().contains(&Instr::Copy {
            dst: out.0,
            src: b.0
        }));
        assert_eq!(folded.state_nets(), &[q], "the pinned slot stays state");
        assert_eq!(
            fold_checked(&n, &[(en.0, true)], reach::SEARCH_BUDGET).ffs(),
            p.ffs()
        );
    }

    #[test]
    fn fold_pins_flip_flops_that_hold_each_other_only_optimistically() {
        // `q1` and `q2` capture each other ANDed with a free input, so
        // neither data input is constant unless the other flip-flop is.
        // Assuming both hold their power-up 0 makes both data inputs 0,
        // which proves the assumption: the greatest fixpoint folds the
        // pair with no fixed input at all. With `q2` powering up at 1 the
        // assumption fails in the first round (`d2` is `q1 & b`, 0, not
        // 1; `d1` is `a`), and both stay.
        for init2 in [false, true] {
            let mut n = Netlist::new("pair");
            let a = n.input("a");
            let b = n.input("b");
            let q1 = n.dff(false);
            let q2 = n.dff(init2);
            let d1 = n.and2(q2, a);
            let d2 = n.and2(q1, b);
            n.bind_dff(q1, d1).unwrap();
            n.bind_dff(q2, d2).unwrap();
            let out = n.xor(q1, q2);
            n.mark_output(out).unwrap();
            let folded = fold_checked(&n, &[], reach::SEARCH_BUDGET);
            let kept = if init2 { 2 } else { 0 };
            assert_eq!(folded.ffs().len(), kept, "q2 powers up at {init2}");
        }
    }

    #[test]
    fn fold_pins_a_flip_flop_only_at_its_power_up_value() {
        // `clr` held at 0 makes the data of `q`, `!clr | (q & b)`,
        // constant 1. Powering up at 1, `q` folds, and `q & b` becomes a
        // copy of `b`. Powering up at 0, `q` reads 0 in cycle 0 and 1
        // after: it stays, with its data folded to a fill.
        for init in [true, false] {
            let mut n = Netlist::new("preset");
            let clr = n.input("clr");
            let b = n.input("b");
            let q = n.dff(init);
            let keep = n.and2(q, b);
            let nclr = n.not(clr);
            let d = n.or2(nclr, keep);
            n.bind_dff(q, d).unwrap();
            n.mark_output(keep).unwrap();
            let folded = fold_checked(&n, &[(clr.0, false)], reach::SEARCH_BUDGET);
            if init {
                assert!(folded.ffs().is_empty());
                assert!(folded.init()[q.index()]);
                assert!(folded.low().contains(&Instr::Copy {
                    dst: keep.0,
                    src: b.0
                }));
            } else {
                assert_eq!(folded.ffs(), &[FfCommit { q: q.0, d: d.0 }]);
                assert!(folded.low().contains(&Instr::Fill {
                    dst: d.0,
                    ones: true
                }));
            }
        }
    }

    #[test]
    fn fold_compares_literals_not_only_constants() {
        // `(q | x) & !(q | x | en)` with `en` held at 0 and `q` assumed at
        // its power-up 0: both sides carry the free input `x`, and
        // `x & !x` is 0, though no constant reaches the data. With `en`
        // free the sides differ. That function is 0 for every input, so
        // the state search pins `q` either way: the scan is checked on
        // its literals, and the fold on a data input that ORs in
        // `en & x` (`moves`), which `en` held at 0 gates off.
        let build = |moves: bool| {
            let mut n = Netlist::new("literals");
            let en = n.input("en");
            let x = n.input("x");
            let q = n.dff(false);
            let a = n.or2(q, x);
            let b = n.or([q, x, en]);
            let nb = n.not(b);
            let mut d = n.and2(a, nb);
            if moves {
                let ex = n.and2(en, x);
                d = n.or2(d, ex);
            }
            n.bind_dff(q, d).unwrap();
            let out = n.xor(q, x);
            n.mark_output(out).unwrap();
            (n, en, q, d)
        };
        let (n, en, q, d) = build(false);
        let p = Program::compile(&n).unwrap();
        assert_eq!(
            p.end_literals(&[(en.0, false), (q.0, false)])[d.index()],
            ZERO
        );
        assert!(p.end_literals(&[(q.0, false)])[d.index()] > ZERO);
        let (n, en, _, _) = build(true);
        assert!(fold_checked(&n, &[(en.0, false)], reach::SEARCH_BUDGET)
            .ffs()
            .is_empty());
        assert_eq!(fold_checked(&n, &[], reach::SEARCH_BUDGET).ffs().len(), 1);
    }

    /// A mod-3 counter `c1 c0` (00, 01, 10, then 00 again, stepping when
    /// `inc` is 1) and a flip-flop `z` set from the counter's unreachable
    /// state 11: `z` powers up at 0 and never leaves it. Returns the
    /// netlist and `z`.
    fn mod3_counter() -> (Netlist, NetId) {
        let mut n = Netlist::new("mod3");
        let inc = n.input("inc");
        let c0 = n.dff(false);
        let c1 = n.dff(false);
        let z = n.dff(false);
        let idle = n.or2(c0, c1);
        let step0 = n.not(idle);
        let d0 = n.mux(inc, step0, c0);
        let d1 = n.mux(inc, c0, c1);
        n.bind_dff(c0, d0).unwrap();
        n.bind_dff(c1, d1).unwrap();
        let both = n.and2(c0, c1);
        let dz = n.or2(z, both);
        n.bind_dff(z, dz).unwrap();
        let out = n.xor(z, c1);
        n.mark_output(out).unwrap();
        (n, z)
    }

    #[test]
    fn fold_pins_a_flip_flop_only_the_state_search_proves() {
        // The literal scan pins nothing: assuming every flip-flop at 0
        // makes `c0`'s data 1, and with the counter free `c0 & c1` is a
        // value of its own. The search finds the three states, in none of
        // which `z` is set, so `z` folds.
        let (n, z) = mod3_counter();
        let (p, _) = Program::compile_optimized(&n).unwrap();
        assert!(p.literal_pins(&[]).is_empty());
        let reach = reach::search(&p, &[], &[], reach::SEARCH_BUDGET).unwrap();
        assert_eq!((reach.states, reach.next.len()), (3, 6));
        assert_eq!(reach.constant, [p.ffs()[2]]);
        let folded = fold_checked(&n, &[], reach::SEARCH_BUDGET);
        assert_eq!(folded.ffs().len(), 2);
        assert!(folded.ffs().iter().all(|f| f.q != z.0));
    }

    #[test]
    fn fold_over_the_search_budget_is_the_literal_fold() {
        // Beside the mod-3 counter, a ten-bit counter stepping on a free
        // input gives 3 · 1024 states of 4 inputs each, past the budget:
        // the search gives up and the fold is exactly the literal fold, so
        // `z` stays.
        let (mut n, z) = mod3_counter();
        let step = n.input("step");
        let mut carry = step;
        for _ in 0..10 {
            let bit = n.dff(false);
            let d = n.xor(bit, carry);
            n.bind_dff(bit, d).unwrap();
            carry = n.and2(bit, carry);
        }
        n.mark_output(carry).unwrap();
        let (p, _) = Program::compile_optimized(&n).unwrap();
        assert_eq!(reach::search(&p, &[], &[], reach::SEARCH_BUDGET), None);
        assert!(!p.fold_inputs(&[], reach::SEARCH_BUDGET).unwrap().1);
        let folded = fold_checked(&n, &[], reach::SEARCH_BUDGET);
        let mut literal = p.clone();
        let pinned = p.literal_pins(&[]);
        literal.ffs.retain(|f| !pinned.contains(f));
        literal.optimize(&p.held(&[], &pinned));
        assert_eq!(
            (folded.high(), folded.low(), folded.args(), folded.ffs()),
            (literal.high(), literal.low(), literal.args(), literal.ffs())
        );
        assert!(folded.ffs().iter().any(|f| f.q == z.0));
        // The deep budget holds the 3 · 1024 · 4 transitions: the search
        // finishes and `z` folds.
        assert!(p.fold_inputs(&[], reach::DEEP_BUDGET).unwrap().1);
        let deep = fold_checked(&n, &[], reach::DEEP_BUDGET);
        assert_eq!(deep.ffs().len(), folded.ffs().len() - 1);
        assert!(deep.ffs().iter().all(|f| f.q != z.0));
    }

    #[test]
    fn peephole_drops_high_tape_of_latch_free_logic() {
        // Without latches, nothing observes the high-phase recomputation:
        // combinational values are only consumed by the flip-flop capture
        // and end-of-cycle probes, both after the low tape.
        let mut n = Netlist::new("ffonly");
        let a = n.input("a");
        let q = n.dff(false);
        let d = n.xor(q, a);
        n.bind_dff(q, d).unwrap();
        let out = n.and2(q, a);
        n.mark_output(out).unwrap();
        let (p, _) = Program::compile_optimized(&n).unwrap();
        assert!(p.high().is_empty(), "high tape dead: {:?}", p.high());
        assert!(!p.low().is_empty());
        cosim_programs(&n, p, &[out, q], 16);
    }

    #[test]
    fn peephole_keeps_latch_phase_reads_alive() {
        // A high-phase latch samples its data during the high phase, so the
        // high-tape computation of its input cone must survive.
        let mut n = Netlist::new("latched");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and2(a, b);
        let h = n.latch(LatchPhase::High, false);
        n.bind_latch(h, x).unwrap();
        let out = n.or2(h, a);
        n.mark_output(out).unwrap();
        let (p, _) = Program::compile_optimized(&n).unwrap();
        assert!(
            p.high().iter().any(|i| i.dst() == x.0),
            "latch data cone stays in the high tape: {:?}",
            p.high()
        );
        cosim_programs(&n, p, &[out, h], 16);
    }

    #[test]
    fn peephole_folds_constants_and_copies() {
        let mut n = Netlist::new("konst");
        let a = n.input("a");
        let zero = n.constant(false);
        let one = n.constant(true);
        let w = n.wire();
        n.bind_wire(w, a).unwrap(); // Copy chain
        let x = n.and2(w, one); // = a
        let y = n.or2(x, zero); // = a
        let m = n.mux(one, y, zero); // = a
        let dead = n.xor(zero, zero); // never observed
        let _ = dead;
        n.mark_output(m).unwrap();
        let (p, stats) = Program::compile_optimized(&n).unwrap();
        assert!(stats.folded > 0, "{stats:?}");
        // Everything collapses to (at most) a copy of the input per tape.
        assert!(
            p.high().len() + p.low().len() <= 2,
            "high {:?} low {:?}",
            p.high(),
            p.low()
        );
        cosim_programs(&n, p, &[m], 8);
    }

    #[test]
    fn peephole_removes_never_enabled_latch() {
        let mut n = Netlist::new("hold");
        let a = n.input("a");
        let zero = n.constant(false);
        let l = n.latch_en(LatchPhase::High, zero, true);
        n.bind_latch(l, a).unwrap();
        let out = n.or2(l, a);
        n.mark_output(out).unwrap();
        let (p, _) = Program::compile_optimized(&n).unwrap();
        assert!(
            !p.high().iter().any(|i| i.dst() == l.0),
            "held latch has no instruction: {:?}",
            p.high()
        );
        cosim_programs(&n, p, &[out, l], 10);
    }

    #[test]
    fn ff_commits_and_init_recorded() {
        let mut n = Netlist::new("ff");
        let q = n.dff(true);
        let d = n.not(q);
        n.bind_dff(q, d).unwrap();
        let k = n.constant(true);
        let _ = k;
        let p = Program::compile(&n).unwrap();
        assert_eq!(p.ffs(), &[FfCommit { q: q.0, d: d.0 }]);
        assert!(p.init()[q.index()]);
        assert!(p.init()[k.index()]);
        assert_eq!(p.state_nets(), &[q]);
    }

    /// A few-dozen-gate netlist with both phases populated, for block tests.
    fn blocky_netlist() -> Netlist {
        let mut n = Netlist::new("blocky");
        let a = n.input("a");
        let b = n.input("b");
        let mut x = a;
        for i in 0..24 {
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
        n.mark_output(x).unwrap();
        n
    }

    /// Asserts `plan`'s ranges partition `0..len` in order without gaps.
    fn assert_partitions(blocks: &[(usize, usize)], len: usize) {
        let mut at = 0usize;
        for &(s, e) in blocks {
            assert_eq!(s, at, "blocks out of order or gapped: {blocks:?}");
            assert!(e > s, "empty block: {blocks:?}");
            at = e;
        }
        assert_eq!(at, len, "blocks do not cover the tape: {blocks:?}");
    }

    #[test]
    fn block_plan_partitions_tapes_in_order() {
        let n = blocky_netlist();
        let p = Program::compile(&n).unwrap();
        for budget in [1, 64, 256, 4096, usize::MAX] {
            let plan = p.block_plan(4, budget);
            assert_partitions(plan.high(), p.high().len());
            assert_partitions(plan.low(), p.low().len());
            assert_eq!(plan.budget_bytes(), budget);
            assert!(!plan.is_empty());
        }
    }

    #[test]
    fn block_plan_single_block_when_footprint_fits() {
        let n = blocky_netlist();
        let p = Program::compile(&n).unwrap();
        let plan = p.block_plan(8, p.footprint_bytes(8));
        assert_eq!(plan.high(), &[(0, p.high().len())]);
        assert_eq!(plan.low(), &[(0, p.low().len())]);
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn block_plan_tiny_budget_degrades_to_per_instruction() {
        let n = blocky_netlist();
        let p = Program::compile(&n).unwrap();
        // One byte can never hold even a single slot, so every instruction
        // becomes its own block rather than the planner failing.
        let plan = p.block_plan(1, 1);
        assert_eq!(plan.high().len(), p.high().len());
        assert_eq!(plan.low().len(), p.low().len());
        assert_partitions(plan.high(), p.high().len());
    }

    #[test]
    fn footprint_scales_with_width() {
        let n = blocky_netlist();
        let p = Program::compile(&n).unwrap();
        assert_eq!(p.footprint_bytes(1), p.num_slots() * 8);
        assert_eq!(p.footprint_bytes(8), p.num_slots() * 64);
    }
}
