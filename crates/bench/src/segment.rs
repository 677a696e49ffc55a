//! Time segments: a shard whose stimulus matrix leaves words of the pass
//! idle runs its horizon as `K` stretches side by side, repaired until
//! every per-lane count is the one a straight run gives.
//!
//! Firing preserves tokens minus anti-tokens on every cycle of the marked
//! graph (paper Sect. 2), so a controller restarted from power-up at a
//! later cycle shares every cycle count with the true state there, and
//! under a random environment it coalesces with it lane by lane. That
//! makes time partitioning pay (Heidelberger and Stone, "Parallel
//! trace-driven cache simulation by time partitioning", 1990):
//!
//! ```text
//!   cycles   0 ───── b₁ ───── b₂ ─ … ─ b_{K−1} ───── C
//!   pass 1   [seg 0 ][seg 1  ][seg 2  ] … [seg K−1  ]   W·K words, seg 0
//!            exact    guessed from power-up              exact
//!   round r  every unresolved seg restarts from its predecessor's latest
//!            end state and stops at the first checkpoint where its state
//!            equals its previous trajectory's on every live lane
//! ```
//!
//! A segment's counts are its repaired prefix and its previous suffix: the
//! cycle function is deterministic and lane-independent, so equal carried
//! state ([`WideSim::read_carried`]) means an equal future, and every
//! per-lane count is bit-identical to the straight run by construction.
//! Segment `k` is resolved once `k − 1` is and `k`'s latest start equals
//! `k − 1`'s final end state.
//!
//! A round's first unresolved segment restarts from its resolved
//! predecessor's end, so its trajectory is exact. A round in which no
//! segment has stopped after [`PATIENCE`] checkpoints ends the speculation
//! there, and a round that resolves only that first segment ends it at the
//! segment's end: the rest of the horizon runs straight at `W` words from
//! the exact state reached. `K = 1` is that straight run from power-up.

use std::cmp::Ordering;

use elastic_core::verify::PackedStimulus;
use elastic_core::CoreError;
use elastic_netlist::kernel::Kernel;
use elastic_netlist::levelize::{BlockPlan, Program};
use elastic_netlist::wide::{lane_masks, WideSim, LANES};
use elastic_netlist::NetId;

use crate::DISPATCH_FOOTPRINT_BYTES;

/// Shortest segment, in cycles. Over 285 points of 64 trials × 2000
/// cycles (the 5 Fig. 9 systems × 3 seeds, the 30 corpus systems × 3 knob
/// settings × 3 seeds; BENCH.md, PR 25) the first repair round, which
/// lasts until the slowest of the seven boundaries coalesces, ran 16–250
/// cycles (median 48): a segment of 250 cycles gives that round room to
/// finish on nearly every point (282 of the 285 resolved every segment),
/// and 2000-cycle points run as eight segments.
pub(crate) const MIN_SEGMENT: usize = 250;

/// Cycles between two comparisons of a repaired segment's state with its
/// previous trajectory (and between two recorded states of a trajectory).
pub(crate) const CHECKPOINT: usize = 16;

/// Checkpoints a repair round runs before it gives up when every segment
/// it restarted still runs and none has a live lane back on its previous
/// trajectory. On each of the 285 survey points ([`MIN_SEGMENT`]) some
/// lane was back at the first checkpoint of the first round; a network
/// that never coalesces pays pass 1 and these `PATIENCE · CHECKPOINT`
/// cycles at `W·K` words before its straight run.
pub(crate) const PATIENCE: usize = 2;

/// The segments a `width`-word matrix of `cycles` cycles runs as: the
/// largest `K ∈ {2, 4, 8}` whose `width·K`-word pass fits eight words and
/// the value-arena budget [`crate::dispatch_backend`] applies
/// ([`DISPATCH_FOOTPRINT_BYTES`]) and whose segments are at least
/// [`MIN_SEGMENT`] cycles long; 1 otherwise.
pub(crate) fn segments_for(prog: &Program, width: usize, cycles: usize) -> usize {
    [8, 4, 2]
        .into_iter()
        .find(|&k| {
            width * k <= 8
                && prog.footprint_bytes(width * k) <= DISPATCH_FOOTPRINT_BYTES
                && cycles >= k * MIN_SEGMENT
        })
        .unwrap_or(1)
}

/// How one shard's horizon ran: for the tests and the surveys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Segmentation {
    /// Segments `K` (1: one straight run).
    pub(crate) segments: usize,
    /// Cycles of the first, speculative `W·K`-word pass.
    pub(crate) first_pass: usize,
    /// Cycles of each repair round, in order.
    pub(crate) repairs: Vec<usize>,
    /// Cycles run straight at `W` words: the whole horizon at `K = 1`, the
    /// rest of it after a speculation that ended early.
    pub(crate) straight: usize,
}

/// One stretch of the horizon.
struct Segment {
    /// First cycle.
    start: usize,
    /// Cycles.
    len: usize,
    /// Whether its latest trajectory is exact.
    resolved: bool,
}

impl Segment {
    /// The checkpoint of its end: checkpoint `c` is offset
    /// `min(c·CHECKPOINT, len)`.
    fn last(&self) -> usize {
        self.len.div_ceil(CHECKPOINT)
    }
}

/// The `W·K`-word pass over a `W`-word matrix: word `j·W + w` of every
/// lane group is word `w` of segment `j`, and each segment's latest
/// trajectory is kept in the same layout.
struct Pass<'a, const W: usize, const WK: usize> {
    sim: WideSim<WK>,
    plan: BlockPlan,
    stim: &'a PackedStimulus,
    /// Live lanes of each matrix word.
    live: [u64; W],
    rails: [NetId; 3],
    /// The pass's stimulus row: segment `j`'s words of slot `i` at
    /// `i·WK + j·W`.
    row: Vec<u64>,
    /// Carried state of each trajectory at checkpoint `c`: entries
    /// `c·S..(c + 1)·S`, `S` = [`WideSim::carried_len`].
    states: Vec<[u64; WK]>,
    /// The pass's carried state at the latest checkpoint.
    now: Vec<[u64; WK]>,
    /// Transfer masks of each trajectory, by offset into its segment.
    masks: Vec<[u64; WK]>,
}

impl<'a, const W: usize, const WK: usize> Pass<'a, W, WK> {
    /// A pass of `prog` over `stim` for `segs` laid side by side, every
    /// word at power-up; `live` holds the matrix's live lanes.
    fn new(
        prog: &Program,
        stim: &'a PackedStimulus,
        segs: &[Segment],
        live: [u64; W],
        rails: [NetId; 3],
        budget: usize,
        pin: Option<Kernel>,
    ) -> Result<Self, CoreError> {
        let mut sim = WideSim::<WK>::from_program(prog.clone());
        if let Some(kernel) = pin {
            sim = sim.with_kernel(kernel);
        }
        sim.check_input_slots(stim.slots())
            .map_err(CoreError::from)?;
        let s = sim.carried_len();
        let checkpoints = segs.iter().map(Segment::last).max().unwrap_or(0) + 1;
        let mut states = vec![[0; WK]; checkpoints * s];
        sim.read_carried(&mut states[..s]);
        Ok(Pass {
            sim,
            plan: prog.block_plan(WK, budget),
            stim,
            live,
            rails,
            row: vec![0; stim.slots().len() * WK],
            states,
            now: vec![[0; WK]; s],
            masks: vec![[0; WK]; segs.iter().map(|g| g.len).max().unwrap_or(0)],
        })
    }

    /// All ones on segment `j`'s words.
    fn words_of(j: usize) -> [u64; WK] {
        std::array::from_fn(|v| if v / W == j { u64::MAX } else { 0 })
    }

    /// Whether segment `j`'s recorded start is segment `j − 1`'s recorded
    /// end on every live lane.
    fn starts_at_end(&self, segs: &[Segment], j: usize) -> bool {
        let s = self.now.len();
        let end = segs[j - 1].last() * s;
        self.states[..s]
            .iter()
            .zip(&self.states[end..end + s])
            .all(|(a, b)| (0..W).all(|w| (a[j * W + w] ^ b[(j - 1) * W + w]) & self.live[w] == 0))
    }

    /// Segment `j`'s recorded state at checkpoint `c`, as `W` words.
    fn state_of(&self, j: usize, c: usize) -> Vec<[u64; W]> {
        let s = self.now.len();
        self.states[c * s..(c + 1) * s]
            .iter()
            .map(|g| std::array::from_fn(|w| g[j * W + w]))
            .collect()
    }

    /// Restarts segment `j` from segment `j − 1`'s recorded end.
    fn restart(&mut self, segs: &[Segment], j: usize) -> Result<(), CoreError> {
        let end = self.state_of(j - 1, segs[j - 1].last());
        for (start, e) in self.states.iter_mut().zip(&end) {
            start[j * W..(j + 1) * W].copy_from_slice(e);
        }
        self.sim
            .load_carried(&self.states[..end.len()], Self::words_of(j))
            .map_err(CoreError::from)
    }

    /// Runs the `active` segments, each from the state in its words, until
    /// each coalesces with its recorded trajectory at a checkpoint or
    /// reaches its end, recording states and transfer masks as it goes.
    /// With `compare` false (pass 1, nothing recorded yet) every segment
    /// runs to its end; with it true the round gives up at checkpoint
    /// [`PATIENCE`] if every segment still runs and none has a live lane
    /// back on its previous trajectory. Returns the cycles run and whether
    /// the round gave up.
    fn round(&mut self, segs: &[Segment], active: &[usize], compare: bool) -> (usize, bool) {
        let (s, [vp, sp, vn]) = (self.now.len(), self.rails);
        let mut running = active.to_vec();
        let mut on = [0u64; WK];
        for &j in active {
            on[j * W..(j + 1) * W].fill(u64::MAX);
        }
        let (mut done, mut first_end) = (0, 0);
        while !running.is_empty() {
            if done == first_end {
                first_end = running.iter().map(|&j| segs[j].len).min().unwrap_or(0);
            }
            for &j in &running {
                let src = self.stim.row(segs[j].start + done);
                for (i, words) in src.chunks_exact(W).enumerate() {
                    self.row[i * WK + j * W..][..W].copy_from_slice(words);
                }
            }
            self.sim
                .cycle_packed_blocked(self.stim.slots(), &self.row, &self.plan);
            let (p, q, n) = (self.sim.words(vp), self.sim.words(sp), self.sim.words(vn));
            let m = &mut self.masks[done];
            for v in 0..WK {
                m[v] = p[v] & !q[v] & !n[v] & on[v] | m[v] & !on[v];
            }
            done += 1;
            if done % CHECKPOINT != 0 && done < first_end {
                continue;
            }
            self.sim.read_carried(&mut self.now);
            let c = done.div_ceil(CHECKPOINT);
            let recorded = &mut self.states[c * s..(c + 1) * s];
            // Bits where the trajectories differ, every pass word at once.
            let mut diff = [0u64; WK];
            if compare {
                for (a, b) in self.now.iter().zip(recorded.iter()) {
                    for v in 0..WK {
                        diff[v] |= a[v] ^ b[v];
                    }
                }
            }
            // The words of the segments at a checkpoint now that record
            // this state: those that did not meet their previous trajectory.
            let mut record = [0u64; WK];
            running.retain(|&j| {
                let len = segs[j].len;
                if done % CHECKPOINT != 0 && done != len {
                    return true;
                }
                let words = j * W..(j + 1) * W;
                let met = compare && words.clone().all(|v| diff[v] & self.live[v % W] == 0);
                if !met {
                    record[words.clone()].fill(u64::MAX);
                }
                let stop = met || done == len;
                if stop {
                    on[words].fill(0);
                }
                !stop
            });
            for (a, b) in self.now.iter().zip(recorded.iter_mut()) {
                for v in 0..WK {
                    b[v] = a[v] & record[v] | b[v] & !record[v];
                }
            }
            if compare && done == PATIENCE * CHECKPOINT && running.len() == active.len() {
                // Every restarted segment still runs: give up if none has a
                // live lane back on its previous trajectory.
                let apart = (0..WK).all(|v| {
                    let lanes = self.live[v % W] & on[v];
                    diff[v] & lanes == lanes
                });
                if apart {
                    return (done, true);
                }
            }
        }
        (done, false)
    }

    /// Pass 1 and the repair rounds, as the module docs describe, into
    /// `shape`. Returns where the exact run stands, `(f, c)`: the segments
    /// before `f` are resolved, and `f`'s recorded trajectory is exact up
    /// to its checkpoint `c` (its end once every segment resolved).
    fn speculate(
        &mut self,
        segs: &mut [Segment],
        shape: &mut Segmentation,
    ) -> Result<(usize, usize), CoreError> {
        let k = segs.len();
        // Marks every segment whose predecessor is resolved and whose start
        // is its predecessor's end; returns the first one still unresolved.
        let resolve = |pass: &Self, segs: &mut [Segment]| {
            for j in 1..k {
                segs[j].resolved |= segs[j - 1].resolved && pass.starts_at_end(segs, j);
            }
            segs.iter().position(|seg| !seg.resolved)
        };
        let all: Vec<usize> = (0..k).collect();
        shape.first_pass = self.round(segs, &all, false).0;
        let mut first = resolve(self, segs);
        while let Some(f) = first {
            // `f`'s start differs from its resolved predecessor's end, so it
            // is among the segments that restart.
            let active: Vec<usize> = (f..k).filter(|&j| !self.starts_at_end(segs, j)).collect();
            for &j in &active {
                self.restart(segs, j)?;
            }
            let (ran, gave_up) = self.round(segs, &active, true);
            shape.repairs.push(ran);
            if gave_up {
                // No restarted segment has a lane back on its previous
                // trajectory: `f`, exact, goes on straight from there.
                return Ok((f, PATIENCE));
            }
            first = resolve(self, segs);
            if first == Some(f + 1) {
                // Only `f` resolved: its successors' guesses did not hold,
                // and another round would buy one segment at `K` times the
                // width.
                return Ok((f, segs[f].last()));
            }
        }
        Ok((k - 1, segs[k - 1].last()))
    }

    /// The transfers of the first `lanes` lanes of the matrix over the
    /// first `counted[j]` offsets of each segment `j`.
    fn count(&self, counted: &[usize], lanes: usize) -> Vec<u32> {
        let mut tally = Tally::<W>::new(lanes);
        for (j, &n) in counted.iter().enumerate() {
            for m in &self.masks[..n] {
                tally.add(std::array::from_fn(|w| m[j * W + w]));
            }
        }
        tally.finish()
    }
}

/// Per-lane transfer counts of `W`-word masks, bit-sliced: masks go eight
/// at a time through carry-save adders (Harley and Seal's population
/// count, per lane), whose `ones`, `twos` and `fours` planes carry over
/// and whose eights ripple into a bit-sliced total (plane `b` holds bit
/// `b` of every lane's count), decoded once at the end. About six word
/// operations per mask, without a branch per carry. Counts are sums, so
/// masks may arrive in any order.
struct Tally<const W: usize> {
    live: [u64; W],
    /// Masks not yet added: the first `held`.
    pending: [[u64; W]; 8],
    held: usize,
    ones: [u64; W],
    twos: [u64; W],
    fours: [u64; W],
    total: [[u64; W]; 32],
    lanes: usize,
}

impl<const W: usize> Tally<W> {
    /// Counts of the first `lanes` lanes, all zero.
    fn new(lanes: usize) -> Self {
        Tally {
            live: lane_masks::<W>(lanes),
            pending: [[0; W]; 8],
            held: 0,
            ones: [0; W],
            twos: [0; W],
            fours: [0; W],
            total: [[0; W]; 32],
            lanes,
        }
    }

    /// Adds one transfer mask; dead lanes are masked out.
    fn add(&mut self, transfers: [u64; W]) {
        self.pending[self.held] = std::array::from_fn(|w| transfers[w] & self.live[w]);
        self.held += 1;
        if self.held < 8 {
            return;
        }
        self.held = 0;
        let m = &self.pending;
        let (twos_a, ones) = csa(self.ones, m[0], m[1]);
        let (twos_b, ones) = csa(ones, m[2], m[3]);
        let (fours_a, twos) = csa(self.twos, twos_a, twos_b);
        let (twos_a, ones) = csa(ones, m[4], m[5]);
        let (twos_b, ones) = csa(ones, m[6], m[7]);
        let (fours_b, twos) = csa(twos, twos_a, twos_b);
        let (eights, fours) = csa(self.fours, fours_a, fours_b);
        (self.ones, self.twos, self.fours) = (ones, twos, fours);
        add_at(&mut self.total[3..], eights);
    }

    /// The per-lane counts.
    fn finish(mut self) -> Vec<u32> {
        for i in 0..self.held {
            add_at(&mut self.total, self.pending[i]);
        }
        add_at(&mut self.total[2..], self.fours);
        add_at(&mut self.total[1..], self.twos);
        add_at(&mut self.total, self.ones);
        let mut counts = vec![0; self.lanes];
        for (b, plane) in self.total.iter().enumerate() {
            for (w, &word) in plane.iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    counts[w * LANES + m.trailing_zeros() as usize] += 1 << b;
                    m &= m - 1;
                }
            }
        }
        counts
    }
}

/// A carry-save adder on every bit of `W` words: `(carry, sum)` of
/// `a + b + c`.
fn csa<const W: usize>(a: [u64; W], b: [u64; W], c: [u64; W]) -> ([u64; W], [u64; W]) {
    let (mut carry, mut sum) = ([0; W], [0; W]);
    for w in 0..W {
        let u = a[w] ^ b[w];
        carry[w] = a[w] & b[w] | u & c[w];
        sum[w] = u ^ c[w];
    }
    (carry, sum)
}

/// Adds one bit per lane at the lowest of the bit-sliced `planes`.
fn add_at<const W: usize>(planes: &mut [[u64; W]], mut carry: [u64; W]) {
    for plane in planes {
        if carry == [0; W] {
            break;
        }
        for w in 0..W {
            let c = plane[w] & carry[w];
            plane[w] ^= carry[w];
            carry[w] = c;
        }
    }
}

/// The straight run at `W` words: one simulator stepping the matrix's
/// rows, and its counts.
struct Straight<'a, const W: usize> {
    sim: WideSim<W>,
    plan: BlockPlan,
    stim: &'a PackedStimulus,
    rails: [NetId; 3],
    tally: Tally<W>,
}

impl<const W: usize> Straight<'_, W> {
    /// Runs cycles `from..to`, counting their transfers.
    fn run(&mut self, from: usize, to: usize) {
        let [vp, sp, vn] = self.rails;
        for t in from..to {
            self.sim
                .cycle_packed_blocked(self.stim.slots(), self.stim.row(t), &self.plan);
            let (p, s, n) = (self.sim.words(vp), self.sim.words(sp), self.sim.words(vn));
            self.tally
                .add(std::array::from_fn(|w| p[w] & !s[w] & !n[w]));
        }
    }
}

/// Per-lane transfer counts (`V⁺ ∧ ¬S⁺ ∧ ¬V⁻` on the rails `rails`) of
/// the first `lanes` lanes of the `W`-word matrix `stim` on `prog`, run as
/// `K = WK / W` time segments in a `WK`-word pass as the module docs
/// describe, or straight when `K = 1`; and how the horizon ran. `budget`
/// is the cache-block budget of the plans; `pin` pins the kernel build.
///
/// # Errors
///
/// Slot-validation and state-loading failures of the simulators.
pub(crate) fn run<const W: usize, const WK: usize>(
    prog: &Program,
    stim: &PackedStimulus,
    lanes: usize,
    rails: [NetId; 3],
    budget: usize,
    pin: Option<Kernel>,
) -> Result<(Vec<u32>, Segmentation), CoreError> {
    let (cycles, k) = (stim.cycles(), WK / W);
    debug_assert!(
        k >= 1 && k * W == WK,
        "{WK} words hold whole segments of {W}"
    );
    let mut shape = Segmentation {
        segments: k,
        ..Segmentation::default()
    };
    let straight = || -> Result<Straight<W>, CoreError> {
        let mut sim = WideSim::<W>::from_program(prog.clone());
        if let Some(kernel) = pin {
            sim = sim.with_kernel(kernel);
        }
        sim.check_input_slots(stim.slots())
            .map_err(CoreError::from)?;
        Ok(Straight {
            sim,
            plan: prog.block_plan(W, budget),
            stim,
            rails,
            tally: Tally::new(lanes),
        })
    };
    if k == 1 {
        let mut run = straight()?;
        run.run(0, cycles);
        shape.straight = cycles;
        return Ok((run.tally.finish(), shape));
    }
    let mut segs: Vec<Segment> = (0..k)
        .map(|j| {
            let (start, end) = (j * cycles / k, (j + 1) * cycles / k);
            Segment {
                start,
                len: end - start,
                resolved: j == 0,
            }
        })
        .collect();
    let live = lane_masks::<W>(lanes);
    let mut pass = Pass::<W, WK>::new(prog, stim, &segs, live, rails, budget, pin)?;
    let (f, c) = pass.speculate(&mut segs, &mut shape)?;
    let reached = (c * CHECKPOINT).min(segs[f].len);
    let counted: Vec<usize> = segs
        .iter()
        .enumerate()
        .map(|(j, seg)| match j.cmp(&f) {
            Ordering::Less => seg.len,
            Ordering::Equal => reached,
            Ordering::Greater => 0,
        })
        .collect();
    let mut counts = pass.count(&counted, lanes);
    let from = segs[f].start + reached;
    if from < cycles {
        let mut rest = straight()?;
        rest.sim
            .load_carried(&pass.state_of(f, c), [u64::MAX; W])
            .map_err(CoreError::from)?;
        rest.run(from, cycles);
        shape.straight = cycles - from;
        for (count, more) in counts.iter_mut().zip(rest.tally.finish()) {
            *count += more;
        }
    }
    Ok((counts, shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dispatch_backend, McStats, WideHarness};
    use elastic_core::channel::ChanId;
    use elastic_core::network::ElasticNetwork;
    use elastic_core::sim::EnvConfig;
    use elastic_core::systems::{paper_example, Config};

    /// System `i` of the segment tests: the five Fig. 9 systems, the 30
    /// corpus systems at the default knobs, then the generated topology
    /// `TopoParams::sample(i)`.
    fn segment_system(i: usize) -> (ElasticNetwork, ChanId, EnvConfig) {
        use elastic_core::corpus::{all_systems, Knobs};
        use elastic_core::gen::{generate, TopoParams};
        match i {
            0..5 => {
                let sys = paper_example(Config::all()[i]).unwrap();
                (sys.network, sys.output_channel, sys.env_config)
            }
            5..35 => {
                let sys = all_systems(&Knobs::default()).unwrap().swap_remove(i - 5);
                (sys.network, sys.output_channel, sys.env)
            }
            _ => {
                let sys = generate(&TopoParams::sample(i as u64)).unwrap();
                (sys.network, sys.output_channel, sys.env)
            }
        }
    }

    /// `lanes` trials of `stim` on `h` as `segments` time segments
    /// (`None`: the derived count) and as one straight run.
    fn segmented_and_straight(
        h: &WideHarness,
        stim: &PackedStimulus,
        lanes: usize,
        segments: Option<usize>,
    ) -> (McStats, McStats, Segmentation) {
        let budget = DISPATCH_FOOTPRINT_BYTES;
        let (seg, shape) = h.run_stim(stim, lanes, budget, None, segments).unwrap();
        let (straight, one) = h.run_stim(stim, lanes, budget, None, Some(1)).unwrap();
        assert_eq!(one.straight, stim.cycles(), "one segment runs straight");
        (seg, straight, shape)
    }

    proptest::proptest! {
        /// Over the Fig. 9, corpus and generated systems, the derived
        /// segment count gives the per-lane vector of one straight run:
        /// 1-64 and 65-512 lanes at their dispatched width, horizons just
        /// below and just above `K × MIN_SEGMENT` (below it the count
        /// halves) and not divisible by `K`.
        #[test]
        fn derived_segments_equal_one_straight_run(
            sys in 0usize..60,
            wide in 0usize..2,
            pick in 0usize..448,
            below in 0usize..2,
            off in 1usize..8,
            seed in 0u64..1000,
        ) {
            let lanes = if wide == 1 { 65 + pick } else { 1 + pick % 64 };
            let (net, out, env) = segment_system(sys);
            let h = WideHarness::new(&net, out);
            let width = dispatch_backend(h.program(), lanes).lanes() / LANES;
            let k = segments_for(h.program(), width, usize::MAX);
            let (cycles, expect) = match (k, below) {
                // Eight words never segment; keep the horizon short.
                (1, _) => (MIN_SEGMENT + off, 1),
                (k, 1) => (k * MIN_SEGMENT - off, (k / 2).max(1)),
                (k, _) => (k * MIN_SEGMENT + off, k),
            };
            let stim = h.generate_stimulus(&net, &env, seed, cycles, lanes, width).unwrap();
            let (seg, straight, shape) = segmented_and_straight(&h, &stim, lanes, None);
            proptest::prop_assert_eq!(shape.segments, expect);
            proptest::prop_assert_eq!(seg.per_lane, straight.per_lane);
        }

        /// Every segment count a width admits gives the per-lane vector of
        /// one straight run, down to segments shorter than a checkpoint.
        #[test]
        fn every_segment_count_equals_one_straight_run(
            sys in 0usize..60,
            lanes in 1usize..257,
            cycles in 8usize..400,
            seed in 0u64..1000,
        ) {
            let (net, out, env) = segment_system(sys);
            let h = WideHarness::new(&net, out);
            let width = dispatch_backend(h.program(), lanes).lanes() / LANES;
            let stim = h.generate_stimulus(&net, &env, seed, cycles, lanes, width).unwrap();
            for k in [2, 4, 8].into_iter().filter(|&k| width * k <= 8) {
                let (seg, straight, shape) = segmented_and_straight(&h, &stim, lanes, Some(k));
                proptest::prop_assert_eq!(shape.segments, k);
                proptest::prop_assert_eq!(&seg.per_lane, &straight.per_lane, "{} segments", k);
            }
        }
    }

    #[test]
    fn fig9_and_corpus_points_run_as_eight_segments() {
        // The perfbench `corpus` shape, 64 trials of 2000 cycles, runs as
        // eight segments on every Fig. 9 and corpus system and gives the
        // straight run's per-lane vector.
        for (label, net, env, h) in &crate::tests::fig9_and_corpus() {
            let stim = h.generate_stimulus(net, env, 7, 2000, LANES, 1).unwrap();
            let (seg, straight, shape) = segmented_and_straight(h, &stim, LANES, None);
            assert_eq!(shape.segments, 8, "{label}");
            assert_eq!(seg.per_lane, straight.per_lane, "{label}");
            println!(
                "{label}: first pass {}, repairs {:?}, straight {}",
                shape.first_pass, shape.repairs, shape.straight
            );
        }
    }

    #[test]
    fn a_ring_that_never_coalesces_gives_up_after_patience() {
        // One token in a closed ring of seven buffers: every lane repeats
        // the same seven-cycle period. A segment restarted from a phase
        // other than its own never meets its previous trajectory, and 7
        // divides no multiple `j·250` for `j` up to 6, so no restart lands
        // on the right phase: the first repair round gives up after
        // `PATIENCE` checkpoints, and segment 1 runs on straight from there.
        let mut net = ElasticNetwork::new("ring7");
        let ring = net.add_buffer("r", 7, 1).unwrap();
        let out = net.connect(ring, 0, ring, 0, "loop").unwrap();
        let h = WideHarness::new(&net, out);
        let cycles = 8 * MIN_SEGMENT;
        let stim = h
            .generate_stimulus(&net, &EnvConfig::default(), 1, cycles, LANES, 1)
            .unwrap();
        let (seg, straight, shape) = segmented_and_straight(&h, &stim, LANES, None);
        assert_eq!(seg.per_lane, straight.per_lane);
        assert_eq!(shape.segments, 8);
        assert_eq!(shape.first_pass, cycles / 8);
        assert_eq!(
            shape.repairs,
            [PATIENCE * CHECKPOINT],
            "one round, given up"
        );
        assert_eq!(shape.straight, cycles - cycles / 8 - PATIENCE * CHECKPOINT);
        assert!(straight.mean() > 0.0);
    }

    #[test]
    fn a_round_that_resolves_only_its_first_segment_ends_the_speculation() {
        // The ring of seven buffers in eight segments of 20 cycles, too
        // short for a round to give up: 7 divides neither 20 nor any `j·20`
        // for `j` up to 6, so the repair round runs every segment to its end
        // without a meeting and resolves only segment 1, and the rest of the
        // horizon runs straight from segment 1's end.
        let len = 20;
        assert!(len < PATIENCE * CHECKPOINT, "segments end before patience");
        let mut net = ElasticNetwork::new("ring7");
        let ring = net.add_buffer("r", 7, 1).unwrap();
        let out = net.connect(ring, 0, ring, 0, "loop").unwrap();
        let h = WideHarness::new(&net, out);
        let cycles = 8 * len;
        let stim = h
            .generate_stimulus(&net, &EnvConfig::default(), 1, cycles, LANES, 1)
            .unwrap();
        let (seg, straight, shape) = segmented_and_straight(&h, &stim, LANES, Some(8));
        assert_eq!(seg.per_lane, straight.per_lane);
        assert_eq!(shape.repairs, [len], "one full-length round");
        assert_eq!(shape.straight, cycles - 2 * len);
    }
}
