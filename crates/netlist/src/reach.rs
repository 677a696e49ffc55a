//! Exact reachable-state search over a levelized [`Program`], on the
//! bit-parallel backend: the one breadth-first search over netlist states.
//!
//! A cycle of a program depends on its inputs and on its carried state
//! ([`WideSim::read_carried`]): the flip-flop captures and the
//! [`Program::carried_slots`]. [`search`] enumerates every carried state
//! reachable from power-up with some inputs held at constants and every
//! other input free, breadth first: one [`WideSim<8>`](WideSim) cycle
//! runs 512 (state, input) pairs, each lane loaded with a state and
//! driven with one assignment of the free inputs. It records the
//! successor of every pair and the values of the slots a caller watches
//! on every pair. States are keyed as packed words in an open-addressing
//! set. Its one give-up is a budget of transitions.
//!
//! [`Program::fold_inputs`] runs it to find the flip-flops whose capture
//! never leaves its power-up value, which the fixed inputs pin though no
//! literal scan of one cycle shows it. The model checker
//! (`elastic_mc::netlist_kripke`) builds its Kripke structure from it.

use crate::build::NetId;
use crate::levelize::{FfCommit, Program};
use crate::wide::{lane_masks, WideSim, LANES};

/// Words of the simulator a search pass runs on.
const W: usize = 8;
/// (state, input) pairs one search pass runs, one per lane.
const PASS_LANES: usize = W * LANES;
/// Free inputs a lane's index within a pass assigns; the others are bits
/// of the pass's first pair.
const LANE_BITS: usize = PASS_LANES.ilog2() as usize;

/// The transition budget of a first fold ([`Program::fold_inputs`] as a
/// tape is folded at its first use): two full passes. Under the Table 1
/// environment, 32 of the 35 Fig. 9 and corpus systems finish within it
/// (11–201 states of 2–16 input assignments, 32–804 transitions, 5–11
/// passes) in 6–32 µs; the other three Fig. 9 configurations reach
/// 4069–12,281 states (65k–196k transitions) and give up here after about
/// 12 µs (2-vCPU Xeon VM; BENCH.md records the census). Those fold again
/// under [`DEEP_BUDGET`] once a harness has run enough work on them.
pub const SEARCH_BUDGET: usize = 1024;

/// The transition budget of a deep fold: the second fold a long-running
/// harness (`elastic_bench::WideHarness`) pays for out of the simulation
/// it has already run, and the fold `elint` lints. The three Fig. 9
/// configurations past [`SEARCH_BUDGET`] finish within it (65,104, 77,328
/// and 196,496 transitions; their deep folds take 1.4–4.3 ms, 2-vCPU Xeon
/// VM); at 20–40 ns per transition, a search that gives up here costs at
/// most about 10 ms.
pub const DEEP_BUDGET: usize = 1 << 18;

/// What a completed [`search`] found.
///
/// Pair `p` is state `p / 2^f` under assignment `p mod 2^f` of the `f`
/// free inputs, free input `j` (the `j`-th input of [`Program::inputs`]
/// that is not held) reading bit `j` of the assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reach {
    /// Distinct carried states reachable from power-up, power-up itself
    /// included.
    pub states: usize,
    /// The states' packed keys, power-up first and the rest in the order
    /// the search found them (breadth first, each state's successors in
    /// assignment order), `keys.len() / states` words each: entry `e` of
    /// [`WideSim::read_carried`]'s order is bit `e % 64` of word `e / 64`.
    pub keys: Vec<u64>,
    /// The successor state of every pair: one (state, input) transition
    /// each, `states` times the alphabet.
    pub next: Vec<u32>,
    /// Per watched slot, its value on every pair in the cycle the pair
    /// runs: bit `p % 64` of word `p / 64`.
    pub watched: Vec<Vec<u64>>,
    /// The flip-flops of [`Program::ffs`], in order, whose capture is
    /// their power-up value in every reachable state: on every run from
    /// power-up with the held inputs at their values, they never leave
    /// it.
    pub constant: Vec<FfCommit>,
}

/// Enumerates the carried states of `prog` reachable from power-up with
/// the inputs of `fixed` (`(slot, value)` pairs) held at their values and
/// every other input free, recording each pair's successor and the value
/// of each slot of `watch` on each pair. `None` when the search gives up:
/// the reachable states times the alphabet exceed `budget` transitions (64
/// or more free inputs always do). A slot of `fixed` that is not an input
/// of `prog` holds nothing.
pub fn search(
    prog: &Program,
    fixed: &[(u32, bool)],
    watch: &[u32],
    budget: usize,
) -> Option<Reach> {
    let held = |s: u32| fixed.iter().find(|&&(f, _)| f == s).map(|&(_, v)| v);
    let slots: Vec<u32> = prog.inputs().iter().map(|i| i.index() as u32).collect();
    // The row every pass reads: held inputs at their values, and the free
    // ones (`free[j]` is free input `j`'s position in `slots`) set below.
    let free: Vec<usize> = (0..slots.len())
        .filter(|&i| held(slots[i]).is_none())
        .collect();
    let mut row: Vec<u64> = slots
        .iter()
        .flat_map(|&s| [0u64.wrapping_sub(u64::from(held(s) == Some(true))); W])
        .collect();
    let alphabet = 1usize.checked_shl(u32::try_from(free.len()).ok()?)?;
    // Lane `l` of a pass whose first pair is `p0` runs pair `p0 + l`, and
    // every pass starts at a multiple of the alphabet or of a pass: free
    // input `j` reads bit `j` of `l` below `LANE_BITS`, and bit `j` of `p0`
    // from there on, set per pass.
    for (j, &i) in free.iter().enumerate().take(LANE_BITS) {
        row[i * W..(i + 1) * W].copy_from_slice(&lane_bit(j));
    }
    let width = prog.ffs().len() + prog.carried_slots().len();
    let words = width.div_ceil(64).max(1);
    let init = prog.init();
    let mut start = vec![0; words];
    let entries = prog.ffs().iter().map(|f| f.q);
    for (e, s) in entries
        .chain(prog.carried_slots().iter().copied())
        .enumerate()
    {
        start[e / 64] |= u64::from(init[s as usize]) << (e % 64);
    }
    let mut seen = KeySet::new(words, budget / alphabet);
    seen.insert(&start)?;
    let mut sim = WideSim::<W>::from_program(prog.clone());
    let mut load = vec![[0u64; W]; width];
    let mut out = vec![[0u64; W]; width];
    let mut next_keys = vec![0; PASS_LANES * words];
    let mut next = Vec::new();
    let mut watched = vec![Vec::new(); watch.len()];
    while next.len() < seen.len() * alphabet {
        let first = next.len();
        let used = (seen.len() * alphabet - first).min(PASS_LANES);
        for (j, &i) in free.iter().enumerate().skip(LANE_BITS) {
            row[i * W..(i + 1) * W].fill(0u64.wrapping_sub((first >> j & 1) as u64));
        }
        load.fill([0; W]);
        for k in first / alphabet..(first + used).div_ceil(alphabet) {
            // The state's lanes: its pairs within the pass.
            let below = lane_masks::<W>((k * alphabet).max(first) - first);
            let lanes = lane_masks::<W>(((k + 1) * alphabet).min(first + used) - first);
            for e in ones(seen.key(k)) {
                for w in 0..W {
                    load[e][w] |= lanes[w] & !below[w];
                }
            }
        }
        sim.load_carried(&load, [u64::MAX; W])
            .expect("one group per carried entry");
        sim.cycle_packed(&slots, &row);
        sim.read_carried(&mut out);
        for (c, entries) in out.chunks(64).enumerate() {
            let keys = next_keys.chunks_exact_mut(words).take(used);
            // Only the pass's live lane words are transposed (a small
            // search's passes fill one to four).
            match used.div_ceil(LANES) {
                1 => key_words::<1>(entries, c, keys),
                2 => key_words::<2>(entries, c, keys),
                3 | 4 => key_words::<4>(entries, c, keys),
                _ => key_words::<W>(entries, c, keys),
            }
        }
        let live = lane_masks::<W>(used);
        for (bits, &s) in watched.iter_mut().zip(watch) {
            let values = sim.words(NetId::from_index(s as usize));
            for w in 0..used.div_ceil(LANES) {
                or_at(bits, first + w * LANES, values[w] & live[w]);
            }
        }
        for key in next_keys[..used * words].chunks_exact(words) {
            next.push(seen.insert(key)?);
        }
    }
    for bits in &mut watched {
        bits.truncate(next.len().div_ceil(64));
    }
    // The entries some reachable state moves off power-up.
    let mut moved = vec![0; words];
    for key in seen.keys.chunks_exact(words) {
        for (m, (&x, &s)) in moved.iter_mut().zip(key.iter().zip(&start)) {
            *m |= x ^ s;
        }
    }
    let constant = prog.ffs().iter().enumerate();
    Some(Reach {
        states: seen.len(),
        keys: seen.keys,
        next,
        watched,
        constant: constant
            .filter(|&(e, _)| moved[e / 64] >> (e % 64) & 1 == 0)
            .map(|(_, &f)| f)
            .collect(),
    })
}

/// The carried entries `key` sets, in order.
fn ones(key: &[u64]) -> impl Iterator<Item = usize> + '_ {
    key.iter().enumerate().flat_map(|(k, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let e = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                e
            })
        })
    })
}

/// Writes word `c` of each of `keys`, lane `l`'s key: bit `l % 64` of
/// `entries` (carried entries `64c..64c + 64`) in lane word `l / 64`. One
/// 64 × 64 transpose per lane word, the first `N` lane words side by
/// side.
fn key_words<'a, const N: usize>(
    entries: &[[u64; W]],
    c: usize,
    keys: impl Iterator<Item = &'a mut [u64]>,
) {
    let mut m = [[0u64; N]; 64];
    for (row, group) in m.iter_mut().zip(entries) {
        row.copy_from_slice(&group[..N]);
    }
    transpose(&mut m);
    for (l, key) in keys.enumerate() {
        key[c] = m[l % LANES][l / LANES];
    }
}

/// Transposes the `N` 64 × 64 bit matrices `m` holds side by side (word
/// `w` of every row is matrix `w`) in place: bit `c` of row `r` trades
/// places with bit `r` of row `c`.
fn transpose<const N: usize>(m: &mut [[u64; N]; 64]) {
    swap_blocks::<32, N>(m, 0x0000_0000_ffff_ffff);
    swap_blocks::<16, N>(m, 0x0000_ffff_0000_ffff);
    swap_blocks::<8, N>(m, 0x00ff_00ff_00ff_00ff);
    swap_blocks::<4, N>(m, 0x0f0f_0f0f_0f0f_0f0f);
    swap_blocks::<2, N>(m, 0x3333_3333_3333_3333);
    swap_blocks::<1, N>(m, 0x5555_5555_5555_5555);
}

/// One stage of [`transpose`]: in every block of `2J` rows, bit `c + J`
/// of each of the first `J` rows trades places with bit `c` of the row
/// `J` below it, for each bit `c` of `low` (the low `J` bits of every
/// `2J`).
#[inline(always)]
fn swap_blocks<const J: usize, const N: usize>(m: &mut [[u64; N]; 64], low: u64) {
    for k in (0..64).step_by(2 * J) {
        for i in k..k + J {
            let (mut a, mut b) = (m[i], m[i + J]);
            for w in 0..N {
                let t = (a[w] >> J ^ b[w]) & low;
                a[w] ^= t << J;
                b[w] ^= t;
            }
            (m[i], m[i + J]) = (a, b);
        }
    }
}

/// ORs the 64 bits of `x` into the bit vector `bits` from bit `at` on,
/// growing it as needed.
fn or_at(bits: &mut Vec<u64>, at: usize, x: u64) {
    let (q, r) = (at / 64, at % 64);
    if bits.len() < q + 2 {
        bits.resize(q + 2, 0);
    }
    bits[q] |= x << r;
    if r != 0 {
        bits[q + 1] |= x >> (64 - r);
    }
}

/// The lane group whose bit `l` (lane `l` of a pass) is bit `j` of `l`.
fn lane_bit(j: usize) -> [u64; W] {
    let within = (0..LANES)
        .filter(|b| b >> j & 1 == 1)
        .fold(0, |m, b| m | 1 << b);
    std::array::from_fn(|w| within | 0u64.wrapping_sub(((w * LANES) >> j & 1) as u64))
}

/// A set of at most `capacity` packed states of `words` words each: the
/// keys in insertion order, flat (the search's queue), and
/// open-addressing buckets, linearly probed by a hash of the key, holding
/// a key's index plus one (0 for an empty bucket), at least twice as many
/// buckets as keys.
struct KeySet {
    words: usize,
    keys: Vec<u64>,
    capacity: usize,
    buckets: Vec<u32>,
}

impl KeySet {
    /// An empty set of at most `capacity` keys of `words` words.
    fn new(words: usize, capacity: usize) -> KeySet {
        KeySet {
            words,
            keys: Vec::new(),
            capacity,
            buckets: vec![0; (2 * capacity.min(1 << 11)).next_power_of_two()],
        }
    }

    /// Number of keys.
    fn len(&self) -> usize {
        self.keys.len() / self.words
    }

    /// Key number `k`.
    fn key(&self, k: usize) -> &[u64] {
        &self.keys[k * self.words..(k + 1) * self.words]
    }

    /// The first empty bucket of `key`'s probe sequence, or the index of
    /// `key` when it is in the set.
    fn find(&self, key: &[u64]) -> Result<u32, usize> {
        let hash = key.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        });
        let mask = self.buckets.len() - 1;
        let mut b = (hash >> 32) as usize & mask;
        while let Some(i) = self.buckets[b].checked_sub(1) {
            if self.key(i as usize) == key {
                return Ok(i);
            }
            b = (b + 1) & mask;
        }
        Err(b)
    }

    /// Adds `key` if it is new: its index, or `None` when it is new and
    /// the set is full.
    fn insert(&mut self, key: &[u64]) -> Option<u32> {
        let b = match self.find(key) {
            Ok(i) => return Some(i),
            Err(b) => b,
        };
        let k = self.len();
        if k == self.capacity {
            return None;
        }
        self.keys.extend_from_slice(key);
        self.buckets[b] = k as u32 + 1;
        if 2 * (k + 1) > self.buckets.len() {
            self.buckets = vec![0; 2 * self.buckets.len()];
            for i in 0..=k {
                let b = self.find(self.key(i)).expect_err("keys are distinct");
                self.buckets[b] = i as u32 + 1;
            }
        }
        Some(k as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Netlist;

    /// A `bits`-bit binary counter stepping every cycle: every one of its
    /// `2^bits` states is reachable, each with one transition.
    fn counter(bits: usize) -> Program {
        let mut n = Netlist::new("counter");
        let mut carry = n.constant(true);
        for _ in 0..bits {
            let bit = n.dff(false);
            let d = n.xor(bit, carry);
            n.bind_dff(bit, d).unwrap();
            carry = n.and2(bit, carry);
        }
        Program::compile_optimized(&n).unwrap().0
    }

    #[test]
    fn transpose_moves_every_bit_across_the_diagonal() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut m: [[u64; W]; 64] = std::array::from_fn(|_| {
            std::array::from_fn(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
        });
        let before = m;
        transpose(&mut m);
        for (r, c, w) in
            (0..64).flat_map(|r| (0..64).flat_map(move |c| (0..W).map(move |w| (r, c, w))))
        {
            assert_eq!(
                m[c][w] >> r & 1,
                before[r][w] >> c & 1,
                "row {r}, column {c}, word {w}"
            );
        }
    }

    #[test]
    fn search_runs_to_the_budget_and_no_further() {
        let fits = search(&counter(10), &[], &[], SEARCH_BUDGET).unwrap();
        assert_eq!((fits.states, fits.next.len()), (1024, SEARCH_BUDGET));
        assert!(fits.constant.is_empty());
        // State `k` counts to `k` and steps to `k + 1`.
        assert!(fits
            .next
            .iter()
            .enumerate()
            .all(|(k, &n)| n as usize == (k + 1) % 1024));
        assert_eq!(search(&counter(11), &[], &[], SEARCH_BUDGET), None);
        assert_eq!(search(&counter(10), &[], &[], SEARCH_BUDGET - 1), None);
    }

    #[test]
    fn search_explores_an_alphabet_wider_than_a_pass() {
        // A flip-flop capturing the AND of ten inputs, each input watched:
        // ten free inputs take two passes per state, nine (one held) fill
        // exactly one pass per state, eight and seven fill four and two
        // lane words of one, and holding one at 0 pins the flip-flop.
        let mut n = Netlist::new("wide");
        let inputs: Vec<_> = (0..10).map(|i| n.input(format!("in{i}"))).collect();
        let all = n.and(inputs.clone());
        let q = n.dff_bound(all, false);
        n.mark_output(q).unwrap();
        let p = Program::compile(&n).unwrap();
        let watch: Vec<u32> = inputs.iter().chain([&all]).map(|i| i.0).collect();
        let every = search(&p, &[], &watch, 2048).unwrap();
        assert_eq!((every.states, every.next.len()), (2, 2048));
        // Pair `p` assigns bit `j` of `p mod 1024` to input `j`; only the
        // all-ones assignment sets the flip-flop, from either state.
        let bit = |bits: &[u64], pair: usize| bits[pair / 64] >> (pair % 64) & 1 == 1;
        for (pair, &succ) in every.next.iter().enumerate() {
            assert_eq!(succ == 1, pair % 1024 == 1023, "pair {pair}");
            assert_eq!(bit(&every.watched[10], pair), pair % 1024 == 1023);
            for (j, bits) in every.watched[..10].iter().enumerate() {
                assert_eq!(bit(bits, pair), pair >> j & 1 == 1, "pair {pair}");
            }
        }
        assert_eq!(search(&p, &[], &[], 2047), None);
        let one = search(&p, &[(inputs[0].0, true)], &[], SEARCH_BUDGET).unwrap();
        assert_eq!((one.states, one.next.len()), (2, 1024));
        assert!(one.constant.is_empty());
        for held in [2, 3] {
            let fixed: Vec<_> = inputs[..held].iter().map(|i| (i.0, true)).collect();
            let alphabet = 1 << (10 - held);
            let r = search(&p, &fixed, &[], SEARCH_BUDGET).unwrap();
            assert_eq!((r.states, r.next.len()), (2, 2 * alphabet));
            for (pair, &succ) in r.next.iter().enumerate() {
                assert_eq!(
                    succ == 1,
                    pair % alphabet == alphabet - 1,
                    "{held} held, pair {pair}"
                );
            }
        }
        let zero = search(&p, &[(inputs[0].0, false)], &[], SEARCH_BUDGET).unwrap();
        assert_eq!((zero.states, zero.constant), (1, p.ffs().to_vec()));
    }

    #[test]
    fn search_gives_up_on_sixty_four_free_inputs() {
        // 2^64 pairs per state: past any budget, and no shift overflows.
        let mut n = Netlist::new("word");
        let inputs: Vec<_> = (0..64).map(|i| n.input(format!("in{i}"))).collect();
        let q = n.dff_bound(inputs[0], false);
        n.mark_output(q).unwrap();
        let p = Program::compile(&n).unwrap();
        assert_eq!(search(&p, &[], &[], usize::MAX), None);
    }

    #[test]
    fn search_keys_states_of_any_width() {
        // `width` flip-flops, the even ones toggling together and the odd
        // ones recapturing their power-up value: two states, told apart
        // in every key word, and every odd flip-flop constant.
        let program = |width: usize| {
            let mut n = Netlist::new("keys");
            for i in 0..width {
                let q = n.dff(i % 3 == 0);
                let d = if i % 2 == 0 { n.not(q) } else { q };
                n.bind_dff(q, d).unwrap();
            }
            Program::compile(&n).unwrap()
        };
        for width in [1, 64, 256, 257] {
            let p = program(width);
            let reach = search(&p, &[], &[], SEARCH_BUDGET).unwrap();
            assert_eq!((reach.states, &reach.next[..]), (2, &[1, 0][..]), "{width}");
            assert_eq!(reach.keys.len(), 2 * width.div_ceil(64));
            let odd: Vec<FfCommit> = p.ffs().iter().copied().skip(1).step_by(2).collect();
            assert_eq!(reach.constant, odd);
            for (e, f) in p.ffs().iter().enumerate() {
                let word = |k: usize| reach.keys[k * width.div_ceil(64) + e / 64];
                let bit = |k: usize| word(k) >> (e % 64) & 1 == 1;
                assert_eq!(bit(0), p.init()[f.q as usize]);
                assert_eq!(bit(1), bit(0) ^ (e % 2 == 0));
            }
        }
    }
}
