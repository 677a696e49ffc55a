//! Exact reachable-state search over a levelized [`Program`], on the
//! bit-parallel backend.
//!
//! A cycle of a program depends on its inputs and on its carried state
//! ([`WideSim::read_carried`]): the flip-flop captures and the
//! [`Program::carried_slots`]. [`search`] enumerates every carried state
//! reachable from power-up with some inputs held at constants and every
//! other input free, breadth first: one [`WideSim<8>`](WideSim) cycle
//! runs 512 (state, input) pairs, each lane loaded with a state and
//! driven with one assignment of the free inputs. States are keyed as
//! packed words in a fixed-size open-addressing set. The search is
//! budgeted: past [`SEARCH_BUDGET`] transitions, or on a state or an
//! alphabet too wide for its keys, it gives up.
//!
//! [`Program::fold_inputs`] runs it to find the flip-flops whose capture
//! never leaves its power-up value, which the fixed inputs pin though no
//! literal scan of one cycle shows it.

use crate::levelize::{FfCommit, Program};
use crate::wide::{lane_masks, WideSim, LANES};

/// Words of the simulator a search pass runs on.
const W: usize = 8;
/// (state, input) pairs one search pass runs, one per lane.
const PASS_LANES: usize = W * LANES;

/// The most (state, input) transitions [`search`] runs, two full passes:
/// a search that would run more gives up. Under the Table 1 environment,
/// 32 of the 35 Fig. 9 and corpus systems finish within it (11–201
/// states of 2–16 input assignments, 32–804 transitions, 5–11 passes) in
/// 6–32 µs; the other three Fig. 9 configurations reach 4069–12,281
/// states (65k–196k transitions), which an uncapped search enumerated in
/// 3.2–9.6 ms, about as long as a whole `table1` point of theirs
/// (3.7–5.8 ms), and give up here after about 20 µs (2-vCPU Xeon VM;
/// BENCH.md records the census).
pub const SEARCH_BUDGET: usize = 1024;

/// Words of a packed state key: a search keys at most `64 · KEY_WORDS`
/// carried bits.
const KEY_WORDS: usize = 4;

/// A carried state, packed: entry `e` of [`WideSim::read_carried`]'s
/// order is bit `e % 64` of word `e / 64`.
type Key = [u64; KEY_WORDS];

/// What a completed [`search`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reach {
    /// Distinct carried states reachable from power-up, power-up itself
    /// included.
    pub states: usize,
    /// (state, input) transitions run: `states` times the alphabet, two
    /// to the number of free inputs.
    pub transitions: usize,
    /// The flip-flops of [`Program::ffs`], in order, whose capture is
    /// their power-up value in every reachable state: on every run from
    /// power-up with the held inputs at their values, they never leave
    /// it.
    pub constant: Vec<FfCommit>,
}

/// Enumerates the carried states of `prog` reachable from power-up with
/// the inputs of `fixed` (`(slot, value)` pairs) held at their values and
/// every other input free. `None` when the search gives up: the reachable
/// states times the alphabet exceed [`SEARCH_BUDGET`], the alphabet needs
/// more than the 512 lanes of a pass, or a state holds more than 256
/// carried bits. A slot of `fixed` that is not an input of `prog` holds
/// nothing.
pub fn search(prog: &Program, fixed: &[(u32, bool)]) -> Option<Reach> {
    let held = |s: u32| fixed.iter().find(|&&(f, _)| f == s).map(|&(_, v)| v);
    let slots: Vec<u32> = prog.inputs().iter().map(|i| i.index() as u32).collect();
    let free = slots.iter().filter(|&&s| held(s).is_none()).count();
    let width = prog.ffs().len() + prog.carried_slots().len();
    if free > PASS_LANES.ilog2() as usize || width > 64 * KEY_WORDS {
        return None;
    }
    let alphabet = 1 << free;
    // Lane `l` of a pass runs assignment `l mod alphabet`: free input `j`
    // reads bit `j` of the lane index, so every pass reads one row.
    let mut j = 0;
    let mut row = Vec::with_capacity(slots.len() * W);
    for &s in &slots {
        row.extend(match held(s) {
            Some(v) => [0u64.wrapping_sub(u64::from(v)); W],
            None => {
                j += 1;
                lane_bit(j - 1)
            }
        });
    }
    let init = prog.init();
    let mut start: Key = [0; KEY_WORDS];
    let entries = prog.ffs().iter().map(|f| f.q);
    for (e, s) in entries
        .chain(prog.carried_slots().iter().copied())
        .enumerate()
    {
        start[e / 64] |= u64::from(init[s as usize]) << (e % 64);
    }
    let mut seen = KeySet::new(SEARCH_BUDGET / alphabet);
    seen.insert(start)?;
    let mut moved: Key = [0; KEY_WORDS];
    let mut sim = WideSim::<W>::from_program(prog.clone());
    let mut load = vec![[0u64; W]; width];
    let mut out = vec![[0u64; W]; width];
    let mut next = vec![[0u64; KEY_WORDS]; PASS_LANES];
    let mut expanded = 0;
    while expanded < seen.keys.len() {
        let batch = seen.keys.len().min(expanded + PASS_LANES / alphabet) - expanded;
        load.fill([0; W]);
        for (p, key) in seen.keys[expanded..expanded + batch].iter().enumerate() {
            // The state's lanes, `p · alphabet` up to the next state's.
            let below = lane_masks::<W>(p * alphabet);
            let lanes = lane_masks::<W>((p + 1) * alphabet);
            for e in ones(key) {
                for w in 0..W {
                    load[e][w] |= lanes[w] & !below[w];
                }
            }
        }
        sim.load_carried(&load, [u64::MAX; W])
            .expect("one group per carried entry");
        sim.cycle_packed(&slots, &row);
        sim.read_carried(&mut out);
        let used = batch * alphabet;
        let live = lane_masks::<W>(used);
        next[..used].fill([0; KEY_WORDS]);
        for (e, group) in out.iter().enumerate() {
            for w in 0..W {
                let mut bits = group[w] & live[w];
                while bits != 0 {
                    next[w * LANES + bits.trailing_zeros() as usize][e / 64] |= 1 << (e % 64);
                    bits &= bits - 1;
                }
            }
        }
        expanded += batch;
        for key in &next[..used] {
            if seen.insert(*key)? {
                for k in 0..KEY_WORDS {
                    moved[k] |= key[k] ^ start[k];
                }
            }
        }
    }
    let states = seen.keys.len();
    let constant = prog.ffs().iter().enumerate();
    Some(Reach {
        states,
        transitions: states * alphabet,
        constant: constant
            .filter(|&(e, _)| moved[e / 64] >> (e % 64) & 1 == 0)
            .map(|(_, &f)| f)
            .collect(),
    })
}

/// The carried entries `key` sets, in order.
fn ones(key: &Key) -> impl Iterator<Item = usize> + '_ {
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

/// The lane group whose bit `l` (lane `l` of a pass) is bit `j` of `l`.
fn lane_bit(j: usize) -> [u64; W] {
    let within = (0..LANES)
        .filter(|b| b >> j & 1 == 1)
        .fold(0, |m, b| m | 1 << b);
    std::array::from_fn(|w| within | 0u64.wrapping_sub(((w * LANES) >> j & 1) as u64))
}

/// A set of packed states of fixed capacity: the keys in insertion order
/// (the search's queue) and open-addressing buckets, linearly probed by a
/// hash of the key, holding a key's index plus one (0 for an empty
/// bucket), at least twice as many buckets as keys.
struct KeySet {
    keys: Vec<Key>,
    capacity: usize,
    buckets: Vec<u32>,
}

impl KeySet {
    /// An empty set of `capacity` keys.
    fn new(capacity: usize) -> KeySet {
        KeySet {
            keys: Vec::with_capacity(capacity),
            capacity,
            buckets: vec![0; (2 * capacity).next_power_of_two()],
        }
    }

    /// Adds `key`: whether it was new, or `None` when it is new and the
    /// set is full.
    fn insert(&mut self, key: Key) -> Option<bool> {
        let hash = key.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        });
        let mask = self.buckets.len() - 1;
        let mut b = (hash >> 32) as usize & mask;
        while let Some(i) = self.buckets[b].checked_sub(1) {
            if self.keys[i as usize] == key {
                return Some(false);
            }
            b = (b + 1) & mask;
        }
        if self.keys.len() == self.capacity {
            return None;
        }
        self.buckets[b] = self.keys.len() as u32 + 1;
        self.keys.push(key);
        Some(true)
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
    fn search_runs_to_the_budget_and_no_further() {
        let fits = search(&counter(10), &[]).unwrap();
        assert_eq!((fits.states, fits.transitions), (1024, SEARCH_BUDGET));
        assert!(fits.constant.is_empty());
        assert_eq!(search(&counter(11), &[]), None);
    }

    #[test]
    fn search_gives_up_on_an_alphabet_wider_than_a_pass() {
        // A flip-flop capturing the AND of ten inputs: ten free inputs need
        // 1024 lanes per state, nine (one held) fill exactly one pass per
        // state, and holding one at 0 pins the flip-flop.
        let mut n = Netlist::new("wide");
        let inputs: Vec<_> = (0..10).map(|i| n.input(format!("in{i}"))).collect();
        let all = n.and(inputs.clone());
        let q = n.dff_bound(all, false);
        n.mark_output(q).unwrap();
        let (p, _) = Program::compile_optimized(&n).unwrap();
        assert_eq!(search(&p, &[]), None);
        let one = search(&p, &[(inputs[0].0, true)]).unwrap();
        assert_eq!((one.states, one.transitions), (2, 1024));
        assert!(one.constant.is_empty());
        let zero = search(&p, &[(inputs[0].0, false)]).unwrap();
        assert_eq!((zero.states, zero.constant), (1, p.ffs().to_vec()));
    }

    #[test]
    fn search_keys_states_of_up_to_four_words() {
        // `width` flip-flops, the even ones toggling together and the odd
        // ones recapturing their power-up value: two states, told apart
        // in every key word, and every odd flip-flop constant. One
        // flip-flop past four words and the search gives up.
        let program = |width: usize| {
            let mut n = Netlist::new("keys");
            for i in 0..width {
                let q = n.dff(i % 3 == 0);
                let d = if i % 2 == 0 { n.not(q) } else { q };
                n.bind_dff(q, d).unwrap();
            }
            Program::compile(&n).unwrap()
        };
        let p = program(64 * KEY_WORDS);
        let reach = search(&p, &[]).unwrap();
        assert_eq!(reach.states, 2);
        let odd: Vec<FfCommit> = p.ffs().iter().copied().skip(1).step_by(2).collect();
        assert_eq!(reach.constant, odd);
        assert_eq!(search(&program(64 * KEY_WORDS + 1), &[]), None);
    }
}
