use std::fmt;

/// A dense bit-set over state indices `0..len`.
///
/// The work-horse of the fixpoint algorithms: all CTL operators reduce to
/// unions, intersections, complements and pre-image computations over these
/// sets.
#[derive(Clone, PartialEq, Eq)]
pub struct StateSet {
    blocks: Vec<u64>,
    len: usize,
}

impl StateSet {
    /// Empty set over a universe of `len` states.
    pub fn empty(len: usize) -> Self {
        StateSet {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Full set over a universe of `len` states.
    pub fn full(len: usize) -> Self {
        let mut s = StateSet {
            blocks: vec![!0u64; len.div_ceil(64)],
            len,
        };
        s.trim();
        s
    }

    /// The set of the states `i < len` whose bit `i % 64` of `blocks[i / 64]` is set.
    pub(crate) fn from_blocks(mut blocks: Vec<u64>, len: usize) -> Self {
        blocks.resize(len.div_ceil(64), 0);
        let mut s = StateSet { blocks, len };
        s.trim();
        s
    }

    fn trim(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Inserts state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe()`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "state {i} outside universe {}", self.len);
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe()`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "state {i} outside universe {}", self.len);
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.blocks[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of states in the set.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn union_with(&mut self, other: &StateSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn intersect_with(&mut self, other: &StateSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn subtract(&mut self, other: &StateSet) {
        assert_eq!(self.len, other.len, "universe mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Complement within the universe.
    pub fn complement(&self) -> StateSet {
        let mut out = self.clone();
        for b in &mut out.blocks {
            *b = !*b;
        }
        out.trim();
        out
    }

    /// Whether `self ⊆ other`.
    ///
    /// # Panics
    ///
    /// Panics on universe mismatch.
    pub fn is_subset(&self, other: &StateSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over member state indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(move |(bi, &block)| {
                let mut b = block;
                std::iter::from_fn(move || {
                    if b == 0 {
                        None
                    } else {
                        let t = b.trailing_zeros() as usize;
                        b &= b - 1;
                        Some(bi * 64 + t)
                    }
                })
            })
    }
}

impl FromIterator<usize> for StateSet {
    /// Collects indices into a set whose universe is `max + 1`.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |m| m + 1);
        let mut s = StateSet::empty(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StateSet{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            if k > 20 {
                write!(f, ",…")?;
                break;
            }
        }
        write!(f, "}}/{}", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = StateSet::empty(100);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(63) && s.contains(64));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 4);
        s.remove(63);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn full_and_complement_respect_universe() {
        let f = StateSet::full(70);
        assert_eq!(f.count(), 70);
        let e = f.complement();
        assert!(e.is_empty());
        assert_eq!(e.complement().count(), 70);
    }

    #[test]
    fn set_algebra() {
        let a: StateSet = [1usize, 2, 3].into_iter().collect();
        let mut b = StateSet::empty(a.universe());
        b.insert(3);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 3);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn iteration_order() {
        let s: StateSet = [65usize, 2, 130].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 65, 130]);
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn universe_mismatch_panics() {
        let mut a = StateSet::empty(10);
        let b = StateSet::empty(20);
        a.union_with(&b);
    }
}
