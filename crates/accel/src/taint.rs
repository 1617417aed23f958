//! The elements of a fork's memory that may hold non-golden bits.
//!
//! A forked run tracks its perturbation element by element: a tile's
//! stores taint exactly the elements whose bits differ from golden's at
//! the same instant, and clear the rest. Elements are named by their
//! global address, the flat byte address over 8, so one set covers every
//! buffer; a cache line `l` of `b` bytes holds elements `l·b/8 ..
//! (l + 1)·b/8`.

use std::ops::Range;

use crate::memory::BufferId;

/// A set of global element addresses, one bit each, with a count of set
/// elements per buffer. It grows to the highest element ever tainted and
/// is reset, not freed, between forks.
#[derive(Debug, Default)]
pub(crate) struct TaintSet {
    words: Vec<u64>,
    /// Set elements per buffer, by [`BufferId::index`].
    counts: Vec<usize>,
    /// The buffers whose count is not zero, as a [`BufferId::bit`] set.
    buffers: u64,
    /// Words outside `dirty` are zero.
    dirty: Range<usize>,
}

impl TaintSet {
    /// The buffers holding a tainted element, as a [`BufferId::bit`] set.
    pub(crate) fn buffers(&self) -> u64 {
        self.buffers
    }

    /// Whether no element is tainted.
    pub(crate) fn is_empty(&self) -> bool {
        self.buffers == 0
    }

    /// Whether any element in `range` is tainted.
    pub(crate) fn any(&self, range: Range<usize>) -> bool {
        let end = range.end.min(self.words.len() * 64);
        if range.start >= end {
            return false;
        }
        (range.start / 64..=(end - 1) / 64).any(|w| self.words[w] & Self::mask(w, &range) != 0)
    }

    /// Taints (`value`) or clears the elements in `range`, all in `buf`.
    /// A clear touches only the words that may hold a set bit.
    pub(crate) fn fill(&mut self, buf: BufferId, range: Range<usize>, value: bool) {
        if value {
            self.assign(buf, range, |_, mask| mask);
        } else {
            let (lo, hi) = (self.dirty.start * 64, self.dirty.end * 64);
            self.assign(buf, range.start.max(lo)..range.end.min(hi), |_, _| 0);
        }
    }

    /// Taints the elements of `buf` from global address `at` whose bits
    /// in `actual` differ from `golden`'s, and clears the rest.
    pub(crate) fn compare(&mut self, buf: BufferId, at: usize, actual: &[f64], golden: &[f64]) {
        let len = actual.len().min(golden.len());
        self.assign(buf, at..at + len, |w, mask| {
            (0..64)
                .filter(|&k| mask >> k & 1 != 0)
                .map(|k| w * 64 + k - at)
                .filter(|&i| actual[i].to_bits() != golden[i].to_bits())
                .fold(0, |bits, i| bits | 1 << ((at + i) % 64))
        });
    }

    /// Empties the set, keeping its allocation.
    pub(crate) fn reset(&mut self) {
        if let Some(words) = self.words.get_mut(self.dirty.clone()) {
            words.fill(0);
        }
        self.counts.fill(0);
        self.buffers = 0;
        self.dirty = 0..0;
    }

    /// The bits of word `w` that `range` covers.
    fn mask(w: usize, range: &Range<usize>) -> u64 {
        let lo = range.start.max(w * 64) - w * 64;
        let hi = range.end.min(w * 64 + 64) - w * 64;
        (u64::MAX >> (64 - (hi - lo))) << lo
    }

    /// Sets the elements of `range`, all in `buf`, word by word: word
    /// `w`'s bits under `mask` (the range's part of it) to `bits(w, mask)`.
    fn assign(
        &mut self,
        buf: BufferId,
        range: Range<usize>,
        mut bits: impl FnMut(usize, u64) -> u64,
    ) {
        if range.is_empty() {
            return;
        }
        let words = range.start / 64..(range.end - 1) / 64 + 1;
        if self.words.len() < words.end {
            self.words.resize(words.end, 0);
        }
        if self.counts.len() <= buf.index() {
            self.counts.resize(buf.index() + 1, 0);
        }
        self.dirty = if self.dirty.is_empty() {
            words.clone()
        } else {
            self.dirty.start.min(words.start)..self.dirty.end.max(words.end)
        };
        let mut count = self.counts[buf.index()];
        for w in words {
            let mask = Self::mask(w, &range);
            let old = self.words[w];
            let new = (old & !mask) | (bits(w, mask) & mask);
            count = count + new.count_ones() as usize - old.count_ones() as usize;
            self.words[w] = new;
        }
        self.counts[buf.index()] = count;
        if count == 0 {
            self.buffers &= !buf.bit();
        } else {
            self.buffers |= buf.bit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ranges that straddle word edges (64 elements) and line edges (16
    /// elements on the K40's 128-byte lines) insert, clear and answer
    /// element for element, and the per-buffer counts follow.
    #[test]
    fn ranges_straddling_word_and_line_edges_insert_clear_and_query_exactly() {
        let (a, b) = (BufferId(0), BufferId(2));
        let mut t = TaintSet::default();
        assert!(t.buffers() == 0 && !t.any(0..1000));
        t.fill(a, 60..70, true);
        t.fill(b, 190..200, true);
        let line = |l: usize| l * 16..(l + 1) * 16;
        assert!(t.any(line(3)) && t.any(line(4)) && !t.any(line(5)));
        assert!(!t.any(0..60) && t.any(59..61) && !t.any(70..190) && t.any(199..200));
        assert!(!t.any(200..100_000), "past the end");
        assert_eq!(t.buffers(), a.bit() | b.bit());
        let words = t.words.len();
        t.fill(b, 1000..100_000, false);
        assert_eq!(t.words.len(), words, "a clear past the end grows nothing");
        t.fill(a, 63..65, false);
        assert!(!t.any(63..65) && t.any(62..63) && t.any(65..66));
        assert_eq!(t.counts[0], 8);
        t.fill(a, 0..128, false);
        assert_eq!(t.buffers(), b.bit());
        t.fill(b, 190..200, false);
        assert!(t.is_empty() && t.buffers() == 0 && !t.any(0..1000));
    }

    /// A compare taints exactly the elements whose bits differ — a
    /// negative zero and a NaN included — and clears the others, and a
    /// reset empties the set.
    #[test]
    fn a_compare_taints_differing_bits_and_a_reset_empties_the_set() {
        let buf = BufferId(1);
        let golden: Vec<f64> = (0..100).map(f64::from).collect();
        let mut actual = golden.clone();
        actual[0] = -0.0;
        actual[63] = f64::NAN;
        actual[64] += 1.0;
        let mut t = TaintSet::default();
        t.fill(buf, 30..130, true);
        t.compare(buf, 30, &actual, &golden);
        let set: Vec<usize> = (0..200).filter(|&e| t.any(e..e + 1)).collect();
        assert_eq!(set, [30, 93, 94]);
        assert_eq!(t.counts[1], 3);
        t.reset();
        assert!(t.is_empty() && !t.any(0..200));
        t.fill(buf, 5..6, true);
        assert_eq!((0..200).filter(|&e| t.any(e..e + 1)).count(), 1);
    }
}
