//! A compact bit vector used for state labellings and masks.

/// A fixed-length vector of bits.
///
/// # Example
///
/// ```
/// use smg_dtmc::BitVec;
///
/// let mut b = BitVec::zeros(100);
/// b.set(3, true);
/// b.set(64, true);
/// assert!(b.get(3) && b.get(64) && !b.get(4));
/// assert_eq!(b.count_ones(), 2);
/// assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 64]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector of the given length.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one bit vector of the given length.
    pub fn ones(len: usize) -> Self {
        let mut b = BitVec {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Builds a bit vector by evaluating `f` at every index.
    pub fn from_fn<F: FnMut(usize) -> bool>(len: usize, mut f: F) -> Self {
        let mut b = BitVec::zeros(len);
        for i in 0..len {
            if f(i) {
                b.set(i, true);
            }
        }
        b
    }

    /// Builds a bit vector by evaluating `f` at every index, filling whole
    /// 64-bit words in parallel chunks on the engine's worker pool when its
    /// dispatch site picks that (see [`crate::par::Site`]; work: indices).
    /// Each word is produced by exactly one task from its own indices, so
    /// the result is bit-identical to [`BitVec::from_fn`] for every thread
    /// count — exploration uses this for per-proposition label assembly
    /// over large state spaces.
    pub fn from_fn_parallel<F: Fn(usize) -> bool + Sync>(len: usize, f: F) -> Self {
        /// Words per parallel chunk: 1024 words = 65536 indices, so only
        /// vectors of 128k+ indices split at all.
        const WORDS_PER_CHUNK: usize = 1_024;
        static LABELS: crate::par::Site = crate::par::Site::new("bitvec_labels");
        let mut words = vec![0u64; len.div_ceil(64)];
        let fill = |word_off: usize, chunk: &mut [u64]| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let base = (word_off + k) * 64;
                let mut word = 0u64;
                for b in 0..64.min(len - base) {
                    if f(base + b) {
                        word |= 1 << b;
                    }
                }
                *slot = word;
            }
        };
        LABELS.run(len, len, |parallel| {
            if parallel {
                crate::par::chunked_map(&mut words, WORDS_PER_CHUNK, fill);
            } else {
                fill(0, &mut words);
            }
        });
        BitVec { words, len }
    }

    fn clear_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// The number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Whether all bits are set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Bitwise NOT (within the vector's length).
    pub fn not(&self) -> BitVec {
        let mut out = BitVec {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.clear_tail();
        out
    }

    /// Bitwise AND with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn and(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise OR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn or(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Iterates over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bits: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over set-bit indices of a [`BitVec`], produced by
/// [`BitVec::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    bits: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bits.words.len() {
                return None;
            }
            self.current = self.bits.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.count_ones(), 0);
        assert!(!z.any());
        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.all());
        // Tail bits beyond len must not leak into count.
        assert_eq!(o.not().count_ones(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitVec::zeros(130);
        for i in (0..130).step_by(7) {
            b.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(b.get(i), i % 7 == 0, "bit {i}");
        }
        b.set(0, false);
        assert!(!b.get(0));
    }

    #[test]
    fn boolean_ops() {
        let a = BitVec::from_fn(100, |i| i % 2 == 0);
        let b = BitVec::from_fn(100, |i| i % 3 == 0);
        let and = a.and(&b);
        let or = a.or(&b);
        for i in 0..100 {
            assert_eq!(and.get(i), i % 6 == 0);
            assert_eq!(or.get(i), i % 2 == 0 || i % 3 == 0);
        }
        let n = a.not();
        for i in 0..100 {
            assert_eq!(n.get(i), i % 2 != 0);
        }
    }

    #[test]
    fn iter_ones_matches_get() {
        let b = BitVec::from_fn(200, |i| i % 13 == 5);
        let ones: Vec<usize> = b.iter_ones().collect();
        let expect: Vec<usize> = (0..200).filter(|i| i % 13 == 5).collect();
        assert_eq!(ones, expect);
    }

    #[test]
    fn from_fn_parallel_matches_from_fn() {
        // Sizes straddling the word boundary, the chunk boundary, and the
        // parallel threshold; the parallel constructor must agree bit for
        // bit (including the tail word) in every configuration.
        for len in [0usize, 1, 63, 64, 65, 1_000, 65_536, 200_003] {
            let seq = BitVec::from_fn(len, |i| i % 7 == 3 || i % 97 == 0);
            let par = BitVec::from_fn_parallel(len, |i| i % 7 == 3 || i % 97 == 0);
            assert_eq!(seq, par, "len={len}");
        }
    }

    #[test]
    fn empty_vector() {
        let b = BitVec::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
        assert!(!b.any());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_bounds_checked() {
        let b = BitVec::zeros(10);
        let _ = b.get(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_checked() {
        let _ = BitVec::zeros(3).and(&BitVec::zeros(4));
    }
}
