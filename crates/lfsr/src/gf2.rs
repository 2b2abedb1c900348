//! Dense linear algebra over GF(2).
//!
//! LFSRs are linear circuits: their next state is a linear function of the
//! current state and the injected seed bits. Everything the paper argues
//! about the key register — controllability through reseeding, the size of
//! the XOR trees an attacker would need (threat (d)) — reduces to GF(2)
//! matrix arithmetic, implemented here on `u64`-packed rows.

use std::fmt;

/// A bit vector over GF(2), packed 64 bits per word.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// An all-zero vector of the given length.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Builds from booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// XOR-accumulates `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether all bits are zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Dot product over GF(2) (parity of AND).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        let acc: u64 = self
            .words
            .iter()
            .zip(&other.words)
            .fold(0, |acc, (a, b)| acc ^ (a & b));
        acc.count_ones() % 2 == 1
    }

    /// Iterates over the bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Converts to a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Indices of the set bits.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

/// A dense matrix over GF(2), stored row-major as [`BitVec`]s.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    data: Vec<BitVec>,
}

impl BitMatrix {
    /// The `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMatrix {
            rows,
            cols,
            data: vec![BitVec::zeros(cols); rows],
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.data[r].get(c)
    }

    /// Writes entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.data[r].set(c, value);
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row(&self, r: usize) -> &BitVec {
        &self.data[r]
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        let mut out = BitVec::zeros(self.rows);
        for (r, row) in self.data.iter().enumerate() {
            out.set(r, row.dot(v));
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn mul(&self, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = BitMatrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in self.data[r].ones() {
                let row = other.row(k).clone();
                out.data[r].xor_assign(&row);
            }
        }
        out
    }

    /// XOR-accumulates another matrix.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn xor_assign(&mut self, other: &BitMatrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            a.xor_assign(b);
        }
    }

    /// Rank via Gaussian elimination (destructive on a copy).
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let mut rank = 0;
        for col in 0..m.cols {
            if rank == m.rows {
                break;
            }
            let pivot = (rank..m.rows).find(|&r| m.get(r, col));
            if let Some(p) = pivot {
                m.data.swap(rank, p);
                let pivot_row = m.data[rank].clone();
                for r in 0..m.rows {
                    if r != rank && m.get(r, col) {
                        m.data[r].xor_assign(&pivot_row);
                    }
                }
                rank += 1;
            }
        }
        rank
    }

    /// Solves `self * x = b`, returning one solution if consistent.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != rows`.
    pub fn solve(&self, b: &BitVec) -> Option<BitVec> {
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        // Gaussian elimination on the augmented matrix.
        let mut m = self.clone();
        let mut rhs = b.clone();
        let mut pivots: Vec<(usize, usize)> = Vec::new(); // (row, col)
        let mut rank = 0;
        for col in 0..m.cols {
            if rank == m.rows {
                break;
            }
            if let Some(p) = (rank..m.rows).find(|&r| m.get(r, col)) {
                m.data.swap(rank, p);
                let (ra, rb) = (rhs.get(rank), rhs.get(p));
                rhs.set(rank, rb);
                rhs.set(p, ra);
                let pivot_row = m.data[rank].clone();
                let pivot_rhs = rhs.get(rank);
                for r in 0..m.rows {
                    if r != rank && m.get(r, col) {
                        m.data[r].xor_assign(&pivot_row);
                        let v = rhs.get(r) ^ pivot_rhs;
                        rhs.set(r, v);
                    }
                }
                pivots.push((rank, col));
                rank += 1;
            }
        }
        // Inconsistency: a zero row with rhs 1.
        for r in rank..m.rows {
            if rhs.get(r) {
                return None;
            }
        }
        let mut x = BitVec::zeros(m.cols);
        for &(r, c) in &pivots {
            x.set(c, rhs.get(r));
        }
        Some(x)
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{}", u8::from(self.get(r, c)))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec_basics() {
        let mut v = BitVec::zeros(100);
        assert!(v.is_zero());
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(99, true);
        assert_eq!(v.count_ones(), 4);
        assert!(v.get(63));
        assert!(v.get(64));
        v.flip(64);
        assert!(!v.get(64));
        assert_eq!(v.ones().collect::<Vec<_>>(), vec![0, 63, 99]);
    }

    #[test]
    fn bitvec_xor_and_dot() {
        let a = BitVec::from_bools(&[true, true, false, true]);
        let b = BitVec::from_bools(&[true, false, false, true]);
        let mut c = a.clone();
        c.xor_assign(&b);
        assert_eq!(c.to_bools(), vec![false, true, false, false]);
        // dot = parity(11 & 10, ...) -> bits where both set: 0 and 3 -> even
        assert!(!a.dot(&b));
        let d = BitVec::from_bools(&[true, false, false, false]);
        assert!(a.dot(&d));
    }

    #[test]
    fn identity_multiplication() {
        let id = BitMatrix::identity(20);
        let v = BitVec::from_bools(&(0..20).map(|i| i % 3 == 0).collect::<Vec<_>>());
        assert_eq!(id.mul_vec(&v), v);
        assert_eq!(id.mul(&id), id);
    }

    #[test]
    fn matrix_multiply_known() {
        // [[1,1],[0,1]] * [1,0]^T = [1,0]^T; * [0,1]^T = [1,1]^T
        let mut m = BitMatrix::zeros(2, 2);
        m.set(0, 0, true);
        m.set(0, 1, true);
        m.set(1, 1, true);
        assert_eq!(
            m.mul_vec(&BitVec::from_bools(&[true, false])).to_bools(),
            vec![true, false]
        );
        assert_eq!(
            m.mul_vec(&BitVec::from_bools(&[false, true])).to_bools(),
            vec![true, true]
        );
    }

    #[test]
    fn rank_of_identity_and_singular() {
        assert_eq!(BitMatrix::identity(17).rank(), 17);
        let mut m = BitMatrix::zeros(3, 3);
        m.set(0, 0, true);
        m.set(1, 0, true); // duplicate row
        assert_eq!(m.rank(), 1);
        assert_eq!(BitMatrix::zeros(4, 4).rank(), 0);
    }

    #[test]
    fn solve_consistent_system() {
        // x0 ^ x1 = 1; x1 = 1 -> x0 = 0, x1 = 1
        let mut m = BitMatrix::zeros(2, 2);
        m.set(0, 0, true);
        m.set(0, 1, true);
        m.set(1, 1, true);
        let b = BitVec::from_bools(&[true, true]);
        let x = m.solve(&b).expect("consistent");
        assert_eq!(m.mul_vec(&x), b);
        assert_eq!(x.to_bools(), vec![false, true]);
    }

    #[test]
    fn solve_inconsistent_system() {
        // x0 = 0 and x0 = 1
        let mut m = BitMatrix::zeros(2, 1);
        m.set(0, 0, true);
        m.set(1, 0, true);
        let b = BitVec::from_bools(&[false, true]);
        assert_eq!(m.solve(&b), None);
    }

    #[test]
    fn solve_underdetermined_returns_valid_solution() {
        // One equation, three unknowns: x0 ^ x2 = 1.
        let mut m = BitMatrix::zeros(1, 3);
        m.set(0, 0, true);
        m.set(0, 2, true);
        let b = BitVec::from_bools(&[true]);
        let x = m.solve(&b).expect("consistent");
        assert_eq!(m.mul_vec(&x), b);
    }

    #[test]
    fn solve_random_roundtrip() {
        // Build random invertible-ish systems and verify A*x = b always holds
        // for returned solutions.
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..50 {
            let n = 3 + (next() % 10) as usize;
            let mut m = BitMatrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    m.set(r, c, next() & 1 == 1);
                }
            }
            let xs = BitVec::from_bools(&(0..n).map(|_| next() & 1 == 1).collect::<Vec<_>>());
            let b = m.mul_vec(&xs);
            let sol = m.solve(&b).expect("constructed to be consistent");
            assert_eq!(m.mul_vec(&sol), b);
        }
    }
}
