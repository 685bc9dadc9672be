//! Arithmetic over GF(2⁸), the finite field with 256 elements.
//!
//! Both the Reed–Solomon erasure code ([`crate::erasure`]) and Shamir secret
//! sharing ([`crate::shamir`]) operate on bytes interpreted as elements of
//! GF(2⁸) with the reduction polynomial `x⁸ + x⁴ + x³ + x² + 1` (0x11d), the
//! same field used by the original Jerasure/DepSky implementations.
//!
//! Multiplication and division use precomputed log/antilog tables built at
//! first use; addition and subtraction are both XOR. The erasure coder's
//! bulk work — a whole shard times one coefficient — goes through
//! [`mul_acc`], which has a vector form.

use std::sync::OnceLock;

/// The reduction polynomial for the field (x⁸ + x⁴ + x³ + x² + 1).
pub const POLY: u16 = 0x11d;

/// The multiplicative generator used to build the log tables.
pub const GENERATOR: u8 = 2;

struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        #[allow(clippy::needless_range_loop, reason = "i is also the value in `log`")]
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        // Duplicate so mul can index exp[log a + log b] without a modulo.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Addition in GF(2⁸): XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtraction in GF(2⁸): identical to addition (characteristic 2).
#[inline]
pub fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication in GF(2⁸).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Multiplicative inverse in GF(2⁸).
///
/// # Panics
///
/// Panics if `a` is zero (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(256)");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// Division in GF(2⁸): `a / b`.
///
/// # Panics
///
/// Panics if `b` is zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        return 0;
    }
    let t = tables();
    let log_a = t.log[a as usize] as usize;
    let log_b = t.log[b as usize] as usize;
    t.exp[(log_a + 255 - log_b) % 255]
}

/// Exponentiation in GF(2⁸): `base^exp` with `0⁰ = 1`.
pub fn pow(base: u8, exp: u32) -> u8 {
    if exp == 0 {
        return 1;
    }
    if base == 0 {
        return 0;
    }
    let t = tables();
    let log_b = t.log[base as usize] as u64;
    let e = (log_b * exp as u64) % 255;
    t.exp[e as usize]
}

/// Multiply-accumulate over a run of bytes, the inner loop of Reed–Solomon
/// coding: `dst[i] ^= coeff · src[i]`. Thirty-two bytes at a time go through
/// AVX2 when this CPU has it.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub fn mul_acc(coeff: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_acc over unequal runs");
    if coeff == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the feature `x86::mul_acc` is compiled for was detected on
        // this CPU on the line above.
        return unsafe { x86::mul_acc(coeff, src, dst) };
    }
    mul_acc_scalar(coeff, src, dst)
}

/// The portable multiply-accumulate, one lookup per byte in the coefficient's
/// row of products: the only path on a CPU without AVX2, and the reference
/// the accelerated one is tested against.
fn mul_acc_scalar(coeff: u8, src: &[u8], dst: &mut [u8]) {
    let mut row = [0u8; 256];
    for (b, product) in row.iter_mut().enumerate() {
        *product = mul(coeff, b as u8);
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= row[s as usize];
    }
}

/// Multiply-accumulate on AVX2. Multiplication by a constant is linear over
/// GF(2), so `coeff · s = coeff · (s & 0x0f) ^ coeff · (s & 0xf0)`: two
/// sixteen-entry tables, each looked up for 32 bytes by one `vpshufb`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    fn load(run: &[u8]) -> __m256i {
        assert_eq!(run.len(), 32);
        // SAFETY: `run` is 32 readable bytes (asserted above) and the load
        // is unaligned.
        unsafe { _mm256_loadu_si256(run.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx2")]
    fn store(run: &mut [u8], v: __m256i) {
        assert_eq!(run.len(), 32);
        // SAFETY: `run` is 32 writable bytes (asserted above) and the store
        // is unaligned.
        unsafe { _mm256_storeu_si256(run.as_mut_ptr().cast(), v) }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn mul_acc(coeff: u8, src: &[u8], dst: &mut [u8]) {
        // `vpshufb` looks up within each 16-byte half: the tables repeat.
        let low: [u8; 32] = std::array::from_fn(|n| super::mul(coeff, n as u8 & 0x0f));
        let high: [u8; 32] = std::array::from_fn(|n| super::mul(coeff, (n as u8) << 4));
        let (low_v, high_v) = (load(&low), load(&high));
        let nibble = _mm256_set1_epi8(0x0f);

        let mut src_runs = src.chunks_exact(32);
        let mut dst_runs = dst.chunks_exact_mut(32);
        for (s, d) in (&mut src_runs).zip(&mut dst_runs) {
            let s = load(s);
            let product = _mm256_xor_si256(
                _mm256_shuffle_epi8(low_v, _mm256_and_si256(s, nibble)),
                _mm256_shuffle_epi8(high_v, _mm256_and_si256(_mm256_srli_epi64(s, 4), nibble)),
            );
            store(d, _mm256_xor_si256(load(d), product));
        }
        // Fewer than 32 bytes are left: the same tables, a byte at a time.
        let tail = dst_runs.into_remainder().iter_mut();
        for (d, &s) in tail.zip(src_runs.remainder()) {
            *d ^= low[(s & 0x0f) as usize] ^ high[(s >> 4) as usize];
        }
    }
}

/// Evaluates a polynomial (coefficients in ascending degree order) at `x`
/// using Horner's rule.
pub fn poly_eval(coefficients: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in coefficients.iter().rev() {
        acc = add(mul(acc, x), c);
    }
    acc
}

/// A dense matrix over GF(2⁸), used by the erasure coder for encoding and
/// for inverting the decode matrix via Gauss–Jordan elimination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Creates a zero matrix of the given dimensions.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0u8; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Creates a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different lengths.
    pub fn from_rows(rows: Vec<Vec<u8>>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged matrix rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.into_iter().flatten().collect(),
        }
    }

    /// A Vandermonde matrix with `rows` rows and `cols` columns where entry
    /// `(i, j) = i^j`. Any `cols` rows of this matrix are linearly
    /// independent, which is the property the erasure code relies on.
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, pow(i as u8, j as u32));
            }
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

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix multiplication.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not agree.
    pub fn multiply(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in multiply");
        let mut out = Matrix::zero(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0 {
                    continue;
                }
                for j in 0..other.cols {
                    let prod = mul(a, other.get(k, j));
                    out.set(i, j, add(out.get(i, j), prod));
                }
            }
        }
        out
    }

    /// Builds a new matrix from a subset of this matrix's rows.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zero(indices.len(), self.cols);
        for (new_r, &r) in indices.iter().enumerate() {
            for c in 0..self.cols {
                out.set(new_r, c, self.get(r, c));
            }
        }
        out
    }

    /// Inverts a square matrix via Gauss–Jordan elimination. Returns `None`
    /// if the matrix is singular.
    pub fn invert(&self) -> Option<Matrix> {
        if self.rows != self.cols {
            return None;
        }
        let n = self.rows;
        let mut work = self.clone();
        let mut inv_m = Matrix::identity(n);

        for col in 0..n {
            // Find a pivot.
            let pivot_row = (col..n).find(|&r| work.get(r, col) != 0)?;
            if pivot_row != col {
                work.swap_rows(pivot_row, col);
                inv_m.swap_rows(pivot_row, col);
            }
            // Normalize the pivot row.
            let pivot = work.get(col, col);
            let pivot_inv = inv(pivot);
            for c in 0..n {
                work.set(col, c, mul(work.get(col, c), pivot_inv));
                inv_m.set(col, c, mul(inv_m.get(col, c), pivot_inv));
            }
            // Eliminate the column from all other rows.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = work.get(r, col);
                if factor == 0 {
                    continue;
                }
                for c in 0..n {
                    let w = add(work.get(r, c), mul(factor, work.get(col, c)));
                    work.set(r, c, w);
                    let iv = add(inv_m.get(r, c), mul(factor, inv_m.get(col, c)));
                    inv_m.set(r, c, iv);
                }
            }
        }
        Some(inv_m)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            let tmp = self.get(a, c);
            self.set(a, c, self.get(b, c));
            self.set(b, c, tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn addition_is_xor() {
        assert_eq!(add(0x53, 0xCA), 0x99);
        assert_eq!(sub(0x99, 0xCA), 0x53);
    }

    #[test]
    fn multiplication_identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        for &(a, b, c) in &[(3u8, 7u8, 200u8), (0x53, 0xCA, 0x11), (255, 254, 253)] {
            assert_eq!(mul(a, b), mul(b, a));
            assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }
    }

    #[test]
    fn inverse_round_trip() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(div(a, a), 1);
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
        assert_eq!(pow(7, 1), 7);
        assert_eq!(pow(2, 8), mul(pow(2, 4), pow(2, 4)));
    }

    #[test]
    fn poly_eval_constant_and_linear() {
        assert_eq!(poly_eval(&[42], 7), 42);
        // p(x) = 3 + 2x at x = 5 -> 3 ^ mul(2,5).
        assert_eq!(poly_eval(&[3, 2], 5), add(3, mul(2, 5)));
        // At x = 0 the value is the constant term (secret sharing relies on this).
        assert_eq!(poly_eval(&[99, 1, 2, 3], 0), 99);
    }

    /// `mul_acc` (accelerated where the CPU allows), the scalar reference and
    /// the definition agree over `len` bytes.
    fn assert_mul_acc_matches(coeff: u8, len: usize) {
        let src: Vec<u8> = (0..len).map(|i| (i * 29 + i / 256) as u8).collect();
        let dst: Vec<u8> = (0..len).map(|i| (i * 101 + 7) as u8).collect();
        let expected: Vec<u8> = dst
            .iter()
            .zip(&src)
            .map(|(d, s)| d ^ mul(coeff, *s))
            .collect();
        let mut dispatched = dst.clone();
        mul_acc(coeff, &src, &mut dispatched);
        assert!(dispatched == expected, "coeff {coeff}, len {len}");
        let mut scalar = dst;
        mul_acc_scalar(coeff, &src, &mut scalar);
        assert!(scalar == expected, "scalar, coeff {coeff}, len {len}");
    }

    #[test]
    fn mul_acc_matches_mul_for_every_coefficient_and_short_length() {
        for coeff in 0..=255 {
            for len in 0..=100 {
                assert_mul_acc_matches(coeff, len);
            }
            assert_mul_acc_matches(coeff, (64 << 10) + 5);
        }
    }

    #[test]
    #[should_panic(expected = "unequal runs")]
    fn mul_acc_rejects_unequal_runs() {
        mul_acc(3, &[1, 2, 3], &mut [0, 0]);
    }

    #[test]
    fn identity_matrix_multiplication() {
        let id = Matrix::identity(4);
        let m = Matrix::vandermonde(4, 4);
        assert_eq!(id.multiply(&m), m);
        assert_eq!(m.multiply(&id), m);
    }

    #[test]
    fn vandermonde_is_invertible() {
        for n in 1..8 {
            let m = Matrix::vandermonde(n, n);
            let inv_m = m.invert().expect("vandermonde must be invertible");
            assert_eq!(m.multiply(&inv_m), Matrix::identity(n));
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Matrix::from_rows(vec![vec![1, 2], vec![1, 2]]);
        assert!(m.invert().is_none());
        let not_square = Matrix::zero(2, 3);
        assert!(not_square.invert().is_none());
    }

    #[test]
    fn select_rows_picks_correct_rows() {
        let m = Matrix::from_rows(vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
        let sel = m.select_rows(&[2, 0]);
        assert_eq!(sel.row(0), &[5, 6]);
        assert_eq!(sel.row(1), &[1, 2]);
    }

    proptest! {
        #[test]
        fn prop_mul_distributes_over_add(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }

        #[test]
        fn prop_div_inverts_mul(a in any::<u8>(), b in 1u8..=255) {
            prop_assert_eq!(div(mul(a, b), b), a);
        }

        #[test]
        fn prop_matrix_inverse_round_trip(seed in any::<u64>()) {
            // Build a random 4x4 matrix; skip if singular.
            let mut s = seed;
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 33) as u8
            };
            let m = Matrix::from_rows((0..4).map(|_| (0..4).map(|_| next()).collect()).collect());
            if let Some(inv_m) = m.invert() {
                prop_assert_eq!(m.multiply(&inv_m), Matrix::identity(4));
            }
        }
    }
}
