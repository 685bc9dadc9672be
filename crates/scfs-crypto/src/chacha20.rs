//! ChaCha20 stream cipher (RFC 8439 block structure).
//!
//! DepSky-CA encrypts every file with a fresh random symmetric key before
//! erasure-coding it across the clouds (paper §3.2, Figure 6, step 2). We use
//! ChaCha20 as that symmetric cipher: it is simple to implement correctly,
//! fast in pure Rust and — because it is a stream cipher — the ciphertext has
//! exactly the same length as the plaintext, which keeps the storage-overhead
//! accounting of the cost experiments (Figure 11(c)) faithful.
//!
//! The keystream has three tiers: sixteen blocks per pass on AVX-512, eight
//! on AVX2, and the portable code one block at a time. A call starts at the
//! widest tier this CPU has and hands what is left under one of its passes
//! to the next tier down. All three write the same bytes.

/// ChaCha20 cipher instance bound to a 256-bit key and 96-bit nonce.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

/// Bytes [`ChaCha20::extend_with_keystream`] stages on the stack at a time:
/// a whole number of passes of every tier.
const STAGE: usize = 4096;

impl ChaCha20 {
    /// Creates a cipher from a 32-byte key and a 12-byte nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut n = [0u32; 3];
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            n[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 { key: k, nonce: n }
    }

    /// Encrypts or decrypts `data` in place starting at block `counter`.
    /// ChaCha20 is an involution under the same (key, nonce, counter), so the
    /// same call decrypts. Sixteen blocks at a time go through AVX-512 and
    /// eight through AVX2 when this CPU has them; the block counter wraps
    /// modulo 2³² either way.
    pub fn apply_keystream(&self, counter: u32, data: &mut [u8]) {
        self.apply_keystream_on(Tier::widest(), counter, data)
    }

    /// Appends to `out` the bytes of `src` XORed with the keystream bytes
    /// `offset..offset + src.len()` of the message [`ChaCha20::encrypt`]
    /// covers (block 1 on): a slice of a message encrypts, or decrypts, as it
    /// would in place in the whole, and lands in `out` with one write per
    /// byte. It serves both directions.
    pub fn extend_with_keystream(&self, offset: usize, src: &[u8], out: &mut Vec<u8>) {
        self.extend_with_keystream_on(Tier::widest(), offset, src, out)
    }

    /// [`ChaCha20::apply_keystream`] from `tier` down.
    fn apply_keystream_on(&self, tier: Tier, counter: u32, data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if tier != Tier::Scalar {
            let (wide, tail) = data.split_at_mut(data.len() - data.len() % tier.pass());
            if !wide.is_empty() {
                let initial = self.initial_state(counter);
                // SAFETY: a vector tier is a value `Tier::widest` or
                // `Tier::narrower` returned, and each returns one only once
                // `is_x86_feature_detected!` has reported, on this CPU, the
                // feature that tier's kernel is compiled for.
                unsafe {
                    match tier {
                        Tier::Avx512 => x86::apply_keystream_avx512(&initial, wide),
                        _ => x86::apply_keystream_avx2(&initial, wide),
                    }
                }
            }
            let done = (wide.len() / 64) as u32;
            return self.apply_keystream_on(tier.narrower(), counter.wrapping_add(done), tail);
        }
        self.apply_keystream_scalar(counter, data)
    }

    /// [`ChaCha20::extend_with_keystream`] from `tier` down. Up to [`STAGE`]
    /// bytes of `src` at a time are copied into a stack buffer, the first
    /// stage behind the `offset % 64` bytes of its block that precede it, go
    /// through the keystream there in whole blocks, and are appended.
    fn extend_with_keystream_on(&self, tier: Tier, offset: usize, src: &[u8], out: &mut Vec<u8>) {
        let mut stage = [0u8; STAGE];
        let mut counter = 1u32.wrapping_add((offset / 64) as u32);
        let mut skip = offset % 64;
        let mut rest = src;
        out.reserve(src.len());
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(rest.len().min(STAGE - skip));
            let staged = &mut stage[..skip + piece.len()];
            staged[skip..].copy_from_slice(piece);
            self.apply_keystream_on(tier, counter, staged);
            out.extend_from_slice(&staged[skip..]);
            // Only a full stage leaves bytes for another.
            counter = counter.wrapping_add((STAGE / 64) as u32);
            (skip, rest) = (0, tail);
        }
    }

    /// The portable keystream, one block at a time: the only path on a CPU
    /// without AVX2, the last tier's tail, and the reference the vector
    /// tiers are tested against.
    fn apply_keystream_scalar(&self, counter: u32, data: &mut [u8]) {
        let mut block_counter = counter;
        for chunk in data.chunks_mut(64) {
            let keystream = self.block(block_counter);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
            block_counter = block_counter.wrapping_add(1);
        }
    }

    /// Convenience: encrypts a buffer and returns the ciphertext.
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.apply_keystream(1, &mut out);
        out
    }

    /// The sixteen input words of block `counter`.
    fn initial_state(&self, counter: u32) -> [u32; 16] {
        let mut state = [0u32; 16];
        // "expand 32-byte k".
        state[..4].copy_from_slice(&[0x61707865, 0x3320646e, 0x79622d32, 0x6b206574]);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..].copy_from_slice(&self.nonce);
        state
    }

    /// Produces one 64-byte keystream block.
    fn block(&self, counter: u32) -> [u8; 64] {
        let initial = self.initial_state(counter);
        let mut state = initial;

        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }

        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// A keystream implementation. Only [`Tier::widest`] and [`Tier::narrower`]
/// make a vector tier, each after detecting its feature on this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// The widest tier this CPU runs: where every call starts.
    fn widest() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            return Tier::Avx512;
        }
        Tier::below_avx512()
    }

    /// The tier that takes what is left under one of this tier's passes.
    fn narrower(self) -> Tier {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => Tier::below_avx512(),
            _ => Tier::Scalar,
        }
    }

    /// AVX2 when this CPU has it, else the scalar code.
    fn below_avx512() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
        Tier::Scalar
    }

    /// Bytes one pass covers.
    #[cfg(target_arch = "x86_64")]
    fn pass(self) -> usize {
        match self {
            Tier::Avx512 => 1024,
            Tier::Avx2 => 512,
            Tier::Scalar => 64,
        }
    }
}

/// Ten double rounds over a state held one word per vector, word `i` of
/// every block a pass covers in vector `i`: the scalar `quarter_round` on
/// every lane at once, spelled in a vector tier's add, xor and rotate
/// (`$rotl!(v, n)`), so the tiers share one definition of the rounds.
#[cfg(target_arch = "x86_64")]
macro_rules! double_rounds {
    ($x:ident, $add:path, $xor:path, $rotl:ident) => {
        for _ in 0..10 {
            double_rounds!(@quarter $x, $add, $xor, $rotl; 0, 4, 8, 12);
            double_rounds!(@quarter $x, $add, $xor, $rotl; 1, 5, 9, 13);
            double_rounds!(@quarter $x, $add, $xor, $rotl; 2, 6, 10, 14);
            double_rounds!(@quarter $x, $add, $xor, $rotl; 3, 7, 11, 15);
            double_rounds!(@quarter $x, $add, $xor, $rotl; 0, 5, 10, 15);
            double_rounds!(@quarter $x, $add, $xor, $rotl; 1, 6, 11, 12);
            double_rounds!(@quarter $x, $add, $xor, $rotl; 2, 7, 8, 13);
            double_rounds!(@quarter $x, $add, $xor, $rotl; 3, 4, 9, 14);
        }
    };
    (@quarter $x:ident, $add:path, $xor:path, $rotl:ident; $a:literal, $b:literal, $c:literal, $d:literal) => {
        $x[$a] = $add($x[$a], $x[$b]);
        $x[$d] = $rotl!($xor($x[$d], $x[$a]), 16);
        $x[$c] = $add($x[$c], $x[$d]);
        $x[$b] = $rotl!($xor($x[$b], $x[$c]), 12);
        $x[$a] = $add($x[$a], $x[$b]);
        $x[$d] = $rotl!($xor($x[$d], $x[$a]), 8);
        $x[$c] = $add($x[$c], $x[$d]);
        $x[$b] = $rotl!($xor($x[$b], $x[$c]), 7);
    };
}

/// The vector tiers: vector `i` holds word `i` of every block of a pass, so
/// a quarter round is the scalar one on every lane; a transpose then turns
/// the words back into blocks.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// XORs the keystream into `data` (a whole number of eight-block
    /// passes) on AVX2; block `j` of `data` takes `initial` with its counter
    /// word advanced by `j`.
    #[target_feature(enable = "avx2")]
    pub(super) fn apply_keystream_avx2(initial: &[u32; 16], data: &mut [u8]) {
        // Byte shuffles that rotate each 32-bit lane left by 16 and by 8.
        let rot16 = _mm256_set_epi8(
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2, 13, 12, 15, 14, 9, 8, 11, 10, 5,
            4, 7, 6, 1, 0, 3, 2,
        );
        let rot8 = _mm256_set_epi8(
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3, 14, 13, 12, 15, 10, 9, 8, 11, 6,
            5, 4, 7, 2, 1, 0, 3,
        );
        macro_rules! rotl {
            ($v:expr, 16) => {
                _mm256_shuffle_epi8($v, rot16)
            };
            ($v:expr, 8) => {
                _mm256_shuffle_epi8($v, rot8)
            };
            ($v:expr, $n:literal) => {{
                let v = $v;
                _mm256_or_si256(
                    _mm256_slli_epi32::<$n>(v),
                    _mm256_srli_epi32::<{ 32 - $n }>(v),
                )
            }};
        }
        let mut input = initial.map(|word| _mm256_set1_epi32(word as i32));
        input[12] = _mm256_add_epi32(input[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));

        for pass in data.chunks_exact_mut(512) {
            let mut x = input;
            double_rounds!(x, _mm256_add_epi32, _mm256_xor_si256, rotl);
            for (word, start) in x.iter_mut().zip(input) {
                *word = _mm256_add_epi32(*word, start);
            }

            // Word-major to block-major: each half of the state is an 8×8
            // transpose, after which vector `j` is half of block `j`.
            let (low, high) = (transpose8(&x[..8]), transpose8(&x[8..]));
            for ((block, low), high) in pass.chunks_exact_mut(64).zip(low).zip(high) {
                let (first, second) = block.split_at_mut(32);
                xor_into_256(first, low);
                xor_into_256(second, high);
            }
            // Lane-wise, so a counter wraps exactly where the scalar one does.
            input[12] = _mm256_add_epi32(input[12], _mm256_set1_epi32(8));
        }
    }

    /// XORs the keystream into `data` (a whole number of sixteen-block
    /// passes) on AVX-512; block `j` of `data` takes `initial` with its
    /// counter word advanced by `j`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn apply_keystream_avx512(initial: &[u32; 16], data: &mut [u8]) {
        macro_rules! rotl {
            ($v:expr, $n:literal) => {
                _mm512_rol_epi32::<$n>($v)
            };
        }
        let mut input = initial.map(|word| _mm512_set1_epi32(word as i32));
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        input[12] = _mm512_add_epi32(input[12], lanes);

        for pass in data.chunks_exact_mut(1024) {
            let mut x = input;
            double_rounds!(x, _mm512_add_epi32, _mm512_xor_si512, rotl);
            for (word, start) in x.iter_mut().zip(input) {
                *word = _mm512_add_epi32(*word, start);
            }
            // Word-major to block-major: after the 16×16 transpose vector
            // `j` is block `j`.
            for (block, keystream) in pass.chunks_exact_mut(64).zip(transpose16(&x)) {
                xor_into_512(block, keystream);
            }
            // Lane-wise, so a counter wraps exactly where the scalar one does.
            input[12] = _mm512_add_epi32(input[12], _mm512_set1_epi32(16));
        }
    }

    /// Transposes an 8×8 matrix of 32-bit lanes, one row per vector.
    #[target_feature(enable = "avx2")]
    fn transpose8(rows: &[__m256i]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(rows[0], rows[1]);
        let t1 = _mm256_unpackhi_epi32(rows[0], rows[1]);
        let t2 = _mm256_unpacklo_epi32(rows[2], rows[3]);
        let t3 = _mm256_unpackhi_epi32(rows[2], rows[3]);
        let t4 = _mm256_unpacklo_epi32(rows[4], rows[5]);
        let t5 = _mm256_unpackhi_epi32(rows[4], rows[5]);
        let t6 = _mm256_unpacklo_epi32(rows[6], rows[7]);
        let t7 = _mm256_unpackhi_epi32(rows[6], rows[7]);
        // `u0..u3` hold columns 0..4 of rows 0..4 in their low halves and
        // columns 4..8 in their high halves; `u4..u7` the same of rows 4..8.
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256(u0, u4, 0x20),
            _mm256_permute2x128_si256(u1, u5, 0x20),
            _mm256_permute2x128_si256(u2, u6, 0x20),
            _mm256_permute2x128_si256(u3, u7, 0x20),
            _mm256_permute2x128_si256(u0, u4, 0x31),
            _mm256_permute2x128_si256(u1, u5, 0x31),
            _mm256_permute2x128_si256(u2, u6, 0x31),
            _mm256_permute2x128_si256(u3, u7, 0x31),
        ]
    }

    /// Transposes a 16×16 matrix of 32-bit lanes, one row per vector.
    #[target_feature(enable = "avx512f")]
    fn transpose16(rows: &[__m512i; 16]) -> [__m512i; 16] {
        // Within each 128-bit lane, pairs of rows interleave, then pairs of
        // pairs: `u[4g + c]` holds, in lane `l`, column `4l + c` of rows
        // `4g..4g + 4`.
        let mut t = [_mm512_setzero_si512(); 16];
        for i in (0..16).step_by(2) {
            t[i] = _mm512_unpacklo_epi32(rows[i], rows[i + 1]);
            t[i + 1] = _mm512_unpackhi_epi32(rows[i], rows[i + 1]);
        }
        let mut u = [_mm512_setzero_si512(); 16];
        for g in (0..16).step_by(4) {
            u[g] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
            u[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
            u[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
            u[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
        }
        // Then whole lanes move, twice. `v[8p + c]` holds lanes 0 and 2 of
        // `u[8p + c]` and of `u[8p + 4 + c]`, `v[8p + 4 + c]` lanes 1 and 3;
        // the second move gathers lane `l` of all four groups into column
        // `4l + c`.
        let mut v = [_mm512_setzero_si512(); 16];
        for p in (0..16).step_by(8) {
            for c in 0..4 {
                v[p + c] = _mm512_shuffle_i32x4(u[p + c], u[p + 4 + c], 0x88);
                v[p + 4 + c] = _mm512_shuffle_i32x4(u[p + c], u[p + 4 + c], 0xdd);
            }
        }
        let mut columns = [_mm512_setzero_si512(); 16];
        for c in 0..4 {
            columns[c] = _mm512_shuffle_i32x4(v[c], v[8 + c], 0x88);
            columns[4 + c] = _mm512_shuffle_i32x4(v[4 + c], v[12 + c], 0x88);
            columns[8 + c] = _mm512_shuffle_i32x4(v[c], v[8 + c], 0xdd);
            columns[12 + c] = _mm512_shuffle_i32x4(v[4 + c], v[12 + c], 0xdd);
        }
        columns
    }

    /// `half ^= keystream` over 32 bytes.
    #[target_feature(enable = "avx2")]
    fn xor_into_256(half: &mut [u8], keystream: __m256i) {
        assert_eq!(half.len(), 32);
        let at: *mut __m256i = half.as_mut_ptr().cast();
        // SAFETY: `half` is 32 readable and writable bytes (asserted above),
        // and both accesses are unaligned.
        unsafe { _mm256_storeu_si256(at, _mm256_xor_si256(_mm256_loadu_si256(at), keystream)) }
    }

    /// `block ^= keystream` over 64 bytes.
    #[target_feature(enable = "avx512f")]
    fn xor_into_512(block: &mut [u8], keystream: __m512i) {
        assert_eq!(block.len(), 64);
        let at: *mut __m512i = block.as_mut_ptr().cast();
        // SAFETY: `block` is 64 readable and writable bytes (asserted
        // above), and both accesses are unaligned.
        unsafe { _mm512_storeu_si512(at, _mm512_xor_si512(_mm512_loadu_si512(at), keystream)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cipher(key_byte: u8) -> ChaCha20 {
        let key = [key_byte; 32];
        let nonce = [7u8; 12];
        ChaCha20::new(&key, &nonce)
    }

    /// Every tier this CPU runs, widest first: the scalar one last.
    fn tiers() -> Vec<Tier> {
        let next = |tier: &Tier| (*tier != Tier::Scalar).then(|| tier.narrower());
        std::iter::successors(Some(Tier::widest()), next).collect()
    }

    #[test]
    fn rfc8439_quarter_round_vector() {
        // RFC 8439 §2.1.1 test vector for the quarter round.
        let mut state = [0u32; 16];
        state[0] = 0x11111111;
        state[1] = 0x01020304;
        state[2] = 0x9b8d6f43;
        state[3] = 0x01234567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a92f4);
        assert_eq!(state[1], 0xcb1cf8ce);
        assert_eq!(state[2], 0x4581472e);
        assert_eq!(state[3], 0x5881c4bb);
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let c = cipher(0xAB);
        let plaintext = b"the quick brown fox jumps over the lazy dog".to_vec();
        let ct = c.encrypt(&plaintext);
        assert_ne!(ct, plaintext);
        assert_eq!(c.encrypt(&ct), plaintext, "the same call decrypts");
    }

    #[test]
    fn ciphertext_length_equals_plaintext_length() {
        let c = cipher(1);
        for len in [0usize, 1, 63, 64, 65, 1000] {
            let pt = vec![0x55u8; len];
            assert_eq!(c.encrypt(&pt).len(), len);
        }
    }

    #[test]
    fn different_keys_produce_different_ciphertexts() {
        let pt = vec![0u8; 128];
        let a = cipher(1).encrypt(&pt);
        let b = cipher(2).encrypt(&pt);
        assert_ne!(a, b);
    }

    #[test]
    fn different_nonces_produce_different_ciphertexts() {
        let key = [9u8; 32];
        let a = ChaCha20::new(&key, &[1u8; 12]).encrypt(&[0u8; 64]);
        let b = ChaCha20::new(&key, &[2u8; 12]).encrypt(&[0u8; 64]);
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_blocks_differ_by_counter() {
        let c = cipher(3);
        let b0 = c.block(0);
        let b1 = c.block(1);
        assert_ne!(b0, b1);
    }

    /// The RFC 8439 test key `00 01 .. 1f`.
    fn rfc_key() -> [u8; 32] {
        std::array::from_fn(|i| i as u8)
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2: pins the block function and the byte order.
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let c = ChaCha20::new(&rfc_key(), &nonce);
        let expected = "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c06803\
                        0422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2\
                        b5129cd1de164eb9cbd083e8a2503c4e";
        assert_eq!(crate::to_hex(&c.block(1)), expected);
        // The same block leads a pass of every tier, and the pass ends on
        // the block sixteen after it.
        for tier in tiers() {
            let mut wide = [0u8; 1024];
            c.apply_keystream_on(tier, 1, &mut wide);
            assert_eq!(crate::to_hex(&wide[..64]), expected, "{tier:?}");
            assert_eq!(wide[960..], c.block(16), "{tier:?}");
        }
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2.
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                          only one tip for the future, sunscreen would be it.";
        assert_eq!(plaintext.len(), 114);
        assert_eq!(
            crate::to_hex(&ChaCha20::new(&rfc_key(), &nonce).encrypt(plaintext)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    /// Each tier this CPU runs, taken on its own, and the dispatched call
    /// write the scalar reference's bytes over `len` bytes that start
    /// `offset` bytes into an allocation.
    fn assert_matches_scalar(c: &ChaCha20, counter: u32, offset: usize, len: usize) {
        let data: Vec<u8> = (0..offset + len)
            .map(|i| (i * 13 + i / 255) as u8)
            .collect();
        let mut scalar = data.clone();
        c.apply_keystream_scalar(counter, &mut scalar[offset..]);
        let mut dispatched = data.clone();
        c.apply_keystream(counter, &mut dispatched[offset..]);
        assert!(
            dispatched == scalar,
            "dispatched, counter {counter:#x}, offset {offset}, len {len}"
        );
        for tier in tiers() {
            let mut on_tier = data.clone();
            c.apply_keystream_on(tier, counter, &mut on_tier[offset..]);
            assert!(
                on_tier == scalar,
                "{tier:?}, counter {counter:#x}, offset {offset}, len {len}"
            );
        }
    }

    #[test]
    fn accelerated_keystream_matches_scalar_at_every_short_length() {
        let c = cipher(0x5c);
        // 0xffff_fffc wraps to 0 inside the first eight-block pass, and
        // 0xffff_fff4 inside the first sixteen-block one.
        for counter in [1, 0xffff_fffc, 0xffff_fff4] {
            for len in 0..=2100 {
                for offset in [0, 1, 31] {
                    assert_matches_scalar(&c, counter, offset, len);
                }
            }
        }
    }

    #[test]
    fn accelerated_keystream_matches_scalar_on_a_chunk() {
        let c = cipher(0xc5);
        for counter in [1, 0xffff_fffc, 0xffff_fff4, 0xffff_ff00] {
            for offset in [0, 1, 31] {
                assert_matches_scalar(&c, counter, offset, (1 << 20) + 77);
            }
        }
    }

    /// On every tier, appending a slice of a message with the keystream
    /// from `offset` is copying the slice out of the message encrypted in
    /// place, and leaves what `out` held before alone.
    fn assert_extend_matches_in_place(c: &ChaCha20, offset: usize, len: usize) {
        let message: Vec<u8> = (0..len).map(|i| (i * 7 + i / 253) as u8).collect();
        // The bytes before `offset` stand in as zeros of a whole block.
        let skip = offset % 64;
        let mut in_place = vec![0u8; skip];
        in_place.extend_from_slice(&message);
        let counter = 1u32.wrapping_add((offset / 64) as u32);
        c.apply_keystream(counter, &mut in_place);
        for tier in tiers() {
            let mut out = vec![0xEE; 3];
            c.extend_with_keystream_on(tier, offset, &message, &mut out);
            assert!(
                out[..3] == [0xEE; 3] && out[3..] == in_place[skip..],
                "{tier:?}, offset {offset}, len {len}"
            );
        }
    }

    #[test]
    fn extending_with_the_keystream_is_copying_out_of_the_encrypted_message() {
        let c = cipher(0x3a);
        let wraps = 64 * 0xffff_fff3;
        for offset in [0, 1, 31, 63, 64, 1000, 4095, 4096, wraps, wraps + 5] {
            for len in (0..=2100).step_by(7).chain([4096, 4097, 9000]) {
                assert_extend_matches_in_place(&c, offset, len);
            }
        }
        assert_extend_matches_in_place(&c, 31, (1 << 20) + 77);
        let whole = c.encrypt(&[0x11; 5000]);
        let mut pieces = Vec::new();
        for (at, piece) in [(0, 17), (17, 1200), (1217, 3783)] {
            c.extend_with_keystream(at, &[0x11; 5000][at..at + piece], &mut pieces);
        }
        assert!(pieces == whole, "a message appended piece by piece");
    }

    proptest! {
        #[test]
        fn prop_accelerated_keystream_matches_scalar(
            key_byte in any::<u8>(),
            counter in any::<u32>(),
            offset in 0usize..32,
            len in 0usize..5000,
        ) {
            assert_matches_scalar(&cipher(key_byte), counter, offset, len);
        }

        #[test]
        fn prop_round_trip(data in proptest::collection::vec(any::<u8>(), 0..2048), key_byte in any::<u8>()) {
            let c = cipher(key_byte);
            prop_assert_eq!(c.encrypt(&c.encrypt(&data)), data);
        }

        #[test]
        fn prop_wrong_key_does_not_decrypt(data in proptest::collection::vec(any::<u8>(), 32..256)) {
            let ct = cipher(1).encrypt(&data);
            let wrong = cipher(2).encrypt(&ct);
            prop_assert_ne!(wrong, data);
        }
    }
}
