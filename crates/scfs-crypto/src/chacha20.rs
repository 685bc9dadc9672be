//! ChaCha20 stream cipher (RFC 8439 block structure).
//!
//! DepSky-CA encrypts every file with a fresh random symmetric key before
//! erasure-coding it across the clouds (paper §3.2, Figure 6, step 2). We use
//! ChaCha20 as that symmetric cipher: it is simple to implement correctly,
//! fast in pure Rust and — because it is a stream cipher — the ciphertext has
//! exactly the same length as the plaintext, which keeps the storage-overhead
//! accounting of the cost experiments (Figure 11(c)) faithful.

/// ChaCha20 cipher instance bound to a 256-bit key and 96-bit nonce.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

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
    /// same call decrypts. Eight blocks at a time go through AVX2 when this
    /// CPU has it; the block counter wraps modulo 2³² either way.
    pub fn apply_keystream(&self, counter: u32, data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= x86::PASS && is_x86_feature_detected!("avx2") {
            let (wide, tail) = data.split_at_mut(data.len() - data.len() % x86::PASS);
            // SAFETY: the feature `x86::apply_keystream` is compiled for was
            // detected on this CPU on the line above.
            unsafe { x86::apply_keystream(&self.initial_state(counter), wide) };
            let done = (wide.len() / 64) as u32;
            return self.apply_keystream_scalar(counter.wrapping_add(done), tail);
        }
        self.apply_keystream_scalar(counter, data)
    }

    /// The portable keystream, one block at a time: the only path on a CPU
    /// without AVX2, the tail of the accelerated one, and the reference it
    /// is tested against.
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

/// Eight keystream blocks per pass on AVX2: vector `i` holds word `i` of all
/// eight blocks, so a quarter round is the scalar one on eight lanes.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Bytes one pass covers: eight 64-byte blocks.
    pub(super) const PASS: usize = 512;

    /// XORs the keystream into `data` (a whole number of passes); block `j`
    /// of `data` takes `initial` with its counter word advanced by `j`.
    #[target_feature(enable = "avx2")]
    pub(super) fn apply_keystream(initial: &[u32; 16], data: &mut [u8]) {
        // Byte shuffles that rotate each 32-bit lane left by 16 and by 8.
        let rot16 = _mm256_set_epi8(
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2, 13, 12, 15, 14, 9, 8, 11, 10, 5,
            4, 7, 6, 1, 0, 3, 2,
        );
        let rot8 = _mm256_set_epi8(
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3, 14, 13, 12, 15, 10, 9, 8, 11, 6,
            5, 4, 7, 2, 1, 0, 3,
        );
        let mut input = initial.map(|word| _mm256_set1_epi32(word as i32));
        input[12] = _mm256_add_epi32(input[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));

        for pass in data.chunks_exact_mut(PASS) {
            let mut x = input;
            macro_rules! quarter_round {
                ($a:expr, $b:expr, $c:expr, $d:expr) => {{
                    x[$a] = _mm256_add_epi32(x[$a], x[$b]);
                    x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot16);
                    x[$c] = _mm256_add_epi32(x[$c], x[$d]);
                    let b = _mm256_xor_si256(x[$b], x[$c]);
                    x[$b] = _mm256_or_si256(_mm256_slli_epi32(b, 12), _mm256_srli_epi32(b, 20));
                    x[$a] = _mm256_add_epi32(x[$a], x[$b]);
                    x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot8);
                    x[$c] = _mm256_add_epi32(x[$c], x[$d]);
                    let b = _mm256_xor_si256(x[$b], x[$c]);
                    x[$b] = _mm256_or_si256(_mm256_slli_epi32(b, 7), _mm256_srli_epi32(b, 25));
                }};
            }
            for _ in 0..10 {
                quarter_round!(0, 4, 8, 12);
                quarter_round!(1, 5, 9, 13);
                quarter_round!(2, 6, 10, 14);
                quarter_round!(3, 7, 11, 15);
                quarter_round!(0, 5, 10, 15);
                quarter_round!(1, 6, 11, 12);
                quarter_round!(2, 7, 8, 13);
                quarter_round!(3, 4, 9, 14);
            }
            for (word, start) in x.iter_mut().zip(input) {
                *word = _mm256_add_epi32(*word, start);
            }

            // Word-major to block-major: each half of the state is an 8×8
            // transpose, after which vector `j` is half of block `j`.
            let (low, high) = (transpose(&x[..8]), transpose(&x[8..]));
            for ((block, low), high) in pass.chunks_exact_mut(64).zip(low).zip(high) {
                let (first, second) = block.split_at_mut(32);
                xor_into(first, low);
                xor_into(second, high);
            }
            // Lane-wise, so a counter wraps exactly where the scalar one does.
            input[12] = _mm256_add_epi32(input[12], _mm256_set1_epi32(8));
        }
    }

    /// Transposes an 8×8 matrix of 32-bit lanes, one row per vector.
    #[target_feature(enable = "avx2")]
    fn transpose(rows: &[__m256i]) -> [__m256i; 8] {
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

    /// `half ^= keystream` over 32 bytes.
    #[target_feature(enable = "avx2")]
    fn xor_into(half: &mut [u8], keystream: __m256i) {
        assert_eq!(half.len(), 32);
        let at: *mut __m256i = half.as_mut_ptr().cast();
        // SAFETY: `half` is 32 readable and writable bytes (asserted above),
        // and both accesses are unaligned.
        unsafe { _mm256_storeu_si256(at, _mm256_xor_si256(_mm256_loadu_si256(at), keystream)) }
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
        // The same block leads an eight-block pass.
        let mut wide = [0u8; 1024];
        c.apply_keystream(1, &mut wide);
        assert_eq!(crate::to_hex(&wide[..64]), expected);
        assert_eq!(wide[960..], c.block(16));
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

    /// `apply_keystream` (accelerated where the CPU allows) and the scalar
    /// reference write the same bytes over `len` bytes that start `offset`
    /// bytes into an allocation.
    fn assert_matches_scalar(c: &ChaCha20, counter: u32, offset: usize, len: usize) {
        let data: Vec<u8> = (0..offset + len)
            .map(|i| (i * 13 + i / 255) as u8)
            .collect();
        let mut dispatched = data.clone();
        c.apply_keystream(counter, &mut dispatched[offset..]);
        let mut scalar = data;
        c.apply_keystream_scalar(counter, &mut scalar[offset..]);
        assert!(
            dispatched == scalar,
            "counter {counter:#x}, offset {offset}, len {len}"
        );
    }

    #[test]
    fn accelerated_keystream_matches_scalar_at_every_short_length() {
        let c = cipher(0x5c);
        // 0xffff_fffc wraps to 0 inside the first eight-block pass.
        for counter in [1, 0xffff_fffc] {
            for len in 0..=1200 {
                assert_matches_scalar(&c, counter, len % 32, len);
            }
        }
    }

    #[test]
    fn accelerated_keystream_matches_scalar_on_a_chunk() {
        let c = cipher(0xc5);
        for (counter, offset) in [(1, 0), (0xffff_fffc, 1), (0xffff_ff00, 31)] {
            assert_matches_scalar(&c, counter, offset, (1 << 20) + 77);
        }
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
