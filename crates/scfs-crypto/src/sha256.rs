//! SHA-256 (FIPS 180-4).
//!
//! Used as the collision-resistant hash in the consistency-anchor algorithm
//! (paper §2.4, Figure 3) and as the content hash stored in DepSky metadata.

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: INIT,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        // Every whole block of the caller's slice is compressed where it lies.
        let (blocks, rest) = input.split_at(input.len() & !63);
        compress_blocks(&mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finalizes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros up to 56 mod 64, then the bit length as a
        // big-endian u64 — one block, or two when fewer than nine bytes of
        // the last one are free.
        let mut tail = [0u8; 128];
        tail[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        tail[self.buffer_len] = 0x80;
        let tail_len = if self.buffer_len < 56 { 64 } else { 128 };
        let bit_len = self.total_len.wrapping_mul(8);
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..tail_len]);
        digest_bytes(&self.state)
    }
}

/// The digest a final state spells: its eight words, big-endian.
fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Runs the compression function over `blocks` (a whole number of 64-byte
/// blocks), on the SHA extensions when this CPU has them.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the three features `x86::compress_blocks` is compiled for
        // were detected on this CPU on the lines above.
        return unsafe { x86::compress_blocks(state, blocks) };
    }
    compress_blocks_scalar(state, blocks)
}

/// The portable compression function: the only path on a CPU without the SHA
/// extensions, and the reference the accelerated one is tested against.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions: `sha256rnds2` does
/// two rounds, `sha256msg1`/`sha256msg2` the message schedule.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use std::arch::x86_64::*;

    /// The four words at `words[at..at + 4]`, lowest lane first.
    fn load(words: &[u32], at: usize) -> __m128i {
        let quad = &words[at..at + 4];
        // SAFETY: `quad` is 16 readable bytes and the load is unaligned.
        unsafe { _mm_loadu_si128(quad.as_ptr().cast()) }
    }

    /// The sixteen bytes at `bytes[at..at + 16]`, lowest lane first.
    fn load_bytes(bytes: &[u8], at: usize) -> __m128i {
        let quad = &bytes[at..at + 16];
        // SAFETY: `quad` is 16 readable bytes and the load is unaligned.
        unsafe { _mm_loadu_si128(quad.as_ptr().cast()) }
    }

    fn store(words: &mut [u32], at: usize, v: __m128i) {
        let quad = &mut words[at..at + 4];
        // SAFETY: `quad` is 16 writable bytes and the store is unaligned.
        unsafe { _mm_storeu_si128(quad.as_mut_ptr().cast(), v) }
    }

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // The instructions keep the state as (ABEF, CDGH), high lane first.
        let cdab = _mm_shuffle_epi32(load(state, 0), 0xB1);
        let efgh = _mm_shuffle_epi32(load(state, 4), 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        // Message words are big-endian in the block.
        let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let message = |at: usize| _mm_shuffle_epi8(load_bytes(block, at), swap);
            // The sixteen most recent schedule words, oldest in `w0`.
            let (mut w0, mut w1, mut w2, mut w3) =
                (message(0), message(16), message(32), message(48));

            // Rounds `$k..$k + 4`, whose schedule words are `$w`.
            macro_rules! rounds4 {
                ($w:ident, $k:expr) => {{
                    let wk = _mm_add_epi32($w, load(&K, $k));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                }};
            }
            // The next four schedule words, replacing the oldest four.
            macro_rules! schedule {
                ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {{
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
                    $w0 = _mm_sha256msg2_epu32(partial, $w3);
                }};
            }

            rounds4!(w0, 0);
            rounds4!(w1, 4);
            rounds4!(w2, 8);
            rounds4!(w3, 12);
            for k in [16, 32, 48] {
                schedule!(w0, w1, w2, w3);
                rounds4!(w0, k);
                schedule!(w1, w2, w3, w0);
                rounds4!(w1, k + 4);
                schedule!(w2, w3, w0, w1);
                rounds4!(w2, k + 8);
                schedule!(w3, w0, w1, w2);
                rounds4!(w3, k + 12);
            }

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        store(state, 0, _mm_blend_epi16(feba, dchg, 0xF0));
        store(state, 4, _mm_alignr_epi8(dchg, feba, 8));
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 returning a lower-case hex string.
pub fn sha256_hex(data: &[u8]) -> String {
    crate::to_hex(&sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// SHA-256 on the scalar compression function alone, with padding of its
    /// own: what the dispatching hasher is compared against.
    fn sha256_scalar(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        padded.resize((data.len() + 9).next_multiple_of(64) - 8, 0);
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = INIT;
        compress_blocks_scalar(&mut state, &padded);
        digest_bytes(&state)
    }

    /// A known answer holds through the dispatching hasher and on the scalar
    /// path alone.
    fn assert_digest(message: &[u8], digest: &str) {
        assert_eq!(sha256_hex(message), digest);
        assert_eq!(crate::to_hex(&sha256_scalar(message)), digest);
    }

    #[test]
    fn empty_string_vector() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message_vector() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn one_million_a_vector() {
        // FIPS 180-4's long message: 15 625 blocks through the bulk path.
        assert_digest(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"hello"), sha256(b"hellp"));
    }

    /// `len` patterned bytes behind `offset` more, so the hashed slice starts
    /// at any alignment.
    fn patterned(offset: usize, len: usize) -> Vec<u8> {
        (0..offset + len).map(|i| (i * 7 + i / 253) as u8).collect()
    }

    #[test]
    fn accelerated_hash_matches_scalar_at_every_short_length_and_alignment() {
        let lengths = (0..=300).flat_map(|len| (0..16).map(move |offset| (offset, len)));
        // And either side of a chunk.
        for (offset, len) in lengths.chain([(0, (1 << 20) - 1), (5, 1 << 20), (15, (1 << 20) + 1)])
        {
            let data = patterned(offset, len);
            assert!(
                sha256(&data[offset..]) == sha256_scalar(&data[offset..]),
                "len {len}, offset {offset}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_any_update_splits_match_scalar(
            len in 0usize..3000,
            offset in 0usize..16,
            cuts in proptest::collection::vec(0usize..3000, 0..6),
        ) {
            let data = patterned(offset, len);
            let data = &data[offset..];
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                h.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(h.finalize(), sha256_scalar(data));
        }

        #[test]
        fn prop_split_updates_equal_one_shot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        #[test]
        fn prop_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(sha256(&data), sha256(&data));
        }
    }
}
