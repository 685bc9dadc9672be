//! Cryptographic and coding primitives for the SCFS reproduction.
//!
//! The DepSky cloud-of-clouds write path (paper §3.2, Figure 6) performs four
//! steps on every file: (1) generate a random key, (2) encrypt the file,
//! (3) erasure-code the ciphertext into one block per cloud, and (4) split
//! the key with a secret-sharing scheme so that no single cloud can decrypt
//! the data. The consistency-anchor algorithm (paper §2.4) additionally needs
//! a collision-resistant hash of every file version.
//!
//! This crate implements all of those primitives from scratch so that the
//! workspace has no external cryptography dependencies:
//!
//! * [`sha256()`] — the collision-resistant hash of every tuple, version,
//!   chunk and DepSky block (the paper uses SHA-1; nothing here does).
//! * [`chacha20`] — a stream cipher used to encrypt file contents before
//!   they are dispersed to the clouds.
//! * [`gf256`] — arithmetic over GF(2⁸), the base field for both the erasure
//!   code and the secret-sharing scheme.
//! * [`erasure`] — a systematic Reed–Solomon erasure code (`k` data blocks,
//!   `m` parity blocks; any `k` blocks reconstruct the data).
//! * [`shamir`] — Shamir secret sharing for the file encryption keys.
//! * [`keys`] — deterministic-for-testing key generation.
//!
//! The three kernels every stored byte goes through — the SHA-256
//! compression function, the ChaCha20 keystream and the GF(2⁸)
//! multiply-accumulate ([`gf256::mul_acc`]) under the erasure code — each
//! have a portable scalar implementation and x86-64 vector ones: SHA-256 on
//! the SHA extensions, the multiply-accumulate on AVX2, and the keystream in
//! two tiers, sixteen blocks per pass on AVX-512 and eight on AVX2. Every
//! call takes the widest one that `is_x86_feature_detected!` reports for the
//! CPU it runs on, and nothing else picks — no cargo feature, build flag,
//! configuration field or environment variable. All of them produce the same
//! bytes: the scalar code is the only path elsewhere and the reference the
//! accelerated code is tested against, and no digest, ciphertext or shard
//! records which one ran. Each file's vector code is a private `x86` module
//! of it; those three
//! files hold all the `unsafe` in the workspace: every other crate forbids
//! `unsafe_code`, this one denies it and allows it on those three modules.
//!
//! None of this code is intended for production cryptographic use; it exists
//! to faithfully reproduce the *system behaviour* (sizes, overheads, failure
//! tolerance) of the original SCFS/DepSky stack.

#[allow(unsafe_code, reason = "the x86 kernel, under SAFETY comments")]
pub mod chacha20;
pub mod erasure;
#[allow(unsafe_code, reason = "the x86 kernel, under SAFETY comments")]
pub mod gf256;
pub mod hmac;
pub mod keys;
#[allow(unsafe_code, reason = "the x86 kernel, under SAFETY comments")]
pub mod sha256;
pub mod shamir;

pub use chacha20::ChaCha20;
pub use erasure::{ErasureCoder, ErasureError};
pub use keys::KeyGenerator;
pub use sha256::{sha256, sha256_hex, Sha256};
pub use shamir::{combine_shares, split_secret, ShamirError, Share};

/// A 32-byte content hash (SHA-256 output), used as the version identifier in
/// consistency anchors and DepSky metadata.
pub type ContentHash = [u8; 32];

/// Hex-encodes a byte slice (lower-case).
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

/// Decodes a lower- or upper-case hex string; returns `None` on bad input.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// Parses a content hash from the one spelling [`to_hex`] gives it (64
/// lower-case hex digits); `None` for anything else, so a name built around
/// a hash has exactly one spelling too.
pub fn hash_from_hex(s: &str) -> Option<ContentHash> {
    let hash: ContentHash = from_hex(s)?.try_into().ok()?;
    (to_hex(&hash) == s).then_some(hash)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let data = vec![0x00, 0x0f, 0xa5, 0xff];
        let hex = to_hex(&data);
        assert_eq!(hex, "000fa5ff");
        assert_eq!(from_hex(&hex).unwrap(), data);
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn hex_accepts_uppercase() {
        assert_eq!(from_hex("A5FF").unwrap(), vec![0xa5, 0xff]);
    }

    #[test]
    fn a_hash_parses_from_its_one_spelling_only() {
        let hash = sha256(b"x");
        let hex = to_hex(&hash);
        assert_eq!(hash_from_hex(&hex), Some(hash));
        assert_eq!(hash_from_hex(&hex.to_uppercase()), None);
        assert_eq!(hash_from_hex(&hex[2..]), None);
        assert_eq!(hash_from_hex(&format!("{hex}00")), None);
    }
}
