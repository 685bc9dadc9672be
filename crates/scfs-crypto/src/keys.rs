//! Key and nonce generation for DepSky-CA writes.
//!
//! Every cloud-of-clouds write generates a fresh 256-bit symmetric key
//! (paper §3.2, Figure 6, step 1). In the reproduction the generator is
//! deterministic given its seed so that experiments are reproducible, while
//! still producing unique keys per invocation. Keys are derived with
//! HMAC-SHA-256 over a monotonically increasing counter, i.e. a simple
//! counter-mode KDF.

use crate::hmac::hmac_sha256;

/// Deterministic generator of encryption keys and nonces.
#[derive(Debug, Clone)]
pub struct KeyGenerator {
    seed: [u8; 32],
    counter: u64,
}

impl KeyGenerator {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        KeyGenerator {
            seed: crate::sha256::sha256(&seed.to_le_bytes()),
            counter: 0,
        }
    }

    /// Generates the next 32-byte key.
    pub fn next_key(&mut self) -> [u8; 32] {
        self.counter += 1;
        let mut msg = [0u8; 12];
        msg[..8].copy_from_slice(&self.counter.to_le_bytes());
        msg[8..].copy_from_slice(b"key\0");
        hmac_sha256(&self.seed, &msg)
    }

    /// Generates the next 12-byte nonce.
    pub fn next_nonce(&mut self) -> [u8; 12] {
        self.counter += 1;
        let mut msg = [0u8; 14];
        msg[..8].copy_from_slice(&self.counter.to_le_bytes());
        msg[8..].copy_from_slice(b"nonce\0");
        let digest = hmac_sha256(&self.seed, &msg);
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&digest[..12]);
        nonce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = KeyGenerator::from_seed(42);
        let mut b = KeyGenerator::from_seed(42);
        assert_eq!(a.next_key(), b.next_key());
        assert_eq!(a.next_nonce(), b.next_nonce());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = KeyGenerator::from_seed(1);
        let mut b = KeyGenerator::from_seed(2);
        assert_ne!(a.next_key(), b.next_key());
    }

    #[test]
    fn successive_keys_are_unique() {
        let mut g = KeyGenerator::from_seed(7);
        let k1 = g.next_key();
        let k2 = g.next_key();
        let k3 = g.next_key();
        assert_ne!(k1, k2);
        assert_ne!(k2, k3);
        assert_ne!(k1, k3);
    }
}
