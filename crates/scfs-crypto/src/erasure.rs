//! Systematic Reed–Solomon erasure coding over GF(2⁸).
//!
//! DepSky-CA stores each file as `n = 3f + 1` blocks, one per cloud, produced
//! by an erasure code with `k = f + 1` data blocks, so that any `f + 1`
//! clouds suffice to rebuild the file and the total stored volume is roughly
//! `n / k ≈ 2×` the file size instead of the `4×` of plain replication
//! (paper §3.2 and the storage-cost analysis behind Figure 11(c)).
//!
//! The code here is the classic "systematic Vandermonde" construction: an
//! `n × k` encoding matrix whose top `k × k` block is the identity (so the
//! first `k` shards are the original data) and whose remaining rows generate
//! parity. Reconstruction selects any `k` available shards, inverts the
//! corresponding `k × k` sub-matrix and multiplies.

use crate::gf256::{mul_acc, Matrix};

/// Errors returned by the erasure coder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// The (data, parity) configuration is invalid.
    InvalidConfig {
        /// Number of data shards requested.
        data_shards: usize,
        /// Number of parity shards requested.
        parity_shards: usize,
    },
    /// Not enough shards were present to reconstruct the data.
    NotEnoughShards {
        /// How many shards are needed.
        needed: usize,
        /// How many shards were available.
        available: usize,
    },
    /// The provided shards have inconsistent lengths.
    ShardSizeMismatch,
    /// The shard list length does not match the coder configuration.
    WrongShardCount {
        /// Expected number of entries.
        expected: usize,
        /// Number of entries provided.
        actual: usize,
    },
}

impl std::fmt::Display for ErasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErasureError::InvalidConfig {
                data_shards,
                parity_shards,
            } => write!(
                f,
                "invalid erasure configuration: {data_shards} data + {parity_shards} parity shards"
            ),
            ErasureError::NotEnoughShards { needed, available } => write!(
                f,
                "not enough shards to reconstruct: need {needed}, have {available}"
            ),
            ErasureError::ShardSizeMismatch => write!(f, "shards have inconsistent sizes"),
            ErasureError::WrongShardCount { expected, actual } => {
                write!(f, "expected {expected} shard slots, got {actual}")
            }
        }
    }
}

impl std::error::Error for ErasureError {}

/// A systematic Reed–Solomon coder with `k` data shards and `m` parity shards.
#[derive(Debug, Clone)]
pub struct ErasureCoder {
    data_shards: usize,
    parity_shards: usize,
    /// The full `(k + m) × k` encoding matrix (top `k × k` block = identity).
    encode_matrix: Matrix,
}

impl ErasureCoder {
    /// Creates a coder for `data_shards` data and `parity_shards` parity shards.
    ///
    /// The total number of shards must be at most 255 (field size minus one)
    /// and both counts must be non-zero for a meaningful code; `parity_shards`
    /// may be zero, in which case the coder degenerates to plain splitting.
    pub fn new(data_shards: usize, parity_shards: usize) -> Result<Self, ErasureError> {
        let total = data_shards + parity_shards;
        if data_shards == 0 || total > 255 {
            return Err(ErasureError::InvalidConfig {
                data_shards,
                parity_shards,
            });
        }

        // Build a Vandermonde matrix and normalise it so that the top k rows
        // become the identity, giving a systematic code.
        let vandermonde = Matrix::vandermonde(total, data_shards);
        let top = vandermonde.select_rows(&(0..data_shards).collect::<Vec<_>>());
        let top_inv = top.invert().ok_or(ErasureError::InvalidConfig {
            data_shards,
            parity_shards,
        })?;
        let encode_matrix = vandermonde.multiply(&top_inv);

        Ok(ErasureCoder {
            data_shards,
            parity_shards,
            encode_matrix,
        })
    }

    /// The DepSky configuration for tolerating `f` faulty clouds:
    /// `n = 3f + 1` total shards, `k = f + 1` data shards.
    pub fn depsky(f: usize) -> Result<Self, ErasureError> {
        ErasureCoder::new(f + 1, 3 * f + 1 - (f + 1))
    }

    /// Number of data shards (`k`).
    pub fn data_shards(&self) -> usize {
        self.data_shards
    }

    /// Number of parity shards (`m`).
    pub fn parity_shards(&self) -> usize {
        self.parity_shards
    }

    /// Total number of shards (`n = k + m`).
    pub fn total_shards(&self) -> usize {
        self.data_shards + self.parity_shards
    }

    /// The size of each shard for an input of `data_len` bytes.
    pub fn shard_size(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.data_shards)
    }

    /// Encodes `data` into `total_shards()` shards. The original length is
    /// *not* embedded; callers (DepSky metadata) must remember it to trim the
    /// padding off after decoding.
    pub fn encode(&self, data: &[u8]) -> Vec<Vec<u8>> {
        let shard_size = self.shard_size(data.len()).max(1);
        // Split (and zero-pad) the data into k shards.
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(self.total_shards());
        for i in 0..self.data_shards {
            let start = (i * shard_size).min(data.len());
            let end = ((i + 1) * shard_size).min(data.len());
            let mut shard = Vec::with_capacity(shard_size);
            shard.extend_from_slice(&data[start..end]);
            shard.resize(shard_size, 0);
            shards.push(shard);
        }
        // Generate parity shards.
        for p in 0..self.parity_shards {
            let mut parity = vec![0u8; shard_size];
            let row = self.encode_matrix.row(self.data_shards + p);
            for (&coeff, shard) in row.iter().zip(&shards) {
                mul_acc(coeff, shard, &mut parity);
            }
            shards.push(parity);
        }
        shards
    }

    /// Reconstructs the original data (truncated to `data_len`) from a vector
    /// of optional shards indexed by shard id. At least `data_shards()` of
    /// them must be `Some`.
    pub fn decode(
        &self,
        shards: &[Option<Vec<u8>>],
        data_len: usize,
    ) -> Result<Vec<u8>, ErasureError> {
        if shards.len() != self.total_shards() {
            return Err(ErasureError::WrongShardCount {
                expected: self.total_shards(),
                actual: shards.len(),
            });
        }
        let available: Vec<(usize, &[u8])> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.as_deref()?)))
            .collect();
        if available.len() < self.data_shards {
            return Err(ErasureError::NotEnoughShards {
                needed: self.data_shards,
                available: available.len(),
            });
        }
        let shard_size = available[0].1.len();
        if available.iter().any(|(_, s)| s.len() != shard_size) {
            return Err(ErasureError::ShardSizeMismatch);
        }

        // The output is built straight from the borrowed shards.
        let chosen = &available[..self.data_shards];
        let mut data;
        if chosen.iter().map(|&(i, _)| i).eq(0..self.data_shards) {
            // Fast path: all data shards present — just concatenate.
            data = Vec::with_capacity(self.data_shards * shard_size);
            for (_, shard) in chosen {
                data.extend_from_slice(shard);
            }
        } else {
            // Invert the sub-matrix corresponding to the chosen shards and
            // multiply it with the shard contents to recover the data shards.
            let rows: Vec<usize> = chosen.iter().map(|&(i, _)| i).collect();
            let sub = self.encode_matrix.select_rows(&rows);
            let decode_matrix = sub.invert().ok_or(ErasureError::NotEnoughShards {
                needed: self.data_shards,
                available: available.len(),
            })?;
            data = vec![0u8; self.data_shards * shard_size];
            // `chunks_exact_mut(0)` panics; empty shards decode to nothing.
            for (r, out) in data.chunks_exact_mut(shard_size.max(1)).enumerate() {
                for (c, (_, shard)) in chosen.iter().enumerate() {
                    mul_acc(decode_matrix.get(r, c), shard, out);
                }
            }
        }
        data.truncate(data_len);
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn depsky_configuration_for_f1() {
        let c = ErasureCoder::depsky(1).unwrap();
        assert_eq!(c.total_shards(), 4);
        assert_eq!(c.data_shards(), 2);
        assert_eq!(c.parity_shards(), 2);
    }

    #[test]
    fn encode_produces_expected_shard_sizes() {
        let c = ErasureCoder::new(2, 2).unwrap();
        let data = sample_data(1000);
        let shards = c.encode(&data);
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| s.len() == 500));
    }

    #[test]
    fn decode_with_all_shards() {
        let c = ErasureCoder::new(2, 2).unwrap();
        let data = sample_data(999);
        let shards: Vec<Option<Vec<u8>>> = c.encode(&data).into_iter().map(Some).collect();
        assert_eq!(c.decode(&shards, data.len()).unwrap(), data);
    }

    #[test]
    fn decode_with_any_two_of_four() {
        let c = ErasureCoder::new(2, 2).unwrap();
        let data = sample_data(4096);
        let encoded = c.encode(&data);
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let mut shards: Vec<Option<Vec<u8>>> = vec![None; 4];
                shards[i] = Some(encoded[i].clone());
                shards[j] = Some(encoded[j].clone());
                assert_eq!(
                    c.decode(&shards, data.len()).unwrap(),
                    data,
                    "failed with shards {i} and {j}"
                );
            }
        }
    }

    #[test]
    fn every_loss_pattern_round_trips_at_odd_shard_lengths() {
        // Every way to keep two shards of three (DepSky's three preferred
        // clouds) and of four, at shard lengths either side of the 32-byte
        // vector width and of a whole chunk.
        for total in [3, 4] {
            let c = ErasureCoder::new(2, total - 2).unwrap();
            for len in [1, 2, 61, 63, 65, 67, 1999, (1 << 20) + 17] {
                let data = sample_data(len);
                let encoded = c.encode(&data);
                assert_eq!(encoded[0].len(), len.div_ceil(2));
                for keep_a in 0..total {
                    for keep_b in keep_a + 1..total {
                        let mut shards: Vec<Option<Vec<u8>>> = vec![None; total];
                        shards[keep_a] = Some(encoded[keep_a].clone());
                        shards[keep_b] = Some(encoded[keep_b].clone());
                        assert!(
                            c.decode(&shards, len).unwrap() == data,
                            "{len} bytes from shards {keep_a} and {keep_b} of {total}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn decode_fails_with_too_few_shards() {
        let c = ErasureCoder::new(3, 2).unwrap();
        let data = sample_data(100);
        let encoded = c.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; 5];
        shards[0] = Some(encoded[0].clone());
        shards[4] = Some(encoded[4].clone());
        match c.decode(&shards, data.len()) {
            Err(ErasureError::NotEnoughShards { needed, available }) => {
                assert_eq!(needed, 3);
                assert_eq!(available, 2);
            }
            other => panic!("expected NotEnoughShards, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_wrong_shard_count() {
        let c = ErasureCoder::new(2, 1).unwrap();
        let err = c.decode(&[None, None], 10).unwrap_err();
        assert!(matches!(err, ErasureError::WrongShardCount { .. }));
    }

    #[test]
    fn decode_rejects_mismatched_shard_sizes() {
        let c = ErasureCoder::new(2, 1).unwrap();
        let shards = vec![Some(vec![1, 2, 3]), Some(vec![1, 2]), None];
        assert_eq!(
            c.decode(&shards, 5).unwrap_err(),
            ErasureError::ShardSizeMismatch
        );
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(ErasureCoder::new(0, 2).is_err());
        assert!(ErasureCoder::new(200, 100).is_err());
        assert!(ErasureCoder::new(1, 0).is_ok());
    }

    #[test]
    fn empty_input_round_trips() {
        let c = ErasureCoder::new(2, 2).unwrap();
        let shards: Vec<Option<Vec<u8>>> = c.encode(&[]).into_iter().map(Some).collect();
        assert_eq!(c.decode(&shards, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn error_display_strings() {
        let e = ErasureError::NotEnoughShards {
            needed: 3,
            available: 1,
        };
        assert!(e.to_string().contains("need 3"));
        let e = ErasureError::InvalidConfig {
            data_shards: 0,
            parity_shards: 2,
        };
        assert!(e.to_string().contains("invalid"));
    }

    proptest! {
        #[test]
        fn prop_round_trip_with_random_losses(
            len in 1usize..4096,
            f in 1usize..4,
            seed in any::<u64>(),
        ) {
            let c = ErasureCoder::depsky(f).unwrap();
            let data = sample_data(len);
            let encoded = c.encode(&data);
            // Drop up to f shards pseudo-randomly.
            let mut s = seed;
            let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
            let mut dropped = 0;
            for shard in shards.iter_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if dropped < f && (s >> 60).is_multiple_of(2) {
                    *shard = None;
                    dropped += 1;
                }
            }
            prop_assert_eq!(c.decode(&shards, data.len()).unwrap(), data);
        }

        #[test]
        fn prop_shard_sizes_cover_data(len in 1usize..10_000, k in 1usize..8, m in 0usize..8) {
            let c = ErasureCoder::new(k, m).unwrap();
            let shards = c.encode(&sample_data(len));
            prop_assert_eq!(shards.len(), k + m);
            let shard_size = shards[0].len();
            prop_assert!(shard_size * k >= len);
        }
    }
}
