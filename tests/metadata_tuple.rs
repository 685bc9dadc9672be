//! Property tests of the metadata-tuple codec — the bytes a coordination
//! replica (up to `f` of them Byzantine) or a private-name-space blob hands
//! the agent:
//!
//! * `decode(encode(md)) == md` over arbitrary ACLs, sizes, instants and
//!   versions on either side of the inline-manifest bound;
//! * arbitrary bytes, and valid tuples with arbitrary damage, never panic
//!   and never make the decoder allocate for a length it has not seen the
//!   bytes of — it fails closed or returns a tuple that re-encodes to
//!   exactly the input.

use proptest::prelude::*;
use scfs_repro::cloud_store::types::Permission;
use scfs_repro::scfs::types::{ChunkMap, FileMetadata, INLINE_MANIFEST_MAX};
use scfs_repro::sim_core::rng::DetRng;
use scfs_repro::sim_core::time::SimInstant;

/// A file tuple built from the sampled parts: `grants` ACL entries, and a
/// committed version of `chunks` fixed-size chunks when `chunks > 0` (13 or
/// more no longer ride inline).
fn tuple(name_len: usize, grants: &[(u8, bool)], chunks: usize, seed: u64) -> FileMetadata {
    let path = format!("/{}", "n".repeat(name_len));
    let mut md = FileMetadata::new_file(
        &path,
        format!("owner{seed}").as_str().into(),
        format!("owner{seed}-f{}", seed % 97),
        SimInstant::from_nanos(seed),
    );
    for (who, write) in grants {
        let permission = if *write {
            Permission::Write
        } else {
            Permission::Read
        };
        md.acl
            .grant(format!("user{who}").as_str().into(), permission);
    }
    if chunks > 0 {
        let data = DetRng::new(seed).bytes(chunks * 64 - (seed % 64) as usize);
        md.commit_version(
            &ChunkMap::build(&data, 64),
            SimInstant::from_nanos(seed.wrapping_mul(3)),
        );
    }
    md.deleted = seed.is_multiple_of(5);
    md
}

/// Decoding must either fail or yield a tuple that is byte-for-byte what was
/// decoded: the codec is canonical, so nothing hostile hides in a tuple that
/// passes.
fn assert_fails_closed(bytes: &[u8]) {
    if let Ok(md) = FileMetadata::decode(bytes) {
        assert_eq!(md.encode(), bytes, "two encodings of one tuple");
        if let Some(map) = md.inline_manifest().unwrap() {
            assert_eq!(Some(map.root_hash()), md.version_hash);
        }
    }
}

proptest! {
    #[test]
    fn prop_tuple_round_trips(
        name_len in 1usize..120,
        grants in collection::vec(any::<u8>(), 0..6),
        writes in any::<u64>(),
        chunks in 0usize..20,
        seed in any::<u64>(),
    ) {
        let grants: Vec<(u8, bool)> = grants
            .iter()
            .enumerate()
            .map(|(i, who)| (*who, writes >> i & 1 == 1))
            .collect();
        let md = tuple(name_len, &grants, chunks, seed);
        let inline = md.inline_manifest().unwrap();
        prop_assert_eq!(inline.is_some(), (1..=12).contains(&chunks));
        let encoded = md.encode();
        let decoded = FileMetadata::decode(&encoded).unwrap();
        prop_assert_eq!(&decoded, &md);
        prop_assert_eq!(decoded.inline_manifest().unwrap(), inline);
        prop_assert_eq!(decoded.encode(), encoded);
    }

    #[test]
    fn prop_arbitrary_bytes_fail_closed(
        bytes in collection::vec(any::<u8>(), 0..400),
    ) {
        assert_fails_closed(&bytes);
    }

    /// Structure-aware damage: start from a valid tuple, so the decoder gets
    /// deep into it, and at *every* offset plant a hostile `u64` (length
    /// prefixes and counts are all `u64`s: near-`u64::MAX` values overflow
    /// offset arithmetic, small ones redirect the decoder mid-field), flip a
    /// byte, and cut the tuple short.
    #[test]
    fn prop_damaged_tuples_fail_closed(
        chunks in 0usize..14,
        seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let valid = tuple(20, &[(1, true), (2, false)], chunks, seed).encode();
        prop_assert!(valid.len() < 300 + INLINE_MANIFEST_MAX);
        for at in 0..valid.len() {
            for hostile in [u64::MAX, u64::MAX - 7, 1 << 63, 1 << 32, 513] {
                let mut bytes = valid.clone();
                let end = (at + 8).min(bytes.len());
                bytes[at..end].copy_from_slice(&hostile.to_le_bytes()[..end - at]);
                assert_fails_closed(&bytes);
            }
            let mut bytes = valid.clone();
            bytes[at] ^= flip;
            assert_fails_closed(&bytes);
            prop_assert!(FileMetadata::decode(&valid[..at]).is_err(), "truncated at {}", at);
        }
    }
}
