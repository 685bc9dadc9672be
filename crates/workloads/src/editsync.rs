//! The insert-in-the-middle edit workload: the traffic pattern fixed-size
//! chunking handles worst.
//!
//! A user edits a large committed file by inserting a small amount of data
//! in the middle (prepending a page to a document, splicing a scene into a
//! video project file, adding a record to a sorted archive). Under
//! fixed-size chunking every chunk boundary after the insertion point
//! shifts, so the close re-uploads the whole tail — O(file) traffic for an
//! O(edit) change, exactly what the paper's "always write / avoid reading"
//! principle (§2.5.1) says the client should never generate. Under
//! content-defined chunking ([`scfs::config::ChunkingMode::Cdc`]) the
//! shifted tail re-aligns to identical chunk hashes and only the chunks
//! around the edit move.
//!
//! [`run_mid_file_insert`] drives one agent through the commit + edit +
//! re-commit sequence and reports how many chunks (and bytes) the edit
//! close actually uploaded — the number the `transfer_engine` bench records
//! per chunking mode in `BENCH_transfer.json`.

use scfs::agent::ScfsAgent;
use scfs::error::ScfsError;
use scfs::fs::FileSystem;
use scfs::types::OpenFlags;
use sim_core::rng::DetRng;
use sim_core::units::Bytes;

/// Transfer accounting of one mid-file-insert edit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertResult {
    /// Chunks the initial (not timed) commit of the file uploaded.
    pub initial_chunks: u64,
    /// Chunks the edit close uploaded — O(edit) under CDC, O(file) under
    /// fixed-size chunking.
    pub insert_chunks: u64,
    /// Payload bytes the edit close uploaded (dirty chunks + manifest).
    pub insert_bytes: u64,
    /// Foreground virtual seconds the edit close took.
    pub insert_close_s: f64,
}

/// Commits a `file_size` file of pseudo-random bytes at `path`, then inserts
/// `insert_len` fresh bytes at the midpoint (shifting the tail) and closes
/// again, returning what the edit close moved.
pub fn run_mid_file_insert(
    fs: &mut ScfsAgent,
    path: &str,
    file_size: Bytes,
    insert_len: Bytes,
    seed: u64,
) -> Result<InsertResult, ScfsError> {
    let mut rng = DetRng::new(seed);
    let contents = rng.bytes(file_size.get() as usize);
    fs.write_file(path, &contents)?;
    let before = fs.stats();

    // The edit: splice `insert_len` new bytes in at the midpoint. The agent
    // sees it as a single shifting write of the new tail, the way an editor
    // rewrites everything after the insertion point.
    let mid = contents.len() / 2;
    let mut tail = rng.bytes(insert_len.get() as usize);
    tail.extend_from_slice(&contents[mid..]);
    let start = fs.now();
    let handle = fs.open(path, OpenFlags::read_write())?;
    fs.write(handle, mid as u64, &tail)?;
    fs.close(handle)?;
    let insert_close_s = fs.now().duration_since(start).as_secs_f64();

    let after = fs.stats();
    Ok(InsertResult {
        initial_chunks: before.chunk_uploads,
        insert_chunks: after.chunk_uploads - before.chunk_uploads,
        insert_bytes: after.bytes_uploaded - before.bytes_uploaded,
        insert_close_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{Backend, Deployment};
    use scfs::config::{Mode, ScfsConfig};

    fn run(config: ScfsConfig) -> InsertResult {
        let mut fs = Deployment::paper(Backend::Aws, 3).mount("alice", config, 3);
        run_mid_file_insert(&mut fs, "/doc", Bytes::mib(16), Bytes::kib(1), 3).unwrap()
    }

    #[test]
    fn cdc_moves_o_edit_fixed_moves_o_file() {
        let fixed = run(ScfsConfig::test(Mode::Blocking));
        let cdc = run(ScfsConfig::test(Mode::Blocking).with_cdc());
        assert!(
            fixed.insert_chunks >= 8,
            "fixed-size chunking must re-upload the shifted tail, moved {}",
            fixed.insert_chunks
        );
        assert!(
            cdc.insert_chunks <= 8,
            "CDC must move O(edit) chunks, moved {}",
            cdc.insert_chunks
        );
        assert!(cdc.insert_bytes < fixed.insert_bytes / 2);
    }
}
