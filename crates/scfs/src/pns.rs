//! Private Name Spaces (paper §2.7).
//!
//! Most files in a shared file system are never actually shared (the paper
//! cites traces where only ~5% are). SCFS therefore keeps the metadata of all
//! *non-shared* files of a user out of the coordination service: they are
//! grouped in a single Private Name Space (PNS) object, held in memory by the
//! agent and persisted as one object in the cloud storage. Only a small PNS
//! tuple (user name + reference to that object) lives in the coordination
//! service. This cuts both the storage footprint of the coordination service
//! and, more importantly, the number of accesses it has to serve.

use std::collections::BTreeMap;

use depsky::wire::{DecodeError, Reader, Writer};

use crate::types::{is_child_of, is_under, FileMetadata};

/// The in-memory private name space of one user.
#[derive(Debug, Clone, Default)]
pub struct PrivateNameSpace {
    entries: BTreeMap<String, FileMetadata>,
    dirty: bool,
}

impl PrivateNameSpace {
    /// Creates an empty name space.
    pub fn new() -> Self {
        PrivateNameSpace::default()
    }

    /// Number of private files tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the name space is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the name space has changes not yet persisted to the cloud.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Marks the name space as persisted.
    pub fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// Looks up the metadata of a private file.
    pub fn get(&self, path: &str) -> Option<&FileMetadata> {
        self.entries.get(path)
    }

    /// Inserts or replaces the metadata of a private file.
    pub fn insert(&mut self, metadata: FileMetadata) {
        self.entries.insert(metadata.path.clone(), metadata);
        self.dirty = true;
    }

    /// Removes a private file's metadata (e.g. when it becomes shared and
    /// moves to the coordination service, or when it is unlinked).
    pub fn remove(&mut self, path: &str) -> Option<FileMetadata> {
        let removed = self.entries.remove(path);
        if removed.is_some() {
            self.dirty = true;
        }
        removed
    }

    /// Lists the direct children of `dir`.
    pub fn children_of(&self, dir: &str) -> Vec<String> {
        self.entries
            .keys()
            .filter(|p| is_child_of(p, dir))
            .cloned()
            .collect()
    }

    /// Renames every entry under `from` to be under `to`.
    pub fn rename_prefix(&mut self, from: &str, to: &str) -> usize {
        let affected: Vec<String> = self
            .entries
            .keys()
            .filter(|k| is_under(k, from))
            .cloned()
            .collect();
        for key in &affected {
            if let Some(mut md) = self.entries.remove(key) {
                let new_key = format!("{to}{}", &key[from.len()..]);
                md.path = new_key.clone();
                self.entries.insert(new_key, md);
            }
        }
        if !affected.is_empty() {
            self.dirty = true;
        }
        affected.len()
    }

    /// Iterates over all private files.
    pub fn iter(&self) -> impl Iterator<Item = &FileMetadata> {
        self.entries.values()
    }

    /// Serializes the whole name space into the single object stored in the
    /// cloud (paper §2.7: "a copy of the serialized metadata of all private
    /// files of the user").
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.entries.len() as u64);
        for md in self.entries.values() {
            w.put_bytes(&md.encode());
        }
        w.finish()
    }

    /// Deserializes a name space object.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let count = r.get_u64()? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let bytes = r.get_bytes()?;
            let md = FileMetadata::decode(&bytes)?;
            entries.insert(md.path.clone(), md);
        }
        Ok(PrivateNameSpace {
            entries,
            dirty: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_store::types::AccountId;
    use sim_core::time::SimInstant;

    fn md(path: &str) -> FileMetadata {
        FileMetadata::new_file(
            path,
            AccountId::new("alice"),
            format!("id-{path}"),
            SimInstant::EPOCH,
        )
    }

    #[test]
    fn insert_get_remove() {
        let mut pns = PrivateNameSpace::new();
        assert!(pns.is_empty());
        pns.insert(md("/docs/a.txt"));
        assert_eq!(pns.len(), 1);
        assert!(pns.is_dirty());
        assert!(pns.get("/docs/a.txt").is_some());
        assert!(pns.remove("/docs/a.txt").is_some());
        assert!(pns.get("/docs/a.txt").is_none());
        assert!(pns.remove("/docs/a.txt").is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut pns = PrivateNameSpace::new();
        for i in 0..20 {
            pns.insert(md(&format!("/files/f{i}")));
        }
        let decoded = PrivateNameSpace::decode(&pns.encode()).unwrap();
        assert_eq!(decoded.len(), 20);
        assert!(!decoded.is_dirty());
        assert!(decoded.get("/files/f7").is_some());
    }

    #[test]
    fn children_listing() {
        let mut pns = PrivateNameSpace::new();
        pns.insert(md("/docs/a"));
        pns.insert(md("/docs/b"));
        pns.insert(md("/docs/sub/c"));
        pns.insert(md("/other"));
        let mut kids = pns.children_of("/docs");
        kids.sort();
        assert_eq!(kids, vec!["/docs/a".to_string(), "/docs/b".to_string()]);
        assert_eq!(pns.children_of("/").len(), 1);
    }

    #[test]
    fn rename_prefix_moves_entries() {
        let mut pns = PrivateNameSpace::new();
        pns.insert(md("/dir/a"));
        pns.insert(md("/dir/b"));
        pns.insert(md("/keep/c"));
        let moved = pns.rename_prefix("/dir", "/renamed");
        assert_eq!(moved, 2);
        assert!(pns.get("/renamed/a").is_some());
        assert_eq!(pns.get("/renamed/a").unwrap().path, "/renamed/a");
        assert!(pns.get("/dir/a").is_none());
        assert!(pns.get("/keep/c").is_some());
    }

    #[test]
    fn dirty_tracking_and_savings() {
        let mut pns = PrivateNameSpace::new();
        pns.insert(md("/a"));
        pns.insert(md("/b"));
        pns.mark_clean();
        assert!(!pns.is_dirty());
        pns.insert(md("/c"));
        assert!(pns.is_dirty());
    }
}
