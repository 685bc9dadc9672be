//! The shadow model: what the file system must contain, kept by the driver.
//!
//! Every mutation the driver issues is applied here first-hand, byte for
//! byte, so every `read` can be compared against the exact expected bytes,
//! every `stat` against the exact size and every `readdir` against the
//! expected child count.
//!
//! The simulator is faithful to virtual time: the coordination service
//! answers a read *as of the reader's instant*, so a mount whose clock is
//! behind a writer's commit still sees the previous version even though the
//! driver already executed the writer's close. The model therefore keeps,
//! per file, the versions that can still be observed, each with the virtual
//! window in which its commit happened (`lo` = the close began, `hi` = the
//! close returned): a reader whose open spans `[o0, o1]` may see any version
//! possibly committed by `o1` that no later version surely replaced by `o0`.
//! With one writer per file and one clock per mount the window is narrow;
//! for a file only its own mount touches it collapses to "the latest".
//! Directory child counts follow the same rule, as a `[min, max]` range.
//!
//! Comparisons are byte-exact; the word-wise FNV [`checksum`] only labels a
//! mismatch report, so a failure names the file and both digests without
//! dumping megabytes.

use std::collections::{BTreeMap, HashMap, VecDeque};

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a state.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A fast content checksum for multi-megabyte files: FNV-1a over 8-byte
/// words (byte-wise FNV would cost more than the read it labels).
pub fn checksum(data: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET ^ data.len() as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        hash = (hash ^ v).wrapping_mul(FNV_PRIME);
    }
    fnv1a(hash, words.remainder())
}

/// A virtual-time window `[lo, hi]` in nanoseconds: a commit happened
/// somewhere inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Earliest instant the commit may have happened.
    pub lo: u64,
    /// Instant by which it surely had.
    pub hi: u64,
}

impl Window {
    /// A commit every mount has seen (set-up, before the mounts are aligned).
    pub const SETTLED: Window = Window { lo: 0, hi: 0 };
}

/// One observable version of a file.
#[derive(Debug, Clone)]
pub struct Version {
    /// Its content.
    pub data: Vec<u8>,
    /// When it was committed.
    pub at: Window,
}

/// One file of the model.
#[derive(Debug, Clone)]
pub struct ShadowFile {
    /// Observable versions, oldest first; the last is the latest commit.
    versions: VecDeque<Version>,
    /// Index of the account that owns the file (for the verifier mount).
    pub account: usize,
}

impl ShadowFile {
    /// The latest committed content (what the file's own writer sees).
    pub fn latest(&self) -> &[u8] {
        self.versions.back().map_or(&[], |v| v.data.as_slice())
    }

    /// Versions a reader whose open spanned `open` may observe.
    pub fn observable(&self, open: Window) -> impl Iterator<Item = &Version> {
        // The newest version surely committed before the open began hides
        // everything older.
        let first = self
            .versions
            .iter()
            .rposition(|v| v.at.hi <= open.lo)
            .unwrap_or(0);
        self.versions
            .iter()
            .skip(first)
            .filter(move |v| v.at.lo <= open.hi)
    }
}

/// One node of the model.
#[derive(Debug, Clone)]
pub enum Node {
    /// A regular file.
    File(ShadowFile),
    /// A directory.
    Dir,
}

/// Child count of one directory: entries every mount sees, plus recent
/// additions and removals whose commit window some mount may still straddle.
#[derive(Debug, Clone, Default)]
struct DirCount {
    settled: i64,
    recent: Vec<(i64, Window)>,
}

/// The expected namespace.
#[derive(Debug, Default)]
pub struct Shadow {
    nodes: BTreeMap<String, Node>,
    dirs: HashMap<String, DirCount>,
}

fn parent_of(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

impl Shadow {
    /// Records a child of `path`'s parent appearing (`+1`) or disappearing
    /// (`-1`) at `at`. `floor` is the earliest instant any future operation
    /// can start at: changes surely committed by then are folded in.
    fn count(&mut self, path: &str, delta: i64, at: Window, floor: u64) {
        let dir = self.dirs.entry(parent_of(path).to_string()).or_default();
        dir.recent.push((delta, at));
        dir.recent.retain(|(d, w)| {
            let settled = w.hi <= floor;
            if settled {
                dir.settled += d;
            }
            !settled
        });
    }

    /// Creates or replaces the file at `path` with a single version.
    pub fn put_file(&mut self, path: &str, data: Vec<u8>, account: usize, at: Window, floor: u64) {
        let file = ShadowFile {
            versions: VecDeque::from([Version { data, at }]),
            account,
        };
        if self
            .nodes
            .insert(path.to_string(), Node::File(file))
            .is_none()
        {
            self.count(path, 1, at, floor);
        }
    }

    /// Creates the directory `path`.
    pub fn put_dir(&mut self, path: &str, at: Window, floor: u64) {
        if self.nodes.insert(path.to_string(), Node::Dir).is_none() {
            self.count(path, 1, at, floor);
        }
    }

    /// Removes the node at `path`.
    pub fn remove(&mut self, path: &str, at: Window, floor: u64) {
        if self.nodes.remove(path).is_some() {
            self.count(path, -1, at, floor);
        }
    }

    /// Moves the node at `from` (and anything below it) to `to`. The
    /// replicas of a register group apply a rename at slightly different
    /// instants and a listing merges their replies, so while the rename is
    /// in flight a `readdir` may show both names or neither: it counts as a
    /// removal and an addition, each somewhere inside `at`.
    pub fn rename(&mut self, from: &str, to: &str, at: Window, floor: u64) {
        let below = format!("{from}/");
        let moved: Vec<String> = self
            .nodes
            .range(from.to_string()..)
            .take_while(|(k, _)| k.starts_with(from))
            .filter(|(k, _)| k.as_str() == from || k.starts_with(&below))
            .map(|(k, _)| k.clone())
            .collect();
        for key in moved {
            if let Some(node) = self.nodes.remove(&key) {
                let dest = format!("{to}{}", &key[from.len()..]);
                self.nodes.insert(dest, node);
            }
        }
        self.count(from, -1, at, floor);
        self.count(to, 1, at, floor);
        if let Some(counts) = self.dirs.remove(from) {
            self.dirs.insert(to.to_string(), counts);
        }
    }

    /// The node at `path`.
    pub fn get(&self, path: &str) -> Option<&Node> {
        self.nodes.get(path)
    }

    /// The file at `path`, if it is one.
    pub fn file(&self, path: &str) -> Option<&ShadowFile> {
        match self.nodes.get(path) {
            Some(Node::File(f)) => Some(f),
            _ => None,
        }
    }

    /// Length of the latest version of the file at `path` (0 if none).
    pub fn len_of(&self, path: &str) -> u64 {
        self.file(path).map_or(0, |f| f.latest().len() as u64)
    }

    /// Commits a new latest version of the file at `path`: `edit` is applied
    /// to a copy of the current content when other mounts may still observe
    /// the old one (`keep_history`), in place otherwise. Versions no future
    /// operation can observe (`floor`) are dropped. Returns the new length.
    pub fn commit(
        &mut self,
        path: &str,
        at: Window,
        floor: u64,
        keep_history: bool,
        edit: impl FnOnce(&mut Vec<u8>),
    ) -> Option<u64> {
        let Some(Node::File(f)) = self.nodes.get_mut(path) else {
            return None;
        };
        if keep_history {
            let mut data = f.latest().to_vec();
            edit(&mut data);
            f.versions.push_back(Version { data, at });
            // Drop every version whose successor surely committed before
            // any future operation starts.
            while f.versions.len() > 1 && f.versions[1].at.hi <= floor {
                f.versions.pop_front();
            }
        } else if let Some(v) = f.versions.back_mut() {
            edit(&mut v.data);
        }
        Some(f.latest().len() as u64)
    }

    /// The `[min, max]` number of direct children a `readdir` of `path`
    /// spanning `call` may return.
    pub fn child_count_range(&self, path: &str, call: Window) -> (usize, usize) {
        let Some(dir) = self.dirs.get(path) else {
            return (0, 0);
        };
        let (mut min, mut max) = (dir.settled, dir.settled);
        for (delta, w) in &dir.recent {
            let surely = w.hi <= call.lo;
            let possibly = w.lo <= call.hi;
            if *delta > 0 {
                min += i64::from(surely);
                max += i64::from(possibly);
            } else {
                min -= i64::from(possibly);
                max -= i64::from(surely);
            }
        }
        (min.max(0) as usize, max.max(0) as usize)
    }

    /// Every file, in path order.
    pub fn files(&self) -> impl Iterator<Item = (&String, &ShadowFile)> {
        self.nodes.iter().filter_map(|(k, n)| match n {
            Node::File(f) => Some((k, f)),
            Node::Dir => None,
        })
    }

    /// Sum of the lengths of the latest versions of all files.
    pub fn live_bytes(&self) -> u64 {
        self.files().map(|(_, f)| f.latest().len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: Window = Window::SETTLED;

    #[test]
    fn child_counts_follow_create_remove_rename() {
        let mut s = Shadow::default();
        s.put_dir("/home", NOW, 0);
        s.put_file("/home/a", vec![1, 2, 3], 0, NOW, 0);
        s.put_file("/home/b", vec![4], 0, NOW, 0);
        s.put_dir("/home/d", NOW, 0);
        let at = Window { lo: 5, hi: 5 };
        assert_eq!(s.child_count_range("/home", at), (3, 3));
        assert_eq!(s.child_count_range("/", at), (1, 1));
        s.put_file("/home/a", vec![9; 10], 0, NOW, 0);
        assert_eq!(
            s.child_count_range("/home", at),
            (3, 3),
            "replacing is not a new child"
        );
        s.remove("/home/b", NOW, 0);
        assert_eq!(s.child_count_range("/home", at), (2, 2));
        s.rename("/home/a", "/home/c", NOW, 0);
        assert!(s.file("/home/a").is_none());
        assert_eq!(s.len_of("/home/c"), 10);
        assert_eq!(s.child_count_range("/home", at), (2, 2));
        s.put_file("/home/d/x", vec![7], 0, NOW, 0);
        s.rename("/home/d", "/home/e", NOW, 0);
        assert_eq!(s.file("/home/e/x").unwrap().latest(), &[7]);
        assert_eq!(s.child_count_range("/home/e", at), (1, 1));
        assert_eq!(s.child_count_range("/home/d", at), (0, 0));
        assert_eq!(s.live_bytes(), 11);
    }

    #[test]
    fn rename_does_not_capture_name_prefixes() {
        let mut s = Shadow::default();
        s.put_file("/h/d1", vec![1], 0, NOW, 0);
        s.put_file("/h/d1-x", vec![3], 0, NOW, 0);
        s.put_file("/h/d10", vec![2], 0, NOW, 0);
        s.put_file("/h/d1/in", vec![4], 0, NOW, 0);
        s.rename("/h/d1", "/h/r1", NOW, 0);
        assert!(s.file("/h/d10").is_some());
        assert!(s.file("/h/d1-x").is_some());
        assert!(s.file("/h/r1").is_some());
        assert!(s.file("/h/r1/in").is_some());
        assert!(s.file("/h/r10").is_none());
    }

    #[test]
    fn a_reader_behind_the_commit_may_see_the_old_version() {
        let mut s = Shadow::default();
        s.put_file("/f", vec![0; 4], 2, NOW, 0);
        // The writer's close ran over virtual 100..130.
        let commit = Window { lo: 100, hi: 130 };
        assert_eq!(s.commit("/f", commit, 90, true, |d| d[0] = 1), Some(4));
        let f = s.file("/f").unwrap();
        assert_eq!(f.latest(), &[1, 0, 0, 0]);
        assert_eq!(f.account, 2);
        let seen =
            |lo, hi| -> Vec<u8> { f.observable(Window { lo, hi }).map(|v| v.data[0]).collect() };
        assert_eq!(seen(50, 60), vec![0], "opened before the close began");
        assert_eq!(seen(95, 110), vec![0, 1], "open straddles the commit");
        assert_eq!(seen(110, 120), vec![0, 1], "inside the commit window");
        assert_eq!(seen(130, 140), vec![1], "opened after the close returned");
        // A second commit; once no operation can start before 130, the
        // first version is unobservable and dropped.
        s.commit("/f", Window { lo: 200, hi: 230 }, 150, true, |d| d[0] = 2);
        let f = s.file("/f").unwrap();
        assert_eq!(f.versions.len(), 2);
        assert_eq!(
            f.observable(Window { lo: 160, hi: 170 }).count(),
            1,
            "only the middle version"
        );
        // Without history the edit is in place.
        s.commit("/f", NOW, 0, false, |d| d[0] = 3);
        assert_eq!(s.file("/f").unwrap().versions.len(), 2);
        assert_eq!(s.file("/f").unwrap().latest()[0], 3);
        assert_eq!(s.commit("/missing", NOW, 0, false, |_| ()), None);
    }

    #[test]
    fn readdir_range_brackets_entries_in_flight() {
        let mut s = Shadow::default();
        s.put_dir("/t", NOW, 0);
        s.put_file("/t/a", vec![], 0, NOW, 0);
        // Another mount's mkdir committed somewhere in 100..120.
        s.put_dir("/t/d", Window { lo: 100, hi: 120 }, 90);
        let range = |lo, hi| s.child_count_range("/t", Window { lo, hi });
        assert_eq!(range(50, 60), (1, 1));
        assert_eq!(range(95, 105), (1, 2));
        assert_eq!(range(120, 125), (2, 2));
        // A rename in flight may show both names or neither.
        s.rename("/t/d", "/t/e", Window { lo: 140, hi: 150 }, 130);
        let range = |lo, hi| s.child_count_range("/t", Window { lo, hi });
        assert_eq!(range(130, 135), (2, 2));
        assert_eq!(range(142, 145), (1, 3));
        assert_eq!(range(150, 155), (2, 2));
        // An unlink in flight can only lower the count.
        s.remove("/t/a", Window { lo: 200, hi: 220 }, 150);
        let range = |lo, hi| s.child_count_range("/t", Window { lo, hi });
        assert_eq!(range(160, 170), (2, 2));
        assert_eq!(range(205, 210), (1, 2));
        assert_eq!(range(230, 240), (1, 1));
    }

    #[test]
    fn checksums_tell_contents_and_lengths_apart() {
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 16]));
        assert_ne!(checksum(&[1, 2, 3]), checksum(&[1, 2, 4]));
        assert_eq!(checksum(&[5; 100]), checksum(&[5; 100]));
    }
}
