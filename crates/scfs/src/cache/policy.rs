//! The chunk cache's one replacement policy: least-recently-used, as the
//! paper's client cache is at both levels (§2.5.1).
//!
//! A [`RecencyList`] is the *ordering* side of one cache tier: which
//! resident entry is the next victim. The tier ([`super::CacheTier`]) owns
//! the bytes, the key index and the latency accounting; entries are referred
//! to between the two by a dense slab index ([`EntryId`]), so the ordering
//! never touches the keys themselves. Victim selection is a tail read —
//! O(1), no scan over the resident set — and every operation counts one
//! bookkeeping step so tests can assert exactly that.
//!
//! There is one policy on purpose. Measured on the zipfian fleet, TinyLFU
//! admission and size-aware GDSF were no better than LRU
//! (`BENCH_transfer.json` run 12, LRU / TinyLFU / GDSF: `read_p50` 0.4639 /
//! 0.4698 / 0.4634 s, byte hit rate 0.271 / 0.248 / 0.271), so a choice
//! between them is not worth a trait, a dispatch and two knobs.

/// Dense per-tier slab index of a resident entry. Ids are assigned by the
/// tier and may be reused after an entry leaves.
pub(super) type EntryId = u32;

/// Sentinel for "no node" in the intrusive list.
const NIL: u32 = u32::MAX;

/// The spelling `benchmark/src/kernels.rs` constructs a memory tier with.
/// It selects nothing and goes with Benchmark v2 (ROADMAP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used — the only policy there is.
    Lru,
}

/// An intrusive doubly-linked recency list over slab indices: head = most
/// recently used, tail = least recently used. All operations are O(1) and
/// count one step each.
#[derive(Debug)]
pub(super) struct RecencyList {
    prev: Vec<u32>,
    next: Vec<u32>,
    linked: Vec<bool>,
    head: u32,
    tail: u32,
    steps: u64,
}

impl RecencyList {
    pub(super) fn new() -> Self {
        RecencyList {
            prev: Vec::new(),
            next: Vec::new(),
            linked: Vec::new(),
            head: NIL,
            tail: NIL,
            steps: 0,
        }
    }

    fn ensure(&mut self, id: EntryId) {
        let want = id as usize + 1;
        if self.prev.len() < want {
            self.prev.resize(want, NIL);
            self.next.resize(want, NIL);
            self.linked.resize(want, false);
        }
    }

    fn link_front(&mut self, id: EntryId) {
        self.ensure(id);
        debug_assert!(!self.linked[id as usize], "entry already linked");
        self.prev[id as usize] = NIL;
        self.next[id as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = id;
        }
        self.head = id;
        if self.tail == NIL {
            self.tail = id;
        }
        self.linked[id as usize] = true;
    }

    fn unlink(&mut self, id: EntryId) {
        self.ensure(id);
        if !self.linked[id as usize] {
            return;
        }
        let (p, n) = (self.prev[id as usize], self.next[id as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
        self.prev[id as usize] = NIL;
        self.next[id as usize] = NIL;
        self.linked[id as usize] = false;
    }

    /// An entry became resident under `id`: it is the most recently used.
    pub(super) fn insert(&mut self, id: EntryId) {
        self.steps += 1;
        self.link_front(id);
    }

    /// A resident entry was hit or probed.
    pub(super) fn touch(&mut self, id: EntryId) {
        self.steps += 1;
        self.unlink(id);
        self.link_front(id);
    }

    /// A resident entry left the tier (eviction, invalidation or removal);
    /// a no-op on an id that is not linked.
    pub(super) fn remove(&mut self, id: EntryId) {
        self.steps += 1;
        self.unlink(id);
    }

    /// The entry to evict next — the least recently used — without removing
    /// it. `None` when empty.
    pub(super) fn victim(&mut self) -> Option<EntryId> {
        self.steps += 1;
        (self.tail != NIL).then_some(self.tail)
    }

    /// Total bookkeeping steps so far. Each operation counts one, so
    /// steps-per-eviction is flat and must not grow with the resident
    /// entry count.
    pub(super) fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut list = RecencyList::new();
        for id in 0..4 {
            list.insert(id);
        }
        // Touch 0 → victim must be 1 (the oldest untouched).
        list.touch(0);
        assert_eq!(list.victim(), Some(1));
        list.remove(1);
        assert_eq!(list.victim(), Some(2));
    }

    #[test]
    fn policies_report_steps() {
        let mut list = RecencyList::new();
        list.insert(0);
        list.touch(0);
        let _ = list.victim();
        list.remove(0);
        assert_eq!(list.steps(), 4, "one step per operation");
    }

    #[test]
    fn intrusive_list_id_reuse_is_safe() {
        let mut l = RecencyList::new();
        l.insert(0);
        l.insert(1);
        l.remove(0);
        l.insert(0); // reused id
        assert_eq!(l.victim(), Some(1));
        l.remove(1);
        assert_eq!(l.victim(), Some(0));
        l.remove(0);
        assert_eq!(l.victim(), None);
    }
}
