//! The single-replica state machine: a versioned, ACL-protected tuple store.
//!
//! This is the deterministic core that the replication layers
//! ([`crate::replication`] for the SMR path, [`crate::abd`] for the
//! quorum-register path) order commands for. It corresponds to the data
//! model shared by ZooKeeper znodes and DepSpace tuples as used by SCFS
//! (paper §2.5.1): small named entries holding serialized metadata, with
//! per-entry ACLs and *ephemeral* entries that disappear when the owning
//! session's lease expires (the primitive behind file locks).
//!
//! The store is **time-indexed**: every committed change records the virtual
//! instant at which it became effective, and reads take the reader's instant
//! as a parameter. This is what lets the simulation answer questions such as
//! "what did client B observe at t = 3 s, given that client A's background
//! upload only updated the metadata at t = 5 s?" — the crux of the
//! non-blocking mode and of the sharing experiment (Figure 9).
//!
//! Entry payloads are stored as `Arc<[u8]>` (and ACLs as `Arc<Acl>`): a
//! command replayed on the N replicas of a register group shares one payload
//! allocation instead of copying it N×, and pushing a new history event
//! never deep-copies the value. Keys (`Arc<str>`) and committed states
//! (`Arc<EntryState>`) are shared across the replicas themselves: replicas
//! apply a command one after another, and each takes an `Arc` clone of a key
//! or state equal to the one the previous replica built (`Built`), so a
//! group stores each once and its replicas' scans read the same bytes.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use cloud_store::types::{AccountId, Acl, Permission};
use sim_core::time::SimInstant;

use crate::commands::{Command, Reply, SignedCommand};
use crate::error::CoordError;
use crate::service::{Entry, SessionId};

/// The live content of an entry at some point in time.
///
/// Crate-visible so the quorum-register layer ([`crate::abd`]) can snapshot,
/// transport and re-install states during read write-back and cross-shard
/// renames without round-tripping through the public [`Entry`] type. `Eq`
/// lets two `Arc`s of one state compare by pointer before content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EntryState {
    pub(crate) value: Arc<[u8]>,
    pub(crate) version: u64,
    pub(crate) owner: AccountId,
    pub(crate) acl: Arc<Acl>,
    pub(crate) ephemeral: Option<(SessionId, SimInstant)>,
}

impl EntryState {
    /// Converts the internal state into the public read result.
    pub(crate) fn to_entry(&self, key: &str, updated_at: SimInstant) -> Entry {
        Entry {
            key: key.to_string(),
            value: self.value.to_vec(),
            version: self.version,
            owner: self.owner.clone(),
            acl: (*self.acl).clone(),
            ephemeral: self.ephemeral.clone(),
            updated_at,
        }
    }

    /// The state a plain write of `value` by `who` leaves: the `current`
    /// owner and ACL are preserved on overwrite, a new entry is private.
    fn written(
        value: Arc<[u8]>,
        version: u64,
        current: Option<&Arc<EntryState>>,
        who: &AccountId,
    ) -> EntryState {
        EntryState {
            value,
            version,
            owner: current.map_or_else(|| who.clone(), |c| c.owner.clone()),
            acl: current.map_or_else(|| Arc::new(Acl::private()), |c| Arc::clone(&c.acl)),
            ephemeral: None,
        }
    }

    /// A copy of this state at register timestamp `version`.
    pub(crate) fn at_version(&self, version: u64) -> EntryState {
        EntryState {
            version,
            ..self.clone()
        }
    }

    /// Whether `who` may read this entry.
    pub(crate) fn readable_by(&self, who: &AccountId) -> bool {
        &self.owner == who || self.acl.allows(who, Permission::Read)
    }

    /// Whether `who` may overwrite this entry.
    pub(crate) fn writable_by(&self, who: &AccountId) -> bool {
        &self.owner == who || self.acl.allows(who, Permission::Write)
    }
}

/// A live entry as a rename's collect phase hands it on: key and state, both
/// shared with the replica that answered.
pub(crate) type KeyedState = (Arc<str>, Arc<EntryState>);

/// What the previous replica of a group built while applying the same
/// command: the next replica takes an `Arc` clone of an equal key or state
/// instead of allocating its own. A replica that diverged — it missed a
/// command, or holds another owner or ACL — builds, and hands on, its own.
#[derive(Debug, Default)]
pub(crate) struct Built {
    key: Option<Arc<str>>,
    state: Option<Arc<EntryState>>,
    /// One per entry a rename moves.
    moved: Vec<Built>,
}

impl Built {
    fn moved(&mut self, entries: usize) -> &mut [Built] {
        self.moved.resize_with(entries, Built::default);
        &mut self.moved
    }

    fn key(&mut self, key: &str) -> Arc<str> {
        match &mut self.key {
            Some(built) if **built == *key => Arc::clone(built),
            free => Arc::clone(free.insert(Arc::from(key))),
        }
    }

    fn state(&mut self, state: EntryState) -> Arc<EntryState> {
        match &mut self.state {
            Some(built) if **built == state => Arc::clone(built),
            free => Arc::clone(free.insert(Arc::new(state))),
        }
    }
}

/// The outcome of installing an ABD write on one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbdWriteOutcome {
    /// The timestamp was newer than anything stored: the value is installed.
    Installed,
    /// A write with a higher timestamp already landed; the incoming write is
    /// linearized before it and acknowledged without changing state.
    Stale,
    /// The issuer lacks write permission on the current entry.
    Denied,
}

/// One committed change to a key: the instant it became effective and the new
/// state (`None` = deleted). States are shared: a read hands the `Arc` from
/// the replica through the vote to the caller without copying the entry.
#[derive(Debug, Clone)]
struct HistoryEvent {
    at: SimInstant,
    state: Option<Arc<EntryState>>,
}

/// History of one key: its newest event inline, so a read of the present —
/// the common one — touches no heap memory, and the older ones sorted by
/// commit instant.
#[derive(Debug, Clone, Default)]
struct KeyHistory {
    latest: Option<HistoryEvent>,
    older: Vec<HistoryEvent>,
    /// The register timestamp: the highest version ever assigned to this
    /// key, by a value or by a deletion. Kept here so a read costs the same
    /// whatever the number of versions the key has had.
    max_version: u64,
}

impl KeyHistory {
    /// Commits `state` at `at`, keeping the history sorted by commit instant
    /// and the register timestamp at the highest version seen.
    fn push(&mut self, at: SimInstant, state: Option<Arc<EntryState>>) {
        if let Some(state) = &state {
            self.max_version = self.max_version.max(state.version);
        }
        let event = HistoryEvent { at, state };
        match &mut self.latest {
            Some(latest) if latest.at > at => {
                let pos = self.older.iter().rposition(|e| e.at <= at);
                self.older.insert(pos.map_or(0, |p| p + 1), event);
            }
            latest => self.older.extend(latest.replace(event)),
        }
    }

    /// The last event committed at or before `t`.
    fn event_at(&self, t: SimInstant) -> Option<&HistoryEvent> {
        let mut events = self.latest.iter().chain(self.older.iter().rev());
        events.find(|e| e.at <= t)
    }

    /// Commits a deletion at `at` under register timestamp `ts` — the next
    /// one, as a value would take: a replica that missed the deletion then
    /// holds an *older* timestamp than the replicas that applied it, so a
    /// quorum read prefers the tombstone over the stale live state instead
    /// of tying with it.
    fn tombstone(&mut self, at: SimInstant, ts: u64) {
        self.max_version = self.max_version.max(ts);
        self.push(at, None);
    }

    /// The state visible at instant `t`, accounting for ephemeral expiry.
    fn state_at(&self, t: SimInstant) -> Option<&Arc<EntryState>> {
        let state = self.event_at(t)?.state.as_ref()?;
        if let Some((_, expires_at)) = &state.ephemeral {
            if *expires_at <= t {
                return None;
            }
        }
        Some(state)
    }

    /// Instant of the last committed change at or before `t`.
    fn updated_at(&self, t: SimInstant) -> Option<SimInstant> {
        self.event_at(t).map(|e| e.at)
    }
}

/// The tuple store: the replicated state machine of the coordination service.
#[derive(Debug, Clone, Default)]
pub struct TupleStore {
    /// Keys are shared strings: a `list` or a rename collect hands each
    /// replica's keys on by reference count instead of copying them.
    keys: BTreeMap<Arc<str>, KeyHistory>,
}

impl TupleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TupleStore::default()
    }

    /// Bounded range scan over the keys starting with `prefix`, O(log n +
    /// matches). When the prefix ends in an ASCII byte below `0x7f`, the
    /// range ends before the prefix with that byte incremented and no key is
    /// tested; otherwise the scan stops at the first key without the prefix.
    fn prefix_range<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a Arc<str>, &'a KeyHistory)> + 'a {
        let mut end = prefix.to_owned();
        let bounded = match end.pop() {
            Some(last) if last < '\x7f' => {
                end.push(char::from(last as u8 + 1));
                true
            }
            _ => false,
        };
        let end = if bounded {
            Bound::Excluded(end.as_str())
        } else {
            Bound::Unbounded
        };
        self.keys
            .range::<str, _>((Bound::Included(prefix), end))
            .take_while(move |(k, _)| bounded || k.starts_with(prefix))
    }

    /// The keys a rename of `prefix` moves: those of [`Self::prefix_range`]
    /// that lie *under the path* `prefix` — the key is the prefix, the prefix
    /// ends in `/`, or the key continues at a `/` — so renaming `/d` moves
    /// `/d` and `/d/x` and leaves the sibling `/dx` alone. The one rule of
    /// both the replicated rename and the sharded collect phase.
    fn rename_range<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a Arc<str>, &'a KeyHistory)> + 'a {
        self.prefix_range(prefix).filter(move |(k, _)| {
            prefix.ends_with('/') || matches!(k.as_bytes().get(prefix.len()), None | Some(b'/'))
        })
    }

    /// Runs `f` on the history of `key`. Only a key the store has never seen
    /// allocates (or takes the one `built` holds), and its fresh history is
    /// kept only if `f` committed an event: a refused command leaves nothing
    /// for later scans to visit.
    fn with_history<R>(
        &mut self,
        key: &str,
        built: &mut Built,
        f: impl FnOnce(&mut KeyHistory, &mut Built) -> R,
    ) -> R {
        if let Some(history) = self.keys.get_mut(key) {
            return f(history, built);
        }
        let mut history = KeyHistory::default();
        let result = f(&mut history, built);
        if history.latest.is_some() {
            self.keys.insert(built.key(key), history);
        }
        result
    }

    /// Applies one command at commit instant `now` and returns its reply.
    pub fn apply(&mut self, signed: &SignedCommand, now: SimInstant) -> Reply {
        self.apply_with(signed, now, &mut Built::default())
    }

    /// [`Self::apply`] on one replica of a group, sharing what the previous
    /// replica `built` for the same command.
    pub(crate) fn apply_with(
        &mut self,
        signed: &SignedCommand,
        now: SimInstant,
        built: &mut Built,
    ) -> Reply {
        let who = &signed.issuer;
        match &signed.command {
            Command::Put { key, value } => self.apply_put(key, value, who, None, now, built),
            Command::Cas {
                key,
                expected,
                value,
            } => self.apply_put(key, value, who, Some(*expected), now, built),
            Command::CreateEphemeral {
                key,
                value,
                session,
                expires_at,
            } => {
                let ephemeral = (session, *expires_at);
                self.apply_create_ephemeral(key, value, ephemeral, who, now, built)
            }
            Command::Delete { key } => self.apply_delete(key, who, now),
            Command::SetAcl { key, acl } => self.apply_set_acl(key, acl, who, now, built),
            Command::RenamePrefix {
                old_prefix,
                new_prefix,
            } => self.apply_rename(old_prefix, new_prefix, who, now, built),
        }
    }

    /// Reads the entry stored under `key` as seen at instant `now`.
    pub fn get(&self, key: &str, who: &AccountId, now: SimInstant) -> Result<Entry, CoordError> {
        let history = self
            .keys
            .get(key)
            .ok_or_else(|| CoordError::not_found(key))?;
        let state = history
            .state_at(now)
            .ok_or_else(|| CoordError::not_found(key))?;
        if !state.readable_by(who) {
            return Err(CoordError::denied(key, who));
        }
        Ok(state.to_entry(key, history.updated_at(now).unwrap_or(SimInstant::EPOCH)))
    }

    /// The keys with `prefix` that `who` may read, as seen at `now`, in key
    /// order: one pass over the range, nothing copied.
    pub(crate) fn visible<'a>(
        &'a self,
        prefix: &'a str,
        who: &'a AccountId,
        now: SimInstant,
    ) -> impl Iterator<Item = &'a Arc<str>> + 'a {
        self.prefix_range(prefix)
            .filter(move |(_, h)| h.state_at(now).is_some_and(|s| s.readable_by(who)))
            .map(|(k, _)| k)
    }

    /// Number of live entries at instant `now`.
    pub fn entry_count(&self, now: SimInstant) -> usize {
        self.keys
            .values()
            .filter(|h| h.state_at(now).is_some())
            .count()
    }

    /// ABD read phase at one replica: the register timestamp (the highest
    /// version ever assigned, by a value or a deletion, so lease expiries
    /// never move it backwards) and the live state, read as of instant `now`.
    pub(crate) fn abd_snapshot(
        &self,
        key: &str,
        now: SimInstant,
    ) -> (u64, Option<&Arc<EntryState>>, Option<SimInstant>) {
        match self.keys.get(key) {
            Some(history) => (
                history.max_version,
                history.state_at(now),
                history.updated_at(now),
            ),
            None => (0, None, None),
        }
    }

    /// ABD write-back at one replica: installs the winner of a read — a
    /// `state` whose `version` is the register timestamp `ts`, or a deletion
    /// (`None`) — iff `ts` is newer than anything this replica has seen for
    /// the key. Returns whether it was installed.
    pub(crate) fn abd_install(
        &mut self,
        key: &str,
        ts: u64,
        state: Option<&Arc<EntryState>>,
        now: SimInstant,
        built: &mut Built,
    ) -> bool {
        self.with_history(key, built, |history, _| {
            let newer = ts > history.max_version;
            if newer {
                match state {
                    Some(state) => history.push(now, Some(Arc::clone(state))),
                    None => history.tombstone(now, ts),
                }
            }
            newer
        })
    }

    /// ABD write phase at one replica: checks write permission against the
    /// replica's current state, then installs the value at timestamp `ts`
    /// (preserving the current owner and ACL on overwrite).
    pub(crate) fn abd_write(
        &mut self,
        key: &str,
        ts: u64,
        value: &Arc<[u8]>,
        who: &AccountId,
        now: SimInstant,
        built: &mut Built,
    ) -> AbdWriteOutcome {
        self.with_history(key, built, |history, built| {
            let current = history.state_at(now);
            if current.is_some_and(|cur| !cur.writable_by(who)) {
                return AbdWriteOutcome::Denied;
            }
            if ts <= history.max_version {
                return AbdWriteOutcome::Stale;
            }
            let state = EntryState::written(Arc::clone(value), ts, current, who);
            history.push(now, Some(built.state(state)));
            AbdWriteOutcome::Installed
        })
    }

    /// Every live entry under the path `prefix` at `now`
    /// ([`Self::rename_range`]) with its register timestamp, in key order —
    /// what a rename's collect phase reads.
    pub(crate) fn collect_prefix<'a>(
        &'a self,
        prefix: &'a str,
        now: SimInstant,
    ) -> impl Iterator<Item = (&'a Arc<str>, u64, &'a Arc<EntryState>)> + 'a {
        self.rename_range(prefix)
            .filter_map(move |(k, h)| h.state_at(now).map(|s| (k, h.max_version, s)))
    }

    /// Apply phase of a cross-shard rename on one replica: tombstones the
    /// `deletes` and installs the `inserts` (fresh version at the target key)
    /// at one commit instant. Permission checks happen in the collect phase,
    /// before any shard mutates.
    pub(crate) fn apply_rename_batch(
        &mut self,
        deletes: &[Arc<str>],
        inserts: &[(String, Arc<EntryState>)],
        now: SimInstant,
        built: &mut Built,
    ) {
        for key in deletes {
            if let Some(history) = self.keys.get_mut(key) {
                history.tombstone(now, history.max_version + 1);
            }
        }
        for ((key, state), built) in inserts.iter().zip(built.moved(inserts.len())) {
            self.with_history(key, built, |target, built| {
                let version = target.max_version.max(state.version) + 1;
                target.push(now, Some(built.state(state.at_version(version))));
            });
        }
    }

    fn apply_put(
        &mut self,
        key: &str,
        value: &Arc<[u8]>,
        who: &AccountId,
        expected: Option<Option<u64>>,
        now: SimInstant,
        built: &mut Built,
    ) -> Reply {
        if key.is_empty() {
            return Reply::Error(CoordError::invalid("empty key"));
        }
        self.with_history(key, built, |history, built| {
            let current = history.state_at(now);

            // Conditional-update checks.
            if let Some(expected) = expected {
                let actual = current.map(|cur| cur.version);
                match (expected, actual) {
                    (None, Some(_)) => {
                        return Reply::Error(CoordError::AlreadyExists {
                            key: key.to_string(),
                        })
                    }
                    (Some(_), _) if expected != actual => {
                        return Reply::Error(CoordError::VersionMismatch {
                            key: key.to_string(),
                            expected,
                            actual,
                        })
                    }
                    _ => {}
                }
            }

            // Access control for overwrites.
            if current.is_some_and(|cur| !cur.writable_by(who)) {
                return Reply::Error(CoordError::denied(key, who));
            }

            let new_version = history.max_version + 1;
            let state = EntryState::written(Arc::clone(value), new_version, current, who);
            history.push(now, Some(built.state(state)));
            Reply::Version(new_version)
        })
    }

    fn apply_create_ephemeral(
        &mut self,
        key: &str,
        value: &Arc<[u8]>,
        (session, expires_at): (&SessionId, SimInstant),
        who: &AccountId,
        now: SimInstant,
        built: &mut Built,
    ) -> Reply {
        if key.is_empty() {
            return Reply::Error(CoordError::invalid("empty key"));
        }
        self.with_history(key, built, |history, built| {
            if let Some(current) = history.state_at(now) {
                let holder = current
                    .ephemeral
                    .as_ref()
                    .map(|(s, _)| s.to_string())
                    .unwrap_or_else(|| "non-ephemeral entry".to_string());
                return Reply::Error(CoordError::LockHeld {
                    key: key.to_string(),
                    holder,
                });
            }
            let new_version = history.max_version + 1;
            let state = EntryState {
                value: Arc::clone(value),
                version: new_version,
                owner: who.clone(),
                acl: Arc::new(Acl::private()),
                ephemeral: Some((session.clone(), expires_at)),
            };
            history.push(now, Some(built.state(state)));
            Reply::Version(new_version)
        })
    }

    fn apply_delete(&mut self, key: &str, who: &AccountId, now: SimInstant) -> Reply {
        let Some(history) = self.keys.get_mut(key) else {
            return Reply::Error(CoordError::not_found(key));
        };
        let Some(current) = history.state_at(now) else {
            return Reply::Error(CoordError::not_found(key));
        };
        if !current.writable_by(who) {
            return Reply::Error(CoordError::denied(key, who));
        }
        history.tombstone(now, history.max_version + 1);
        Reply::Unit
    }

    fn apply_set_acl(
        &mut self,
        key: &str,
        acl: &Arc<Acl>,
        who: &AccountId,
        now: SimInstant,
        built: &mut Built,
    ) -> Reply {
        let Some(history) = self.keys.get_mut(key) else {
            return Reply::Error(CoordError::not_found(key));
        };
        let Some(current) = history.state_at(now) else {
            return Reply::Error(CoordError::not_found(key));
        };
        if &current.owner != who {
            return Reply::Error(CoordError::denied(key, who));
        }
        let new_version = history.max_version + 1;
        let state = EntryState {
            acl: Arc::clone(acl),
            ..current.at_version(new_version)
        };
        history.push(now, Some(built.state(state)));
        Reply::Version(new_version)
    }

    fn apply_rename(
        &mut self,
        old_prefix: &str,
        new_prefix: &str,
        who: &AccountId,
        now: SimInstant,
        built: &mut Built,
    ) -> Reply {
        if old_prefix.is_empty() {
            return Reply::Error(CoordError::invalid("empty rename prefix"));
        }
        // Bounded range scan: only the keys under the prefix are visited.
        let affected: Vec<KeyedState> = self
            .collect_prefix(old_prefix, now)
            .map(|(key, _, state)| (Arc::clone(key), Arc::clone(state)))
            .collect();

        // Check permissions up front so the rename is all-or-nothing.
        if let Some((key, _)) = affected.iter().find(|(_, s)| !s.writable_by(who)) {
            return Reply::Error(CoordError::denied(key, who));
        }

        // Delete the old entries, then create the new ones, preserving
        // value, owner and ACL.
        for (key, _) in &affected {
            if let Some(history) = self.keys.get_mut(key) {
                history.tombstone(now, history.max_version + 1);
            }
        }
        for ((key, state), built) in affected.iter().zip(built.moved(affected.len())) {
            let new_key = format!("{new_prefix}{}", &key[old_prefix.len()..]);
            self.with_history(&new_key, built, |target, built| {
                let version = target.max_version + 1;
                target.push(now, Some(built.state(state.at_version(version))));
            });
        }
        Reply::Count(affected.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimDuration;

    fn signed(issuer: &str, command: Command) -> SignedCommand {
        SignedCommand {
            issuer: issuer.into(),
            command,
        }
    }

    fn t(secs: u64) -> SimInstant {
        SimInstant::from_secs(secs)
    }

    fn val(bytes: &[u8]) -> Arc<[u8]> {
        bytes.into()
    }

    impl TupleStore {
        /// Every key the store holds, with its newest state (`None` for a
        /// tombstone): what the replicas of a group share, for tests.
        pub(crate) fn newest<'a>(&'a self) -> Vec<(&'a Arc<str>, Option<&'a Arc<EntryState>>)> {
            let newest = |(k, h): (&'a Arc<str>, &'a KeyHistory)| {
                (k, h.latest.as_ref().and_then(|e| e.state.as_ref()))
            };
            self.keys.iter().map(newest).collect()
        }
    }

    /// The keys `who` may read under `prefix` at `now`.
    fn listed(store: &TupleStore, prefix: &str, who: &str, now: SimInstant) -> Vec<String> {
        let who = AccountId::new(who);
        store
            .visible(prefix, &who, now)
            .map(|k| k.to_string())
            .collect()
    }

    #[test]
    fn put_and_get_round_trip() {
        let mut store = TupleStore::new();
        let r = store.apply(
            &signed(
                "alice",
                Command::Put {
                    key: "/f".into(),
                    value: val(b"meta"),
                },
            ),
            t(1),
        );
        assert_eq!(r, Reply::Version(1));
        let e = store.get("/f", &"alice".into(), t(2)).unwrap();
        assert_eq!(e.value, b"meta");
        assert_eq!(e.version, 1);
        assert_eq!(e.owner, AccountId::new("alice"));
    }

    #[test]
    fn reads_respect_commit_time() {
        let mut store = TupleStore::new();
        store.apply(
            &signed(
                "alice",
                Command::Put {
                    key: "/f".into(),
                    value: val(b"v1"),
                },
            ),
            t(1),
        );
        store.apply(
            &signed(
                "alice",
                Command::Put {
                    key: "/f".into(),
                    value: val(b"v2"),
                },
            ),
            t(10),
        );
        // A reader at t=5 still sees v1; a reader at t=11 sees v2; a reader at
        // t=0 sees nothing. This is what makes non-blocking-mode visibility
        // measurable in the sharing experiment.
        assert_eq!(store.get("/f", &"alice".into(), t(5)).unwrap().value, b"v1");
        assert_eq!(
            store.get("/f", &"alice".into(), t(11)).unwrap().value,
            b"v2"
        );
        assert!(store.get("/f", &"alice".into(), SimInstant::EPOCH).is_err());
    }

    #[test]
    fn cas_exclusive_create_and_version_check() {
        let mut store = TupleStore::new();
        // Exclusive create succeeds the first time.
        let r = store.apply(
            &signed(
                "alice",
                Command::Cas {
                    key: "/f".into(),
                    expected: None,
                    value: val(b"v1"),
                },
            ),
            t(1),
        );
        assert_eq!(r, Reply::Version(1));
        // Second exclusive create fails.
        let r = store.apply(
            &signed(
                "alice",
                Command::Cas {
                    key: "/f".into(),
                    expected: None,
                    value: val(b"v1"),
                },
            ),
            t(2),
        );
        assert!(matches!(r, Reply::Error(CoordError::AlreadyExists { .. })));
        // Wrong-version CAS fails, right-version CAS succeeds.
        let r = store.apply(
            &signed(
                "alice",
                Command::Cas {
                    key: "/f".into(),
                    expected: Some(9),
                    value: val(b"v2"),
                },
            ),
            t(3),
        );
        assert!(matches!(
            r,
            Reply::Error(CoordError::VersionMismatch { .. })
        ));
        let r = store.apply(
            &signed(
                "alice",
                Command::Cas {
                    key: "/f".into(),
                    expected: Some(1),
                    value: val(b"v2"),
                },
            ),
            t(4),
        );
        assert_eq!(r, Reply::Version(2));
    }

    #[test]
    fn cas_on_missing_entry_reports_mismatch() {
        let mut store = TupleStore::new();
        let r = store.apply(
            &signed(
                "alice",
                Command::Cas {
                    key: "/missing".into(),
                    expected: Some(1),
                    value: val(b""),
                },
            ),
            t(1),
        );
        assert!(matches!(
            r,
            Reply::Error(CoordError::VersionMismatch { .. })
        ));
        assert!(store.keys.is_empty(), "a refused command leaves no history");
    }

    #[test]
    fn acl_enforced_on_reads_and_writes() {
        let mut store = TupleStore::new();
        store.apply(
            &signed(
                "alice",
                Command::Put {
                    key: "/f".into(),
                    value: val(b"v"),
                },
            ),
            t(1),
        );
        // Bob cannot read or write.
        assert!(matches!(
            store.get("/f", &"bob".into(), t(2)),
            Err(CoordError::AccessDenied { .. })
        ));
        let r = store.apply(
            &signed(
                "bob",
                Command::Put {
                    key: "/f".into(),
                    value: val(b"x"),
                },
            ),
            t(2),
        );
        assert!(matches!(r, Reply::Error(CoordError::AccessDenied { .. })));
        // Alice grants read; bob can read but still not write.
        let mut acl = Acl::private();
        acl.grant("bob".into(), Permission::Read);
        store.apply(
            &signed(
                "alice",
                Command::SetAcl {
                    key: "/f".into(),
                    acl: acl.into(),
                },
            ),
            t(3),
        );
        assert!(store.get("/f", &"bob".into(), t(4)).is_ok());
        let r = store.apply(
            &signed(
                "bob",
                Command::Put {
                    key: "/f".into(),
                    value: val(b"x"),
                },
            ),
            t(4),
        );
        assert!(matches!(r, Reply::Error(CoordError::AccessDenied { .. })));
        // Only the owner may change the ACL.
        let r = store.apply(
            &signed(
                "bob",
                Command::SetAcl {
                    key: "/f".into(),
                    acl: Acl::private().into(),
                },
            ),
            t(5),
        );
        assert!(matches!(r, Reply::Error(CoordError::AccessDenied { .. })));
    }

    #[test]
    fn ephemeral_entries_expire() {
        let mut store = TupleStore::new();
        let r = store.apply(
            &signed(
                "alice",
                Command::CreateEphemeral {
                    key: "/lock/f".into(),
                    value: val(b""),
                    session: SessionId::new("s1"),
                    expires_at: t(10),
                },
            ),
            t(1),
        );
        assert_eq!(r, Reply::Version(1));
        // While alive, a second create is rejected.
        let r = store.apply(
            &signed(
                "bob",
                Command::CreateEphemeral {
                    key: "/lock/f".into(),
                    value: val(b""),
                    session: SessionId::new("s2"),
                    expires_at: t(20),
                },
            ),
            t(5),
        );
        assert!(matches!(r, Reply::Error(CoordError::LockHeld { .. })));
        // After expiry, the entry is gone and bob can acquire it.
        assert!(store.get("/lock/f", &"alice".into(), t(11)).is_err());
        let r = store.apply(
            &signed(
                "bob",
                Command::CreateEphemeral {
                    key: "/lock/f".into(),
                    value: val(b""),
                    session: SessionId::new("s2"),
                    expires_at: t(30),
                },
            ),
            t(12),
        );
        assert_eq!(r, Reply::Version(2));
    }

    #[test]
    fn delete_and_not_found() {
        let mut store = TupleStore::new();
        assert!(matches!(
            store.apply(&signed("a", Command::Delete { key: "/x".into() }), t(1)),
            Reply::Error(CoordError::NotFound { .. })
        ));
        store.apply(
            &signed(
                "a",
                Command::Put {
                    key: "/x".into(),
                    value: val(&[1]),
                },
            ),
            t(1),
        );
        assert_eq!(
            store.apply(&signed("a", Command::Delete { key: "/x".into() }), t(2)),
            Reply::Unit
        );
        assert!(store.get("/x", &"a".into(), t(3)).is_err());
        // The entry existed at t=1.5 though.
        assert!(store
            .get("/x", &"a".into(), t(1) + SimDuration::from_millis(500))
            .is_ok());
    }

    #[test]
    fn rename_prefix_moves_entries() {
        let mut store = TupleStore::new();
        for (k, v) in [("/dir/a", "1"), ("/dir/b", "2"), ("/other/c", "3")] {
            store.apply(
                &signed(
                    "alice",
                    Command::Put {
                        key: k.into(),
                        value: val(v.as_bytes()),
                    },
                ),
                t(1),
            );
        }
        let r = store.apply(
            &signed(
                "alice",
                Command::RenamePrefix {
                    old_prefix: "/dir/".into(),
                    new_prefix: "/renamed/".into(),
                },
            ),
            t(2),
        );
        assert_eq!(r, Reply::Count(2));
        assert!(store.get("/dir/a", &"alice".into(), t(3)).is_err());
        assert_eq!(
            store
                .get("/renamed/a", &"alice".into(), t(3))
                .unwrap()
                .value,
            b"1"
        );
        assert_eq!(
            store
                .get("/renamed/b", &"alice".into(), t(3))
                .unwrap()
                .value,
            b"2"
        );
        assert!(store.get("/other/c", &"alice".into(), t(3)).is_ok());
        assert_eq!(store.entry_count(t(3)), 3);
    }

    #[test]
    fn rename_requires_write_permission_on_all_entries() {
        let mut store = TupleStore::new();
        store.apply(
            &signed(
                "alice",
                Command::Put {
                    key: "/dir/a".into(),
                    value: val(b""),
                },
            ),
            t(1),
        );
        let r = store.apply(
            &signed(
                "bob",
                Command::RenamePrefix {
                    old_prefix: "/dir/".into(),
                    new_prefix: "/stolen/".into(),
                },
            ),
            t(2),
        );
        assert!(matches!(r, Reply::Error(CoordError::AccessDenied { .. })));
        assert!(store.get("/dir/a", &"alice".into(), t(3)).is_ok());
    }

    #[test]
    fn list_and_counts() {
        let mut store = TupleStore::new();
        store.apply(
            &signed(
                "alice",
                Command::Put {
                    key: "/m/a".into(),
                    value: val(&[0; 100]),
                },
            ),
            t(1),
        );
        store.apply(
            &signed(
                "alice",
                Command::Put {
                    key: "/m/b".into(),
                    value: val(&[0; 50]),
                },
            ),
            t(1),
        );
        assert_eq!(listed(&store, "/m/", "alice", t(2)).len(), 2);
        assert!(listed(&store, "/m/", "bob", t(2)).is_empty());
        assert_eq!(store.entry_count(t(2)), 2);
        assert_eq!(store.entry_count(SimInstant::EPOCH), 0);
    }

    #[test]
    fn list_range_scan_matches_only_the_prefix() {
        let mut store = TupleStore::new();
        // Keys that sort before, inside and after the prefix range; "/mz"
        // sorts after every "/m/…" key and must not match "/m/".
        for k in ["/a", "/m/1", "/m/2", "/m0", "/mz", "/z"] {
            store.apply(
                &signed(
                    "alice",
                    Command::Put {
                        key: k.into(),
                        value: val(b"x"),
                    },
                ),
                t(1),
            );
        }
        assert_eq!(listed(&store, "/m/", "alice", t(2)), ["/m/1", "/m/2"]);
        assert_eq!(listed(&store, "/", "alice", t(2)).len(), 6);
        assert!(listed(&store, "/q", "alice", t(2)).is_empty());
    }

    #[test]
    fn empty_keys_rejected() {
        let mut store = TupleStore::new();
        assert!(matches!(
            store.apply(
                &signed(
                    "a",
                    Command::Put {
                        key: "".into(),
                        value: val(b"")
                    }
                ),
                t(1)
            ),
            Reply::Error(CoordError::InvalidRequest { .. })
        ));
        assert!(matches!(
            store.apply(
                &signed(
                    "a",
                    Command::RenamePrefix {
                        old_prefix: "".into(),
                        new_prefix: "/x".into()
                    }
                ),
                t(1)
            ),
            Reply::Error(CoordError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn abd_snapshot_install_and_write() {
        let mut store = TupleStore::new();
        let built = &mut Built::default();
        let (ts, state, _) = store.abd_snapshot("/r", t(1));
        assert_eq!(ts, 0);
        assert!(state.is_none());

        // A fresh ABD write installs at its timestamp.
        let outcome = store.abd_write("/r", 5 << 20, &val(b"v1"), &"alice".into(), t(1), built);
        assert_eq!(outcome, AbdWriteOutcome::Installed);
        let (ts, state, _) = store.abd_snapshot("/r", t(2));
        assert_eq!(ts, 5 << 20);
        assert_eq!(&*state.unwrap().value, b"v1");

        // A stale write (lower ts) is acknowledged without changing state.
        let outcome = store.abd_write("/r", 3 << 20, &val(b"old"), &"alice".into(), t(3), built);
        assert_eq!(outcome, AbdWriteOutcome::Stale);
        assert_eq!(store.get("/r", &"alice".into(), t(4)).unwrap().value, b"v1");

        // A non-owner without write permission is denied.
        let outcome = store.abd_write("/r", 9 << 20, &val(b"evil"), &"bob".into(), t(5), built);
        assert_eq!(outcome, AbdWriteOutcome::Denied);

        // Write-back installs an exact state only if its ts is newer.
        let (_, state, _) = store.abd_snapshot("/r", t(5));
        let wb = Arc::clone(state.unwrap());
        assert!(
            !store.abd_install("/r", wb.version, Some(&wb), t(6), built),
            "same ts: no-op"
        );
        let wb = Arc::new(wb.at_version(7 << 20));
        assert!(store.abd_install("/r", 7 << 20, Some(&wb), t(6), built));
        let (ts, _, _) = store.abd_snapshot("/r", t(7));
        assert_eq!(ts, 7 << 20);

        // So does a deletion, and only if its ts is newer.
        assert!(!store.abd_install("/r", 7 << 20, None, t(8), built));
        assert!(store.abd_install("/r", 8 << 20, None, t(8), built));
        assert_eq!(store.abd_snapshot("/r", t(9)), (8 << 20, None, Some(t(8))));
    }

    #[test]
    fn rename_batch_moves_state_across_stores() {
        let mut src = TupleStore::new();
        let mut dst = TupleStore::new();
        src.apply(
            &signed(
                "alice",
                Command::Put {
                    key: "/dir/a".into(),
                    value: val(b"1"),
                },
            ),
            t(1),
        );
        let collected: Vec<KeyedState> = src
            .collect_prefix("/dir/", t(2))
            .map(|(key, _, state)| (Arc::clone(key), Arc::clone(state)))
            .collect();
        assert_eq!(collected.len(), 1);
        let (key, state) = collected.into_iter().next().unwrap();
        assert_eq!(&*key, "/dir/a");
        src.apply_rename_batch(&[key], &[], t(3), &mut Built::default());
        let inserts = [("/new/a".into(), state)];
        dst.apply_rename_batch(&[], &inserts, t(3), &mut Built::default());
        assert!(src.get("/dir/a", &"alice".into(), t(4)).is_err());
        let moved = dst.get("/new/a", &"alice".into(), t(4)).unwrap();
        assert_eq!(moved.value, b"1");
        assert_eq!(moved.owner, AccountId::new("alice"));
    }

    /// The register timestamp is kept, not recomputed: over a seeded run of
    /// random commands it equals a per-key counter stepped once per put, cas,
    /// ACL change, rename target and deletion, it never decreases, and a
    /// refused command — a `cas(Some(v))` on a key the store never saw
    /// included — leaves no history behind.
    #[test]
    fn register_timestamp_tracks_a_reference_counter() {
        let names = ["/a/x", "/a/y", "/b/x", "/b/y"];
        let mut rng = sim_core::rng::DetRng::new(0x5cf5);
        let mut store = TupleStore::new();
        let mut counter: BTreeMap<String, u64> = BTreeMap::new();
        let mut live: std::collections::BTreeSet<String> = Default::default();
        let timestamp = |store: &TupleStore, key: &str| store.keys.get(key).map(|h| h.max_version);
        for step in 0..2000 {
            let key = names[rng.next_below(4) as usize];
            let histories = store.keys.len();
            let command = match rng.next_below(6) {
                0 => Command::Put {
                    key: key.into(),
                    value: val(b"p"),
                },
                1 => Command::Cas {
                    key: key.into(),
                    expected: timestamp(&store, key).filter(|_| live.contains(key)),
                    value: val(b"c"),
                },
                2 => Command::Cas {
                    key: key.into(),
                    expected: Some(u64::MAX),
                    value: val(b"never"),
                },
                3 => Command::SetAcl {
                    key: key.into(),
                    acl: Acl::private().into(),
                },
                4 => Command::Delete { key: key.into() },
                _ => Command::RenamePrefix {
                    old_prefix: key[..3].into(),
                    new_prefix: if key.starts_with("/a/") { "/b/" } else { "/a/" }.into(),
                },
            };
            let before: Vec<u64> = names
                .iter()
                .map(|name| timestamp(&store, name).unwrap_or(0))
                .collect();
            let reply = store.apply(&signed("alice", command.clone()), t(step));
            match (&command, &reply) {
                (_, Reply::Error(_)) => assert_eq!(store.keys.len(), histories, "{command:?}"),
                (
                    Command::RenamePrefix {
                        old_prefix,
                        new_prefix,
                    },
                    Reply::Count(moved),
                ) => {
                    let sources: Vec<String> = live
                        .iter()
                        .filter(|name| name.starts_with(old_prefix.as_str()))
                        .cloned()
                        .collect();
                    assert_eq!(*moved, sources.len());
                    for source in sources {
                        let target = format!("{new_prefix}{}", &source[old_prefix.len()..]);
                        *counter.entry(source.clone()).or_default() += 1;
                        *counter.entry(target.clone()).or_default() += 1;
                        live.remove(&source);
                        live.insert(target);
                    }
                }
                (Command::Delete { key }, _) => {
                    *counter.entry(key.clone()).or_default() += 1;
                    live.remove(key);
                }
                (
                    Command::Put { key, .. }
                    | Command::Cas { key, .. }
                    | Command::SetAcl { key, .. },
                    _,
                ) => {
                    *counter.entry(key.clone()).or_default() += 1;
                    live.insert(key.clone());
                }
                other => panic!("unexpected {other:?}"),
            }
            for (name, before) in names.iter().zip(before) {
                let now = timestamp(&store, name).unwrap_or(0);
                assert!(now >= before, "step {step}: {name} went {before} -> {now}");
                assert_eq!(
                    now,
                    counter.get(*name).copied().unwrap_or(0),
                    "step {step}: {name}"
                );
            }
        }
        assert!(counter.values().all(|steps| *steps > 100), "{counter:?}");
    }

    /// A rename is a path operation: `/d` names `/d` and what lies under
    /// `/d/`, never the sibling `/dx` — in the replicated apply and in the
    /// sharded collect alike. A prefix that ends in `/` is a raw prefix.
    #[test]
    fn rename_matches_on_path_boundaries() {
        let populated = || {
            let mut store = TupleStore::new();
            for key in ["/d", "/d/", "/d/x", "/dx", "/e"] {
                let value = val(key.as_bytes());
                let put = Command::Put {
                    key: key.into(),
                    value,
                };
                store.apply(&signed("alice", put), t(1));
            }
            store
        };
        let live = |store: &TupleStore| listed(store, "/", "alice", t(3));
        let rename = |old: &str, new: &str| Command::RenamePrefix {
            old_prefix: old.into(),
            new_prefix: new.into(),
        };

        let mut store = populated();
        let collected: Vec<&str> = store
            .collect_prefix("/d", t(2))
            .map(|(key, _, _)| &**key)
            .collect();
        assert_eq!(collected, ["/d", "/d/", "/d/x"]);
        assert_eq!(
            store.apply(&signed("alice", rename("/d", "/n")), t(2)),
            Reply::Count(3)
        );
        assert_eq!(live(&store), ["/dx", "/e", "/n", "/n/", "/n/x"]);
        let moved = store.get("/n/x", &"alice".into(), t(3)).unwrap();
        assert_eq!(moved.value, b"/d/x");

        let mut store = populated();
        assert_eq!(store.collect_prefix("/d/", t(2)).count(), 2);
        assert_eq!(
            store.apply(&signed("alice", rename("/d/", "/n/")), t(2)),
            Reply::Count(2)
        );
        assert_eq!(live(&store), ["/d", "/dx", "/e", "/n/", "/n/x"]);
    }
}
