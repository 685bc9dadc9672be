//! One ABD-style quorum-replicated register group.
//!
//! A [`RegisterGroup`] holds N full [`TupleStore`] replicas and serves two
//! kinds of operation:
//!
//! * **ABD lane** (reads and unconditional writes): the client broadcasts a
//!   round to every replica on forked clocks ([`sim_core::parallel`]), waits
//!   for a quorum of replies and decides from the highest timestamp. A read
//!   that observes disagreeing replies *writes back* the winning
//!   (timestamp, value) before returning, which is what makes ABD reads
//!   linearizable without any leader. Timestamps are packed into the entry
//!   version number as `(seqno << 20) | writer_rank`, so ABD writes always
//!   dominate versions assigned by the SMR lane and vice versa.
//! * **SMR lane** (CAS, ephemeral creates, deletes, ACL changes, renames):
//!   operations that need consensus on *order*, not just on value, go through
//!   a simulated atomic broadcast — the leader orders the command, the newest
//!   live replica decides it and every other live one installs the outcome,
//!   all at the same commit instant. This mirrors how
//!   SCFS keeps locks on DepSpace/ZooKeeper while CFS-style systems move
//!   plain metadata reads/writes off the consensus path.
//!
//! Unlike the latency-only [`crate::replication::ReplicatedCoordinator`],
//! each replica here models **server capacity**: a request occupies the
//! replica for one processing time on its reservation calendar, in the first
//! free slot it may take. A read may take any at or after its arrival. A
//! change is placed after its own key's replies: linearizability is local,
//! so it waits for every reply the replica computed on the key, every change
//! committed to it and the replica's scans, never for the whole horizon (an
//! SMR command waits for its keys on every replica). Since a broadcast round
//! visits every replica, one group saturates at roughly `1 / processing_mean`
//! operations per second no matter how many replicas it has — which is
//! exactly why the sharded plane ([`crate::sharded`]) scales throughput
//! linearly in the number of groups, not in replicas per group.
//!
//! A key the SMR lane tombstones is queued and pruned from every replica
//! once no request can reach it: its newest event is a tombstone on every
//! replica that holds it, and that tombstone and every reply on the key lie
//! below the low-water mark, 5 s (`RETENTION`) below the earliest replica
//! horizon, where a request is served at the horizon.
//!
//! Fault model: replica faults come from the existing
//! [`sim_core::fault::FaultInjector`]. `Unavailable` replicas send no reply.
//! `Corrupt` (Byzantine) replicas garble the *value bytes* of what they
//! return; timestamps and keys are treated as unforgeable because commands
//! are signed and metadata is self-verifying (hashes), as in DepSky/DepSpace.
//! Reads vote on `(timestamp, state)` pairs and require `reply_quorum`
//! matching replies before trusting one, so a Byzantine replica in a
//! `3f + 1` group is outvoted; corrupt replies to `list`/collect rounds are
//! discarded outright.

use cloud_store::store::OpCtx;
use cloud_store::types::AccountId;
use parking_lot::Mutex;
use sim_core::fault::{FaultDecision, FaultInjector, FaultPlan};
use sim_core::parallel::{join_all, run_forked, ForkedRun};
use sim_core::rng::DetRng;
use sim_core::schedule::{ChoiceKind, ControllerSlot};
use sim_core::time::{SimDuration, SimInstant};

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::{Arc, MutexGuard};

use crate::commands::{Command, Reply, SignedCommand};
use crate::error::CoordError;
use crate::replication::ReplicationConfig;
use crate::router::fnv1a;
use crate::service::Entry;
use crate::store::{AbdWriteOutcome, Built, EntryState, KeyedState, TupleStore};

/// Number of low bits of an ABD timestamp that carry the writer rank; the
/// sequence number lives in the bits above.
const RANK_BITS: u32 = 20;
const RANK_MASK: u64 = (1 << RANK_BITS) - 1;

/// How far below a replica's horizon its calendar keeps bookings (a request
/// arriving below that is `late`, served at the horizon), and so how far
/// below the group's earliest horizon the low-water mark of pruning lies.
const RETENTION: SimDuration = SimDuration::from_secs(5);

/// One replica's server: its bookings, in start order and disjoint. Clients
/// run in host order, so a request can arrive after one stamped later (a
/// close's update lands behind its cloud PUT). A read fills the first gap
/// that fits it, waiting for no booking that begins after it could have
/// finished. A change fills the first gap after its key's replies too: after
/// every reply the replica computed on the key and every change committed to
/// it, and after the replica's scans and replies on absent keys, so no reply
/// is contradicted by a change placed before it. An SMR commit waits for its
/// keys on every replica, followers included. Bookings are kept down to
/// [`RETENTION`] below the horizon; a request arriving below that is `late`.
#[derive(Debug, Default)]
struct Calendar {
    booked: VecDeque<(SimInstant, SimInstant)>,
    horizon: SimInstant,
    late: u64,
}

impl Calendar {
    /// Books `proc` for a request arriving at `arrival` that may start at
    /// `after` (at or after `arrival`) and returns when its service starts:
    /// in the first free slot at or after `after`, or, if the request is
    /// late, at the horizon if that is later.
    fn book(&mut self, arrival: SimInstant, proc: SimDuration, after: SimInstant) -> SimInstant {
        let low_water = |end: SimInstant| end + RETENTION < self.horizon;
        while self.booked.front().is_some_and(|&(_, end)| low_water(end)) {
            self.booked.pop_front();
        }
        let late = low_water(arrival);
        self.late += u64::from(late);
        let free_from = if late { self.horizon.max(after) } else { after };
        let mut at = self.booked.partition_point(|&(_, end)| end <= free_from);
        let mut start = free_from;
        while let Some(&(_, end)) = self.booked.get(at).filter(|b| b.0 < start + proc) {
            (start, at) = (start.max(end), at + 1);
        }
        self.booked.insert(at, (start, start + proc));
        self.horizon = self.horizon.max(start + proc);
        start
    }
}

/// One replica of the group: its state machine, its fault plan, its
/// calendar, and how many read-only replies its store has computed.
#[derive(Debug)]
struct ReplicaNode {
    store: TupleStore,
    faults: FaultInjector,
    calendar: Calendar,
    evaluated: u64,
}

/// One quorum-replicated register group (a metadata shard).
#[derive(Debug)]
pub struct RegisterGroup {
    config: ReplicationConfig,
    replicas: Vec<Mutex<ReplicaNode>>,
    rng: Mutex<DetRng>,
    /// Schedule-controller seam: empty in production (replies are processed
    /// in arrival order); the model checker installs one to explore other
    /// delivery orders.
    controller: Mutex<ControllerSlot>,
    /// Keys tombstoned by the SMR lane, with the commit instant, in commit
    /// order: checked for pruning as the low-water mark passes them.
    tombstones: Mutex<VecDeque<(SimInstant, Arc<str>)>>,
}

/// What [`RegisterGroup::rename_entry`] moved, and what it overwrote.
pub(crate) type Moved = (Arc<EntryState>, Option<Arc<EntryState>>);

/// What one replica answered to an ABD read round.
#[derive(Debug)]
struct ReadReply {
    ts: u64,
    state: Option<Arc<EntryState>>,
    updated_at: Option<SimInstant>,
}

impl ReadReply {
    fn matches(&self, other: &ReadReply) -> bool {
        self.ts == other.ts && self.state == other.state
    }
}

impl RegisterGroup {
    /// Creates a group; rejects an inconsistent configuration (replica list
    /// not matching the mode) with the typed error from
    /// [`ReplicationConfig::validate`].
    pub fn new(config: ReplicationConfig, seed: u64) -> Result<Self, CoordError> {
        config.validate()?;
        Ok(RegisterGroup::from_validated(config, seed))
    }

    /// Builds the group from a configuration already known to be
    /// consistent — the [`ReplicationConfig`] constructors only produce
    /// consistent ones.
    fn from_validated(config: ReplicationConfig, seed: u64) -> Self {
        let replicas = (0..config.replicas.len())
            .map(|_| {
                Mutex::new(ReplicaNode {
                    store: TupleStore::new(),
                    faults: FaultInjector::inert(),
                    calendar: Calendar::default(),
                    evaluated: 0,
                })
            })
            .collect();
        RegisterGroup {
            config,
            replicas,
            rng: Mutex::new(DetRng::new(seed)),
            controller: Mutex::new(ControllerSlot::inactive()),
            tombstones: Mutex::default(),
        }
    }

    /// Installs a schedule controller driving reply-delivery order. Only the
    /// model checker does this; an inactive slot (the default) keeps replies
    /// in arrival order.
    pub fn install_schedule_controller(&self, slot: ControllerSlot) {
        *self.controller.lock() = slot;
    }

    /// Applies the installed controller's delivery order to a round's
    /// replies; with no controller (production) the arrival order is kept
    /// untouched.
    fn deliver<T>(&self, site: &str, mut runs: Vec<ForkedRun<T>>) -> Vec<ForkedRun<T>> {
        let slot = self.controller.lock().clone();
        slot.permute(ChoiceKind::ReplicaDelivery, site, &mut runs);
        runs
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ReplicationConfig {
        &self.config
    }

    /// Installs a fault plan on replica `index`.
    pub fn set_fault(&self, index: usize, plan: FaultPlan, seed: u64) {
        if let Some(slot) = self.replicas.get(index) {
            slot.lock().faults = FaultInjector::new(plan, seed);
        }
    }

    /// Number of live entries, taking the most advanced replica as truth.
    pub fn entry_count(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| r.lock().store.entry_count(SimInstant(u64::MAX)))
            .max()
            .unwrap_or(0)
    }

    /// Broadcasts one round to every replica on forked clocks and returns the
    /// outcomes sorted by reply arrival. `visit` runs on the replica's store
    /// at its service instant, replica after replica; the `bool` argument is
    /// set when the replica is Byzantine and the reply value must be garbled.
    /// Each replica books the first free slot at or after the arrival; a
    /// round that `changes` a key, after that key's replies too. A read-only
    /// round keeps the slot and the fault as a ticket; [`Self::evaluate`]
    /// visits the store, time-indexed, only for a reply the client absorbs,
    /// before any other round. A `None` outcome means the replica sent no
    /// reply (crashed or partitioned); its fork still advances a full round
    /// trip so a failed quorum waits a realistic time.
    fn round<T>(
        &self,
        ctx: &OpCtx<'_>,
        changes: Option<&str>,
        mut visit: impl FnMut(&mut TupleStore, SimInstant, bool) -> T,
    ) -> Vec<ForkedRun<Option<T>>> {
        run_forked(ctx.clock, 0..self.replicas.len(), |i, fork| {
            let (rtt, proc) = {
                let mut rng = self.rng.lock();
                (
                    self.config.replicas[i].client_rtt.sample(&mut rng),
                    self.config.processing.sample(&mut rng),
                )
            };
            let one_way = SimDuration::from_nanos(rtt.as_nanos() / 2);
            let arrival = fork.advance(one_way);
            let mut node = self.replicas[i].lock();
            match node.faults.decide(arrival) {
                FaultDecision::Unavailable => {
                    fork.advance(one_way);
                    None
                }
                decision => {
                    let after =
                        changes.map_or(arrival, |key| arrival.max(node.store.reached(Some(key))));
                    let depart = node.calendar.book(arrival, proc, after) + proc;
                    let value = visit(
                        &mut node.store,
                        depart,
                        matches!(decision, FaultDecision::Corrupt),
                    );
                    fork.advance_to(depart + one_way);
                    Some(value)
                }
            }
        })
    }

    /// Locks replica `i` to compute a reply on its store.
    fn evaluate(&self, i: usize) -> MutexGuard<'_, ReplicaNode> {
        let mut node = self.replicas[i].lock();
        node.evaluated += 1;
        node
    }

    /// Walks a round's replies in delivery order, offering each to `absorb`
    /// (which says whether it was a usable acknowledgement), and stops at
    /// the `write_quorum`-th: the caller's clock advances to the latest
    /// arrival among the acknowledgements considered. Short of a quorum the
    /// caller has waited for every replica: all forks are joined and the
    /// round is `Unavailable`.
    fn await_write_quorum<'r, R>(
        &self,
        ctx: &mut OpCtx<'_>,
        runs: &'r [ForkedRun<R>],
        what: &str,
        mut absorb: impl FnMut(&'r ForkedRun<R>) -> bool,
    ) -> Result<(), CoordError> {
        let wq = self.config.mode.write_quorum();
        let mut acks = 0usize;
        let mut latest = SimInstant::EPOCH;
        for run in runs {
            if !absorb(run) {
                continue;
            }
            acks += 1;
            latest = latest.max(run.completed_at);
            if acks == wq {
                ctx.clock.advance_to(latest);
                return Ok(());
            }
        }
        join_all(ctx.clock, runs.iter().map(|r| r.completed_at));
        Err(CoordError::unavailable(format!(
            "{what} could not reach a write quorum"
        )))
    }

    /// A scan round (`list`, rename collect): awaits a write quorum of honest
    /// replies — a corrupt one is discarded, keys being self-verifying — and
    /// returns their replicas, locked, in delivery order, with the instants
    /// they served the request at, which each records.
    fn scan_quorum(
        &self,
        ctx: &mut OpCtx<'_>,
        site: &str,
        what: &str,
    ) -> Result<Vec<(MutexGuard<'_, ReplicaNode>, SimInstant)>, CoordError> {
        let runs = self.deliver(site, self.round(ctx, None, |_, at, corrupt| (at, corrupt)));
        let mut absorbed = Vec::new();
        self.await_write_quorum(ctx, &runs, what, |run| {
            let Some((at, false)) = run.value else {
                return false;
            };
            let mut node = self.evaluate(run.index);
            node.store.reach(None, at);
            absorbed.push((node, at));
            true
        })?;
        Ok(absorbed)
    }

    /// ABD read: query all replicas, decide from a quorum, write back on
    /// disagreement.
    pub fn read(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Entry, CoordError> {
        let wq = self.config.mode.write_quorum();
        let rq = self.config.mode.reply_quorum();
        let runs = self.deliver(key, self.round(ctx, None, |_, at, corrupt| (at, corrupt)));

        // Walk replies in delivery order, computing each as it is
        // considered; once `write_quorum` have arrived, look for a value
        // supported by `reply_quorum` matching replies, extending the
        // considered set one reply at a time if the first quorum does not
        // agree enough. The decision instant is the latest arrival among the
        // replies actually considered (identical to the deciding reply's
        // arrival when delivery order is arrival order).
        let mut considered: Vec<ReadReply> = Vec::with_capacity(self.replicas.len());
        let mut decided: Option<(usize, SimInstant)> = None;
        let mut latest = SimInstant::EPOCH;
        for run in &runs {
            let Some((at, corrupt)) = run.value else {
                continue;
            };
            latest = latest.max(run.completed_at);
            let mut node = self.evaluate(run.index);
            let (ts, state, updated_at) = node.store.abd_snapshot(key, at);
            let state = if corrupt {
                state.map(garble)
            } else {
                state.cloned()
            };
            considered.push(ReadReply {
                ts,
                state,
                updated_at,
            });
            if considered.len() < wq {
                continue;
            }
            if let Some(winner) = vote(&considered, rq) {
                decided = Some((winner, latest));
                break;
            }
        }
        let Some((winner, decided_at)) = decided else {
            join_all(ctx.clock, runs.iter().map(|r| r.completed_at));
            return Err(CoordError::unavailable(format!(
                "no {rq} matching replies among {} register replicas",
                self.replicas.len()
            )));
        };
        ctx.clock.advance_to(decided_at);
        let winner = &considered[winner];

        // Write-back: if the considered replies were not unanimous, install
        // the winning (timestamp, state) — a value or a deletion alike — on a
        // write quorum before returning, so any later read is guaranteed to
        // see it (the ABD read fix-up).
        let unanimous = considered.iter().all(|r| r.matches(winner));
        if !unanimous {
            // The installed state carries the register timestamp; a reply
            // read between two commits may hold an older version.
            let ts = winner.ts;
            let install = winner.state.as_ref().map(|state| {
                if state.version == ts {
                    Arc::clone(state)
                } else {
                    Arc::new(state.at_version(ts))
                }
            });
            let mut built = Built::default();
            let install_runs = self.round(ctx, Some(key), |store, at, _| {
                store.abd_install(key, ts, install.as_ref(), at, &mut built)
            });
            let install_runs = self.deliver(key, install_runs);
            let ok = sim_core::parallel::join_nth(
                ctx.clock,
                install_runs
                    .iter()
                    .map(|r| (r.completed_at, r.value.is_some())),
                wq,
            );
            if !ok {
                return Err(CoordError::unavailable(
                    "read write-back could not reach a write quorum",
                ));
            }
        }

        let state = winner
            .state
            .as_ref()
            .ok_or_else(|| CoordError::not_found(key))?;
        if !state.readable_by(&ctx.account) {
            return Err(CoordError::denied(key, &ctx.account));
        }
        Ok(state.to_entry(key, winner.updated_at.unwrap_or(SimInstant::EPOCH)))
    }

    /// ABD write: query a quorum for the highest timestamp, then install the
    /// value under a strictly higher one.
    pub fn write(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        value: Arc<[u8]>,
    ) -> Result<u64, CoordError> {
        let wq = self.config.mode.write_quorum();
        let rq = self.config.mode.reply_quorum();

        // Phase 1: timestamp query, in a free slot, answering the highest
        // timestamp ever held: a later-stamped write may already hold the
        // next one. Timestamps are signed, so the plain quorum max is safe.
        let ts_runs = self.deliver(key, self.round(ctx, None, |_, at, corrupt| (at, corrupt)));
        let mut max_ts = 0u64;
        self.await_write_quorum(ctx, &ts_runs, "timestamp query", |run| {
            let Some((at, _)) = run.value else {
                return false;
            };
            max_ts = max_ts.max(self.evaluate(run.index).store.abd_timestamp(key, at));
            true
        })?;

        let seq = (max_ts >> RANK_BITS) + 1;
        let rank = writer_rank(&ctx.account);
        let ts = seq.saturating_mul(1 << RANK_BITS) | rank;

        // Phase 2: install on a write quorum. `Stale` still acknowledges —
        // the write is linearized before the newer one that beat it.
        let mut built = Built::default();
        let write_runs = self.deliver(
            key,
            self.round(ctx, Some(key), |store, at, _| {
                store.abd_write(key, ts, &value, &ctx.account, at, &mut built)
            }),
        );
        let mut installs = 0usize;
        let mut denials = 0usize;
        let mut latest = SimInstant::EPOCH;
        for run in &write_runs {
            let Some(outcome) = run.value else { continue };
            latest = latest.max(run.completed_at);
            match outcome {
                AbdWriteOutcome::Installed | AbdWriteOutcome::Stale => {
                    installs += 1;
                    if installs == wq {
                        ctx.clock.advance_to(latest);
                        return Ok(ts);
                    }
                }
                AbdWriteOutcome::Denied => {
                    denials += 1;
                    if denials == rq {
                        ctx.clock.advance_to(latest);
                        return Err(CoordError::denied(key, &ctx.account));
                    }
                }
            }
        }
        join_all(ctx.clock, write_runs.iter().map(|r| r.completed_at));
        Err(CoordError::unavailable(
            "write round could not reach a write quorum",
        ))
    }

    /// Lists the keys under `prefix` visible to the caller, in key order: the
    /// union over a write quorum of honest replies, so no key installed by a
    /// completed write is missed — one pass over the absorbed replicas'
    /// ranges side by side, one `String` per listed key.
    pub fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, CoordError> {
        let nodes = self.scan_quorum(ctx, prefix, "list")?;
        let scans = nodes.iter().map(|(node, at)| {
            let keys = node.store.visible(prefix, &ctx.account, *at);
            keys.map(|key| (key, ()))
        });
        let mut keys = Vec::new();
        merge_scans(scans, |held, _| held, |key, ()| keys.push(key.to_string()));
        Ok(keys)
    }

    /// Collect phase of a (possibly cross-shard) rename: every live entry
    /// under `prefix`, each at its highest timestamp over a write quorum of
    /// honest replies (the first delivered on a tie).
    pub(crate) fn collect_prefix(
        &self,
        ctx: &mut OpCtx<'_>,
        prefix: &str,
    ) -> Result<Vec<KeyedState>, CoordError> {
        let nodes = self.scan_quorum(ctx, prefix, "rename collect")?;
        let scans = nodes.iter().map(|(node, at)| {
            let entries = node.store.collect_prefix(prefix, *at);
            entries.map(|(key, ts, state)| (key, (ts, state)))
        });
        let mut entries = Vec::new();
        let newest = |held: (u64, _), other: (u64, _)| if other.0 > held.0 { other } else { held };
        merge_scans(scans, newest, |key, (_, state)| {
            entries.push((Arc::clone(key), Arc::clone(state)));
        });
        Ok(entries)
    }

    /// Runs one command through the group's SMR lane: the leader orders it,
    /// and it is decided once, at the commit instant, on the newest replica
    /// that applies it — the honest one with the highest register timestamp
    /// for the key, the first on a tie. Every other applying replica installs
    /// the outcome, a tombstone included, so one that missed a commit never
    /// decides against it; a refused command changes no replica. A rename by
    /// prefix names no one key and is refused: a group renames through
    /// [`Self::rename_entry`] and [`Self::rename_apply`].
    pub fn smr(&self, ctx: &mut OpCtx<'_>, command: Command) -> Result<Reply, CoordError> {
        let signed = SignedCommand {
            issuer: ctx.account.clone(),
            command,
        };
        let key = match &signed.command {
            Command::Put { key, .. }
            | Command::Cas { key, .. }
            | Command::CreateEphemeral { key, .. }
            | Command::Delete { key }
            | Command::SetAcl { key, .. } => key.as_str(),
            Command::RenamePrefix { .. } => return Err(CoordError::invalid("no one key")),
        };
        let commit_at = self.smr_commit(ctx, |store| store.reached(Some(key)))?;
        let mut applying: Vec<_> = (self.replicas.iter().map(|r| r.lock()))
            .filter_map(|mut node| match node.faults.decide(commit_at) {
                FaultDecision::Unavailable => None,
                decision => Some((matches!(decision, FaultDecision::Allow), node)),
            })
            .collect();
        let newest = (0..applying.len())
            .filter(|&i| applying[i].0)
            .min_by_key(|&i| Reverse(applying[i].1.store.max_version(key)));
        let decider = newest.ok_or_else(|| CoordError::unavailable("no honest replica applied"))?;
        let mut built = Built::default();
        let store = &mut applying[decider].1.store;
        let reply = store.apply_with(&signed, commit_at, &mut built);
        let refused = matches!(reply, Reply::Error(_));
        let (ts, state, _) = store.abd_snapshot(key, commit_at);
        let state = state.cloned();
        for (i, (_, node)) in applying.iter_mut().enumerate() {
            if i != decider && !refused {
                node.store
                    .abd_install(key, ts, state.as_ref(), commit_at, &mut built);
            }
            node.store.reach(Some(key), commit_at);
        }
        if let (Command::Delete { key }, Reply::Unit) = (&signed.command, &reply) {
            let mut tombstones = self.tombstones.lock();
            tombstones.push_back((commit_at, key.as_str().into()));
        }
        Ok(reply)
    }

    /// Apply phase of a cross-shard rename: tombstones `deletes` and installs
    /// `inserts` on every live replica at one SMR commit instant.
    pub(crate) fn rename_apply(
        &self,
        ctx: &mut OpCtx<'_>,
        deletes: &[Arc<str>],
        inserts: &[(String, Arc<EntryState>)],
    ) -> Result<(), CoordError> {
        let commit_at = self.smr_commit(ctx, |store| {
            let deleted = deletes.iter().map(|key| store.reached(Some(key)));
            let inserted = inserts.iter().map(|(key, _)| store.reached(Some(key)));
            deleted.chain(inserted).max().unwrap_or_default()
        })?;
        let mut built = Built::default();
        for replica in &self.replicas {
            let mut node = replica.lock();
            if !matches!(node.faults.decide(commit_at), FaultDecision::Unavailable) {
                node.store
                    .apply_rename_batch(deletes, inserts, commit_at, &mut built);
            }
        }
        let tombstoned = deletes.iter().map(|key| (commit_at, Arc::clone(key)));
        self.tombstones.lock().extend(tombstoned);
        Ok(())
    }

    /// The entry's own move of a rename whose `from` and `to` this group both
    /// owns, at one SMR commit. Every applying replica installs one state:
    /// the newest `from` among them by register timestamp (a tombstone moves
    /// nothing, so a replica that missed a deletion brings nothing back)
    /// under `to`, one version above every applying replica's, and a
    /// tombstone above the newest under `from`. An entry the caller may not
    /// write is refused before any replica changes.
    pub(crate) fn rename_entry(
        &self,
        ctx: &mut OpCtx<'_>,
        from: &str,
        to: &str,
    ) -> Result<Option<Moved>, CoordError> {
        let commit_at = self.smr_commit(ctx, |store| {
            store.reached(Some(from)).max(store.reached(Some(to)))
        })?;
        let mut applying: Vec<_> = self.replicas.iter().map(|r| r.lock()).collect();
        applying.retain_mut(|n| !matches!(n.faults.decide(commit_at), FaultDecision::Unavailable));
        if applying.is_empty() {
            return Err(CoordError::unavailable("no replica applied the rename"));
        }
        let mut newest = |key: &str| {
            let stamped = applying
                .iter_mut()
                .map(|n| (n.store.abd_timestamp(key, commit_at), n));
            stamped
                .max_by_key(|(ts, _)| *ts)
                .map_or((0, None), |(ts, n)| {
                    (ts, n.store.abd_snapshot(key, commit_at).1.cloned())
                })
        };
        let ((from_ts, state), (to_ts, clobbered)) = (newest(from), newest(to));
        let Some(state) = state else { return Ok(None) };
        if !state.writable_by(&ctx.account) {
            return Err(CoordError::denied(from, &ctx.account));
        }
        let version = to_ts.max(state.version) + 1;
        let installed = Arc::new(state.at_version(version));
        let mut built: [Built; 2] = Default::default();
        for node in &mut applying {
            let [at_from, at_to] = &mut built;
            node.store
                .abd_install(from, from_ts + 1, None, commit_at, at_from);
            node.store
                .abd_install(to, version, Some(&installed), commit_at, at_to);
        }
        self.tombstones.lock().push_back((commit_at, from.into()));
        Ok(Some((state, clobbered)))
    }

    /// Shared SMR ordering step: prunes, checks that enough honest replicas
    /// are up, charges the client the leader round trip (served in its first
    /// free slot after the keys were `reached` on every replica) plus the
    /// ordering rounds, advances its clock to the reply, returns the commit.
    fn smr_commit(
        &self,
        ctx: &mut OpCtx<'_>,
        reached: impl Fn(&TupleStore) -> SimInstant,
    ) -> Result<SimInstant, CoordError> {
        self.prune();
        let start = ctx.clock.now();
        let (mut honest, mut after) = (0, SimInstant::EPOCH);
        for replica in &self.replicas {
            let mut node = replica.lock();
            honest += usize::from(matches!(node.faults.decide(start), FaultDecision::Allow));
            after = after.max(reached(&node.store));
        }
        if honest < self.config.mode.write_quorum() {
            return Err(CoordError::unavailable(format!(
                "only {honest} of {} register replicas are honest",
                self.replicas.len()
            )));
        }

        let (leader_rtt, proc, ordering) = self.config.sample_ordered_update(&mut self.rng.lock());
        let one_way = SimDuration::from_nanos(leader_rtt.as_nanos() / 2);
        let arrival = start + one_way;
        let mut leader = self.replicas[0].lock();
        let commit_at = leader.calendar.book(arrival, proc, arrival.max(after)) + ordering + proc;
        ctx.clock.advance_to(commit_at + one_way);
        Ok(commit_at)
    }

    /// Removes each queued key no request can reach from every replica (the
    /// module doc). One reached since is checked again once the mark passes
    /// that; one a replica holds live beside a tombstone, a retention later;
    /// one live on every holder was created again: its next delete queues it.
    fn prune(&self) {
        let mut nodes: Vec<_> = self.replicas.iter().map(|r| r.lock()).collect();
        let horizon = nodes.iter().map(|n| n.calendar.horizon).min();
        let horizon = horizon.unwrap_or(SimInstant::EPOCH);
        let mut queue = self.tombstones.lock();
        while let Some((_, key)) = queue.pop_front_if(|(at, _)| *at + RETENTION < horizon) {
            let (mut live, mut dead, mut last) = (false, false, SimInstant::EPOCH);
            for (alive, reached) in nodes.iter().filter_map(|n| n.store.held(&key)) {
                (live, dead, last) = (live || alive, dead || !alive, last.max(reached));
            }
            if !live && last + RETENTION < horizon {
                nodes.iter_mut().for_each(|n| n.store.prune(&key));
            } else if dead {
                queue.push_back((if live { last.max(horizon) } else { last }, key));
            }
        }
    }
}

/// The index of the highest-timestamped reply that at least `quorum` of the
/// considered replies match, if any.
fn vote(considered: &[ReadReply], quorum: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (index, candidate) in considered.iter().enumerate() {
        let support = considered
            .iter()
            .filter(|other| candidate.matches(other))
            .count();
        let is_better = match best {
            Some(b) => candidate.ts > considered[b].ts,
            None => true,
        };
        if support >= quorum && is_better {
            best = Some(index);
        }
    }
    best
}

/// Walks key-sorted scans of several replicas side by side and calls `emit`
/// once per key, with the items of the scans that hold it folded by `pick`
/// in the order the scans are given. A key the replicas share compares by
/// pointer.
fn merge_scans<'a, T>(
    scans: impl Iterator<Item = impl Iterator<Item = (&'a Arc<str>, T)>>,
    mut pick: impl FnMut(T, T) -> T,
    mut emit: impl FnMut(&'a Arc<str>, T),
) {
    let mut scans: Vec<_> = scans.map(Iterator::peekable).collect();
    let first = |a: &'a Arc<str>, b: &'a Arc<str>| if Arc::ptr_eq(a, b) || a <= b { a } else { b };
    while let Some(next) = scans
        .iter_mut()
        .filter_map(|s| Some(s.peek()?.0))
        .reduce(first)
    {
        let held = scans
            .iter_mut()
            .filter_map(|s| s.next_if(|(key, _)| *key == next));
        if let Some(held) = held.map(|(_, item)| item).reduce(&mut pick) {
            emit(next, held);
        }
    }
}

/// A Byzantine replica's rendition of a state: value bytes flipped, metadata
/// (timestamp, owner, ACL) intact because it is self-verifying.
fn garble(state: &Arc<EntryState>) -> Arc<EntryState> {
    let garbled: Vec<u8> = state.value.iter().map(|b| b ^ 0xFF).collect();
    Arc::new(EntryState {
        value: garbled.into(),
        ..EntryState::clone(state)
    })
}

/// Hashes an account name into a writer rank for timestamp tie-breaking.
pub(crate) fn writer_rank(account: &AccountId) -> u64 {
    fnv1a(account.as_str().as_bytes()) & RANK_MASK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::ReplicationMode;
    use sim_core::time::Clock;

    fn ctx<'a>(clock: &'a mut Clock, who: &str) -> OpCtx<'a> {
        OpCtx::new(clock, who.into())
    }

    fn cft_group(seed: u64) -> RegisterGroup {
        RegisterGroup::new(
            ReplicationConfig::test_instant(ReplicationMode::CrashFaultTolerant { f: 1 }),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn abd_write_then_read_round_trips() {
        let group = cft_group(1);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        let ts = group.write(&mut c, "/f", b"meta".to_vec().into()).unwrap();
        assert!(ts >> RANK_BITS >= 1);
        let e = group.read(&mut c, "/f").unwrap();
        assert_eq!(e.value, b"meta");
        assert_eq!(e.version, ts);
    }

    #[test]
    fn timestamps_increase_across_writers() {
        let group = cft_group(2);
        let mut clock = Clock::new();
        let t1 = group
            .write(&mut ctx(&mut clock, "alice"), "/f", b"1".to_vec().into())
            .unwrap();
        let mut acl = cloud_store::types::Acl::private();
        acl.grant("bob".into(), cloud_store::types::Permission::Write);
        group
            .smr(
                &mut ctx(&mut clock, "alice"),
                Command::SetAcl {
                    key: "/f".into(),
                    acl: acl.into(),
                },
            )
            .unwrap();
        let t2 = group
            .write(&mut ctx(&mut clock, "bob"), "/f", b"2".to_vec().into())
            .unwrap();
        assert!(t2 > t1);
        assert_eq!(
            group
                .read(&mut ctx(&mut clock, "alice"), "/f")
                .unwrap()
                .value,
            b"2"
        );
    }

    #[test]
    fn read_masks_one_crashed_replica() {
        let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), 7).unwrap();
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        group.write(&mut c, "/f", b"v".to_vec().into()).unwrap();
        group.set_fault(1, FaultPlan::crash_at(SimInstant::EPOCH), 3);
        assert_eq!(group.read(&mut c, "/f").unwrap().value, b"v");
        group.write(&mut c, "/f", b"w".to_vec().into()).unwrap();
        assert_eq!(group.read(&mut c, "/f").unwrap().value, b"w");
    }

    #[test]
    fn byzantine_replica_is_outvoted_on_reads() {
        let group = RegisterGroup::new(
            ReplicationConfig::test_instant(ReplicationMode::ByzantineFaultTolerant { f: 1 }),
            5,
        )
        .unwrap();
        group.set_fault(2, FaultPlan::always_byzantine(), 11);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        group.write(&mut c, "/f", b"true".to_vec().into()).unwrap();
        for _ in 0..10 {
            assert_eq!(group.read(&mut c, "/f").unwrap().value, b"true");
        }
    }

    #[test]
    fn smr_lane_handles_cas_and_sees_abd_writes() {
        let group = cft_group(3);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        let ts = group.write(&mut c, "/f", b"v1".to_vec().into()).unwrap();
        // CAS against the ABD-assigned version works: both lanes share the
        // same per-key version space.
        let reply = group
            .smr(
                &mut c,
                Command::Cas {
                    key: "/f".into(),
                    expected: Some(ts),
                    value: b"v2".to_vec().into(),
                },
            )
            .unwrap();
        let v2 = reply.expect_version().unwrap();
        assert!(v2 > ts);
        assert_eq!(group.read(&mut c, "/f").unwrap().value, b"v2");
        // And a later ABD write dominates the SMR-assigned version.
        let t3 = group.write(&mut c, "/f", b"v3".to_vec().into()).unwrap();
        assert!(t3 > v2);
        assert_eq!(group.read(&mut c, "/f").unwrap().value, b"v3");
    }

    #[test]
    fn broadcast_reads_queue_on_replica_capacity() {
        // Two clients hammering one group must serialize on replica
        // processing capacity: with 4 ms mean processing, 100 reads cannot
        // complete in less than ~400 ms of virtual time even though the
        // clients run concurrently on forked clocks.
        let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), 9).unwrap();
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        group.write(&mut c, "/f", b"v".to_vec().into()).unwrap();
        let base = clock.now();
        let mut forks: Vec<Clock> = (0..2).map(|_| clock.fork()).collect();
        for round in 0..50 {
            for fork in forks.iter_mut() {
                let mut rc = ctx(fork, "alice");
                group.read(&mut rc, "/f").unwrap();
                let _ = round;
            }
        }
        let busiest = forks.iter().map(|f| f.now()).max().unwrap();
        let elapsed_ms = busiest.duration_since(base).as_millis_f64();
        assert!(
            elapsed_ms > 400.0,
            "100 reads finished in {elapsed_ms} ms — no queueing modeled"
        );
    }

    #[test]
    fn unavailable_when_quorum_lost() {
        let group = cft_group(4);
        group.set_fault(0, FaultPlan::crash_at(SimInstant::EPOCH), 1);
        group.set_fault(1, FaultPlan::crash_at(SimInstant::EPOCH), 2);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        assert!(matches!(
            group.write(&mut c, "/f", b"v".to_vec().into()),
            Err(CoordError::Unavailable { .. })
        ));
    }

    /// Store visits replica by replica, so far.
    fn evaluated(group: &RegisterGroup) -> Vec<u64> {
        group.replicas.iter().map(|r| r.lock().evaluated).collect()
    }

    /// Replica `i`'s keys and newest states, against replica 0's: the same
    /// allocations (`shared`) or equal ones.
    fn assert_stores_as_replica_0(group: &RegisterGroup, i: usize, shared: bool) {
        let first = group.replicas[0].lock();
        let other = group.replicas[i].lock();
        let (first, other) = (first.store.newest(), other.store.newest());
        assert_eq!(first.len(), other.len(), "replica {i}");
        for ((key, state), (other_key, other_state)) in first.into_iter().zip(other) {
            assert_eq!(key, other_key);
            assert_eq!(state, other_state, "replica {i}: {key}");
            if shared {
                assert!(Arc::ptr_eq(key, other_key), "replica {i}: {key}");
                let same = state
                    .zip(other_state)
                    .is_none_or(|(a, b)| Arc::ptr_eq(a, b));
                assert!(same, "replica {i}: {key} state");
            }
        }
    }

    /// Every lane and round that stores: ABD writes (new key, overwrite),
    /// SMR creates, ACL change and delete, a cross-shard rename's collect and
    /// apply, and a same-shard rename's entry move.
    fn mix_of_commands(group: &RegisterGroup, c: &mut OpCtx<'_>) {
        group.write(c, "/d/a", b"1".to_vec().into()).unwrap();
        let create = |key: &str| Command::Cas {
            key: key.into(),
            expected: None,
            value: b"c".to_vec().into(),
        };
        group.smr(c, create("/d/b")).unwrap();
        group.smr(c, create("/d/c")).unwrap();
        let lock = Command::CreateEphemeral {
            key: "/l/a".into(),
            value: b"".to_vec().into(),
            session: crate::service::SessionId::new("s"),
            expires_at: SimInstant::from_secs(3600),
        };
        group.smr(c, lock).unwrap();
        let mut acl = cloud_store::types::Acl::private();
        acl.grant("bob".into(), cloud_store::types::Permission::Read);
        let acl = acl.into();
        group
            .smr(
                c,
                Command::SetAcl {
                    key: "/d/a".into(),
                    acl,
                },
            )
            .unwrap();
        group.write(c, "/d/a", b"2".to_vec().into()).unwrap();
        group
            .smr(c, Command::Delete { key: "/d/b".into() })
            .unwrap();
        let collected = group.collect_prefix(c, "/d").unwrap();
        let deletes: Vec<Arc<str>> = collected.iter().map(|(k, _)| Arc::clone(k)).collect();
        let moved = |(k, s): &KeyedState| (format!("/f{}", &k[2..]), Arc::clone(s));
        let inserts: Vec<_> = collected.iter().map(moved).collect();
        group.rename_apply(c, &deletes, &inserts).unwrap();
        // A same-shard rename's entry move, there and back.
        assert!(group.rename_entry(c, "/f/c", "/f/x").unwrap().is_some());
        assert!(group.rename_entry(c, "/f/x", "/f/c").unwrap().is_some());
    }

    #[test]
    fn a_fault_free_group_stores_each_key_and_state_once() {
        let group = cft_group(21);
        let mut clock = Clock::new();
        mix_of_commands(&group, &mut ctx(&mut clock, "alice"));
        assert!(group.replicas[0].lock().store.newest().len() >= 6);
        for i in 1..3 {
            assert_stores_as_replica_0(&group, i, true);
        }
    }

    #[test]
    fn a_replica_partitioned_at_creation_keeps_its_own_key_and_still_votes() {
        let group = cft_group(22);
        group.set_fault(
            2,
            FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1)),
            1,
        );
        let mut clock = Clock::new();
        group
            .write(&mut ctx(&mut clock, "alice"), "/d/a", b"1".to_vec().into())
            .unwrap();
        assert!(group.replicas[2].lock().store.newest().is_empty());

        // After the heal, replica 0 crashes: every quorum is {1, 2}, and the
        // first read writes the value back to replica 2.
        clock.advance_to(SimInstant::from_secs(2));
        group.set_fault(0, FaultPlan::crash_at(clock.now()), 2);
        let mut c = ctx(&mut clock, "alice");
        assert_eq!(group.read(&mut c, "/d/a").unwrap().value, b"1");
        let key = |i: usize| Arc::clone(group.replicas[i].lock().store.newest()[0].0);
        assert!(!Arc::ptr_eq(&key(1), &key(2)), "written back: its own key");
        assert_stores_as_replica_0(&group, 2, false);

        let before = evaluated(&group)[2];
        group.write(&mut c, "/d/a", b"2".to_vec().into()).unwrap();
        for _ in 0..5 {
            assert_eq!(group.read(&mut c, "/d/a").unwrap().value, b"2");
        }
        let voted = evaluated(&group)[2] - before;
        assert_eq!(voted, 6, "the timestamp query and every read");
        let state = |i: usize| group.replicas[i].lock().store.newest()[0].1.cloned();
        assert!(Arc::ptr_eq(&state(1).unwrap(), &state(2).unwrap()));
    }

    #[test]
    fn a_byzantine_replica_stores_what_the_honest_ones_store() {
        let group = RegisterGroup::new(
            ReplicationConfig::test_instant(ReplicationMode::ByzantineFaultTolerant { f: 1 }),
            23,
        )
        .unwrap();
        group.set_fault(2, FaultPlan::always_byzantine(), 13);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        mix_of_commands(&group, &mut c);
        // The newest state of every key the mix wrote on either lane.
        group.write(&mut c, "/g", b"3".to_vec().into()).unwrap();
        let create = Command::Cas {
            key: "/h".into(),
            expected: None,
            value: b"4".to_vec().into(),
        };
        group.smr(&mut c, create).unwrap();
        for i in 1..4 {
            assert_stores_as_replica_0(&group, i, false);
        }
        assert_eq!(group.read(&mut c, "/f/a").unwrap().value, b"2");
    }

    #[test]
    fn a_fault_free_round_visits_a_write_quorum_of_stores() {
        for (config, wq) in [
            (ReplicationConfig::metro_crash(1), 2),
            (ReplicationConfig::coc_byzantine(), 3),
        ] {
            let group = RegisterGroup::new(config, 24).unwrap();
            let mut clock = Clock::new();
            let mut c = ctx(&mut clock, "alice");
            mix_of_commands(&group, &mut c);
            for round in 0..20 {
                let before: u64 = evaluated(&group).iter().sum();
                if round % 2 == 0 {
                    assert_eq!(group.read(&mut c, "/f/a").unwrap().value, b"2");
                } else {
                    assert_eq!(group.list(&mut c, "/f/").unwrap(), ["/f/a", "/f/c"]);
                }
                assert_eq!(evaluated(&group).iter().sum::<u64>(), before + wq);
            }
        }
    }

    /// Random bookings, some arriving out of order and a few below the
    /// low-water mark: each takes the first free slot at or after the instant
    /// it may start at (its arrival, or later for a change), so it waits for
    /// no reservation that begins after it could have finished; a late one
    /// starts at the horizon, or at that instant if later, and is counted.
    /// Reservations never overlap.
    #[test]
    fn a_read_waits_only_for_reservations_that_begin_before_it_could_finish() {
        let mut rng = DetRng::new(56);
        let mut calendar = Calendar::default();
        let mut late = 0;
        for step in 0..4000u64 {
            let base = SimInstant::from_millis(step * 4);
            let arrival = match rng.next_below(64) {
                0 => SimInstant::from_millis((step * 4).saturating_sub(6000)),
                n => base + SimDuration::from_millis(rng.next_below(600) * (n % 2)),
            };
            let proc = SimDuration::from_nanos(rng.range_u64(500_000, 6_000_000));
            let wait = rng.next_below(200) * u64::from(rng.chance(0.2));
            let after = arrival + SimDuration::from_millis(wait);
            let before: Vec<_> = calendar.booked.iter().copied().collect();
            let horizon = calendar.horizon;
            let start = calendar.book(arrival, proc, after);
            let free = |at: SimInstant| before.iter().all(|&(b, e)| e <= at || at + proc <= b);
            if arrival + SimDuration::from_secs(5) < horizon {
                late += 1;
                assert_eq!(start, after.max(horizon), "step {step}: late");
            } else {
                assert!(start >= after && free(start), "step {step}");
                let earlier = before.iter().map(|&(_, e)| e).chain([after]);
                for at in earlier.filter(|&at| after <= at && at < start) {
                    assert!(!free(at), "step {step}: {at:?} was free before {start:?}");
                }
            }
            let booked: Vec<_> = calendar.booked.iter().collect();
            assert!(booked.windows(2).all(|w| w[0].1 <= w[1].0), "step {step}");
        }
        assert_eq!(calendar.late, late);
        assert!(late > 0);
    }

    /// A read arriving more than 5 s below a replica's horizon finds no
    /// bookings left to fit between: it is served at the horizon, as a
    /// change is, and counted once per replica.
    #[test]
    fn a_read_below_the_low_water_mark_waits_for_the_horizon_and_is_counted() {
        let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), 25).unwrap();
        let late_requests =
            || -> u64 { group.replicas.iter().map(|r| r.lock().calendar.late).sum() };
        let mut late = Clock::starting_at(SimInstant::from_secs(10));
        group
            .write(&mut ctx(&mut late, "alice"), "/f", b"v".to_vec().into())
            .unwrap();
        let mut early = Clock::starting_at(SimInstant::from_secs(6));
        assert!(group.read(&mut ctx(&mut early, "alice"), "/f").is_err());
        assert!(early.now() < SimInstant::from_secs(7), "fills a gap");
        assert_eq!(late_requests(), 0);
        let mut earlier = Clock::starting_at(SimInstant::from_secs(1));
        let entry = group.read(&mut ctx(&mut earlier, "alice"), "/f").unwrap();
        assert_eq!(entry.value, b"v", "served after the write, at the horizon");
        assert!(earlier.now() > late.now());
        assert_eq!(late_requests(), 3);
    }

    /// Two writes by one account, the later-stamped one first in host order
    /// and missed by replica 2: the second's timestamp query is served in a
    /// gap before the first write, yet answers the highest timestamp each
    /// replica ever held, so the second write takes a timestamp above the
    /// first's instead of the same one (which replicas 0 and 1 would refuse
    /// as stale and replica 2 would store under the second value, leaving
    /// reads to disagree for good). Every read after the heal returns the
    /// second value.
    #[test]
    fn writes_in_reverse_host_order_never_share_a_timestamp() {
        for seed in 0..16 {
            let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), seed).unwrap();
            let mut clock = Clock::new();
            group
                .write(&mut ctx(&mut clock, "alice"), "/f", b"old".to_vec().into())
                .unwrap();
            let outage = FaultPlan::outage(SimInstant::from_secs(1), SimInstant::from_secs(2));
            group.set_fault(2, outage, seed);
            let mut later = Clock::starting_at(SimInstant::from_millis(1500));
            let first = group
                .write(
                    &mut ctx(&mut later, "alice"),
                    "/f",
                    b"first".to_vec().into(),
                )
                .unwrap();
            let mut earlier = Clock::starting_at(SimInstant::from_millis(500));
            let second = group
                .write(
                    &mut ctx(&mut earlier, "alice"),
                    "/f",
                    b"second".to_vec().into(),
                )
                .unwrap();
            assert!(second > first, "seed {seed}: {second:#x} after {first:#x}");
            let mut after = Clock::starting_at(SimInstant::from_secs(3));
            for _ in 0..8 {
                let entry = group.read(&mut ctx(&mut after, "alice"), "/f").unwrap();
                assert_eq!(entry.value, b"second", "seed {seed}");
            }
        }
    }

    /// Two exclusive creates of one key, the later-stamped one first in host
    /// order: the leader orders them, and the second commits after the
    /// first, so it sees the key and loses. The ordering rounds of the
    /// cloud-of-clouds profile vary more than a replica's processing time,
    /// which let the second commit before the first.
    #[test]
    fn exclusive_creates_in_reverse_host_order_have_one_winner() {
        for seed in 0..32 {
            let group = RegisterGroup::new(ReplicationConfig::coc_byzantine(), seed).unwrap();
            let create = || Command::Cas {
                key: "/f".into(),
                expected: None,
                value: b"c".to_vec().into(),
            };
            let mut later = Clock::starting_at(SimInstant::from_millis(5));
            let mut earlier = Clock::new();
            let wins = [&mut later, &mut earlier]
                .into_iter()
                .map(|clock| group.smr(&mut ctx(clock, "alice"), create()).unwrap())
                .filter(|reply| matches!(reply, Reply::Version(_)))
                .count();
            assert_eq!(wins, 1, "seed {seed}");
        }
    }

    /// A replica misses a write stamped late, and a read stamped before it
    /// runs after it in host order: the read is served in the gap before the
    /// write, where the register timestamp is still the old one, so any
    /// write-back installs the old state under the old timestamp. Every read
    /// after the heal returns the new value.
    #[test]
    fn an_earlier_read_after_a_later_write_never_brings_the_old_value_back() {
        for seed in 0..16 {
            let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), seed).unwrap();
            let mut clock = Clock::new();
            group
                .write(&mut ctx(&mut clock, "alice"), "/f", b"old".to_vec().into())
                .unwrap();
            let outage = FaultPlan::outage(SimInstant::from_secs(1), SimInstant::from_secs(2));
            group.set_fault(2, outage, seed);
            let mut later = Clock::starting_at(SimInstant::from_millis(1500));
            let new = b"new".to_vec().into();
            group
                .write(&mut ctx(&mut later, "alice"), "/f", new)
                .unwrap();
            let mut earlier = Clock::starting_at(SimInstant::from_millis(500));
            let early = group.read(&mut ctx(&mut earlier, "alice"), "/f").unwrap();
            assert_eq!(early.value, b"old", "seed {seed}: served before the write");
            let mut after = Clock::starting_at(SimInstant::from_secs(3));
            for _ in 0..8 {
                let entry = group.read(&mut ctx(&mut after, "alice"), "/f").unwrap();
                assert_eq!(entry.value, b"new", "seed {seed}");
            }
        }
    }

    /// Replica 2 is out while a delete commits. Once the low-water mark has
    /// passed the tombstone, reads still answer `NotFound` and every replica
    /// still holds the key: replica 2 holds it live. A read writes the
    /// tombstone back to replica 2; a later read keeps the key until the mark
    /// passes that read too. Then the key is gone from every store.
    #[test]
    fn a_tombstone_is_pruned_once_every_replica_holds_it_and_the_mark_passed_every_reply() {
        for seed in 0..8 {
            let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), seed).unwrap();
            let run = |ms: u64, op: &mut dyn FnMut(&mut OpCtx<'_>)| {
                let mut clock = Clock::starting_at(SimInstant::from_millis(ms));
                op(&mut ctx(&mut clock, "alice"));
            };
            let create = |key: &str| Command::Cas {
                key: key.into(),
                expected: None,
                value: b"c".to_vec().into(),
            };
            // Every horizon moves to `ms`; an SMR command then prunes.
            let pass_the_mark = |ms: u64| {
                run(ms, &mut |c| {
                    group.write(c, "/g", b"g".to_vec().into()).unwrap();
                });
                run(ms + 100, &mut |c| {
                    group.smr(c, create(&format!("/h{ms}"))).unwrap();
                });
            };
            let held = || -> Vec<_> {
                let held = |r: &Mutex<ReplicaNode>| r.lock().store.held("/f").map(|h| h.0);
                group.replicas.iter().map(held).collect()
            };
            let not_found = |ms: u64| {
                run(ms, &mut |c| {
                    let read = group.read(c, "/f");
                    assert!(
                        matches!(read, Err(CoordError::NotFound { .. })),
                        "seed {seed}: {read:?}"
                    );
                })
            };
            run(0, &mut |c| {
                group.smr(c, create("/f")).unwrap();
            });
            let outage = |from: u64| {
                FaultPlan::outage(SimInstant::from_secs(from), SimInstant::from_secs(from + 1))
            };
            group.set_fault(2, outage(1), seed);
            run(1500, &mut |c| {
                group.smr(c, Command::Delete { key: "/f".into() }).unwrap();
            });
            let missed = [Some(false), Some(false), Some(true)];
            assert_eq!(held(), missed, "seed {seed}");

            pass_the_mark(10_000);
            assert_eq!(held(), missed, "seed {seed}: replica 2 holds it live");
            (0..4).for_each(|_| not_found(10_200));
            group.set_fault(0, outage(11), seed);
            not_found(11_500);
            assert_eq!(held(), [Some(false); 3], "seed {seed}: written back");

            not_found(18_000);
            pass_the_mark(21_000);
            assert_eq!(
                held(),
                [Some(false); 3],
                "seed {seed}: read at 18 s, mark at 16 s"
            );
            pass_the_mark(30_000);
            assert_eq!(held(), [None; 3], "seed {seed}: pruned");
            not_found(30_500);
        }
    }

    /// A key created, deleted and pruned once the low-water mark passed its
    /// tombstone, then created anew: the new incarnation's versions start
    /// above the old one's, so a `cas` on a version read from the deleted
    /// incarnation is refused instead of matching the new one.
    #[test]
    fn a_key_created_again_after_its_prune_refuses_a_cas_on_an_old_version() {
        let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), 26).unwrap();
        let run = |secs: u64, command: Command| {
            let mut clock = Clock::starting_at(SimInstant::from_secs(secs));
            group.smr(&mut ctx(&mut clock, "alice"), command).unwrap()
        };
        let cas = |key: &str, expected| Command::Cas {
            key: key.into(),
            expected,
            value: b"c".to_vec().into(),
        };
        let old = run(0, cas("/f", None)).expect_version().unwrap();
        run(1, Command::Delete { key: "/f".into() })
            .expect_unit()
            .unwrap();
        // Every horizon moves past the mark; the next SMR command prunes.
        let mut clock = Clock::starting_at(SimInstant::from_secs(20));
        let value = b"g".to_vec().into();
        group
            .write(&mut ctx(&mut clock, "alice"), "/g", value)
            .unwrap();
        run(21, cas("/h", None));
        let held = |r: &Mutex<ReplicaNode>| r.lock().store.held("/f");
        assert!(group.replicas.iter().all(|r| held(r).is_none()), "pruned");
        let new = run(22, cas("/f", None)).expect_version().unwrap();
        assert!(
            new > old + 1,
            "{new} is above the deleted {old} and its tombstone"
        );
        let stale = run(23, cas("/f", Some(old)));
        assert!(
            matches!(stale, Reply::Error(CoordError::VersionMismatch { .. })),
            "{stale:?}"
        );
    }

    #[test]
    fn writer_rank_is_stable() {
        assert_eq!(writer_rank(&"alice".into()), writer_rank(&"alice".into()));
        assert_ne!(writer_rank(&"alice".into()), writer_rank(&"bob".into()));
    }
}
