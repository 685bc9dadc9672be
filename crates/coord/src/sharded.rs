//! The sharded metadata plane: M register groups behind a namespace router.
//!
//! [`ShardedCoordinator`] implements [`CoordinationService`] by routing each
//! key to one of M independent [`RegisterGroup`]s ([`NamespaceRouter`], hash
//! of the key's directory), so metadata operations on unrelated directories
//! never touch the same replicas and aggregate throughput grows linearly in
//! the shard count. Per-key operations go straight to the owning group
//! (ABD lane for get/put, SMR lane for conditional ops); `list` and
//! `rename_prefix` scatter-gather across all groups on forked clocks.
//!
//! A cross-shard `rename_prefix` runs as collect → check → apply: a quorum
//! snapshot of the affected entries from every group, a client-side
//! all-or-nothing permission check, then one batched install per target
//! group at an SMR commit instant. This approximates a two-phase commit —
//! good enough for the simulation's single-issuer renames; a production
//! plane would drive the same phases from a transaction log.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cloud_store::store::OpCtx;
use cloud_store::types::Acl;
use sim_core::fault::FaultPlan;
use sim_core::parallel::{join_all, run_forked};
use sim_core::time::SimDuration;

use crate::abd::RegisterGroup;
use crate::commands::Command;
use crate::error::CoordError;
use crate::replication::{ReplicationConfig, ReplicationMode};
use crate::router::NamespaceRouter;
use crate::service::{CoordinationService, Entry, SessionId};
use crate::store::EntryState;

/// A `shards × replicas` deployment shape for the metadata plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTopology {
    /// Number of register groups the namespace is partitioned over.
    pub shards: usize,
    /// The replicated deployment of each group.
    pub group: ReplicationConfig,
}

impl ShardTopology {
    /// A topology of `shards` groups, each deployed as `group`.
    pub fn new(shards: usize, group: ReplicationConfig) -> Self {
        ShardTopology {
            shards: shards.max(1),
            group,
        }
    }

    /// An instantaneous crash-tolerant (f = 1) topology for functional tests.
    pub fn test(shards: usize) -> Self {
        ShardTopology::new(
            shards,
            ReplicationConfig::test_instant(ReplicationMode::CrashFaultTolerant { f: 1 }),
        )
    }

    /// A colocated metro deployment: `shards` groups of `2f + 1` replicas.
    pub fn metro(shards: usize, f: usize) -> Self {
        ShardTopology::new(shards, ReplicationConfig::metro_crash(f))
    }

    /// Total number of replica processes in the plane.
    pub fn replica_count(&self) -> usize {
        self.shards * self.group.mode.replica_count()
    }
}

/// The sharded, quorum-replicated coordination service.
#[derive(Debug)]
pub struct ShardedCoordinator {
    router: NamespaceRouter,
    groups: Vec<RegisterGroup>,
    accesses: AtomicU64,
}

impl ShardedCoordinator {
    /// Builds the plane: one register group per shard, deterministically
    /// seeded from `seed` so runs are reproducible. Rejects an inconsistent
    /// group configuration with the typed error from
    /// [`ReplicationConfig::validate`](crate::replication::ReplicationConfig::validate).
    pub fn new(topology: ShardTopology, seed: u64) -> Result<Self, CoordError> {
        let groups = (0..topology.shards)
            .map(|i| {
                RegisterGroup::new(
                    topology.group.clone(),
                    seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(i as u64 + 1)),
                )
            })
            .collect::<Result<Vec<_>, CoordError>>()?;
        Ok(ShardedCoordinator {
            router: NamespaceRouter::new(topology.shards),
            groups,
            accesses: AtomicU64::new(0),
        })
    }

    /// The router in use (tests and diagnostics).
    pub fn router(&self) -> &NamespaceRouter {
        &self.router
    }

    /// The register group owning shard `index`.
    pub fn group(&self, index: usize) -> &RegisterGroup {
        &self.groups[index]
    }

    /// Installs a fault plan on one replica of one shard.
    pub fn set_replica_fault(&self, shard: usize, replica: usize, plan: FaultPlan, seed: u64) {
        if let Some(group) = self.groups.get(shard) {
            group.set_fault(replica, plan, seed);
        }
    }

    fn count_access(&self) {
        self.accesses.fetch_add(1, Ordering::Relaxed);
    }

    fn owner(&self, key: &str) -> &RegisterGroup {
        &self.groups[self.router.route(key)]
    }

    /// Scatter-gathers `op` over every group on forked clocks and joins on
    /// the slowest, returning the per-group results.
    fn scatter<T>(
        &self,
        ctx: &mut OpCtx<'_>,
        mut op: impl FnMut(&RegisterGroup, &mut OpCtx<'_>) -> Result<T, CoordError>,
    ) -> Result<Vec<T>, CoordError> {
        let mut runs = run_forked(ctx.clock, 0..self.groups.len(), |i, fork| {
            let mut sub = OpCtx::new(fork, ctx.account.clone());
            op(&self.groups[i], &mut sub)
        });
        join_all(ctx.clock, runs.iter().map(|r| r.completed_at));
        runs.sort_by_key(|r| r.index);
        runs.into_iter().map(|run| run.value).collect()
    }
}

impl CoordinationService for ShardedCoordinator {
    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, value: Vec<u8>) -> Result<u64, CoordError> {
        self.count_access();
        self.owner(key).write(ctx, key, value.into())
    }

    fn cas(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        expected: Option<u64>,
        value: Vec<u8>,
    ) -> Result<u64, CoordError> {
        self.count_access();
        let cas = Command::Cas {
            key: key.to_string(),
            expected,
            value: value.into(),
        };
        self.owner(key).smr(ctx, cas)?.expect_version()
    }

    fn create_ephemeral(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        value: Vec<u8>,
        session: &SessionId,
        lease: SimDuration,
    ) -> Result<(), CoordError> {
        self.count_access();
        let create = Command::CreateEphemeral {
            key: key.to_string(),
            value: value.into(),
            session: session.clone(),
            expires_at: ctx.clock.now() + lease,
        };
        self.owner(key).smr(ctx, create)?.expect_unit()
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Entry, CoordError> {
        self.count_access();
        self.owner(key).read(ctx, key)
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), CoordError> {
        self.count_access();
        let key = key.to_string();
        self.owner(&key)
            .smr(ctx, Command::Delete { key })?
            .expect_unit()
    }

    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, CoordError> {
        self.count_access();
        let per_group = self.scatter(ctx, |group, sub| group.list(sub, prefix))?;
        // Every group is asked; a directory's keys live on one, whose sorted
        // reply is then the answer as is. Only a prefix that spans
        // directories unions — and sorts — several.
        let mut answers = per_group.into_iter().filter(|keys| !keys.is_empty());
        let mut union = answers.next().unwrap_or_default();
        let single = union.len();
        union.extend(answers.flatten());
        if union.len() > single {
            union.sort();
            union.dedup();
        }
        Ok(union)
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), CoordError> {
        self.count_access();
        let (key, acl) = (key.to_string(), acl.into());
        self.owner(&key)
            .smr(ctx, Command::SetAcl { key, acl })?
            .expect_unit()
    }

    fn rename_prefix(
        &self,
        ctx: &mut OpCtx<'_>,
        old_prefix: &str,
        new_prefix: &str,
    ) -> Result<usize, CoordError> {
        self.count_access();
        if old_prefix.is_empty() {
            return Err(CoordError::invalid("empty rename prefix"));
        }

        // Collect: quorum snapshot of the affected entries from every group.
        let collected = self.scatter(ctx, |group, sub| group.collect_prefix(sub, old_prefix))?;

        // Check: the rename is all-or-nothing, so permissions are verified
        // before any shard mutates.
        for (key, state) in collected.iter().flatten() {
            if !state.writable_by(&ctx.account) {
                return Err(CoordError::denied(key, &ctx.account));
            }
        }

        // Plan, per shard: deletes stay on the source shard, each moved
        // entry lands on the shard that owns its *new* key.
        type Plan = (Vec<Arc<str>>, Vec<(String, Arc<EntryState>)>);
        let mut plan: Vec<Plan> = self.groups.iter().map(|_| Plan::default()).collect();
        let mut moved = 0usize;
        for (source, entries) in collected.into_iter().enumerate() {
            for (key, state) in entries {
                let new_key = format!("{new_prefix}{}", &key[old_prefix.len()..]);
                let target = self.router.route(&new_key);
                plan[source].0.push(key);
                plan[target].1.push((new_key, state));
                moved += 1;
            }
        }

        // Apply: one batched SMR commit per group that has work.
        let runs = run_forked(ctx.clock, 0..plan.len(), |i, fork| {
            let (deletes, inserts) = &plan[i];
            if deletes.is_empty() && inserts.is_empty() {
                return Ok(());
            }
            let mut sub = OpCtx::new(fork, ctx.account.clone());
            self.groups[i].rename_apply(&mut sub, deletes, inserts)
        });
        join_all(ctx.clock, runs.iter().map(|r| r.completed_at));
        runs.into_iter().try_for_each(|run| run.value)?;
        Ok(moved)
    }

    fn access_count(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    fn entry_count(&self) -> usize {
        self.groups.iter().map(|g| g.entry_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::Clock;

    fn ctx<'a>(clock: &'a mut Clock, who: &str) -> OpCtx<'a> {
        OpCtx::new(clock, who.into())
    }

    fn plane(shards: usize, seed: u64) -> ShardedCoordinator {
        ShardedCoordinator::new(ShardTopology::test(shards), seed).unwrap()
    }

    #[test]
    fn topology_counts_replicas() {
        assert_eq!(ShardTopology::test(4).replica_count(), 12);
        assert_eq!(ShardTopology::metro(2, 1).replica_count(), 6);
        assert_eq!(ShardTopology::test(0).shards, 1);
    }

    #[test]
    fn put_get_roundtrip_across_shards() {
        let plane = plane(4, 1);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        for i in 0..16 {
            let key = format!("/scfs/meta/u{i}/file");
            plane.put(&mut c, &key, vec![i as u8]).unwrap();
        }
        for i in 0..16 {
            let key = format!("/scfs/meta/u{i}/file");
            assert_eq!(plane.get(&mut c, &key).unwrap().value, vec![i as u8]);
        }
        assert_eq!(plane.entry_count(), 16);
    }

    #[test]
    fn list_unions_across_shards() {
        let plane = plane(4, 2);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        // Directories hash to different shards; a prefix list must still see
        // them all.
        for i in 0..8 {
            plane
                .put(&mut c, &format!("/scfs/meta/d{i}/f"), b"x".to_vec())
                .unwrap();
        }
        let keys = plane.list(&mut c, "/scfs/meta/").unwrap();
        assert_eq!(keys.len(), 8);
    }

    #[test]
    fn rename_moves_entries_to_their_new_shard() {
        let plane = plane(4, 3);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        for i in 0..6 {
            plane
                .put(&mut c, &format!("/scfs/meta/old/f{i}"), vec![i as u8])
                .unwrap();
        }
        let moved = plane
            .rename_prefix(&mut c, "/scfs/meta/old/", "/scfs/meta/new/")
            .unwrap();
        assert_eq!(moved, 6);
        // Every renamed key is readable and owned by the shard its *new*
        // name routes to.
        for i in 0..6 {
            let key = format!("/scfs/meta/new/f{i}");
            let entry = plane.get(&mut c, &key).unwrap();
            assert_eq!(entry.value, vec![i as u8]);
            assert!(plane
                .group(plane.router().route(&key))
                .read(&mut c, &key)
                .is_ok());
        }
        assert!(plane.get(&mut c, "/scfs/meta/old/f0").is_err());
        assert_eq!(plane.entry_count(), 6);
    }

    #[test]
    fn rename_denied_without_write_permission() {
        let plane = plane(2, 4);
        let mut clock = Clock::new();
        let mut a = ctx(&mut clock, "alice");
        plane
            .put(&mut a, "/scfs/meta/dir/f", b"v".to_vec())
            .unwrap();
        let mut clock_b = Clock::new();
        let mut b = ctx(&mut clock_b, "bob");
        assert!(matches!(
            plane.rename_prefix(&mut b, "/scfs/meta/dir/", "/scfs/meta/theft/"),
            Err(CoordError::AccessDenied { .. })
        ));
        assert!(plane.get(&mut a, "/scfs/meta/dir/f").is_ok());
    }

    #[test]
    fn cas_and_ephemeral_work_through_shards() {
        let plane = plane(4, 5);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        let v = plane
            .cas(&mut c, "/scfs/meta/d/f", None, b"1".to_vec())
            .unwrap();
        assert!(plane
            .cas(&mut c, "/scfs/meta/d/f", None, b"1".to_vec())
            .is_err());
        plane
            .cas(&mut c, "/scfs/meta/d/f", Some(v), b"2".to_vec())
            .unwrap();
        let session = SessionId::new("s1");
        plane
            .create_ephemeral(
                &mut c,
                "/scfs/locks/alice-f1/write",
                vec![],
                &session,
                SimDuration::from_secs(30),
            )
            .unwrap();
        assert!(matches!(
            plane.create_ephemeral(
                &mut c,
                "/scfs/locks/alice-f1/write",
                vec![],
                &SessionId::new("s2"),
                SimDuration::from_secs(30)
            ),
            Err(CoordError::LockHeld { .. })
        ));
        plane.delete(&mut c, "/scfs/locks/alice-f1/write").unwrap();
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = |seed| {
            let plane = plane(4, seed);
            let mut clock = Clock::new();
            let mut c = ctx(&mut clock, "alice");
            for i in 0..12 {
                plane
                    .put(&mut c, &format!("/scfs/meta/d{i}/f"), vec![i as u8])
                    .unwrap();
            }
            clock.now()
        };
        assert_eq!(run(7), run(7));
    }
}
