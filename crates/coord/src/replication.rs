//! Simulated replicated deployment of the coordination service.
//!
//! The paper runs the coordination service in two configurations (§3.2,
//! Figure 5):
//!
//! * **AWS backend** — a single DepSpace/ZooKeeper instance in one EC2 VM
//!   (Ireland), reached from the client cluster in Portugal with a 60–100 ms
//!   round trip per access (§4.2).
//! * **CoC backend** — four DepSpace replicas, one in each of four compute
//!   clouds (EC2, Rackspace, Azure, Elastichosts), coordinated by the
//!   BFT-SMaRt state-machine-replication engine and tolerating one Byzantine
//!   replica fault (n = 3f + 1 = 4).
//!
//! [`ReplicatedCoordinator`] reproduces both: it owns the authoritative
//! [`TupleStore`], computes per-operation latency from the replication
//! protocol's communication pattern (client→leader, ordering rounds among
//! replicas, quorum waits), injects replica faults and votes on replies so
//! that up to `f` faulty replicas are masked.

use std::sync::atomic::{AtomicU64, Ordering};

use cloud_store::store::OpCtx;
use cloud_store::types::Acl;
use parking_lot::Mutex;
use sim_core::fault::{FaultDecision, FaultInjector, FaultPlan};
use sim_core::latency::LatencyModel;
use sim_core::rng::DetRng;
use sim_core::time::{SimDuration, SimInstant};

use crate::commands::{Command, Reply, SignedCommand};
use crate::error::CoordError;
use crate::service::{CoordinationService, Entry, SessionId};
use crate::store::TupleStore;

/// Fault-tolerance mode of the replicated coordination service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Crash fault tolerance with `2f + 1` replicas (ZooKeeper / Zab,
    /// or DepSpace in crash mode). At `f = 0` it is a single, unreplicated
    /// instance: the paper's AWS backend.
    CrashFaultTolerant {
        /// Number of tolerated crash faults.
        f: usize,
    },
    /// Byzantine fault tolerance with `3f + 1` replicas (DepSpace on
    /// BFT-SMaRt).
    ByzantineFaultTolerant {
        /// Number of tolerated arbitrary faults.
        f: usize,
    },
}

impl ReplicationMode {
    /// Number of replicas this mode requires.
    pub fn replica_count(&self) -> usize {
        match *self {
            ReplicationMode::CrashFaultTolerant { f } => 2 * f + 1,
            ReplicationMode::ByzantineFaultTolerant { f } => 3 * f + 1,
        }
    }

    /// Size of the quorum needed to commit an update.
    pub fn write_quorum(&self) -> usize {
        match *self {
            ReplicationMode::CrashFaultTolerant { f } => f + 1,
            ReplicationMode::ByzantineFaultTolerant { f } => 2 * f + 1,
        }
    }

    /// Number of matching replies a client needs to trust a response.
    pub fn reply_quorum(&self) -> usize {
        match *self {
            ReplicationMode::CrashFaultTolerant { .. } => 1,
            ReplicationMode::ByzantineFaultTolerant { f } => f + 1,
        }
    }

    /// Number of tolerated faults.
    pub fn f(&self) -> usize {
        match *self {
            ReplicationMode::CrashFaultTolerant { f }
            | ReplicationMode::ByzantineFaultTolerant { f } => f,
        }
    }
}

/// Static description of one replica site.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaConfig {
    /// Human-readable site name (e.g. `"EC2 (Ireland)"`).
    pub name: String,
    /// Round-trip latency between the client and this replica.
    pub client_rtt: LatencyModel,
}

/// Full configuration of a replicated coordination-service deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationConfig {
    /// Fault-tolerance mode.
    pub mode: ReplicationMode,
    /// One entry per replica; the first replica acts as leader.
    pub replicas: Vec<ReplicaConfig>,
    /// Round-trip latency between any two replicas.
    pub inter_replica_rtt: LatencyModel,
    /// Local processing time per request at the service.
    pub processing: LatencyModel,
}

impl ReplicationConfig {
    /// The paper's AWS backend: one instance in EC2 Ireland, reached from
    /// Portugal in 60–100 ms per access.
    pub fn aws_single_ec2() -> Self {
        ReplicationConfig {
            mode: ReplicationMode::CrashFaultTolerant { f: 0 },
            replicas: vec![ReplicaConfig {
                name: "EC2 (Ireland)".into(),
                client_rtt: LatencyModel::uniform_ms(58.0, 92.0),
            }],
            inter_replica_rtt: LatencyModel::zero(),
            processing: LatencyModel::uniform_ms(2.0, 6.0),
        }
    }

    /// The paper's CoC backend: four DepSpace replicas on BFT-SMaRt, one per
    /// compute cloud (EC2 Ireland, Rackspace UK, Azure Europe, Elastichosts
    /// UK), tolerating one Byzantine fault.
    pub fn coc_byzantine() -> Self {
        ReplicationConfig {
            mode: ReplicationMode::ByzantineFaultTolerant { f: 1 },
            replicas: vec![
                ReplicaConfig {
                    name: "EC2 (Ireland)".into(),
                    client_rtt: LatencyModel::uniform_ms(40.0, 70.0),
                },
                ReplicaConfig {
                    name: "Rackspace (UK)".into(),
                    client_rtt: LatencyModel::uniform_ms(35.0, 60.0),
                },
                ReplicaConfig {
                    name: "Windows Azure (Europe)".into(),
                    client_rtt: LatencyModel::uniform_ms(38.0, 65.0),
                },
                ReplicaConfig {
                    name: "Elastichosts (UK)".into(),
                    client_rtt: LatencyModel::uniform_ms(35.0, 62.0),
                },
            ],
            inter_replica_rtt: LatencyModel::uniform_ms(8.0, 25.0),
            processing: LatencyModel::uniform_ms(2.0, 6.0),
        }
    }

    /// A colocated "metro" crash-fault-tolerant profile for the sharded
    /// metadata plane: replicas in nearby datacentres (2–6 ms apart) reached
    /// by clients over an 8–16 ms metro round trip. This is the per-register-
    /// group deployment the `metadata_plane` bench scales in shard count.
    pub fn metro_crash(f: usize) -> Self {
        ReplicationConfig {
            mode: ReplicationMode::CrashFaultTolerant { f },
            replicas: (0..2 * f + 1)
                .map(|i| ReplicaConfig {
                    name: format!("metro-{i}"),
                    client_rtt: LatencyModel::uniform_ms(8.0, 16.0),
                })
                .collect(),
            inter_replica_rtt: LatencyModel::uniform_ms(2.0, 6.0),
            processing: LatencyModel::uniform_ms(2.0, 6.0),
        }
    }

    /// An instantaneous deployment for functional tests.
    pub fn test_instant(mode: ReplicationMode) -> Self {
        ReplicationConfig {
            replicas: (0..mode.replica_count())
                .map(|i| ReplicaConfig {
                    name: format!("replica-{i}"),
                    client_rtt: LatencyModel::zero(),
                })
                .collect(),
            mode,
            inter_replica_rtt: LatencyModel::zero(),
            processing: LatencyModel::zero(),
        }
    }

    /// Validates that the replica list matches the mode.
    pub fn validate(&self) -> Result<(), CoordError> {
        if self.replicas.len() != self.mode.replica_count() {
            return Err(CoordError::invalid(format!(
                "mode {:?} requires {} replicas, got {}",
                self.mode,
                self.mode.replica_count(),
                self.replicas.len()
            )));
        }
        Ok(())
    }

    /// Samples the three latency terms of one SMR-ordered update, in this
    /// RNG draw order: the client ↔ leader round trip, the leader's
    /// processing time, and the protocol's ordering rounds among the
    /// replicas — one for crash tolerance (the leader proposes and waits for
    /// acknowledgements from a quorum of followers, free on a single node);
    /// two for Byzantine tolerance (the PRE-PREPARE/PREPARE and COMMIT
    /// all-to-all exchanges). Each round is one inter-replica round trip
    /// bounded by the slowest member of the quorum.
    pub(crate) fn sample_ordered_update(
        &self,
        rng: &mut DetRng,
    ) -> (SimDuration, SimDuration, SimDuration) {
        let leader_rtt = self.replicas[0].client_rtt.sample(rng);
        let processing = self.processing.sample(rng);
        let rounds = match self.mode {
            ReplicationMode::CrashFaultTolerant { .. } => 1,
            ReplicationMode::ByzantineFaultTolerant { .. } => 2,
        };
        let followers = self.replicas.len() - 1;
        let slowest_of_quorum = self.mode.write_quorum().saturating_sub(1);
        let ordering = (0..rounds).fold(SimDuration::ZERO, |total, _| {
            total + kth_smallest_sample(&self.inter_replica_rtt, rng, followers, slowest_of_quorum)
        });
        (leader_rtt, processing, ordering)
    }
}

/// The replicated coordination service.
#[derive(Debug)]
pub struct ReplicatedCoordinator {
    config: ReplicationConfig,
    store: Mutex<TupleStore>,
    replica_faults: Vec<Mutex<FaultInjector>>,
    rng: Mutex<DetRng>,
    accesses: AtomicU64,
}

impl ReplicatedCoordinator {
    /// Creates a coordinator; rejects an inconsistent configuration (replica
    /// list not matching the mode) with the typed error from
    /// [`ReplicationConfig::validate`].
    pub fn new(config: ReplicationConfig, seed: u64) -> Result<Self, CoordError> {
        config.validate()?;
        Ok(ReplicatedCoordinator::from_validated(config, seed))
    }

    /// Builds the coordinator from a configuration already known to be
    /// consistent — the [`ReplicationConfig`] constructors only produce
    /// consistent ones.
    fn from_validated(config: ReplicationConfig, seed: u64) -> Self {
        let replica_faults = (0..config.replicas.len())
            .map(|_| Mutex::new(FaultInjector::inert()))
            .collect();
        ReplicatedCoordinator {
            config,
            store: Mutex::new(TupleStore::new()),
            replica_faults,
            rng: Mutex::new(DetRng::new(seed)),
            accesses: AtomicU64::new(0),
        }
    }

    /// Creates an instantaneous single-node coordinator: for unit tests, and
    /// as an agent's private name space.
    pub fn test() -> Self {
        ReplicatedCoordinator::from_validated(
            ReplicationConfig::test_instant(ReplicationMode::CrashFaultTolerant { f: 0 }),
            0,
        )
    }

    /// Installs a fault plan on replica `index`.
    pub fn set_replica_fault(&self, index: usize, plan: FaultPlan, seed: u64) {
        if let Some(slot) = self.replica_faults.get(index) {
            *slot.lock() = FaultInjector::new(plan, seed);
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ReplicationConfig {
        &self.config
    }

    fn count_access(&self) {
        self.accesses.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples the latency of an ordered (update) operation.
    fn sample_update_latency(&self) -> SimDuration {
        let (leader_rtt, processing, ordering) =
            self.config.sample_ordered_update(&mut self.rng.lock());
        leader_rtt + ordering + processing
    }

    /// Samples the latency of a read-only operation.
    fn sample_read_latency(&self) -> SimDuration {
        let mut rng = self.rng.lock();
        let processing = self.config.processing.sample(&mut rng);
        match self.config.mode {
            ReplicationMode::CrashFaultTolerant { .. } => {
                self.config.replicas[0].client_rtt.sample(&mut rng) + processing
            }
            ReplicationMode::ByzantineFaultTolerant { .. } => {
                // The client queries all replicas and waits for a quorum of
                // matching replies; the latency is bounded by the
                // reply-quorum-th fastest replica.
                let samples: Vec<SimDuration> = self
                    .config
                    .replicas
                    .iter()
                    .map(|r| r.client_rtt.sample(&mut rng))
                    .collect();
                let mut sorted = samples;
                sorted.sort();
                let idx = self.config.mode.write_quorum().min(sorted.len()) - 1;
                sorted[idx] + processing
            }
        }
    }

    /// Counts the replicas that answer at instant `t`, and how many of those
    /// answers are corrupted (Byzantine).
    fn poll_replicas(&self, t: SimInstant) -> (usize, usize) {
        let mut responsive = 0usize;
        let mut corrupt = 0usize;
        for fault in &self.replica_faults {
            match fault.lock().decide(t) {
                FaultDecision::Allow => responsive += 1,
                FaultDecision::Corrupt => {
                    responsive += 1;
                    corrupt += 1;
                }
                FaultDecision::Unavailable => {}
            }
        }
        (responsive, corrupt)
    }

    /// Runs an update command through the simulated protocol.
    fn submit(&self, ctx: &mut OpCtx<'_>, command: Command) -> Result<Reply, CoordError> {
        self.count_access();
        let start = ctx.clock.now();
        let latency = self.sample_update_latency();
        let committed_at = ctx.clock.advance(latency);

        let (responsive, corrupt) = self.poll_replicas(start);
        let honest = responsive - corrupt;
        if honest < self.config.mode.write_quorum() {
            return Err(CoordError::unavailable(format!(
                "only {honest} of {} replicas available",
                self.config.replicas.len()
            )));
        }

        let signed = SignedCommand {
            issuer: ctx.account.clone(),
            command,
        };
        Ok(self.store.lock().apply(&signed, committed_at))
    }

    /// Runs a read-only query with reply voting.
    fn query<T>(
        &self,
        ctx: &mut OpCtx<'_>,
        f: impl FnOnce(&TupleStore, SimInstant) -> Result<T, CoordError>,
    ) -> Result<T, CoordError> {
        self.count_access();
        let start = ctx.clock.now();
        let latency = self.sample_read_latency();
        let read_at = ctx.clock.advance(latency);

        let (responsive, corrupt) = self.poll_replicas(start);
        let honest = responsive - corrupt;
        if honest < self.config.mode.reply_quorum() {
            return Err(CoordError::unavailable(format!(
                "only {honest} matching replies of {} needed",
                self.config.mode.reply_quorum()
            )));
        }
        f(&self.store.lock(), read_at)
    }
}

/// Samples `count` values from `model` and returns the `k`-th smallest
/// (0-based); returns zero when `count` is 0.
fn kth_smallest_sample(
    model: &LatencyModel,
    rng: &mut DetRng,
    count: usize,
    k: usize,
) -> SimDuration {
    if count == 0 {
        return SimDuration::ZERO;
    }
    let mut samples: Vec<SimDuration> = (0..count).map(|_| model.sample(rng)).collect();
    samples.sort();
    samples[k.min(count - 1)]
}

impl CoordinationService for ReplicatedCoordinator {
    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, value: Vec<u8>) -> Result<u64, CoordError> {
        self.submit(
            ctx,
            Command::Put {
                key: key.to_string(),
                value: value.into(),
            },
        )?
        .expect_version()
    }

    fn cas(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        expected: Option<u64>,
        value: Vec<u8>,
    ) -> Result<u64, CoordError> {
        self.submit(
            ctx,
            Command::Cas {
                key: key.to_string(),
                expected,
                value: value.into(),
            },
        )?
        .expect_version()
    }

    fn create_ephemeral(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        value: Vec<u8>,
        session: &SessionId,
        lease: SimDuration,
    ) -> Result<(), CoordError> {
        let expires_at = ctx.clock.now() + lease;
        self.submit(
            ctx,
            Command::CreateEphemeral {
                key: key.to_string(),
                value: value.into(),
                session: session.clone(),
                expires_at,
            },
        )?
        .expect_unit()
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Entry, CoordError> {
        let account = ctx.account.clone();
        self.query(ctx, |store, now| store.get(key, &account, now))
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), CoordError> {
        self.submit(
            ctx,
            Command::Delete {
                key: key.to_string(),
            },
        )?
        .expect_unit()
    }

    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, CoordError> {
        let account = ctx.account.clone();
        self.query(ctx, |store, now| {
            let keys = store.visible(prefix, &account, now);
            Ok(keys.map(|key| key.to_string()).collect())
        })
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), CoordError> {
        self.submit(
            ctx,
            Command::SetAcl {
                key: key.to_string(),
                acl: acl.into(),
            },
        )?
        .expect_unit()
    }

    fn rename_prefix(
        &self,
        ctx: &mut OpCtx<'_>,
        old_prefix: &str,
        new_prefix: &str,
    ) -> Result<usize, CoordError> {
        self.submit(
            ctx,
            Command::RenamePrefix {
                old_prefix: old_prefix.to_string(),
                new_prefix: new_prefix.to_string(),
            },
        )?
        .expect_count()
    }

    fn access_count(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    fn entry_count(&self) -> usize {
        self.store.lock().entry_count(SimInstant(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::Clock;

    fn ctx<'a>(clock: &'a mut Clock, who: &str) -> OpCtx<'a> {
        OpCtx::new(clock, who.into())
    }

    #[test]
    fn mode_sizes() {
        let single = ReplicationMode::CrashFaultTolerant { f: 0 };
        assert_eq!(single.replica_count(), 1);
        assert_eq!(
            (single.write_quorum(), single.reply_quorum(), single.f()),
            (1, 1, 0)
        );
        assert_eq!(
            ReplicationMode::CrashFaultTolerant { f: 1 }.replica_count(),
            3
        );
        assert_eq!(
            ReplicationMode::ByzantineFaultTolerant { f: 1 }.replica_count(),
            4
        );
        assert_eq!(
            ReplicationMode::ByzantineFaultTolerant { f: 1 }.write_quorum(),
            3
        );
        assert_eq!(
            ReplicationMode::ByzantineFaultTolerant { f: 1 }.reply_quorum(),
            2
        );
        assert_eq!(
            ReplicationMode::CrashFaultTolerant { f: 2 }.write_quorum(),
            3
        );
    }

    #[test]
    fn canned_configs_validate() {
        assert!(ReplicationConfig::aws_single_ec2().validate().is_ok());
        assert!(ReplicationConfig::coc_byzantine().validate().is_ok());
        assert!(ReplicationConfig::metro_crash(1).validate().is_ok());
        let mut bad = ReplicationConfig::coc_byzantine();
        bad.replicas.pop();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn put_get_round_trip_through_protocol() {
        let coord = ReplicatedCoordinator::test();
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        let v = coord.put(&mut c, "/f", b"meta".to_vec()).unwrap();
        assert_eq!(v, 1);
        let e = coord.get(&mut c, "/f").unwrap();
        assert_eq!(e.value, b"meta");
        assert_eq!(coord.access_count(), 2);
        assert_eq!(coord.entry_count(), 1);
    }

    #[test]
    fn aws_backend_access_latency_is_60_to_100ms() {
        let coord = ReplicatedCoordinator::new(ReplicationConfig::aws_single_ec2(), 1).unwrap();
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        let n = 50;
        for i in 0..n {
            coord
                .put(&mut c, &format!("/f{i}"), vec![0u8; 512])
                .unwrap();
        }
        let mean_ms = clock.now().as_millis_f64() / n as f64;
        assert!(
            (60.0..110.0).contains(&mean_ms),
            "mean coordination access latency was {mean_ms} ms"
        );
    }

    #[test]
    fn coc_byzantine_latency_is_comparable_to_aws() {
        let coord = ReplicatedCoordinator::new(ReplicationConfig::coc_byzantine(), 2).unwrap();
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        let n = 50;
        for i in 0..n {
            coord
                .put(&mut c, &format!("/f{i}"), vec![0u8; 512])
                .unwrap();
        }
        let mean_ms = clock.now().as_millis_f64() / n as f64;
        assert!(
            (60.0..140.0).contains(&mean_ms),
            "mean CoC coordination access latency was {mean_ms} ms"
        );
    }

    #[test]
    fn byzantine_deployment_masks_one_faulty_replica() {
        let coord = ReplicatedCoordinator::new(
            ReplicationConfig::test_instant(ReplicationMode::ByzantineFaultTolerant { f: 1 }),
            3,
        )
        .unwrap();
        coord.set_replica_fault(2, FaultPlan::always_byzantine(), 9);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        coord.put(&mut c, "/f", b"v".to_vec()).unwrap();
        assert_eq!(coord.get(&mut c, "/f").unwrap().value, b"v");
    }

    #[test]
    fn byzantine_deployment_fails_with_too_many_faults() {
        let coord = ReplicatedCoordinator::new(
            ReplicationConfig::test_instant(ReplicationMode::ByzantineFaultTolerant { f: 1 }),
            3,
        )
        .unwrap();
        coord.set_replica_fault(0, FaultPlan::crash_at(SimInstant::EPOCH), 1);
        coord.set_replica_fault(1, FaultPlan::crash_at(SimInstant::EPOCH), 2);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        assert!(matches!(
            coord.put(&mut c, "/f", b"v".to_vec()),
            Err(CoordError::Unavailable { .. })
        ));
    }

    #[test]
    fn crash_tolerant_deployment_survives_f_crashes() {
        let coord = ReplicatedCoordinator::new(
            ReplicationConfig::test_instant(ReplicationMode::CrashFaultTolerant { f: 1 }),
            4,
        )
        .unwrap();
        coord.set_replica_fault(1, FaultPlan::crash_at(SimInstant::EPOCH), 5);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        coord.put(&mut c, "/f", b"v".to_vec()).unwrap();
        assert_eq!(coord.get(&mut c, "/f").unwrap().value, b"v");
    }

    #[test]
    fn cas_and_rename_are_exposed() {
        let coord = ReplicatedCoordinator::test();
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        coord.cas(&mut c, "/dir/a", None, b"1".to_vec()).unwrap();
        assert!(coord.cas(&mut c, "/dir/a", None, b"1".to_vec()).is_err());
        let renamed = coord.rename_prefix(&mut c, "/dir/", "/new/").unwrap();
        assert_eq!(renamed, 1);
        assert!(coord.get(&mut c, "/new/a").is_ok());
    }

    #[test]
    fn ephemeral_create_and_delete() {
        let coord = ReplicatedCoordinator::test();
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        let session = SessionId::new("s1");
        coord
            .create_ephemeral(
                &mut c,
                "/lock/f",
                vec![],
                &session,
                SimDuration::from_secs(60),
            )
            .unwrap();
        // Second acquisition fails while the first is live.
        assert!(matches!(
            coord.create_ephemeral(
                &mut c,
                "/lock/f",
                vec![],
                &SessionId::new("s2"),
                SimDuration::from_secs(60)
            ),
            Err(CoordError::LockHeld { .. })
        ));
        coord.delete(&mut c, "/lock/f").unwrap();
        coord
            .create_ephemeral(
                &mut c,
                "/lock/f",
                vec![],
                &SessionId::new("s2"),
                SimDuration::from_secs(60),
            )
            .unwrap();
    }

    #[test]
    fn list_and_acl_pass_through() {
        let coord = ReplicatedCoordinator::test();
        let mut clock = Clock::new();
        let mut a = ctx(&mut clock, "alice");
        coord.put(&mut a, "/m/x", b"1".to_vec()).unwrap();
        coord.put(&mut a, "/m/y", b"2".to_vec()).unwrap();
        assert_eq!(coord.list(&mut a, "/m/").unwrap().len(), 2);
        let mut acl = Acl::private();
        acl.grant("bob".into(), cloud_store::types::Permission::Read);
        coord.set_acl(&mut a, "/m/x", acl).unwrap();
        let mut clock_b = Clock::new();
        clock_b.advance(SimDuration::from_secs(1));
        let mut b = ctx(&mut clock_b, "bob");
        assert_eq!(coord.list(&mut b, "/m/").unwrap(), vec!["/m/x".to_string()]);
    }
}
