//! The simulated eventually-consistent cloud object store.
//!
//! [`SimulatedCloud`] is the workhorse substrate of the reproduction: an
//! in-process object store that behaves, from the perspective of the code
//! built on top of it, like Amazon S3 or its peers did in 2014:
//!
//! * every operation charges WAN latency plus payload transfer time to the
//!   caller's virtual clock;
//! * a PUT creates a new *version* that only becomes visible to GETs after a
//!   provider-specific visibility delay (eventual consistency);
//! * objects are owned by the account that created them, protected by ACLs,
//!   and every operation is billed according to the provider's price book;
//! * a [`FaultInjector`] can make the provider unavailable, drop requests or
//!   silently corrupt returned data (Byzantine behaviour), which is what the
//!   DepSky quorum protocols must mask.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use sim_core::fault::{FaultDecision, FaultInjector, FaultPlan};
use sim_core::rng::DetRng;
use sim_core::time::{SimDuration, SimInstant};
use sim_core::units::Bytes;

use crate::error::StorageError;
use crate::metrics::CloudMetrics;
use crate::pricing::ChargeKind;
use crate::pricing::CostLedger;
use crate::providers::ProviderProfile;
use crate::store::{ObjectStore, OpCtx};
use crate::types::{AccountId, Acl, ObjectMeta, Permission};

/// One stored version of an object.
#[derive(Debug, Clone)]
struct Version {
    data: Vec<u8>,
    written_at: SimInstant,
    visible_at: SimInstant,
}

/// One stored object: ownership, ACL and its version history.
#[derive(Debug, Clone)]
struct ObjectRecord {
    owner: AccountId,
    acl: Acl,
    versions: Vec<Version>,
}

impl ObjectRecord {
    /// The most recent version visible at instant `t`.
    fn visible_version(&self, t: SimInstant) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.visible_at <= t)
    }
}

/// A simulated cloud storage provider.
#[derive(Debug)]
pub struct SimulatedCloud {
    profile: ProviderProfile,
    objects: Mutex<BTreeMap<String, ObjectRecord>>,
    rng: Mutex<DetRng>,
    faults: Mutex<FaultInjector>,
    metrics: CloudMetrics,
    ledger: CostLedger,
}

impl SimulatedCloud {
    /// Creates a cloud with the given profile and RNG seed.
    pub fn new(profile: ProviderProfile, seed: u64) -> Self {
        SimulatedCloud {
            profile,
            objects: Mutex::new(BTreeMap::new()),
            rng: Mutex::new(DetRng::new(seed)),
            faults: Mutex::new(FaultInjector::inert()),
            metrics: CloudMetrics::new(),
            ledger: CostLedger::new(),
        }
    }

    /// Creates an instantaneous, strongly-consistent cloud for unit tests.
    pub fn test(id: &str) -> Self {
        SimulatedCloud::new(ProviderProfile::instantaneous(id), 0)
    }

    /// Installs a fault plan (replacing any previous one).
    pub fn set_fault_plan(&self, plan: FaultPlan, seed: u64) {
        *self.faults.lock() = FaultInjector::new(plan, seed);
    }

    /// The provider profile this cloud was built from (pricing, latency and
    /// consistency) — placement registries and cost reports read it back
    /// instead of carrying a parallel copy.
    pub fn profile(&self) -> &ProviderProfile {
        &self.profile
    }

    /// Access to the operation counters.
    pub fn metrics(&self) -> &CloudMetrics {
        &self.metrics
    }

    /// Access to the per-account cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Number of objects currently stored (including invisible versions).
    pub fn object_count(&self) -> usize {
        self.objects.lock().len()
    }

    /// Total bytes currently billed for storage: the latest version of every
    /// object (the provider replaces overwritten objects; SCFS keeps old file
    /// versions alive by writing each one under its own key). This is the
    /// input to the storage-cost analysis (Figure 11(c)).
    pub fn stored_bytes(&self) -> Bytes {
        let objects = self.objects.lock();
        let total: u64 = objects
            .values()
            .filter_map(|o| o.versions.last().map(|v| v.data.len() as u64))
            .sum();
        Bytes::new(total)
    }

    /// Total bytes across every retained internal version of every object
    /// (used to reason about the simulator itself, not for billing).
    pub fn stored_bytes_all_versions(&self) -> Bytes {
        let objects = self.objects.lock();
        let total: u64 = objects
            .values()
            .flat_map(|o| o.versions.iter())
            .map(|v| v.data.len() as u64)
            .sum();
        Bytes::new(total)
    }

    /// Number of versions stored for `key` (0 if the key does not exist).
    pub fn version_count(&self, key: &str) -> usize {
        self.objects.lock().get(key).map_or(0, |o| o.versions.len())
    }

    /// Every stored key starting with `prefix`, regardless of visibility,
    /// ownership or ACLs. This is simulator-level introspection (no clock is
    /// charged, no account is checked): tests use it to audit that the SCFS
    /// garbage collector left no blob unreachable from any live manifest or
    /// pending release-journal entry.
    pub fn stored_keys(&self, prefix: &str) -> Vec<String> {
        self.objects
            .lock()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    fn sample_latency(&self, upload: Bytes, download: Bytes) -> SimDuration {
        let mut rng = self.rng.lock();
        self.profile.latency.sample_op(&mut rng, upload, download)
    }

    fn fault_decision(&self, t: SimInstant) -> FaultDecision {
        self.faults.lock().decide(t)
    }

    fn charge_request(&self, account: &AccountId, cost: sim_core::units::MicroDollars) {
        self.ledger.charge(account, ChargeKind::Request, cost);
    }

    /// Checks that `account` may access `record` with `perm`.
    fn check_access(
        record: &ObjectRecord,
        account: &AccountId,
        perm: Permission,
        key: &str,
    ) -> Result<(), StorageError> {
        if &record.owner == account || record.acl.allows(account, perm) {
            Ok(())
        } else {
            Err(StorageError::AccessDenied {
                key: key.to_string(),
                account: account.to_string(),
            })
        }
    }
}

impl ObjectStore for SimulatedCloud {
    fn id(&self) -> &str {
        &self.profile.id
    }

    fn profile(&self) -> &ProviderProfile {
        &self.profile
    }

    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, data: &[u8]) -> Result<(), StorageError> {
        if key.is_empty() {
            return Err(StorageError::invalid("empty key"));
        }
        let start = ctx.clock.now();
        let size = Bytes::new(data.len() as u64);
        let latency = self.sample_latency(size, Bytes::ZERO);
        let completed = ctx.clock.advance(latency);

        match self.fault_decision(start) {
            FaultDecision::Unavailable => {
                self.metrics.record_error();
                return Err(StorageError::unavailable(&self.profile.name));
            }
            FaultDecision::Corrupt | FaultDecision::Allow => {}
        }

        let mut objects = self.objects.lock();
        let is_new_key = !objects.contains_key(key);
        let visibility = {
            let mut rng = self.rng.lock();
            self.profile
                .consistency
                .sample_visibility(&mut rng, is_new_key)
        };

        let record = objects
            .entry(key.to_string())
            .or_insert_with(|| ObjectRecord {
                owner: ctx.account.clone(),
                acl: Acl::private(),
                versions: Vec::new(),
            });
        if !is_new_key {
            Self::check_access(record, &ctx.account, Permission::Write, key)?;
        }
        record.versions.push(Version {
            data: data.to_vec(),
            written_at: completed,
            visible_at: completed + visibility,
        });
        drop(objects);

        self.metrics.record_put(size);
        self.charge_request(&ctx.account, self.profile.prices.put_op_cost());
        self.ledger.charge(
            &ctx.account,
            ChargeKind::Inbound,
            self.profile.prices.upload_cost(size),
        );
        Ok(())
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Vec<u8>, StorageError> {
        let start = ctx.clock.now();

        // Look up the object first so the transfer time reflects its size.
        let lookup = {
            let objects = self.objects.lock();
            objects.get(key).map(|record| {
                (
                    record.owner.clone(),
                    record.acl.clone(),
                    record.visible_version(start).map(|v| v.data.clone()),
                )
            })
        };

        let payload = match &lookup {
            Some((_, _, Some(data))) => Bytes::new(data.len() as u64),
            _ => Bytes::ZERO,
        };
        let latency = self.sample_latency(Bytes::ZERO, payload);
        ctx.clock.advance(latency);

        match self.fault_decision(start) {
            FaultDecision::Unavailable => {
                self.metrics.record_error();
                Err(StorageError::unavailable(&self.profile.name))
            }
            decision => {
                let (owner, acl, data) = match lookup {
                    Some(t) => t,
                    None => {
                        self.metrics.record_error();
                        return Err(StorageError::not_found(key));
                    }
                };
                // Access control.
                let pseudo_record = ObjectRecord {
                    owner,
                    acl,
                    versions: Vec::new(),
                };
                Self::check_access(&pseudo_record, &ctx.account, Permission::Read, key)?;

                let mut data = match data {
                    Some(d) => d,
                    None => {
                        // Object exists but no version is visible yet
                        // (eventual consistency window).
                        self.metrics.record_error();
                        return Err(StorageError::not_found(key));
                    }
                };
                if decision == FaultDecision::Corrupt {
                    self.faults.lock().corrupt(&mut data);
                }

                let size = Bytes::new(data.len() as u64);
                self.metrics.record_get(size);
                self.charge_request(&ctx.account, self.profile.prices.get_op_cost());
                self.ledger.charge(
                    &ctx.account,
                    ChargeKind::Outbound,
                    self.profile.prices.download_cost(size),
                );
                Ok(data)
            }
        }
    }

    fn head(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<ObjectMeta, StorageError> {
        let start = ctx.clock.now();
        let latency = self.sample_latency(Bytes::ZERO, Bytes::ZERO);
        ctx.clock.advance(latency);

        if self.fault_decision(start) == FaultDecision::Unavailable {
            self.metrics.record_error();
            return Err(StorageError::unavailable(&self.profile.name));
        }

        let objects = self.objects.lock();
        let record = objects
            .get(key)
            .ok_or_else(|| StorageError::not_found(key))?;
        Self::check_access(record, &ctx.account, Permission::Read, key)?;
        let visible = record
            .visible_version(start)
            .ok_or_else(|| StorageError::not_found(key))?;
        self.metrics.record_head();
        self.charge_request(&ctx.account, self.profile.prices.get_op_cost());
        Ok(ObjectMeta {
            key: key.to_string(),
            size: Bytes::new(visible.data.len() as u64),
            owner: record.owner.clone(),
            written_at: visible.written_at,
            version_count: record.versions.len(),
            acl: record.acl.clone(),
        })
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), StorageError> {
        let start = ctx.clock.now();
        let latency = self.sample_latency(Bytes::ZERO, Bytes::ZERO);
        ctx.clock.advance(latency);

        if self.fault_decision(start) == FaultDecision::Unavailable {
            self.metrics.record_error();
            return Err(StorageError::unavailable(&self.profile.name));
        }

        let mut objects = self.objects.lock();
        let record = objects
            .get(key)
            .ok_or_else(|| StorageError::not_found(key))?;
        Self::check_access(record, &ctx.account, Permission::Write, key)?;
        objects.remove(key);
        drop(objects);

        self.metrics.record_delete();
        self.charge_request(&ctx.account, self.profile.prices.delete_op_cost());
        Ok(())
    }

    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, StorageError> {
        let start = ctx.clock.now();
        let latency = self.sample_latency(Bytes::ZERO, Bytes::kib(4));
        ctx.clock.advance(latency);

        if self.fault_decision(start) == FaultDecision::Unavailable {
            self.metrics.record_error();
            return Err(StorageError::unavailable(&self.profile.name));
        }

        let objects = self.objects.lock();
        let keys = objects
            .iter()
            .filter(|(k, record)| {
                k.starts_with(prefix)
                    && record.visible_version(start).is_some()
                    && (record.owner == ctx.account
                        || record.acl.allows(&ctx.account, Permission::Read))
            })
            .map(|(k, _)| k.clone())
            .collect();
        self.metrics.record_list();
        self.charge_request(&ctx.account, self.profile.prices.put_op_cost());
        Ok(keys)
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), StorageError> {
        let start = ctx.clock.now();
        let latency = self.sample_latency(Bytes::ZERO, Bytes::ZERO);
        ctx.clock.advance(latency);

        if self.fault_decision(start) == FaultDecision::Unavailable {
            self.metrics.record_error();
            return Err(StorageError::unavailable(&self.profile.name));
        }

        let mut objects = self.objects.lock();
        let record = objects
            .get_mut(key)
            .ok_or_else(|| StorageError::not_found(key))?;
        // Only the owner may change permissions; the cloud enforces this, not
        // the (untrusted) SCFS agent.
        if record.owner != ctx.account {
            return Err(StorageError::AccessDenied {
                key: key.to_string(),
                account: ctx.account.to_string(),
            });
        }
        record.acl = acl;
        drop(objects);
        self.metrics.record_acl_update();
        self.charge_request(&ctx.account, self.profile.prices.put_op_cost());
        Ok(())
    }

    fn get_acl(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Acl, StorageError> {
        let start = ctx.clock.now();
        let latency = self.sample_latency(Bytes::ZERO, Bytes::ZERO);
        ctx.clock.advance(latency);

        if self.fault_decision(start) == FaultDecision::Unavailable {
            self.metrics.record_error();
            return Err(StorageError::unavailable(&self.profile.name));
        }

        let objects = self.objects.lock();
        let record = objects
            .get(key)
            .ok_or_else(|| StorageError::not_found(key))?;
        Self::check_access(record, &ctx.account, Permission::Read, key)?;
        Ok(record.acl.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::latency::LatencyModel;
    use sim_core::time::Clock;

    fn ctx<'a>(clock: &'a mut Clock, who: &str) -> OpCtx<'a> {
        OpCtx::new(clock, AccountId::new(who))
    }

    #[test]
    fn put_get_round_trip() {
        let cloud = SimulatedCloud::test("t");
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        cloud.put(&mut c, "files/a", b"hello").unwrap();
        assert_eq!(cloud.get(&mut c, "files/a").unwrap(), b"hello");
        assert_eq!(cloud.object_count(), 1);
    }

    #[test]
    fn get_missing_object_is_not_found() {
        let cloud = SimulatedCloud::test("t");
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        assert!(matches!(
            cloud.get(&mut c, "nope"),
            Err(StorageError::NotFound { .. })
        ));
    }

    #[test]
    fn empty_key_rejected() {
        let cloud = SimulatedCloud::test("t");
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        assert!(matches!(
            cloud.put(&mut c, "", b"x"),
            Err(StorageError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn versions_accumulate_on_overwrite() {
        let cloud = SimulatedCloud::test("t");
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        cloud.put(&mut c, "k", b"v1").unwrap();
        cloud.put(&mut c, "k", b"v2").unwrap();
        assert_eq!(cloud.version_count("k"), 2);
        assert_eq!(cloud.get(&mut c, "k").unwrap(), b"v2");
        assert_eq!(cloud.stored_bytes(), Bytes::new(2));
        assert_eq!(cloud.stored_bytes_all_versions(), Bytes::new(4));
    }

    #[test]
    fn latency_is_charged_to_the_clock() {
        let mut profile = ProviderProfile::instantaneous("slow");
        profile.latency.request = LatencyModel::constant_ms(100.0);
        let cloud = SimulatedCloud::new(profile, 1);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        cloud.put(&mut c, "k", b"data").unwrap();
        assert_eq!(clock.now().as_millis_f64(), 100.0);
    }

    #[test]
    fn eventual_consistency_hides_fresh_writes() {
        use crate::providers::ConsistencyMode;
        let mut profile = ProviderProfile::instantaneous("ec");
        profile.consistency = ConsistencyMode::Eventual {
            visibility: LatencyModel::constant_ms(5_000.0),
        };
        let cloud = SimulatedCloud::new(profile, 1);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        cloud.put(&mut c, "k", b"v").unwrap();
        // Immediately after the write the object is not yet visible.
        assert!(matches!(
            cloud.get(&mut c, "k"),
            Err(StorageError::NotFound { .. })
        ));
        // After the visibility window it is.
        clock.advance(SimDuration::from_secs(6));
        let mut c = ctx(&mut clock, "alice");
        assert_eq!(cloud.get(&mut c, "k").unwrap(), b"v");
    }

    #[test]
    fn acl_controls_cross_account_access() {
        let cloud = SimulatedCloud::test("t");
        let mut clock = Clock::new();
        let mut alice = Clock::new();
        let mut a = ctx(&mut alice, "alice");
        cloud.put(&mut a, "shared", b"secret").unwrap();

        let mut b = ctx(&mut clock, "bob");
        assert!(matches!(
            cloud.get(&mut b, "shared"),
            Err(StorageError::AccessDenied { .. })
        ));

        // Owner grants read access.
        let mut acl = Acl::private();
        acl.grant("bob".into(), Permission::Read);
        cloud.set_acl(&mut a, "shared", acl).unwrap();
        assert_eq!(cloud.get(&mut b, "shared").unwrap(), b"secret");
        // Bob still cannot overwrite or change the ACL.
        assert!(cloud.put(&mut b, "shared", b"mine").is_err());
        assert!(cloud.set_acl(&mut b, "shared", Acl::private()).is_err());
    }

    #[test]
    fn delete_requires_write_permission() {
        let cloud = SimulatedCloud::test("t");
        let mut ca = Clock::new();
        let mut a = ctx(&mut ca, "alice");
        cloud.put(&mut a, "k", b"v").unwrap();
        let mut cb = Clock::new();
        let mut b = ctx(&mut cb, "bob");
        assert!(cloud.delete(&mut b, "k").is_err());
        cloud.delete(&mut a, "k").unwrap();
        assert_eq!(cloud.object_count(), 0);
    }

    #[test]
    fn list_filters_by_prefix_and_access() {
        let cloud = SimulatedCloud::test("t");
        let mut ca = Clock::new();
        let mut a = ctx(&mut ca, "alice");
        cloud.put(&mut a, "alice/f1", b"1").unwrap();
        cloud.put(&mut a, "alice/f2", b"2").unwrap();
        cloud.put(&mut a, "other/f3", b"3").unwrap();
        assert_eq!(cloud.list(&mut a, "alice/").unwrap().len(), 2);
        assert_eq!(cloud.list(&mut a, "").unwrap().len(), 3);
        // Bob sees nothing: no grants.
        let mut cb = Clock::new();
        let mut b = ctx(&mut cb, "bob");
        assert!(cloud.list(&mut b, "").unwrap().is_empty());
    }

    #[test]
    fn head_reports_size_owner_and_versions() {
        let cloud = SimulatedCloud::test("t");
        let mut ca = Clock::new();
        let mut a = ctx(&mut ca, "alice");
        cloud.put(&mut a, "k", b"0123456789").unwrap();
        cloud.put(&mut a, "k", b"01234").unwrap();
        let meta = cloud.head(&mut a, "k").unwrap();
        assert_eq!(meta.size, Bytes::new(5));
        assert_eq!(meta.owner, AccountId::new("alice"));
        assert_eq!(meta.version_count, 2);
    }

    #[test]
    fn outage_makes_operations_unavailable() {
        let cloud = SimulatedCloud::test("t");
        cloud.set_fault_plan(
            FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(100)),
            7,
        );
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        assert!(matches!(
            cloud.put(&mut c, "k", b"v"),
            Err(StorageError::Unavailable { .. })
        ));
        // After the outage the cloud works again.
        clock.advance(SimDuration::from_secs(200));
        let mut c = ctx(&mut clock, "alice");
        cloud.put(&mut c, "k", b"v").unwrap();
    }

    #[test]
    fn byzantine_cloud_corrupts_data() {
        let cloud = SimulatedCloud::test("t");
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        cloud.put(&mut c, "k", &vec![0u8; 256]).unwrap();
        cloud.set_fault_plan(FaultPlan::always_byzantine(), 9);
        let data = cloud.get(&mut c, "k").unwrap();
        assert_ne!(data, vec![0u8; 256]);
    }

    #[test]
    fn costs_are_charged_to_the_right_account() {
        let cloud = SimulatedCloud::new(ProviderProfile::amazon_s3(), 3);
        let mut ca = Clock::new();
        let mut a = ctx(&mut ca, "alice");
        let payload = vec![0u8; 1024 * 1024];
        cloud.put(&mut a, "k", &payload).unwrap();
        // Writing is (almost) free: only the per-request charge.
        let write_cost = cloud.ledger().total_for(&"alice".into());
        assert!(write_cost.get() < 10.0, "write cost was {write_cost}");

        let mut acl = Acl::private();
        acl.grant("bob".into(), Permission::Read);
        cloud.set_acl(&mut a, "k", acl).unwrap();

        let mut cb = Clock::new();
        cb.advance(SimDuration::from_secs(10));
        let mut b = ctx(&mut cb, "bob");
        cloud.get(&mut b, "k").unwrap();
        let read_cost = cloud.ledger().total_for(&"bob".into());
        // Reading 1 MiB at $0.12/GB ≈ 117 micro-dollars.
        assert!(read_cost.get() > 50.0, "read cost was {read_cost}");
        assert!(read_cost.get() > write_cost.get());
    }

    #[test]
    fn metrics_track_operations() {
        let cloud = SimulatedCloud::test("t");
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock, "alice");
        cloud.put(&mut c, "k", b"hello").unwrap();
        cloud.get(&mut c, "k").unwrap();
        cloud.head(&mut c, "k").unwrap();
        cloud.list(&mut c, "").unwrap();
        cloud.delete(&mut c, "k").unwrap();
        let s = cloud.metrics().snapshot();
        assert_eq!(s.puts, 1);
        assert_eq!(s.gets, 1);
        assert_eq!(s.heads, 1);
        assert_eq!(s.lists, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.bytes_in, 5);
        assert_eq!(s.bytes_out, 5);
    }
}
