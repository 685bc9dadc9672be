//! Environment builders: the clouds, storage backend and coordination plane
//! one benchmark cycle runs against, built from public constructors only.
//!
//! The builder keeps what the agents hide: the simulated clouds (request
//! counters, ledgers, stored bytes and raw key listings) and the concrete
//! backend (for its blob audit). With `traced` set, every seam is wrapped in
//! its decorator; without it the stack is exactly what a user would mount.

use std::sync::Arc;

use cloud_store::providers::{ProviderProfile, ProviderSet};
use cloud_store::sim_cloud::SimulatedCloud;
use cloud_store::store::ObjectStore;
use coord::replication::{ReplicatedCoordinator, ReplicationConfig};
use coord::service::CoordinationService;
use coord::sharded::{ShardTopology, ShardedCoordinator};
use depsky::config::DepSkyConfig;
use depsky::register::DepSkyClient;
use scfs::agent::ScfsAgent;
use scfs::backend::{CloudOfCloudsStorage, FileStorage, SingleCloudStorage};
use scfs::chunkstore::KeyStyle;
use scfs::config::ScfsConfig;

use crate::decorators::{TracedCoord, TracedStorage, TracedStore};
use crate::rng::derive_seed;

/// Which coordination plane an environment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordKind {
    /// The paper's BFT-replicated anchor spread over four clouds.
    CocByzantine,
    /// The paper's single coordination instance in EC2.
    AwsSingleEc2,
    /// The sharded ABD plane: `shards` metro-area groups tolerating one crash.
    ShardedMetro {
        /// Number of register groups.
        shards: usize,
    },
}

enum Audit {
    Aws(Arc<SingleCloudStorage>),
    Coc(Arc<CloudOfCloudsStorage>),
}

/// Request counters, bytes and charges summed over an environment's clouds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CloudTotals {
    /// PUT requests.
    pub puts: u64,
    /// GET requests.
    pub gets: u64,
    /// DELETE requests.
    pub deletes: u64,
    /// LIST + HEAD requests.
    pub lists_heads: u64,
    /// All requests, ACL updates included.
    pub requests: u64,
    /// Requests the clouds rejected.
    pub errors: u64,
    /// Bytes uploaded.
    pub put_bytes: u64,
    /// Bytes downloaded.
    pub get_bytes: u64,
    /// Sum of every cloud's ledger, in micro-dollars.
    pub microdollars: f64,
}

impl CloudTotals {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &CloudTotals) -> CloudTotals {
        CloudTotals {
            puts: self.puts - earlier.puts,
            gets: self.gets - earlier.gets,
            deletes: self.deletes - earlier.deletes,
            lists_heads: self.lists_heads - earlier.lists_heads,
            requests: self.requests - earlier.requests,
            errors: self.errors - earlier.errors,
            put_bytes: self.put_bytes - earlier.put_bytes,
            get_bytes: self.get_bytes - earlier.get_bytes,
            microdollars: self.microdollars - earlier.microdollars,
        }
    }
}

/// One freshly built deployment.
pub struct Env {
    storage: Arc<dyn FileStorage>,
    coord: Arc<dyn CoordinationService>,
    clouds: Vec<Arc<SimulatedCloud>>,
    audit: Audit,
}

fn coordinator(kind: CoordKind, seed: u64) -> Arc<dyn CoordinationService> {
    match kind {
        CoordKind::CocByzantine => Arc::new(
            ReplicatedCoordinator::new(ReplicationConfig::coc_byzantine(), seed)
                .expect("coc_byzantine is a consistent configuration"),
        ),
        CoordKind::AwsSingleEc2 => Arc::new(
            ReplicatedCoordinator::new(ReplicationConfig::aws_single_ec2(), seed)
                .expect("aws_single_ec2 is a consistent configuration"),
        ),
        CoordKind::ShardedMetro { shards } => Arc::new(
            ShardedCoordinator::new(ShardTopology::metro(shards, 1), seed)
                .expect("metro topologies are consistent"),
        ),
    }
}

fn store_of(cloud: &Arc<SimulatedCloud>, traced: bool) -> Arc<dyn ObjectStore> {
    if traced {
        Arc::new(TracedStore::new(cloud.clone()))
    } else {
        cloud.clone()
    }
}

impl Env {
    /// The cloud-of-clouds deployment: DepSky over the four paper clouds and
    /// the Byzantine coordination service.
    pub fn coc(seed: u64, traced: bool) -> Env {
        let clouds: Vec<Arc<SimulatedCloud>> = ProviderSet::coc_storage_backend()
            .into_iter()
            .enumerate()
            .map(|(i, p)| Arc::new(SimulatedCloud::new(p, derive_seed(seed, 0x100 + i as u64))))
            .collect();
        let stores = clouds.iter().map(|c| store_of(c, traced)).collect();
        let depsky = DepSkyClient::new(stores, DepSkyConfig::scfs_default(), derive_seed(seed, 1))
            .expect("four clouds match the f = 1 configuration");
        let concrete = Arc::new(CloudOfCloudsStorage::new(depsky));
        Env::assemble(
            concrete.clone(),
            Audit::Coc(concrete),
            clouds,
            CoordKind::CocByzantine,
            seed,
            traced,
        )
    }

    /// The AWS deployment: one Amazon S3 cloud and the given coordinator.
    pub fn aws(seed: u64, coord: CoordKind, traced: bool) -> Env {
        let cloud = Arc::new(SimulatedCloud::new(
            ProviderProfile::amazon_s3(),
            derive_seed(seed, 0x100),
        ));
        let concrete = Arc::new(SingleCloudStorage::new(store_of(&cloud, traced)));
        Env::assemble(
            concrete.clone(),
            Audit::Aws(concrete),
            vec![cloud],
            coord,
            seed,
            traced,
        )
    }

    fn assemble(
        storage: Arc<dyn FileStorage>,
        audit: Audit,
        clouds: Vec<Arc<SimulatedCloud>>,
        coord: CoordKind,
        seed: u64,
        traced: bool,
    ) -> Env {
        let mut coord = coordinator(coord, derive_seed(seed, 2));
        let mut storage = storage;
        if traced {
            storage = Arc::new(TracedStorage::new(storage));
            coord = Arc::new(TracedCoord::new(coord));
        }
        Env {
            storage,
            coord,
            clouds,
            audit,
        }
    }

    /// Mounts an agent for `user` on this deployment.
    pub fn mount(&self, user: &str, config: ScfsConfig, seed: u64) -> ScfsAgent {
        ScfsAgent::mount(
            user.into(),
            config,
            self.storage.clone(),
            Some(self.coord.clone()),
            seed,
        )
        .expect("a coordinated mode with a coordinator mounts")
    }

    /// Counters and charges summed over all clouds.
    pub fn cloud_totals(&self) -> CloudTotals {
        let mut t = CloudTotals::default();
        for cloud in &self.clouds {
            let m = cloud.metrics().snapshot();
            t.puts += m.puts;
            t.gets += m.gets;
            t.deletes += m.deletes;
            t.lists_heads += m.lists + m.heads;
            t.requests += m.total_ops();
            t.errors += m.errors;
            t.put_bytes += m.bytes_in;
            t.get_bytes += m.bytes_out;
            t.microdollars += cloud.ledger().grand_total().0;
        }
        t
    }

    /// Bytes held at the clouds, every retained version counted.
    pub fn stored_bytes(&self) -> u64 {
        self.clouds
            .iter()
            .map(|c| c.stored_bytes_all_versions().get())
            .sum()
    }

    /// Stored keys no live manifest, chunk reference or pending release-
    /// journal entry reaches — the leak class the GC journal must prevent.
    pub fn orphans(&self) -> Vec<String> {
        let (audit, style) = match &self.audit {
            Audit::Aws(s) => (s.blob_audit(), KeyStyle::Aws),
            Audit::Coc(s) => (s.blob_audit(), KeyStyle::DepSky),
        };
        self.clouds
            .iter()
            .flat_map(|c| audit.orphans(style, c.stored_keys("")))
            .collect()
    }

    /// Release-journal entries still waiting for a replay.
    pub fn pending_releases(&self) -> usize {
        self.storage.pending_releases()
    }

    /// Total accesses the coordination plane has served.
    pub fn coord_accesses(&self) -> u64 {
        self.coord.access_count()
    }
}
