//! The one place a deployment is stood up.
//!
//! The paper's Figure 5 draws a deployment as a product — storage backend
//! (one cloud | DepSky cloud-of-clouds) × coordination plane × the mode a
//! client mounts in. A [`Deployment`] is the first two factors: it owns the
//! simulated clouds, the backend over them and the coordination plane, built
//! from exactly the inputs it cannot derive:
//!
//! 1. the [`Backend`] kind;
//! 2. the provider profiles ([`Providers`]: the paper's WAN set, the
//!    instantaneous test set, or an explicit list);
//! 3. the coordination plane ([`Plane`]: the backend's paper configuration,
//!    an instantaneous single node, or a sharded [`ShardTopology`]);
//! 4. an optional placement (policy, width, write wait — a
//!    [`PlacementSpec`] minus the provider matrix, which is derived from the
//!    provider list): a placement-aware DepSky client over a provider pool
//!    that may be larger than the protocol's `n`;
//! 5. an optional [`ObjectStore`] interposer between the clouds and the
//!    backend (fault injectors, request recorders).
//!
//! [`Mode`] is **not** an input. It is the third factor, a property of each
//! *mount*: [`Deployment::mount`] reads it from the [`ScfsConfig`] it is
//! given, and `ScfsAgent::mount` ignores the coordination plane in
//! [`Mode::NonSharing`], so one deployment serves mounts of any mode.
//!
//! Seeds are derived the same way everywhere: cloud `i` is seeded
//! `seed + i`, DepSky `seed`, the coordination plane `seed` — except under
//! [`build_scfs`], the paper-table entry point, whose plane has always been
//! seeded `seed ^ 0x9999`; both conventions are kept so that no recorded
//! number moves.

use std::sync::Arc;

use baselines::{LocalFs, S3fsLike, S3qlLike};
use cloud_store::providers::{ProviderProfile, ProviderSet};
use cloud_store::sim_cloud::SimulatedCloud;
use cloud_store::store::ObjectStore;
use coord::replication::{ReplicatedCoordinator, ReplicationConfig, ReplicationMode};
use coord::service::CoordinationService;
use coord::sharded::{ShardTopology, ShardedCoordinator};
use depsky::config::DepSkyConfig;
use depsky::register::{DepSkyClient, PlacementSpec};
use placement::{PolicyKind, ProviderMatrix};
use scfs::agent::ScfsAgent;
use scfs::backend::{CloudOfCloudsStorage, FileStorage, SingleCloudStorage};
use scfs::chunkstore::KeyStyle;
use scfs::config::{Mode, ScfsConfig};
use scfs::fs::FileSystem;
use scfs_crypto::ContentHash;
use sim_core::fault::FaultPlan;

/// Which SCFS backend to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single cloud (Amazon S3) + one coordination-service instance in EC2.
    Aws,
    /// DepSky cloud-of-clouds + BFT-replicated coordination service.
    CloudOfClouds,
}

impl Backend {
    /// Short label for result tables (`"AWS"` or `"CoC"`).
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Aws => "AWS",
            Backend::CloudOfClouds => "CoC",
        }
    }
}

/// The provider profiles a deployment's clouds simulate.
#[derive(Debug, Clone)]
pub enum Providers {
    /// The paper's WAN providers: Amazon S3 for [`Backend::Aws`]; S3, GCS,
    /// Rackspace and Azure for [`Backend::CloudOfClouds`].
    Paper,
    /// Instantaneous, strongly consistent clouds (one, or four) for
    /// functional tests.
    Instantaneous,
    /// An explicit list: one profile for [`Backend::Aws`]; the protocol's
    /// `n`, or with a placement any larger pool, for
    /// [`Backend::CloudOfClouds`].
    Explicit(Vec<ProviderProfile>),
}

/// The coordination plane a deployment runs.
#[derive(Debug, Clone)]
pub enum Plane {
    /// The backend's paper configuration: one EC2 node for [`Backend::Aws`],
    /// four Byzantine replicas across the compute clouds for
    /// [`Backend::CloudOfClouds`].
    Paper,
    /// An instantaneous single node for functional tests.
    Instantaneous,
    /// The sharded, quorum-replicated plane in the given topology.
    Sharded(ShardTopology),
}

/// The inputs of a [`Deployment`], started by [`Deployment::on`] and
/// finished by [`DeploymentSpec::build`].
pub struct DeploymentSpec {
    backend: Backend,
    providers: Providers,
    plane: Plane,
    placement: Option<(PolicyKind, usize, usize)>,
    /// XORed into the coordination plane's seed: 0, or [`build_scfs`]'s.
    plane_salt: u64,
}

impl DeploymentSpec {
    /// Replaces the paper's WAN providers.
    pub fn providers(mut self, providers: Providers) -> Self {
        self.providers = providers;
        self
    }

    /// Replaces the backend's paper coordination plane.
    pub fn plane(mut self, plane: Plane) -> Self {
        self.plane = plane;
        self
    }

    /// Makes the DepSky client placement-aware ([`Backend::CloudOfClouds`]
    /// only): `policy` picks `width` clouds per write, waiting for
    /// `write_wait` block acknowledgements, and orders reads, over a
    /// [`ProviderMatrix`] of the provider list.
    pub fn placement(mut self, policy: PolicyKind, width: usize, write_wait: usize) -> Self {
        self.placement = Some((policy, width, write_wait));
        self
    }

    /// Stands the deployment up, the backend talking to the clouds directly.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are inconsistent (see [`Self::build_behind`]).
    pub fn build(self, seed: u64) -> Deployment {
        self.build_behind(seed, |cloud| cloud)
    }

    /// Stands the deployment up with `interpose` wrapping each cloud, in
    /// provider order, before the backend sees it. [`Deployment::clouds`]
    /// stays the raw clouds, so ledgers, `stored_keys` and the orphan audit
    /// look behind the interposer.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are inconsistent: a provider list that does not
    /// match the backend, a placement on the single-cloud backend or one
    /// whose width or write wait the provider list cannot satisfy, an
    /// invalid topology.
    pub fn build_behind(
        self,
        seed: u64,
        interpose: impl FnMut(Arc<SimulatedCloud>) -> Arc<dyn ObjectStore>,
    ) -> Deployment {
        let profiles = match (self.providers, self.backend) {
            (Providers::Explicit(profiles), _) => profiles,
            (Providers::Paper, Backend::Aws) => ProviderSet::aws_backend(),
            (Providers::Paper, Backend::CloudOfClouds) => ProviderSet::coc_storage_backend(),
            (Providers::Instantaneous, Backend::Aws) => vec![ProviderProfile::instantaneous("s3")],
            (Providers::Instantaneous, Backend::CloudOfClouds) => ProviderSet::test_backend(4),
        };
        let placement = self
            .placement
            .map(|(policy, width, write_wait)| PlacementSpec {
                matrix: Arc::new(ProviderMatrix::new(profiles.clone())),
                policy: policy.build(),
                width,
                write_wait,
            });
        let clouds: Vec<Arc<SimulatedCloud>> = profiles
            .into_iter()
            .enumerate()
            .map(|(i, p)| Arc::new(SimulatedCloud::new(p, seed.wrapping_add(i as u64))))
            .collect();
        let stores: Vec<Arc<dyn ObjectStore>> = clouds.iter().cloned().map(interpose).collect();

        let plane_seed = seed ^ self.plane_salt;
        let replicated = |config| {
            let plane = ReplicatedCoordinator::new(config, plane_seed)
                .expect("the named configurations are consistent");
            PlaneHandle::Replicated(Arc::new(plane))
        };
        let plane = match (self.plane, self.backend) {
            (Plane::Sharded(topology), _) => PlaneHandle::Sharded(Arc::new(
                ShardedCoordinator::new(topology, plane_seed)
                    .expect("the topology's group configuration is consistent"),
            )),
            (Plane::Instantaneous, _) => {
                replicated(ReplicationConfig::test_instant(ReplicationMode::SingleNode))
            }
            (Plane::Paper, Backend::Aws) => replicated(ReplicationConfig::aws_single_ec2()),
            (Plane::Paper, Backend::CloudOfClouds) => {
                replicated(ReplicationConfig::coc_byzantine())
            }
        };

        Deployment {
            storage: new_backend(self.backend, &stores, placement.as_ref(), seed),
            backend: self.backend,
            clouds,
            stores,
            placement,
            seed,
            plane,
        }
    }
}

/// Builds a backend instance over `stores`: the one place a storage backend
/// or a DepSky client is constructed.
fn new_backend(
    backend: Backend,
    stores: &[Arc<dyn ObjectStore>],
    placement: Option<&PlacementSpec>,
    seed: u64,
) -> Storage {
    match backend {
        Backend::Aws => {
            assert!(placement.is_none(), "placement needs the DepSky backend");
            let [cloud] = stores else {
                panic!("the single-cloud backend runs on exactly one provider");
            };
            Storage::Single(Arc::new(SingleCloudStorage::new(cloud.clone())))
        }
        Backend::CloudOfClouds => {
            let (stores, config) = (stores.to_vec(), DepSkyConfig::scfs_default());
            let depsky = match placement {
                Some(spec) => DepSkyClient::with_placement(stores, config, spec.clone(), seed),
                None => DepSkyClient::new(stores, config, seed),
            };
            Storage::Coc(Arc::new(CloudOfCloudsStorage::new(
                depsky.expect("providers (and placement) match the f = 1 configuration"),
            )))
        }
    }
}

/// The backend, concretely enough for the chunk-store audit hooks.
#[derive(Clone)]
enum Storage {
    Single(Arc<SingleCloudStorage>),
    Coc(Arc<CloudOfCloudsStorage>),
}

/// The coordination plane, concretely enough for its replica-fault hook.
#[derive(Clone)]
enum PlaneHandle {
    Replicated(Arc<ReplicatedCoordinator>),
    Sharded(Arc<ShardedCoordinator>),
}

/// One deployment: the simulated clouds, the storage backend over them and
/// the coordination plane, shared by every agent mounted on it.
#[derive(Clone)]
pub struct Deployment {
    /// The simulated clouds, in provider order: fault plans, metrics,
    /// ledgers and raw key listings.
    pub clouds: Vec<Arc<SimulatedCloud>>,
    backend: Backend,
    stores: Vec<Arc<dyn ObjectStore>>,
    placement: Option<PlacementSpec>,
    seed: u64,
    storage: Storage,
    plane: PlaneHandle,
}

impl Deployment {
    /// Starts the inputs of a deployment of `backend`: the paper's WAN
    /// providers and the backend's paper coordination plane, until replaced.
    pub fn on(backend: Backend) -> DeploymentSpec {
        DeploymentSpec {
            backend,
            providers: Providers::Paper,
            plane: Plane::Paper,
            placement: None,
            plane_salt: 0,
        }
    }

    /// The deployment the paper evaluates `backend` on.
    pub fn paper(backend: Backend, seed: u64) -> Deployment {
        Deployment::on(backend).build(seed)
    }

    /// Instantaneous clouds and an instantaneous coordination node: the
    /// functional-test deployment.
    pub fn instant(backend: Backend, seed: u64) -> Deployment {
        Deployment::on(backend)
            .providers(Providers::Instantaneous)
            .plane(Plane::Instantaneous)
            .build(seed)
    }

    /// A second process of the same deployment: a fresh backend instance
    /// (empty version registry, chunk store and release journal) over the
    /// same clouds, behind the same interposer, on the same coordination
    /// plane.
    pub fn second_instance(&self) -> Deployment {
        let (stores, placement) = (&self.stores, self.placement.as_ref());
        Deployment {
            storage: new_backend(self.backend, stores, placement, self.seed),
            ..self.clone()
        }
    }

    /// The storage backend every mount shares.
    pub fn storage(&self) -> Arc<dyn FileStorage> {
        match &self.storage {
            Storage::Single(storage) => storage.clone(),
            Storage::Coc(storage) => storage.clone(),
        }
    }

    /// The coordination plane every coordinated mount shares.
    pub fn coordinator(&self) -> Arc<dyn CoordinationService> {
        match &self.plane {
            PlaneHandle::Replicated(plane) => plane.clone(),
            PlaneHandle::Sharded(plane) => plane.clone(),
        }
    }

    /// Mounts an agent for `user`, in the mode `config` names.
    pub fn mount(&self, user: &str, config: ScfsConfig, seed: u64) -> ScfsAgent {
        ScfsAgent::mount(
            user.into(),
            config,
            self.storage(),
            Some(self.coordinator()),
            seed,
        )
        .expect("a deployment always has a coordination plane")
    }

    /// Installs a fault plan on one replica of the replicated coordination
    /// plane.
    ///
    /// # Panics
    ///
    /// Panics on a sharded plane: no caller faults one through a deployment.
    pub fn set_replica_fault(&self, replica: usize, plan: FaultPlan, seed: u64) {
        let PlaneHandle::Replicated(plane) = &self.plane else {
            panic!("replica faults are wired for the replicated plane only");
        };
        plane.set_replica_fault(replica, plan, seed);
    }

    /// Current global reference count of a chunk in the backend's chunk
    /// store.
    pub fn chunk_refcount(&self, hash: &ContentHash) -> u64 {
        match &self.storage {
            Storage::Single(storage) => storage.chunk_refcount(hash),
            Storage::Coc(storage) => storage.chunk_refcount(hash),
        }
    }

    /// The orphan-leak check: every key any cloud stores under the SCFS
    /// namespace that is reachable from no live manifest, live chunk
    /// reference or pending release-journal entry of this backend instance.
    pub fn orphans(&self) -> Vec<String> {
        let (audit, style) = match &self.storage {
            Storage::Single(storage) => (storage.blob_audit(), KeyStyle::Aws),
            Storage::Coc(storage) => (storage.blob_audit(), KeyStyle::DepSky),
        };
        let keys = self.clouds.iter().flat_map(|cloud| cloud.stored_keys(""));
        audit.orphans(style, keys)
    }
}

/// The nine systems of the evaluation (six SCFS variants + three baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// SCFS on a backend, mounted in a mode: the six cells of Table 3.
    Scfs(Backend, Mode),
    /// The S3FS baseline.
    S3fs,
    /// The S3QL baseline.
    S3ql,
    /// The FUSE-J local file system baseline.
    LocalFs,
}

impl SystemKind {
    /// All systems, in the column order of Table 3.
    pub fn all() -> Vec<SystemKind> {
        let mut all = Vec::new();
        for backend in [Backend::Aws, Backend::CloudOfClouds] {
            for mode in [Mode::NonSharing, Mode::NonBlocking, Mode::Blocking] {
                all.push(SystemKind::Scfs(backend, mode));
            }
        }
        all.extend([SystemKind::S3fs, SystemKind::S3ql, SystemKind::LocalFs]);
        all
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Scfs(Backend::Aws, Mode::NonSharing) => "SCFS-AWS-NS",
            SystemKind::Scfs(Backend::Aws, Mode::NonBlocking) => "SCFS-AWS-NB",
            SystemKind::Scfs(Backend::Aws, Mode::Blocking) => "SCFS-AWS-B",
            SystemKind::Scfs(Backend::CloudOfClouds, Mode::NonSharing) => "SCFS-CoC-NS",
            SystemKind::Scfs(Backend::CloudOfClouds, Mode::NonBlocking) => "SCFS-CoC-NB",
            SystemKind::Scfs(Backend::CloudOfClouds, Mode::Blocking) => "SCFS-CoC-B",
            SystemKind::S3fs => "S3FS",
            SystemKind::S3ql => "S3QL",
            SystemKind::LocalFs => "LocalFS",
        }
    }
}

/// Builds one SCFS variant on a fresh paper deployment of `backend`, mounted
/// for `alice` in the mode `config` names.
pub fn build_scfs(backend: Backend, config: ScfsConfig, seed: u64) -> ScfsAgent {
    let spec = DeploymentSpec {
        plane_salt: 0x9999,
        ..Deployment::on(backend)
    };
    spec.build(seed).mount("alice", config, seed)
}

/// Builds any of the nine evaluated systems on a fresh environment, with
/// the single-cloud systems on Amazon S3 as in the paper.
pub fn build_system(kind: SystemKind, seed: u64) -> Box<dyn FileSystem> {
    let s3 = || Arc::new(SimulatedCloud::new(ProviderProfile::amazon_s3(), seed));
    match kind {
        SystemKind::Scfs(backend, mode) => {
            Box::new(build_scfs(backend, ScfsConfig::paper_default(mode), seed))
        }
        SystemKind::S3fs => Box::new(S3fsLike::new("alice".into(), s3(), seed)),
        SystemKind::S3ql => Box::new(S3qlLike::new("alice".into(), s3(), seed)),
        SystemKind::LocalFs => Box::new(LocalFs::new("alice".into(), seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_build_and_serve_a_simple_workload() {
        for kind in SystemKind::all() {
            let mut fs = build_system(kind, 42);
            fs.write_file("/smoke/test.bin", &vec![1u8; 4096])
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(
                fs.read_file("/smoke/test.bin").unwrap().len(),
                4096,
                "{}",
                kind.label()
            );
            assert!(!fs.name().is_empty());
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            SystemKind::all().into_iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), SystemKind::all().len());
    }

    #[test]
    fn matrix_env_round_trips_and_feeds_provider_health() {
        let deployment = Deployment::on(Backend::CloudOfClouds)
            .providers(Providers::Explicit(ProviderSet::heterogeneous_matrix()))
            .placement(PolicyKind::CheapestQuorum { slo_millis: 2_500 }, 3, 2)
            .build(11);
        let matrix = &deployment.placement.as_ref().expect("placed").matrix;
        let mut alice = deployment.mount("alice", ScfsConfig::test(Mode::Blocking), 1);
        let data = vec![9u8; 8192];
        alice.write_file("/m/doc.bin", &data).unwrap();
        assert_eq!(alice.read_file("/m/doc.bin").unwrap(), data);
        // Blocks landed on some subset of the matrix clouds...
        assert!(deployment.clouds.iter().any(|c| c.stored_bytes().get() > 0));
        // ...and every observed outcome fed the shared health state.
        let samples: u64 = (0..matrix.len()).map(|i| matrix.health(i).samples).sum();
        assert!(samples > 0, "writes must feed the provider health EWMAs");
        assert!(deployment.orphans().is_empty());
    }

    #[test]
    fn shared_environment_supports_two_clients() {
        use cloud_store::types::Permission;
        let deployment = Deployment::paper(Backend::Aws, 7);
        let mut alice = deployment.mount("alice", ScfsConfig::test(Mode::Blocking), 1);
        let mut bob = deployment.mount("bob", ScfsConfig::test(Mode::Blocking), 2);
        alice.write_file("/shared/plan.txt", b"v1").unwrap();
        alice
            .setfacl("/shared/plan.txt", &"bob".into(), Permission::Read)
            .unwrap();
        bob.sleep(sim_core::time::SimDuration::from_secs(30));
        assert_eq!(bob.read_file("/shared/plan.txt").unwrap(), b"v1");
    }
}
