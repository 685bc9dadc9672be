//! Provider profiles: latency, consistency and pricing of each simulated cloud.
//!
//! The paper's evaluation (§4.1) uses Amazon S3 (US), Google Cloud Storage
//! (US), Rackspace Cloud Files (UK) and Windows Azure Blob (UK), accessed
//! from a cluster in Portugal. The latency profiles below are calibrated so
//! that the reproduced tables have the same shape as the paper's: a small
//! object PUT/GET costs roughly half a second to a second (dominated by the
//! SSL/REST round trip over the WAN), large transfers are bandwidth-bound at
//! a few MiB/s, and object visibility after a PUT is only eventual.

use sim_core::latency::{BandwidthModel, LatencyModel, LatencyProfile};
use sim_core::rng::DetRng;
use sim_core::time::SimDuration;

use crate::pricing::{PriceBook, VmPricing};

/// Consistency guarantees offered by a provider for newly written objects.
#[derive(Debug, Clone, PartialEq)]
pub enum ConsistencyMode {
    /// Writes are immediately visible to all readers (used in unit tests and
    /// to model a hypothetical strongly-consistent provider).
    Strong,
    /// Writes of *new* keys are immediately visible, overwrites are eventual.
    /// This matches Amazon S3's 2014 "read-after-write for new objects"
    /// guarantee. SCFS always writes new keys (`id|hash`), so under this mode
    /// the consistency-anchor retry loop rarely spins — exactly as observed
    /// by the authors.
    ReadAfterCreate {
        /// Visibility delay distribution for overwritten keys.
        overwrite_visibility: LatencyModel,
    },
    /// Every write (new key or overwrite) becomes visible only after a delay.
    Eventual {
        /// Visibility delay distribution.
        visibility: LatencyModel,
    },
}

impl ConsistencyMode {
    /// Samples the visibility delay of a write under this mode.
    pub fn sample_visibility(&self, rng: &mut DetRng, is_new_key: bool) -> SimDuration {
        match self {
            ConsistencyMode::Strong => SimDuration::ZERO,
            ConsistencyMode::ReadAfterCreate {
                overwrite_visibility,
            } => {
                if is_new_key {
                    SimDuration::ZERO
                } else {
                    overwrite_visibility.sample(rng)
                }
            }
            ConsistencyMode::Eventual { visibility } => visibility.sample(rng),
        }
    }
}

/// Static description of one storage provider.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderProfile {
    /// Short identifier (e.g. `"s3"`).
    pub id: String,
    /// Human-readable name (e.g. `"Amazon S3 (US)"`).
    pub name: String,
    /// Region string, informational only.
    pub region: String,
    /// Latency and bandwidth of object operations as seen from the client.
    pub latency: LatencyProfile,
    /// Consistency model of the object store.
    pub consistency: ConsistencyMode,
    /// Storage price book.
    pub prices: PriceBook,
    /// Compute (VM) price book for this provider's cloud, used when hosting
    /// coordination-service replicas (Figure 11(a)).
    pub vm_prices: VmPricing,
}

impl ProviderProfile {
    /// Amazon S3, US Standard region, seen from a client in Portugal.
    pub fn amazon_s3() -> Self {
        ProviderProfile {
            id: "s3".into(),
            name: "Amazon S3 (US)".into(),
            region: "us-east".into(),
            latency: LatencyProfile {
                request: LatencyModel::LogNormal {
                    median_millis: 520.0,
                    sigma: 0.25,
                },
                upload: BandwidthModel::mib_per_sec(5.0),
                download: BandwidthModel::mib_per_sec(8.0),
            },
            consistency: ConsistencyMode::ReadAfterCreate {
                overwrite_visibility: LatencyModel::LogNormal {
                    median_millis: 900.0,
                    sigma: 0.5,
                },
            },
            prices: PriceBook::amazon_s3(),
            vm_prices: VmPricing::ec2(),
        }
    }

    /// Google Cloud Storage, US, seen from a client in Portugal.
    pub fn google_cloud_storage() -> Self {
        ProviderProfile {
            id: "gcs".into(),
            name: "Google Cloud Storage (US)".into(),
            region: "us".into(),
            latency: LatencyProfile {
                request: LatencyModel::LogNormal {
                    median_millis: 600.0,
                    sigma: 0.3,
                },
                upload: BandwidthModel::mib_per_sec(4.5),
                download: BandwidthModel::mib_per_sec(7.0),
            },
            consistency: ConsistencyMode::Eventual {
                visibility: LatencyModel::LogNormal {
                    median_millis: 600.0,
                    sigma: 0.5,
                },
            },
            prices: PriceBook::google_cloud_storage(),
            vm_prices: VmPricing::ec2(),
        }
    }

    /// Windows Azure Blob storage, Western Europe (UK), close to the client.
    pub fn windows_azure() -> Self {
        ProviderProfile {
            id: "azure".into(),
            name: "Windows Azure (UK)".into(),
            region: "eu-west".into(),
            latency: LatencyProfile {
                request: LatencyModel::LogNormal {
                    median_millis: 380.0,
                    sigma: 0.25,
                },
                upload: BandwidthModel::mib_per_sec(6.0),
                download: BandwidthModel::mib_per_sec(9.0),
            },
            consistency: ConsistencyMode::Strong,
            prices: PriceBook::windows_azure(),
            vm_prices: VmPricing::azure(),
        }
    }

    /// Rackspace Cloud Files, UK.
    pub fn rackspace() -> Self {
        ProviderProfile {
            id: "rackspace".into(),
            name: "Rackspace Cloud Files (UK)".into(),
            region: "uk".into(),
            latency: LatencyProfile {
                request: LatencyModel::LogNormal {
                    median_millis: 450.0,
                    sigma: 0.3,
                },
                upload: BandwidthModel::mib_per_sec(4.0),
                download: BandwidthModel::mib_per_sec(6.0),
            },
            consistency: ConsistencyMode::Eventual {
                visibility: LatencyModel::LogNormal {
                    median_millis: 700.0,
                    sigma: 0.5,
                },
            },
            prices: PriceBook::rackspace(),
            vm_prices: VmPricing::rackspace(),
        }
    }

    /// A profile with no latency and strong consistency, for functional tests.
    pub fn instantaneous(id: &str) -> Self {
        ProviderProfile {
            id: id.into(),
            name: format!("instantaneous-{id}"),
            region: "local".into(),
            latency: LatencyProfile::instantaneous(),
            consistency: ConsistencyMode::Strong,
            prices: PriceBook::amazon_s3(),
            vm_prices: VmPricing::ec2(),
        }
    }

    /// A cheap-but-slow archival tier: storage and traffic cost a fraction of
    /// S3's prices, but every request pays a multi-second retrieval latency
    /// and the pipes are narrow. Modeled on 2014-era cold-storage offerings
    /// (Glacier-class), which SCFS could only use for rarely-read blocks.
    pub fn archival_deep() -> Self {
        ProviderProfile {
            id: "archive".into(),
            name: "Deep Archive (US)".into(),
            region: "us-central".into(),
            latency: LatencyProfile {
                request: LatencyModel::LogNormal {
                    median_millis: 2600.0,
                    sigma: 0.35,
                },
                upload: BandwidthModel::mib_per_sec(2.0),
                download: BandwidthModel::mib_per_sec(2.5),
            },
            consistency: ConsistencyMode::Eventual {
                visibility: LatencyModel::LogNormal {
                    median_millis: 1500.0,
                    sigma: 0.5,
                },
            },
            prices: PriceBook::archival_deep(),
            vm_prices: VmPricing::ec2(),
        }
    }

    /// An expensive-but-fast premium tier: a CDN-fronted object store in the
    /// client's own region with sub-200ms requests and wide pipes, charging
    /// several times S3's rates for the privilege.
    pub fn premium_edge() -> Self {
        ProviderProfile {
            id: "premium".into(),
            name: "Premium Edge (EU)".into(),
            region: "eu-south".into(),
            latency: LatencyProfile {
                request: LatencyModel::LogNormal {
                    median_millis: 140.0,
                    sigma: 0.2,
                },
                upload: BandwidthModel::mib_per_sec(20.0),
                download: BandwidthModel::mib_per_sec(30.0),
            },
            consistency: ConsistencyMode::Strong,
            prices: PriceBook::premium_edge(),
            vm_prices: VmPricing::ec2(),
        }
    }

    /// A flaky regional provider: mid-range prices and decent median latency,
    /// but a heavier-tailed request distribution than any of the majors.
    /// Request *drops* are injected by the harnesses via `FaultPlan`, not
    /// baked into the profile, so functional tests stay reliable by default.
    pub fn flaky_regional() -> Self {
        ProviderProfile {
            id: "flaky".into(),
            name: "Regional Object Store (BR)".into(),
            region: "sa-east".into(),
            latency: LatencyProfile {
                request: LatencyModel::LogNormal {
                    median_millis: 700.0,
                    sigma: 0.55,
                },
                upload: BandwidthModel::mib_per_sec(3.0),
                download: BandwidthModel::mib_per_sec(4.0),
            },
            consistency: ConsistencyMode::Eventual {
                visibility: LatencyModel::LogNormal {
                    median_millis: 1200.0,
                    sigma: 0.6,
                },
            },
            prices: PriceBook::flaky_regional(),
            vm_prices: VmPricing::rackspace(),
        }
    }

    /// Returns a copy of this profile with every latency (request and
    /// transfer) slowed down by `factor` — the "one cloud 10x slower"
    /// degraded-matrix sweep. The id/name/prices are unchanged so ledgers and
    /// policies still recognize the provider.
    pub fn with_latency_scaled(&self, factor: f64) -> Self {
        ProviderProfile {
            latency: self.latency.scaled(factor),
            ..self.clone()
        }
    }

    /// Returns a copy of this profile with every storage price multiplied by
    /// `factor` — the "one cloud hikes its prices 10x" sweep. VM prices are
    /// left alone; placement only reasons about storage costs.
    pub fn with_prices_scaled(&self, factor: f64) -> Self {
        ProviderProfile {
            prices: self.prices.scaled(factor),
            ..self.clone()
        }
    }
}

/// Named sets of providers matching the paper's two backends (Figure 5).
#[derive(Debug, Clone)]
pub struct ProviderSet;

impl ProviderSet {
    /// The single-cloud AWS backend: Amazon S3 for data.
    pub fn aws_backend() -> Vec<ProviderProfile> {
        vec![ProviderProfile::amazon_s3()]
    }

    /// The cloud-of-clouds storage backend: S3, GCS, Rackspace and Azure.
    pub fn coc_storage_backend() -> Vec<ProviderProfile> {
        vec![
            ProviderProfile::amazon_s3(),
            ProviderProfile::google_cloud_storage(),
            ProviderProfile::rackspace(),
            ProviderProfile::windows_azure(),
        ]
    }

    /// Four identical instantaneous providers for functional tests of the
    /// cloud-of-clouds protocols.
    pub fn test_backend(n: usize) -> Vec<ProviderProfile> {
        (0..n)
            .map(|i| ProviderProfile::instantaneous(&format!("cloud{i}")))
            .collect()
    }

    /// The heterogeneous provider matrix: the four 2014 paper clouds plus a
    /// premium edge tier, a flaky regional store and a deep-archival tier.
    ///
    /// The order is load-bearing for placement experiments: the first
    /// `total_clouds` entries (premium, S3, flaky) are the *identity* holder
    /// set a placement-oblivious `AllClouds` deployment uses for data blocks,
    /// which deliberately includes the most expensive and the least reliable
    /// providers — exactly the situation a placement policy exists to
    /// improve on.
    pub fn heterogeneous_matrix() -> Vec<ProviderProfile> {
        vec![
            ProviderProfile::premium_edge(),
            ProviderProfile::amazon_s3(),
            ProviderProfile::flaky_regional(),
            ProviderProfile::windows_azure(),
            ProviderProfile::google_cloud_storage(),
            ProviderProfile::rackspace(),
            ProviderProfile::archival_deep(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coc_backend_has_four_distinct_providers() {
        let set = ProviderSet::coc_storage_backend();
        assert_eq!(set.len(), 4);
        let ids: std::collections::BTreeSet<_> = set.iter().map(|p| p.id.clone()).collect();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn aws_backend_is_s3_only() {
        let set = ProviderSet::aws_backend();
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].id, "s3");
    }

    #[test]
    fn strong_consistency_has_zero_visibility_delay() {
        let mut rng = DetRng::new(1);
        assert_eq!(
            ConsistencyMode::Strong.sample_visibility(&mut rng, false),
            SimDuration::ZERO
        );
    }

    #[test]
    fn read_after_create_distinguishes_new_keys() {
        let mut rng = DetRng::new(2);
        let mode = ConsistencyMode::ReadAfterCreate {
            overwrite_visibility: LatencyModel::constant_ms(1000.0),
        };
        assert_eq!(mode.sample_visibility(&mut rng, true), SimDuration::ZERO);
        assert_eq!(
            mode.sample_visibility(&mut rng, false),
            SimDuration::from_millis(1000)
        );
    }

    #[test]
    fn eventual_consistency_always_delays() {
        let mut rng = DetRng::new(3);
        let mode = ConsistencyMode::Eventual {
            visibility: LatencyModel::constant_ms(500.0),
        };
        assert_eq!(
            mode.sample_visibility(&mut rng, true),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn wan_providers_are_much_slower_than_instantaneous() {
        use sim_core::units::Bytes;
        let s3 = ProviderProfile::amazon_s3();
        let mean = s3.latency.mean_op(Bytes::kib(16), Bytes::ZERO);
        assert!(
            mean.as_millis_f64() > 300.0,
            "S3 small put should take hundreds of ms"
        );
        let inst = ProviderProfile::instantaneous("t");
        assert_eq!(
            inst.latency.mean_op(Bytes::mib(10), Bytes::ZERO),
            SimDuration::ZERO
        );
    }

    #[test]
    fn test_backend_sizes() {
        assert_eq!(ProviderSet::test_backend(4).len(), 4);
    }

    #[test]
    fn heterogeneous_matrix_is_seven_distinct_providers() {
        use sim_core::units::Bytes;
        let matrix = ProviderSet::heterogeneous_matrix();
        assert_eq!(matrix.len(), 7);
        let ids: std::collections::BTreeSet<_> = matrix.iter().map(|p| p.id.clone()).collect();
        assert_eq!(ids.len(), 7, "ids must be unique");
        // The diversity the placement policies exploit: premium is the
        // fastest, archive the slowest; archive is the cheapest to store on,
        // premium the most expensive.
        let mean = |p: &ProviderProfile| {
            p.latency
                .mean_op(Bytes::kib(16), Bytes::ZERO)
                .as_millis_f64()
        };
        let premium = matrix.iter().find(|p| p.id == "premium").unwrap();
        let archive = matrix.iter().find(|p| p.id == "archive").unwrap();
        for p in &matrix {
            if p.id != "premium" {
                assert!(mean(premium) < mean(p), "premium should beat {}", p.id);
            }
            if p.id != "archive" {
                assert!(mean(archive) > mean(p), "archive should trail {}", p.id);
            }
        }
        let store = |p: &ProviderProfile| p.prices.storage_cost(Bytes::gib(1), 30.0).get();
        for p in &matrix {
            if p.id != "premium" {
                assert!(store(premium) > store(p));
            }
            if p.id != "archive" {
                assert!(store(archive) < store(p));
            }
        }
    }

    #[test]
    fn latency_scaling_slows_only_latency() {
        use sim_core::units::Bytes;
        let base = ProviderProfile::amazon_s3();
        let slow = base.with_latency_scaled(10.0);
        let b = base
            .latency
            .mean_op(Bytes::mib(1), Bytes::ZERO)
            .as_secs_f64();
        let s = slow
            .latency
            .mean_op(Bytes::mib(1), Bytes::ZERO)
            .as_secs_f64();
        assert!((s / b - 10.0).abs() < 1e-6);
        assert_eq!(slow.prices, base.prices);
        assert_eq!(slow.id, base.id);
    }

    #[test]
    fn price_scaling_hikes_only_prices() {
        use sim_core::units::Bytes;
        let base = ProviderProfile::rackspace();
        let hiked = base.with_prices_scaled(10.0);
        assert_eq!(hiked.latency, base.latency);
        let b = base.prices.storage_cost(Bytes::gib(1), 30.0).get();
        let h = hiked.prices.storage_cost(Bytes::gib(1), 30.0).get();
        assert!((h / b - 10.0).abs() < 1e-6);
    }
}
