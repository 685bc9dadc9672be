//! Coordination-service deployment costs and capacity (Figure 11(a)).
//!
//! The fixed operation cost of SCFS is dominated by the VMs that host the
//! coordination service. The paper compares renting one EC2 instance (the
//! AWS backend), four EC2 instances (a fault-tolerant single-cloud setup)
//! and one instance in each of four different clouds (the CoC backend),
//! for two instance sizes, and also reports the expected metadata capacity
//! of each setup. This module reproduces that analysis.

use cloud_store::pricing::{VmInstanceSize, VmPricing};
use sim_core::units::MicroDollars;

/// One replica site: a provider name and its VM price book.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSite {
    /// Human-readable provider name.
    pub provider: String,
    /// VM pricing of that provider.
    pub pricing: VmPricing,
}

/// A coordination-service deployment: a set of sites and an instance size —
/// one replicated group, as in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordDeployment {
    /// Descriptive name (e.g. `"EC2"`, `"EC2×4"`, `"CoC"`).
    pub name: String,
    /// The replica sites.
    pub sites: Vec<DeploymentSite>,
    /// The VM size used at every site.
    pub instance_size: VmInstanceSize,
}

impl CoordDeployment {
    /// A single EC2 instance (the paper's AWS backend).
    pub fn ec2_single(instance_size: VmInstanceSize) -> Self {
        CoordDeployment {
            name: "EC2".into(),
            sites: vec![DeploymentSite {
                provider: "Amazon EC2".into(),
                pricing: VmPricing::ec2(),
            }],
            instance_size,
        }
    }

    /// Four EC2 instances (fault-tolerant, single provider).
    pub fn ec2_four(instance_size: VmInstanceSize) -> Self {
        CoordDeployment {
            name: "EC2x4".into(),
            sites: (0..4)
                .map(|_| DeploymentSite {
                    provider: "Amazon EC2".into(),
                    pricing: VmPricing::ec2(),
                })
                .collect(),
            instance_size,
        }
    }

    /// One instance in each of the four compute clouds used by the CoC
    /// backend: EC2, Azure, Rackspace and Elastichosts.
    pub fn cloud_of_clouds(instance_size: VmInstanceSize) -> Self {
        CoordDeployment {
            name: "CoC".into(),
            sites: vec![
                DeploymentSite {
                    provider: "Amazon EC2".into(),
                    pricing: VmPricing::ec2(),
                },
                DeploymentSite {
                    provider: "Windows Azure".into(),
                    pricing: VmPricing::azure(),
                },
                DeploymentSite {
                    provider: "Rackspace".into(),
                    pricing: VmPricing::rackspace(),
                },
                DeploymentSite {
                    provider: "Elastichosts".into(),
                    pricing: VmPricing::elastichosts(),
                },
            ],
            instance_size,
        }
    }

    /// Number of replicas in the deployment.
    pub fn replica_count(&self) -> usize {
        self.sites.len()
    }

    /// Total VM rental cost per day.
    pub fn cost_per_day(&self) -> MicroDollars {
        self.sites
            .iter()
            .map(|s| s.pricing.per_day(self.instance_size))
            .sum::<MicroDollars>()
    }

    /// Total VM rental cost per 30-day month.
    pub fn cost_per_month(&self) -> MicroDollars {
        self.cost_per_day() * 30.0
    }

    /// Expected metadata capacity: the number of ~1 KB metadata tuples the
    /// service can hold in memory. Every replica stores a full copy, so the
    /// capacity is bounded by a single instance.
    pub fn capacity_files(&self) -> u64 {
        self.instance_size.metadata_capacity()
    }

    /// How many users can share this deployment if each contributes
    /// `budget_per_month` (the paper notes that for one dollar per month,
    /// ~2300 users can fund a CoC setup with Extra Large replicas).
    pub fn users_for_budget(&self, budget_per_month: MicroDollars) -> u64 {
        if budget_per_month.get() <= 0.0 {
            return 0;
        }
        (self.cost_per_month().get() / budget_per_month.get()).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_11a_large_instances() {
        let ec2 = CoordDeployment::ec2_single(VmInstanceSize::Large);
        let ec2_4 = CoordDeployment::ec2_four(VmInstanceSize::Large);
        let coc = CoordDeployment::cloud_of_clouds(VmInstanceSize::Large);
        assert!((ec2.cost_per_day().as_dollars() - 6.24).abs() < 0.01);
        assert!((ec2_4.cost_per_day().as_dollars() - 24.96).abs() < 0.01);
        assert!((coc.cost_per_day().as_dollars() - 39.60).abs() < 0.01);
        assert_eq!(coc.capacity_files(), 7_000_000);
        assert_eq!(coc.replica_count(), 4);
    }

    #[test]
    fn figure_11a_extra_large_instances() {
        let ec2 = CoordDeployment::ec2_single(VmInstanceSize::ExtraLarge);
        let ec2_4 = CoordDeployment::ec2_four(VmInstanceSize::ExtraLarge);
        let coc = CoordDeployment::cloud_of_clouds(VmInstanceSize::ExtraLarge);
        assert!((ec2.cost_per_day().as_dollars() - 12.96).abs() < 0.01);
        assert!((ec2_4.cost_per_day().as_dollars() - 51.84).abs() < 0.01);
        assert!((coc.cost_per_day().as_dollars() - 77.04).abs() < 0.01);
        assert_eq!(coc.capacity_files(), 15_000_000);
    }

    #[test]
    fn coc_premium_over_four_ec2_instances() {
        // The paper: the $451/month difference is the cost of tolerating
        // provider failures (CoC month ≈ $1188 vs EC2×4 ≈ $749).
        let coc = CoordDeployment::cloud_of_clouds(VmInstanceSize::Large);
        let ec2_4 = CoordDeployment::ec2_four(VmInstanceSize::Large);
        let diff = coc.cost_per_month() - ec2_4.cost_per_month();
        assert!(
            (diff.as_dollars() - 439.2).abs() < 15.0,
            "difference was {}",
            diff.as_dollars()
        );
        assert!(coc.cost_per_month().as_dollars() < 1250.0);
        assert!(ec2_4.cost_per_month().as_dollars() < 800.0);
    }

    #[test]
    fn cost_sharing_among_users() {
        let coc = CoordDeployment::cloud_of_clouds(VmInstanceSize::ExtraLarge);
        let users = coc.users_for_budget(MicroDollars::from_dollars(1.0));
        assert!(
            (2200..=2400).contains(&users),
            "users to fund CoC XL at $1/month each: {users}"
        );
        assert_eq!(coc.users_for_budget(MicroDollars::ZERO), 0);
    }
}
