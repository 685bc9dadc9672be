//! The cloud charging model and per-account cost ledgers.
//!
//! Figure 11 of the paper analyses three costs: (a) the fixed cost of the
//! VMs that host the coordination service, (b) the variable cost per file
//! read/write and (c) the storage cost per file version per day. All three
//! derive from the 2013/2014 public price books of the providers, which we
//! encode here. The asymmetry that drives the *always write / avoid reading*
//! principle is visible directly: inbound traffic (writes) is free, outbound
//! traffic (reads) costs ~$0.12/GB, and storage ~$0.09/GB-month.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use sim_core::units::{Bytes, MicroDollars};

use crate::types::AccountId;

/// Per-provider price book.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceBook {
    /// Cost per GB of outbound (download) traffic.
    pub outbound_per_gb: MicroDollars,
    /// Cost per GB of inbound (upload) traffic; zero for all 2014 providers.
    pub inbound_per_gb: MicroDollars,
    /// Cost per GB-month of stored data.
    pub storage_per_gb_month: MicroDollars,
    /// Cost per 10,000 GET/read operations.
    pub get_per_10k: MicroDollars,
    /// Cost per 10,000 PUT/LIST/write operations.
    pub put_per_10k: MicroDollars,
    /// Cost per 10,000 DELETE operations (free on all 2014 providers).
    pub delete_per_10k: MicroDollars,
}

impl PriceBook {
    /// Amazon S3 (US Standard), circa 2014.
    pub fn amazon_s3() -> Self {
        PriceBook {
            outbound_per_gb: MicroDollars::from_dollars(0.12),
            inbound_per_gb: MicroDollars::ZERO,
            storage_per_gb_month: MicroDollars::from_dollars(0.09),
            get_per_10k: MicroDollars::from_dollars(0.004),
            put_per_10k: MicroDollars::from_dollars(0.05),
            delete_per_10k: MicroDollars::ZERO,
        }
    }

    /// Google Cloud Storage, circa 2014 (prices "similar" to S3 per the paper).
    pub fn google_cloud_storage() -> Self {
        PriceBook {
            outbound_per_gb: MicroDollars::from_dollars(0.12),
            inbound_per_gb: MicroDollars::ZERO,
            storage_per_gb_month: MicroDollars::from_dollars(0.085),
            get_per_10k: MicroDollars::from_dollars(0.01),
            put_per_10k: MicroDollars::from_dollars(0.10),
            delete_per_10k: MicroDollars::ZERO,
        }
    }

    /// Windows Azure Blob storage, circa 2014.
    pub fn windows_azure() -> Self {
        PriceBook {
            outbound_per_gb: MicroDollars::from_dollars(0.12),
            inbound_per_gb: MicroDollars::ZERO,
            storage_per_gb_month: MicroDollars::from_dollars(0.07),
            get_per_10k: MicroDollars::from_dollars(0.005),
            put_per_10k: MicroDollars::from_dollars(0.005),
            delete_per_10k: MicroDollars::ZERO,
        }
    }

    /// Rackspace Cloud Files, circa 2014.
    pub fn rackspace() -> Self {
        PriceBook {
            outbound_per_gb: MicroDollars::from_dollars(0.12),
            inbound_per_gb: MicroDollars::ZERO,
            storage_per_gb_month: MicroDollars::from_dollars(0.10),
            get_per_10k: MicroDollars::ZERO,
            put_per_10k: MicroDollars::ZERO,
            delete_per_10k: MicroDollars::ZERO,
        }
    }

    /// Deep-archival tier: storage an order of magnitude below S3, retrieval
    /// traffic cheap, but the latency profile (see
    /// [`crate::providers::ProviderProfile::archival_deep`]) makes it usable
    /// only when a placement policy decides the latency budget allows it.
    pub fn archival_deep() -> Self {
        PriceBook {
            outbound_per_gb: MicroDollars::from_dollars(0.03),
            inbound_per_gb: MicroDollars::ZERO,
            storage_per_gb_month: MicroDollars::from_dollars(0.01),
            get_per_10k: MicroDollars::from_dollars(0.004),
            put_per_10k: MicroDollars::from_dollars(0.01),
            delete_per_10k: MicroDollars::ZERO,
        }
    }

    /// Premium edge/CDN-backed object store: the fastest profile in the
    /// matrix, priced at a steep multiple of every 2014 book.
    pub fn premium_edge() -> Self {
        PriceBook {
            outbound_per_gb: MicroDollars::from_dollars(0.25),
            inbound_per_gb: MicroDollars::ZERO,
            storage_per_gb_month: MicroDollars::from_dollars(0.20),
            get_per_10k: MicroDollars::from_dollars(0.05),
            put_per_10k: MicroDollars::from_dollars(0.20),
            delete_per_10k: MicroDollars::ZERO,
        }
    }

    /// Budget regional object store: priced below the majors, reflecting the
    /// looser availability story of its provider.
    pub fn flaky_regional() -> Self {
        PriceBook {
            outbound_per_gb: MicroDollars::from_dollars(0.10),
            inbound_per_gb: MicroDollars::ZERO,
            storage_per_gb_month: MicroDollars::from_dollars(0.06),
            get_per_10k: MicroDollars::from_dollars(0.002),
            put_per_10k: MicroDollars::from_dollars(0.002),
            delete_per_10k: MicroDollars::ZERO,
        }
    }

    /// Uniformly scales every price in the book by `factor` — the "one cloud
    /// hikes its prices 10x" degraded-matrix sweep.
    pub fn scaled(&self, factor: f64) -> Self {
        PriceBook {
            outbound_per_gb: self.outbound_per_gb * factor,
            inbound_per_gb: self.inbound_per_gb * factor,
            storage_per_gb_month: self.storage_per_gb_month * factor,
            get_per_10k: self.get_per_10k * factor,
            put_per_10k: self.put_per_10k * factor,
            delete_per_10k: self.delete_per_10k * factor,
        }
    }

    /// Cost of downloading `size` bytes.
    pub fn download_cost(&self, size: Bytes) -> MicroDollars {
        self.outbound_per_gb * size.as_gib_f64()
    }

    /// Cost of uploading `size` bytes (free on all 2014 providers).
    pub fn upload_cost(&self, size: Bytes) -> MicroDollars {
        self.inbound_per_gb * size.as_gib_f64()
    }

    /// Cost of storing `size` bytes for `days` days.
    pub fn storage_cost(&self, size: Bytes, days: f64) -> MicroDollars {
        self.storage_per_gb_month * (size.as_gib_f64() * days / 30.0)
    }

    /// Cost of a single GET operation.
    pub fn get_op_cost(&self) -> MicroDollars {
        self.get_per_10k * (1.0 / 10_000.0)
    }

    /// Cost of a single PUT or LIST operation.
    pub fn put_op_cost(&self) -> MicroDollars {
        self.put_per_10k * (1.0 / 10_000.0)
    }

    /// Cost of a single DELETE operation.
    pub fn delete_op_cost(&self) -> MicroDollars {
        self.delete_per_10k * (1.0 / 10_000.0)
    }
}

/// EC2-style VM instance sizes used to host the coordination service
/// (Figure 11(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmInstanceSize {
    /// EC2 M1 Large (2 vCPU, 7.5 GB RAM).
    Large,
    /// EC2 M1 Extra Large (4 vCPU, 15 GB RAM).
    ExtraLarge,
}

impl VmInstanceSize {
    /// Main-memory capacity of this instance size expressed as the number of
    /// 1 KB metadata tuples the coordination service can hold (Figure 11(a):
    /// 7M files for Large, 15M for Extra Large).
    pub fn metadata_capacity(&self) -> u64 {
        match self {
            VmInstanceSize::Large => 7_000_000,
            VmInstanceSize::ExtraLarge => 15_000_000,
        }
    }
}

/// Per-provider VM pricing (per instance per day), from the paper's
/// Figure 11(a) analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct VmPricing {
    /// Cost per day of one Large instance.
    pub large_per_day: MicroDollars,
    /// Cost per day of one Extra Large instance.
    pub extra_large_per_day: MicroDollars,
}

impl VmPricing {
    /// Amazon EC2: $6.24/day Large, $12.96/day Extra Large.
    pub fn ec2() -> Self {
        VmPricing {
            large_per_day: MicroDollars::from_dollars(6.24),
            extra_large_per_day: MicroDollars::from_dollars(12.96),
        }
    }

    /// Windows Azure compute: priced like EC2 in the paper's analysis.
    pub fn azure() -> Self {
        VmPricing {
            large_per_day: MicroDollars::from_dollars(6.24),
            extra_large_per_day: MicroDollars::from_dollars(12.96),
        }
    }

    /// Rackspace: charges almost 100% more than EC2 for similar instances.
    pub fn rackspace() -> Self {
        VmPricing {
            large_per_day: MicroDollars::from_dollars(12.48),
            extra_large_per_day: MicroDollars::from_dollars(25.44),
        }
    }

    /// Elastichosts: also roughly 2x EC2.
    pub fn elastichosts() -> Self {
        VmPricing {
            large_per_day: MicroDollars::from_dollars(14.64),
            extra_large_per_day: MicroDollars::from_dollars(25.68),
        }
    }

    /// Cost per day for one instance of the given size.
    pub fn per_day(&self, size: VmInstanceSize) -> MicroDollars {
        match size {
            VmInstanceSize::Large => self.large_per_day,
            VmInstanceSize::ExtraLarge => self.extra_large_per_day,
        }
    }
}

/// Categories of charges accumulated in a [`CostLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChargeKind {
    /// Outbound traffic (reads).
    Outbound,
    /// Inbound traffic (writes); zero under 2014 price books but tracked anyway.
    Inbound,
    /// Per-operation request charges.
    Request,
    /// Storage rental (charged explicitly via `charge_storage`).
    Storage,
}

/// Thread-safe accumulator of charges per account.
///
/// The simulated clouds charge request and traffic costs to the account that
/// issues each operation, reproducing the pay-per-ownership model: the owner
/// of a file pays for storing it, a reader pays for downloading it.
#[derive(Debug, Default)]
pub struct CostLedger {
    inner: Mutex<BTreeMap<(AccountId, ChargeKind), MicroDollars>>,
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Adds a charge for `account`.
    pub fn charge(&self, account: &AccountId, kind: ChargeKind, amount: MicroDollars) {
        if amount.get() == 0.0 {
            return;
        }
        let mut inner = self.inner.lock();
        let entry = inner
            .entry((account.clone(), kind))
            .or_insert(MicroDollars::ZERO);
        *entry += amount;
    }

    /// Total charged to `account` across all categories.
    pub fn total_for(&self, account: &AccountId) -> MicroDollars {
        self.inner
            .lock()
            .iter()
            .filter(|((a, _), _)| a == account)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Grand total across all accounts.
    pub fn grand_total(&self) -> MicroDollars {
        self.inner.lock().values().copied().sum()
    }

    /// Clears the ledger.
    pub fn reset(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s3_price_book_matches_paper_numbers() {
        let p = PriceBook::amazon_s3();
        // Reading a GB is more expensive ($0.12) than storing it for a month ($0.09).
        assert!(p.download_cost(Bytes::gib(1)).get() > p.storage_cost(Bytes::gib(1), 30.0).get());
        assert!((p.download_cost(Bytes::gib(1)).as_dollars() - 0.12).abs() < 1e-9);
        assert_eq!(p.upload_cost(Bytes::gib(100)), MicroDollars::ZERO);
    }

    #[test]
    fn storage_cost_scales_with_days() {
        let p = PriceBook::amazon_s3();
        let one_day = p.storage_cost(Bytes::gib(1), 1.0);
        let month = p.storage_cost(Bytes::gib(1), 30.0);
        assert!((month.get() / one_day.get() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn per_operation_costs_are_micro_dollars() {
        let p = PriceBook::amazon_s3();
        assert!((p.put_op_cost().get() - 5.0).abs() < 1e-9);
        assert!((p.get_op_cost().get() - 0.4).abs() < 1e-9);
        assert_eq!(p.delete_op_cost(), MicroDollars::ZERO);
    }

    #[test]
    fn matrix_books_order_as_designed() {
        let archive = PriceBook::archival_deep();
        let premium = PriceBook::premium_edge();
        let s3 = PriceBook::amazon_s3();
        let flaky = PriceBook::flaky_regional();
        let gib = Bytes::gib(1);
        // Archive is the cheapest on every axis, premium the most expensive.
        for book in [&s3, &flaky, &premium] {
            assert!(archive.storage_cost(gib, 30.0).get() < book.storage_cost(gib, 30.0).get());
            assert!(archive.download_cost(gib).get() < book.download_cost(gib).get());
        }
        for book in [&archive, &s3, &flaky] {
            assert!(premium.storage_cost(gib, 30.0).get() > book.storage_cost(gib, 30.0).get());
            assert!(premium.put_op_cost().get() > book.put_op_cost().get());
        }
        assert!(flaky.storage_cost(gib, 30.0).get() < s3.storage_cost(gib, 30.0).get());
    }

    #[test]
    fn scaled_book_multiplies_every_axis() {
        let base = PriceBook::amazon_s3();
        let hiked = base.scaled(10.0);
        let gib = Bytes::gib(1);
        assert!(
            (hiked.download_cost(gib).get() - base.download_cost(gib).get() * 10.0).abs() < 1e-6
        );
        assert!(
            (hiked.storage_cost(gib, 30.0).get() - base.storage_cost(gib, 30.0).get() * 10.0).abs()
                < 1e-6
        );
        assert!((hiked.put_op_cost().get() - base.put_op_cost().get() * 10.0).abs() < 1e-9);
        assert_eq!(hiked.delete_op_cost(), MicroDollars::ZERO);
    }

    #[test]
    fn vm_pricing_matches_figure_11a() {
        // EC2 single Large = $6.24/day; four = $24.96; CoC (EC2 + Azure +
        // Rackspace + Elastichosts) = $39.60.
        let coc_large = VmPricing::ec2().large_per_day
            + VmPricing::azure().large_per_day
            + VmPricing::rackspace().large_per_day
            + VmPricing::elastichosts().large_per_day;
        assert!((coc_large.as_dollars() - 39.60).abs() < 0.01);
        let ec2_4 = VmPricing::ec2().large_per_day * 4.0;
        assert!((ec2_4.as_dollars() - 24.96).abs() < 0.01);
        let coc_xl = VmPricing::ec2().extra_large_per_day
            + VmPricing::azure().extra_large_per_day
            + VmPricing::rackspace().extra_large_per_day
            + VmPricing::elastichosts().extra_large_per_day;
        assert!((coc_xl.as_dollars() - 77.04).abs() < 0.01);
    }

    #[test]
    fn vm_capacity_matches_figure_11a() {
        assert_eq!(VmInstanceSize::Large.metadata_capacity(), 7_000_000);
        assert_eq!(VmInstanceSize::ExtraLarge.metadata_capacity(), 15_000_000);
    }

    #[test]
    fn ledger_accumulates_per_account_and_kind() {
        let ledger = CostLedger::new();
        let alice: AccountId = "alice".into();
        let bob: AccountId = "bob".into();
        ledger.charge(&alice, ChargeKind::Outbound, MicroDollars::new(10.0));
        ledger.charge(&alice, ChargeKind::Outbound, MicroDollars::new(5.0));
        ledger.charge(&alice, ChargeKind::Request, MicroDollars::new(1.0));
        ledger.charge(&bob, ChargeKind::Storage, MicroDollars::new(2.0));
        assert!((ledger.total_for(&alice).get() - 16.0).abs() < 1e-9);
        assert!((ledger.total_for(&bob).get() - 2.0).abs() < 1e-9);
        assert!((ledger.grand_total().get() - 18.0).abs() < 1e-9);
        ledger.reset();
        assert_eq!(ledger.grand_total(), MicroDollars::ZERO);
    }

    #[test]
    fn zero_charges_are_ignored() {
        let ledger = CostLedger::new();
        ledger.charge(&"a".into(), ChargeKind::Inbound, MicroDollars::ZERO);
        assert_eq!(ledger.grand_total(), MicroDollars::ZERO);
    }
}
