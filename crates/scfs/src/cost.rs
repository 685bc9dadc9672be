//! The SCFS usage-cost model (paper §4.5, Figure 11(b) and 11(c)).
//!
//! Besides the fixed cost of the coordination-service VMs (see
//! [`coord::deployment`]), each SCFS user pays for its own usage:
//!
//! * **Reading a file** (open for read + read + close) downloads the file
//!   from the cloud(s) — outbound traffic is the dominant charge, plus the
//!   per-GET request charges and one `getMetadata` access to the
//!   coordination service. Reading a *cached* file costs only the
//!   `getMetadata` validation (≈ 11 µ$).
//! * **Writing a file** uploads it (inbound traffic is free), so its cost is
//!   the handful of coordination-service accesses (metadata + lock), flat in
//!   the file size.
//! * **Storing a version** costs its size times the per-GB-month price; the
//!   CoC backend stores ≈ 1.5× the file size (erasure coding with preferred
//!   quorums) versus 1× for a single cloud.

use cloud_store::pricing::PriceBook;
use sim_core::units::{Bytes, MicroDollars};

/// Which backend the cost is computed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostBackend {
    /// Single-cloud backend (Amazon S3).
    Aws,
    /// Cloud-of-clouds backend (DepSky over four providers, f = 1,
    /// preferred quorums).
    CloudOfClouds,
}

/// The cost model of one SCFS deployment.
#[derive(Debug, Clone)]
pub struct CostModel {
    backend: CostBackend,
    s3: PriceBook,
    gcs: PriceBook,
    rackspace: PriceBook,
    azure: PriceBook,
    /// Cost of one coordination-service access, including the outbound
    /// traffic generated by the replication protocol for ~1 KB tuples. The
    /// paper reports 11.32 µ$ for a `getMetadata`.
    pub coordination_access: MicroDollars,
}

impl CostModel {
    /// Builds the cost model for a backend using the 2014 price books.
    pub fn new(backend: CostBackend) -> Self {
        CostModel {
            backend,
            s3: PriceBook::amazon_s3(),
            gcs: PriceBook::google_cloud_storage(),
            rackspace: PriceBook::rackspace(),
            azure: PriceBook::windows_azure(),
            coordination_access: MicroDollars::new(11.32),
        }
    }

    /// The backend this model describes.
    pub fn backend(&self) -> CostBackend {
        self.backend
    }

    /// Cost of reading a file of `size` bytes that is **not** locally cached:
    /// open (getMetadata) + whole-file download + close.
    pub fn read_cost(&self, size: Bytes) -> MicroDollars {
        match self.backend {
            CostBackend::Aws => {
                self.coordination_access + self.s3.get_op_cost() + self.s3.download_cost(size)
            }
            CostBackend::CloudOfClouds => {
                // DepSky-CA with f = 1 reads the metadata object and two
                // blocks of size/2 from the two fastest/cheapest clouds, so
                // the outbound volume is ≈ the file size but split across
                // providers, plus a few extra GET requests.
                let half = Bytes::new(size.get() / 2);
                self.coordination_access
                    + self.s3.get_op_cost() * 4.0
                    + self.s3.download_cost(half)
                    + self.gcs.download_cost(half)
            }
        }
    }

    /// Cost of reading a file that is already in the local cache: only the
    /// `getMetadata` validation against the coordination service.
    pub fn cached_read_cost(&self) -> MicroDollars {
        self.coordination_access
    }

    /// Cost of writing a file of any size: inbound traffic is free, so the
    /// cost is the coordination-service work (metadata read + lock + metadata
    /// update + unlock) plus the per-PUT request charges.
    pub fn write_cost(&self, _size: Bytes) -> MicroDollars {
        match self.backend {
            CostBackend::Aws => self.coordination_access * 4.0 + self.s3.put_op_cost(),
            CostBackend::CloudOfClouds => {
                // One PUT per data block (3) plus the metadata object in all
                // four clouds.
                self.coordination_access * 4.0
                    + self.s3.put_op_cost() * 2.0
                    + self.gcs.put_op_cost() * 2.0
                    + self.rackspace.put_op_cost() * 2.0
                    + self.azure.put_op_cost()
            }
        }
    }

    /// Storage cost of keeping one version of a file of `size` bytes for one
    /// day (Figure 11(c)).
    pub fn storage_cost_per_day(&self, size: Bytes) -> MicroDollars {
        match self.backend {
            CostBackend::Aws => self.s3.storage_cost(size, 1.0),
            CostBackend::CloudOfClouds => {
                // Preferred quorums: two clouds store half a file each, a
                // third stores the extra (parity) block; the fourth stores
                // nothing (paper §4.5).
                let half = Bytes::new(size.get() / 2);
                self.s3.storage_cost(half, 1.0)
                    + self.gcs.storage_cost(half, 1.0)
                    + self.rackspace.storage_cost(half, 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_read_costs_the_getmetadata_access() {
        let m = CostModel::new(CostBackend::Aws);
        assert!((m.cached_read_cost().get() - 11.32).abs() < 1e-9);
    }

    #[test]
    fn read_cost_grows_with_size_and_write_cost_does_not() {
        for backend in [CostBackend::Aws, CostBackend::CloudOfClouds] {
            let m = CostModel::new(backend);
            let small_read = m.read_cost(Bytes::mib(1));
            let big_read = m.read_cost(Bytes::mib(30));
            assert!(big_read.get() > small_read.get() * 10.0);
            let small_write = m.write_cost(Bytes::mib(1));
            let big_write = m.write_cost(Bytes::mib(30));
            assert!((small_write.get() - big_write.get()).abs() < 1e-9);
        }
    }

    #[test]
    fn reading_30mb_costs_thousands_of_microdollars() {
        // Figure 11(b): at 30 MB the read cost approaches ~4000 µ$ while the
        // write cost stays below ~100 µ$.
        let m = CostModel::new(CostBackend::CloudOfClouds);
        let read = m.read_cost(Bytes::mib(30));
        let write = m.write_cost(Bytes::mib(30));
        assert!(read.get() > 2_000.0, "read cost {read}");
        assert!(write.get() < 100.0, "write cost {write}");
    }

    #[test]
    fn coc_storage_is_about_1_5x_aws_storage() {
        let aws = CostModel::new(CostBackend::Aws);
        let coc = CostModel::new(CostBackend::CloudOfClouds);
        let size = Bytes::mib(20);
        let ratio = coc.storage_cost_per_day(size).get() / aws.storage_cost_per_day(size).get();
        assert!(
            (1.3..1.7).contains(&ratio),
            "CoC/AWS storage cost ratio was {ratio}"
        );
    }
}
