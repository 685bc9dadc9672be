//! DepSky protocol configuration.

/// Configuration of a DepSky-CA deployment (encryption + erasure coding +
/// secret sharing) with *preferred quorums*: data blocks go only to the first
/// `n − f` clouds instead of all `n`, which for `f = 1` stores `1.5×` the
/// data instead of `2×` (the configuration of the paper's Figure 11(c)
/// analysis and the only one SCFS deploys).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepSkyConfig {
    /// Number of tolerated faulty clouds.
    pub f: usize,
}

impl DepSkyConfig {
    /// The configuration used by SCFS-CoC in the paper: `f = 1`.
    pub fn scfs_default() -> Self {
        DepSkyConfig { f: 1 }
    }

    /// Total number of clouds required (`n = 3f + 1`).
    pub fn total_clouds(&self) -> usize {
        3 * self.f + 1
    }

    /// Write quorum size (`n − f`).
    pub fn write_quorum(&self) -> usize {
        self.total_clouds() - self.f
    }

    /// Number of data shards in the erasure code (`f + 1`).
    pub fn data_shards(&self) -> usize {
        self.f + 1
    }

    /// Number of clouds that hold a data block of each version: the
    /// preferred quorum, `n − f`.
    pub fn data_clouds(&self) -> usize {
        self.write_quorum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scfs_default_matches_paper() {
        let c = DepSkyConfig::scfs_default();
        assert_eq!(c.total_clouds(), 4);
        assert_eq!(c.write_quorum(), 3);
        assert_eq!(c.data_shards(), 2);
        // Figure 11(c): "two clouds store half of the file each while a third
        // receives an extra block" -> 1.5x the file size.
        assert_eq!(c.data_clouds(), 3);
    }

    #[test]
    fn f2_configuration() {
        let c = DepSkyConfig { f: 2 };
        assert_eq!(c.total_clouds(), 7);
        assert_eq!(c.write_quorum(), 5);
        assert_eq!(c.data_shards(), 3);
    }
}
