//! Placement policies: pure, deterministic rankings of cloud indices.
//!
//! A policy answers two questions for the DepSky client: *where do the data
//! blocks of this write go* ([`PlacementPolicy::write_targets`]) and *in what
//! order should a read try the clouds holding a version*
//! ([`PlacementPolicy::read_order`]). Policies never touch a cloud — they
//! rank indices using only the [`ProviderMatrix`]'s predicted latencies,
//! error rates and price books — so the same matrix state always yields the
//! same placement, and the properties the policies promise (feasibility,
//! cost-minimality, escalation order) are checkable without any I/O.

use std::sync::Arc;

use sim_core::units::Bytes;

use crate::matrix::ProviderMatrix;

/// How much an observed error rate inflates a provider's effective latency
/// when ranking by speed: a provider failing 10% of its requests looks twice
/// as slow, one failing everything is pushed to the back of every ranking.
const ERROR_LATENCY_PENALTY: f64 = 10.0;

/// A placement policy: selects which clouds serve each DepSky operation.
pub trait PlacementPolicy: Send + Sync {
    /// Short stable name, used in reports and bench rows.
    fn name(&self) -> &'static str;

    /// Chooses the `width` clouds that will hold the data blocks of one
    /// write, of which the writer waits for `write_wait` acknowledgements.
    /// `block` is the size of each encoded block. The returned vector has
    /// exactly `width` distinct in-range indices; position `i` holds block
    /// slot `i`.
    fn write_targets(
        &self,
        matrix: &ProviderMatrix,
        width: usize,
        write_wait: usize,
        block: Bytes,
    ) -> Vec<usize>;

    /// Orders the clouds currently `holders` of a version for a read that
    /// needs `needed` valid blocks. The client races as many entries first
    /// as a write waits for acknowledgements (its spec's `write_wait`); the
    /// rest form the escalation tail. The returned vector is a permutation
    /// of `holders`.
    fn read_order(
        &self,
        matrix: &ProviderMatrix,
        holders: &[usize],
        needed: usize,
        block: Bytes,
    ) -> Vec<usize>;

    /// The holders of every write of `width` blocks, slot `i` on the `i`-th
    /// entry, when they follow from the matrix's size and `width` alone —
    /// so a reader needs no record of where a write put its blocks. `None`
    /// (the default) for a policy that chooses holders per write.
    fn implied_holders(&self, _matrix: &ProviderMatrix, _width: usize) -> Option<Vec<usize>> {
        None
    }
}

/// The paper's fixed placement: the first `width` clouds hold every version,
/// and a read tries them in index order, racing the first `write_wait`. The
/// paper's layout is this policy with `width = write_wait = n − f`, so its
/// reads race every holder; it is also the fallback other policies degrade to.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllClouds;

impl PlacementPolicy for AllClouds {
    fn name(&self) -> &'static str {
        "all_clouds"
    }

    fn write_targets(
        &self,
        matrix: &ProviderMatrix,
        width: usize,
        _write_wait: usize,
        _block: Bytes,
    ) -> Vec<usize> {
        (0..width.min(matrix.len())).collect()
    }

    fn implied_holders(&self, matrix: &ProviderMatrix, width: usize) -> Option<Vec<usize>> {
        Some((0..width.min(matrix.len())).collect())
    }

    fn read_order(
        &self,
        _matrix: &ProviderMatrix,
        holders: &[usize],
        _needed: usize,
        _block: Bytes,
    ) -> Vec<usize> {
        holders.to_vec()
    }
}

/// Picks the cheapest write quorum whose predicted latency still meets an
/// SLO: among all `width`-subsets of the matrix whose `write_wait`-th
/// fastest member is predicted under `slo_millis`, the one minimizing the
/// summed write + month-of-storage + read-back dollar cost. Falls back to
/// the [`AllClouds`] placement when no subset is feasible.
#[derive(Debug, Clone, Copy)]
pub struct CheapestQuorum {
    /// Latency budget, in milliseconds, the `write_wait`-th acknowledgement
    /// of a write (and a read from a holder) must be predicted to meet.
    pub slo_millis: f64,
}

impl PlacementPolicy for CheapestQuorum {
    fn name(&self) -> &'static str {
        "cheapest_quorum"
    }

    fn write_targets(
        &self,
        matrix: &ProviderMatrix,
        width: usize,
        write_wait: usize,
        block: Bytes,
    ) -> Vec<usize> {
        let n = matrix.len();
        if width >= n {
            return (0..n).collect();
        }
        let wait = write_wait.clamp(1, width);
        let mut best: Option<(f64, Vec<usize>)> = None;
        // C(n, width) stays tiny for realistic matrices (C(7,3) = 35);
        // lexicographic enumeration + strict improvement makes the tie-break
        // deterministic (lowest index set wins).
        for combo in combinations(n, width) {
            let mut latencies: Vec<f64> = combo
                .iter()
                .map(|&c| matrix.predicted_op_millis(c, block, Bytes::ZERO))
                .collect();
            latencies.sort_by(f64::total_cmp);
            if latencies[wait - 1] > self.slo_millis {
                continue;
            }
            let cost: f64 = combo
                .iter()
                .map(|&c| matrix.round_trip_cost_dollars(c, block))
                .sum();
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, combo));
            }
        }
        match best {
            Some((_, combo)) => combo,
            None => (0..width).collect(),
        }
    }

    fn read_order(
        &self,
        matrix: &ProviderMatrix,
        holders: &[usize],
        _needed: usize,
        block: Bytes,
    ) -> Vec<usize> {
        // Cheapest reads first among holders predicted to meet the SLO; the
        // over-budget holders form the escalation tail, fastest first.
        let mut feasible: Vec<usize> = Vec::new();
        let mut tail: Vec<usize> = Vec::new();
        for &h in holders {
            if matrix.predicted_op_millis(h, Bytes::ZERO, block) <= self.slo_millis {
                feasible.push(h);
            } else {
                tail.push(h);
            }
        }
        feasible.sort_by(|&a, &b| {
            f64::total_cmp(
                &matrix.read_cost_dollars(a, block),
                &matrix.read_cost_dollars(b, block),
            )
            .then(a.cmp(&b))
        });
        tail.sort_by(|&a, &b| {
            f64::total_cmp(
                &matrix.predicted_op_millis(a, Bytes::ZERO, block),
                &matrix.predicted_op_millis(b, Bytes::ZERO, block),
            )
            .then(a.cmp(&b))
        });
        feasible.extend(tail);
        feasible
    }
}

/// Latency-first placement: writes go to the predicted-fastest clouds and
/// reads race the predicted-fastest holders, widening to the rest on a
/// miss. Observed error rates inflate a provider's effective latency, so a
/// cloud that starts dropping requests is demoted even if its raw latency
/// EWMA still looks good.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastestRead;

impl FastestRead {
    fn effective_millis(
        matrix: &ProviderMatrix,
        cloud: usize,
        upload: Bytes,
        download: Bytes,
    ) -> f64 {
        matrix.predicted_op_millis(cloud, upload, download)
            * (1.0 + ERROR_LATENCY_PENALTY * matrix.error_rate(cloud))
    }
}

impl PlacementPolicy for FastestRead {
    fn name(&self) -> &'static str {
        "fastest_read"
    }

    fn write_targets(
        &self,
        matrix: &ProviderMatrix,
        width: usize,
        _write_wait: usize,
        block: Bytes,
    ) -> Vec<usize> {
        let mut order: Vec<usize> = (0..matrix.len()).collect();
        order.sort_by(|&a, &b| {
            f64::total_cmp(
                &Self::effective_millis(matrix, a, block, Bytes::ZERO),
                &Self::effective_millis(matrix, b, block, Bytes::ZERO),
            )
            .then(a.cmp(&b))
        });
        order.truncate(width.min(matrix.len()));
        order
    }

    fn read_order(
        &self,
        matrix: &ProviderMatrix,
        holders: &[usize],
        _needed: usize,
        block: Bytes,
    ) -> Vec<usize> {
        let mut order = holders.to_vec();
        order.sort_by(|&a, &b| {
            f64::total_cmp(
                &Self::effective_millis(matrix, a, Bytes::ZERO, block),
                &Self::effective_millis(matrix, b, Bytes::ZERO, block),
            )
            .then(a.cmp(&b))
        });
        order
    }
}

/// Copyable policy configuration, the surface the SCFS config and the
/// harnesses plumb around instead of trait objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's fixed placement ([`AllClouds`]).
    AllClouds,
    /// Lowest-dollar SLO-feasible quorum ([`CheapestQuorum`]).
    CheapestQuorum {
        /// Latency SLO in whole milliseconds (kept integral so the kind
        /// stays `Copy + Eq` and serializes trivially).
        slo_millis: u32,
    },
    /// Predicted-fastest placement ([`FastestRead`]).
    FastestRead,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Arc<dyn PlacementPolicy> {
        match self {
            PolicyKind::AllClouds => Arc::new(AllClouds),
            PolicyKind::CheapestQuorum { slo_millis } => Arc::new(CheapestQuorum {
                slo_millis: slo_millis as f64,
            }),
            PolicyKind::FastestRead => Arc::new(FastestRead),
        }
    }

    /// Short stable label, matching [`PlacementPolicy::name`].
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::AllClouds => "all_clouds",
            PolicyKind::CheapestQuorum { .. } => "cheapest_quorum",
            PolicyKind::FastestRead => "fastest_read",
        }
    }
}

/// All `k`-subsets of `0..n` in lexicographic order (none when `k` is 0).
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k == 0 || k > n {
        return out;
    }
    let mut combo: Vec<usize> = (0..k).collect();
    loop {
        out.push(combo.clone());
        // Advance to the next combination in lexicographic order.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if combo[i] != i + n - k {
                break;
            }
        }
        if combo[i] == i + n - k {
            return out;
        }
        combo[i] += 1;
        for j in i + 1..k {
            combo[j] = combo[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_store::providers::ProviderSet;
    use proptest::prelude::*;
    use sim_core::time::SimDuration;

    fn matrix() -> ProviderMatrix {
        ProviderMatrix::new(ProviderSet::heterogeneous_matrix())
    }

    const BLOCK: Bytes = Bytes::new(64 * 1024);

    #[test]
    fn combinations_enumerate_lexicographically() {
        let all = combinations(4, 2);
        assert_eq!(
            all,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(combinations(7, 3).len(), 35);
        assert!(combinations(3, 0).is_empty());
        assert!(combinations(2, 3).is_empty());
    }

    #[test]
    fn all_clouds_is_the_identity_placement() {
        let m = matrix();
        let p = AllClouds;
        assert_eq!(p.write_targets(&m, 3, 2, BLOCK), vec![0, 1, 2]);
        assert_eq!(p.read_order(&m, &[0, 1, 2], 2, BLOCK), vec![0, 1, 2]);
    }

    #[test]
    fn only_all_clouds_implies_its_holders() {
        let m = matrix();
        assert_eq!(AllClouds.implied_holders(&m, 3), Some(vec![0, 1, 2]));
        assert_eq!(
            AllClouds.implied_holders(&m, 3),
            Some(AllClouds.write_targets(&m, 3, 3, BLOCK))
        );
        let cheapest = CheapestQuorum {
            slo_millis: 2_500.0,
        };
        assert_eq!(cheapest.implied_holders(&m, 3), None);
        assert_eq!(FastestRead.implied_holders(&m, 3), None);
    }

    #[test]
    fn cheapest_quorum_avoids_the_premium_tier_when_slack_exists() {
        let m = matrix();
        let p = CheapestQuorum {
            slo_millis: 2_500.0,
        };
        let targets = p.write_targets(&m, 3, 2, BLOCK);
        assert_eq!(targets.len(), 3);
        assert!(
            !targets.contains(&0),
            "premium (index 0) should be priced out: {targets:?}"
        );
        // The SLO gates the 2nd (awaited) acknowledgement, so two members
        // must individually be predicted under it; the slow archive tier may
        // only ever ride along as the unawaited straggler.
        let fast_members = targets
            .iter()
            .filter(|&&c| m.predicted_op_millis(c, BLOCK, Bytes::ZERO) <= 2_500.0)
            .count();
        assert!(fast_members >= 2, "quorum not SLO-feasible: {targets:?}");
    }

    #[test]
    fn cheapest_quorum_falls_back_to_identity_when_nothing_is_feasible() {
        let m = matrix();
        let p = CheapestQuorum { slo_millis: 1.0 };
        assert_eq!(p.write_targets(&m, 3, 2, BLOCK), vec![0, 1, 2]);
    }

    #[test]
    fn fastest_read_prefers_the_premium_tier() {
        let m = matrix();
        let p = FastestRead;
        let targets = p.write_targets(&m, 3, 2, BLOCK);
        assert_eq!(targets[0], 0, "premium is the fastest: {targets:?}");
        let order = p.read_order(&m, &[0, 1, 2], 2, BLOCK);
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn fastest_read_demotes_a_cloud_with_a_high_error_rate() {
        let m = matrix();
        // Premium is the fastest on paper; make it fail continuously.
        for _ in 0..20 {
            m.record(0, SimDuration::from_millis(140), false);
        }
        let p = FastestRead;
        let targets = p.write_targets(&m, 3, 2, BLOCK);
        assert!(
            !targets.contains(&0),
            "an always-failing cloud must be demoted: {targets:?}"
        );
    }

    #[test]
    fn policy_kinds_build_matching_names() {
        assert_eq!(PolicyKind::AllClouds.build().name(), "all_clouds");
        assert_eq!(
            PolicyKind::CheapestQuorum { slo_millis: 2_500 }
                .build()
                .name(),
            "cheapest_quorum"
        );
        assert_eq!(PolicyKind::FastestRead.build().name(), "fastest_read");
        assert_eq!(PolicyKind::FastestRead.label(), "fastest_read");
    }

    /// Brute-force re-statement of the CheapestQuorum spec, used as the
    /// oracle by the property tests below.
    fn oracle(
        m: &ProviderMatrix,
        width: usize,
        wait: usize,
        slo: f64,
        block: Bytes,
    ) -> Option<(f64, Vec<usize>)> {
        let mut best: Option<(f64, Vec<usize>)> = None;
        for combo in combinations(m.len(), width) {
            let mut lat: Vec<f64> = combo
                .iter()
                .map(|&c| m.predicted_op_millis(c, block, Bytes::ZERO))
                .collect();
            lat.sort_by(f64::total_cmp);
            if lat[wait - 1] > slo {
                continue;
            }
            let cost: f64 = combo
                .iter()
                .map(|&c| m.round_trip_cost_dollars(c, block))
                .sum();
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, combo));
            }
        }
        best
    }

    proptest! {
        #[test]
        fn prop_cheapest_quorum_is_feasible_and_minimal(
            slo in 100.0f64..6_000.0,
            observations in proptest::collection::vec(0u64..56_000, 0..40),
        ) {
            let m = matrix();
            // Disturb the health state arbitrarily: predictions move, but
            // the policy must keep its contract under any health state.
            // Each observation encodes (cloud, latency) in one integer (the
            // proptest shim has no tuple strategies).
            for obs in observations {
                let cloud = (obs % 7) as usize;
                let millis = 50 + obs / 7;
                m.record(cloud, SimDuration::from_millis(millis), millis < 4_000);
            }
            let policy = CheapestQuorum { slo_millis: slo };
            let targets = policy.write_targets(&m, 3, 2, BLOCK);

            // Always a well-formed placement: 3 distinct in-range indices.
            prop_assert_eq!(targets.len(), 3);
            let unique: std::collections::BTreeSet<_> = targets.iter().copied().collect();
            prop_assert_eq!(unique.len(), 3);
            prop_assert!(targets.iter().all(|&c| c < m.len()));

            match oracle(&m, 3, 2, slo, BLOCK) {
                Some((best_cost, best_combo)) => {
                    // Feasible: the 2nd-fastest member meets the SLO.
                    let mut lat: Vec<f64> = targets
                        .iter()
                        .map(|&c| m.predicted_op_millis(c, BLOCK, Bytes::ZERO))
                        .collect();
                    lat.sort_by(f64::total_cmp);
                    prop_assert!(lat[1] <= slo, "infeasible pick {:?} at slo {}", targets, slo);
                    // Minimal: cost matches the brute-force optimum.
                    let cost: f64 = targets
                        .iter()
                        .map(|&c| m.round_trip_cost_dollars(c, BLOCK))
                        .sum();
                    prop_assert!(
                        (cost - best_cost).abs() < 1e-12,
                        "cost {} but oracle found {} via {:?}",
                        cost,
                        best_cost,
                        best_combo
                    );
                }
                None => {
                    // No feasible quorum: must fall back to the identity.
                    prop_assert_eq!(targets, vec![0, 1, 2]);
                }
            }
        }

        #[test]
        fn prop_read_orders_are_permutations_of_the_holders(
            holder_bits in 1u8..128,
            observations in proptest::collection::vec(0u64..56_000, 0..20),
        ) {
            let m = matrix();
            for obs in observations {
                m.record((obs % 7) as usize, SimDuration::from_millis(50 + obs / 7), true);
            }
            let holders: Vec<usize> = (0..7).filter(|i| holder_bits & (1 << i) != 0).collect();
            let policies: Vec<Arc<dyn PlacementPolicy>> = vec![
                Arc::new(AllClouds),
                Arc::new(CheapestQuorum { slo_millis: 2_500.0 }),
                Arc::new(FastestRead),
            ];
            for p in policies {
                let order = p.read_order(&m, &holders, 2, BLOCK);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                let mut expected = holders.clone();
                expected.sort_unstable();
                prop_assert_eq!(sorted, expected, "{} must permute holders", p.name());
            }
        }
    }
}
