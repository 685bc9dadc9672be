//! Cost/latency-aware cloud placement over a heterogeneous provider matrix.
//!
//! The paper's cloud-of-clouds evaluation (§4.1, Figure 11) treats its four
//! providers as a fixed, uniform set: every DepSky write puts its blocks on
//! the first `n − f` of them and every read races those. This crate makes
//! the provider set open and *unequal* — a matrix mixing the 2014 paper
//! clouds with a cheap-slow archival tier, an expensive-fast premium tier
//! and a flaky regional store — and turns "which clouds serve this
//! operation" into a live policy decision:
//!
//! - [`ProviderMatrix`] is the registry: the static profiles (latency,
//!   bandwidth, price book) plus per-provider *health*, a deterministic EWMA
//!   of observed operation latencies and error rates fed from every cloud
//!   outcome the DepSky client sees.
//! - [`PlacementPolicy`] chooses index subsets: [`CheapestQuorum`] picks the
//!   lowest-dollar write quorum whose predicted latency still meets an SLO,
//!   [`FastestRead`] races the predicted-fastest holders and widens on
//!   failure, and [`AllClouds`] reproduces the paper's fixed placement.
//! - [`PolicyKind`] is the `Copy` configuration surface the SCFS config and
//!   the harnesses plumb around.
//!
//! The crate is deliberately protocol-free: it never talks to a cloud, it
//! only ranks indices. `depsky::register` owns the quorum mechanics and asks
//! a policy for write targets and a read order; the policies stay pure
//! functions of the matrix state, which keeps them deterministic and
//! property-testable.

#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "a unit test is a clock root")
)]

pub mod matrix;
pub mod policy;

pub use matrix::{ProviderHealth, ProviderMatrix};
pub use policy::{AllClouds, CheapestQuorum, FastestRead, PlacementPolicy, PolicyKind};
