//! Workload generators and experiment harnesses reproducing the SCFS
//! evaluation (paper §4). The crate's `reproduce` binary prints every table
//! and figure.
//!
//! * [`setup`] — [`setup::Deployment`], the one place clouds, a storage
//!   backend and a coordination plane are stood up, and on it the paper-table
//!   entry points for the six SCFS variants (AWS/CoC ×
//!   blocking/non-blocking/non-sharing) and the three baselines.
//! * [`results`] — plain-text result tables used by the `reproduce` binary.
//! * [`filebench`] — the six Filebench micro-benchmarks of Table 3.
//! * [`filesync`] — the OpenOffice-style file-synchronization benchmark of
//!   Figures 7 and 8.
//! * [`editsync`] — the insert-in-the-middle edit workload contrasting
//!   fixed-size and content-defined chunking.
//! * [`sharing`] — the two-client sharing-latency experiment of Figure 9.
//! * [`fleet`] — the fleet-scale harness: 10⁴+ simulated mounts on one
//!   event loop, driving a zipfian shared-directory workload (the tiered
//!   chunk cache) or a metadata storm (the coordination plane) over the
//!   [`setup::Deployment`] it is handed.
//! * [`sweeps`] — the metadata-cache and private-name-space parameter sweeps
//!   of Figure 10.
//! * [`costs`] — the operation and storage costs of Figure 11, measured
//!   from the cloud ledgers and coordination accesses of a write, a cold
//!   read and a cached read on the paper's deployments; the durability table
//!   (Table 1); and dollars per user-month of a fleet over the provider
//!   matrix.

pub mod costs;
pub mod editsync;
pub mod filebench;
pub mod filesync;
pub mod fleet;
pub mod results;
pub mod setup;
pub mod sharing;
pub mod sweeps;

pub use results::Table;
pub use setup::SystemKind;
