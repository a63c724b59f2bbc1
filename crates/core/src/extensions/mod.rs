//! Extensions from the paper's future-work section (Section 6).
//!
//! Section 6 proposes further distribution-aware query classes derivable
//! from the framework, naming **nearest-neighbor queries** (report all
//! datasets with `dist(q, P_j) ≤ τ`) and **diversity queries**, and notes
//! the missing ingredient is a small coreset with multiplicative
//! guarantees. Following the paper's own observation that additive
//! approximations are achievable (it cites RaBitQ-style additive coresets
//! \[26\]), these modules implement both query classes with *measured
//! additive bands*, mirroring the ε + 2δ guarantee shape of the main
//! results:
//!
//! * [`NnDatasetIndex`] — k-center (Gonzalez) coresets with measured
//!   covering radius `r_i`; reports a superset of the qualifying datasets,
//!   every report within `dist(q, P_j) ≤ τ + r_j`.
//! * [`DiversityDatasetIndex`] — remote-pair diversity `div(P ∩ R) =
//!   diam(P ∩ R)` estimated on the same coresets, with the covering radius
//!   as the additive band.

mod diversity;
mod nn;

pub use diversity::DiversityDatasetIndex;
pub use nn::NnDatasetIndex;
