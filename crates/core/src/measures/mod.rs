//! Distance and exposure measures used by the unfairness definitions
//! (paper §3.2–3.3).

pub(crate) mod dense;
pub mod emd;
pub mod exposure;
pub mod float;
pub mod histogram;
pub mod jaccard;
pub mod kendall;
pub mod relevance;

pub use emd::{emd_1d, emd_1d_normalized, emd_general, emd_general_1d, transport_plan};
pub use exposure::{exposure_unfairness, total_exposure, DiscountModel};
pub use float::{approx_eq, approx_zero};
pub use histogram::{BinConfig, Histogram};
pub use relevance::{relevance_from_rank, relevance_vector};
