//! # pprl-blocking
//!
//! Complexity-reduction technologies for PPRL (§3.4 of the paper): blocking
//! key extraction, standard and sorted-neighbourhood blocking, canopy
//! clustering, MinHash-LSH and Hamming-LSH blocking with collision-
//! probability guarantees, meta-blocking (purging, filtering, weighted edge
//! pruning), PPJoin-style Dice threshold filtering, and a sequential /
//! parallel comparison engine.
//!
//! Each blocking job has one implementation, reached through the
//! [`CandidateSource`](pprl_core::candidate::CandidateSource) adapters of
//! [`source`] (standard blocking *is* [`KeyBlockSource`]). A Dice
//! threshold becomes bit counts by one rule, the scan kernel's exact
//! `pprl_similarity::kernel::need_count`, which [`filtering`] and every
//! index scan share; "which stored filters reach Dice ≥ t" is
//! `pprl_index`'s `IndexReader::top_k_batch` with a `min_score`.

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style comparisons are deliberate: they reject NaN, which
// `x <= 0.0` would accept.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod canopy;
pub mod engine;
pub mod filtering;
pub mod keys;
pub mod lsh;
pub mod metablocking;
pub mod source;
pub mod standard;

pub use canopy::CanopyBlocking;
pub use engine::{compare_pairs, compare_pairs_parallel, CompareOutcome, ScoredPair};
pub use keys::{BlockingKey, KeyPart};
pub use lsh::{HammingLsh, HammingLshTables, MinHashLsh};
pub use source::{
    CanopySource, FullSource, HammingLshSource, KeyBlockSource, MetaBlockSource, MinHashLshSource,
    SortedNeighbourhoodSource,
};
pub use standard::{full_cross_product, sorted_neighbourhood, CandidatePair};
