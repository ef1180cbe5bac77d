//! # pprl-core
//!
//! Foundation types for the PPRL (privacy-preserving record linkage)
//! workspace: errors, typed values and dates, schemas, records/datasets,
//! q-gram tokenisation, bit vectors, phonetic codes, string normalisation,
//! a small deterministic PRNG, the [`candidate::CandidateSource`]
//! abstraction every blocking engine and index backend implements, a
//! minimal JSON writer shared by the CLI, pipeline and bench harness, and
//! the elastic [`runner`] (with its foreground [`gauge`]) that lends idle
//! cores to the index scan and the batch pipeline.
//!
//! Everything here is dependency-free and shared by every other crate in the
//! workspace. See the workspace `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style comparisons are deliberate: they reject NaN, which
// `x <= 0.0` would accept.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod candidate;
pub mod csv;
pub mod error;
pub mod gauge;
pub mod json;
pub mod normalize;
pub mod phonetic;
pub mod qgram;
pub mod record;
pub mod rng;
pub mod runner;
pub mod schema;
pub mod value;

pub use bitvec::BitVec;
pub use candidate::{CandidatePair, CandidateSource, Probes, SourceStats};
pub use error::{PprlError, Result};
pub use json::Json;
pub use record::{Dataset, PartyId, Record, RecordRef};
pub use rng::SplitMix64;
pub use schema::{FieldDef, FieldType, Schema};
pub use value::{Date, Value};
