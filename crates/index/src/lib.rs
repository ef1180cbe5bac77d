//! # pprl-index
//!
//! A persistent, sharded store of Bloom-filter-encoded records with a
//! concurrent top-k Dice-similarity query engine — the *volume* and
//! *velocity* answer of Figure 3 (§5.1): instead of re-encoding and
//! re-comparing everything in RAM per run, encoded records live on disk in
//! checksummed segment files and are served by a multi-threaded engine at
//! hardware speed.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/MANIFEST         versioned, checksummed index of everything below
//! <dir>/wal.log          append log of not-yet-flushed inserts
//! <dir>/seg-<id>.seg     immutable segment files, one shard each
//! ```
//!
//! Every file follows the `protocols::transport` framing conventions: a
//! versioned header, length-prefixed entries and a trailing FNV-1a
//! checksum, so any corruption or truncation surfaces as a typed
//! [`pprl_core::error::PprlError::Storage`] error instead of silently
//! wrong query results.
//!
//! ## Sharding and querying
//!
//! Records are routed to shards by a Hamming-LSH band key (reused from
//! `pprl-blocking`), which keeps Hamming-similar filters co-located.
//! In memory each segment is a columnar [`arena::FilterArena`]: one
//! flat fixed-stride `Vec<u64>` of filter words sorted by `(popcount,
//! id)`, with parallel id and popcount arrays — scanned by the unrolled
//! slice kernels in `pprl-similarity` (4-row blocks score a whole query
//! batch per block load). Queries answer exact top-k Dice similarity:
//! segments whose popcount range or band-key Bloom summary (manifest
//! v3) proves a score ceiling below the running k-th score are skipped
//! — and with [`store::IndexStore::lazy_reader`] never even read from
//! disk — while surviving arenas are walked with per-block Dice
//! upper-bound cutoffs `2·min(q,x)/(q+x)`. All pruning is lossless:
//! results are bit-exact against a brute-force scan. A scan runs on its
//! caller; a large one also lends idle cores to scoped helpers admitted
//! by the process-wide foreground gauge of [`pprl_core::runner`], which
//! yield to writers.
//!
//! ```
//! use pprl_core::bitvec::BitVec;
//! use pprl_index::store::{IndexConfig, IndexStore};
//!
//! let dir = std::env::temp_dir().join("pprl-index-doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut store = IndexStore::create(&dir, IndexConfig::new(64, 2)).unwrap();
//! let a = BitVec::from_positions(64, &[1, 2, 3, 4]).unwrap();
//! let b = BitVec::from_positions(64, &[1, 2, 3, 9]).unwrap();
//! store.insert_batch(&[(0, a.clone()), (1, b)]).unwrap();
//! store.flush().unwrap();
//! let reader = store.reader().unwrap();
//! let hits = reader.top_k(&a, 1, 1).unwrap();
//! assert_eq!(hits[0].id, 0);
//! assert_eq!(hits[0].score, 1.0);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod backend;
pub mod format;
pub mod manifest;
pub mod query;
pub mod segment;
pub mod store;
pub mod summary;
pub mod vfs;

pub use backend::IndexBackend;
