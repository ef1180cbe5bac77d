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
//! versioned header, length-prefixed entries and a trailing word-folded
//! checksum (`pprl_core::hash::word_fold`), so any corruption or truncation surfaces as a typed
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
//! arenas are walked in tiles, and a tile's lowest popcount turns the
//! running k-th score into the smallest intersection a row must reach,
//! so the kernel reports only rows that can place. The bound is
//! lossless: results are bit-exact against a brute-force scan. Every
//! segment is resident from the moment the store has it — decoded at
//! open, kept from the flush or merge that wrote it — and readers share
//! those arenas, so no query reads a file. A scan runs on its caller; a
//! large one also lends idle cores to scoped helpers admitted by the
//! process-wide foreground gauge of [`pprl_core::runner`], which yield
//! to writers.
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
pub mod vfs;

pub use backend::IndexBackend;
