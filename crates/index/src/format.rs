//! Error helpers shared by the index file codecs.
//!
//! Segment, manifest and WAL files parse through `pprl_core::codec` —
//! its bounds-checked `Reader` and its `body ‖ word_fold(body)` checksum
//! trailer — with [`PprlError::Storage`] as the error kind, so every
//! malformed file is a typed storage error. Structural sizes are
//! declared in headers, so a truncation is caught by an exact length
//! check rather than only by the checksum.

use pprl_core::error::PprlError;

/// Convenience constructor for a [`PprlError::Storage`] error.
pub fn storage_err(msg: impl Into<String>) -> PprlError {
    PprlError::Storage(msg.into())
}

/// Maps an I/O failure on `path` to a typed [`PprlError::Storage`].
pub fn io_err(path: &std::path::Path, op: &str, e: std::io::Error) -> PprlError {
    storage_err(format!("{op} {}: {e}", path.display()))
}
