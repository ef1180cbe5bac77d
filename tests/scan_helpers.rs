//! Tier-1 copy of the index crate's scan-helper admission suite: a free
//! foreground gauge lends idle cores to a large scan, a saturated one
//! lends none, and a guard taken mid-scan stops helpers claiming tasks.
//! Its own test binary, so no other suite moves the process-wide gauge.

#[path = "../crates/index/tests/scan_helpers.rs"]
mod scan_helpers;
