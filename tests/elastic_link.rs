//! Tier-1 copy of the pipeline crate's elastic-link suite: `link` gives
//! the same matches, candidates, comparisons and source stats at thread
//! caps 1, 2, 4 and 8, and a saturated foreground gauge admits no helper.
//! Its own test binary, so no other suite moves the process-wide gauge.

#[path = "../crates/pipeline/tests/elastic_link.rs"]
mod elastic_link;
