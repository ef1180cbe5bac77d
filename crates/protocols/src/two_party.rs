//! Two-party PPRL protocol (no linkage unit; §3.1 "two-party protocols",
//! ref \[38]).
//!
//! The database owners share a secret HMAC key, encode their records as
//! (optionally hardened) CLKs, exchange the filters directly, and each
//! computes the Dice similarities locally. Candidate generation uses
//! Hamming LSH on the exchanged filters so the comparison stays
//! sub-quadratic. What each party learns: the other side's filters (hence
//! hardening matters in this model) and the final match pairs.
//!
//! Every message crosses the session runtime ([`crate::session`]) as a
//! framed, checksummed, acknowledged transfer, so the reported [`CommCost`]
//! is *measured* from the traffic — identical to the former analytical
//! accounting when the configured [`FaultPlan`] is fault-free, and
//! inclusive of retransmission overhead otherwise. A crashed counterpart
//! surfaces as a typed [`pprl_core::error::PprlError::Timeout`]; two
//! parties cannot degrade below two.

use crate::session::{decode_match, encode_match, RetryPolicy, Session};
use crate::transport::{FaultPlan, SimNet};
use pprl_blocking::engine::compare_pairs;
use pprl_blocking::lsh::HammingLsh;
use pprl_core::bitvec::BitVec;
use pprl_core::error::Result;
use pprl_core::record::Dataset;
use pprl_crypto::cost::CommCost;
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use pprl_similarity::bitvec_sim::dice_bits;

/// Default deterministic seed for the simulated network.
pub(crate) const DEFAULT_SIM_SEED: u64 = 0x5EED;

/// Configuration of the two-party protocol.
#[derive(Debug, Clone)]
pub struct TwoPartyConfig {
    /// Shared encoder configuration (same key on both sides).
    pub encoder: RecordEncoderConfig,
    /// Hamming-LSH blocking parameters.
    pub lsh: HammingLsh,
    /// Dice match threshold.
    pub threshold: f64,
    /// Fault injection for the simulated network between the parties.
    pub fault_plan: FaultPlan,
    /// Retry/timeout policy for every transfer.
    pub retry: RetryPolicy,
    /// Seed of the simulated network's fault stream.
    pub sim_seed: u64,
}

impl TwoPartyConfig {
    /// Defaults: person CLK encoding with the given shared key, 16 LSH
    /// tables of 24 bits, threshold 0.8, reliable network.
    pub fn standard(shared_key: impl Into<Vec<u8>>) -> Result<Self> {
        Ok(TwoPartyConfig {
            encoder: RecordEncoderConfig::person_clk(shared_key.into()),
            lsh: HammingLsh::new(16, 24, 0x7770)?,
            threshold: 0.8,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            sim_seed: DEFAULT_SIM_SEED,
        })
    }
}

/// Outcome of a two-party linkage run.
#[derive(Debug, Clone)]
pub struct TwoPartyOutcome {
    /// Matched pairs `(row_a, row_b, dice)`.
    pub matches: Vec<(usize, usize, f64)>,
    /// Candidate pairs produced by blocking.
    pub candidates: usize,
    /// Similarity comparisons actually computed.
    pub comparisons: usize,
    /// Communication between the two parties, measured from the wire.
    pub cost: CommCost,
    /// Session-level counters (retransmissions, acks, discards).
    pub session_stats: crate::session::SessionStats,
}

/// Runs the protocol over two datasets sharing the person schema.
pub fn two_party_linkage(
    a: &Dataset,
    b: &Dataset,
    config: &TwoPartyConfig,
) -> Result<TwoPartyOutcome> {
    let encoder_a = RecordEncoder::new(config.encoder.clone(), a.schema())?;
    let encoder_b = RecordEncoder::new(config.encoder.clone(), b.schema())?;
    let enc_a = encoder_a.encode_dataset(a)?;
    let enc_b = encoder_b.encode_dataset(b)?;
    let filters_a = enc_a.clks()?;
    let filters_b = enc_b.clks()?;
    let filter_len = encoder_a.output_len();

    let net = SimNet::new(2, config.fault_plan, config.sim_seed)?;
    let mut session = Session::new(net, config.retry)?;

    // Round 1: a symmetric filter exchange — B ships its filters to A,
    // A ships its filters to B. Party A links on the bytes it *received*.
    let mut received_b: Vec<BitVec> = Vec::with_capacity(filters_b.len());
    for f in &filters_b {
        let bytes = session.transfer(1, 0, &f.to_bytes())?;
        received_b.push(BitVec::from_bytes(&bytes, filter_len)?);
    }
    for f in &filters_a {
        session.transfer(0, 1, &f.to_bytes())?;
    }
    session.end_round();

    // Both parties run the same deterministic LSH blocking locally.
    let received_refs: Vec<&BitVec> = received_b.iter().collect();
    let candidates = config.lsh.candidates(&filters_a, &received_refs, 1)?;
    let outcome = compare_pairs(&candidates, config.threshold, |i, j| {
        dice_bits(filters_a[i], received_refs[j])
    })?;

    // Round 2: A sends its match list to B for reconciliation, one 16-byte
    // message per match (an empty sentinel when nothing matched). The
    // reported matches are what B decoded off the wire.
    let mut matches = Vec::with_capacity(outcome.matches.len());
    if outcome.matches.is_empty() {
        session.transfer(0, 1, &[0u8; 16])?;
    } else {
        for m in &outcome.matches {
            let bytes = session.transfer(0, 1, &encode_match(m.a, m.b, m.similarity)?)?;
            matches.push(decode_match(&bytes)?);
        }
    }
    session.end_round();

    Ok(TwoPartyOutcome {
        matches,
        candidates: candidates.len(),
        comparisons: outcome.comparisons,
        cost: session.cost(),
        session_stats: *session.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_core::error::PprlError;
    use pprl_datagen::generator::{Generator, GeneratorConfig};

    fn pair(seed: u64, n: usize, overlap: usize) -> (Dataset, Dataset) {
        let mut g = Generator::new(GeneratorConfig {
            seed,
            corruption_rate: 0.15,
            ..GeneratorConfig::default()
        })
        .unwrap();
        g.dataset_pair(n, n, overlap).unwrap()
    }

    #[test]
    fn links_overlapping_records() {
        let (a, b) = pair(1, 120, 40);
        let config = TwoPartyConfig::standard(b"shared".to_vec()).unwrap();
        let out = two_party_linkage(&a, &b, &config).unwrap();
        let truth: std::collections::HashSet<_> = a.ground_truth_pairs(&b).into_iter().collect();
        let tp = out
            .matches
            .iter()
            .filter(|&&(i, j, _)| truth.contains(&(i, j)))
            .count();
        let precision = if out.matches.is_empty() {
            1.0
        } else {
            tp as f64 / out.matches.len() as f64
        };
        let recall = tp as f64 / truth.len() as f64;
        assert!(precision > 0.9, "precision {precision}");
        assert!(recall > 0.6, "recall {recall}");
    }

    #[test]
    fn blocking_cuts_comparisons() {
        let (a, b) = pair(2, 150, 30);
        let config = TwoPartyConfig::standard(b"shared".to_vec()).unwrap();
        let out = two_party_linkage(&a, &b, &config).unwrap();
        assert!(
            out.comparisons < 150 * 150 / 2,
            "LSH should prune most of the {} cross pairs, did {}",
            150 * 150,
            out.comparisons
        );
        assert_eq!(out.candidates, out.comparisons);
    }

    #[test]
    fn communication_accounted() {
        let (a, b) = pair(3, 50, 10);
        let config = TwoPartyConfig::standard(b"shared".to_vec()).unwrap();
        let out = two_party_linkage(&a, &b, &config).unwrap();
        // 100 filters of l/8 bytes each at minimum.
        assert!(out.cost.bytes >= 100 * config.encoder.params.len / 8);
        assert_eq!(out.cost.rounds, 2);
        // Fault-free: one frame per message, no retries, every data frame
        // acked.
        assert_eq!(out.session_stats.retransmissions, 0);
        assert_eq!(out.session_stats.data_frames, out.cost.messages);
    }

    #[test]
    fn faulty_network_same_matches_higher_cost() {
        let (a, b) = pair(5, 60, 20);
        let clean = TwoPartyConfig::standard(b"shared".to_vec()).unwrap();
        let mut faulty = clean.clone();
        faulty.fault_plan = FaultPlan::with_drop_rate(0.1);
        faulty.retry = RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::default()
        };
        let out_clean = two_party_linkage(&a, &b, &clean).unwrap();
        let out_faulty = two_party_linkage(&a, &b, &faulty).unwrap();
        assert_eq!(out_clean.matches, out_faulty.matches, "drops are recovered");
        assert!(out_faulty.session_stats.retransmissions > 0);
        assert!(out_faulty.cost.messages > out_clean.cost.messages);
    }

    #[test]
    fn crashed_counterpart_is_typed_timeout() {
        let (a, b) = pair(6, 20, 5);
        let mut config = TwoPartyConfig::standard(b"shared".to_vec()).unwrap();
        config.fault_plan.crash = Some(crate::transport::Crash {
            party: 1,
            at_round: 1,
        });
        let err = two_party_linkage(&a, &b, &config).unwrap_err();
        assert!(matches!(err, PprlError::Timeout(_)), "{err}");
    }

    #[test]
    fn different_keys_break_linkage() {
        // If the parties fail to agree on the key, nothing should match —
        // a correctness guard for key handling.
        let (a, b) = pair(4, 60, 30);
        let config_a = TwoPartyConfig::standard(b"key-one".to_vec()).unwrap();
        let mut config = config_a.clone();
        // Encode b with a different key by linking a-with-key1 against
        // b-with-key2: emulate by encoding both with key2 but dataset a
        // replaced — simpler: run the full protocol with key2 and compare
        // match counts; here we check that cross-key dice drops by
        // encoding a with two keys.
        config.encoder.params.key = b"key-two".to_vec();
        let enc1 = RecordEncoder::new(config_a.encoder.clone(), a.schema()).unwrap();
        let enc2 = RecordEncoder::new(config.encoder.clone(), a.schema()).unwrap();
        let f1 = enc1.encode_dataset(&a).unwrap();
        let f2 = enc2.encode_dataset(&a).unwrap();
        let d = dice_bits(f1.clks().unwrap()[0], f2.clks().unwrap()[0]).unwrap();
        assert!(d < 0.55, "cross-key self-similarity should be low, got {d}");
        let _ = b;
    }
}
