//! Three-party (linkage-unit) PPRL protocol (§3.1, refs \[12, 33]).
//!
//! The most common deployment model: two database owners encode with a
//! shared secret key the linkage unit (LU) never sees, ship the filters to
//! the LU, and the LU blocks, compares and returns only the matched pair
//! identifiers. The LU learns filter bit patterns (hence hardening) and
//! the match structure, but no keys and no plaintext. Collusion between
//! the LU and one DO exposes the other DO's filters *and* key — modelled
//! by [`collusion_leakage`].
//!
//! All three roles communicate through the fault-tolerant session runtime
//! ([`crate::session`]): DO→LU uploads and LU→DO result messages are
//! framed, checksummed and acknowledged, so [`CommCost`] is measured from
//! actual traffic (retransmissions included). A crashed role surfaces as a
//! typed [`pprl_core::error::PprlError::Timeout`].

use crate::session::{decode_match, encode_match, RetryPolicy, Session};
use crate::transport::{FaultPlan, SimNet};
use crate::two_party::DEFAULT_SIM_SEED;
use pprl_blocking::engine::compare_pairs;
use pprl_blocking::lsh::HammingLsh;
use pprl_core::bitvec::BitVec;
use pprl_core::error::Result;
use pprl_core::record::Dataset;
use pprl_crypto::cost::CommCost;
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use pprl_similarity::bitvec_sim::dice_bits;

/// Party index of database owner A on the simulated network.
const PARTY_A: usize = 0;
/// Party index of database owner B.
const PARTY_B: usize = 1;
/// Party index of the linkage unit.
const PARTY_LU: usize = 2;

/// Configuration of the LU protocol.
#[derive(Debug, Clone)]
pub struct LuProtocolConfig {
    /// Shared DO-side encoder configuration.
    pub encoder: RecordEncoderConfig,
    /// LU-side Hamming-LSH blocking.
    pub lsh: HammingLsh,
    /// Dice match threshold applied by the LU.
    pub threshold: f64,
    /// Fault injection for the simulated DO↔LU network.
    pub fault_plan: FaultPlan,
    /// Retry/timeout policy for every transfer.
    pub retry: RetryPolicy,
    /// Seed of the simulated network's fault stream.
    pub sim_seed: u64,
}

impl LuProtocolConfig {
    /// Defaults mirroring [`super::two_party::TwoPartyConfig::standard`].
    pub fn standard(shared_key: impl Into<Vec<u8>>) -> Result<Self> {
        Ok(LuProtocolConfig {
            encoder: RecordEncoderConfig::person_clk(shared_key.into()),
            lsh: HammingLsh::new(16, 24, 0x7771)?,
            threshold: 0.8,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            sim_seed: DEFAULT_SIM_SEED,
        })
    }
}

/// What each role observes during a protocol run (the leakage profile the
/// threat model reasons about).
#[derive(Debug, Clone)]
pub struct LeakageProfile {
    /// Number of filters the LU observed.
    pub lu_sees_filters: usize,
    /// Whether the LU observed any plaintext QID (never, by construction).
    pub lu_sees_plaintext: bool,
    /// Whether the DOs learn anything beyond the matched pair ids.
    pub dos_learn_beyond_matches: bool,
}

/// Outcome of an LU-protocol run.
#[derive(Debug, Clone)]
pub struct LuOutcome {
    /// Matched pairs `(row_a, row_b, dice)` as reported to the DOs.
    pub matches: Vec<(usize, usize, f64)>,
    /// Candidates generated by the LU's blocking.
    pub candidates: usize,
    /// Comparisons computed by the LU.
    pub comparisons: usize,
    /// Communication (DO→LU uploads plus LU→DO result messages), measured
    /// from the wire.
    pub cost: CommCost,
    /// Leakage profile of the run.
    pub leakage: LeakageProfile,
    /// Session-level counters (retransmissions, acks, discards).
    pub session_stats: crate::session::SessionStats,
}

/// Runs the LU protocol.
pub fn lu_linkage(a: &Dataset, b: &Dataset, config: &LuProtocolConfig) -> Result<LuOutcome> {
    // DO side: encode with the shared secret key.
    let encoder = RecordEncoder::new(config.encoder.clone(), a.schema())?;
    let enc_a = encoder.encode_dataset(a)?;
    let encoder_b = RecordEncoder::new(config.encoder.clone(), b.schema())?;
    let enc_b = encoder_b.encode_dataset(b)?;
    let filters_a = enc_a.clks()?;
    let filters_b = enc_b.clks()?;
    let filter_len = encoder.output_len();

    let net = SimNet::new(3, config.fault_plan, config.sim_seed)?;
    let mut session = Session::new(net, config.retry)?;

    // Round 1: both DOs upload to the LU; the LU links on what it received.
    let mut lu_a: Vec<BitVec> = Vec::with_capacity(filters_a.len());
    for f in &filters_a {
        let bytes = session.transfer(PARTY_A, PARTY_LU, &f.to_bytes())?;
        lu_a.push(BitVec::from_bytes(&bytes, filter_len)?);
    }
    let mut lu_b: Vec<BitVec> = Vec::with_capacity(filters_b.len());
    for f in &filters_b {
        let bytes = session.transfer(PARTY_B, PARTY_LU, &f.to_bytes())?;
        lu_b.push(BitVec::from_bytes(&bytes, filter_len)?);
    }
    session.end_round();

    // LU side: block and compare on the received filters.
    let refs_a: Vec<&BitVec> = lu_a.iter().collect();
    let refs_b: Vec<&BitVec> = lu_b.iter().collect();
    let candidates = config.lsh.candidates(&refs_a, &refs_b, 1)?;
    let outcome = compare_pairs(&candidates, config.threshold, |i, j| {
        dice_bits(refs_a[i], refs_b[j])
    })?;

    // Round 2: LU returns the match list to both DOs, one 16-byte message
    // per match per DO (an empty sentinel when nothing matched). The
    // reported matches are what DO A decoded off the wire.
    let mut matches = Vec::with_capacity(outcome.matches.len());
    if outcome.matches.is_empty() {
        session.transfer(PARTY_LU, PARTY_A, &[0u8; 16])?;
        session.transfer(PARTY_LU, PARTY_B, &[0u8; 16])?;
    } else {
        for m in &outcome.matches {
            let msg = encode_match(m.a, m.b, m.similarity)?;
            let bytes = session.transfer(PARTY_LU, PARTY_A, &msg)?;
            session.transfer(PARTY_LU, PARTY_B, &msg)?;
            matches.push(decode_match(&bytes)?);
        }
    }
    session.end_round();

    Ok(LuOutcome {
        matches,
        candidates: candidates.len(),
        comparisons: outcome.comparisons,
        cost: session.cost(),
        leakage: LeakageProfile {
            lu_sees_filters: lu_a.len() + lu_b.len(),
            lu_sees_plaintext: false,
            dos_learn_beyond_matches: false,
        },
        session_stats: *session.stats(),
    })
}

/// What an LU colluding with DO `colluder` (0 = A, 1 = B) learns about the
/// *other* DO: with the colluder's key in hand, the LU can mount the
/// dictionary re-encoding attack of `pprl-attacks` against every filter of
/// the victim. Returns the number of victim filters exposed to that attack.
pub fn collusion_leakage(len_a: usize, len_b: usize, colluder: u8) -> usize {
    match colluder {
        0 => len_b,
        _ => len_a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_core::error::PprlError;
    use pprl_datagen::generator::{Generator, GeneratorConfig};

    fn pair(seed: u64) -> (Dataset, Dataset) {
        let mut g = Generator::new(GeneratorConfig {
            seed,
            corruption_rate: 0.15,
            ..GeneratorConfig::default()
        })
        .unwrap();
        g.dataset_pair(100, 100, 30).unwrap()
    }

    #[test]
    fn lu_protocol_links_with_quality() {
        let (a, b) = pair(1);
        let config = LuProtocolConfig::standard(b"do-shared-key".to_vec()).unwrap();
        let out = lu_linkage(&a, &b, &config).unwrap();
        let truth: std::collections::HashSet<_> = a.ground_truth_pairs(&b).into_iter().collect();
        let tp = out
            .matches
            .iter()
            .filter(|&&(i, j, _)| truth.contains(&(i, j)))
            .count();
        assert!(tp as f64 / truth.len() as f64 > 0.6);
        assert!(out.comparisons < 100 * 100);
    }

    #[test]
    fn leakage_profile_reported() {
        let (a, b) = pair(2);
        let config = LuProtocolConfig::standard(b"k".to_vec()).unwrap();
        let out = lu_linkage(&a, &b, &config).unwrap();
        assert_eq!(out.leakage.lu_sees_filters, 200);
        assert!(!out.leakage.lu_sees_plaintext);
        assert!(!out.leakage.dos_learn_beyond_matches);
        // Uploads land in round 1, results in round 2, all acked.
        assert_eq!(out.cost.rounds, 2);
        assert_eq!(out.session_stats.retransmissions, 0);
    }

    #[test]
    fn collusion_exposes_other_party() {
        assert_eq!(collusion_leakage(100, 80, 0), 80);
        assert_eq!(collusion_leakage(100, 80, 1), 100);
    }

    #[test]
    fn crashed_lu_is_typed_timeout() {
        let (a, b) = pair(4);
        let mut config = LuProtocolConfig::standard(b"k".to_vec()).unwrap();
        config.fault_plan.crash = Some(crate::transport::Crash {
            party: PARTY_LU,
            at_round: 1,
        });
        let err = lu_linkage(&a, &b, &config).unwrap_err();
        assert!(matches!(err, PprlError::Timeout(_)), "{err}");
    }

    #[test]
    fn lu_and_two_party_agree_on_matches() {
        // Same encoders and thresholds: the LU model and direct exchange
        // compute the same mathematical function.
        use crate::two_party::{two_party_linkage, TwoPartyConfig};
        let (a, b) = pair(3);
        let lu_cfg = LuProtocolConfig::standard(b"k".to_vec()).unwrap();
        let tp_cfg = TwoPartyConfig {
            encoder: lu_cfg.encoder.clone(),
            lsh: lu_cfg.lsh.clone(),
            threshold: lu_cfg.threshold,
            fault_plan: lu_cfg.fault_plan,
            retry: lu_cfg.retry,
            sim_seed: lu_cfg.sim_seed,
        };
        let lu = lu_linkage(&a, &b, &lu_cfg).unwrap();
        let tp = two_party_linkage(&a, &b, &tp_cfg).unwrap();
        assert_eq!(lu.matches, tp.matches);
    }
}
