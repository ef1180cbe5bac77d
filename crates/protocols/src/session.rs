//! Reliable protocol sessions over an unreliable [`Transport`]:
//! acknowledgements, per-send timeouts, exponential-backoff retries, and
//! degraded-mode counting-Bloom-filter aggregation.
//!
//! A [`Session`] turns the at-most-once delivery of a [`Transport`] into a
//! reliable `transfer` primitive: every data frame is acknowledged by the
//! receiver, corrupt frames are discarded (checksum mismatch) and
//! retransmitted after a timeout, and a [`RetryPolicy`] bounds the number
//! of attempts. Communication cost is *measured* from the data frames that
//! actually cross the wire — payload bytes only, so a fault-free run
//! reproduces the analytical `CommCost` formulas of
//! [`crate::patterns::Pattern`] exactly, while retransmissions under
//! faults surface as measured overhead. Acknowledgement and framing
//! overhead is tallied separately in [`SessionStats`].
//!
//! [`aggregate_cbf`] runs one counting-Bloom-filter aggregation across the
//! parties along a [`Pattern`], degrading gracefully when parties crash:
//! Ring and Sequential skip a dead party and carry the checkpointed
//! partial aggregate forward from the last live holder, Tree re-parents a
//! dead node's children onto the next live sibling, and Hierarchical
//! promotes the next live group member to leader. Callers enforce their
//! quorum on the surviving contributor set.

use crate::patterns::Pattern;
use crate::transport::{Frame, FrameKind, Transport, FRAME_OVERHEAD};
use pprl_core::bitvec::BitVec;
use pprl_core::codec::Reader;
use pprl_core::error::{PprlError, Result};
use pprl_crypto::cost::CommCost;
use pprl_encoding::cbf::CountingBloomFilter;
use std::collections::{BTreeSet, HashSet};

/// Retry/timeout configuration for reliable transfers, in simulated ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmissions after the first attempt (0 = single attempt).
    pub max_retries: u32,
    /// Ticks to wait for an acknowledgement on the first attempt.
    pub base_timeout: u64,
    /// Timeout multiplier per attempt (exponential backoff).
    pub backoff: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_timeout: 16,
            backoff: 2,
        }
    }
}

impl RetryPolicy {
    /// Checks the policy is usable.
    pub fn validate(&self) -> Result<()> {
        if self.base_timeout == 0 {
            return Err(PprlError::invalid("base_timeout", "must be >= 1 tick"));
        }
        if self.backoff == 0 {
            return Err(PprlError::invalid("backoff", "must be >= 1"));
        }
        Ok(())
    }

    /// Ack deadline for the given 0-based attempt: `base · backoff^attempt`.
    pub fn timeout_for(&self, attempt: u32) -> u64 {
        self.base_timeout
            .saturating_mul(self.backoff.saturating_pow(attempt))
    }
}

/// Counters of session-level behaviour (everything `CommCost` deliberately
/// excludes: acks, framing overhead, retransmissions, discards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Data frames sent (including retransmissions).
    pub data_frames: usize,
    /// Acknowledgement frames sent.
    pub ack_frames: usize,
    /// Data frames sent beyond the first attempt of each transfer.
    pub retransmissions: usize,
    /// Frames discarded because their checksum or framing was invalid.
    pub corrupt_discarded: usize,
    /// Transfers that exhausted every retry.
    pub timeouts: usize,
    /// Framing + acknowledgement bytes (overhead beyond `CommCost.bytes`).
    pub overhead_bytes: usize,
}

/// A reliable messaging session over a [`Transport`].
#[derive(Debug)]
pub struct Session<T: Transport> {
    net: T,
    policy: RetryPolicy,
    next_seq: u32,
    delivered: HashSet<(usize, u32)>,
    dead: BTreeSet<usize>,
    cost: CommCost,
    stats: SessionStats,
}

impl<T: Transport> Session<T> {
    /// Opens a session over `net` with the given retry policy.
    pub fn new(net: T, policy: RetryPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(Session {
            net,
            policy,
            next_seq: 0,
            delivered: HashSet::new(),
            dead: BTreeSet::new(),
            cost: CommCost::new(),
            stats: SessionStats::default(),
        })
    }

    /// Measured communication cost so far (data payload bytes; rounds are
    /// marked by [`Session::end_round`]).
    pub fn cost(&self) -> CommCost {
        self.cost
    }

    /// Session-level counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Read access to the underlying transport.
    pub fn net(&self) -> &T {
        &self.net
    }

    /// Whether `party` has been marked unreachable (crash discovered via
    /// retry exhaustion).
    pub fn is_dead(&self, party: usize) -> bool {
        self.dead.contains(&party)
    }

    /// Parties discovered to have crashed, in ascending order.
    pub fn dead_parties(&self) -> Vec<usize> {
        self.dead.iter().copied().collect()
    }

    /// Marks the end of a synchronous protocol round, in both the measured
    /// cost and the transport (which schedules crashes by round).
    pub fn end_round(&mut self) {
        self.cost.end_round();
        self.net.end_round();
    }

    /// Reliably delivers `payload` from `from` to `to`: sends a framed,
    /// checksummed data message, waits for the acknowledgement, and
    /// retransmits with exponential backoff. Returns the payload exactly
    /// as the receiver decoded it. Fails with [`PprlError::Timeout`] after
    /// the retries are exhausted — if the transport reports the peer
    /// crashed, the party is remembered so later transfers fail fast.
    pub fn transfer(&mut self, from: usize, to: usize, payload: &[u8]) -> Result<Vec<u8>> {
        for party in [from, to] {
            if self.dead.contains(&party) {
                return Err(PprlError::Timeout(format!(
                    "party {party} unreachable (previously failed)"
                )));
            }
        }
        if from == to {
            // Loopback delivery (e.g. a reduction root that is also the
            // initiator): accounted like any message, but never at risk.
            if self.net.crashed(from) {
                self.dead.insert(from);
                return Err(PprlError::Timeout(format!("party {from} crashed")));
            }
            self.cost.send(payload.len());
            self.stats.data_frames += 1;
            self.stats.overhead_bytes += FRAME_OVERHEAD;
            return Ok(payload.to_vec());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame_bytes = Frame::data(seq, payload.to_vec()).encode();
        let mut received: Option<Vec<u8>> = None;
        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                self.stats.retransmissions += 1;
            }
            self.cost.send(payload.len());
            self.stats.data_frames += 1;
            self.stats.overhead_bytes += FRAME_OVERHEAD;
            self.net.send(from, to, frame_bytes.clone())?;
            let deadline = self.net.now() + self.policy.timeout_for(attempt);
            loop {
                self.pump_receiver(to, seq, &mut received)?;
                if self.pump_acks(from, seq) {
                    // An ack for `seq` implies the receiver decoded the
                    // frame in this call and recorded its payload.
                    return received.take().ok_or_else(|| {
                        PprlError::ProtocolError("ack received before delivery".into())
                    });
                }
                if self.net.now() >= deadline {
                    break;
                }
                self.net.advance(1);
            }
        }
        self.stats.timeouts += 1;
        for party in [to, from] {
            if self.net.crashed(party) {
                self.dead.insert(party);
                return Err(PprlError::Timeout(format!(
                    "party {party} crashed: no acknowledgement from {to} after {} attempts",
                    self.policy.max_retries + 1
                )));
            }
        }
        Err(PprlError::Timeout(format!(
            "no acknowledgement from party {to} after {} attempts",
            self.policy.max_retries + 1
        )))
    }

    /// Drains `to`'s inbox: acknowledges every valid data frame (including
    /// re-deliveries) and records the payload of the awaited sequence.
    fn pump_receiver(&mut self, to: usize, seq: u32, received: &mut Option<Vec<u8>>) -> Result<()> {
        while let Some((src, raw)) = self.net.recv(to) {
            match Frame::decode(&raw) {
                Err(_) => self.stats.corrupt_discarded += 1,
                Ok(frame) => match frame.kind {
                    FrameKind::Data => {
                        let first_delivery = self.delivered.insert((to, frame.seq));
                        if first_delivery && frame.seq == seq {
                            *received = Some(frame.payload);
                        }
                        let ack = Frame::ack(frame.seq).encode();
                        self.stats.ack_frames += 1;
                        self.stats.overhead_bytes += ack.len();
                        self.net.send(to, src, ack)?;
                    }
                    // A stray ack in the receiver's inbox is stale; drop it.
                    FrameKind::Ack => {}
                },
            }
        }
        Ok(())
    }

    /// Drains `from`'s inbox; true when an ack for `seq` arrived. Stale
    /// acks for earlier transfers are ignored.
    fn pump_acks(&mut self, from: usize, seq: u32) -> bool {
        let mut acked = false;
        while let Some((_, raw)) = self.net.recv(from) {
            match Frame::decode(&raw) {
                Err(_) => self.stats.corrupt_discarded += 1,
                Ok(frame) => {
                    if frame.kind == FrameKind::Ack && frame.seq == seq {
                        acked = true;
                    }
                }
            }
        }
        acked
    }
}

// ---------- wire codecs ----------

/// Packs a counting filter as 4-bit nibbles into exactly
/// `len.div_ceil(8) * 4` bytes — the analytical payload size of one
/// aggregate message. Exact for counts ≤ 15 (≤ 15 parties).
pub fn pack_counts(cbf: &CountingBloomFilter) -> Result<Vec<u8>> {
    let len = cbf.len();
    let mut out = vec![0u8; len.div_ceil(8) * 4];
    for (i, &c) in cbf.counts().iter().enumerate() {
        if c > 15 {
            return Err(PprlError::Unsupported(format!(
                "count {c} exceeds the 4-bit wire packing (more than 15 parties)"
            )));
        }
        out[i / 2] |= (c as u8) << ((i % 2) * 4);
    }
    Ok(out)
}

/// Inverse of [`pack_counts`] for a filter of `len` positions.
pub fn unpack_counts(bytes: &[u8], len: usize) -> Result<CountingBloomFilter> {
    if bytes.len() != len.div_ceil(8) * 4 {
        return Err(PprlError::Transport(format!(
            "aggregate payload of {} bytes, expected {}",
            bytes.len(),
            len.div_ceil(8) * 4
        )));
    }
    let counts = (0..len)
        .map(|i| ((bytes[i / 2] >> ((i % 2) * 4)) & 0x0F) as u32)
        .collect();
    Ok(CountingBloomFilter::from_counts(counts))
}

/// Encodes one match-list entry as the protocol's 16-byte message:
/// `row_a u32 LE | row_b u32 LE | similarity f64 LE`.
pub fn encode_match(a: usize, b: usize, similarity: f64) -> Result<Vec<u8>> {
    let (a, b) = (
        u32::try_from(a).map_err(|_| PprlError::invalid("row", "row index exceeds u32"))?,
        u32::try_from(b).map_err(|_| PprlError::invalid("row", "row index exceeds u32"))?,
    );
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
    out.extend_from_slice(&similarity.to_le_bytes());
    Ok(out)
}

/// Inverse of [`encode_match`].
pub fn decode_match(bytes: &[u8]) -> Result<(usize, usize, f64)> {
    let mut r = Reader::new(bytes, PprlError::Transport);
    let entry = (r.u32()? as usize, r.u32()? as usize, r.f64()?);
    r.finish()?;
    Ok(entry)
}

// ---------- degraded-mode aggregation ----------

/// Result of one counting-Bloom-filter aggregation.
#[derive(Debug, Clone)]
pub struct AggregateOutcome {
    /// The aggregate as decoded by the initiator.
    pub cbf: CountingBloomFilter,
    /// Parties whose filter made it into the aggregate, ascending. Equal
    /// to the member list unless parties crashed mid-aggregation.
    pub contributors: Vec<usize>,
}

/// A partial aggregate travelling between parties.
#[derive(Debug, Clone)]
struct Carry {
    cbf: CountingBloomFilter,
    contributors: Vec<usize>,
}

/// One hop of a ring/chain: the holder forwards the running aggregate to
/// each live member in turn, who folds in their own filter; the final hop
/// returns the total to the first member. Dead members are skipped (the
/// last live holder keeps the checkpointed partial aggregate). With
/// `per_hop_round`, every hop closes a round (top-level Ring/Sequential);
/// without, the caller accounts rounds structurally (intra-group rings).
fn ring_pass<T: Transport>(
    session: &mut Session<T>,
    items: &[(usize, Carry)],
    per_hop_round: bool,
    filter_len: usize,
) -> Result<Carry> {
    let start = items[0].0;
    let mut acc = items[0].1.clone();
    let mut holder = start;
    for (party, carry) in &items[1..] {
        if session.is_dead(*party) {
            continue;
        }
        let packed = pack_counts(&acc.cbf)?;
        match session.transfer(holder, *party, &packed) {
            Ok(received) => {
                let mut cbf = unpack_counts(&received, filter_len)?;
                cbf.merge(&carry.cbf)?;
                acc.cbf = cbf;
                acc.contributors.extend_from_slice(&carry.contributors);
                holder = *party;
                if per_hop_round {
                    session.end_round();
                }
            }
            // The target died: skip it, keep the checkpoint at the holder.
            Err(_) if session.is_dead(*party) => continue,
            Err(e) => return Err(e),
        }
    }
    let packed = pack_counts(&acc.cbf)?;
    let received = session.transfer(holder, start, &packed)?;
    acc.cbf = unpack_counts(&received, filter_len)?;
    if per_hop_round {
        session.end_round();
    }
    Ok(acc)
}

/// Runs one counting-Bloom-filter aggregation of `members` (party id +
/// that party's filter; the first member initiates and receives the
/// result) along `pattern`, exchanging every message through `session`.
///
/// Fault-free, the measured cost equals
/// [`Pattern::aggregation_cost`]`(members.len(), len.div_ceil(8) * 4)`
/// exactly. When parties crash mid-aggregation the pattern degrades —
/// Ring/Sequential skip the dead party, Tree re-parents its children onto
/// the next live sibling, Hierarchical promotes a new group leader — and
/// the surviving contributor set is reported for the caller's quorum
/// check. A crash discovered mid-pass (including the initiator's) re-runs
/// the aggregation over the survivors, with the first surviving member as
/// initiator; an unrecoverable failure (fewer than two live parties, or a
/// timeout without a crash) surfaces as [`PprlError::Timeout`].
pub fn aggregate_cbf<T: Transport>(
    session: &mut Session<T>,
    pattern: Pattern,
    members: &[(usize, &BitVec)],
) -> Result<AggregateOutcome> {
    if members.len() < 2 {
        return Err(PprlError::invalid("members", "need at least two parties"));
    }
    pattern.validate()?;
    loop {
        let live: Vec<(usize, &BitVec)> = members
            .iter()
            .filter(|(party, _)| !session.is_dead(*party))
            .copied()
            .collect();
        if live.len() < 2 {
            return Err(PprlError::Timeout(format!(
                "only {} live parties remain, aggregation needs two",
                live.len()
            )));
        }
        let dead_before = session.dead_parties().len();
        match aggregate_once(session, pattern, &live) {
            // An aggregate of fewer than two filters is no aggregate: the
            // peers all died mid-pass.
            Ok(outcome) if outcome.contributors.len() < 2 => {
                return Err(PprlError::Timeout(
                    "all other parties crashed mid-aggregation".into(),
                ));
            }
            Ok(outcome) => return Ok(outcome),
            // A crash surfaced mid-pass: re-route around the newly dead
            // party by re-running over the survivors.
            Err(e @ PprlError::Timeout(_)) => {
                if session.dead_parties().len() == dead_before {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// One aggregation attempt over parties believed live at entry.
fn aggregate_once<T: Transport>(
    session: &mut Session<T>,
    pattern: Pattern,
    members: &[(usize, &BitVec)],
) -> Result<AggregateOutcome> {
    let filter_len = members[0].1.len();
    let items: Vec<(usize, Carry)> = members
        .iter()
        .map(|&(party, filter)| {
            let mut cbf = CountingBloomFilter::zeros(filter_len);
            cbf.add_filter(filter)?;
            Ok((
                party,
                Carry {
                    cbf,
                    contributors: vec![party],
                },
            ))
        })
        .collect::<Result<_>>()?;

    let mut outcome = match pattern {
        // A sequential chain and a ring have identical traffic: p-1
        // forward hops plus a closing delivery to the initiator.
        Pattern::Sequential | Pattern::Ring => {
            let carry = ring_pass(session, &items, true, filter_len)?;
            AggregateOutcome {
                cbf: carry.cbf,
                contributors: carry.contributors,
            }
        }
        Pattern::Tree { fanout } => {
            let initiator = items[0].0;
            let mut level = items;
            while level.len() > 1 {
                let mut next = Vec::new();
                for chunk in level.chunks(fanout) {
                    let mut receiver = chunk[0].0;
                    let mut acc = chunk[0].1.clone();
                    for (party, carry) in &chunk[1..] {
                        if session.is_dead(*party) {
                            continue;
                        }
                        if session.is_dead(receiver) {
                            // Re-parent: the sender becomes the subtree
                            // root; whatever the dead parent had already
                            // absorbed is lost with it.
                            receiver = *party;
                            acc = carry.clone();
                            continue;
                        }
                        match session.transfer(*party, receiver, &pack_counts(&carry.cbf)?) {
                            Ok(received) => {
                                let cbf = unpack_counts(&received, filter_len)?;
                                acc.cbf.merge(&cbf)?;
                                acc.contributors.extend_from_slice(&carry.contributors);
                            }
                            Err(_) if session.is_dead(receiver) => {
                                receiver = *party;
                                acc = carry.clone();
                            }
                            Err(_) if session.is_dead(*party) => {}
                            Err(e) => return Err(e),
                        }
                    }
                    if !session.is_dead(receiver) {
                        next.push((receiver, acc));
                    }
                }
                session.end_round();
                if next.is_empty() {
                    return Err(PprlError::Timeout(
                        "every subtree root crashed mid-aggregation".into(),
                    ));
                }
                level = next;
            }
            let (root, acc) = level.remove(0);
            let received = session.transfer(root, initiator, &pack_counts(&acc.cbf)?)?;
            session.end_round();
            AggregateOutcome {
                cbf: unpack_counts(&received, filter_len)?,
                contributors: acc.contributors,
            }
        }
        Pattern::Hierarchical { group_size } => {
            let mut leaders: Vec<(usize, Carry)> = Vec::new();
            for group in items.chunks(group_size) {
                let live: Vec<(usize, Carry)> = group
                    .iter()
                    .filter(|(party, _)| !session.is_dead(*party))
                    .cloned()
                    .collect();
                // A fully crashed group contributes nothing; otherwise the
                // first live member is (promoted) leader.
                let Some(leader) = live.first().map(|(party, _)| *party) else {
                    continue;
                };
                let carry = ring_pass(session, &live, false, filter_len)?;
                leaders.push((leader, carry));
            }
            // Intra-group rings run in parallel: group_size rounds.
            for _ in 0..group_size {
                session.end_round();
            }
            if leaders.is_empty() {
                return Err(PprlError::Timeout("every group crashed".into()));
            }
            let carry = ring_pass(session, &leaders, true, filter_len)?;
            AggregateOutcome {
                cbf: carry.cbf,
                contributors: carry.contributors,
            }
        }
    };
    outcome.contributors.sort_unstable();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Crash, FaultPlan, SimNet};
    use pprl_core::rng::SplitMix64;

    fn session(parties: usize, plan: FaultPlan, seed: u64) -> Session<SimNet> {
        Session::new(
            SimNet::new(parties, plan, seed).unwrap(),
            RetryPolicy::default(),
        )
        .unwrap()
    }

    fn random_filters(rng: &mut SplitMix64, parties: usize, len: usize) -> Vec<BitVec> {
        (0..parties)
            .map(|_| {
                let ones: Vec<usize> = (0..len / 3)
                    .map(|_| rng.next_below(len as u64) as usize)
                    .collect();
                BitVec::from_positions(len, &ones).unwrap()
            })
            .collect()
    }

    #[test]
    fn transfer_round_trips_payload_and_counts_cost() {
        let mut s = session(2, FaultPlan::none(), 1);
        let got = s.transfer(0, 1, b"hello wire").unwrap();
        assert_eq!(got, b"hello wire");
        assert_eq!(s.cost().messages, 1);
        assert_eq!(s.cost().bytes, 10);
        assert_eq!(s.stats().data_frames, 1);
        assert_eq!(s.stats().ack_frames, 1);
        assert_eq!(s.stats().retransmissions, 0);
    }

    #[test]
    fn retries_recover_from_heavy_drops() {
        // A 30% drop rate loses data or ack on ~half the attempts; eight
        // retries push the per-transfer failure odds below 1 in 400, and
        // the seeds are fixed, so every one of these transfers succeeds.
        let policy = RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::default()
        };
        let mut delivered = 0;
        let mut retransmissions = 0;
        for seed in 0..20 {
            let net = SimNet::new(2, FaultPlan::with_drop_rate(0.3), seed).unwrap();
            let mut s = Session::new(net, policy).unwrap();
            if let Ok(got) = s.transfer(0, 1, b"payload") {
                assert_eq!(got, b"payload");
                delivered += 1;
            }
            retransmissions += s.stats().retransmissions;
        }
        assert_eq!(delivered, 20, "8 retries should survive 30% drop");
        assert!(retransmissions > 0, "drops must have forced retries");
    }

    #[test]
    fn corruption_is_discarded_and_retransmitted() {
        // Every frame corrupted: retries exhaust, but the failure is a
        // typed timeout, never garbage payload.
        let plan = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::none()
        };
        let mut s = session(2, plan, 3);
        let err = s.transfer(0, 1, b"data").unwrap_err();
        assert!(matches!(err, PprlError::Timeout(_)), "{err}");
        assert!(s.stats().corrupt_discarded > 0);
        assert_eq!(s.stats().timeouts, 1);
    }

    #[test]
    fn crashed_peer_times_out_and_is_remembered() {
        let plan = FaultPlan {
            crash: Some(Crash {
                party: 1,
                at_round: 1,
            }),
            ..FaultPlan::none()
        };
        let mut s = session(3, plan, 4);
        let err = s.transfer(0, 1, b"x").unwrap_err();
        assert!(matches!(err, PprlError::Timeout(_)));
        assert!(s.is_dead(1));
        assert_eq!(s.dead_parties(), vec![1]);
        // Fast-fail without burning more simulated time.
        let before = s.net().now();
        assert!(s.transfer(0, 1, b"y").is_err());
        assert_eq!(s.net().now(), before);
        // Other parties still reachable.
        assert_eq!(s.transfer(0, 2, b"z").unwrap(), b"z");
    }

    #[test]
    fn pack_unpack_round_trip_and_size() {
        let filters = random_filters(&mut SplitMix64::new(5), 3, 100);
        let refs: Vec<&BitVec> = filters.iter().collect();
        let cbf = CountingBloomFilter::from_filters(&refs).unwrap();
        let packed = pack_counts(&cbf).unwrap();
        assert_eq!(packed.len(), 100usize.div_ceil(8) * 4);
        assert_eq!(unpack_counts(&packed, 100).unwrap(), cbf);
        assert!(unpack_counts(&packed, 64).is_err());
    }

    #[test]
    fn pack_rejects_overflowing_counts() {
        let cbf = CountingBloomFilter::from_counts(vec![16; 8]);
        assert!(matches!(pack_counts(&cbf), Err(PprlError::Unsupported(_))));
    }

    #[test]
    fn match_message_round_trip() {
        let bytes = encode_match(7, 123456, 0.8125).unwrap();
        assert_eq!(bytes.len(), 16);
        assert_eq!(decode_match(&bytes).unwrap(), (7, 123456, 0.8125));
        assert!(decode_match(&bytes[..12]).is_err());
    }

    #[test]
    fn fault_free_aggregation_matches_local_and_analytical_cost() {
        let filters = random_filters(&mut SplitMix64::new(6), 6, 120);
        let refs: Vec<&BitVec> = filters.iter().collect();
        let expected = CountingBloomFilter::from_filters(&refs).unwrap();
        let payload = 120usize.div_ceil(8) * 4;
        for pattern in [
            Pattern::Sequential,
            Pattern::Ring,
            Pattern::Tree { fanout: 2 },
            Pattern::Tree { fanout: 3 },
            Pattern::Hierarchical { group_size: 2 },
            Pattern::Hierarchical { group_size: 3 },
        ] {
            let mut s = session(6, FaultPlan::none(), 7);
            let members: Vec<(usize, &BitVec)> = filters.iter().enumerate().collect();
            let out = aggregate_cbf(&mut s, pattern, &members).unwrap();
            assert_eq!(out.cbf, expected, "{pattern:?}");
            assert_eq!(out.contributors, vec![0, 1, 2, 3, 4, 5]);
            let analytical = pattern.aggregation_cost(6, payload).unwrap();
            assert_eq!(s.cost(), analytical, "{pattern:?}");
        }
    }

    #[test]
    fn ring_skips_crashed_party() {
        let filters = random_filters(&mut SplitMix64::new(8), 5, 80);
        let plan = FaultPlan {
            crash: Some(Crash {
                party: 2,
                at_round: 1,
            }),
            ..FaultPlan::none()
        };
        let mut s = session(5, plan, 9);
        let members: Vec<(usize, &BitVec)> = filters.iter().enumerate().collect();
        let out = aggregate_cbf(&mut s, Pattern::Ring, &members).unwrap();
        assert_eq!(out.contributors, vec![0, 1, 3, 4]);
        let alive: Vec<&BitVec> = [0usize, 1, 3, 4].iter().map(|&i| &filters[i]).collect();
        assert_eq!(
            out.cbf,
            CountingBloomFilter::from_filters(&alive).unwrap(),
            "aggregate holds exactly the live parties' filters"
        );
    }

    #[test]
    fn tree_reparents_children_of_crashed_node() {
        let filters = random_filters(&mut SplitMix64::new(10), 6, 80);
        let plan = FaultPlan {
            crash: Some(Crash {
                party: 1,
                at_round: 1,
            }),
            ..FaultPlan::none()
        };
        let mut s = session(6, plan, 11);
        let members: Vec<(usize, &BitVec)> = filters.iter().enumerate().collect();
        let out = aggregate_cbf(&mut s, Pattern::Tree { fanout: 3 }, &members).unwrap();
        assert_eq!(out.contributors, vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn hierarchical_promotes_group_leader() {
        let filters = random_filters(&mut SplitMix64::new(12), 6, 80);
        // Party 3 leads the second group {3, 4, 5}; its crash promotes 4.
        let plan = FaultPlan {
            crash: Some(Crash {
                party: 3,
                at_round: 1,
            }),
            ..FaultPlan::none()
        };
        let mut s = session(6, plan, 13);
        let members: Vec<(usize, &BitVec)> = filters.iter().enumerate().collect();
        let out = aggregate_cbf(&mut s, Pattern::Hierarchical { group_size: 3 }, &members).unwrap();
        assert_eq!(out.contributors, vec![0, 1, 2, 4, 5]);
    }

    #[test]
    fn crashed_initiator_recovers_with_remaining_parties() {
        let filters = random_filters(&mut SplitMix64::new(14), 3, 80);
        let plan = FaultPlan {
            crash: Some(Crash {
                party: 0,
                at_round: 1,
            }),
            ..FaultPlan::none()
        };
        let mut s = session(3, plan, 15);
        let members: Vec<(usize, &BitVec)> = filters.iter().enumerate().collect();
        let out = aggregate_cbf(&mut s, Pattern::Ring, &members).unwrap();
        assert_eq!(out.contributors, vec![1, 2]);
    }

    #[test]
    fn aggregation_below_two_live_parties_is_typed_timeout() {
        let filters = random_filters(&mut SplitMix64::new(16), 2, 80);
        let plan = FaultPlan {
            crash: Some(Crash {
                party: 1,
                at_round: 1,
            }),
            ..FaultPlan::none()
        };
        let mut s = session(2, plan, 17);
        let members: Vec<(usize, &BitVec)> = filters.iter().enumerate().collect();
        let err = aggregate_cbf(&mut s, Pattern::Ring, &members).unwrap_err();
        assert!(matches!(err, PprlError::Timeout(_)), "{err}");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.timeout_for(0), 16);
        assert_eq!(policy.timeout_for(1), 32);
        assert_eq!(policy.timeout_for(2), 64);
        assert!(RetryPolicy {
            base_timeout: 0,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
    }
}
