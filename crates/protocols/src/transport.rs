//! Simulated unreliable transport for protocol runs.
//!
//! The paper's multi-party protocols (§3.1, §3.4 "advanced communication
//! patterns", ref \[42]) assume every party answers every round. This
//! module supplies the machinery to drop that assumption: a [`Transport`]
//! abstraction over point-to-point message delivery, a deterministic
//! [`SimNet`] simulated network driven by [`pprl_core::rng::SplitMix64`],
//! and a configurable [`FaultPlan`] injecting message drops, duplication,
//! corruption, bounded delays and party crashes at a chosen round.
//!
//! Messages travel as framed wire bytes (length prefix, sequence number,
//! kind tag, then `pprl_core::codec`'s checksum trailer), parsed through
//! `pprl_core::codec`'s bounds-checked `Reader`, so corruption is
//! *detected* — a garbled frame surfaces as [`PprlError::Transport`] at
//! the receiver instead of a silently wrong aggregate.

use pprl_core::codec::{append_checksum, checked_body, Reader};
use pprl_core::error::{PprlError, Result};
use pprl_core::rng::SplitMix64;
use std::collections::VecDeque;

/// Bytes of frame overhead around the payload: length (4) + sequence (4) +
/// kind (1) + checksum (8).
pub const FRAME_OVERHEAD: usize = 17;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Application payload.
    Data,
    /// Acknowledgement of a previously received data frame.
    Ack,
}

/// A wire message: sequence number, kind, payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Session-unique sequence number (acks echo the acked sequence).
    pub seq: u32,
    /// Data or acknowledgement.
    pub kind: FrameKind,
    /// Application payload (empty for acks).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A data frame.
    pub fn data(seq: u32, payload: Vec<u8>) -> Self {
        Frame {
            seq,
            kind: FrameKind::Data,
            payload,
        }
    }

    /// An acknowledgement for `seq`.
    pub fn ack(seq: u32) -> Self {
        Frame {
            seq,
            kind: FrameKind::Ack,
            payload: Vec::new(),
        }
    }

    /// Serialises the frame: `len u32 LE | seq u32 LE | kind u8 | payload |
    /// sum u64 LE` where the checksum covers everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + FRAME_OVERHEAD);
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(match self.kind {
            FrameKind::Data => 0,
            FrameKind::Ack => 1,
        });
        out.extend_from_slice(&self.payload);
        append_checksum(&mut out);
        out
    }

    /// Parses and verifies a frame; any malformed or corrupted byte yields
    /// [`PprlError::Transport`].
    pub fn decode(bytes: &[u8]) -> Result<Frame> {
        let mut r = Reader::new(bytes, PprlError::Transport);
        let declared = r.u32()? as usize;
        if bytes.len() != declared + FRAME_OVERHEAD {
            return Err(PprlError::Transport(format!(
                "length mismatch: declared {declared} payload bytes in a {}-byte frame",
                bytes.len()
            )));
        }
        checked_body(bytes, PprlError::Transport)?;
        let seq = r.u32()?;
        let kind = match r.u8()? {
            0 => FrameKind::Data,
            1 => FrameKind::Ack,
            other => {
                return Err(PprlError::Transport(format!("unknown frame kind {other}")));
            }
        };
        Ok(Frame {
            seq,
            kind,
            payload: r.take(declared)?.to_vec(),
        })
    }
}

/// A party crash scheduled by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    /// Which party crashes.
    pub party: usize,
    /// First protocol round (1-based) in which the party is down; `1`
    /// means crashed from the start.
    pub at_round: usize,
}

/// Fault injection configuration for a [`SimNet`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability a sent message is silently lost.
    pub drop_rate: f64,
    /// Probability a sent message is delivered twice.
    pub duplicate_rate: f64,
    /// Probability one byte of a sent message is flipped in flight.
    pub corrupt_rate: f64,
    /// Maximum extra delivery delay in ticks (actual delay uniform in
    /// `0..=max_delay`).
    pub max_delay: u64,
    /// Optional party crash.
    pub crash: Option<Crash>,
}

impl FaultPlan {
    /// A perfectly reliable network.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan that only drops messages at `rate`.
    pub fn with_drop_rate(rate: f64) -> Self {
        FaultPlan {
            drop_rate: rate,
            ..FaultPlan::none()
        }
    }

    /// Checks all rates are valid probabilities.
    pub fn validate(&self) -> Result<()> {
        let rates: [(&'static str, f64); 3] = [
            ("drop_rate", self.drop_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("corrupt_rate", self.corrupt_rate),
        ];
        for (name, rate) in rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(PprlError::invalid(
                    name,
                    format!("must be in [0,1], got {rate}"),
                ));
            }
        }
        Ok(())
    }

    /// True when the plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        *self == FaultPlan::none()
    }
}

/// Counters of what the network actually did to the traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: usize,
    /// Messages lost to the drop fault.
    pub dropped: usize,
    /// Messages with one byte flipped in flight.
    pub corrupted: usize,
    /// Extra copies delivered by the duplication fault.
    pub duplicated: usize,
    /// Messages swallowed because the sender or receiver had crashed.
    pub swallowed: usize,
    /// Messages actually handed to a receiver.
    pub delivered: usize,
}

/// Point-to-point message delivery between numbered parties, with a
/// simulated clock.
pub trait Transport {
    /// Number of parties attached to the network.
    fn parties(&self) -> usize;
    /// Current simulated time in ticks.
    fn now(&self) -> u64;
    /// Advances simulated time.
    fn advance(&mut self, ticks: u64);
    /// Hands a message to the network for delivery. `Ok` means the network
    /// accepted it — not that it will arrive.
    fn send(&mut self, from: usize, to: usize, bytes: Vec<u8>) -> Result<()>;
    /// Next message deliverable to `party` at the current time, with its
    /// sender, if any.
    fn recv(&mut self, party: usize) -> Option<(usize, Vec<u8>)>;
    /// Marks the end of a protocol round (drives scheduled crashes).
    fn end_round(&mut self);
    /// Whether `party` has crashed.
    fn crashed(&self, party: usize) -> bool;
}

/// An in-flight message.
#[derive(Debug, Clone)]
struct Envelope {
    deliver_at: u64,
    from: usize,
    bytes: Vec<u8>,
}

/// Deterministic simulated network: per-destination delivery queues, a
/// tick clock, and fault injection from a seeded [`SplitMix64`].
#[derive(Debug, Clone)]
pub struct SimNet {
    parties: usize,
    plan: FaultPlan,
    rng: SplitMix64,
    clock: u64,
    round: usize,
    queues: Vec<VecDeque<Envelope>>,
    stats: NetStats,
}

impl SimNet {
    /// A network of `parties` parties with the given fault plan and seed.
    pub fn new(parties: usize, plan: FaultPlan, seed: u64) -> Result<Self> {
        if parties == 0 {
            return Err(PprlError::invalid("parties", "need at least one party"));
        }
        plan.validate()?;
        if let Some(crash) = &plan.crash {
            if crash.party >= parties {
                return Err(PprlError::invalid(
                    "crash.party",
                    format!("party {} out of range for {} parties", crash.party, parties),
                ));
            }
        }
        Ok(SimNet {
            parties,
            plan,
            rng: SplitMix64::new(seed),
            clock: 0,
            round: 1,
            queues: vec![VecDeque::new(); parties],
            stats: NetStats::default(),
        })
    }

    /// Network-side fault counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Current protocol round (1-based).
    pub fn round(&self) -> usize {
        self.round
    }

    fn enqueue(&mut self, to: usize, envelope: Envelope) {
        self.queues[to].push_back(envelope);
    }
}

impl Transport for SimNet {
    fn parties(&self) -> usize {
        self.parties
    }

    fn now(&self) -> u64 {
        self.clock
    }

    fn advance(&mut self, ticks: u64) {
        self.clock += ticks;
    }

    fn send(&mut self, from: usize, to: usize, mut bytes: Vec<u8>) -> Result<()> {
        if from >= self.parties || to >= self.parties {
            return Err(PprlError::Transport(format!(
                "party out of range: {from} -> {to} with {} parties",
                self.parties
            )));
        }
        self.stats.sent += 1;
        if self.crashed(from) || self.crashed(to) {
            // A crashed endpoint neither sends nor receives; the network
            // accepts the call so the session layer observes a timeout,
            // exactly as a live sender would.
            self.stats.swallowed += 1;
            return Ok(());
        }
        if self.rng.next_bool(self.plan.drop_rate) {
            self.stats.dropped += 1;
            return Ok(());
        }
        if !bytes.is_empty() && self.rng.next_bool(self.plan.corrupt_rate) {
            let pos = self.rng.next_below(bytes.len() as u64) as usize;
            // XOR with a non-zero delta so the byte always changes.
            bytes[pos] ^= 1 + self.rng.next_below(255) as u8;
            self.stats.corrupted += 1;
        }
        let delay = if self.plan.max_delay == 0 {
            0
        } else {
            self.rng.next_below(self.plan.max_delay + 1)
        };
        let deliver_at = self.clock + 1 + delay;
        let duplicate = self.rng.next_bool(self.plan.duplicate_rate);
        self.enqueue(
            to,
            Envelope {
                deliver_at,
                from,
                bytes: bytes.clone(),
            },
        );
        if duplicate {
            let extra_delay = if self.plan.max_delay == 0 {
                0
            } else {
                self.rng.next_below(self.plan.max_delay + 1)
            };
            self.stats.duplicated += 1;
            self.enqueue(
                to,
                Envelope {
                    deliver_at: self.clock + 1 + extra_delay,
                    from,
                    bytes,
                },
            );
        }
        Ok(())
    }

    fn recv(&mut self, party: usize) -> Option<(usize, Vec<u8>)> {
        if party >= self.parties || self.crashed(party) {
            return None;
        }
        let queue = &mut self.queues[party];
        // Earliest-deadline-first among messages already deliverable.
        let mut best: Option<(usize, u64)> = None;
        for (i, e) in queue.iter().enumerate() {
            if e.deliver_at <= self.clock && best.is_none_or(|(_, t)| e.deliver_at < t) {
                best = Some((i, e.deliver_at));
            }
        }
        let (idx, _) = best?;
        let envelope = queue.remove(idx).expect("index in range");
        self.stats.delivered += 1;
        Some((envelope.from, envelope.bytes))
    }

    fn end_round(&mut self) {
        self.round += 1;
    }

    fn crashed(&self, party: usize) -> bool {
        self.plan
            .crash
            .is_some_and(|c| c.party == party && self.round >= c.at_round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let f = Frame::data(42, vec![1, 2, 3, 250]);
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back, f);
        let a = Frame::ack(7);
        assert_eq!(Frame::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn reliable_network_delivers_in_order() {
        let mut net = SimNet::new(3, FaultPlan::none(), 1).unwrap();
        net.send(0, 1, vec![1]).unwrap();
        net.send(0, 1, vec![2]).unwrap();
        assert!(net.recv(1).is_none(), "nothing deliverable at t=0");
        net.advance(1);
        assert_eq!(net.recv(1).unwrap(), (0, vec![1]));
        assert_eq!(net.recv(1).unwrap(), (0, vec![2]));
        assert!(net.recv(1).is_none());
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn drop_plan_loses_messages() {
        let mut net = SimNet::new(2, FaultPlan::with_drop_rate(1.0), 2).unwrap();
        net.send(0, 1, vec![9]).unwrap();
        net.advance(10);
        assert!(net.recv(1).is_none());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn corruption_changes_bytes_and_is_detected_by_frames() {
        let plan = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::none()
        };
        let mut net = SimNet::new(2, plan, 3).unwrap();
        let frame = Frame::data(1, vec![7; 32]).encode();
        net.send(0, 1, frame.clone()).unwrap();
        net.advance(1);
        let (_, got) = net.recv(1).unwrap();
        assert_ne!(got, frame);
        assert!(Frame::decode(&got).is_err());
    }

    #[test]
    fn duplication_delivers_twice() {
        let plan = FaultPlan {
            duplicate_rate: 1.0,
            ..FaultPlan::none()
        };
        let mut net = SimNet::new(2, plan, 4).unwrap();
        net.send(0, 1, vec![3]).unwrap();
        net.advance(1);
        assert_eq!(net.recv(1).unwrap().1, vec![3]);
        assert_eq!(net.recv(1).unwrap().1, vec![3]);
        assert!(net.recv(1).is_none());
    }

    #[test]
    fn delay_defers_delivery() {
        let plan = FaultPlan {
            max_delay: 5,
            ..FaultPlan::none()
        };
        let mut net = SimNet::new(2, plan, 5).unwrap();
        net.send(0, 1, vec![1]).unwrap();
        let mut waited = 0;
        while net.recv(1).is_none() {
            net.advance(1);
            waited += 1;
            assert!(waited <= 6, "delay bounded by max_delay + 1");
        }
    }

    #[test]
    fn crash_swallows_traffic_from_its_round() {
        let plan = FaultPlan {
            crash: Some(Crash {
                party: 1,
                at_round: 2,
            }),
            ..FaultPlan::none()
        };
        let mut net = SimNet::new(3, plan, 6).unwrap();
        assert!(!net.crashed(1));
        net.send(0, 1, vec![1]).unwrap();
        net.advance(1);
        assert!(net.recv(1).is_some(), "alive in round 1");
        net.end_round();
        assert!(net.crashed(1));
        net.send(0, 1, vec![2]).unwrap();
        net.send(1, 2, vec![3]).unwrap();
        net.advance(10);
        assert!(net.recv(1).is_none(), "crashed receiver gets nothing");
        assert!(net.recv(2).is_none(), "crashed sender sends nothing");
        assert_eq!(net.stats().swallowed, 2);
    }

    #[test]
    fn plan_validation() {
        assert!(FaultPlan::with_drop_rate(1.5).validate().is_err());
        assert!(FaultPlan::with_drop_rate(0.1).validate().is_ok());
        assert!(FaultPlan::none().is_none());
        assert!(SimNet::new(0, FaultPlan::none(), 1).is_err());
        let bad_crash = FaultPlan {
            crash: Some(Crash {
                party: 9,
                at_round: 1,
            }),
            ..FaultPlan::none()
        };
        assert!(SimNet::new(3, bad_crash, 1).is_err());
    }

    #[test]
    fn determinism_same_seed_same_behaviour() {
        let plan = FaultPlan {
            drop_rate: 0.3,
            corrupt_rate: 0.2,
            max_delay: 3,
            ..FaultPlan::none()
        };
        let run = |seed: u64| {
            let mut net = SimNet::new(2, plan, seed).unwrap();
            for i in 0..50u8 {
                net.send(0, 1, vec![i; 4]).unwrap();
            }
            net.advance(10);
            let mut got = Vec::new();
            while let Some((_, b)) = net.recv(1) {
                got.push(b);
            }
            (got, *net.stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn out_of_range_send_rejected() {
        let mut net = SimNet::new(2, FaultPlan::none(), 1).unwrap();
        assert!(matches!(
            net.send(0, 5, vec![]),
            Err(PprlError::Transport(_))
        ));
    }
}
