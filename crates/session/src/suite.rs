//! The record-layer cipher suite and its transcript-bound negotiation.
//!
//! Wire v4 carries one record cipher today: Poly1305 frame tags and a
//! ChaCha20 body keystream (see `pprl-crypto::chacha`). The suite is
//! still *negotiated*, so a later suite can be added without a wire
//! change: the client offers a bitmask in `HELLO`, the server selects
//! one code in `WELCOME`, and both the offer (inside the HELLO payload)
//! and the selection (spliced into the transcript hash) are covered by
//! the mutual confirmation MACs. A man-in-the-middle that rewrites
//! either byte changes the transcript and is caught by key confirmation
//! — exactly the downgrade resistance the encryption flag already has.
//!
//! Offer bits this build does not know are ignored, and an offer with
//! no known bit is refused with "no common cipher suite" before any key
//! material is spent. Code `0x01` belonged to an HMAC-CTR suite that is
//! no longer built; a peer that offers only it is refused that way.

use pprl_core::error::{PprlError, Result};

/// A record-layer cipher suite. The discriminant is both the wire code
/// (the `WELCOME` selection byte) and the bit it occupies in a
/// [`SuiteOffer`] bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CipherSuite {
    /// Poly1305 frame tags (one-time keys from ChaCha20 block 0, RFC
    /// 8439 §2.6) + ChaCha20 body keystream (one ARX block call per 64
    /// bytes of body).
    ChaCha20 = 0x02,
}

impl CipherSuite {
    /// The suite's wire code / offer bit.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a `WELCOME` selection byte.
    pub fn from_code(code: u8) -> Result<CipherSuite> {
        match code {
            0x02 => Ok(CipherSuite::ChaCha20),
            other => Err(PprlError::Auth(format!(
                "unknown cipher suite code {other:#04x}"
            ))),
        }
    }

    /// Stable lower-case name (STATS, bench rows).
    pub fn name(self) -> &'static str {
        match self {
            CipherSuite::ChaCha20 => "chacha20",
        }
    }
}

impl std::fmt::Display for CipherSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of acceptable cipher suites: the client's `HELLO` offer, or a
/// server's policy restriction. One byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteOffer(u8);

impl Default for SuiteOffer {
    /// Offer everything this build knows.
    fn default() -> Self {
        SuiteOffer::all()
    }
}

impl SuiteOffer {
    /// Every suite this build knows.
    pub fn all() -> SuiteOffer {
        SuiteOffer(CipherSuite::ChaCha20.code())
    }

    /// Exactly one suite.
    pub fn only(suite: CipherSuite) -> SuiteOffer {
        SuiteOffer(suite.code())
    }

    /// Reconstructs an offer from its wire byte, keeping only bits this
    /// build recognises — unknown bits from another build are ignored,
    /// which is safe because the raw byte is transcript-bound anyway.
    pub fn from_bits(bits: u8) -> SuiteOffer {
        SuiteOffer(bits & SuiteOffer::all().0)
    }

    /// The wire byte.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// True when no known suite is offered.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when `suite` is in the set.
    pub fn contains(self, suite: CipherSuite) -> bool {
        self.0 & suite.code() != 0
    }
}

/// Server-side suite selection: the suite in both the client's offer
/// and the server's policy, or `None` when the sets are disjoint.
pub fn select_suite(offer: SuiteOffer, allowed: SuiteOffer) -> Option<CipherSuite> {
    let common = SuiteOffer::from_bits(offer.bits() & allowed.bits());
    common
        .contains(CipherSuite::ChaCha20)
        .then_some(CipherSuite::ChaCha20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        let s = CipherSuite::ChaCha20;
        assert_eq!(CipherSuite::from_code(s.code()).unwrap(), s);
        for code in [0, 0x01, 0x7f] {
            assert!(CipherSuite::from_code(code).is_err(), "{code:#04x}");
        }
    }

    #[test]
    fn selection_needs_a_common_known_bit() {
        let all = SuiteOffer::all();
        assert_eq!(select_suite(all, all), Some(CipherSuite::ChaCha20));
        // The retired HMAC-CTR bit alone, or no bit at all: no suite.
        assert_eq!(select_suite(SuiteOffer::from_bits(0x01), all), None);
        assert_eq!(select_suite(SuiteOffer::from_bits(0), all), None);
    }

    #[test]
    fn unknown_offer_bits_ignored() {
        let offer = SuiteOffer::from_bits(0xF1 | CipherSuite::ChaCha20.code());
        assert!(offer.contains(CipherSuite::ChaCha20));
        assert_eq!(offer.bits(), CipherSuite::ChaCha20.code());
        assert!(SuiteOffer::from_bits(0x81).is_empty());
    }
}
