//! E9 — §3.4 cryptography (ref \[1]): the secure edit-distance protocol is
//! quadratic in the string lengths and orders of magnitude more expensive
//! than plaintext; homomorphic operations scale with key size.

use crate::{secs, timed, Cell, Claim, Report, Size, Table};
use pprl_core::rng::SplitMix64;
use pprl_crypto::paillier::KeyPair;
use pprl_crypto::secure_edit::{plaintext_edit_distance, secure_edit_distance};

/// Secure vs plaintext edit distance per length, then Paillier cost per
/// modulus size.
pub fn run(size: Size) -> Report {
    let mut rng = SplitMix64::new(9);
    let mut r = Report::default();
    let mut t = Table::new(
        "Secure vs plaintext edit distance (equal-length random strings):",
        &[
            "len",
            "secure ops",
            "bytes",
            "rounds",
            "secure time",
            "plain time",
            "slowdown",
        ],
    );
    let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz".chars().collect();
    for len in size.pick(vec![8usize, 16, 32], vec![8, 16, 32, 64, 128]) {
        let mut word = || -> String {
            (0..len)
                .map(|_| alphabet[rng.next_below(26) as usize])
                .collect()
        };
        let (x, y) = (word(), word());
        let (out, secure_time) =
            timed(|| secure_edit_distance(&x, &y, &mut rng).expect("length ok"));
        let (plain, plain_time) = timed(|| plaintext_edit_distance(&x, &y));
        let slowdown = secure_time / plain_time.max(1e-9);
        t.row(vec![
            len.into(),
            out.secure_ops.into(),
            out.cost.bytes.into(),
            out.cost.rounds.into(),
            secs(secure_time),
            secs(plain_time),
            Cell::num(slowdown, format!("{slowdown:.0}x")),
        ]);
        assert_eq!(out.distance, plain, "the secure protocol must be exact");
    }
    r.table(t);

    let mut t = Table::new(
        "Paillier keygen + 100 homomorphic add/encrypt ops vs modulus size:",
        &[
            "modulus bits",
            "keygen",
            "100 encrypts",
            "100 adds",
            "decrypt",
        ],
    );
    for bits in size.pick(vec![128usize, 256], vec![128, 256, 512, 1024]) {
        let (kp, keygen_time) = timed(|| KeyPair::generate(bits, &mut rng).expect("keygen"));
        let (cts, enc_time) = timed(|| {
            (0..100u64)
                .map(|i| kp.public.encrypt_u64(i, &mut rng).expect("encrypt"))
                .collect::<Vec<_>>()
        });
        let (sum, add_time) = timed(|| {
            cts[1..].iter().fold(cts[0].clone(), |acc, c| {
                kp.public.add_ciphertexts(&acc, c).expect("add")
            })
        });
        let (value, dec_time) = timed(|| kp.private.decrypt_u64(&sum).expect("decrypt"));
        assert_eq!(
            value,
            (0..100).sum::<u64>(),
            "homomorphic sum must decrypt exactly"
        );
        t.row(vec![
            bits.into(),
            secs(keygen_time),
            secs(enc_time),
            secs(add_time),
            secs(dec_time),
        ]);
    }
    r.table(t);
    r
}

/// Secure matching is quadratic, and its crypto cost grows with the key.
pub fn claims(r: &Report) -> Vec<Claim> {
    let edit = &r.tables[0];
    let encrypts = r.tables[1].column("100 encrypts");
    vec![
        Claim::check(
            "secure ops = len² at every length",
            edit.column("len")
                .iter()
                .zip(edit.column("secure ops"))
                .all(|(len, ops)| ops == len * len),
        ),
        Claim::timing(
            "100 Paillier encryptions take longer at every larger modulus",
            encrypts.windows(2).all(|w| w[1] > w[0]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ops_at_16: usize, encrypt_secs: [f64; 2]) -> Report {
        let mut edit = Table::new("", &["len", "secure ops"]);
        edit.row(vec![8usize.into(), 64usize.into()]);
        edit.row(vec![16usize.into(), ops_at_16.into()]);
        let mut paillier = Table::new("", &["100 encrypts"]);
        for s in encrypt_secs {
            paillier.row(vec![secs(s)]);
        }
        let mut r = Report::default();
        r.table(edit);
        r.table(paillier);
        r
    }

    #[test]
    fn a_linear_protocol_or_a_flat_key_cost_fails() {
        assert!(claims(&report(256, [0.01, 0.04])).iter().all(|c| c.pass));
        assert!(!claims(&report(128, [0.01, 0.04]))[0].pass);
        assert!(!claims(&report(256, [0.04, 0.01]))[1].pass);
    }
}
