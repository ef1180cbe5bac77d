//! E5 — §3.4 advanced communication patterns (ref \[42]): routing tames
//! multi-party communication growth, and the ring variant is
//! collusion-prone.
//!
//! Tabulates messages/rounds per CBF aggregation for 3–10 parties under
//! each pattern, runs the actual multi-party protocol under each pattern
//! to show identical results at different costs — with the wire-measured
//! cost set against the closed-form one — and demonstrates the
//! neighbour-collusion leak of the masked ring.

use crate::{generator, Cell, Claim, Report, Size, Table};
use pprl_core::rng::SplitMix64;
use pprl_crypto::cost::CommCost;
use pprl_crypto::secure_sum::{ring_collusion_exposed, sum_additive_shares, sum_masked_ring};
use pprl_encoding::encoder::RecordEncoder;
use pprl_protocols::multi_party::{multi_party_linkage, MultiPartyConfig};
use pprl_protocols::patterns::Pattern;

/// Party inputs of the collusion demonstration; P2 is the target.
const INPUTS: [u64; 5] = [101, 202, 303, 404, 505];

/// Cost tables, one protocol run per pattern, and the collusion facts.
pub fn run(size: Size) -> Report {
    let mut r = Report::default();
    let mut t = Table::new(
        "Cost per CBF aggregation (payload 500 bytes):",
        &["parties", "sequential", "ring", "tree(f=2)", "hier(g=3)"],
    );
    for p in [3usize, 4, 5, 6, 8, 10] {
        let fmt = |pat: Pattern| {
            let c = pat.aggregation_cost(p, 500).expect("valid");
            Cell::from(format!("{}m/{}r", c.messages, c.rounds))
        };
        t.row(vec![
            p.into(),
            fmt(Pattern::Sequential),
            fmt(Pattern::Ring),
            fmt(Pattern::Tree { fanout: 2 }),
            fmt(Pattern::Hierarchical { group_size: 3 }),
        ]);
    }
    r.table(t);

    let (parties, shared) = size.pick((4, 10), (6, 25));
    let datasets = generator(0.1, 5)
        .multi_party(parties, shared, 10)
        .expect("valid");
    let headers = ["pattern", "matches", "messages", "bytes", "rounds"];
    let mut measured = Table::new(
        format!("Full protocol run ({parties} parties, {shared} shared entities):"),
        &headers,
    );
    let mut analytical = Table::new(
        "Closed-form cost of the same runs (tuples scored x aggregation cost):",
        &headers,
    );
    for (name, pattern) in [
        ("sequential", Pattern::Sequential),
        ("ring", Pattern::Ring),
        ("tree (f=2)", Pattern::Tree { fanout: 2 }),
        (
            "hierarchical (g=3)",
            Pattern::Hierarchical { group_size: 3 },
        ),
    ] {
        let mut cfg = MultiPartyConfig::standard(b"e5".to_vec());
        cfg.pattern = pattern;
        let out = multi_party_linkage(&datasets, &cfg).expect("protocol runs");
        let filter_len = RecordEncoder::new(cfg.encoder.clone(), datasets[0].schema())
            .expect("valid encoder")
            .output_len();
        let mut expected = CommCost::new();
        for _ in 0..out.tuples_compared {
            // A CBF travels as one u32 count per filter byte.
            let payload = filter_len.div_ceil(8) * 4;
            expected.merge(&pattern.aggregation_cost(parties, payload).expect("valid"));
        }
        for (t, cost) in [(&mut measured, &out.cost), (&mut analytical, &expected)] {
            t.row(vec![
                name.into(),
                out.matches.len().into(),
                cost.messages.into(),
                cost.bytes.into(),
                cost.rounds.into(),
            ]);
        }
    }
    r.table(measured);
    r.table(analytical);

    let mut rng = SplitMix64::new(9);
    let ring = sum_masked_ring(&INPUTS, &mut rng).expect("runs");
    let shares = sum_additive_shares(&INPUTS, &mut rng).expect("runs");
    r.fact(
        "P2's input as recovered by its two ring neighbours (of 5 parties)",
        ring_collusion_exposed(&INPUTS, 2).map_or_else(|| "not exposed".into(), Cell::from),
    );
    r.fact("masked ring messages", Cell::from(ring.cost.messages));
    r.fact(
        "additive shares messages (collusion-resistant to n-2)",
        Cell::from(shares.cost.messages),
    );
    r
}

/// Patterns agree on the answer at their closed-form cost; routing cuts
/// rounds; the masked ring leaks to colluding neighbours.
pub fn claims(r: &Report) -> Vec<Claim> {
    let (measured, analytical) = (&r.tables[1], &r.tables[2]);
    let wire_is_analytical = ["messages", "bytes", "rounds"]
        .iter()
        .all(|h| measured.column(h) == analytical.column(h));
    let matches = measured.column("matches");
    let rounds = measured.column("rounds");
    vec![
        Claim::check(
            "every pattern finds the same matches",
            matches.iter().all(|&m| m == matches[0]),
        ),
        Claim::check(
            "wire-measured messages, bytes and rounds equal the analytical CommCost",
            wire_is_analytical,
        ),
        Claim::check(
            "tree routing needs fewer rounds than the sequential chain",
            rounds[2] < rounds[0],
        ),
        Claim::check(
            "two colluding ring neighbours recover P2's exact input",
            r.value("P2's input as recovered by its two ring neighbours (of 5 parties)")
                == INPUTS[2] as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(wire_bytes: usize, tree_rounds: usize, exposed: Cell) -> Report {
        let headers = ["pattern", "matches", "messages", "bytes", "rounds"];
        let mut measured = Table::new("", &headers);
        let mut analytical = Table::new("", &headers);
        for (t, bytes) in [(&mut measured, wire_bytes), (&mut analytical, 48_000)] {
            for (pattern, rounds) in [("sequential", 96usize), ("ring", 96), ("tree", tree_rounds)]
            {
                let cells = vec![pattern.into(), 13usize.into(), 96usize.into()];
                t.row([cells, vec![bytes.into(), rounds.into()]].concat());
            }
        }
        let mut r = Report::default();
        r.table(Table::new("", &["parties"]));
        r.table(measured);
        r.table(analytical);
        r.fact(
            "P2's input as recovered by its two ring neighbours (of 5 parties)",
            exposed,
        );
        r
    }

    #[test]
    fn costs_off_the_formula_or_a_safe_ring_fail() {
        let claims_of = |bytes, rounds, exposed| claims(&report(bytes, rounds, exposed));
        assert!(claims_of(48_000, 64, 303u64.into()).iter().all(|c| c.pass));
        assert!(!claims_of(48_500, 64, 303u64.into())[1].pass);
        assert!(!claims_of(48_000, 96, 303u64.into())[2].pass);
        assert!(!claims_of(48_000, 64, "not exposed".into())[3].pass);
    }
}
