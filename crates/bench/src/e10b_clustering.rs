//! E10b — §3.4 clustering (ref \[43]): incremental multi-party clustering
//! matches batch quality, and star clustering resists the chaining that
//! degrades connected components.

use crate::{clks, f3, generator, Claim, Report, Size, Table};
use pprl_core::record::{Dataset, RecordRef};
use pprl_matching::clustering::{
    connected_components, star_clustering, subset_matches, Edge, IncrementalClusterer,
};
use pprl_similarity::bitvec_sim::dice_bits;

/// Builds all cross-party similarity edges above a floor.
fn edges(datasets: &[Dataset], floor: f64) -> Vec<Edge> {
    let encoded: Vec<_> = datasets.iter().map(|ds| clks(ds, b"e10b")).collect();
    let mut out = Vec::new();
    for p1 in 0..datasets.len() {
        for p2 in (p1 + 1)..datasets.len() {
            for (i, x) in encoded[p1].iter().enumerate() {
                for (j, y) in encoded[p2].iter().enumerate() {
                    let s = dice_bits(x, y).expect("len");
                    if s >= floor {
                        out.push((
                            RecordRef::new(p1 as u32, i),
                            RecordRef::new(p2 as u32, j),
                            s,
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Fraction of clusters containing exactly one entity (purity) and the
/// fraction of true multi-party entities fully recovered (completeness).
fn cluster_quality(datasets: &[Dataset], clusters: &[Vec<RecordRef>], common: usize) -> (f64, f64) {
    let entity_of = |r: &RecordRef| datasets[r.party.0 as usize].records()[r.row].entity_id;
    let pure = clusters
        .iter()
        .filter(|c| {
            let ids: Vec<u64> = c.iter().map(entity_of).collect();
            ids.windows(2).all(|w| w[0] == w[1])
        })
        .count();
    let full = (0..common as u64)
        .filter(|&e| {
            clusters
                .iter()
                .any(|c| c.len() == datasets.len() && c.iter().all(|r| entity_of(r) == e))
        })
        .count();
    (
        pure as f64 / clusters.len().max(1) as f64,
        full as f64 / common.max(1) as f64,
    )
}

/// Cluster quality per method, then subset matching.
pub fn run(size: Size) -> Report {
    let parties = 4usize;
    let common = size.pick(15, 40);
    let datasets = generator(0.1, 11)
        .multi_party(parties, common, size.pick(8, 20))
        .expect("valid");
    let all_edges = edges(&datasets, 0.5);
    let threshold = 0.78;
    let match_edges: Vec<Edge> = all_edges
        .iter()
        .copied()
        .filter(|&(_, _, s)| s >= threshold)
        .collect();

    let cc = connected_components(&match_edges, threshold).expect("valid");
    let star = star_clustering(&match_edges, threshold).expect("valid");
    // Incremental: parties arrive one at a time.
    let mut inc = IncrementalClusterer::new(threshold).expect("valid");
    for (p, ds) in datasets.iter().enumerate() {
        for row in 0..ds.len() {
            let me = RecordRef::new(p as u32, row);
            let known: Vec<(RecordRef, f64)> = all_edges
                .iter()
                .filter(|&&(x, y, _)| {
                    (x == me && y.party.0 < p as u32) || (y == me && x.party.0 < p as u32)
                })
                .map(|&(x, y, s)| (if x == me { y } else { x }, s))
                .collect();
            inc.add(me, &known).expect("fresh record");
        }
    }
    // The incremental clusterer also tracks singletons (records with no
    // match); count only multi-record clusters for comparability with the
    // edge-based batch methods.
    let inc_clusters: Vec<Vec<RecordRef>> =
        inc.clusters().into_iter().filter(|c| c.len() > 1).collect();

    let mut t = Table::new("", &["method", "clusters", "purity", "entity completeness"]);
    for (name, clusters) in [
        ("connected components", &cc),
        ("star clustering", &star),
        ("incremental (party-by-party)", &inc_clusters),
    ] {
        let (purity, completeness) = cluster_quality(&datasets, clusters, common);
        t.row(vec![
            name.into(),
            clusters.len().into(),
            f3(purity),
            f3(completeness),
        ]);
    }
    let mut r = Report::default();
    r.table(t);

    let mut t = Table::new(
        "Subset matching over the connected-components clusters:",
        &["min parties", "qualifying clusters"],
    );
    for m in (2..=parties).rev() {
        t.row(vec![m.into(), subset_matches(&cc, m).len().into()]);
    }
    r.table(t);
    r
}

/// Every method, batch or incremental, recovers the entities cleanly.
pub fn claims(r: &Report) -> Vec<Claim> {
    let t = &r.tables[0];
    let good = |h| t.column(h).iter().all(|&x| x >= 0.95);
    vec![Claim::check(
        "connected components, star and incremental clustering all reach purity and entity \
         completeness >= 0.95",
        good("purity") && good("entity completeness"),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_impure_incremental_clustering_fails() {
        let report = |purity: f64| {
            let mut t = Table::new("", &["method", "purity", "entity completeness"]);
            t.row(vec!["cc".into(), f3(1.0), f3(1.0)]);
            t.row(vec!["incremental".into(), f3(purity), f3(1.0)]);
            let mut r = Report::default();
            r.table(t);
            r
        };
        assert!(claims(&report(1.0))[0].pass);
        assert!(!claims(&report(0.7))[0].pass);
    }
}
