//! Community detection: weighted label propagation, plus Newman
//! modularity for scoring partitions.
//!
//! The polysemy features include "number of communities in the term's
//! neighbourhood graph" — a polysemic term's ego network fragments into
//! one community per sense.

use crate::graph::Graph;
#[cfg(test)]
use crate::graph::NodeId;

/// Weighted label propagation with deterministic tie-breaking (lowest
/// label wins; nodes scanned in id order). Returns dense community labels.
pub fn label_propagation(g: &Graph, max_rounds: usize) -> Vec<u32> {
    let n = g.node_count();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    // Labels are node ids, so one dense accumulator serves every node;
    // `touched` lists the labels the current node's neighbours carry,
    // and only those are reset afterwards. Edge weights are positive, so
    // a zero slot means "not yet touched".
    let mut weight_by_label = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    for _ in 0..max_rounds {
        let mut changed = false;
        for v in g.nodes() {
            if g.degree(v) == 0 {
                continue;
            }
            for &(u, w) in g.neighbours(v) {
                let l = labels[u.index()];
                let slot = &mut weight_by_label[l as usize];
                if *slot == 0.0 {
                    touched.push(l);
                }
                *slot += w;
            }
            // Deterministic argmax: heaviest label, lowest id on ties.
            let mut best = labels[v.index()];
            let mut best_w = f64::NEG_INFINITY;
            for l in touched.drain(..) {
                let w = std::mem::take(&mut weight_by_label[l as usize]);
                if w > best_w || (w == best_w && l < best) {
                    best_w = w;
                    best = l;
                }
            }
            if best != labels[v.index()] {
                labels[v.index()] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    relabel_dense(&labels)
}

/// Renumber labels to a dense 0..k range preserving first-occurrence order.
fn relabel_dense(labels: &[u32]) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    let mut next = 0u32;
    labels
        .iter()
        .map(|&l| {
            *map.entry(l).or_insert_with(|| {
                let v = next;
                next += 1;
                v
            })
        })
        .collect()
}

/// Number of distinct communities in a labelling.
pub fn community_count(labels: &[u32]) -> usize {
    let mut set: Vec<u32> = labels.to_vec();
    set.sort_unstable();
    set.dedup();
    set.len()
}

/// Newman modularity of a partition on a weighted graph.
pub fn modularity(g: &Graph, labels: &[u32]) -> f64 {
    assert_eq!(labels.len(), g.node_count(), "label/node count mismatch");
    let m2 = 2.0 * g.total_weight();
    if m2 == 0.0 {
        return 0.0;
    }
    let mut q = 0.0;
    // Within-community weight term.
    for (a, b, w) in g.edges() {
        if labels[a.index()] == labels[b.index()] {
            q += 2.0 * w; // each undirected edge contributes twice in the sum over ordered pairs
        }
    }
    // Degree-product term per community.
    let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut deg_sum = vec![0.0; k];
    for v in g.nodes() {
        deg_sum[labels[v.index()] as usize] += g.weighted_degree(v);
    }
    let penalty: f64 = deg_sum.iter().map(|d| d * d).sum();
    (q - penalty / m2) / m2
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_rng::StdRng;

    /// The per-node `HashMap` formulation the dense accumulator replaced,
    /// kept as the equivalence reference.
    fn label_propagation_reference(g: &Graph, max_rounds: usize) -> Vec<u32> {
        let n = g.node_count();
        let mut labels: Vec<u32> = (0..n as u32).collect();
        let mut weight_by_label: std::collections::HashMap<u32, f64> =
            std::collections::HashMap::new();
        for _ in 0..max_rounds {
            let mut changed = false;
            for v in g.nodes() {
                if g.degree(v) == 0 {
                    continue;
                }
                weight_by_label.clear();
                for &(u, w) in g.neighbours(v) {
                    *weight_by_label.entry(labels[u.index()]).or_insert(0.0) += w;
                }
                let mut best = labels[v.index()];
                let mut best_w = f64::NEG_INFINITY;
                let mut keys: Vec<u32> = weight_by_label.keys().copied().collect();
                keys.sort_unstable();
                for l in keys {
                    let w = weight_by_label[&l];
                    if w > best_w {
                        best_w = w;
                        best = l;
                    }
                }
                if best != labels[v.index()] {
                    labels[v.index()] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        relabel_dense(&labels)
    }

    /// A seeded random weighted graph; with `tied` every weight is 1 or 2,
    /// so label weights tie often and the lowest-label rule decides.
    fn random_graph(rng: &mut StdRng, tied: bool) -> Graph {
        let n = rng.gen_range(1usize..40);
        let mut g = Graph::with_nodes(n);
        for _ in 0..rng.gen_range(0usize..120) {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            let w = if tied {
                f64::from(rng.gen_range(1u32..3))
            } else {
                0.1 + rng.gen::<f64>() * 2.9
            };
            if a != b {
                g.add_edge(NodeId(a), NodeId(b), w);
            }
        }
        g
    }

    #[test]
    fn dense_label_propagation_matches_the_hashmap_reference() {
        let mut rng = StdRng::seed_from_u64(0x1AB);
        for case in 0..400 {
            let g = random_graph(&mut rng, case % 2 == 0);
            for rounds in [1, 20] {
                assert_eq!(
                    label_propagation(&g, rounds),
                    label_propagation_reference(&g, rounds),
                    "case {case}, {rounds} round(s)"
                );
            }
        }
    }

    /// Two triangles joined by a single weak bridge.
    fn two_cliques() -> Graph {
        let mut g = Graph::with_nodes(6);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(NodeId(a), NodeId(b), 1.0);
        }
        g.add_edge(NodeId(2), NodeId(3), 0.1);
        g
    }

    #[test]
    fn label_propagation_finds_two_communities() {
        let g = two_cliques();
        let labels = label_propagation(&g, 50);
        assert_eq!(community_count(&labels), 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn modularity_prefers_true_partition() {
        let g = two_cliques();
        let good = vec![0, 0, 0, 1, 1, 1];
        let bad = vec![0, 1, 0, 1, 0, 1];
        let all_one = vec![0, 0, 0, 0, 0, 0];
        assert!(modularity(&g, &good) > modularity(&g, &all_one));
        assert!(modularity(&g, &good) > modularity(&g, &bad));
        assert!(modularity(&g, &good) > 0.3);
    }

    #[test]
    fn modularity_of_single_community_is_near_zero() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        let q = modularity(&g, &[0, 0, 0]);
        assert!(q.abs() < 1e-9, "q = {q}");
    }

    #[test]
    fn isolated_nodes_keep_own_labels() {
        let g = Graph::with_nodes(3);
        let labels = label_propagation(&g, 10);
        assert_eq!(community_count(&labels), 3);
    }

    #[test]
    fn empty_graph_modularity() {
        assert_eq!(modularity(&Graph::new(), &[]), 0.0);
    }

    #[test]
    fn deterministic() {
        let g = two_cliques();
        assert_eq!(label_propagation(&g, 50), label_propagation(&g, 50));
    }
}
