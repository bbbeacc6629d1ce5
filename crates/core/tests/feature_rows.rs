//! Pins every Step II feature row of a seeded world to a frozen digest.
//!
//! The pipeline's report only records a term's polysemy verdict, so a
//! feature drift that leaves every verdict unchanged would pass the
//! report-level golden checks. This test hashes the 23 features of every
//! ontology term found in the corpus (the detector's training rows) down
//! to their bit patterns, in forward order and in reverse order on a
//! fresh context, at 1 and at 8 threads.
//!
//! One `#[test]` only: the thread-count override is process-global.

use boe_core::polysemy::detector::FeatureContext;
use boe_corpus::occurrence::OccurrenceIndex;
use boe_eval::world::{World, WorldConfig};
use boe_textkit::TokenId;
use std::sync::Arc;

/// FNV-1a over the rows' `f64::to_bits`, row by row.
fn digest(rows: &[Vec<f64>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for v in row {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The digest the rows had before any Step II kernel was optimised.
const PINNED: u64 = 0xf9d5_7913_97ce_c97e;

#[test]
fn training_feature_rows_match_the_pinned_digest() {
    let world = World::generate(&WorldConfig {
        n_concepts: 120,
        n_holdout: 20,
        abstracts_per_concept: 3,
        n_shared_synonyms: 10,
        n_ambiguous_new: 10,
        seed: 0xF3A7,
        ..Default::default()
    });
    let corpus = &world.corpus;
    let occ = Arc::new(OccurrenceIndex::build(corpus));
    let terms: Vec<(&str, Vec<TokenId>)> = world
        .reduced_ontology
        .terms()
        .into_iter()
        .filter_map(|(surface, _)| {
            let tokens = corpus.phrase_ids(surface)?;
            occ.contains(corpus, &tokens).then_some((surface, tokens))
        })
        .collect();
    assert!(terms.len() > 100, "only {} training terms", terms.len());

    for threads in [1, 8] {
        boe_par::set_threads(Some(threads));
        let ctx = FeatureContext::build_with_index(corpus, Arc::clone(&occ));
        let forward = boe_par::par_map(&terms, |(s, t)| ctx.features(t, s));
        assert_eq!(digest(&forward), PINNED, "forward, {threads} thread(s)");

        // A fresh context visited back to front: every row now meets a
        // different cache state than in the forward pass.
        let ctx = FeatureContext::build_with_index(corpus, Arc::clone(&occ));
        let mut backward: Vec<Vec<f64>> = terms
            .iter()
            .rev()
            .map(|(s, t)| ctx.features(t, s))
            .collect();
        backward.reverse();
        assert_eq!(digest(&backward), PINNED, "backward, {threads} thread(s)");
    }
    boe_par::set_threads(None);
}
