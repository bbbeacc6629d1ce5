//! Property tests for the corpus/IR substrate.
//!
//! Driven by the workspace's own deterministic PRNG (no external
//! dependencies); each test sweeps seeded random corpora.

use boe_corpus::context::{contexts, find_occurrences_naive, ContextOptions, ContextScope};
use boe_corpus::corpus::CorpusBuilder;
use boe_corpus::index::InvertedIndex;
use boe_corpus::stats::CoocCounts;
use boe_corpus::weighting::{bm25, idf, Bm25Params};
use boe_corpus::Corpus;
use boe_rng::StdRng;
use boe_textkit::{Language, TokenId};

const CASES: usize = 60;

fn rand_word(rng: &mut StdRng) -> String {
    let len = rng.gen_range(2usize..=8);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0u32..26) as u8))
        .collect()
}

/// 1–5 documents of 1–2 sentences with 1–9 lowercase words each.
fn rand_corpus(rng: &mut StdRng) -> Corpus {
    let mut b = CorpusBuilder::new(Language::English);
    let docs = rng.gen_range(1usize..6);
    for _ in 0..docs {
        let mut text = String::new();
        for _ in 0..rng.gen_range(1usize..=2) {
            let words = rng.gen_range(1usize..=9);
            for w in 0..words {
                if w > 0 {
                    text.push(' ');
                }
                text.push_str(&rand_word(rng));
            }
            text.push_str(". ");
        }
        b.add_text(&text);
    }
    b.build()
}

#[test]
fn index_frequencies_are_consistent() {
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let ix = InvertedIndex::build(&c);
        // Sum of per-token corpus frequencies equals total token count.
        let total: u64 = ix.tokens().iter().map(|&t| ix.term_freq(t)).sum();
        assert_eq!(total as usize, c.token_count());
        for t in ix.tokens() {
            let df = ix.doc_freq(t);
            assert!(df >= 1);
            assert!(df <= c.len());
            assert!(ix.term_freq(t) >= df as u64);
            // Postings tf sums to term_freq.
            let tf_sum: u64 = ix
                .postings(t)
                .iter()
                .map(|p| p.positions.len() as u64)
                .sum();
            assert_eq!(tf_sum, ix.term_freq(t));
        }
    }
}

#[test]
fn single_token_phrase_matches_agree_with_occurrences() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let ix = InvertedIndex::build(&c);
        for t in ix.tokens().into_iter().take(10) {
            let phrase = [t];
            let total_phrase: u32 = ix.phrase_matches(&phrase).iter().map(|&(_, n)| n).sum();
            let occs = find_occurrences_naive(&c, &phrase);
            assert_eq!(total_phrase as usize, occs.len());
        }
    }
}

#[test]
fn cooccurrence_is_symmetric_and_bounded() {
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let window = rng.gen_range(1usize..6);
        let cc = CoocCounts::from_corpus(&c, window);
        for ((a, b), n) in cc.iter_pairs().into_iter().take(50) {
            assert_eq!(cc.pair(a, b), n);
            assert_eq!(cc.pair(b, a), n);
            assert!(n >= 1);
            // A pair cannot co-occur more often than its rarer member
            // occurs (times window, loose bound: just occurrences × window).
            let ca = cc.occurrences(a);
            let cb = cc.occurrences(b);
            assert!(n <= ca.max(1) * window as u32 + cb.max(1) * window as u32);
        }
    }
}

/// Windowed pair counts by a direct scan of every sentence, sorted by
/// pair: the same counting rule as [`CoocCounts::from_corpus`].
fn naive_pairs(c: &Corpus, window: usize) -> Vec<((TokenId, TokenId), u32)> {
    let counted = |s: &boe_corpus::doc::Sentence, i: usize| {
        s.tags[i].is_term_internal() && !c.is_stopword(s.tokens[i])
    };
    let mut counts = std::collections::BTreeMap::new();
    for doc in c.docs() {
        for s in &doc.sentences {
            for i in 0..s.tokens.len() {
                for j in i + 1..s.tokens.len().min(i + window + 1) {
                    let (a, b) = (s.tokens[i], s.tokens[j]);
                    if a != b && counted(s, i) && counted(s, j) {
                        *counts.entry((a.min(b), a.max(b))).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    counts.into_iter().collect()
}

#[test]
fn cooccurrence_neighbours_match_a_scan_over_all_pairs() {
    let mut rng = StdRng::seed_from_u64(14);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let window = rng.gen_range(1usize..6);
        let cc = CoocCounts::from_corpus(&c, window);
        let pairs = naive_pairs(&c, window);
        assert_eq!(cc.iter_pairs(), pairs);
        assert_eq!(cc.pair_count(), pairs.len());
        for id in 0..c.vocab().len() as u32 + 2 {
            let t = TokenId(id);
            // The brute-force reference: filter every pair for `t`, then
            // order by decreasing count, then id.
            let mut scan: Vec<(TokenId, u32)> = pairs
                .iter()
                .filter_map(|&((a, b), n)| {
                    if a == t {
                        Some((b, n))
                    } else if b == t {
                        Some((a, n))
                    } else {
                        None
                    }
                })
                .collect();
            scan.sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            assert_eq!(cc.neighbours(t), scan.as_slice(), "token {id}");
        }
    }
}

#[test]
fn idf_and_bm25_are_finite_nonnegative() {
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let ix = InvertedIndex::build(&c);
        for t in ix.tokens().into_iter().take(20) {
            assert!(idf(&ix, t) > 0.0);
            for doc in c.docs().iter().take(3) {
                let s = bm25(&ix, t, doc.id, Bm25Params::default());
                assert!(s.is_finite());
                assert!(s >= 0.0);
            }
        }
    }
}

#[test]
fn context_vectors_are_nonnegative_counts() {
    let mut rng = StdRng::seed_from_u64(14);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let ix = InvertedIndex::build(&c);
        for scope in [ContextScope::Sentence, ContextScope::Document] {
            let opts = ContextOptions {
                window: None,
                stemmed: false,
                scope,
            };
            for t in ix.tokens().into_iter().take(5) {
                for v in contexts(&c, &[t], opts, None) {
                    for (_, x) in v.iter() {
                        assert!(x >= 1.0);
                        assert_eq!(x.fract(), 0.0, "counts are integral");
                    }
                    // The term itself is excluded from its own context at
                    // sentence scope only if it occurs once there; at any
                    // scope the vector must stay finite.
                    assert!(v.norm().is_finite());
                }
            }
        }
    }
}

#[test]
fn document_contexts_dominate_sentence_contexts() {
    let mut rng = StdRng::seed_from_u64(15);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let ix = InvertedIndex::build(&c);
        for t in ix.tokens().into_iter().take(5) {
            let s_opts = ContextOptions {
                window: None,
                stemmed: false,
                scope: ContextScope::Sentence,
            };
            let d_opts = ContextOptions {
                window: None,
                stemmed: false,
                scope: ContextScope::Document,
            };
            let s_ctx = contexts(&c, &[t], s_opts, None);
            let d_ctx = contexts(&c, &[t], d_opts, None);
            assert_eq!(s_ctx.len(), d_ctx.len());
            for (s, d) in s_ctx.iter().zip(&d_ctx) {
                assert!(d.sum() >= s.sum(), "document scope must not shrink context");
            }
        }
    }
}
