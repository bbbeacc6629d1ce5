//! Termhood measures: C-value, phrase-level TF-IDF/Okapi, and the
//! harmonic fusions F-TFIDF-C and F-OCapi (IRJ 2016, §4).

use crate::termex::candidates::{CandidateSet, CandidateTerm};
use boe_corpus::index::InvertedIndex;
use boe_corpus::weighting::{self, Bm25Params};

/// C-value (Frantzi et al. 2000, as used by BIOTEX):
///
/// * non-nested term: `log2(|t| + 1) × freq(t)`
/// * nested term: `log2(|t| + 1) × (freq(t) − nested_freq(t)/containers(t))`
///
/// where `|t|` is the length in words (the `+1` keeps unigrams scored).
pub fn c_value(term: &CandidateTerm) -> f64 {
    let len_factor = ((term.len() as f64) + 1.0).log2();
    let freq = f64::from(term.freq);
    if term.containers == 0 {
        len_factor * freq
    } else {
        len_factor * (freq - f64::from(term.nested_freq) / f64::from(term.containers))
    }
}

/// Phrase-level TF-IDF: max over documents of
/// `(1 + ln tf_d) × ln((N+1)/(df+1)) + 1` using exact phrase counts.
pub fn phrase_tf_idf(index: &InvertedIndex, term: &CandidateTerm) -> f64 {
    let matches = index.phrase_matches(&term.tokens);
    let n = index.doc_count() as f64;
    let df = matches.len() as f64;
    let idf = ((n + 1.0) / (df + 1.0)).ln() + 1.0;
    matches
        .iter()
        .map(|&(_, tf)| (1.0 + f64::from(tf).ln()) * idf)
        .fold(0.0, f64::max)
}

/// Phrase-level Okapi BM25: max over documents of the BM25 score with
/// exact phrase counts.
pub fn phrase_okapi(index: &InvertedIndex, term: &CandidateTerm, params: Bm25Params) -> f64 {
    let matches = index.phrase_matches(&term.tokens);
    let n = index.doc_count() as f64;
    let df = matches.len() as f64;
    let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
    matches
        .iter()
        .map(|&(doc, tf)| {
            let tf = f64::from(tf);
            let dl = f64::from(index.doc_len(doc));
            let avg = index.avg_doc_len().max(1e-9);
            let denom = tf + params.k1 * (1.0 - params.b + params.b * dl / avg);
            idf * tf * (params.k1 + 1.0) / denom
        })
        .fold(0.0, f64::max)
}

/// Harmonic fusion of two non-negative scores (the F in F-TFIDF-C /
/// F-OCapi): `2ab / (a + b)`, 0 when both are 0.
pub fn harmonic(a: f64, b: f64) -> f64 {
    if a + b <= 0.0 {
        0.0
    } else {
        2.0 * a * b / (a + b)
    }
}

/// F-TFIDF-C: harmonic mean of phrase TF-IDF and C-value.
pub fn f_tfidf_c(index: &InvertedIndex, term: &CandidateTerm) -> f64 {
    harmonic(phrase_tf_idf(index, term), c_value(term))
}

/// F-OCapi: harmonic mean of phrase Okapi and C-value.
pub fn f_ocapi(index: &InvertedIndex, term: &CandidateTerm) -> f64 {
    harmonic(
        phrase_okapi(index, term, Bm25Params::default()),
        c_value(term),
    )
}

/// Mean single-token IDF of a candidate (used as a weak fallback signal
/// and exposed for feature extraction).
pub fn mean_token_idf(index: &InvertedIndex, term: &CandidateTerm) -> f64 {
    if term.tokens.is_empty() {
        return 0.0;
    }
    term.tokens
        .iter()
        .map(|&t| weighting::idf(index, t))
        .sum::<f64>()
        / term.tokens.len() as f64
}

/// Convenience: C-values for a whole candidate set (index-aligned).
pub fn c_values(set: &CandidateSet) -> Vec<f64> {
    set.terms.iter().map(c_value).collect()
}

/// Phrase TF-IDF for a whole candidate set (index-aligned), on `boe_par`.
pub fn phrase_tf_idfs(index: &InvertedIndex, set: &CandidateSet) -> Vec<f64> {
    boe_par::par_map_min(&set.terms, 64, |t| phrase_tf_idf(index, t))
}

/// Phrase Okapi BM25 for a whole candidate set (index-aligned), on
/// `boe_par`.
pub fn phrase_okapis(index: &InvertedIndex, set: &CandidateSet, params: Bm25Params) -> Vec<f64> {
    boe_par::par_map_min(&set.terms, 64, |t| phrase_okapi(index, t, params))
}

/// F-TFIDF-C for a whole candidate set (index-aligned), on `boe_par`.
pub fn f_tfidf_cs(index: &InvertedIndex, set: &CandidateSet) -> Vec<f64> {
    boe_par::par_map_min(&set.terms, 64, |t| f_tfidf_c(index, t))
}

/// F-OCapi for a whole candidate set (index-aligned), on `boe_par`.
pub fn f_ocapis(index: &InvertedIndex, set: &CandidateSet) -> Vec<f64> {
    boe_par::par_map_min(&set.terms, 64, |t| f_ocapi(index, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::termex::candidates::{extract_candidates, CandidateOptions};
    use boe_corpus::corpus::CorpusBuilder;
    use boe_corpus::Corpus;
    use boe_textkit::Language;

    fn setup(texts: &[&str]) -> (Corpus, InvertedIndex, CandidateSet) {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        let c = b.build();
        let ix = InvertedIndex::build(&c);
        let set =
            extract_candidates(&c, CandidateOptions::default(), &|| false).expect("never stopped");
        (c, ix, set)
    }

    #[test]
    fn c_value_rewards_length_and_frequency() {
        let (_, _, set) = setup(&[
            "corneal injuries heal. corneal injuries persist.",
            "corneal injuries worsen. cornea heals. cornea scars.",
        ]);
        let bigram = set.get_surface("corneal injuries").expect("kept");
        let unigram = set.get_surface("cornea").expect("kept");
        // Same order of magnitude of freq, but bigram gets log2(3) vs
        // log2(2) and higher freq: C-value must rank it above.
        assert!(c_value(bigram) > c_value(unigram));
    }

    #[test]
    fn c_value_discounts_nested_terms() {
        let (_, _, set) = setup(&[
            "acute corneal injuries require care. acute corneal injuries recur.",
            "acute corneal injuries persist. corneal injuries heal.",
        ]);
        let inner = set.get_surface("corneal injuries").expect("kept");
        // freq 4, nested 3, containers 1 → log2(3) × (4 − 3).
        assert!((c_value(inner) - 3.0f64.log2() * (4.0 - 3.0)).abs() < 1e-12);
    }

    #[test]
    fn phrase_tfidf_prefers_concentrated_terms() {
        let (_, ix, set) = setup(&[
            "corneal injuries heal. corneal injuries persist. corneal injuries recur.",
            "hepatic lesions grow. liver tissue scars.",
            "hepatic lesions shrink. renal damage spreads.",
        ]);
        let concentrated = set.get_surface("corneal injuries").expect("kept");
        let spread = set.get_surface("hepatic lesions").expect("kept");
        assert!(phrase_tf_idf(&ix, concentrated) > phrase_tf_idf(&ix, spread));
    }

    #[test]
    fn fusions_are_harmonic() {
        assert_eq!(harmonic(0.0, 0.0), 0.0);
        assert!((harmonic(2.0, 2.0) - 2.0).abs() < 1e-12);
        assert!(harmonic(4.0, 1.0) < 4.0);
        assert!(harmonic(4.0, 1.0) > 1.0);
    }

    #[test]
    fn f_measures_are_positive_for_real_candidates() {
        let (_, ix, set) = setup(&[
            "corneal injuries heal. corneal injuries persist.",
            "corneal injuries worsen quickly.",
        ]);
        let t = set.get_surface("corneal injuries").expect("kept");
        assert!(f_tfidf_c(&ix, t) > 0.0);
        assert!(f_ocapi(&ix, t) > 0.0);
    }

    #[test]
    fn mean_token_idf_behaviour() {
        let (c, ix, set) = setup(&[
            "corneal injuries heal. corneal injuries persist.",
            "injuries happen. injuries recur.",
        ]);
        let t = set.get_surface("corneal injuries").expect("kept");
        let idf_corneal = weighting::idf(&ix, c.vocab().get("corneal").expect("id"));
        let idf_injuries = weighting::idf(&ix, c.vocab().get("injuries").expect("id"));
        assert!((mean_token_idf(&ix, t) - (idf_corneal + idf_injuries) / 2.0).abs() < 1e-12);
    }
}
