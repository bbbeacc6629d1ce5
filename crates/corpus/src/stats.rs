//! Frequency and co-occurrence statistics.
//!
//! The windowed co-occurrence counts drive both the induced graph of Step
//! II (polysemy features) and the term co-occurrence graph of Step IV
//! (semantic linkage).

use crate::corpus::Corpus;
use boe_textkit::TokenId;
use std::collections::HashMap;

/// Symmetric windowed co-occurrence counts between lexical, non-stopword
/// tokens.
#[derive(Debug, Clone, Default)]
pub struct CoocCounts {
    /// Per-token neighbour lists indexed by token id, each sorted by
    /// decreasing count then id; every pair appears in both members'
    /// lists.
    neighbours: Vec<Vec<(TokenId, u32)>>,
    /// Marginal occurrence counts (over counted tokens only).
    occurrences: HashMap<TokenId, u32>,
    window: usize,
}

impl CoocCounts {
    /// Count co-occurrences over `corpus` within a sliding window of
    /// `window` tokens (a pair is counted when the two tokens are at most
    /// `window` positions apart within one sentence). Stopwords and
    /// punctuation are skipped but still occupy positions.
    pub fn from_corpus(corpus: &Corpus, window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        let mut pairs: HashMap<(TokenId, TokenId), u32> = HashMap::new();
        let mut occurrences: HashMap<TokenId, u32> = HashMap::new();
        for doc in corpus.docs() {
            for s in &doc.sentences {
                let n = s.tokens.len();
                for i in 0..n {
                    let a = s.tokens[i];
                    if !s.tags[i].is_term_internal() || corpus.is_stopword(a) {
                        continue;
                    }
                    *occurrences.entry(a).or_insert(0) += 1;
                    let hi = (i + window).min(n.saturating_sub(1));
                    for j in (i + 1)..=hi {
                        let b = s.tokens[j];
                        if !s.tags[j].is_term_internal() || corpus.is_stopword(b) || a == b {
                            continue;
                        }
                        let key = if a <= b { (a, b) } else { (b, a) };
                        *pairs.entry(key).or_insert(0) += 1;
                    }
                }
            }
        }
        // Fold the pair counts into per-token lists; the map is dropped
        // before the counts are returned, so only the lists stay resident.
        let n_tokens = occurrences.keys().map(|t| t.index() + 1).max().unwrap_or(0);
        let mut neighbours: Vec<Vec<(TokenId, u32)>> = vec![Vec::new(); n_tokens];
        for ((a, b), c) in pairs {
            neighbours[a.index()].push((b, c));
            neighbours[b.index()].push((a, c));
        }
        for list in &mut neighbours {
            list.sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            list.shrink_to_fit();
        }
        CoocCounts {
            neighbours,
            occurrences,
            window,
        }
    }

    /// The window size the counts were computed with.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Co-occurrence count of an unordered pair.
    pub fn pair(&self, a: TokenId, b: TokenId) -> u32 {
        self.neighbours(a)
            .iter()
            .find(|&&(t, _)| t == b)
            .map_or(0, |&(_, c)| c)
    }

    /// Occurrence count of one token (among counted tokens).
    pub fn occurrences(&self, t: TokenId) -> u32 {
        self.occurrences.get(&t).copied().unwrap_or(0)
    }

    /// All pairs `((a, b), count)` with `a < b`, in stable (sorted) order.
    pub fn iter_pairs(&self) -> Vec<((TokenId, TokenId), u32)> {
        let mut v = Vec::new();
        for (i, list) in self.neighbours.iter().enumerate() {
            let a = TokenId(i as u32);
            v.extend(
                list.iter()
                    .filter(|&&(b, _)| a < b)
                    .map(|&(b, c)| ((a, b), c)),
            );
        }
        v.sort_unstable_by_key(|(k, _)| *k);
        v
    }

    /// Number of distinct co-occurring pairs.
    pub fn pair_count(&self) -> usize {
        self.neighbours.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Neighbours of `t` with counts, sorted by decreasing count then id.
    pub fn neighbours(&self, t: TokenId) -> &[(TokenId, u32)] {
        self.neighbours.get(t.index()).map_or(&[], Vec::as_slice)
    }

    /// Pointwise mutual information of a pair given total token mass.
    ///
    /// `pmi = log( p(a,b) / (p(a) p(b)) )` with add-zero smoothing: returns
    /// `None` when any count involved is zero.
    pub fn pmi(&self, a: TokenId, b: TokenId) -> Option<f64> {
        let cab = self.pair(a, b);
        let ca = self.occurrences(a);
        let cb = self.occurrences(b);
        if cab == 0 || ca == 0 || cb == 0 {
            return None;
        }
        let total: u64 = self.occurrences.values().map(|&c| u64::from(c)).sum();
        let total_pairs: u64 = self
            .neighbours
            .iter()
            .flatten()
            .map(|&(_, c)| u64::from(c))
            .sum::<u64>()
            / 2;
        if total == 0 || total_pairs == 0 {
            return None;
        }
        let pab = f64::from(cab) / total_pairs as f64;
        let pa = f64::from(ca) / total as f64;
        let pb = f64::from(cb) / total as f64;
        Some((pab / (pa * pb)).ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn corpus(texts: &[&str]) -> Corpus {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        b.build()
    }

    #[test]
    fn adjacent_words_cooccur() {
        let c = corpus(&["corneal injuries heal slowly."]);
        let cc = CoocCounts::from_corpus(&c, 2);
        let corneal = c.vocab().get("corneal").expect("id");
        let injuries = c.vocab().get("injuries").expect("id");
        assert_eq!(cc.pair(corneal, injuries), 1);
        assert_eq!(cc.pair(injuries, corneal), 1, "symmetric");
    }

    #[test]
    fn window_limits_reach() {
        let c = corpus(&["cornea epithelium stroma endothelium membrane."]);
        let cc = CoocCounts::from_corpus(&c, 1);
        let cornea = c.vocab().get("cornea").expect("id");
        let stroma = c.vocab().get("stroma").expect("id");
        assert_eq!(cc.pair(cornea, stroma), 0, "distance 2 > window 1");
        let cc2 = CoocCounts::from_corpus(&c, 2);
        assert_eq!(cc2.pair(cornea, stroma), 1);
    }

    #[test]
    fn stopwords_are_excluded_but_occupy_positions() {
        let c = corpus(&["injuries of the cornea."]);
        let cc = CoocCounts::from_corpus(&c, 2);
        let injuries = c.vocab().get("injuries").expect("id");
        let cornea = c.vocab().get("cornea").expect("id");
        // "of the" occupies 2 positions; distance injuries→cornea is 3 > 2.
        assert_eq!(cc.pair(injuries, cornea), 0);
        let cc3 = CoocCounts::from_corpus(&c, 3);
        assert_eq!(cc3.pair(injuries, cornea), 1);
        let the = c.vocab().get("the").expect("id");
        assert_eq!(cc3.occurrences(the), 0);
    }

    #[test]
    fn sentences_bound_windows() {
        let c = corpus(&["Damage was corneal. Injuries were treated."]);
        let cc = CoocCounts::from_corpus(&c, 10);
        let corneal = c.vocab().get("corneal").expect("id");
        let injuries = c.vocab().get("injuries").expect("id");
        assert_eq!(cc.pair(corneal, injuries), 0);
    }

    #[test]
    fn neighbours_sorted_by_count() {
        let c = corpus(&[
            "cornea injury repair.",
            "cornea injury healing.",
            "cornea scarring process.",
        ]);
        let cc = CoocCounts::from_corpus(&c, 2);
        let cornea = c.vocab().get("cornea").expect("id");
        let nb = cc.neighbours(cornea);
        assert!(!nb.is_empty());
        let injury = c.vocab().get("injury").expect("id");
        assert_eq!(nb[0].0, injury, "most frequent neighbour first");
        assert_eq!(nb[0].1, 2);
    }

    #[test]
    fn pmi_behaviour() {
        let c = corpus(&["cornea injury.", "cornea injury.", "stroma membrane."]);
        let cc = CoocCounts::from_corpus(&c, 2);
        let cornea = c.vocab().get("cornea").expect("id");
        let injury = c.vocab().get("injury").expect("id");
        let stroma = c.vocab().get("stroma").expect("id");
        assert!(cc.pmi(cornea, injury).expect("co-occurring") > 0.0);
        assert!(cc.pmi(cornea, stroma).is_none());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let c = corpus(&["a."]);
        let _ = CoocCounts::from_corpus(&c, 0);
    }

    #[test]
    fn iter_pairs_is_sorted() {
        let c = corpus(&["cornea injury repair healing process."]);
        let cc = CoocCounts::from_corpus(&c, 4);
        let pairs = cc.iter_pairs();
        assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(pairs.len(), cc.pair_count());
    }
}
