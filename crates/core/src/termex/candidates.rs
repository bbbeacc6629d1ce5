//! Candidate-term extraction via linguistic patterns.

use boe_corpus::doc::DocId;
use boe_corpus::Corpus;
use boe_textkit::pattern::PatternSet;
use boe_textkit::TokenId;
use std::collections::HashMap;

/// One candidate term: a token-id sequence with its corpus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateTerm {
    /// The token-id sequence.
    pub tokens: Vec<TokenId>,
    /// Joined lower-case surface form.
    pub surface: String,
    /// Index of the matching pattern in the language's [`PatternSet`].
    pub pattern: usize,
    /// Total occurrence count.
    pub freq: u32,
    /// Number of distinct documents containing the candidate.
    pub doc_freq: u32,
    /// Number of occurrences nested inside a *longer* candidate.
    pub nested_freq: u32,
    /// Number of distinct longer candidates containing this one.
    pub containers: u32,
}

impl CandidateTerm {
    /// Number of words.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the candidate has no tokens (never true after extraction).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// The candidate inventory of a corpus.
#[derive(Debug)]
pub struct CandidateSet {
    /// Candidates in first-seen order.
    pub terms: Vec<CandidateTerm>,
    by_tokens: HashMap<Vec<TokenId>, usize>,
}

impl CandidateSet {
    /// Find a candidate by its token sequence.
    pub fn get(&self, tokens: &[TokenId]) -> Option<&CandidateTerm> {
        self.by_tokens.get(tokens).map(|&i| &self.terms[i])
    }

    /// Find a candidate by its surface form.
    pub fn get_surface(&self, surface: &str) -> Option<&CandidateTerm> {
        self.terms.iter().find(|t| t.surface == surface)
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Extraction options.
#[derive(Debug, Clone, Copy)]
pub struct CandidateOptions {
    /// Minimum total frequency to keep a candidate.
    pub min_freq: u32,
    /// Maximum candidate length in words (patterns are shorter anyway).
    pub max_len: usize,
    /// Drop candidates whose first or last word is a stopword.
    pub stopword_boundary_filter: bool,
}

impl Default for CandidateOptions {
    fn default() -> Self {
        CandidateOptions {
            min_freq: 2,
            max_len: 5,
            stopword_boundary_filter: true,
        }
    }
}

/// Per-candidate occurrence statistics accumulated by the scan passes.
struct Raw {
    pattern: usize,
    freq: u32,
    docs: Vec<DocId>,
    /// (doc, sentence, start, len) of each occurrence.
    occs: Vec<(u32, u32, u32, u32)>,
}

/// One pattern match found by a per-document scan.
struct ScanOcc {
    tokens: Vec<TokenId>,
    pattern: usize,
    sentence: u32,
    start: u32,
    len: u32,
}

/// Extract the candidate set of `corpus` using its language's pattern
/// inventory. Nested occurrences are tracked (C-value needs them).
///
/// The per-document pattern scan and the per-candidate nesting pass run
/// on `boe_par` (contiguous chunks, in-order merge), and nesting uses a
/// sentence-local interval index instead of the quadratic all-pairs scan
/// — the output is bit-identical to [`extract_candidates_serial`] at
/// any thread count (equality-tested in
/// `tests/step1_parallel_equality.rs`).
pub fn extract_candidates(corpus: &Corpus, opts: CandidateOptions) -> CandidateSet {
    try_extract_candidates(corpus, opts, &|| false).expect("never-stop predicate cannot interrupt")
}

/// [`extract_candidates`] with cooperative cancellation: `should_stop`
/// is polled before every document of the scan and every candidate of
/// the nesting pass. Once it returns `true` the extraction winds down
/// and `None` is returned — partial candidate statistics would be
/// corpus-prefix-dependent, so an interrupted extraction yields no set
/// at all rather than a misleading one. The predicate must be monotonic
/// (once `true`, stay `true`).
pub fn try_extract_candidates<S>(
    corpus: &Corpus,
    opts: CandidateOptions,
    should_stop: &S,
) -> Option<CandidateSet>
where
    S: Fn() -> bool + Sync,
{
    boe_chaos::inject(boe_chaos::sites::TERMEX_CANDIDATES);
    let patterns = PatternSet::for_language(corpus.language());
    // Phase 1 (parallel): scan each document for pattern matches. Every
    // worker only reads the corpus; results come back in document order.
    let scan = boe_par::try_par_map(corpus.docs(), should_stop, |doc| {
        let mut occs = Vec::new();
        for (si, s) in doc.sentences.iter().enumerate() {
            for m in patterns.matches(&s.tags) {
                if m.len > opts.max_len {
                    continue;
                }
                let tokens = &s.tokens[m.start..m.start + m.len];
                if opts.stopword_boundary_filter {
                    let first = tokens[0];
                    let last = tokens[m.len - 1];
                    if corpus.is_stopword(first) || corpus.is_stopword(last) {
                        continue;
                    }
                }
                occs.push(ScanOcc {
                    tokens: tokens.to_vec(),
                    pattern: m.pattern,
                    sentence: si as u32,
                    start: m.start as u32,
                    len: m.len as u32,
                });
            }
        }
        occs
    });
    if scan.is_interrupted() {
        return None;
    }
    // Phase 2 (serial, in document order): merge into per-candidate
    // stats. Replaying matches in reading order keeps first-seen pattern
    // assignment and occurrence order identical to the serial scan.
    let mut raw: HashMap<Vec<TokenId>, Raw> = HashMap::new();
    for (doc, occs) in corpus.docs().iter().zip(scan.into_results()) {
        for o in occs {
            let entry = raw.entry(o.tokens).or_insert_with(|| Raw {
                pattern: o.pattern,
                freq: 0,
                docs: Vec::new(),
                occs: Vec::new(),
            });
            entry.freq += 1;
            entry.docs.push(doc.id);
            entry.occs.push((doc.id.0, o.sentence, o.start, o.len));
        }
    }
    // Keep candidates above the frequency threshold, in a stable order.
    let mut kept: Vec<(Vec<TokenId>, Raw)> = raw
        .into_iter()
        .filter(|(_, r)| r.freq >= opts.min_freq)
        .collect();
    kept.sort_by(|a, b| a.0.cmp(&b.0));
    if should_stop() {
        return None;
    }
    // Sentence-local interval index: every kept occurrence span, keyed by
    // its exact coordinates. A span identifies its candidate uniquely
    // (identical tokens hash to the same candidate), so the map needs no
    // per-key lists. A container of occurrence (d,s,st,ln) is a kept
    // occurrence (d,s,ost,oln) with oln > ln, ost ≤ st and
    // ost+oln ≥ st+ln — at most max_len² candidate spans, probed
    // directly instead of scanning every occurrence in the sentence.
    let mut span_index: HashMap<(u32, u32, u32, u32), usize> =
        HashMap::with_capacity(kept.iter().map(|(_, r)| r.occs.len()).sum());
    for (idx, (_, r)) in kept.iter().enumerate() {
        for &occ in &r.occs {
            span_index.insert(occ, idx);
        }
    }
    let max_ln = kept.iter().map(|(t, _)| t.len() as u32).max().unwrap_or(0);
    // Phase 3 (parallel): per-candidate nesting counts and assembly.
    // Workers only read `kept` and the span index.
    let kept_ref = &kept;
    let span_ref = &span_index;
    let built = boe_par::try_par_map_indexed(kept.len(), should_stop, |idx| {
        let (tokens, r) = &kept_ref[idx];
        let mut nested_freq = 0u32;
        let mut containers: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for &(d, s, st, ln) in &r.occs {
            let mut is_nested = false;
            for oln in (ln + 1)..=max_ln {
                for ost in (st + ln).saturating_sub(oln)..=st {
                    if let Some(&oidx) = span_ref.get(&(d, s, ost, oln)) {
                        is_nested = true;
                        containers.insert(oidx);
                    }
                }
            }
            if is_nested {
                nested_freq += 1;
            }
        }
        let mut docs = r.docs.clone();
        docs.sort_unstable();
        docs.dedup();
        let surface = tokens
            .iter()
            .map(|&t| corpus.text(t))
            .collect::<Vec<_>>()
            .join(" ");
        CandidateTerm {
            tokens: tokens.clone(),
            surface,
            pattern: r.pattern,
            freq: r.freq,
            doc_freq: docs.len() as u32,
            nested_freq,
            containers: containers.len() as u32,
        }
    });
    if built.is_interrupted() {
        return None;
    }
    let terms = built.into_results();
    let by_tokens = kept
        .iter()
        .enumerate()
        .map(|(i, (tokens, _))| (tokens.clone(), i))
        .collect();
    Some(CandidateSet { terms, by_tokens })
}

/// The original single-threaded extraction with the quadratic
/// all-pairs nesting scan: a test oracle for the serial-vs-parallel
/// equality suite, with no production caller.
pub fn extract_candidates_serial(corpus: &Corpus, opts: CandidateOptions) -> CandidateSet {
    boe_chaos::inject(boe_chaos::sites::TERMEX_CANDIDATES);
    let patterns = PatternSet::for_language(corpus.language());
    // First pass: collect occurrences keyed by token sequence.
    let mut raw: HashMap<Vec<TokenId>, Raw> = HashMap::new();
    for doc in corpus.docs() {
        for (si, s) in doc.sentences.iter().enumerate() {
            for m in patterns.matches(&s.tags) {
                if m.len > opts.max_len {
                    continue;
                }
                let tokens = &s.tokens[m.start..m.start + m.len];
                if opts.stopword_boundary_filter {
                    let first = tokens[0];
                    let last = tokens[m.len - 1];
                    if corpus.is_stopword(first) || corpus.is_stopword(last) {
                        continue;
                    }
                }
                let entry = raw.entry(tokens.to_vec()).or_insert_with(|| Raw {
                    pattern: m.pattern,
                    freq: 0,
                    docs: Vec::new(),
                    occs: Vec::new(),
                });
                entry.freq += 1;
                entry.docs.push(doc.id);
                entry
                    .occs
                    .push((doc.id.0, si as u32, m.start as u32, m.len as u32));
            }
        }
    }
    // Keep candidates above the frequency threshold, in a stable order.
    let mut kept: Vec<(Vec<TokenId>, Raw)> = raw
        .into_iter()
        .filter(|(_, r)| r.freq >= opts.min_freq)
        .collect();
    kept.sort_by(|a, b| a.0.cmp(&b.0));
    // Nesting: occurrence (d,s,start,len) of t is nested if some kept
    // longer candidate has an occurrence (d,s,start',len') covering it.
    type SentenceOccs = Vec<(u32, u32, usize)>; // (start, len, candidate idx)
    let mut occ_index: HashMap<(u32, u32), SentenceOccs> = HashMap::new();
    for (idx, (_, r)) in kept.iter().enumerate() {
        for &(d, s, st, ln) in &r.occs {
            occ_index.entry((d, s)).or_default().push((st, ln, idx));
        }
    }
    let mut terms = Vec::with_capacity(kept.len());
    let mut by_tokens = HashMap::with_capacity(kept.len());
    for (idx, (tokens, r)) in kept.iter().enumerate() {
        let mut nested_freq = 0u32;
        let mut containers: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for &(d, s, st, ln) in &r.occs {
            let mut is_nested = false;
            if let Some(list) = occ_index.get(&(d, s)) {
                for &(ost, oln, oidx) in list {
                    if oidx != idx && oln > ln && ost <= st && ost + oln >= st + ln {
                        is_nested = true;
                        containers.insert(oidx);
                    }
                }
            }
            if is_nested {
                nested_freq += 1;
            }
        }
        let mut docs = r.docs.clone();
        docs.sort_unstable();
        docs.dedup();
        let surface = tokens
            .iter()
            .map(|&t| corpus.text(t))
            .collect::<Vec<_>>()
            .join(" ");
        let term = CandidateTerm {
            tokens: tokens.clone(),
            surface,
            pattern: r.pattern,
            freq: r.freq,
            doc_freq: docs.len() as u32,
            nested_freq,
            containers: containers.len() as u32,
        };
        by_tokens.insert(tokens.clone(), terms.len());
        terms.push(term);
    }
    CandidateSet { terms, by_tokens }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn corpus(texts: &[&str]) -> Corpus {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        b.build()
    }

    #[test]
    fn extracts_adjective_noun_candidates() {
        let c = corpus(&[
            "acute corneal injuries require treatment.",
            "acute corneal injuries heal slowly.",
        ]);
        let set = extract_candidates(&c, CandidateOptions::default());
        let t = set.get_surface("corneal injuries").expect("extracted");
        assert_eq!(t.freq, 2);
        assert_eq!(t.doc_freq, 2);
        assert!(set.get_surface("acute corneal injuries").is_some());
    }

    #[test]
    fn nested_occurrences_are_counted() {
        let c = corpus(&[
            "acute corneal injuries require treatment.",
            "acute corneal injuries heal slowly.",
            "corneal injuries persist.",
        ]);
        let set = extract_candidates(&c, CandidateOptions::default());
        let inner = set.get_surface("corneal injuries").expect("extracted");
        assert_eq!(inner.freq, 3);
        assert_eq!(inner.nested_freq, 2, "two occurrences inside the ANN");
        assert_eq!(inner.containers, 1);
        let outer = set.get_surface("acute corneal injuries").expect("kept");
        assert_eq!(outer.nested_freq, 0);
    }

    #[test]
    fn min_freq_filters_hapaxes() {
        let c = corpus(&["rare singleton phrase.", "different text entirely."]);
        let set = extract_candidates(&c, CandidateOptions::default());
        assert!(set.get_surface("singleton phrase").is_none());
        let relaxed = extract_candidates(
            &c,
            CandidateOptions {
                min_freq: 1,
                ..Default::default()
            },
        );
        assert!(relaxed.len() > set.len());
    }

    #[test]
    fn candidates_are_looked_up_by_tokens() {
        let c = corpus(&["corneal injuries heal.", "corneal injuries persist."]);
        let set = extract_candidates(&c, CandidateOptions::default());
        let ids = c.phrase_ids("corneal injuries").expect("known");
        let t = set.get(&ids).expect("by tokens");
        assert_eq!(t.surface, "corneal injuries");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unigram_nouns_are_candidates() {
        let c = corpus(&["cornea heals.", "cornea scars."]);
        let set = extract_candidates(&c, CandidateOptions::default());
        assert!(set.get_surface("cornea").is_some());
    }

    #[test]
    fn deterministic_order() {
        let c = corpus(&["corneal injuries heal.", "corneal injuries persist."]);
        let a = extract_candidates(&c, CandidateOptions::default());
        let b = extract_candidates(&c, CandidateOptions::default());
        let sa: Vec<&str> = a.terms.iter().map(|t| t.surface.as_str()).collect();
        let sb: Vec<&str> = b.terms.iter().map(|t| t.surface.as_str()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn parallel_matches_serial_reference() {
        let c = corpus(&[
            "acute corneal injuries require treatment. corneal injuries persist.",
            "acute corneal injuries heal slowly. the cornea heals.",
            "corneal injuries persist. cornea scars badly.",
        ]);
        let serial = extract_candidates_serial(&c, CandidateOptions::default());
        for threads in [1usize, 8] {
            boe_par::set_threads(Some(threads));
            let par = extract_candidates(&c, CandidateOptions::default());
            boe_par::set_threads(None);
            assert_eq!(par.terms, serial.terms, "at {threads} thread(s)");
            for t in &serial.terms {
                assert_eq!(par.get(&t.tokens).expect("lookup"), t);
            }
        }
    }

    #[test]
    fn interrupted_extraction_yields_none() {
        let c = corpus(&["corneal injuries heal.", "corneal injuries persist."]);
        assert!(try_extract_candidates(&c, CandidateOptions::default(), &|| true).is_none());
        assert!(try_extract_candidates(&c, CandidateOptions::default(), &|| false).is_some());
    }
}
