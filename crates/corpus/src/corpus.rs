//! The corpus container and its builder.

use crate::doc::{DocId, Document, Sentence};
use boe_textkit::pos::{PosTag, PosTagger};
use boe_textkit::sentence::split_sentences;
use boe_textkit::stopwords::StopwordSet;
use boe_textkit::{Language, Token, TokenId, Tokenizer, Vocabulary};

/// A tokenized, tagged, interned document collection for one language.
#[derive(Debug, Clone)]
pub struct Corpus {
    lang: Language,
    vocab: Vocabulary,
    docs: Vec<Document>,
    /// `stop[id] == true` iff the token is a stopword (parallel to vocab).
    stop: Vec<bool>,
}

impl Corpus {
    /// The corpus language.
    pub fn language(&self) -> Language {
        self.lang
    }

    /// The interned vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The documents.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus contains no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Total token count.
    pub fn token_count(&self) -> usize {
        self.docs.iter().map(Document::token_count).sum()
    }

    /// Get a document by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }

    /// Is `id` a stopword in this corpus's language?
    pub fn is_stopword(&self, id: TokenId) -> bool {
        self.stop.get(id.index()).copied().unwrap_or(false)
    }

    /// Resolve a token id back to its surface form.
    pub fn text(&self, id: TokenId) -> &str {
        self.vocab.text(id)
    }

    /// Intern a phrase ("corneal injuries") into the token-id sequence it
    /// would have in this corpus, or `None` if any word is unknown.
    pub fn phrase_ids(&self, phrase: &str) -> Option<Vec<TokenId>> {
        phrase
            .split_whitespace()
            .map(|w| self.vocab.get(&w.to_lowercase()))
            .collect()
    }

    /// Ingestion hygiene counters: documents with no tokens at all and
    /// zero-length sentences that survived ingestion. The builder repairs
    /// what it can at load time ([`CorpusBuilder::add_text`] and
    /// [`CorpusBuilder::add_tokenized`] both drop empty sentences), so
    /// nonzero counters here mean a document was empty to begin with —
    /// usable but worth a validation warning.
    pub fn hygiene(&self) -> CorpusHygiene {
        let mut h = CorpusHygiene::default();
        for d in &self.docs {
            if d.token_count() == 0 {
                h.empty_docs += 1;
            }
            h.empty_sentences += d.sentences.iter().filter(|s| s.is_empty()).count();
        }
        h
    }
}

/// What [`Corpus::hygiene`] found: counts of degenerate-but-tolerated
/// ingestion artefacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusHygiene {
    /// Documents containing no tokens.
    pub empty_docs: usize,
    /// Sentences containing no tokens (should be repaired at load time).
    pub empty_sentences: usize,
}

impl CorpusHygiene {
    /// Whether anything suspicious was found.
    pub fn is_clean(&self) -> bool {
        self.empty_docs == 0 && self.empty_sentences == 0
    }
}

/// Incremental corpus builder: feed raw texts, get a [`Corpus`].
#[derive(Debug)]
pub struct CorpusBuilder {
    lang: Language,
    tokenizer: Tokenizer,
    tagger: PosTagger,
    stopwords: StopwordSet,
    vocab: Vocabulary,
    docs: Vec<Document>,
    stop: Vec<bool>,
}

impl CorpusBuilder {
    /// A builder for `lang`.
    pub fn new(lang: Language) -> Self {
        CorpusBuilder {
            lang,
            tokenizer: Tokenizer::new(lang),
            tagger: PosTagger::new(lang),
            stopwords: StopwordSet::for_language(lang),
            vocab: Vocabulary::new(),
            docs: Vec::new(),
            stop: Vec::new(),
        }
    }

    /// Tokenize, tag and intern one raw text as a new document. Returns its
    /// id.
    pub fn add_text(&mut self, text: &str) -> DocId {
        let tagged = tokenize_doc(&self.tokenizer, &self.tagger, text);
        self.intern_doc(tagged)
    }

    /// Batch ingestion: tokenize + POS-tag every text **in parallel**
    /// (`boe_par::par_map` over documents, at most 256 threads), then
    /// intern the un-interned sentence buffers into the shared
    /// [`Vocabulary`] in a serial in-document-order pass. The serial
    /// intern pass assigns exactly the `TokenId`s a serial
    /// [`add_text`](Self::add_text) loop would — first occurrence in
    /// reading order wins — so the built corpus is bit-identical at any
    /// thread count (equality-tested in
    /// `tests/step1_parallel_equality.rs`). Unlike candidate extraction,
    /// this step gains from threads: on 7,500 French documents it took
    /// 199 ms at 2 threads against 268 ms for the serial loop.
    pub fn add_texts<S: AsRef<str> + Sync>(&mut self, texts: &[S]) -> Vec<DocId> {
        // Phase 1 (parallel, no shared state): raw text → tagged token
        // buffers. Tokenizer and tagger are reentrant (`&self`, Sync).
        let (tokenizer, tagger) = (&self.tokenizer, &self.tagger);
        let tagged_docs = boe_par::par_map(texts, |t| tokenize_doc(tokenizer, tagger, t.as_ref()));
        // Phase 2 (serial, in order): intern into the shared vocabulary.
        // Token ids depend only on first-seen order, which this pass
        // replays exactly as the serial ingestion loop would.
        tagged_docs
            .into_iter()
            .map(|tagged| self.intern_doc(tagged))
            .collect()
    }

    /// Serial intern pass shared by [`add_text`](Self::add_text) and
    /// [`add_texts`](Self::add_texts): push one document of tagged
    /// sentence buffers, interning tokens in reading order.
    fn intern_doc(&mut self, tagged: Vec<(Vec<Token>, Vec<PosTag>)>) -> DocId {
        let id = DocId(u32::try_from(self.docs.len()).expect("more than u32::MAX documents"));
        let sentences = tagged
            .into_iter()
            .map(|(toks, tags)| {
                let ids: Vec<TokenId> = toks
                    .iter()
                    .map(|t| {
                        let id = self.vocab.intern(&t.text);
                        if id.index() == self.stop.len() {
                            self.stop.push(self.stopwords.contains(&t.text));
                        }
                        id
                    })
                    .collect();
                Sentence::new(ids, tags)
            })
            .collect();
        self.docs.push(Document { id, sentences });
        id
    }

    /// Add a pre-tokenized sentence list as one document (used by the
    /// synthetic generators, which emit tokens directly). Zero-length
    /// sentences are repaired away at load time, matching
    /// [`add_text`](Self::add_text)'s behaviour for raw text.
    pub fn add_tokenized(&mut self, sentences: Vec<(Vec<String>, Vec<PosTag>)>) -> DocId {
        let id = DocId(u32::try_from(self.docs.len()).expect("more than u32::MAX documents"));
        let sents = sentences
            .into_iter()
            .filter(|(words, _)| !words.is_empty())
            .map(|(words, tags)| {
                let ids: Vec<TokenId> = words
                    .iter()
                    .map(|w| {
                        let tid = self.vocab.intern(w);
                        if tid.index() == self.stop.len() {
                            self.stop.push(self.stopwords.contains(w.as_str()));
                        }
                        tid
                    })
                    .collect();
                Sentence::new(ids, tags)
            })
            .collect();
        self.docs.push(Document {
            id,
            sentences: sents,
        });
        id
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether no documents were added yet.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Finish building.
    pub fn build(self) -> Corpus {
        Corpus {
            lang: self.lang,
            vocab: self.vocab,
            docs: self.docs,
            stop: self.stop,
        }
    }
}

/// The pure per-document half of ingestion: sentence-split, tokenize and
/// POS-tag one raw text, dropping empty sentences. Free of builder state
/// so the batch path can run it on worker threads.
fn tokenize_doc(
    tokenizer: &Tokenizer,
    tagger: &PosTagger,
    text: &str,
) -> Vec<(Vec<Token>, Vec<PosTag>)> {
    let mut out = Vec::new();
    for raw_sentence in split_sentences(text) {
        let toks = tokenizer.tokenize(raw_sentence);
        if toks.is_empty() {
            continue;
        }
        let tags = tagger.tag(&toks);
        out.push((toks, tags));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        let mut b = CorpusBuilder::new(Language::English);
        b.add_text("Corneal injuries are severe. The cornea heals slowly.");
        b.add_text("Eye injuries include corneal injuries.");
        b.build()
    }

    #[test]
    fn builds_documents_and_sentences() {
        let c = small_corpus();
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.doc(DocId(0)).sentences.len(), 2);
        assert_eq!(c.doc(DocId(1)).sentences.len(), 1);
    }

    #[test]
    fn vocabulary_is_shared_across_documents() {
        let c = small_corpus();
        let id = c.vocab().get("corneal").expect("interned");
        // "corneal" occurs in both docs under the same id.
        let occurs_in = |d: &Document| d.iter_tokens().any(|(_, _, t, _)| t == id);
        assert!(occurs_in(c.doc(DocId(0))));
        assert!(occurs_in(c.doc(DocId(1))));
    }

    #[test]
    fn stopword_flags() {
        let c = small_corpus();
        let the = c.vocab().get("the").expect("interned");
        let cornea = c.vocab().get("cornea").expect("interned");
        assert!(c.is_stopword(the));
        assert!(!c.is_stopword(cornea));
    }

    #[test]
    fn phrase_ids_round_trip() {
        let c = small_corpus();
        let ids = c.phrase_ids("corneal injuries").expect("known words");
        assert_eq!(ids.len(), 2);
        assert_eq!(c.text(ids[0]), "corneal");
        assert!(c.phrase_ids("unknown gibberish").is_none());
    }

    #[test]
    fn token_count() {
        let c = small_corpus();
        assert_eq!(
            c.token_count(),
            c.docs().iter().map(Document::token_count).sum::<usize>()
        );
        assert!(c.token_count() > 10);
    }

    #[test]
    fn add_tokenized_interns_and_flags() {
        let mut b = CorpusBuilder::new(Language::English);
        let id = b.add_tokenized(vec![(
            vec!["the".into(), "cornea".into()],
            vec![PosTag::Determiner, PosTag::Noun],
        )]);
        let c = b.build();
        assert_eq!(id, DocId(0));
        let the = c.vocab().get("the").expect("interned");
        assert!(c.is_stopword(the));
    }

    #[test]
    fn add_tokenized_repairs_empty_sentences() {
        let mut b = CorpusBuilder::new(Language::English);
        b.add_tokenized(vec![
            (Vec::new(), Vec::new()),
            (vec!["cornea".into()], vec![PosTag::Noun]),
            (Vec::new(), Vec::new()),
        ]);
        let c = b.build();
        assert_eq!(
            c.doc(DocId(0)).sentences.len(),
            1,
            "empty sentences dropped"
        );
        assert!(c.hygiene().is_clean());
    }

    #[test]
    fn add_texts_matches_serial_ingestion() {
        let texts = [
            "Corneal injuries are severe. The cornea heals slowly.",
            "Eye injuries include corneal injuries.",
            "",
            "Amniotic membrane grafts support the epithelium.",
        ];
        let mut serial = CorpusBuilder::new(Language::English);
        for t in &texts {
            serial.add_text(t);
        }
        let serial = serial.build();
        for threads in [1usize, 8] {
            boe_par::set_threads(Some(threads));
            let mut batch = CorpusBuilder::new(Language::English);
            let ids = batch.add_texts(&texts);
            let batch = batch.build();
            boe_par::set_threads(None);
            assert_eq!(ids.len(), texts.len());
            assert_eq!(batch.len(), serial.len());
            assert_eq!(batch.vocab().len(), serial.vocab().len());
            for (a, b) in batch.vocab().iter().zip(serial.vocab().iter()) {
                assert_eq!(a, b, "vocab diverges at {threads} thread(s)");
            }
            for (da, db) in batch.docs().iter().zip(serial.docs().iter()) {
                assert_eq!(da.sentences, db.sentences);
            }
            assert_eq!(batch.stop, serial.stop);
        }
    }

    #[test]
    fn hygiene_flags_empty_documents() {
        let mut b = CorpusBuilder::new(Language::English);
        b.add_text("the cornea heals.");
        b.add_text("");
        b.add_tokenized(Vec::new());
        let c = b.build();
        let h = c.hygiene();
        assert_eq!(h.empty_docs, 2);
        assert_eq!(h.empty_sentences, 0);
        assert!(!h.is_clean());
        assert!(small_corpus().hygiene().is_clean());
    }
}
