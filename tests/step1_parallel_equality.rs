//! Randomized Step I pin: for synthetic raw corpora in all three
//! supported languages, the batch ingestion path
//! ([`CorpusBuilder::add_texts`]) must reproduce the serial `add_text`
//! loop **byte for byte** (same interned vocabulary, ids and order, same
//! documents), and the Step I output (every candidate field, the
//! co-occurrence graph with its weight bits, the TeRGraph and LIDF score
//! bits) must be identical at 1 and 8 threads **and** equal a golden
//! FNV-1a digest recorded per language. The digest catches a change that
//! moves every thread count the same way, which a 1-vs-8 comparison
//! cannot.
//!
//! One `#[test]` because [`boe_par::set_threads`] is process-global and
//! the harness runs `#[test]`s of one binary concurrently.

use bio_onto_enrich::corpus::corpus::{Corpus, CorpusBuilder};
use bio_onto_enrich::corpus::index::InvertedIndex;
use bio_onto_enrich::par as boe_par;
use bio_onto_enrich::textkit::pattern::PatternSet;
use bio_onto_enrich::textkit::Language;
use bio_onto_enrich::workflow::termex::candidates::{CandidateOptions, CandidateTerm};
use bio_onto_enrich::workflow::termex::lidf::lidf_values;
use bio_onto_enrich::workflow::termex::{tergraph_scores, term_cooccurrence_graph, TermExtractor};
use boe_rng::StdRng;

/// Golden Step I digests of the randomized corpora, one per language
/// (see [`Step1::digest`]). Update only with a CHANGES.md entry saying
/// which Step I behaviour changed and why.
const GOLDEN: [(Language, u64); 3] = [
    (Language::English, 0xa092_b37d_a4f5_b37b),
    (Language::French, 0xd785_175c_14f5_cc02),
    (Language::Spanish, 0x030a_f4ca_2fff_4a67),
];

/// Word pools with the orthography that stresses the tokenizer: accents,
/// elisions, hyphens, digits. Repetition is deliberate — candidates need
/// `min_freq >= 2` to survive, so a small pool yields a dense inventory.
fn pool(lang: Language) -> &'static [&'static str] {
    match lang {
        Language::English => &[
            "corneal",
            "injury",
            "retinal",
            "degeneration",
            "gene-expression",
            "covid-19",
            "epithelium",
            "chronic",
            "disease",
            "biopsy",
            "the",
            "of",
            "in",
            "severe",
            "lesion",
        ],
        Language::French => &[
            "l'épithélium",
            "cornée",
            "maladie",
            "dégénérescence",
            "l'œil",
            "anti-inflammatoire",
            "chronique",
            "lésion",
            "sévère",
            "d'une",
            "la",
            "de",
            "et",
            "greffe",
            "rétine",
        ],
        Language::Spanish => &[
            "córnea",
            "enfermedad",
            "inflamación",
            "señal",
            "crónica",
            "lesión",
            "degeneración",
            "epitelio",
            "niño",
            "año",
            "la",
            "de",
            "en",
            "grave",
            "biopsia",
        ],
    }
}

/// A synthetic raw document: 1–5 sentences of 3–12 pooled words with
/// commas sprinkled in and varied terminators.
fn synth_doc(rng: &mut StdRng, words: &[&str]) -> String {
    let n_sentences = rng.gen_range(1..=5usize);
    let mut doc = String::new();
    for s in 0..n_sentences {
        if s > 0 {
            doc.push(' ');
        }
        let n_words = rng.gen_range(3..=12usize);
        for w in 0..n_words {
            if w > 0 {
                doc.push(if rng.gen_bool(0.1) { ',' } else { ' ' });
                if doc.ends_with(',') {
                    doc.push(' ');
                }
            }
            doc.push_str(words[rng.gen_range(0..words.len())]);
        }
        doc.push(match rng.gen_range(0..4u32) {
            0 => '?',
            1 => '!',
            _ => '.',
        });
    }
    doc
}

fn ingest_serial(lang: Language, texts: &[String]) -> Corpus {
    let mut b = CorpusBuilder::new(lang);
    for t in texts {
        b.add_text(t);
    }
    b.build()
}

fn ingest_batch(lang: Language, texts: &[String]) -> Corpus {
    let mut b = CorpusBuilder::new(lang);
    b.add_texts(texts);
    b.build()
}

/// Byte-level corpus equality: vocabulary (same ids in the same order,
/// same surfaces, same stop flags) and documents (sentence token ids).
fn assert_corpora_identical(a: &Corpus, b: &Corpus, ctx: &str) {
    let va: Vec<_> = a.vocab().iter().collect();
    let vb: Vec<_> = b.vocab().iter().collect();
    assert_eq!(va, vb, "{ctx}: vocabulary diverged");
    for (id, _) in va {
        assert_eq!(a.is_stopword(id), b.is_stopword(id), "{ctx}: stop flag");
    }
    assert_eq!(a.docs(), b.docs(), "{ctx}: documents diverged");
}

/// Everything Step I computes on one corpus, in comparable form.
#[derive(Debug, PartialEq)]
struct Step1 {
    terms: Vec<CandidateTerm>,
    node_count: usize,
    /// `(a, b, weight bits)` in the graph's edge order.
    edges: Vec<(u32, u32, u64)>,
    tergraph_bits: Vec<u64>,
    lidf_bits: Vec<u64>,
}

impl Step1 {
    fn run(corpus: &Corpus) -> Step1 {
        let extractor = TermExtractor::new(corpus, CandidateOptions::default());
        let set = extractor.candidates();
        let graph = term_cooccurrence_graph(corpus, set);
        let index = InvertedIndex::build(corpus);
        let patterns = PatternSet::for_language(corpus.language());
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
        Step1 {
            terms: set.terms.clone(),
            node_count: graph.node_count(),
            edges: graph
                .edges()
                .map(|(a, b, w)| (a.0, b.0, w.to_bits()))
                .collect(),
            tergraph_bits: bits(tergraph_scores(&graph)),
            lidf_bits: bits(lidf_values(&index, &patterns, set)),
        }
    }

    /// 64-bit FNV-1a over every field, each integer little-endian and
    /// each sequence prefixed by its length.
    fn digest(&self) -> u64 {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        h.u64(self.terms.len() as u64);
        for t in &self.terms {
            h.u64(t.tokens.len() as u64);
            for tok in &t.tokens {
                h.u64(u64::from(tok.0));
            }
            h.u64(t.surface.len() as u64);
            h.bytes(t.surface.as_bytes());
            h.u64(t.pattern as u64);
            for v in [t.freq, t.doc_freq, t.nested_freq, t.containers] {
                h.u64(u64::from(v));
            }
        }
        h.u64(self.node_count as u64);
        h.u64(self.edges.len() as u64);
        for &(a, b, w) in &self.edges {
            h.u64(u64::from(a));
            h.u64(u64::from(b));
            h.u64(w);
        }
        for scores in [&self.tergraph_bits, &self.lidf_bits] {
            h.u64(scores.len() as u64);
            for &v in scores {
                h.u64(v);
            }
        }
        h.0
    }
}

struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[test]
fn randomized_step1_is_bit_identical_across_paths_and_threads() {
    let mut rng = StdRng::seed_from_u64(0x57E9_1EAF);
    let mut digests = Vec::new();
    for lang in [Language::English, Language::French, Language::Spanish] {
        let words = pool(lang);
        let texts: Vec<String> = (0..40).map(|_| synth_doc(&mut rng, words)).collect();

        // Ingestion: serial add_text loop is the reference.
        boe_par::set_threads(Some(1));
        let reference = ingest_serial(lang, &texts);
        let batch_1t = ingest_batch(lang, &texts);
        boe_par::set_threads(Some(8));
        let batch_8t = ingest_batch(lang, &texts);
        assert_corpora_identical(&reference, &batch_1t, &format!("{lang:?} 1t"));
        assert_corpora_identical(&reference, &batch_8t, &format!("{lang:?} 8t"));

        // Step I at 1 and 8 threads, compared field by field.
        boe_par::set_threads(Some(1));
        let step1_1t = Step1::run(&reference);
        boe_par::set_threads(Some(8));
        let step1_8t = Step1::run(&reference);
        assert!(
            !step1_1t.terms.is_empty() && !step1_1t.edges.is_empty(),
            "{lang:?}: vacuous corpus — no candidates or no edges"
        );
        assert_eq!(step1_1t.terms, step1_8t.terms, "{lang:?}: candidates");
        assert_eq!(step1_1t.node_count, step1_8t.node_count, "{lang:?}: nodes");
        assert_eq!(step1_1t.edges, step1_8t.edges, "{lang:?}: graph edges");
        assert_eq!(
            step1_1t.tergraph_bits, step1_8t.tergraph_bits,
            "{lang:?}: tergraph score bits"
        );
        assert_eq!(
            step1_1t.lidf_bits, step1_8t.lidf_bits,
            "{lang:?}: lidf bits"
        );
        digests.push((lang, step1_1t.digest()));
    }
    boe_par::set_threads(None);
    assert_eq!(
        digests, GOLDEN,
        "Step I output moved from the golden digests"
    );
}
