//! Seeded input generation. Everything here runs before any timer starts:
//! worlds are generated, rendered to raw text and dropped, so the program
//! under test only ever sees text and an ontology, as a user's would.

use boe_core::termex::candidates::CandidateOptions;
use boe_core::termex::{TermExtractor, TermMeasure};
use boe_corpus::corpus::CorpusBuilder;
use boe_corpus::synth::mshwsd::{MshWsdConfig, MshWsdDataset};
use boe_corpus::Corpus;
use boe_eval::world::{World, WorldConfig};
use boe_ontology::Ontology;
use boe_rng::StdRng;
use boe_textkit::Language;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Step I on a large French corpus (`boe extract`).
    Extract,
    /// The whole four-step pipeline (`boe pipeline`).
    Enrich,
    /// Step III k-prediction queries on an MSH-WSD-like set (`boe senses`).
    Senses,
    /// Step IV placement queries on a large English world (`boe link`).
    Link,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Extract,
        Workload::Enrich,
        Workload::Senses,
        Workload::Link,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Extract => "extract",
            Workload::Enrich => "enrich",
            Workload::Senses => "senses",
            Workload::Link => "link",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Terms `extract` ranks and `enrich` carries into Steps II–IV.
pub const TOP_TERMS: usize = 200;

/// Step-I candidates `link` makes proposable (and queries when new).
const LINK_CANDIDATES: usize = 300;

/// Raw text plus what a workload needs beside it.
#[derive(Debug)]
pub struct Inputs {
    /// Corpus language.
    pub lang: Language,
    /// One raw text per document.
    pub texts: Vec<String>,
    /// Workload-specific inputs and gold data.
    pub kind: Kind,
}

/// Workload-specific inputs.
#[derive(Debug)]
pub enum Kind {
    /// Text only.
    Extract,
    /// The target ontology ("MeSH 2009", held-out concepts removed).
    Enrich {
        /// Target ontology.
        ontology: Ontology,
    },
    /// Ambiguous entities and their gold sense counts.
    Senses {
        /// Entity surfaces, one query each.
        surfaces: Vec<String>,
        /// Gold k per entity.
        gold_k: Vec<usize>,
    },
    /// Target ontology, proposable candidates and queries.
    Link {
        /// Target ontology.
        ontology: Ontology,
        /// Step-I candidates made proposable at set-up.
        candidates: Vec<String>,
        /// Surfaces to place: held-out terms first, then new candidates.
        queries: Vec<String>,
        /// Gold position keys of the held-out queries, in query order.
        gold: Vec<Vec<String>>,
    },
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`.
    ///
    /// Each workload keeps its generator's default world and takes the
    /// seed as a document order. Across generated worlds the cost of one
    /// workload varies by up to 2.4× (`enrich`: Step II's context
    /// self-similarity is quadratic in a training term's occurrences, and
    /// the most frequent terms differ per world; `senses`: the number of
    /// 4- and 5-sense entities sets the tail), which no regression bound
    /// could absorb.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::Extract => {
                let world = World::generate(&WorldConfig {
                    lang: Language::French,
                    abstracts_per_concept: 25,
                    ..Default::default()
                });
                Inputs {
                    lang: Language::French,
                    texts: shuffled(render(&world.corpus), seed),
                    kind: Kind::Extract,
                }
            }
            Workload::Enrich => {
                // Three abstracts per concept (900 documents) keep one
                // pipeline run near a second, so a run's median rests on
                // some 25 operations rather than 8; Step II still does
                // most of the work.
                let world = World::generate(&WorldConfig {
                    abstracts_per_concept: 3,
                    n_shared_synonyms: 20,
                    n_ambiguous_new: 20,
                    ..Default::default()
                });
                Inputs {
                    lang: Language::English,
                    texts: shuffled(render(&world.corpus), seed),
                    kind: Kind::Enrich {
                        ontology: world.reduced_ontology,
                    },
                }
            }
            Workload::Senses => {
                let data = MshWsdDataset::generate(Language::English, &MshWsdConfig::default());
                Inputs {
                    lang: Language::English,
                    texts: shuffled(render(&data.corpus), seed),
                    kind: Kind::Senses {
                        surfaces: data
                            .entities
                            .iter()
                            .map(|e| e.surface_text().to_owned())
                            .collect(),
                        gold_k: data.entities.iter().map(|e| e.k).collect(),
                    },
                }
            }
            Workload::Link => {
                let world = World::generate(&WorldConfig {
                    abstracts_per_concept: 25,
                    ..Default::default()
                });
                let texts = shuffled(render(&world.corpus), seed);
                // The proposable list is Step I's output on the ingested
                // text, computed once here so no timer sees it.
                let corpus = ingest(Language::English, &texts);
                let candidates: Vec<String> =
                    TermExtractor::new(&corpus, CandidateOptions::default())
                        .top(&corpus, TermMeasure::LidfValue, LINK_CANDIDATES)
                        .into_iter()
                        .map(|r| r.surface)
                        .collect();
                let onto = world.reduced_ontology;
                let mut queries: Vec<String> =
                    world.holdout.iter().map(|h| h.surface.clone()).collect();
                let gold = world.holdout.into_iter().map(|h| h.gold_terms).collect();
                for c in &candidates {
                    if !onto.contains_term(c) && !queries.contains(c) {
                        queries.push(c.clone());
                    }
                }
                Inputs {
                    lang: Language::English,
                    texts,
                    kind: Kind::Link {
                        ontology: onto,
                        candidates,
                        queries,
                        gold,
                    },
                }
            }
        }
    }
}

/// Ingest raw texts the way a user's corpus is loaded.
pub fn ingest(lang: Language, texts: &[String]) -> Corpus {
    let mut b = CorpusBuilder::new(lang);
    b.add_texts(texts);
    b.build()
}

/// `texts` in a seeded Fisher–Yates order.
fn shuffled(mut texts: Vec<String>, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..texts.len()).rev() {
        texts.swap(i, rng.gen_range(0..i + 1));
    }
    texts
}

/// One raw text per document: tokens joined by spaces, each sentence
/// closed by a full stop.
pub fn render(corpus: &Corpus) -> Vec<String> {
    corpus
        .docs()
        .iter()
        .map(|d| {
            d.sentences
                .iter()
                .map(|s| {
                    let mut line = s
                        .tokens
                        .iter()
                        .map(|&t| corpus.text(t))
                        .collect::<Vec<_>>()
                        .join(" ");
                    line.push('.');
                    line
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}
