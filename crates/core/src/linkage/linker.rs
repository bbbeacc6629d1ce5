//! The semantic linker.

use crate::linkage::inventory::OntologyTermInventory;
use boe_corpus::context::{ContextOptions, ContextScope, StemMap};
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::Corpus;
use boe_ontology::{query, ConceptId, Ontology};
use std::collections::HashMap;
use std::sync::Arc;

/// How a proposed position entered the candidate list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PositionOrigin {
    /// The term co-occurs with the candidate (its "MeSH neighbour").
    Neighbour,
    /// A term of a father of a neighbour's concept.
    FatherOfNeighbour,
    /// A term of a son of a neighbour's concept.
    SonOfNeighbour,
}

impl PositionOrigin {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PositionOrigin::Neighbour => "neighbour",
            PositionOrigin::FatherOfNeighbour => "father-of-neighbour",
            PositionOrigin::SonOfNeighbour => "son-of-neighbour",
        }
    }
}

/// One ranked proposition: "the candidate term could be positioned at
/// this ontology term" (cf. Table 3).
#[derive(Debug, Clone)]
pub struct Proposition {
    /// The ontology term proposed as position.
    pub term: String,
    /// Concepts carrying that term.
    pub concepts: Vec<ConceptId>,
    /// Context cosine between candidate and position.
    pub cosine: f64,
    /// How the position was reached.
    pub origin: PositionOrigin,
}

/// Linker configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinkerConfig {
    /// Number of propositions returned (paper: 10).
    pub top_n: usize,
    /// Include terms of fathers/sons of neighbour concepts even when they
    /// do not co-occur with the candidate (they still need corpus
    /// contexts to score).
    pub expand_hierarchy: bool,
    /// Context reach for the cosine comparison. The paper aggregates the
    /// whole retrieved abstracts (333M tokens of context), which maps to
    /// [`ContextScope::Document`]; sentence scope suits corpora whose
    /// documents mix unrelated topics.
    pub scope: ContextScope,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        LinkerConfig {
            top_n: 10,
            expand_hierarchy: true,
            scope: ContextScope::Document,
        }
    }
}

/// The shared front half of a proposal: the candidate's aggregate
/// context, its match key, and the candidate positions in ascending
/// inventory-index order.
struct GatheredPositions {
    context: boe_corpus::SparseVector,
    key: String,
    targets: Vec<(usize, PositionOrigin)>,
}

/// Step-IV semantic linker bound to one corpus + ontology.
#[derive(Debug)]
pub struct SemanticLinker<'c> {
    corpus: &'c Corpus,
    ontology: &'c Ontology,
    stems: StemMap,
    occ: Arc<OccurrenceIndex>,
    inventory: OntologyTermInventory,
    config: LinkerConfig,
}

impl<'c> SemanticLinker<'c> {
    /// Build the linker (indexes the corpus for ontology terms once).
    pub fn new(corpus: &'c Corpus, ontology: &'c Ontology, config: LinkerConfig) -> Self {
        Self::with_candidates(corpus, ontology, config, &[])
    }

    /// Build the linker with extra proposable corpus terms (Step-I
    /// candidates, cf. Table 3 where "wound" and "re-epithelialization"
    /// are proposed despite not being MeSH terms).
    pub fn with_candidates(
        corpus: &'c Corpus,
        ontology: &'c Ontology,
        config: LinkerConfig,
        candidates: &[String],
    ) -> Self {
        let occ = Arc::new(OccurrenceIndex::build(corpus));
        Self::with_candidates_indexed(corpus, ontology, config, candidates, occ)
    }

    /// [`Self::with_candidates`] resolving occurrences through a shared
    /// [`OccurrenceIndex`] (the pipeline builds one per run and hands it
    /// to every stage instead of re-indexing per component).
    pub fn with_candidates_indexed(
        corpus: &'c Corpus,
        ontology: &'c Ontology,
        config: LinkerConfig,
        candidates: &[String],
        occ: Arc<OccurrenceIndex>,
    ) -> Self {
        let stems = StemMap::build(corpus);
        let inventory = OntologyTermInventory::build_with_extras(
            corpus,
            ontology,
            &stems,
            candidates,
            config.scope,
            &occ,
        );
        SemanticLinker {
            corpus,
            ontology,
            stems,
            occ,
            inventory,
            config,
        }
    }

    /// The ontology-term inventory.
    pub fn inventory(&self) -> &OntologyTermInventory {
        &self.inventory
    }

    /// Propose positions for a candidate term given as a surface string.
    /// Returns an empty list when the candidate does not occur in the
    /// corpus.
    ///
    /// Position contexts are scored through the inventory's inverted
    /// index ([`OntologyTermInventory::cosines_against`]); the result is
    /// bit-identical to the brute-force scan kept as
    /// [`SemanticLinker::propose_naive`].
    pub fn propose(&self, candidate: &str) -> Vec<Proposition> {
        let Some(g) = self.gather_positions(candidate) else {
            return Vec::new();
        };
        let indices: Vec<usize> = g.targets.iter().map(|&(i, _)| i).collect();
        let cosines = self.inventory.cosines_against(&g.context, &indices);
        self.rank(&g.key, g.targets, cosines)
    }

    /// [`SemanticLinker::propose`] with the original brute-force cosine
    /// scan (one merge join per position): the test oracle the
    /// inverted-index path is verified against, with no production caller.
    pub fn propose_naive(&self, candidate: &str) -> Vec<Proposition> {
        let Some(g) = self.gather_positions(candidate) else {
            return Vec::new();
        };
        let cosines: Vec<f64> = g
            .targets
            .iter()
            .map(|&(i, _)| g.context.cosine(&self.inventory.terms()[i].context))
            .collect();
        self.rank(&g.key, g.targets, cosines)
    }

    /// Shared front half of both proposal paths: the candidate's
    /// aggregate context, its match key, and the candidate positions
    /// (inventory index + origin, ascending index order). `None` when
    /// the candidate does not occur in the corpus.
    fn gather_positions(&self, candidate: &str) -> Option<GatheredPositions> {
        let tokens = self.corpus.phrase_ids(candidate)?;
        let opts = ContextOptions {
            window: None,
            stemmed: true,
            scope: self.config.scope,
        };
        // One positional resolution serves both the occurrence list and
        // the aggregate context.
        let (occs, candidate_ctx) =
            self.occ
                .occurrences_and_context(self.corpus, &tokens, opts, Some(&self.stems));
        if occs.is_empty() {
            return None;
        }
        let sentences: Vec<(u32, u32)> =
            occs.iter().map(|o| (o.doc.0, o.sentence as u32)).collect();

        // (1) MeSH neighbourhood: ontology terms co-occurring with the
        // candidate, excluding the candidate itself if it is already a
        // known term.
        let candidate_key = boe_textkit::normalize::match_key(candidate);
        let neighbours: Vec<usize> = self
            .inventory
            .cooccurring(&sentences)
            .into_iter()
            .filter(|&i| self.inventory.terms()[i].key != candidate_key)
            .collect();

        // (2) Candidate positions: neighbours + terms of fathers/sons of
        // neighbour concepts. Track the best (most direct) origin.
        let mut positions: HashMap<usize, PositionOrigin> = HashMap::new();
        for &i in &neighbours {
            positions.entry(i).or_insert(PositionOrigin::Neighbour);
        }
        if self.config.expand_hierarchy {
            for &i in &neighbours {
                let concepts = self.inventory.terms()[i].concepts.clone();
                for c in concepts {
                    for &f in query::fathers(self.ontology, c) {
                        self.add_concept_terms(
                            &mut positions,
                            f,
                            PositionOrigin::FatherOfNeighbour,
                        );
                    }
                    for &s in query::sons(self.ontology, c) {
                        self.add_concept_terms(&mut positions, s, PositionOrigin::SonOfNeighbour);
                    }
                }
            }
        }
        let mut targets: Vec<(usize, PositionOrigin)> = positions.into_iter().collect();
        targets.sort_unstable_by_key(|&(i, _)| i);
        Some(GatheredPositions {
            context: candidate_ctx,
            key: candidate_key,
            targets,
        })
    }

    /// Shared back half of both proposal paths: build, filter, rank and
    /// truncate the propositions given per-target cosines (aligned with
    /// `targets`).
    fn rank(
        &self,
        candidate_key: &str,
        targets: Vec<(usize, PositionOrigin)>,
        cosines: Vec<f64>,
    ) -> Vec<Proposition> {
        let mut props: Vec<Proposition> = targets
            .into_iter()
            .zip(cosines)
            .map(|((i, origin), cosine)| {
                let t = &self.inventory.terms()[i];
                Proposition {
                    term: t.surface.clone(),
                    concepts: t.concepts.clone(),
                    cosine,
                    origin,
                }
            })
            .filter(|p| boe_textkit::normalize::match_key(&p.term) != candidate_key)
            .collect();
        props.sort_by(|a, b| {
            b.cosine
                .partial_cmp(&a.cosine)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.term.cmp(&b.term))
        });
        props.truncate(self.config.top_n);
        props
    }

    /// Add every corpus-linked term of `concept` as a position with
    /// `origin` (neighbour origin wins if already present).
    fn add_concept_terms(
        &self,
        positions: &mut HashMap<usize, PositionOrigin>,
        concept: ConceptId,
        origin: PositionOrigin,
    ) {
        for term in self.ontology.concept(concept).terms() {
            if let Some(idx) = self.inventory.index_of(term) {
                positions.entry(idx).or_insert(origin);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_ontology::OntologyBuilder;
    use boe_textkit::Language;

    /// Ontology: eye diseases ⊃ corneal diseases ⊃ corneal ulcer;
    /// candidate "corneal injuries" co-occurs with "corneal diseases".
    fn world() -> (Corpus, Ontology) {
        let mut ob = OntologyBuilder::new("t", Language::English);
        let eye = ob.add_concept("eye diseases", vec![]);
        let cd = ob.add_concept("corneal diseases", vec![]);
        let cu = ob.add_concept("corneal ulcer", vec![]);
        ob.add_is_a(cd, eye);
        ob.add_is_a(cu, cd);
        let onto = ob.build().expect("valid");
        let mut cb = CorpusBuilder::new(Language::English);
        for _ in 0..4 {
            cb.add_text(
                "corneal injuries resemble corneal diseases in the epithelium stroma tissue.",
            );
            cb.add_text("corneal diseases affect the epithelium stroma tissue.");
            cb.add_text("corneal ulcer damages the epithelium stroma tissue.");
            cb.add_text("eye diseases involve the retina macula nerve.");
        }
        (cb.build(), onto)
    }

    #[test]
    fn proposes_cooccurring_neighbour_first() {
        let (c, o) = world();
        let linker = SemanticLinker::new(&c, &o, LinkerConfig::default());
        let props = linker.propose("corneal injuries");
        assert!(!props.is_empty());
        assert_eq!(props[0].term, "corneal diseases");
        assert_eq!(props[0].origin, PositionOrigin::Neighbour);
        assert!(props[0].cosine > 0.5, "cosine {}", props[0].cosine);
    }

    #[test]
    fn hierarchy_expansion_adds_fathers_and_sons() {
        let (c, o) = world();
        let linker = SemanticLinker::new(&c, &o, LinkerConfig::default());
        let props = linker.propose("corneal injuries");
        let terms: Vec<&str> = props.iter().map(|p| p.term.as_str()).collect();
        assert!(terms.contains(&"eye diseases"), "{terms:?}");
        assert!(terms.contains(&"corneal ulcer"), "{terms:?}");
        let ulcer = props
            .iter()
            .find(|p| p.term == "corneal ulcer")
            .expect("present");
        assert_eq!(ulcer.origin, PositionOrigin::SonOfNeighbour);
    }

    #[test]
    fn ranking_is_by_context_similarity() {
        let (c, o) = world();
        let linker = SemanticLinker::new(&c, &o, LinkerConfig::default());
        let props = linker.propose("corneal injuries");
        assert!(props.windows(2).all(|w| w[0].cosine >= w[1].cosine));
        // "eye diseases" shares no context words with the candidate →
        // must rank below "corneal ulcer" which shares the epithelium
        // context.
        let pos = |t: &str| props.iter().position(|p| p.term == t).expect("present");
        assert!(pos("corneal ulcer") < pos("eye diseases"));
    }

    #[test]
    fn unknown_candidate_yields_nothing() {
        let (c, o) = world();
        let linker = SemanticLinker::new(&c, &o, LinkerConfig::default());
        assert!(linker.propose("nonexistent term").is_empty());
    }

    #[test]
    fn top_n_truncates() {
        let (c, o) = world();
        let linker = SemanticLinker::new(
            &c,
            &o,
            LinkerConfig {
                top_n: 1,
                ..Default::default()
            },
        );
        assert_eq!(linker.propose("corneal injuries").len(), 1);
    }

    #[test]
    fn no_hierarchy_expansion_keeps_neighbours_only() {
        let (c, o) = world();
        let linker = SemanticLinker::new(
            &c,
            &o,
            LinkerConfig {
                expand_hierarchy: false,
                ..Default::default()
            },
        );
        let props = linker.propose("corneal injuries");
        assert!(props.iter().all(|p| p.origin == PositionOrigin::Neighbour));
    }

    #[test]
    fn corpus_candidates_are_proposable() {
        let (c, o) = world();
        let linker = SemanticLinker::with_candidates(
            &c,
            &o,
            LinkerConfig::default(),
            &["epithelium".to_owned(), "corneal injuries".to_owned()],
        );
        let props = linker.propose("corneal injuries");
        let epi = props.iter().find(|p| p.term == "epithelium");
        let epi = epi.expect("corpus term proposed");
        assert!(epi.concepts.is_empty(), "extras carry no concepts");
        assert_eq!(epi.origin, PositionOrigin::Neighbour);
        // The candidate itself was passed as an extra but must never be
        // proposed as its own position.
        assert!(props.iter().all(|p| p.term != "corneal injuries"));
    }

    #[test]
    fn inverted_index_matches_naive_scan_exactly() {
        let (c, o) = world();
        for expand_hierarchy in [true, false] {
            let linker = SemanticLinker::with_candidates(
                &c,
                &o,
                LinkerConfig {
                    expand_hierarchy,
                    ..Default::default()
                },
                &["epithelium".to_owned(), "stroma".to_owned()],
            );
            for candidate in ["corneal injuries", "epithelium", "nonexistent term"] {
                let fast = linker.propose(candidate);
                let naive = linker.propose_naive(candidate);
                assert_eq!(fast.len(), naive.len(), "{candidate}");
                for (f, n) in fast.iter().zip(&naive) {
                    assert_eq!(f.term, n.term, "{candidate}");
                    assert_eq!(f.concepts, n.concepts);
                    assert_eq!(f.origin, n.origin);
                    assert_eq!(
                        f.cosine.to_bits(),
                        n.cosine.to_bits(),
                        "{candidate} / {}: {} vs {}",
                        f.term,
                        f.cosine,
                        n.cosine
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_never_proposes_itself() {
        let mut ob = OntologyBuilder::new("t", Language::English);
        ob.add_concept("corneal injuries", vec![]);
        ob.add_concept("corneal diseases", vec![]);
        let o = ob.build().expect("valid");
        let mut cb = CorpusBuilder::new(Language::English);
        cb.add_text("corneal injuries resemble corneal diseases closely.");
        cb.add_text("corneal injuries resemble corneal diseases closely.");
        let c = cb.build();
        let linker = SemanticLinker::new(&c, &o, LinkerConfig::default());
        let props = linker.propose("corneal injuries");
        assert!(props.iter().all(|p| p.term != "corneal injuries"));
    }
}
