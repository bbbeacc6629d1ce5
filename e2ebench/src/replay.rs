//! The traced `enrich` run: `EnrichmentPipeline::run`'s stage sequence,
//! replayed through the same public calls with a span around each.
//!
//! The replay covers an unbudgeted, chaos-free run whose stages do not
//! panic, which is what the benchmark drives; the per-term fan-out runs on
//! `boe_par::par_map` like the pipeline's, and results come back in term
//! order. Its report must fingerprint the same as the pipeline's.

use crate::trace::{Trace, WorkerSpan};
use boe_core::diagnostics::Degradation;
use boe_core::linkage::SemanticLinker;
use boe_core::polysemy::detector::{FeatureContext, PolysemyDetector};
use boe_core::report::TermReport;
use boe_core::senses::SenseInducer;
use boe_core::termex::{RankedTerm, TermExtractor};
use boe_core::{EnrichmentReport, PipelineConfig, RunDiagnostics, Stage};
use boe_corpus::Corpus;
use boe_ontology::Ontology;
use std::sync::Arc;
use std::time::Instant;

/// Replay one pipeline run under `trace`.
pub fn run(
    corpus: &Corpus,
    ontology: &Ontology,
    cfg: &PipelineConfig,
    trace: &mut Trace,
) -> EnrichmentReport {
    // Step I.
    let extractor = trace
        .time("termex.extract", || {
            TermExtractor::try_new(corpus, cfg.candidates, &|| false)
        })
        .expect("a never-stop predicate cannot interrupt extraction");
    trace.count("termex.candidates", extractor.candidates().len() as f64);
    let ranked = trace.time("termex.rank_lidf", || {
        extractor.top(corpus, cfg.measure, cfg.top_terms)
    });
    let (known, new_terms): (Vec<RankedTerm>, Vec<RankedTerm>) = ranked
        .into_iter()
        .partition(|r| ontology.contains_term(&r.surface));
    let already_known = known.into_iter().map(|r| r.surface).collect();

    // Step II set-up: the shared index, feature context and detector,
    // trained on ontology terms found in the corpus (polysemic iff the
    // ontology attaches them to two or more concepts).
    let occ = trace.time("occurrence.build", || {
        Arc::new(cfg.resolution.build(corpus))
    });
    let features = trace.time("polysemy.context", || {
        FeatureContext::build_with_index(corpus, Arc::clone(&occ))
    });
    let (rows, labels) = trace.time("polysemy.train_features", || {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (surface, concepts) in ontology.terms() {
            let Some(tokens) = corpus.phrase_ids(surface) else {
                continue;
            };
            if !occ.contains(corpus, &tokens) {
                continue;
            }
            rows.push(features.features(&tokens, surface));
            labels.push(concepts.len() >= 2);
        }
        (rows, labels)
    });
    let positives = labels.iter().filter(|&&l| l).count();
    trace.count("polysemy.train_rows", rows.len() as f64);
    trace.count("polysemy.train_positives", positives as f64);
    let trainable = positives > 0 && positives < labels.len() && labels.len() >= 4;
    let detector = trace.time("polysemy.fit", || {
        trainable.then(|| PolysemyDetector::train(cfg.polysemy_model, rows, labels))
    });

    // Steps III–IV set-up.
    let inducer = trace.time("senses.setup", || {
        SenseInducer::with_index(corpus, cfg.senses, Arc::clone(&occ))
    });
    let linker = trace.time("linkage.setup", || {
        SemanticLinker::with_candidates_indexed(corpus, ontology, cfg.linker, &[], Arc::clone(&occ))
    });
    trace.count("linkage.inventory_terms", linker.inventory().len() as f64);

    // Steps II–IV per term.
    let start = Instant::now();
    let outcomes = boe_par::par_map(&new_terms, |r| {
        term(corpus, r, detector.as_ref(), &features, &inducer, &linker)
    });
    trace.push_fanout(
        "pipeline.fanout",
        start,
        Instant::now(),
        outcomes.iter().flat_map(|o| o.spans.iter().copied()),
    );

    let mut diagnostics = RunDiagnostics::default();
    let mut terms = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        diagnostics.degraded.extend(o.degraded);
        if let Some(t) = o.report {
            trace.count("polysemy.flagged", f64::from(u8::from(t.polysemic)));
            trace.count("senses.contexts", t.senses.assignments.len() as f64);
            let swept = t.polysemic && t.senses.assignments.len() >= 2;
            trace.count("senses.k_sweeps", f64::from(u8::from(swept)));
            trace.count("linkage.propositions", t.propositions.len() as f64);
            terms.push(t);
        }
    }
    EnrichmentReport {
        terms,
        already_known,
        diagnostics,
    }
}

/// One term's Steps II–IV, with the worker spans that timed them.
struct TermOutcome {
    report: Option<TermReport>,
    degraded: Vec<Degradation>,
    spans: [WorkerSpan; 3],
}

fn term(
    corpus: &Corpus,
    r: &RankedTerm,
    detector: Option<&PolysemyDetector>,
    features: &FeatureContext<'_>,
    inducer: &SenseInducer<'_>,
    linker: &SemanticLinker<'_>,
) -> TermOutcome {
    let t0 = Instant::now();
    let mut degraded = Vec::new();
    let Some(tokens) = corpus.phrase_ids(&r.surface) else {
        degraded.push(Degradation {
            term: r.surface.clone(),
            stage: Stage::TermExtraction,
            reason: "candidate tokens missing from the corpus vocabulary".to_owned(),
        });
        return TermOutcome {
            report: None,
            degraded,
            spans: [
                ("polysemy.detect", t0, t0),
                ("senses.induce", t0, t0),
                ("linkage.propose", t0, t0),
            ],
        };
    };
    let polysemic =
        detector.is_some_and(|d| d.is_polysemic(&features.features(&tokens, &r.surface)));
    let t1 = Instant::now();
    let senses = inducer.induce(&tokens, polysemic);
    if senses.repaired > 0 {
        degraded.push(Degradation {
            term: r.surface.clone(),
            stage: Stage::SenseInduction,
            reason: format!(
                "{} context vector(s) repaired (non-finite weights dropped)",
                senses.repaired
            ),
        });
    }
    let t2 = Instant::now();
    let propositions = linker.propose(&r.surface);
    let t3 = Instant::now();
    TermOutcome {
        report: Some(TermReport {
            surface: r.surface.clone(),
            term_score: r.score,
            polysemic,
            senses,
            propositions,
            truncated: false,
        }),
        degraded,
        spans: [
            ("polysemy.detect", t0, t1),
            ("senses.induce", t1, t2),
            ("linkage.propose", t2, t3),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint;
    use crate::inputs::{ingest, render};
    use boe_core::EnrichmentPipeline;
    use boe_eval::world::{World, WorldConfig};

    /// The bit-identity contract: the pipeline's report fingerprint is
    /// the same at 1 thread and at every core, and the traced replay
    /// reproduces it.
    #[test]
    fn enrich_fingerprint_is_thread_count_invariant_and_replayed() {
        let world = World::generate(&WorldConfig {
            n_concepts: 60,
            n_holdout: 10,
            abstracts_per_concept: 4,
            n_shared_synonyms: 6,
            n_ambiguous_new: 4,
            seed: 3,
            ..Default::default()
        });
        let corpus = ingest(world.corpus.language(), &render(&world.corpus));
        let onto = &world.reduced_ontology;
        let cfg = PipelineConfig {
            top_terms: 60,
            ..Default::default()
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut prints = Vec::new();
        for threads in [1, cores.max(2)] {
            boe_par::set_threads(Some(threads));
            let report = EnrichmentPipeline::new(cfg).run(&corpus, onto).unwrap();
            assert!(!report.is_degraded(), "{report}");
            prints.push(fingerprint::report(&report));
            let replayed = run(&corpus, onto, &cfg, &mut Trace::default());
            prints.push(fingerprint::report(&replayed));
        }
        boe_par::set_threads(None);
        assert!(prints.windows(2).all(|w| w[0] == w[1]), "{prints:x?}");
    }
}
