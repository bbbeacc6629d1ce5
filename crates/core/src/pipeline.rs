//! The four-step enrichment pipeline.
//!
//! Chains Steps I–IV over one corpus and one target ontology:
//! candidate extraction → polysemy detection → sense induction →
//! semantic linkage, producing an [`EnrichmentReport`].
//!
//! Step II needs a trained detector; the pipeline trains one on weak
//! supervision derived from the *ontology itself* (terms the ontology
//! marks polysemic vs a sample of monosemic terms found in the corpus) —
//! exactly the supervision available to the paper's authors via UMLS.
//!
//! Runs are fallible and self-diagnosing: unusable input is rejected
//! upfront with a typed [`EnrichError`], while per-term trouble in Steps
//! II–IV *degrades* that one term (monosemic prior, senses/linkage
//! omitted) and records the reason in [`RunDiagnostics`] instead of
//! aborting the whole run.
//!
//! Runs are also **resource-governed**: a [`Governor`] built from
//! [`PipelineConfig::budget`] is polled at every stage boundary and
//! before every item of the per-term fan-out. The run is one stage
//! sequence (validation → Step I → occurrence index → Step II training
//! → Step III/IV set-up → fan-out → soft-deadline cheap pass) with a
//! single exit. A *hard* trip (run deadline, cancellation, allocation
//! budget) ends the sequence at its checkpoint; the exit records the
//! trip and gives every still-pending term a score-only report marked
//! `truncated`. A *soft* trip (per-stage deadline) re-runs the pending
//! terms under the cheapest Step-III configuration with Step IV skipped.
//! Either way the partial report is returned with the trip recorded in
//! its diagnostics; the run never aborts mid-flight. Every stage that
//! began has exactly one entry in [`RunDiagnostics::timings`].

use crate::diagnostics::{BudgetTrip, Degradation, DetectorOutcome, RunDiagnostics, StageTiming};
use crate::error::{EnrichError, Stage};
use crate::governor::{CancelToken, Governor, TripKind};
use crate::linkage::{LinkerConfig, SemanticLinker};
use crate::polysemy::detector::{FeatureContext, PolysemyDetector, PolysemyModel};
use crate::report::{EnrichmentReport, TermReport};
use crate::senses::{InducedSenses, SenseInducer, SenseInducerConfig};
use crate::termex::candidates::CandidateOptions;
use crate::termex::{RankedTerm, TermExtractor, TermMeasure};
use boe_corpus::occurrence::{OccurrenceIndex, OccurrenceResolution};
use boe_corpus::Corpus;
use boe_ontology::Ontology;
use boe_textkit::TokenId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Step-I candidate extraction options.
    pub candidates: CandidateOptions,
    /// Step-I ranking measure.
    pub measure: TermMeasure,
    /// Number of top-ranked candidates carried into Steps II–IV.
    pub top_terms: usize,
    /// Step-II classifier family.
    pub polysemy_model: PolysemyModel,
    /// Step-III configuration.
    pub senses: SenseInducerConfig,
    /// Step-IV configuration.
    pub linker: LinkerConfig,
    /// How Steps I–IV resolve phrase occurrences. [`Indexed`] builds one
    /// positional [`OccurrenceIndex`] per run and shares it across every
    /// stage; [`NaiveScan`] keeps the full-corpus reference scans (same
    /// output bit for bit, kept for equality testing).
    ///
    /// [`Indexed`]: OccurrenceResolution::Indexed
    /// [`NaiveScan`]: OccurrenceResolution::NaiveScan
    pub resolution: OccurrenceResolution,
    /// Resource budgets (deadline, per-stage deadline, allocation).
    /// Unlimited by default.
    pub budget: crate::governor::BudgetConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            candidates: CandidateOptions::default(),
            measure: TermMeasure::LidfValue,
            top_terms: 50,
            polysemy_model: PolysemyModel::Forest,
            senses: SenseInducerConfig::default(),
            linker: LinkerConfig::default(),
            resolution: OccurrenceResolution::default(),
            budget: crate::governor::BudgetConfig::default(),
        }
    }
}

/// The end-to-end enrichment pipeline.
#[derive(Debug)]
pub struct EnrichmentPipeline {
    config: PipelineConfig,
}

impl EnrichmentPipeline {
    /// A pipeline with `config`.
    pub fn new(config: PipelineConfig) -> Self {
        EnrichmentPipeline { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Run all four steps.
    ///
    /// Rejects unusable input upfront (empty corpus/ontology, language
    /// mismatch). A failure on one candidate in Steps II–IV downgrades
    /// that term — polysemy falls back to the monosemic prior, senses
    /// and linkage are omitted — and is recorded in the report's
    /// [`RunDiagnostics`] rather than failing the run.
    pub fn run(
        &self,
        corpus: &Corpus,
        ontology: &Ontology,
    ) -> Result<EnrichmentReport, EnrichError> {
        self.run_governed(corpus, ontology, Governor::new(self.config.budget))
    }

    /// [`run`](Self::run) with an externally held [`CancelToken`]: any
    /// thread can cancel the run, which winds down at its next
    /// cooperative poll and returns the truncated report with the
    /// cancellation recorded in its diagnostics.
    pub fn run_with_token(
        &self,
        corpus: &Corpus,
        ontology: &Ontology,
        cancel: CancelToken,
    ) -> Result<EnrichmentReport, EnrichError> {
        self.run_governed(
            corpus,
            ontology,
            Governor::with_token(self.config.budget, cancel),
        )
    }

    /// [`run`](Self::run) under a caller-constructed [`Governor`]. See
    /// the module docs for the governance contract (hard trips truncate,
    /// soft trips degrade, the run never aborts mid-flight).
    pub fn run_governed(
        &self,
        corpus: &Corpus,
        ontology: &Ontology,
        gov: Governor,
    ) -> Result<EnrichmentReport, EnrichError> {
        // The one exit of the stage sequence: record a hard trip, give
        // every still-pending term a score-only truncated report, then
        // assemble the report.
        let mut run = RunState::default();
        match self.stages(corpus, ontology, &gov, &mut run) {
            Ok(()) => {}
            Err(Halt::Failed(e)) => return Err(e),
            Err(Halt::Tripped(kind, stage, truncates)) => {
                run.record_trip(&gov, kind, stage, truncates);
            }
        }
        run.terms
            .extend(run.pending.drain(..).map(truncated_report));

        // Report assembly, with a final late-trip poll so a budget that
        // tripped after the last checkpoint still reaches the caller.
        guarded_stage(Stage::Reporting, || {
            boe_chaos::inject(boe_chaos::sites::REPORT)
        })?;
        if run.diag.hard_trip().is_none() {
            if let Some(trip) = gov.check_hard() {
                run.record_trip(&gov, trip, Stage::Reporting, &[]);
            }
        }
        Ok(EnrichmentReport {
            terms: run.terms,
            already_known: run.already_known,
            diagnostics: run.diag,
        })
    }

    /// The workflow as one stage sequence: validation → Step I →
    /// occurrence index → Step II training → Step III/IV set-up →
    /// fan-out → soft-deadline cheap pass. A hard trip at any checkpoint
    /// ends the sequence with [`Halt::Tripped`], leaving the unprocessed
    /// terms in [`RunState::pending`].
    fn stages(
        &self,
        corpus: &Corpus,
        ontology: &Ontology,
        gov: &Governor,
        run: &mut RunState,
    ) -> Result<(), Halt> {
        // Upfront validation. The chaos site sits inside the guard so an
        // injected panic surfaces as a typed stage failure.
        gov.begin_stage();
        guarded_stage(Stage::Validation, || {
            boe_chaos::inject(boe_chaos::sites::VALIDATE);
            validate(corpus, ontology, &mut run.diag)
        })??;
        hard_checkpoint(gov, Stage::Validation, ALL_STEPS)?;

        // Step I: extract and rank candidates. Candidates already in the
        // ontology are training data for Step II, not enrichment targets.
        // Extraction polls the governor before every document and
        // candidate (hard trips only: soft stage deadlines keep their
        // degrade-later semantics), so a long Step I can no longer starve
        // `--deadline-ms` / cancellation until the first stage boundary.
        gov.begin_stage();
        let t0 = Instant::now();
        let stop_step1 = || gov.check_hard().is_some();
        let extracted = guarded_stage(Stage::TermExtraction, || {
            boe_chaos::inject(boe_chaos::sites::STEP1_EXTRACT);
            TermExtractor::try_new(corpus, self.config.candidates, &stop_step1).map(|extractor| {
                let ranked = extractor.top(corpus, self.config.measure, self.config.top_terms);
                let (known, new_terms): (Vec<_>, Vec<_>) = ranked
                    .into_iter()
                    .partition(|r| ontology.contains_term(&r.surface));
                (known.into_iter().map(|r| r.surface).collect(), new_terms)
            })
        })?;
        run.time(Stage::TermExtraction, t0.elapsed());
        // Interrupted mid-extraction: partial candidate statistics would
        // be prefix-dependent, so Step I reports no terms at all —
        // deterministic at any thread count.
        let Some((already_known, new_terms)) = extracted else {
            let kind = gov.check_hard().unwrap_or(TripKind::Deadline);
            return Err(Halt::Tripped(kind, Stage::TermExtraction, ALL_STEPS));
        };
        (run.already_known, run.pending) = (already_known, new_terms);
        if run.pending.is_empty() {
            run.diag.warn("step I extracted no new candidate terms");
        }
        hard_checkpoint(gov, Stage::TermExtraction, FANOUT_STEPS)?;

        // One occurrence index per run: every remaining stage (detector
        // training, per-term features, sense contexts, linkage) resolves
        // phrase occurrences through this shared index instead of
        // scanning the corpus per phrase.
        let occ = Arc::new(self.config.resolution.build(corpus));

        // Step II: train the detector on ontology-derived weak labels. A
        // panic during training (or from the chaos site) degrades to the
        // fallback detector instead of failing the run.
        gov.begin_stage();
        let t0 = Instant::now();
        let features = guarded_stage(Stage::PolysemyDetection, || {
            FeatureContext::build_with_index(corpus, Arc::clone(&occ))
        })?;
        let detector = catch_unwind(AssertUnwindSafe(|| {
            boe_chaos::inject(boe_chaos::sites::STEP2_TRAIN);
            self.train_detector(corpus, ontology, &occ, &features, &mut run.diag)
        }))
        .unwrap_or_else(|payload| {
            let reason = panic_message(payload);
            run.diag.detector = DetectorOutcome::Fallback {
                reason: format!("training panicked: {reason}"),
            };
            let reason = format!("detector training panicked: {reason}");
            run.diag.degrade("", Stage::PolysemyDetection, reason);
            None
        });
        run.time(Stage::PolysemyDetection, t0.elapsed());
        hard_checkpoint(gov, Stage::PolysemyDetection, FANOUT_STEPS)?;

        // Step III/IV setup: the inducer and linker are corpus-wide and
        // shared by every term; a panic here cannot be downgraded.
        gov.begin_stage();
        let t0 = Instant::now();
        let (inducer, linker) = guarded_stage(Stage::SenseInduction, || {
            boe_chaos::inject(boe_chaos::sites::STEP34_SETUP);
            let inducer = SenseInducer::with_index(corpus, self.config.senses, Arc::clone(&occ));
            let linker = SemanticLinker::with_candidates_indexed(
                corpus,
                ontology,
                self.config.linker,
                &[],
                Arc::clone(&occ),
            );
            (inducer, linker)
        })?;
        run.time(Stage::SenseInduction, t0.elapsed());
        hard_checkpoint(gov, Stage::SenseInduction, FANOUT_STEPS)?;

        // Steps II–IV per term, polling every budget (hard and soft).
        gov.begin_stage();
        let detector = detector.as_ref();
        let full = run.fan_out(&|| gov.check().is_some(), |r| {
            self.process_term(corpus, r, detector, &features, &inducer, Some(&linker))
        });
        if let Err(msg) = full {
            let reason = format!("fan-out panicked: {msg}; steps II–IV skipped for all terms");
            run.diag.degrade("", Stage::PolysemyDetection, reason);
            return Ok(());
        }
        if run.pending.is_empty() {
            return Ok(());
        }
        hard_checkpoint(gov, Stage::SenseInduction, FANOUT_STEPS)?;

        // Soft stage-deadline trip: re-run the remaining terms under the
        // cheapest Step-III configuration with Step IV skipped, on a
        // fresh stage clock.
        run.record_trip(gov, TripKind::StageDeadline, Stage::SenseInduction, &[]);
        let reason = format!(
            "stage deadline: {} term(s) re-run with the cheapest induction, linkage skipped",
            run.pending.len()
        );
        run.diag.degrade("", Stage::SenseInduction, reason);
        gov.begin_stage();
        let cheap =
            SenseInducer::with_index(corpus, self.config.senses.cheapest(), Arc::clone(&occ));
        let cheap_pass = run.fan_out(&|| gov.check_hard().is_some(), |r| {
            self.process_term(corpus, r, detector, &features, &cheap, None)
        });
        if let Err(msg) = cheap_pass {
            let reason = format!("cheap fan-out panicked: {msg}");
            run.diag.degrade("", Stage::SenseInduction, reason);
        } else if !run.pending.is_empty() {
            hard_checkpoint(gov, Stage::SenseInduction, FANOUT_STEPS)?;
        }
        Ok(())
    }

    /// Steps II–IV for one candidate term. `linker` is `None` in the
    /// degraded cheap pass, which skips Step IV entirely. Every stage is
    /// individually guarded: a panic degrades the term, never the run.
    fn process_term(
        &self,
        corpus: &Corpus,
        r: &RankedTerm,
        detector: Option<&PolysemyDetector>,
        features: &FeatureContext<'_>,
        inducer: &SenseInducer<'_>,
        linker: Option<&SemanticLinker<'_>>,
    ) -> TermOutcome {
        let mut out = TermOutcome::default();
        // Chaos faults are keyed by the term surface, not call order, so
        // injected behaviour is identical at any thread count.
        let chaos_key = boe_chaos::key_for(&r.surface);
        let Some(tokens) = corpus.phrase_ids(&r.surface) else {
            out.degraded.push(Degradation {
                term: r.surface.clone(),
                stage: Stage::TermExtraction,
                reason: "candidate tokens missing from the corpus vocabulary".to_owned(),
            });
            return out;
        };

        // Step II: classify; a failure falls back to the monosemic
        // majority prior.
        let t0 = Instant::now();
        let polysemic = guarded_term(
            &mut out.degraded,
            Stage::PolysemyDetection,
            &r.surface,
            || {
                boe_chaos::inject_keyed(boe_chaos::sites::TERM_DETECT, chaos_key);
                match detector {
                    Some(d) => d.is_polysemic(&features.features(&tokens, &r.surface)),
                    None => false,
                }
            },
            || false,
        );
        out.detect = t0.elapsed();

        // Step III: a failure downgrades to a single omitted sense.
        let t0 = Instant::now();
        let senses = guarded_term(
            &mut out.degraded,
            Stage::SenseInduction,
            &r.surface,
            || {
                boe_chaos::inject_keyed(boe_chaos::sites::TERM_INDUCE, chaos_key);
                inducer.induce(&tokens, polysemic)
            },
            || InducedSenses {
                k: 1,
                concepts: Vec::new(),
                assignments: Vec::new(),
                repaired: 0,
            },
        );
        if senses.repaired > 0 {
            out.degraded.push(Degradation {
                term: r.surface.clone(),
                stage: Stage::SenseInduction,
                reason: format!(
                    "{} context vector(s) repaired (non-finite weights dropped)",
                    senses.repaired
                ),
            });
        }
        out.induce = t0.elapsed();

        // Step IV: a failure omits the propositions.
        let mut propositions = Vec::new();
        if let Some(l) = linker {
            let t0 = Instant::now();
            propositions = guarded_term(
                &mut out.degraded,
                Stage::SemanticLinkage,
                &r.surface,
                || {
                    boe_chaos::inject_keyed(boe_chaos::sites::TERM_LINK, chaos_key);
                    l.propose(&r.surface)
                },
                Vec::new,
            );
            out.link = t0.elapsed();
        }

        out.report = Some(TermReport {
            surface: r.surface.clone(),
            term_score: r.score,
            polysemic,
            senses,
            propositions,
            truncated: false,
        });
        out
    }

    /// Weak supervision for Step II: ontology terms found in the corpus,
    /// labelled polysemic iff the ontology attaches them to ≥ 2 concepts.
    /// Returns `None` when either class is missing (detector then
    /// defaults to "monosemic", the majority prior); the outcome is
    /// recorded in `diag.detector` either way.
    fn train_detector(
        &self,
        corpus: &Corpus,
        ontology: &Ontology,
        occ: &OccurrenceIndex,
        features: &FeatureContext<'_>,
        diag: &mut RunDiagnostics,
    ) -> Option<PolysemyDetector> {
        let usable: Vec<(&str, Vec<TokenId>, bool)> = ontology
            .terms()
            .into_iter()
            .filter_map(|(surface, concepts)| {
                let tokens = corpus.phrase_ids(surface)?;
                let polysemic = concepts.len() >= 2;
                occ.contains(corpus, &tokens)
                    .then_some((surface, tokens, polysemic))
            })
            .collect();
        // Rows are independent; `par_map` returns them in ontology order.
        let rows = boe_par::par_map(&usable, |(surface, tokens, _)| {
            features.features(tokens, surface)
        });
        let labels: Vec<bool> = usable.iter().map(|&(_, _, l)| l).collect();
        let pos = labels.iter().filter(|&&l| l).count();
        if pos == 0 || pos == labels.len() || labels.len() < 4 {
            diag.detector = DetectorOutcome::Fallback {
                reason: format!(
                    "{} usable training terms, {pos} polysemic — need both classes and ≥ 4 terms",
                    labels.len()
                ),
            };
            return None;
        }
        diag.detector = DetectorOutcome::Trained {
            examples: labels.len(),
            positives: pos,
        };
        Some(PolysemyDetector::train(
            self.config.polysemy_model,
            rows,
            labels,
        ))
    }
}

/// The four workflow steps, for naming what a pre-Step-I trip truncates.
const ALL_STEPS: &[Stage] = &[
    Stage::TermExtraction,
    Stage::PolysemyDetection,
    Stage::SenseInduction,
    Stage::SemanticLinkage,
];

/// The per-term fan-out stages, truncated together by a mid-run trip.
const FANOUT_STEPS: &[Stage] = &[
    Stage::PolysemyDetection,
    Stage::SenseInduction,
    Stage::SemanticLinkage,
];

/// A score-only report for a term whose Steps II–IV were truncated by a
/// hard budget trip (or a wholesale fan-out failure).
fn truncated_report(r: RankedTerm) -> TermReport {
    TermReport {
        surface: r.surface,
        term_score: r.score,
        polysemic: false,
        senses: InducedSenses {
            k: 1,
            concepts: Vec::new(),
            assignments: Vec::new(),
            repaired: 0,
        },
        propositions: Vec::new(),
        truncated: true,
    }
}

/// A hard-budget checkpoint: ends the stage sequence if a hard budget
/// has tripped, naming the stage it fired at and the steps it truncates.
fn hard_checkpoint(gov: &Governor, stage: Stage, truncates: &'static [Stage]) -> Result<(), Halt> {
    match gov.check_hard() {
        Some(kind) => Err(Halt::Tripped(kind, stage, truncates)),
        None => Ok(()),
    }
}

/// Why the stage sequence ended before its last stage.
enum Halt {
    /// Unusable input or a corpus-wide stage failure: the run fails.
    Failed(EnrichError),
    /// A hard budget trip (kind, stage it fired at, steps it truncates):
    /// the run still returns its partial report.
    Tripped(TripKind, Stage, &'static [Stage]),
}

impl From<EnrichError> for Halt {
    fn from(e: EnrichError) -> Self {
        Halt::Failed(e)
    }
}

/// What a governed run has produced so far. Terms move from `pending`
/// to `terms` as the fan-out finishes them; the exit in
/// [`EnrichmentPipeline::run_governed`] truncates whatever is left.
#[derive(Default)]
struct RunState {
    diag: RunDiagnostics,
    /// Step-I candidates the ontology already holds.
    already_known: Vec<String>,
    /// Finished term reports, in term order.
    terms: Vec<TermReport>,
    /// New terms whose Steps II–IV have not run, in term order.
    pending: Vec<RankedTerm>,
}

impl RunState {
    /// Record a budget trip in the diagnostics with the governor's
    /// measured value and limit, naming the stages the trip truncates.
    fn record_trip(&mut self, gov: &Governor, kind: TripKind, stage: Stage, truncated: &[Stage]) {
        let (measured, limit) = gov.describe(kind);
        let detail = match kind {
            TripKind::Deadline => "wall-clock deadline exceeded",
            TripKind::StageDeadline => "stage exceeded its soft deadline",
            TripKind::Cancelled => "cancellation requested",
            TripKind::AllocBudget => "allocation budget exhausted",
        };
        let trip = BudgetTrip {
            kind,
            stage,
            detail: detail.to_owned(),
            measured,
            limit,
        };
        self.diag.trip(trip, truncated.iter().copied());
    }

    /// Add `elapsed` to `stage`'s timing. Every stage that began gets
    /// exactly one entry, and stages begin in workflow order.
    fn time(&mut self, stage: Stage, elapsed: Duration) {
        match self.diag.timings.iter_mut().find(|t| t.stage == stage) {
            Some(t) => t.elapsed += elapsed,
            None => self.diag.timings.push(StageTiming { stage, elapsed }),
        }
    }

    /// One Steps II–IV pass over the pending terms, fanned out across
    /// threads (`boe-par`): each term is independent given the detector,
    /// inducer and linker that `process` closes over. Outcomes come back
    /// in term order, so reports, degradations (term order, stage order
    /// within a term) and timing sums are identical to the serial loop
    /// at any thread count. `stop` is polled before every term; the
    /// terms after the deterministic completed prefix stay pending. A
    /// panic that escapes the per-term guards (e.g. the chaos FANOUT or
    /// PAR_WORKER site) leaves every term pending and returns its message.
    fn fan_out(
        &mut self,
        stop: &(impl Fn() -> bool + Sync),
        process: impl Fn(&RankedTerm) -> TermOutcome + Sync,
    ) -> Result<(), String> {
        let fan = catch_unwind(AssertUnwindSafe(|| {
            boe_chaos::inject(boe_chaos::sites::FANOUT);
            boe_par::try_par_map(&self.pending, stop, process)
        }));
        let (outcomes, result) = match fan {
            Ok(o) => (o.into_results(), Ok(())),
            Err(payload) => (Vec::new(), Err(panic_message(payload))),
        };
        self.pending.drain(..outcomes.len());
        let mut spent = [Duration::ZERO; 3];
        for o in outcomes {
            spent[0] += o.detect;
            spent[1] += o.induce;
            spent[2] += o.link;
            self.diag.degraded.extend(o.degraded);
            self.terms.extend(o.report);
        }
        for (&stage, elapsed) in FANOUT_STEPS.iter().zip(spent) {
            self.time(stage, elapsed);
        }
        result
    }
}

/// Upfront input validation: hard errors for unusable input, warnings
/// for suspicious-but-usable input.
fn validate(
    corpus: &Corpus,
    ontology: &Ontology,
    diag: &mut RunDiagnostics,
) -> Result<(), EnrichError> {
    if corpus.is_empty() || corpus.token_count() == 0 {
        return Err(EnrichError::EmptyCorpus);
    }
    if ontology.is_empty() {
        return Err(EnrichError::EmptyOntology);
    }
    if corpus.language() != ontology.language() {
        return Err(EnrichError::LanguageMismatch {
            corpus: corpus.language(),
            ontology: ontology.language(),
        });
    }
    if corpus.len() == 1 {
        diag.warn("single-document corpus: document-frequency measures are degenerate");
    }
    if ontology.len() == 1 {
        diag.warn("single-concept ontology: linkage has no structure to propose into");
    }
    let hygiene = corpus.hygiene();
    if !hygiene.is_clean() {
        diag.warn(format!(
            "corpus hygiene: {} empty document(s) and {} empty sentence(s) tolerated",
            hygiene.empty_docs, hygiene.empty_sentences
        ));
    }
    Ok(())
}

/// Per-term result of the Steps II–IV fan-out: the report (absent when
/// the term was skipped), the degradations recorded while processing it,
/// and the wall-clock time spent in each stage.
#[derive(Default)]
struct TermOutcome {
    report: Option<TermReport>,
    degraded: Vec<Degradation>,
    detect: Duration,
    induce: Duration,
    link: Duration,
}

/// Run `f`, catching panics: on a panic the term is degraded at `stage`
/// with the panic message as reason and `fallback` supplies the value.
/// Takes a bare degradation list rather than [`RunDiagnostics`] because
/// inside the parallel fan-out each worker owns a local list that is
/// merged into the diagnostics in term order afterwards.
fn guarded_term<T>(
    degraded: &mut Vec<Degradation>,
    stage: Stage,
    term: &str,
    f: impl FnOnce() -> T,
    fallback: impl FnOnce() -> T,
) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(payload) => {
            degraded.push(Degradation {
                term: term.to_owned(),
                stage,
                reason: panic_message(payload),
            });
            fallback()
        }
    }
}

/// Run a corpus-wide stage, converting a panic into a typed
/// [`EnrichError::StageFailure`] carrying the extracted panic message.
fn guarded_stage<T>(stage: Stage, f: impl FnOnce() -> T) -> Result<T, EnrichError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| EnrichError::StageFailure {
        stage,
        term: String::new(),
        cause: panic_message(payload),
    })
}

/// Extract a human-readable message from a panic payload: `&str` and
/// `String` payloads (the overwhelmingly common cases) are passed
/// through verbatim, anything else gets a generic label.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_ontology::OntologyBuilder;
    use boe_textkit::Language;

    /// A small aligned world: ontology with a polysemic term ("keratitis"
    /// on two concepts), corpus where a new term "corneal injuries"
    /// co-occurs with ontology terms.
    fn world() -> (Corpus, Ontology) {
        let mut ob = OntologyBuilder::new("t", Language::English);
        let eye = ob.add_concept("eye diseases", vec![]);
        let cd = ob.add_concept("corneal diseases", vec!["keratitis".to_owned()]);
        let skin = ob.add_concept("skin inflammation", vec!["keratitis".to_owned()]);
        ob.add_is_a(cd, eye);
        let _ = skin;
        let onto = ob.build().expect("valid");
        let mut cb = CorpusBuilder::new(Language::English);
        for _ in 0..3 {
            cb.add_text(
                "corneal injuries resemble corneal diseases of the epithelium stroma tissue.",
            );
            cb.add_text("keratitis damages the epithelium stroma tissue.");
            cb.add_text("keratitis irritates the dermis follicle layer.");
            cb.add_text("eye diseases involve the retina nerve.");
            cb.add_text("corneal injuries heal in the epithelium stroma tissue.");
        }
        (cb.build(), onto)
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let (c, o) = world();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        let report = pipeline.run(&c, &o).expect("valid input");
        assert!(!report.is_empty(), "no candidates analysed");
        let ci = report.get("corneal injuries").expect("analysed");
        assert!(ci.term_score > 0.0);
        assert!(!ci.propositions.is_empty(), "linkage found nothing");
        let proposed: Vec<&str> = ci.propositions.iter().map(|p| p.term.as_str()).collect();
        assert!(proposed.contains(&"corneal diseases"), "{proposed:?}");
    }

    #[test]
    fn known_terms_are_set_aside() {
        let (c, o) = world();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        let report = pipeline.run(&c, &o).expect("valid input");
        assert!(report
            .already_known
            .iter()
            .any(|t| t == "corneal diseases" || t == "keratitis" || t == "eye diseases"));
        assert!(report.get("keratitis").is_none());
    }

    #[test]
    fn sense_counts_are_in_range() {
        let (c, o) = world();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        let report = pipeline.run(&c, &o).expect("valid input");
        for t in &report.terms {
            assert!(
                (1..=5).contains(&t.senses.k),
                "{}: k={}",
                t.surface,
                t.senses.k
            );
        }
    }

    #[test]
    fn report_displays() {
        let (c, o) = world();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        let report = pipeline.run(&c, &o).expect("valid input");
        let s = report.to_string();
        assert!(s.contains("enrichment report"));
        assert!(s.contains("corneal injuries"));
    }

    #[test]
    fn empty_corpus_is_a_typed_error() {
        let (_, o) = world();
        let empty = CorpusBuilder::new(Language::English).build();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        assert!(matches!(
            pipeline.run(&empty, &o),
            Err(EnrichError::EmptyCorpus)
        ));
    }

    #[test]
    fn language_mismatch_is_a_typed_error() {
        let (c, _) = world();
        let mut ob = OntologyBuilder::new("fr", Language::French);
        ob.add_concept("maladies", vec![]);
        let o = ob.build().expect("valid");
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        match pipeline.run(&c, &o) {
            Err(EnrichError::LanguageMismatch { corpus, ontology }) => {
                assert_eq!(corpus, Language::English);
                assert_eq!(ontology, Language::French);
            }
            other => panic!("expected LanguageMismatch, got {other:?}"),
        }
    }

    #[test]
    fn diagnostics_record_timings_and_detector() {
        let (c, o) = world();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        let report = pipeline.run(&c, &o).expect("valid input");
        let stages: Vec<Stage> = report.diagnostics.timings.iter().map(|t| t.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::TermExtraction,
                Stage::PolysemyDetection,
                Stage::SenseInduction,
                Stage::SemanticLinkage,
            ]
        );
        assert_ne!(
            report.diagnostics.detector,
            DetectorOutcome::NotAttempted,
            "training outcome must be recorded"
        );
    }

    #[test]
    fn guarded_records_degradation_and_falls_back() {
        let mut diag = RunDiagnostics::default();
        let v = guarded_term(
            &mut diag.degraded,
            Stage::SenseInduction,
            "cornea",
            || -> usize { panic!("boom {}", 7) },
            || 42,
        );
        assert_eq!(v, 42);
        assert_eq!(diag.degraded.len(), 1);
        assert_eq!(diag.degraded[0].term, "cornea");
        assert_eq!(diag.degraded[0].reason, "boom 7");
    }
}
