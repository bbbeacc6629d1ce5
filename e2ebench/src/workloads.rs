//! Set-up, the timed operation and the output checks of each workload,
//! untraced (end-to-end metrics) and traced (per-layer metrics).
//!
//! Load is a closed loop with one client: the next operation starts when
//! the previous one has returned.

use crate::fingerprint::{self, Fingerprint};
use crate::inputs::{ingest, Inputs, Kind, TOP_TERMS};
use crate::replay;
use crate::trace::{fanout_efficiency, unaccounted_ms, Trace};
use boe_core::linkage::{LinkerConfig, Proposition, SemanticLinker};
use boe_core::senses::{InducedSenses, SenseInducer, SenseInducerConfig};
use boe_core::termex::candidates::CandidateOptions;
use boe_core::termex::{RankedTerm, TermExtractor, TermMeasure};
use boe_core::{EnrichmentPipeline, EnrichmentReport, PipelineConfig};
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::Corpus;
use boe_textkit::normalize::match_key;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The pipeline configuration `enrich` runs (`boe pipeline --top 200`).
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        top_terms: TOP_TERMS,
        ..Default::default()
    }
}

/// An output check: each output must equal the value recorded for the
/// seed or, for a seed with no record, the run's first output.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is compared.
    pub name: &'static str,
    /// The recorded value, if the seed has one.
    pub recorded: Option<String>,
    /// The first value seen.
    pub first: Option<String>,
    /// Outputs that differed.
    pub mismatches: u64,
}

impl Check {
    /// A check against `recorded` (or, when `None`, self-consistency).
    pub fn new(name: &'static str, recorded: Option<String>) -> Self {
        Check {
            name,
            recorded,
            first: None,
            mismatches: 0,
        }
    }

    /// Compare one output; `false` on a mismatch.
    pub fn accept(&mut self, got: String) -> bool {
        let want = self.recorded.as_ref().or(self.first.as_ref());
        let ok = want.is_none_or(|w| *w == got);
        if self.first.is_none() {
            self.first = Some(got);
        }
        if !ok {
            self.mismatches += 1;
        }
        ok
    }
}

/// Recorded values by check name, for one workload and seed.
pub type Recorded = BTreeMap<String, String>;

fn check(name: &'static str, recorded: &Recorded) -> Check {
    Check::new(name, recorded.get(name).cloned())
}

/// Samples of one untraced run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Seconds per operation (`extract`, `enrich`) or query pass
    /// (`senses`, `link`).
    pub run_s: Vec<f64>,
    /// Milliseconds per query. A query is one operation for `extract`
    /// and `enrich`, one `induce` for `senses`, one `propose` for `link`.
    pub query_ms: Vec<f64>,
    /// Queries per entry of `run_s`.
    pub queries_per_run: usize,
    /// Documents in the ingested corpus.
    pub docs: usize,
    /// Tokens in the ingested corpus.
    pub tokens: usize,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that panicked, errored, degraded or failed a check.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// The quality number of the last pass, by name.
    pub quality: Option<(&'static str, f64)>,
}

impl Measured {
    fn record_corpus(&mut self, c: &Corpus) {
        self.docs = c.len();
        self.tokens = c.token_count();
    }
}

/// Per-layer metrics of one traced run (medians over untraced/traced
/// pairs), the last pair's trace, and its checks.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values.
    pub layers: BTreeMap<&'static str, f64>,
    /// Untraced/traced pairs run.
    pub pairs: usize,
    /// The last pair's set-up and run traces, as JSON.
    pub trace_json: String,
    /// Operations attempted (untraced and traced).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output and consistency checks.
    pub checks: Vec<Check>,
}

/// Run `op` until `seconds` of wall time have passed, at least once.
fn until(seconds: f64, mut op: impl FnMut()) {
    let start = Instant::now();
    loop {
        op();
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `f`, turning a panic into `None`.
fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Untraced run of `inp`'s workload for `seconds`. Each iteration sets
/// up from the raw text (timed as one set-up) and runs the operation, or
/// one pass of queries, on it, so that set-up and run samples span the
/// same window.
pub fn measure(inp: &Inputs, seconds: f64, recorded: &Recorded) -> Measured {
    let mut m = Measured::default();
    let set_up = |m: &mut Measured| {
        let t = Instant::now();
        let corpus = ingest(inp.lang, &inp.texts);
        m.setup_s.push(secs(t));
        corpus
    };
    match &inp.kind {
        Kind::Extract => {
            let mut digest = check("top_digest", recorded);
            until(seconds, || {
                let corpus = set_up(&mut m);
                let t = Instant::now();
                let out = guarded(|| extract_op(&corpus));
                let dt = secs(t);
                let ok = out.is_some_and(|(a, b)| {
                    a.len() == TOP_TERMS
                        && b.len() == TOP_TERMS
                        && digest.accept(hex(fingerprint::ranked(&[&a, &b])))
                });
                m.op(dt, ok);
                m.record_corpus(&corpus);
            });
            m.checks.push(digest);
        }
        Kind::Enrich { ontology } => {
            let pipeline = EnrichmentPipeline::new(pipeline_config());
            let mut fp = check("report_fingerprint", recorded);
            until(seconds, || {
                let corpus = set_up(&mut m);
                let t = Instant::now();
                let out = guarded(|| pipeline.run(&corpus, ontology));
                let dt = secs(t);
                let ok = match out {
                    Some(Ok(report)) => report_ok(&report) && fp.accept(report_hex(&report)),
                    _ => false,
                };
                m.op(dt, ok);
                m.record_corpus(&corpus);
            });
            m.checks.push(fp);
        }
        Kind::Senses { surfaces, gold_k } => {
            let mut acc = check("k_accuracy", recorded);
            let mut same = Check::new("pass_digest", None);
            until(seconds, || {
                let t = Instant::now();
                let corpus = ingest(inp.lang, &inp.texts);
                let inducer = SenseInducer::new(&corpus, SenseInducerConfig::default());
                m.setup_s.push(secs(t));
                let pass = senses_pass(&corpus, &inducer, surfaces, gold_k, &mut m.query_ms, None);
                m.pass(pass, "k_accuracy", &mut acc, &mut same);
                m.record_corpus(&corpus);
            });
            m.checks.extend([acc, same]);
        }
        Kind::Link {
            ontology,
            candidates,
            queries,
            gold,
        } => {
            let mut prec = check("precision_at_1", recorded);
            let mut same = Check::new("pass_digest", None);
            until(seconds, || {
                let t = Instant::now();
                let corpus = ingest(inp.lang, &inp.texts);
                let linker = SemanticLinker::with_candidates(
                    &corpus,
                    ontology,
                    LinkerConfig::default(),
                    candidates,
                );
                m.setup_s.push(secs(t));
                let pass = link_pass(&linker, queries, gold, &mut m.query_ms, None);
                m.pass(pass, "precision_at_1", &mut prec, &mut same);
                m.record_corpus(&corpus);
            });
            m.checks.extend([prec, same]);
        }
    }
    m
}

/// One query pass: per-query latencies already pushed, plus the pass's
/// wall time, its failed queries, its quality value and its digest.
struct Pass {
    wall_s: f64,
    queries: u64,
    failed: u64,
    quality: f64,
    digest: u64,
}

impl Measured {
    fn op(&mut self, dt: f64, ok: bool) {
        self.queries_per_run = 1;
        self.run_s.push(dt);
        self.query_ms.push(dt * 1e3);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Account a pass: `quality` checks its quality value and `digest`
    /// its output digest; a mismatch fails every query of the pass.
    fn pass(&mut self, p: Pass, name: &'static str, quality: &mut Check, digest: &mut Check) {
        self.run_s.push(p.wall_s);
        self.queries_per_run = p.queries as usize;
        self.attempted += p.queries;
        let ok = quality.accept(p.quality.to_string()) & digest.accept(hex(p.digest));
        self.failed += if ok { p.failed } else { p.queries };
        self.quality = Some((name, p.quality));
    }
}

/// `boe extract`: extract candidates, rank the top terms by LIDF-value
/// and by TeRGraph.
fn extract_op(corpus: &Corpus) -> (Vec<RankedTerm>, Vec<RankedTerm>) {
    let ex = TermExtractor::new(corpus, CandidateOptions::default());
    (
        ex.top(corpus, TermMeasure::LidfValue, TOP_TERMS),
        ex.top(corpus, TermMeasure::TerGraph, TOP_TERMS),
    )
}

/// A report passes when nothing in it was degraded or truncated.
fn report_ok(r: &EnrichmentReport) -> bool {
    !r.is_degraded() && r.terms.iter().all(|t| !t.truncated)
}

fn report_hex(r: &EnrichmentReport) -> String {
    hex(fingerprint::report(r))
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// One `induce(…, polysemic = true)` per entity. A query fails when it
/// panics, its surface is unknown, contexts needed repair or k leaves
/// [1, 5]. Quality: share of entities whose k equals the gold k.
/// Under a trace, each query is a `senses.induce` span.
fn senses_pass(
    corpus: &Corpus,
    inducer: &SenseInducer<'_>,
    surfaces: &[String],
    gold_k: &[usize],
    query_ms: &mut Vec<f64>,
    mut trace: Option<&mut Trace>,
) -> Pass {
    let start = Instant::now();
    let (mut failed, mut exact) = (0, 0);
    let mut h = Fingerprint::default();
    for (surface, &gold) in surfaces.iter().zip(gold_k) {
        let t = Instant::now();
        let out = guarded(|| corpus.phrase_ids(surface).map(|p| inducer.induce(&p, true)));
        query_ms.push(secs(t) * 1e3);
        if let Some(tr) = trace.as_deref_mut() {
            tr.push("senses.induce", None, t, Instant::now());
        }
        match out.flatten() {
            Some(s) if senses_ok(&s) => {
                exact += usize::from(s.k == gold);
                hash_senses(&mut h, &s);
                if let Some(tr) = trace.as_deref_mut() {
                    let swept = s.assignments.len() >= 2;
                    tr.count("senses.contexts", s.assignments.len() as f64);
                    tr.count("senses.k_sweeps", f64::from(u8::from(swept)));
                }
            }
            _ => failed += 1,
        }
    }
    Pass {
        wall_s: secs(start),
        queries: surfaces.len() as u64,
        failed,
        quality: exact as f64 / surfaces.len() as f64,
        digest: h.finish(),
    }
}

fn senses_ok(s: &InducedSenses) -> bool {
    (1..=5).contains(&s.k) && s.repaired == 0
}

fn hash_senses(h: &mut Fingerprint, s: &InducedSenses) {
    h.u64(s.k as u64);
    h.u64(s.assignments.len() as u64);
    for &a in &s.assignments {
        h.u64(a as u64);
    }
}

/// One `propose` per query. A query fails when it panics or its
/// propositions break the ranking contract. Quality: share of held-out
/// queries whose first proposition is a gold position.
/// Under a trace, each query is a `linkage.propose` span.
fn link_pass(
    linker: &SemanticLinker<'_>,
    queries: &[String],
    gold: &[Vec<String>],
    query_ms: &mut Vec<f64>,
    mut trace: Option<&mut Trace>,
) -> Pass {
    let start = Instant::now();
    let (mut failed, mut hits) = (0, 0);
    let mut h = Fingerprint::default();
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let out = guarded(|| linker.propose(q));
        query_ms.push(secs(t) * 1e3);
        if let Some(tr) = trace.as_deref_mut() {
            tr.push("linkage.propose", None, t, Instant::now());
        }
        match out {
            Some(props) if propositions_ok(&props) => {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.count("linkage.propositions", props.len() as f64);
                }
                if let (Some(g), Some(top)) = (gold.get(i), props.first()) {
                    hits += usize::from(g.contains(&match_key(&top.term)));
                }
                hash_propositions(&mut h, &props);
            }
            _ => failed += 1,
        }
    }
    Pass {
        wall_s: secs(start),
        queries: queries.len() as u64,
        failed,
        quality: hits as f64 / gold.len() as f64,
        digest: h.finish(),
    }
}

/// At most `top_n` propositions, cosines in [0, 1], best first.
fn propositions_ok(props: &[Proposition]) -> bool {
    props.len() <= LinkerConfig::default().top_n
        && props
            .iter()
            .all(|p| p.cosine.is_finite() && (0.0..=1.0 + 1e-9).contains(&p.cosine))
        && props.windows(2).all(|w| w[0].cosine >= w[1].cosine)
}

fn hash_propositions(h: &mut Fingerprint, props: &[Proposition]) {
    h.u64(props.len() as u64);
    for p in props {
        h.str(&p.term);
        h.f64(p.cosine);
    }
}

/// One untraced operation and its traced twin.
struct Pair {
    untraced_ms: f64,
    traced_ms: f64,
    /// The untraced output's value for the recorded check.
    checked: String,
    /// Digest of the untraced output.
    untraced: String,
    /// Digest of the traced output; must equal `untraced`.
    traced: String,
}

/// Traced run of `inp`'s workload: one traced set-up, then untraced and
/// traced operations in pairs for `seconds`.
pub fn trace(inp: &Inputs, seconds: f64, recorded: &Recorded, threads: usize) -> Traced {
    let mut setup = Trace::default();
    let corpus = setup.time("corpus.ingest", || ingest(inp.lang, &inp.texts));
    setup.count("corpus.docs", corpus.len() as f64);
    setup.count("corpus.tokens", corpus.token_count() as f64);
    match &inp.kind {
        Kind::Extract => pairs(
            &setup,
            seconds,
            threads,
            check("top_digest", recorded),
            |tr| {
                let t = Instant::now();
                let (a, b) = extract_op(&corpus);
                let untraced_ms = secs(t) * 1e3;
                let t = Instant::now();
                let ex = tr.time("termex.extract", || {
                    TermExtractor::new(&corpus, CandidateOptions::default())
                });
                let ta = tr.time("termex.rank_lidf", || {
                    ex.top(&corpus, TermMeasure::LidfValue, TOP_TERMS)
                });
                let tb = tr.time("termex.rank_tergraph", || {
                    ex.top(&corpus, TermMeasure::TerGraph, TOP_TERMS)
                });
                let traced_ms = secs(t) * 1e3;
                tr.count("termex.candidates", ex.candidates().len() as f64);
                let untraced = hex(fingerprint::ranked(&[&a, &b]));
                Pair {
                    untraced_ms,
                    traced_ms,
                    checked: untraced.clone(),
                    untraced,
                    traced: hex(fingerprint::ranked(&[&ta, &tb])),
                }
            },
        ),
        Kind::Enrich { ontology } => {
            let pipeline = EnrichmentPipeline::new(pipeline_config());
            let rec = check("report_fingerprint", recorded);
            pairs(&setup, seconds, threads, rec, |tr| {
                let t = Instant::now();
                let report = pipeline.run(&corpus, ontology);
                let untraced_ms = secs(t) * 1e3;
                let untraced = match report {
                    Ok(r) if report_ok(&r) => report_hex(&r),
                    _ => "failed".to_owned(),
                };
                let t = Instant::now();
                let replayed = replay::run(&corpus, ontology, &pipeline_config(), tr);
                let traced_ms = secs(t) * 1e3;
                Pair {
                    untraced_ms,
                    traced_ms,
                    checked: untraced.clone(),
                    untraced,
                    traced: report_hex(&replayed),
                }
            })
        }
        Kind::Senses { surfaces, gold_k } => {
            let occ = setup.time("occurrence.build", || {
                Arc::new(OccurrenceIndex::build(&corpus))
            });
            let inducer = setup.time("senses.setup", || {
                SenseInducer::with_index(&corpus, SenseInducerConfig::default(), occ)
            });
            pairs(
                &setup,
                seconds,
                threads,
                check("k_accuracy", recorded),
                |tr| {
                    let run = |trace| {
                        senses_pass(&corpus, &inducer, surfaces, gold_k, &mut Vec::new(), trace)
                    };
                    pass_pair(run(None), run(Some(tr)))
                },
            )
        }
        Kind::Link {
            ontology,
            candidates,
            queries,
            gold,
        } => {
            let occ = setup.time("occurrence.build", || {
                Arc::new(OccurrenceIndex::build(&corpus))
            });
            let linker = setup.time("linkage.setup", || {
                SemanticLinker::with_candidates_indexed(
                    &corpus,
                    ontology,
                    LinkerConfig::default(),
                    candidates,
                    occ,
                )
            });
            setup.count("linkage.inventory_terms", linker.inventory().len() as f64);
            pairs(
                &setup,
                seconds,
                threads,
                check("precision_at_1", recorded),
                |tr| {
                    let run = |trace| link_pass(&linker, queries, gold, &mut Vec::new(), trace);
                    pass_pair(run(None), run(Some(tr)))
                },
            )
        }
    }
}

/// An untraced and a traced query pass as a pair: the quality value is
/// checked, and quality and digest must agree between the two.
fn pass_pair(untraced: Pass, traced: Pass) -> Pair {
    let key = |p: &Pass| format!("{} {}", p.quality, hex(p.digest));
    Pair {
        untraced_ms: untraced.wall_s * 1e3,
        traced_ms: traced.wall_s * 1e3,
        checked: untraced.quality.to_string(),
        untraced: key(&untraced),
        traced: key(&traced),
    }
}

/// Run untraced/traced pairs for `seconds`, check each, and take the
/// per-layer medians over the pairs.
fn pairs(
    setup: &Trace,
    seconds: f64,
    threads: usize,
    mut recorded: Check,
    mut pair: impl FnMut(&mut Trace) -> Pair,
) -> Traced {
    let mut out = Traced::default();
    let mut same = Check::new("traced_equals_untraced", None);
    let mut sums = Check::new("layers_sum_to_run", None);
    let mut rows = Vec::new();
    until(seconds, || {
        let mut tr = Trace::default();
        let p = pair(&mut tr);
        let row = layer_row(setup, &tr, p.untraced_ms, p.traced_ms, threads);
        let ok_rec = recorded.accept(p.checked);
        let ok_same = same.accept(p.untraced.clone()) && p.traced == p.untraced;
        let ok_sums = adds_up(
            &tr,
            p.untraced_ms,
            p.traced_ms,
            row["pipeline.unaccounted_ms"],
        );
        sums.mismatches += u64::from(!ok_sums);
        out.attempted += 2;
        out.failed += u64::from(!ok_rec) + u64::from(!(ok_same && ok_sums));
        out.trace_json = format!("{{\"setup\":{},\"run\":{}}}", setup.to_json(), tr.to_json());
        rows.push(row);
    });
    out.pairs = rows.len();
    out.layers = medians(&rows);
    out.checks = vec![recorded, same, sums];
    out
}

/// The layer rows add up: top-level spans do not overlap and fit in the
/// traced wall time, and layers plus the unaccounted rest give the
/// untraced run time.
fn adds_up(tr: &Trace, untraced_ms: f64, traced_ms: f64, rest_ms: f64) -> bool {
    const EPS: f64 = 1e-6;
    let mut top: Vec<_> = tr.spans().iter().filter(|s| s.parent.is_none()).collect();
    top.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
    let disjoint = top.windows(2).all(|w| w[1].start_ms >= w[0].end_ms - EPS);
    let layers = tr.top_level_ms();
    disjoint && layers <= traced_ms + EPS && (layers + rest_ms - untraced_ms).abs() <= EPS
}

/// Every per-layer metric for one pair; layers a workload does not call
/// read 0.
fn layer_row(
    setup: &Trace,
    run: &Trace,
    untraced_ms: f64,
    traced_ms: f64,
    threads: usize,
) -> BTreeMap<&'static str, f64> {
    let ms = |name: &str| setup.total_ms(name) + run.total_ms(name);
    let n = |name: &str| setup.counter(name) + run.counter(name);
    let fanout_ms = run.total_ms("pipeline.fanout");
    let busy_ms = run
        .spans()
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| s.ms())
        .sum();
    let top: Vec<f64> = run
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.ms())
        .collect();
    BTreeMap::from([
        ("corpus.ingest_ms", ms("corpus.ingest")),
        ("corpus.docs", n("corpus.docs")),
        ("corpus.tokens", n("corpus.tokens")),
        ("termex.extract_ms", ms("termex.extract")),
        ("termex.candidates", n("termex.candidates")),
        ("termex.rank_lidf_ms", ms("termex.rank_lidf")),
        ("termex.rank_tergraph_ms", ms("termex.rank_tergraph")),
        ("occurrence.build_ms", ms("occurrence.build")),
        ("polysemy.context_ms", ms("polysemy.context")),
        ("polysemy.train_features_ms", ms("polysemy.train_features")),
        ("polysemy.train_rows", n("polysemy.train_rows")),
        ("polysemy.train_positives", n("polysemy.train_positives")),
        ("polysemy.fit_ms", ms("polysemy.fit")),
        ("polysemy.detect_busy_ms", ms("polysemy.detect")),
        ("polysemy.flagged", n("polysemy.flagged")),
        ("senses.setup_ms", ms("senses.setup")),
        ("senses.induce_busy_ms", ms("senses.induce")),
        ("senses.contexts", n("senses.contexts")),
        ("senses.k_sweeps", n("senses.k_sweeps")),
        ("linkage.setup_ms", ms("linkage.setup")),
        ("linkage.inventory_terms", n("linkage.inventory_terms")),
        ("linkage.propose_busy_ms", ms("linkage.propose")),
        ("linkage.propositions", n("linkage.propositions")),
        ("pipeline.fanout_wall_ms", fanout_ms),
        (
            "pipeline.fanout_efficiency",
            fanout_efficiency(busy_ms, fanout_ms, threads),
        ),
        ("pipeline.unaccounted_ms", unaccounted_ms(untraced_ms, &top)),
        ("trace.overhead_ms", traced_ms - untraced_ms),
    ])
}

/// Per-key medians over rows with the same keys.
fn medians(rows: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let Some(first) = rows.first() else {
        return BTreeMap::new();
    };
    first
        .keys()
        .map(|&k| {
            let v: Vec<f64> = rows.iter().map(|r| r[k]).collect();
            (k, crate::stats::median(&v))
        })
        .collect()
}
