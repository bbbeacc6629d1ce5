//! The chaos matrix: every injection site × every fault mode × {1, 8}
//! threads. The contract under test is the robustness invariant of the
//! governed pipeline:
//!
//! 1. **No abort.** Whatever the fault, `run` returns either a
//!    structured report (with the failure in its diagnostics) or a typed
//!    [`EnrichError`] — a panic never escapes to the caller.
//! 2. **Thread determinism.** For a fixed chaos plan (site, mode, seed)
//!    the outcome is bit-identical at 1 and 8 threads: same term
//!    reports (float bits included), same degradations in the same
//!    order, same trips, same truncations.
//!
//! Stall faults are paired with a wall-clock deadline so the stall
//! (1200 ms) trips the budget (400 ms) while the natural run (< 100 ms
//! on this world) never does. Per-term stalls are keyed to the first
//! processed term so both thread counts keep the identical one-term
//! prefix. Everything lives in one `#[test]` because the chaos plan and
//! the thread-count override are process-global.
//!
//! Comparing 1 thread against 8 cannot catch a change that moves both
//! sides the same way, so every stall run is also checked against
//! [`STALL_EXITS`], a literal table of where each governed exit lands.

use bio_onto_enrich::chaos::{self, sites, ChaosPlan, FaultMode};
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::par as boe_par;
use bio_onto_enrich::workflow::error::EnrichError;
use bio_onto_enrich::workflow::governor::BudgetConfig;
use bio_onto_enrich::workflow::report::EnrichmentReport;
use bio_onto_enrich::workflow::{EnrichmentPipeline, PipelineConfig};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Stall duration; must comfortably exceed [`DEADLINE_MS`].
const STALL_MS: u64 = 1200;
/// Wall-clock budget for stall combinations; must comfortably exceed
/// the natural (un-stalled) runtime of the matrix world.
const DEADLINE_MS: u64 = 400;

/// The governed exit of one stall run, pinned literally.
struct StallExit {
    /// The stalled injection site.
    site: &'static str,
    /// Recorded trips as `kind@Stage`, in firing order.
    trips: &'static str,
    /// `diagnostics.truncated`, in workflow order.
    truncated_stages: &'static str,
    /// Number of term reports.
    terms: usize,
    /// How many of those reports are score-only `truncated` ones.
    truncated_terms: usize,
    /// Stage list of `diagnostics.timings`.
    timings: &'static str,
}

const ALL_STEPS: &str = "TermExtraction|PolysemyDetection|SenseInduction|SemanticLinkage";
const FANOUT_STAGES: &str = "PolysemyDetection|SenseInduction|SemanticLinkage";

/// One row per stall site. A stall at the Step III/IV set-up keeps the
/// set-up's `SenseInduction` timing: every stage that began is timed.
/// Candidate extraction is serial, so the first `par.worker` stall
/// lands in LIDF ranking and trips at the checkpoint after Step I.
const STALL_EXITS: &[StallExit] = &[
    StallExit {
        site: "pipeline.validate",
        trips: "deadline@Validation",
        truncated_stages: ALL_STEPS,
        terms: 0,
        truncated_terms: 0,
        timings: "",
    },
    StallExit {
        site: "pipeline.step1",
        trips: "deadline@TermExtraction",
        truncated_stages: ALL_STEPS,
        terms: 0,
        truncated_terms: 0,
        timings: "TermExtraction",
    },
    StallExit {
        site: "termex.candidates",
        trips: "deadline@TermExtraction",
        truncated_stages: ALL_STEPS,
        terms: 0,
        truncated_terms: 0,
        timings: "TermExtraction",
    },
    StallExit {
        site: "pipeline.step2.train",
        trips: "deadline@PolysemyDetection",
        truncated_stages: FANOUT_STAGES,
        terms: 25,
        truncated_terms: 25,
        timings: "TermExtraction|PolysemyDetection",
    },
    StallExit {
        site: "pipeline.step34.setup",
        trips: "deadline@SenseInduction",
        truncated_stages: FANOUT_STAGES,
        terms: 25,
        truncated_terms: 25,
        timings: "TermExtraction|PolysemyDetection|SenseInduction",
    },
    StallExit {
        site: "pipeline.fanout",
        trips: "deadline@SenseInduction",
        truncated_stages: FANOUT_STAGES,
        terms: 25,
        truncated_terms: 25,
        timings: ALL_STEPS,
    },
    StallExit {
        site: "term.detect",
        trips: "deadline@SenseInduction",
        truncated_stages: FANOUT_STAGES,
        terms: 25,
        truncated_terms: 24,
        timings: ALL_STEPS,
    },
    StallExit {
        site: "term.induce",
        trips: "deadline@SenseInduction",
        truncated_stages: FANOUT_STAGES,
        terms: 25,
        truncated_terms: 24,
        timings: ALL_STEPS,
    },
    StallExit {
        site: "term.link",
        trips: "deadline@SenseInduction",
        truncated_stages: FANOUT_STAGES,
        terms: 25,
        truncated_terms: 24,
        timings: ALL_STEPS,
    },
    StallExit {
        site: "pipeline.report",
        trips: "deadline@Reporting",
        truncated_stages: "",
        terms: 25,
        truncated_terms: 0,
        timings: ALL_STEPS,
    },
    StallExit {
        site: "par.worker",
        trips: "deadline@TermExtraction",
        truncated_stages: FANOUT_STAGES,
        terms: 25,
        truncated_terms: 25,
        timings: "TermExtraction",
    },
];

/// The [`StallExit`] fields an outcome produces, in declaration order.
type ExitRow = (String, String, usize, usize, String);

fn stall_exit(report: &EnrichmentReport) -> ExitRow {
    let d = &report.diagnostics;
    let join = |v: Vec<String>| v.join("|");
    (
        join(
            d.trips
                .iter()
                .map(|t| format!("{}@{:?}", t.kind, t.stage))
                .collect(),
        ),
        join(d.truncated.iter().map(|s| format!("{s:?}")).collect()),
        report.terms.len(),
        report.terms.iter().filter(|t| t.truncated).count(),
        join(d.timings.iter().map(|t| format!("{:?}", t.stage)).collect()),
    )
}

fn world() -> World {
    World::generate(&WorldConfig {
        n_concepts: 24,
        n_holdout: 10,
        abstracts_per_concept: 2,
        seed: 0xC4A0,
        ..Default::default()
    })
}

fn pipeline(budget: BudgetConfig) -> EnrichmentPipeline {
    EnrichmentPipeline::new(PipelineConfig {
        top_terms: 40,
        budget,
        ..Default::default()
    })
}

/// Everything observable about an outcome except wall-clock noise:
/// timings and trip measurements are excluded, float payloads go in as
/// exact bit patterns.
fn signature(res: &Result<EnrichmentReport, EnrichError>) -> String {
    let mut s = String::new();
    match res {
        Err(e) => {
            let _ = writeln!(s, "error[{}]: {e}", e.exit_code());
        }
        Ok(r) => {
            let _ = writeln!(s, "known: {}", r.already_known.join("|"));
            for t in &r.terms {
                let _ = write!(
                    s,
                    "term {} score={:016x} poly={} k={} repaired={} truncated={} asg={:?}",
                    t.surface,
                    t.term_score.to_bits(),
                    t.polysemic,
                    t.senses.k,
                    t.senses.repaired,
                    t.truncated,
                    t.senses.assignments,
                );
                for p in &t.propositions {
                    let _ = write!(s, " p:{}:{:016x}", p.term, p.cosine.to_bits());
                }
                s.push('\n');
            }
            for w in &r.diagnostics.warnings {
                let _ = writeln!(s, "warn: {w}");
            }
            for d in &r.diagnostics.degraded {
                let _ = writeln!(s, "degraded: {}|{}|{}", d.term, d.stage, d.reason);
            }
            for t in &r.diagnostics.trips {
                let _ = writeln!(s, "trip: {}|{}|{}", t.kind, t.stage, t.detail);
            }
            let trunc: Vec<&str> = r.diagnostics.truncated.iter().map(|st| st.name()).collect();
            let _ = writeln!(s, "truncated-stages: {}", trunc.join("|"));
            let _ = writeln!(s, "detector: {:?}", r.diagnostics.detector);
        }
    }
    s
}

#[test]
fn every_site_and_mode_degrades_cleanly_and_deterministically() {
    let w = world();

    // Baseline without chaos: sizes the fan-out and names the first
    // processed term (per-term stalls key on it).
    chaos::install(None);
    let clean = pipeline(BudgetConfig::default())
        .run(&w.corpus, &w.reduced_ontology)
        .expect("clean run must succeed");
    assert!(
        clean.terms.len() > 8,
        "world too small ({} terms) for a meaningful 8-way fan-out",
        clean.terms.len()
    );
    let first_term = clean.terms[0].surface.clone();

    // Injected panics are expected by the dozen; silence the default
    // hook's backtrace spam for the duration of the sweep.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut failures: Vec<String> = Vec::new();
    for site in sites::ALL {
        for mode in FaultMode::ALL {
            let mut plan = ChaosPlan::new(site, mode);
            plan.seed = 0xBEEF;
            let budget = if mode == FaultMode::Stall {
                plan.stall_ms = STALL_MS;
                if site.starts_with("term.") {
                    // Stall exactly one term (the first processed one) so
                    // the interrupted prefix is the same at any thread
                    // count.
                    plan.key = Some(chaos::key_for(&first_term));
                }
                BudgetConfig {
                    deadline_ms: Some(DEADLINE_MS),
                    ..Default::default()
                }
            } else {
                BudgetConfig::default()
            };

            let p = pipeline(budget);
            let mut sigs: Vec<String> = Vec::new();
            for threads in [1usize, 8] {
                let combo = format!("{site}/{} at {threads} thread(s)", mode.name());
                boe_par::set_threads(Some(threads));
                chaos::install(Some(plan.clone()));
                let caught =
                    catch_unwind(AssertUnwindSafe(|| p.run(&w.corpus, &w.reduced_ontology)));
                chaos::install(None);
                let Ok(outcome) = caught else {
                    failures.push(format!("{combo}: a panic escaped the pipeline"));
                    continue;
                };
                match (&outcome, mode) {
                    (Ok(report), FaultMode::Panic) if !report.is_degraded() => {
                        failures.push(format!("{combo}: injected panic left no diagnostic trace"));
                    }
                    (Ok(report), FaultMode::Stall) if report.diagnostics.hard_trip().is_none() => {
                        failures.push(format!("{combo}: stall did not trip the deadline"));
                    }
                    (Err(e), FaultMode::Stall) | (Err(e), FaultMode::Corrupt) => {
                        failures.push(format!("{combo}: unexpected error {e}"));
                    }
                    _ => {}
                }
                if let (Ok(report), FaultMode::Stall) = (&outcome, mode) {
                    let got = stall_exit(report);
                    let want = STALL_EXITS.iter().find(|r| r.site == site).map(|r| {
                        let (trips, stages) = (r.trips.to_owned(), r.truncated_stages.to_owned());
                        (
                            trips,
                            stages,
                            r.terms,
                            r.truncated_terms,
                            r.timings.to_owned(),
                        )
                    });
                    if want.as_ref() != Some(&got) {
                        failures.push(format!(
                            "{combo}: governed exit moved\n  want {want:?}\n  got  {got:?}"
                        ));
                    }
                }
                sigs.push(signature(&outcome));
            }
            if sigs.len() == 2 && sigs[0] != sigs[1] {
                failures.push(format!(
                    "{site}/{}: outcome diverges across thread counts\n--- 1 thread ---\n{}--- 8 threads ---\n{}",
                    mode.name(),
                    sigs[0],
                    sigs[1]
                ));
            }
        }
    }

    boe_par::set_threads(None);
    std::panic::set_hook(hook);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
