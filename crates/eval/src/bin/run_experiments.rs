//! Regenerate every table and ablation of the paper: Tables 1–4, the
//! §2(II) polysemy-detection F-measure, the §3(i) sense-number matrix,
//! ablations A1–A4 and the E7 relation-typing study. This binary is the
//! one table generator; run time is measured by `e2ebench`
//! (`bash e2ebench/run.sh`, scored through `BENCHMARK.json`).
//!
//! ```text
//! cargo run --release -p boe-eval --bin run_experiments            # quick scale
//! cargo run --release -p boe-eval --bin run_experiments -- --full  # EXPERIMENTS.md scale
//! ```
//!
//! Any other argument is a usage error (exit code 2).

use boe_core::polysemy::detector::PolysemyModel;
use boe_core::termex::candidates::CandidateOptions;
use boe_core::termex::{TermExtractor, TermMeasure};
use boe_eval::exp_polysemy::FeatureSubset;
use boe_eval::world::{World, WorldConfig};
use boe_eval::{
    exp_linkage_case, exp_linkage_precision, exp_polysemy, exp_relation, exp_sense_number,
    exp_table1, exp_table2,
};
use boe_textkit::normalize::match_key;
use std::collections::HashSet;
use std::process::ExitCode;

const USAGE: &str = "usage: run_experiments [--full]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = match args.as_slice() {
        [] => false,
        [flag] if flag == "--full" => true,
        _ => {
            eprintln!("run_experiments: unexpected arguments {args:?}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!("=== E1: Table 1 — polysemy statistics =========================\n");
    let divisor = if full { 10 } else { 100 };
    let (umls, mesh) = exp_table1::run(divisor);
    println!("{}", exp_table1::render(&umls, &mesh));

    println!("=== E2: Table 2 — internal index semantics ====================\n");
    let t2 = exp_table2::run(&exp_table2::Table2Config::default());
    println!("{}", exp_table2::render(&t2));

    println!("=== E3: sense-number prediction (paper: 93.1%) ================\n");
    let sn_cfg = if full {
        exp_sense_number::SenseNumberConfig::default()
    } else {
        exp_sense_number::SenseNumberConfig::quick()
    };
    let sn = exp_sense_number::run(&sn_cfg);
    println!("{}", exp_sense_number::render(&sn_cfg, &sn));
    let (purity, nmi, ari) = exp_sense_number::clustering_quality(
        &sn_cfg,
        boe_cluster::Algorithm::Rbr,
        boe_core::senses::Representation::BagOfWords,
    );
    println!(
        "clustering quality at gold k (rbr, bow): purity {purity:.3}  NMI {nmi:.3}  ARI {ari:.3}\n"
    );

    println!("=== E4: polysemy detection (paper: F-measure 98%) =============\n");
    let pd_cfg = if full {
        exp_polysemy::PolysemyExpConfig::default()
    } else {
        exp_polysemy::PolysemyExpConfig::quick()
    };
    let pd = exp_polysemy::run(&pd_cfg);
    println!("{}", exp_polysemy::render(&pd));
    let forest_cfg = exp_polysemy::PolysemyExpConfig {
        models: vec![PolysemyModel::Forest],
        ..pd_cfg
    };
    for subset in [FeatureSubset::DirectOnly, FeatureSubset::GraphOnly] {
        for r in exp_polysemy::run_subset(&forest_cfg, subset) {
            println!(
                "ablation — feature subset {:<9} ({}): precision {:.3}  recall {:.3}  F-measure {:.3}",
                subset.name(),
                r.model.name(),
                r.confusion.precision(),
                r.confusion.recall(),
                r.confusion.f1()
            );
        }
    }
    println!();

    println!("=== E5/E6: semantic linkage ===================================\n");
    let world_cfg = if full {
        WorldConfig::default()
    } else {
        WorldConfig {
            n_concepts: 120,
            n_holdout: 20,
            abstracts_per_concept: 5,
            ..Default::default()
        }
    };
    let world = World::generate(&world_cfg);
    let case = exp_linkage_case::run(&world, 0, 200);
    println!("{}", exp_linkage_case::render(&case));
    let precision = exp_linkage_precision::run(&world, 200, true);
    println!("{}", exp_linkage_precision::render(&precision));
    let no_hier = exp_linkage_precision::run(&world, 200, false);
    println!(
        "ablation A4a — without hierarchy expansion: top-10 precision {:.3} (with: {:.3})",
        no_hier.at[3], precision.at[3]
    );
    for pool in [50usize, 150, 300] {
        let r = exp_linkage_precision::run(&world, pool, true);
        println!(
            "ablation A4b — candidate pool {pool:>3}: P@1 {:.3}  P@2 {:.3}  P@5 {:.3}  P@10 {:.3}",
            r.at[0], r.at[1], r.at[2], r.at[3]
        );
    }

    // A3: how many of each Step-I measure's top 100 terms are labels of
    // the full ontology (the multi-word gold terms).
    println!("\nablation A3 — precision@100 of gold-term recovery per measure:");
    let gold: HashSet<String> = world
        .full_ontology
        .terms()
        .iter()
        .map(|(t, _)| match_key(t))
        .collect();
    let extractor = TermExtractor::new(&world.corpus, CandidateOptions::default());
    for measure in TermMeasure::ALL {
        let hits = extractor
            .top(&world.corpus, measure, 100)
            .iter()
            .filter(|t| gold.contains(&match_key(&t.surface)))
            .count();
        println!(
            "  {:<12} P@100 = {:.3}",
            measure.name(),
            hits as f64 / 100.0
        );
    }
    println!();

    println!("=== E7: relation typing (future work, §4) =====================\n");
    let rel = exp_relation::run(&exp_relation::RelationExpConfig::default());
    println!("{}", exp_relation::render(&rel));
    ExitCode::SUCCESS
}
