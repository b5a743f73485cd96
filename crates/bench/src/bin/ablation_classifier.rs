//! Classifier ablation — gradient boosting (the paper's pick, "which has
//! shown robust performance") vs a bagged random forest as the per-column
//! learner, on Quintet and DGov-NTR across the budget axis.
//!
//! This extends §4.5 with the learner dimension the Raha line of work
//! explored before settling on boosting.

use matelda_bench::{boxed, secs, MateldaSystem, Scale, Sweep};
use matelda_core::MateldaConfig;
use matelda_lakegen::{DGovLake, QuintetLake};
use matelda_ml::{ClassifierKind, RandomForestConfig};

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::variant("Matelda (GBM)", MateldaConfig::default()),
        MateldaSystem::variant(
            "Matelda (RF)",
            MateldaConfig {
                classifier: ClassifierKind::RandomForest(RandomForestConfig::default()),
                ..Default::default()
            },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Classifier ablation: GBM vs Random Forest (scale: {scale:?}) ===\n");

    let mut sweep =
        Sweep::new("ablation_classifier", scale, "F1 and runtime per classifier", boxed(variants))
            .columns(&[("time", |m| secs(m.seconds))]);
    sweep.lake("Quintet", |s| QuintetLake::default().generate(s));
    sweep.lake("DGov-NTR", |s| DGovLake::ntr().with_n_tables(scale.tables(143)).generate(s));
    sweep.finish();

    println!("expected: the two learners land close in F1 (the features and the");
    println!("propagated labels dominate), with boosting usually a touch ahead —");
    println!("consistent with the paper's 'robust performance' justification.");
}
