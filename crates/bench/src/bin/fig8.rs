//! Figure 8 — Training-phase design analysis.
//!
//! Matelda (one classifier per column) vs. Matelda-TPDF (one per domain
//! fold) vs. Matelda-TUCF (per-fold with 2k quality folds, half
//! unlabeled) on Quintet and DGov-NTR — F1 and runtime.

use matelda_bench::{boxed, secs, MateldaSystem, Scale, Sweep};
use matelda_core::{MateldaConfig, TrainingStrategy};
use matelda_lakegen::{DGovLake, QuintetLake};

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::standard(),
        MateldaSystem::variant(
            "Matelda-TPDF",
            MateldaConfig { training: TrainingStrategy::PerDomainFold, ..Default::default() },
        ),
        MateldaSystem::variant(
            "Matelda-TUCF",
            MateldaConfig { training: TrainingStrategy::UnlabeledCellFolds, ..Default::default() },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 8: Training strategies (scale: {scale:?}) ===\n");

    let mut sweep =
        Sweep::new("fig8", scale, "F1 and runtime per training strategy", boxed(variants))
            .columns(&[("time", |m| secs(m.seconds))]);
    sweep.lake("Quintet", |s| QuintetLake::default().generate(s));
    sweep.lake("DGov-NTR", |s| DGovLake::ntr().with_n_tables(scale.tables(143)).generate(s));
    sweep.finish();

    println!("shape checks (paper §4.5.4): Matelda and TPDF deliver the best F1;");
    println!("the standard per-column training is the most runtime-efficient of the");
    println!("two; TUCF is fastest but loses F1 to unlabeled folds.");
}
