//! Figure 7 — Quality-based cell folding: feature impact analysis.
//!
//! Matelda with all features vs. Matelda-NOD (no outlier detectors), -NTD
//! (no typo detector) and -NRVD (no rule-violation detectors) on Quintet
//! and DGov-NTR.

use matelda_bench::{boxed, MateldaSystem, Scale, Sweep};
use matelda_core::MateldaConfig;
use matelda_detect::FeatureConfig;
use matelda_lakegen::{DGovLake, QuintetLake};

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::standard(),
        MateldaSystem::variant(
            "Matelda-NOD",
            MateldaConfig { features: FeatureConfig::no_outliers(), ..Default::default() },
        ),
        MateldaSystem::variant(
            "Matelda-NTD",
            MateldaConfig { features: FeatureConfig::no_typos(), ..Default::default() },
        ),
        MateldaSystem::variant(
            "Matelda-NRVD",
            MateldaConfig { features: FeatureConfig::no_rules(), ..Default::default() },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 7: Quality-fold feature ablations (scale: {scale:?}) ===\n");

    let mut sweep = Sweep::new("fig7", scale, "F1 per feature configuration", boxed(variants));
    sweep.lake("Quintet", |s| QuintetLake::default().generate(s));
    sweep.lake("DGov-NTR", |s| DGovLake::ntr().with_n_tables(scale.tables(143)).generate(s));
    sweep.finish();

    println!("shape checks (paper §4.5.3): full features win for most budgets;");
    println!("NOD is consistently the worst ablation; the typo/rule detectors'");
    println!("benefit grows with budget on DGov-NTR.");
}
