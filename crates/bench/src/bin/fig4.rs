//! Figure 4 — Ablation study on error types.
//!
//! Matelda vs. the strongest baselines (Raha variants, ASPELL) on three
//! single-error-type lakes: DGov-NO (numeric outliers only), DGov-Typo
//! (formatting & typos only), DGov-RV (rule violations only), sweeping the
//! labeling budget.

use matelda_baselines::raha::{Raha, RahaVariant};
use matelda_baselines::{aspell::Aspell, ErrorDetector};
use matelda_bench::{MateldaSystem, Scale, Sweep};
use matelda_lakegen::DGovLake;

fn systems() -> Vec<Box<dyn ErrorDetector>> {
    vec![
        Box::new(MateldaSystem::standard()),
        Box::new(Raha::new(RahaVariant::Standard)),
        Box::new(Raha::new(RahaVariant::RandomTables)),
        Box::new(Raha::new(RahaVariant::TwoLabelsPerCol)),
        Box::new(Raha::new(RahaVariant::TwentyLabelsPerCol)),
        Box::new(Aspell::new()),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 4: Ablation on error types (scale: {scale:?}) ===\n");

    let n = scale.tables(96);
    let mut sweep = Sweep::new("fig4", scale, "F1 vs labeling budget", |_| systems());
    sweep.lake("DGov-NO", |s| DGovLake::no().with_n_tables(n).generate(s));
    sweep.lake("DGov-Typo", |s| DGovLake::typo().with_n_tables(n).generate(s));
    sweep.lake("DGov-RV", |s| DGovLake::rv().with_n_tables(n).generate(s));
    sweep.finish();

    println!("shape checks (paper §4.4):");
    println!("  * DGov-NO: Matelda above all baselines at every budget;");
    println!("  * DGov-Typo: Matelda ahead once ~0.3 tuples/table are labeled; Raha");
    println!("    catches up above ~15;");
    println!("  * DGov-RV: Matelda ≈ Raha from 1 tuple/table on (rule features work");
    println!("    across tables); ASPELL flat and weak everywhere except DGov-Typo.");
}
