//! Figure 6 — Domain-folding design impact.
//!
//! Matelda-Standard vs. Matelda-Santos (unionability-score folding) vs.
//! Matelda-RS (row-sampled embeddings) on DGov-NTR: effectiveness per
//! budget plus average runtimes (§4.5.2 quotes 4963s Santos / 1130s
//! Standard / 998s RS at the authors' scale — the *ordering* is the
//! reproducible claim). On Quintet the paper notes SANTOS produces the
//! same folds as the standard method; we verify that too.

use matelda_bench::{boxed, secs, MateldaSystem, Scale, Sweep};
use matelda_core::{domain_folds, DomainFolding, MateldaConfig};
use matelda_embed::encoder::HashedEncoder;
use matelda_lakegen::{DGovLake, QuintetLake};

fn variants() -> Vec<MateldaSystem> {
    vec![
        MateldaSystem::standard(),
        MateldaSystem::variant(
            "Matelda-Santos",
            MateldaConfig { domain_folding: DomainFolding::SantosLike, ..Default::default() },
        ),
        MateldaSystem::variant(
            "Matelda-RS",
            // The paper samples 1% of rows; our tables are ~50 rows, so the
            // equivalent "small but non-degenerate" sample is 10%.
            MateldaConfig { domain_folding: DomainFolding::RowSampling(0.1), ..Default::default() },
        ),
        // Extension: SANTOS unionability over MinHash sketches — the
        // scalable variant of the same folding idea.
        MateldaSystem::variant(
            "Matelda-SantosMH",
            MateldaConfig { domain_folding: DomainFolding::SantosSketch(64), ..Default::default() },
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 6: Domain folding design impact (scale: {scale:?}) ===\n");

    // Quintet fold-equality check (the reason the paper shows no Quintet
    // graph for SANTOS).
    let quintet = QuintetLake::default().generate(1);
    let encoder = HashedEncoder::default();
    let folds = |method| {
        let mut folds: Vec<Vec<usize>> =
            domain_folds(&quintet.dirty, method, &encoder, 0).iter().map(|f| f.tables()).collect();
        folds.iter_mut().for_each(|f| f.sort_unstable());
        folds.sort();
        folds
    };
    let (standard, santos) = (folds(DomainFolding::Hdbscan), folds(DomainFolding::SantosLike));
    println!("Quintet: SANTOS folds == standard folds? {} ({santos:?})\n", standard == santos);

    let mut sweep =
        Sweep::new("fig6", scale, "F1 and runtime per domain-folding design", boxed(variants))
            .columns(&[("time", |m| secs(m.seconds))]);
    let means =
        sweep.lake("DGov-NTR", |s| DGovLake::ntr().with_n_tables(scale.tables(143)).generate(s));

    println!("average runtimes:");
    let mut names = means.systems.clone();
    names.sort();
    for name in &names {
        let cells = (0..means.budgets.len()).filter_map(|bi| means.get(name, bi));
        let (s, k) = cells.fold((0.0, 0), |(s, k), m| (s + m.seconds * m.runs as f64, k + m.runs));
        println!("  {name}: {}", secs(s / k as f64));
    }
    sweep.finish();

    println!("shape checks (paper §4.5.2): Santos ≈ Standard ≈ RS in F1;");
    println!("runtime Santos > Standard > RS. Extension: SantosMH (MinHash-");
    println!("sketched unionability) should match Santos's F1 at a fraction of");
    println!("its folding cost.");
}
