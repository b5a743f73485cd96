//! # matelda-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§4). Each `src/bin/figN.rs` / `src/bin/tableN.rs`
//! binary sweeps the corresponding workload and prints the same rows or
//! series the paper reports; `benches/` holds Criterion micro-benchmarks
//! for the substrates.
//!
//! Conventions:
//!
//! * results are averaged over independent seeds (the paper averages 3–5
//!   runs) and printed as aligned text tables, and also written as CSV to
//!   `results/`;
//! * the budget-sweep experiments (Fig. 3–8 and the classifier and
//!   labeling ablations) share one driver, [`Sweep`]: seed → budget →
//!   system, F1 per budget averaged over seeds;
//! * the environment variable `MATELDA_SCALE` picks the sweep size:
//!   `quick` (sanity), `small` (reduced lakes), or `full` (paper-shaped
//!   lakes; the default).

pub mod eval;
pub mod gate;
pub mod json;

use eval::EvalRecorder;
use matelda_baselines::{Budget, ErrorDetector};
use matelda_core::{Matelda, MateldaConfig};
pub use matelda_exec::RunReport;
use matelda_lakegen::GeneratedLake;
use matelda_table::{CellMask, Confusion, Labeler, Lake, Oracle};
use std::collections::BTreeMap;
use std::time::Instant;

/// Sweep size selected via `MATELDA_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny lakes, two budgets — wiring checks.
    Quick,
    /// Reduced table counts — minutes.
    Small,
    /// Paper-shaped lakes — the real reproduction.
    Full,
    /// The out-of-core CI tier: a generated lake of ≥10⁶ cells streamed
    /// through the out-of-core driver under a peak-RSS budget (see
    /// `scale_bench`).
    LargeCi,
    /// The unbounded out-of-core tier: ≥10⁷ cells, hundreds of tables.
    Large,
}

impl Scale {
    /// Reads `MATELDA_SCALE` (default `full`).
    pub fn from_env() -> Self {
        match std::env::var("MATELDA_SCALE").unwrap_or_default().as_str() {
            "quick" => Scale::Quick,
            "small" => Scale::Small,
            "large-ci" => Scale::LargeCi,
            "large" => Scale::Large,
            _ => Scale::Full,
        }
    }

    /// Scales a table count down for the smaller profiles. The large
    /// tiers never shrink an experiment sweep — they exist for the
    /// out-of-core path, which sizes its lake from
    /// `matelda_lakegen::ScaleTier` instead.
    pub fn tables(self, full: usize) -> usize {
        match self {
            Scale::Quick => full.min(8),
            Scale::Small => (full / 4).max(8).min(full),
            Scale::Full | Scale::LargeCi | Scale::Large => full,
        }
    }

    /// The scale's name as recorded in bench/eval result files.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Small => "small",
            Scale::Full => "full",
            Scale::LargeCi => "large-ci",
            Scale::Large => "large",
        }
    }

    /// Number of independent seeds to average over. The paper averages
    /// 3–5 runs on a 64-core machine; this reproduction defaults to 2 at
    /// full scale to fit a single-core budget (set `MATELDA_SEEDS` to
    /// override). The large tiers run one seed — a single pass is the
    /// point.
    pub fn seeds(self) -> u64 {
        if let Ok(s) = std::env::var("MATELDA_SEEDS") {
            if let Ok(n) = s.parse::<u64>() {
                return n.max(1);
            }
        }
        match self {
            Scale::Quick => 1,
            Scale::Small => 2,
            Scale::Full => 2,
            Scale::LargeCi | Scale::Large => 1,
        }
    }
}

/// The Matelda pipeline behind the uniform [`ErrorDetector`] interface.
pub struct MateldaSystem {
    /// Display name (e.g. `Matelda`, `Matelda-EDF`).
    pub label: String,
    /// Pipeline configuration.
    pub config: MateldaConfig,
}

impl MateldaSystem {
    /// The standard configuration.
    pub fn standard() -> Self {
        Self { label: "Matelda".to_string(), config: MateldaConfig::default() }
    }

    /// A named variant.
    pub fn variant(label: &str, config: MateldaConfig) -> Self {
        Self { label: label.to_string(), config }
    }
}

impl ErrorDetector for MateldaSystem {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn detect(&self, lake: &Lake, labeler: &mut dyn Labeler, budget: Budget) -> CellMask {
        self.detect_with_report(lake, labeler, budget).0
    }

    fn detect_with_report(
        &self,
        lake: &Lake,
        labeler: &mut dyn Labeler,
        budget: Budget,
    ) -> (CellMask, RunReport) {
        let result =
            Matelda::new(self.config.clone()).detect(lake, labeler, budget.total_cells(lake));
        (result.predicted, result.report)
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Cell-level precision.
    pub precision: f64,
    /// Cell-level recall.
    pub recall: f64,
    /// Cell-level F1.
    pub f1: f64,
    /// Wall-clock seconds for the detect call.
    pub seconds: f64,
    /// Labels drawn from the oracle.
    pub labels: usize,
    /// Per-stage instrumentation of the (last) run; empty for systems
    /// without staged internals.
    pub report: RunReport,
    /// The predicted error mask — kept so the eval recorder can break
    /// recall down per error type against the lake's typed truth.
    pub predicted: CellMask,
}

/// Runs one system once on a generated lake.
pub fn run_once(system: &dyn ErrorDetector, lake: &GeneratedLake, budget: Budget) -> RunResult {
    let mut oracle = Oracle::new(&lake.errors);
    let start = Instant::now();
    let (predicted, report) = system.detect_with_report(&lake.dirty, &mut oracle, budget);
    let seconds = start.elapsed().as_secs_f64();
    let conf = Confusion::from_masks(&predicted, &lake.errors);
    RunResult {
        precision: conf.precision(),
        recall: conf.recall(),
        f1: conf.f1(),
        seconds,
        labels: oracle.labels_used(),
        report,
        predicted,
    }
}

/// Prints one system's per-stage report (used by every bench binary to
/// surface stage timings for its headline runs). Systems without staged
/// internals produce no output.
pub fn print_stage_report(label: &str, report: &RunReport) {
    if report.stages.is_empty() {
        return;
    }
    println!("\n[stages] {label}");
    print!("{}", report.render());
}

/// An aligned text table builder for harness output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Adds one row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let n_cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(n_cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded = cells.iter().enumerate().map(|(i, cell)| {
                format!("{cell:>width$}", width = widths.get(i).copied().unwrap_or(0))
            });
            padded.collect::<Vec<_>>().join("  ") + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (n_cols - 1));
        let mut out = fmt_row(&self.header) + &rule + "\n";
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Writes the table as CSV under `results/`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all("results")?;
        let mut s = String::new();
        s.push_str(&self.header.join(","));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        std::fs::write(format!("results/{name}.csv"), s)
    }
}

/// Formats a ratio as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats seconds.
pub fn secs(x: f64) -> String {
    format!("{x:.2}s")
}

/// The paper's Figure 3/4 budget axis: labeled tuples per table.
pub fn budget_axis(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![1.0, 5.0],
        Scale::Small => vec![0.5, 1.0, 2.0, 5.0, 10.0],
        Scale::Full | Scale::LargeCi | Scale::Large => {
            vec![0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
        }
    }
}

/// Per-`(system, budget)` means over the seeds at which the cell ran.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Means {
    /// Mean cell-level F1.
    pub f1: f64,
    /// Mean cell-level precision.
    pub precision: f64,
    /// Mean cell-level recall.
    pub recall: f64,
    /// Mean wall-clock seconds per detect call.
    pub seconds: f64,
    /// Mean labels drawn from the oracle.
    pub labels: f64,
    /// Runs averaged.
    pub runs: usize,
}

/// An extra per-system table column: its `[tag]` and how a cell renders
/// from the cell's [`Means`].
pub type Column = (&'static str, fn(&Means) -> String);

/// One lake's sweep results: systems in first-seed order, the budget
/// axis, and the means of every cell that ran.
#[derive(Debug, Clone)]
pub struct LakeMeans {
    /// System names, in the order the factory built them.
    pub systems: Vec<String>,
    /// Labeled tuples per table.
    pub budgets: Vec<f64>,
    cells: BTreeMap<(String, usize), Means>,
}

impl LakeMeans {
    /// The means of `system` at budget index `budget`; `None` when that
    /// cell never ran (not applicable, or skipped).
    pub fn get(&self, system: &str, budget: usize) -> Option<&Means> {
        self.cells.get(&(system.to_string(), budget))
    }

    /// The "tuples/table × system" F1 table, then each extra column per
    /// system; a cell that never ran reads `n/a`.
    fn table(&self, columns: &[Column]) -> TextTable {
        let mut header = vec!["tuples/table".to_string()];
        header.extend(self.systems.iter().cloned());
        for (tag, _) in columns {
            header.extend(self.systems.iter().map(|n| format!("{n} [{tag}]")));
        }
        let mut table = TextTable { header, rows: Vec::new() };
        let f1: Column = ("", |m| pct(m.f1));
        for (bi, &b) in self.budgets.iter().enumerate() {
            let mut row = vec![format!("{b}")];
            for (_, cell) in std::iter::once(&f1).chain(columns) {
                row.extend(self.systems.iter().map(|name| match self.get(name, bi) {
                    Some(m) => cell(m),
                    None => "n/a".to_string(),
                }));
            }
            table.row(row);
        }
        table
    }
}

/// The budget-sweep protocol shared by the paper's effectiveness
/// experiments: per lake, for each seed → budget → system, one
/// [`run_once`] recorded into the experiment's EVAL rows, then the F1
/// table averaged over seeds. The last non-empty [`RunReport`] per
/// system is printed once, by [`Sweep::finish`].
pub struct Sweep<'a> {
    experiment: &'static str,
    caption: &'static str,
    systems: Box<dyn Fn(&GeneratedLake) -> Vec<Box<dyn ErrorDetector>> + 'a>,
    columns: &'a [Column],
    skip: Box<dyn Fn(&str, &str, f64) -> bool + 'a>,
    budgets: Vec<f64>,
    seeds: u64,
    rec: EvalRecorder,
    reports: BTreeMap<String, RunReport>,
}

impl<'a> Sweep<'a> {
    /// A sweep over `scale`'s budget axis and seeds. `systems` builds
    /// the system list for each seed's lake (oracle baselines read its
    /// clean side); `caption` heads every lake's table.
    pub fn new(
        experiment: &'static str,
        scale: Scale,
        caption: &'static str,
        systems: impl Fn(&GeneratedLake) -> Vec<Box<dyn ErrorDetector>> + 'a,
    ) -> Self {
        Sweep {
            experiment,
            caption,
            systems: Box::new(systems),
            columns: &[],
            skip: Box::new(|_, _, _| false),
            budgets: budget_axis(scale),
            seeds: scale.seeds(),
            rec: EvalRecorder::for_experiment(experiment, scale),
            reports: BTreeMap::new(),
        }
    }

    /// Adds per-system columns after the F1 columns.
    pub fn columns(mut self, columns: &'a [Column]) -> Self {
        self.columns = columns;
        self
    }

    /// Skips every `(lake, system, budget)` run for which `skip` holds;
    /// those cells read `n/a`.
    pub fn skip(mut self, skip: impl Fn(&str, &str, f64) -> bool + 'a) -> Self {
        self.skip = Box::new(skip);
        self
    }

    /// Sweeps one lake, prints its table, writes
    /// `results/<experiment>_<lake>.csv` and returns the means.
    pub fn lake(&mut self, name: &str, generate: impl Fn(u64) -> GeneratedLake) -> LakeMeans {
        let means = self.run_lake(name, &generate);
        let table = means.table(self.columns);
        println!("--- {name}: {} ---", self.caption);
        println!("{}", table.render());
        let file = format!("{}_{}", self.experiment, name.to_lowercase().replace('-', "_"));
        let _ = table.write_csv(&file);
        means
    }

    fn run_lake(&mut self, lake_name: &str, generate: &dyn Fn(u64) -> GeneratedLake) -> LakeMeans {
        let mut cells: BTreeMap<(String, usize), Means> = BTreeMap::new();
        let mut systems_order = Vec::new();
        for seed in 1..=self.seeds {
            let lake = generate(seed);
            let systems = (self.systems)(&lake);
            if systems_order.is_empty() {
                systems_order = systems.iter().map(|s| s.name()).collect();
            }
            for (bi, &b) in self.budgets.iter().enumerate() {
                let budget = Budget::per_table(b);
                for system in &systems {
                    let name = system.name();
                    if !system.applicable(&lake.dirty, budget) || (self.skip)(lake_name, &name, b) {
                        continue;
                    }
                    let r = run_once(system.as_ref(), &lake, budget);
                    self.rec.record_run(lake_name, &name, b, seed, &r, &lake);
                    let sum = cells.entry((name.clone(), bi)).or_default();
                    sum.f1 += r.f1;
                    sum.precision += r.precision;
                    sum.recall += r.recall;
                    sum.seconds += r.seconds;
                    sum.labels += r.labels as f64;
                    sum.runs += 1;
                    if !r.report.stages.is_empty() {
                        self.reports.insert(name, r.report);
                    }
                }
            }
        }
        for m in cells.values_mut() {
            let k = m.runs as f64;
            m.f1 /= k;
            m.precision /= k;
            m.recall /= k;
            m.seconds /= k;
            m.labels /= k;
        }
        LakeMeans { systems: systems_order, budgets: self.budgets.clone(), cells }
    }

    /// Writes the EVAL rows and prints each system's last stage report.
    pub fn finish(self) {
        self.rec.flush().expect("write EVAL matrix");
        for (name, report) in &self.reports {
            print_stage_report(name, report);
        }
        println!();
    }
}

/// A [`Sweep`] system factory over a fixed list of Matelda variants.
pub fn boxed(
    variants: fn() -> Vec<MateldaSystem>,
) -> impl Fn(&GeneratedLake) -> Vec<Box<dyn ErrorDetector>> {
    move |_| variants().into_iter().map(|v| Box::new(v) as Box<dyn ErrorDetector>).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval::EvalCell;
    use matelda_baselines::aspell::Aspell;
    use matelda_lakegen::QuintetLake;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["sys", "f1"]);
        t.row(vec!["Matelda".into(), "79.0%".into()]);
        t.row(vec!["GX".into(), "0.1%".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("sys"));
        assert!(lines[2].ends_with("79.0%"));
    }

    #[test]
    fn run_once_produces_metrics() {
        let lake = QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(1);
        let sys = MateldaSystem::standard();
        let r = run_once(&sys, &lake, Budget::per_table(2.0));
        assert!(r.f1 >= 0.0 && r.f1 <= 1.0);
        assert!(r.seconds > 0.0);
        assert!(r.labels > 0);
    }

    #[test]
    fn scale_parsing_and_knobs() {
        assert_eq!(Scale::Quick.tables(143), 8);
        assert_eq!(Scale::Full.tables(143), 143);
        assert!(Scale::Small.tables(143) < 143);
        assert_eq!(Scale::Quick.seeds(), 1);
        assert_eq!(budget_axis(Scale::Full).len(), 8);
    }

    fn tiny(seed: u64) -> GeneratedLake {
        QuintetLake { rows_per_table: 30, error_rate: 0.1 }.generate(seed)
    }

    fn two_systems(_: &GeneratedLake) -> Vec<Box<dyn ErrorDetector>> {
        vec![Box::new(MateldaSystem::standard()), Box::new(Aspell::new())]
    }

    /// 2 seeds × 2 budgets × 2 systems.
    fn tiny_sweep<'a>() -> Sweep<'a> {
        let mut sweep = Sweep::new("sweep_test", Scale::Quick, "F1", two_systems);
        sweep.seeds = 2;
        sweep.budgets = vec![1.0, 5.0];
        sweep
    }

    #[test]
    fn sweep_records_a_hand_written_loops_cells_in_order_and_skips_exactly_its_cells() {
        let mut rec = EvalRecorder::for_experiment("sweep_test", Scale::Quick);
        for seed in 1..=2 {
            let lake = tiny(seed);
            for b in [1.0, 5.0] {
                for system in two_systems(&lake) {
                    let r = run_once(system.as_ref(), &lake, Budget::per_table(b));
                    rec.record_run("Tiny", &system.name(), b, seed, &r, &lake);
                }
            }
        }
        let f1 = |cells: &[EvalCell], system: &str, b: f64| {
            cells
                .iter()
                .filter(|c| c.system == system && c.budget == b && c.error_type == eval::ALL)
                .map(|c| c.f1.expect("ALL rows carry f1"))
                .sum::<f64>()
                / 2.0
        };

        let mut sweep = tiny_sweep();
        let means = sweep.run_lake("Tiny", &tiny);
        assert_eq!(sweep.rec.cells, rec.cells, "same EVAL cells, same order");
        assert_eq!(means.systems, ["Matelda", "ASPELL"]);
        for (bi, b) in [1.0, 5.0].into_iter().enumerate() {
            for system in ["Matelda", "ASPELL"] {
                let m = means.get(system, bi).expect("every cell ran");
                assert_eq!(m.runs, 2);
                assert_eq!(m.f1, f1(&rec.cells, system, b), "{system} @ {b}");
            }
        }
        // ASPELL has no staged internals, so only Matelda's report is kept.
        assert_eq!(sweep.reports.keys().collect::<Vec<_>>(), ["Matelda"]);

        let mut skipping =
            tiny_sweep().skip(|lake, system, b| lake == "Tiny" && system == "ASPELL" && b > 1.0);
        let skipped = skipping.run_lake("Tiny", &tiny);
        let kept: Vec<EvalCell> = rec
            .cells
            .iter()
            .filter(|c| !(c.system == "ASPELL" && c.budget == 5.0))
            .cloned()
            .collect();
        assert!(kept.len() < rec.cells.len());
        assert_eq!(skipping.rec.cells, kept, "the skip drops exactly its cells");
        assert!(skipped.get("ASPELL", 1).is_none());
        assert_eq!(skipped.get("ASPELL", 0).map(|m| m.f1), means.get("ASPELL", 0).map(|m| m.f1));

        let table = skipped.table(&[("time", |m| secs(m.seconds))]).render();
        let rows: Vec<Vec<&str>> =
            table.lines().skip(2).map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(rows.len(), 2);
        assert!(!rows[0].contains(&"n/a"), "{table}");
        assert_eq!(rows[1][0], "5");
        assert_eq!(rows[1][1], pct(f1(&rec.cells, "Matelda", 5.0)));
        let na: Vec<usize> = (0..rows[1].len()).filter(|&i| rows[1][i] == "n/a").collect();
        assert_eq!(na, [2, 4], "ASPELL's F1 and time cells at budget 5: {table}");
    }
}
