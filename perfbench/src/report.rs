//! The result of one run: metrics with their units and sample counts,
//! plus the operation tally. Printed as readable lines, then as the one
//! JSON object that ends standard output.

use crate::stats::Tally;
use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Readable lines printed after the metrics and left out of the JSON.
    notes: Vec<String>,
}

impl Report {
    pub fn new(tally: Tally) -> Self {
        Report { tally, metrics: Vec::new(), notes: Vec::new() }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.tally.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ =
                writeln!(out, "{:<32} {:>16.6} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        let t = &self.tally;
        let _ = writeln!(
            out,
            "{:<32} {:>16.6} {:<6} ({} of {} operations failed)",
            "failed_share",
            t.failed_share(),
            "ratio",
            t.failed,
            t.attempted
        );
        for why in &t.reasons {
            let _ = writeln!(out, "FAILED: {why}");
        }
        out
    }

    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_with_full_digits() {
        let mut r = Report::new(Tally::default());
        r.metric("detect_s", 12.345678901, "s", 1);
        r.metric("f1", 0.5, "ratio", 1);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": \
             {\"detect_s\": {\"value\": 12.345678901, \"unit\": \"s\"}, \
             \"f1\": {\"value\": 0.5, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    fn a_non_finite_metric_fails_the_run() {
        let mut r = Report::new(Tally::default());
        r.metric("detect_s", f64::NAN, "s", 0);
        assert!(!r.correct());
        assert!(r.json().contains("\"value\": 0.0"));
    }
}
