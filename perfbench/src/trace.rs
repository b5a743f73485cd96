//! The benchmark's span recorder. Spans wrap the benchmark's own calls
//! into each crate's public functions, so the program under test runs
//! unchanged; they are kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The run the span belongs to (for example `staged-2t`): spans of
    /// one run share it.
    pub run: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    run: String,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), run: String::new(), open: Vec::new(), spans: Vec::new() }
    }

    /// Tags the spans opened from now on with `run`.
    pub fn set_run(&mut self, run: &str) {
        self.run = run.to_string();
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest
    /// under it.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            run: self.run.clone(),
            parent: self.open.last().copied(),
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time of every span called `name` in `run`.
    pub fn self_secs(&self, run: &str, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].run == run && self.spans[i].name == name)
            .map(|i| self_time(&self.spans, i))
            .sum()
    }

    /// Summed duration of every span called `name` in `run`.
    pub fn total_secs(&self, run: &str, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.run == run && s.name == name).map(Span::secs).sum()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":\"{}\",\"parent\":{parent},\
                 \"start_s\":{},\"end_s\":{},\"self_s\":{}}}{}",
                s.name,
                s.run,
                s.start,
                s.end,
                self_time(&self.spans, i),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Span `i`'s duration minus the part of it that its direct children
/// cover (overlapping children count once).
pub fn self_time(spans: &[Span], i: usize) -> f64 {
    let me = &spans[i];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start.max(me.start), s.end.min(me.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    me.secs() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span { name: name.into(), run: "r".into(), parent, start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 2.0, 5.0), // overlaps a: [1, 5] counts once
            span("c", Some(0), 6.0, 7.0),
            span("grandchild", Some(3), 6.2, 6.7), // counts against c only
        ];
        assert!((self_time(&spans, 0) - 5.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
        assert!((self_time(&spans, 3) - 0.5).abs() < 1e-12);
        assert!((self_time(&spans, 4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("root", None, 0.0, 4.0), span("late", Some(0), 3.0, 9.0)];
        assert!((self_time(&spans, 0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_and_sums_by_run_and_name() {
        let mut t = Tracer::new();
        t.set_run("one");
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("inner", |_| ());
        });
        t.set_run("two");
        t.span("inner", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!(s[3].run, "two");
        let inner = t.total_secs("one", "inner");
        assert!(inner >= 0.002);
        let outer_self = t.self_secs("one", "outer");
        assert!((outer_self + inner - s[0].secs()).abs() < 1e-9);
        assert!(t.to_json().contains("\"name\":\"outer\""));
    }
}
