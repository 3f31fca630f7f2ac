//! Spans recorded from outside the program, around calls into each
//! crate's public functions. Kept in memory; written to
//! `out/trace.json` when the benchmark ends.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Spans recorded from here on belong to `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            workload: self.workload,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Durations, in seconds, of the current workload's spans named
    /// `name`, in recording order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.workload == self.workload && s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("workload", Json::str(s.workload)),
                        ("start", Json::Num(s.start as f64)),
                        ("end", Json::Num(s.end as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self", Json::Num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            own[parent] = own[parent].saturating_sub(s.end - s.start);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            workload: "w",
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 { a 10..40 { c 15..25 }, b 50..90 }
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn nested_calls_record_their_parent() {
        let mut t = Tracer::new();
        t.set_workload("w");
        let out = t.span("outer", |t| {
            t.span("first", |_| ());
            t.span("second", |t| t.span("leaf", |_| 7))
        });
        assert_eq!(out, 7);
        let parents: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("outer", None),
                ("first", Some(0)),
                ("second", Some(0)),
                ("leaf", Some(2))
            ]
        );
        assert!(t
            .spans
            .iter()
            .all(|s| s.end >= s.start && s.workload == "w"));
        assert_eq!(t.seconds("first").len(), 1);
        assert!(t.seconds("absent").is_empty());
    }
}
