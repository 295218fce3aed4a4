//! In-memory spans around the benchmark's calls into each layer
//! (workload → pass → cell → build/run/replay.*), written out as Chrome
//! trace JSON when the benchmark ends.

use gsim_types::JsonValue;
use std::time::{Duration, Instant};

/// Index of a span in its [`Spans`].
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start: Duration,
    end: Option<Duration>,
}

/// A span recorder. Timings taken through it are the benchmark's
/// measurements, so spans and reported numbers agree.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start: Duration::ZERO,
            end: None,
        });
        let id = self.spans.len() - 1;
        self.spans[id].start = self.origin.elapsed();
        id
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end = self.origin.elapsed();
        let span = &mut self.spans[id];
        span.end = Some(end);
        (end - span.start).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let r = f();
        (r, self.close(id))
    }

    /// Closed spans as Chrome trace-event JSON ("X" events, times in
    /// microseconds), each carrying its id and its parent's.
    pub fn to_chrome_json(&self) -> String {
        let us = |d: Duration| JsonValue::float(d.as_secs_f64() * 1e6);
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(id, s)| {
                let end = s.end?;
                let mut args = vec![("id".to_string(), JsonValue::num(id))];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), JsonValue::num(p)));
                }
                Some(JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(s.name.clone())),
                    ("ph".into(), JsonValue::Str("X".into())),
                    ("ts".into(), us(s.start)),
                    ("dur".into(), us(end - s.start)),
                    ("pid".into(), JsonValue::num(1)),
                    ("tid".into(), JsonValue::num(1)),
                    ("args".into(), JsonValue::Obj(args)),
                ]))
            })
            .collect();
        JsonValue::Obj(vec![("traceEvents".into(), JsonValue::Arr(events))]).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_with_parents() {
        let mut s = Spans::default();
        let outer = s.open("workload", None);
        let (v, secs) = s.time("cell", Some(outer), || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let open = s.open("never closed", Some(outer));
        s.close(outer);
        let json = JsonValue::parse(&s.to_chrome_json()).unwrap();
        let events = json.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(events.len(), 2, "open spans are not exported");
        let cell = &events[1];
        assert_eq!(cell.get("name").and_then(JsonValue::as_str), Some("cell"));
        let parent = cell.get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(JsonValue::as_u64), Some(outer as u64));
        assert_ne!(open, outer);
    }
}
