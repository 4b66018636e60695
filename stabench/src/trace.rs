//! The harness's own span recorder. Spans are taken around calls into the
//! program's public entry points, kept in memory and written out once at
//! exit; nothing is recorded inside the program.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (analysis, edit, batch) this span belongs to.
    pub request: u64,
}

/// Single-threaded span recorder; nesting follows the call stack.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    request: Cell<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    /// Starts a new request id; later spans carry it.
    pub fn next_request(&self) -> u64 {
        let id = self.request.get() + 1;
        self.request.set(id);
        id
    }

    /// Times `f` as a span named `name`, a child of the innermost open span.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start: self.epoch.elapsed().as_secs_f64(),
                end: 0.0,
                parent: self.stack.borrow().last().copied(),
                request: self.request.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Self time of every span (its duration minus its children's union).
    pub fn self_times(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        spans
            .iter()
            .zip(&children)
            .map(|(s, c)| crate::stats::self_time(s.start, s.end, c))
            .collect()
    }

    /// Self time summed per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.borrow().iter().zip(self.self_times()) {
            *out.entry(s.name.clone()).or_insert(0.0) += t;
        }
        out
    }

    /// The spans as a JSON array (name, start, end, parent, request and
    /// self time), for the run record.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times();
        let items: Vec<String> = self
            .spans
            .borrow()
            .iter()
            .zip(selfs)
            .map(|(s, st)| {
                format!(
                    "{{\"name\":{:?},\"start_s\":{},\"end_s\":{},\"parent\":{},\"request\":{},\"self_s\":{}}}",
                    s.name,
                    s.start,
                    s.end,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request,
                    st
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new();
        let req = t.next_request();
        t.time("outer", || {
            t.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = t.spans.borrow().clone();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == req));
        let by_name = t.self_time_by_name();
        assert!(by_name["inner"] >= 0.02);
        assert!(by_name["outer"] < by_name["inner"]);
        let total: f64 = by_name.values().sum();
        assert!((total - (spans[0].end - spans[0].start)).abs() < 1e-9);
    }
}
