//! In-memory spans around calls into the program's layers: name, start,
//! end and parent. The traced run writes them out at exit.

use std::time::Instant;

/// One closed span; times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

/// Handle of an open span, returned by [`Tracer::open`].
pub struct Open {
    id: usize,
    started: Instant,
}

/// Records a span tree.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span; it becomes the parent of spans opened before it
    /// closes.
    pub fn open(&mut self, name: &str) -> Open {
        let started = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_s: (started - self.origin).as_secs_f64(),
            end_s: f64::NAN,
        });
        self.stack.push(id);
        Open { id, started }
    }

    /// Close a span, returning its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        self.spans[open.id].end_s = (now - self.origin).as_secs_f64();
        self.stack.retain(|&s| s != open.id);
        (now - open.started).as_secs_f64()
    }

    /// Time `f` inside a span named `name`.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name);
        let r = f();
        let secs = self.close(open);
        (r, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}\n",
                    s.id, s.name, s.start_s, s.end_s
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new();
        let session = t.open("session");
        t.timed("reference", || ());
        t.timed("jumpstart", || ());
        assert!(t.close(session) >= 0.0);
        t.timed("next", || ());
        let names: Vec<(&str, Option<usize>)> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [
                ("session", None),
                ("reference", Some(0)),
                ("jumpstart", Some(0)),
                ("next", None)
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_s >= s.start_s));
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }
}
