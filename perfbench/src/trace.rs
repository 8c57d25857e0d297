//! Spans recorded by the benchmark around each call into a layer: name,
//! start, end, parent and operation id, kept in memory and written out at
//! the end of the traced run. Spans inside the program are not recorded
//! here; the program's own `cpgan-obs` collection stays off so it cannot
//! perturb the numbers.

use cpgan_obs::Stopwatch;
use serde::Value;
use std::cell::RefCell;
use std::path::{Path, PathBuf};

/// Where traced runs write their span files (inside the benchmark's own
/// directory, ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One finished or open span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `core.fit`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

/// The span recorder; [`Tracer::off`] records nothing.
#[derive(Debug)]
pub struct Tracer {
    clock: Stopwatch,
    state: Option<RefCell<State>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let (Some(i), Some(state)) = (self.index, &self.tracer.state) {
            let end = self.tracer.now_ns();
            let mut st = state.borrow_mut();
            st.spans[i].end_ns = end;
            st.stack.pop();
        }
    }
}

impl Tracer {
    /// A tracer that records nothing (the untraced runs).
    pub fn off() -> Tracer {
        Tracer {
            clock: Stopwatch::start(),
            state: None,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            clock: Stopwatch::start(),
            state: Some(RefCell::new(State::default())),
        }
    }

    /// Nanoseconds since the tracer was created: the time base of every
    /// span, also usable for spans recorded after the fact.
    pub fn now_ns(&self) -> u64 {
        self.clock.elapsed_ns()
    }

    fn open(&self, name: &'static str, new_op: bool) -> Guard<'_> {
        let Some(state) = &self.state else {
            return Guard {
                tracer: self,
                index: None,
            };
        };
        let start_ns = self.now_ns();
        let mut st = state.borrow_mut();
        let parent = st.stack.last().copied();
        let op = match (new_op, parent) {
            (false, Some(p)) => st.spans[p].op,
            _ => {
                st.next_op += 1;
                st.next_op
            }
        };
        let index = st.spans.len();
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op,
        });
        st.stack.push(index);
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Opens a span inside the current operation until the guard drops.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        self.open(name, false)
    }

    /// Runs `f` inside a span of the current operation.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.open(name, false);
        f()
    }

    /// Runs `f` inside a span that starts a new operation.
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.open(name, true);
        f()
    }

    /// Records a finished span of a new operation under the current span,
    /// for work that does not nest on this thread (an in-flight request).
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(state) = &self.state {
            let mut st = state.borrow_mut();
            st.next_op += 1;
            let span = Span {
                name,
                start_ns,
                end_ns,
                parent: st.stack.last().copied(),
                op: st.next_op,
            };
            st.spans.push(span);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map(|s| s.borrow().spans.clone())
            .unwrap_or_default()
    }

    /// Self time of each span: its duration minus the part of it that its
    /// children cover (children may overlap each other, e.g. pipelined
    /// requests, so their union is subtracted).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total and self time per span name, in first-seen order, as text.
    pub fn self_time_table(&self) -> Vec<String> {
        let spans = self.spans();
        let selfs = self.self_times_ns();
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let total = s.end_ns - s.start_ns;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += self_ns;
                }
                None => rows.push((s.name, 1, total, self_ns)),
            }
        }
        let mut lines = vec![format!(
            "{:<32} {:>7} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        )];
        for (name, count, total, self_ns) in rows {
            lines.push(format!(
                "{name:<32} {count:>7} {:>12.6} {:>12.6}",
                total as f64 * 1e-9,
                self_ns as f64 * 1e-9
            ));
        }
        lines
    }

    /// Writes every span, one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self.self_times_ns();
        let mut text = String::new();
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let field = |k: &str, v: Value| (k.to_string(), v);
            let line = Value::Object(vec![
                field("id", Value::UInt(i as u64)),
                field("name", Value::Str(s.name.to_string())),
                field("start_ns", Value::UInt(s.start_ns)),
                field("end_ns", Value::UInt(s.end_ns)),
                field("self_ns", Value::UInt(self_ns)),
                field(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                field("op", Value::UInt(s.op)),
            ]);
            text.push_str(&serde_json::to_string(&line).map_err(std::io::Error::other)?);
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
