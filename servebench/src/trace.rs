//! Spans recorded from the benchmark's side of each layer boundary:
//! kept in memory during a traced run and written out at its end.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval; spans of one pass share their parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// The in-memory span log of one traced run.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span and returns its id (usable as a parent).
    pub fn record(&self, parent: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        let id = self.reserve();
        self.push(id, parent, name, start, end);
        id
    }

    /// Reserves an id for a span whose end is not known yet (a pass, the
    /// parent of its requests).
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a top-level span under an id taken from [`Self::reserve`].
    pub fn record_as(&self, id: u64, name: &'static str, start: Instant, end: Instant) {
        self.push(id, 0, name, start, end);
    }

    fn push(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let us = |t: Instant| t.saturating_duration_since(self.base).as_secs_f64() * 1e6;
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            start_us: us(start),
            end_us: us(end),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span log poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, s.parent, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
