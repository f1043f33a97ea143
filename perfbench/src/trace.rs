//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (the program itself carries no spans yet).
//! They stay in memory while the workload runs and are written out as
//! JSON lines once it ends, so file I/O never lands inside a timed op.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are microseconds since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

/// Thread-safe span store.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds from the tracer's epoch to `t`.
    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id, so later spans can
    /// name it as their parent.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            op,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans.lock().expect("span store lock").push(span);
        id
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store lock").len()
    }

    /// Writes every span as one JSON object per line, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans = self.spans.lock().expect("span store lock").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.op, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
