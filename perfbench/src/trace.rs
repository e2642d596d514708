//! Spans recorded around the benchmark's calls into each layer's public
//! functions (traced runs only). Spans stay in memory and are written
//! out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: which layer, which function, when, and which span
/// caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// [`Tracer::span`] when a tracer is given; otherwise only times `f`
/// (measured runs keep tracing off).
pub fn span_opt<T>(
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    layer: &'static str,
    name: &str,
    f: impl FnOnce(Option<u64>) -> T,
) -> (T, f64) {
    match tracer {
        Some(t) => t.span(parent, layer, name, |id| f(Some(id))),
        None => {
            let start = Instant::now();
            let value = f(None);
            (value, start.elapsed().as_nanos() as f64)
        }
    }
}

/// The span store of one traced run.
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span of `layer` under `parent`. `f` receives the
    /// new span's id so it can open child spans; the span is stored
    /// when `f` returns. Returns `f`'s value and the span's duration in
    /// nanoseconds.
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        // Reserve the id first so children (stored earlier) can point
        // at it.
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            let id = spans.len() as u64;
            spans.push(Span {
                id,
                parent,
                layer,
                name: name.into(),
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        let start_ns = self.now_ns();
        let value = f(id);
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let span = &mut spans[id as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        (value, (end_ns - start_ns) as f64)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> u64 {
        self.spans.lock().expect("span store poisoned").len() as u64
    }

    /// Durations in nanoseconds of every span of `layer` named `name`.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":{},\"layer\":{},\"name\":{},\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                realm_obs::json_string(&self.workload),
                realm_obs::json_string(s.layer),
                realm_obs::json_string(&s.name),
                s.id,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
