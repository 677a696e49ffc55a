//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! layer; nothing inside the engines is instrumented. Each span records
//! its name, start and end (nanoseconds since the recorder was created),
//! the span that caused it, the point it belongs to and the work it
//! covered in lane-cycles. Structural sizes (tape instructions, input
//! slots) are recorded as named samples next to the spans.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`build`, `compile`, `stimulus`, `tape`, `reduce`, …).
    pub name: &'static str,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Measured point the span belongs to (`None` during set-up).
    pub point: Option<usize>,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Simulated lane-cycles the span covered (0 when not applicable).
    pub lane_cycles: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans and structural samples for one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    samples: Vec<(&'static str, f64)>,
    point: Option<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            samples: Vec::new(),
            point: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Marks the measured point subsequent spans belong to.
    pub fn set_point(&mut self, point: Option<usize>) {
        self.point = point;
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            point: self.point,
            start_ns,
            end_ns: start_ns,
            lane_cycles: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, crediting it with `lane_cycles` of simulated work.
    pub fn close(&mut self, id: usize, lane_cycles: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.lane_cycles = lane_cycles;
    }

    /// Records a structural size (tape instructions, input slots, …).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }

    /// Runs `f` inside a root span named `name` when `tracer` is present.
    pub fn around<T>(
        tracer: &mut Option<&mut Tracer>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = tracer.as_deref_mut().map(|t| t.open(name, None));
        let out = f();
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
            t.close(id, 0);
        }
        out
    }

    /// Spans of one layer.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Samples of one structural size.
    pub fn samples_named(&self, name: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect()
    }

    /// The spans as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {}, \"point\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"lane_cycles\": {}}}",
                opt(s.parent),
                opt(s.point),
                s.name,
                s.start_ns,
                s.end_ns,
                s.lane_cycles
            );
        }
        out
    }
}
