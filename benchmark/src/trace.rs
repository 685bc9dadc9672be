//! The span recorder behind the per-layer ledger.
//!
//! Spans are recorded from *outside* the program: the decorators in
//! [`crate::decorators`] bracket every call through the public seams
//! (`ObjectStore`, `FileStorage`, `CoordinationService`) and the driver
//! brackets every `FileSystem` call. Each span carries both clocks — host
//! nanoseconds (`Instant`) and virtual nanoseconds (the caller's simulated
//! clock) — its byte count and its outcome; the parent is the span open on
//! the thread-local stack (the run is single-threaded).
//!
//! A `FileSystem` call is a **root**. When a root closes, its tree is folded
//! into per-layer aggregates and dropped (a seeded 1-in-64 sample of
//! operations is kept whole for the Chrome-trace export):
//!
//! * **host self time** — a span's duration minus its children's. Children
//!   run one after another on the one host thread, so the self times of a
//!   tree sum to the root's host duration exactly.
//! * **virtual self time** — children run on *forked* virtual clocks and
//!   overlap, so each instant of the root's interval is attributed to exactly
//!   one span: the deepest one covering it, and among overlapping siblings
//!   the one that ends last (the one a join had to wait for). The self times
//!   of a tree therefore sum to the root's latency exactly.
//! * **background** — what a span runs past the end of its root (a GC cycle
//!   or a prefetch spawned on a background lane).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::rng::Rng;
use crate::stats::Samples;

/// The seams a span can be recorded at, named after the modules behind them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The `FileSystem` seam (`scfs::agent`), bracketed by the driver.
    Agent = 0,
    /// The `FileStorage` seam (`scfs::backend`).
    Backend = 1,
    /// The `ObjectStore` seam (`cloud_store`).
    Cloud = 2,
    /// The `CoordinationService` seam (`coord`).
    Coord = 3,
}

/// Number of layers.
pub const LAYERS: usize = 4;

impl Layer {
    /// Lower-case layer name used in metric names and trace categories.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Agent => "agent",
            Layer::Backend => "backend",
            Layer::Cloud => "cloud",
            Layer::Coord => "coord",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Seam the span was recorded at.
    pub layer: Layer,
    /// Method name at that seam.
    pub name: &'static str,
    /// Index of the parent span within the same root, if any.
    pub parent: Option<u32>,
    /// Host start, nanoseconds since the recorder was installed.
    pub host_start: u64,
    /// Host end.
    pub host_end: u64,
    /// Virtual start, nanoseconds since the simulation epoch.
    pub virt_start: u64,
    /// Virtual end.
    pub virt_end: u64,
    /// Payload bytes moved by the call.
    pub bytes: u64,
    /// Whether the call succeeded.
    pub ok: bool,
}

/// Per-layer aggregates over every folded root.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerAgg {
    /// Spans recorded.
    pub calls: u64,
    /// Spans whose call failed.
    pub failed: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Host self time, ns.
    pub host_self_ns: u64,
    /// Host time of the spans including their children, ns.
    pub host_total_ns: u64,
    /// Foreground virtual self time, ns (sums to root latency over layers).
    pub virt_self_ns: u64,
    /// Virtual time run past the root's end, ns.
    pub virt_background_ns: u64,
    /// Sum of raw virtual durations, ns (parallel spans count in full).
    pub virt_busy_ns: u64,
}

/// One whole operation kept for the Chrome-trace export.
#[derive(Debug, Clone)]
pub struct SampledOp {
    /// Mount that issued the operation.
    pub mount: usize,
    /// Operation kind.
    pub kind: &'static str,
    /// Every span of every root of the operation.
    pub spans: Vec<Span>,
}

/// The recorder; one per traced pass, installed thread-locally.
pub struct Recorder {
    origin: Instant,
    active: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Per-layer aggregates.
    pub layers: [LayerAgg; LAYERS],
    /// Virtual duration samples per `(layer, method)`.
    pub by_name: BTreeMap<(Layer, &'static str), Samples>,
    /// Spans recorded in total.
    pub total_spans: u64,
    /// Sum of root (syscall) virtual latencies, ns.
    pub root_virt_ns: u64,
    /// Sum of root (syscall) host durations, ns.
    pub root_host_ns: u64,
    sampler: Rng,
    current_op: Option<SampledOp>,
    /// The sampled operations.
    pub sampled: Vec<SampledOp>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Handle of an open span; `None` when nothing is being recorded.
pub type SpanId = Option<u32>;

/// One operation in 64 is kept whole for the Chrome trace.
const SAMPLE_ONE_IN: u64 = 64;

/// Installs a fresh, inactive recorder on this thread.
pub fn install(seed: u64) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            active: false,
            spans: Vec::new(),
            stack: Vec::new(),
            layers: [LayerAgg::default(); LAYERS],
            by_name: BTreeMap::new(),
            total_spans: 0,
            root_virt_ns: 0,
            root_host_ns: 0,
            sampler: Rng::new(seed),
            current_op: None,
            sampled: Vec::new(),
        });
    });
}

/// Removes and returns this thread's recorder.
pub fn take() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Starts or stops recording (only the timed phase is recorded).
pub fn set_active(active: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.active = active;
        }
    });
}

/// Marks the start of one benchmark operation (a group of syscalls) and
/// decides whether it is kept whole for the Chrome trace.
pub fn begin_op(mount: usize, kind: &'static str) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if rec.active && rec.sampler.below(SAMPLE_ONE_IN) == 0 {
                rec.current_op = Some(SampledOp {
                    mount,
                    kind,
                    spans: Vec::new(),
                });
            }
        }
    });
}

/// Marks the end of the current operation.
pub fn end_op() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some(op) = rec.current_op.take() {
                rec.sampled.push(op);
            }
        }
    });
}

/// Opens a span at `virt_now` (virtual ns). Returns `None` when no recorder
/// is active, which makes the matching [`end`] free.
pub fn begin(layer: Layer, name: &'static str, virt_now: u64) -> SpanId {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().filter(|rec| rec.active)?;
        let id = rec.spans.len() as u32;
        let host = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            layer,
            name,
            parent: rec.stack.last().copied(),
            host_start: host,
            host_end: host,
            virt_start: virt_now,
            virt_end: virt_now,
            bytes: 0,
            ok: true,
        });
        rec.stack.push(id);
        Some(id)
    })
}

/// Closes a span at `virt_now`.
pub fn end(id: SpanId, virt_now: u64, bytes: u64, ok: bool) {
    end_interval(id, None, virt_now, bytes, ok);
}

/// Closes a span whose virtual interval is known from a completion token
/// (`Pending::started_at`/`ready_at`) rather than from the caller's clock.
pub fn end_interval(id: SpanId, virt_start: Option<u64>, virt_end: u64, bytes: u64, ok: bool) {
    let Some(id) = id else { return };
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else { return };
        let host = rec.origin.elapsed().as_nanos() as u64;
        let Some(span) = rec.spans.get_mut(id as usize) else {
            return;
        };
        span.host_end = host;
        if let Some(start) = virt_start {
            span.virt_start = start;
        }
        span.virt_end = virt_end.max(span.virt_start);
        span.bytes = bytes;
        span.ok = ok;
        // Spans close in LIFO order on the one thread.
        while let Some(top) = rec.stack.pop() {
            if top == id {
                break;
            }
        }
        if rec.stack.is_empty() {
            rec.fold_root();
        }
    });
}

/// Per-span results of folding one root's tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Folded {
    /// Host self time per span, ns.
    pub host_self: Vec<u64>,
    /// Foreground virtual self time per span, ns.
    pub virt_self: Vec<u64>,
    /// Virtual time each span ran past the root's end, ns.
    pub virt_background: Vec<u64>,
}

/// Folds one root's spans (index 0 is the root; parents precede children).
pub fn fold(spans: &[Span]) -> Folded {
    let n = spans.len();
    let mut out = Folded {
        host_self: vec![0; n],
        virt_self: vec![0; n],
        virt_background: vec![0; n],
    };
    if n == 0 {
        return out;
    }
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    // Parents precede children, so a parent's duration is in place before
    // its children subtract theirs.
    for (i, span) in spans.iter().enumerate() {
        let dur = span.host_end.saturating_sub(span.host_start);
        out.host_self[i] = dur;
        if let Some(p) = span.parent {
            children[p as usize].push(i as u32);
            out.host_self[p as usize] = out.host_self[p as usize].saturating_sub(dur);
        }
    }
    let root_end = spans[0].virt_end;
    for (i, span) in spans.iter().enumerate().skip(1) {
        out.virt_background[i] = span.virt_end.saturating_sub(span.virt_start.max(root_end));
    }
    attribute(
        spans,
        &children,
        0,
        &[(spans[0].virt_start, spans[0].virt_end)],
        &mut out.virt_self,
    );
    out
}

/// Attributes the `assigned` part of the root's timeline to span `idx` and
/// its descendants: a segment covered by children goes to the covering child
/// that ends last, the rest is the span's own.
fn attribute(
    spans: &[Span],
    children: &[Vec<u32>],
    idx: usize,
    assigned: &[(u64, u64)],
    virt_self: &mut [u64],
) {
    let kids = &children[idx];
    if kids.is_empty() {
        virt_self[idx] += assigned.iter().map(|(a, b)| b - a).sum::<u64>();
        return;
    }
    let mut per_kid: Vec<Vec<(u64, u64)>> = vec![Vec::new(); kids.len()];
    let mut points: Vec<u64> = Vec::new();
    for &(a, b) in assigned {
        points.clear();
        points.push(a);
        points.push(b);
        for &k in kids {
            let s = &spans[k as usize];
            for t in [s.virt_start, s.virt_end] {
                if t > a && t < b {
                    points.push(t);
                }
            }
        }
        points.sort_unstable();
        points.dedup();
        for w in points.windows(2) {
            let (p, q) = (w[0], w[1]);
            let owner = kids
                .iter()
                .enumerate()
                .filter(|(_, &k)| {
                    let s = &spans[k as usize];
                    s.virt_start <= p && s.virt_end >= q
                })
                .max_by_key(|(pos, &k)| (spans[k as usize].virt_end, *pos));
            match owner {
                Some((pos, _)) => match per_kid[pos].last_mut() {
                    Some(last) if last.1 == p => last.1 = q,
                    _ => per_kid[pos].push((p, q)),
                },
                None => virt_self[idx] += q - p,
            }
        }
    }
    for (pos, &k) in kids.iter().enumerate() {
        if !per_kid[pos].is_empty() {
            attribute(spans, children, k as usize, &per_kid[pos], virt_self);
        }
    }
}

impl Recorder {
    fn fold_root(&mut self) {
        let folded = fold(&self.spans);
        for (i, span) in self.spans.iter().enumerate() {
            let agg = &mut self.layers[span.layer as usize];
            let virt = span.virt_end - span.virt_start;
            agg.calls += 1;
            agg.failed += u64::from(!span.ok);
            agg.bytes += span.bytes;
            agg.host_self_ns += folded.host_self[i];
            agg.host_total_ns += span.host_end.saturating_sub(span.host_start);
            agg.virt_self_ns += folded.virt_self[i];
            agg.virt_background_ns += folded.virt_background[i];
            agg.virt_busy_ns += virt;
            self.by_name
                .entry((span.layer, span.name))
                .or_default()
                .push(virt);
        }
        if let Some(root) = self.spans.first() {
            self.root_virt_ns += root.virt_end - root.virt_start;
            self.root_host_ns += root.host_end.saturating_sub(root.host_start);
        }
        self.total_spans += self.spans.len() as u64;
        if let Some(op) = self.current_op.as_mut() {
            // Re-base parent indices onto the operation's span list.
            let base = op.spans.len() as u32;
            op.spans.extend(self.spans.iter().cloned().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        self.spans.clear();
    }

    /// Calls recorded under `(layer, name)`.
    pub fn calls_of(&self, layer: Layer, name: &'static str) -> u64 {
        self.by_name
            .get(&(layer, name))
            .map_or(0, |s| s.len() as u64)
    }

    /// All virtual-duration samples of one layer, pooled over its methods.
    pub fn layer_samples(&self, layer: Layer) -> Samples {
        let mut pooled = Samples::default();
        for ((l, _), samples) in &self.by_name {
            if *l == layer {
                pooled.merge(samples);
            }
        }
        pooled
    }

    /// The sampled operations as Chrome-trace ("Trace Event Format") JSON:
    /// one complete event per span, timestamps in virtual microseconds, one
    /// process per mount and one thread row per layer; host nanoseconds ride
    /// along in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        for op in &self.sampled {
            for span in &op.spans {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"op\":\"{}\",\"host_ns\":{},\
                     \"bytes\":{},\"ok\":{}}}}}",
                    span.name,
                    span.layer.label(),
                    span.virt_start as f64 / 1e3,
                    (span.virt_end - span.virt_start) as f64 / 1e3,
                    op.mount,
                    span.layer as usize,
                    op.kind,
                    span.host_end.saturating_sub(span.host_start),
                    span.bytes,
                    span.ok
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<u32>, host: (u64, u64), virt: (u64, u64)) -> Span {
        Span {
            layer,
            name: "t",
            parent,
            host_start: host.0,
            host_end: host.1,
            virt_start: virt.0,
            virt_end: virt.1,
            bytes: 0,
            ok: true,
        }
    }

    #[test]
    fn self_time_with_overlapping_forked_children() {
        // A close (root, virtual 0..100) calls the backend (10..90), which
        // forks three cloud PUTs on cloned clocks: 20..60, 20..80, 30..50.
        // In host time everything runs back to back.
        let spans = vec![
            span(Layer::Agent, None, (0, 1000), (0, 100)),
            span(Layer::Backend, Some(0), (100, 900), (10, 90)),
            span(Layer::Cloud, Some(1), (200, 300), (20, 60)),
            span(Layer::Cloud, Some(1), (300, 500), (20, 80)),
            span(Layer::Cloud, Some(1), (500, 600), (30, 50)),
        ];
        let f = fold(&spans);
        // Host: children are sequential, self = own minus children.
        assert_eq!(f.host_self, vec![200, 400, 100, 200, 100]);
        assert_eq!(f.host_self.iter().sum::<u64>(), 1000);
        // Virtual: the union of the forks (20..80) belongs to the fork that
        // ends last; the shorter overlapping forks get nothing.
        assert_eq!(f.virt_self, vec![20, 20, 0, 60, 0]);
        assert_eq!(f.virt_self.iter().sum::<u64>(), 100);
        assert_eq!(f.virt_background, vec![0; 5]);
    }

    #[test]
    fn staggered_forks_split_the_timeline_at_handover() {
        // Two forks: 10..40 and 30..70. 10..30 is only covered by the first;
        // from 30 on the later-ending one owns the timeline.
        let spans = vec![
            span(Layer::Agent, None, (0, 10), (0, 100)),
            span(Layer::Cloud, Some(0), (1, 2), (10, 40)),
            span(Layer::Cloud, Some(0), (2, 3), (30, 70)),
        ];
        let f = fold(&spans);
        assert_eq!(f.virt_self, vec![40, 20, 40]);
    }

    #[test]
    fn a_child_running_past_its_root_is_background() {
        // A GC cycle spawned by a close: it starts inside the close and ends
        // long after it; a prefetch that starts after the root ended.
        let spans = vec![
            span(Layer::Agent, None, (0, 100), (0, 50)),
            span(Layer::Backend, Some(0), (10, 60), (40, 300)),
            span(Layer::Cloud, Some(1), (20, 40), (45, 120)),
            span(Layer::Backend, Some(0), (60, 90), (80, 90)),
        ];
        let f = fold(&spans);
        // Foreground: root owns 0..40, backend 40..45, cloud 45..50.
        assert_eq!(f.virt_self, vec![40, 5, 5, 0]);
        assert_eq!(f.virt_self.iter().sum::<u64>(), 50);
        assert_eq!(f.virt_background, vec![0, 250, 70, 10]);
    }

    #[test]
    fn recorder_folds_roots_and_samples_operations() {
        install(1);
        assert_eq!(begin(Layer::Agent, "stat", 0), None, "inactive: no span");
        set_active(true);
        for i in 0..200u64 {
            begin_op(3, "stat");
            let root = begin(Layer::Agent, "stat", i * 100);
            let child = begin(Layer::Coord, "get", i * 100 + 10);
            end(child, i * 100 + 40, 64, i % 50 != 0);
            end(root, i * 100 + 50, 0, true);
            end_op();
        }
        set_active(false);
        let rec = take().expect("installed");
        assert_eq!(rec.layers[Layer::Agent as usize].calls, 200);
        assert_eq!(rec.layers[Layer::Coord as usize].calls, 200);
        assert_eq!(rec.layers[Layer::Coord as usize].failed, 4);
        assert_eq!(rec.layers[Layer::Coord as usize].bytes, 200 * 64);
        assert_eq!(rec.layers[Layer::Agent as usize].virt_self_ns, 200 * 20);
        assert_eq!(rec.layers[Layer::Coord as usize].virt_self_ns, 200 * 30);
        assert_eq!(rec.root_virt_ns, 200 * 50);
        assert_eq!(rec.total_spans, 400);
        assert_eq!(rec.calls_of(Layer::Coord, "get"), 200);
        // Host self times of all layers sum to the roots' host time.
        let host: u64 = rec.layers.iter().map(|l| l.host_self_ns).sum();
        assert_eq!(host, rec.root_host_ns);
        // About 1 in 64 operations is kept whole, and exports as JSON.
        assert!(!rec.sampled.is_empty() && rec.sampled.len() < 20);
        assert!(rec.sampled.iter().all(|op| op.spans.len() == 2));
        let json = rec.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"cat\":\"coord\""));
        assert!(take().is_none());
    }
}
