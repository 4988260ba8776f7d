//! Spans recorded from the benchmark's own code around its calls into
//! each layer's public functions. A span has a layer name, host start
//! and end, its parent (the span open when it began) and the memcached
//! opaque of the request it serves where the benchmark can see one.
//!
//! Spans are kept in memory while the measured window runs and written
//! out when the run ends. Every call is aggregated per layer, including
//! self time (duration minus the part covered by child spans); only the
//! first [`SPAN_CAP`] spans are kept individually, so a long window
//! cannot exhaust memory.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// Individually kept spans per traced window.
pub const SPAN_CAP: usize = 200_000;

/// The layers timed from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `SimWorld::step()`: the simulator plus every layer it runs
    /// that no other span covers (driver, `net` rx, `core` dispatch,
    /// and on `sharded_ship` the `hosted` messenger).
    SimStep,
    /// The memcached connection handler's `on_receive` (parse, store
    /// access, response build and its `TcpConn::send`).
    AppsServe,
    /// A load-generator `TcpConn::send`.
    NetSend,
    /// A load-generator `NetIf::connect`.
    NetConnect,
    /// The load generator's own callbacks.
    Loadgen,
}

pub const LAYERS: [Layer; 5] = [
    Layer::SimStep,
    Layer::AppsServe,
    Layer::NetSend,
    Layer::NetConnect,
    Layer::Loadgen,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::SimStep => "sim.step",
            Layer::AppsServe => "apps.serve",
            Layer::NetSend => "net.send",
            Layer::NetConnect => "net.connect",
            Layer::Loadgen => "loadgen",
        }
    }
}

/// Per-layer totals over a traced window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A log-linear histogram of durations: 32 buckets per power of two,
/// so a quantile reads within about 3% of the exact value.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

const SUB: u32 = 5;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; 64 << SUB],
            n: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < (1 << SUB) {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let mant = (v >> (exp - SUB)) & ((1 << SUB) - 1);
        (((exp - SUB + 1) << SUB) | mant as u32) as usize
    }

    fn lower(b: usize) -> u64 {
        if b < (1 << SUB) {
            return b as u64;
        }
        let exp = (b >> SUB) as u32 + SUB - 1;
        let mant = (b & ((1 << SUB) - 1)) as u64;
        (1u64 << exp) | (mant << (exp - SUB))
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    /// The `q` quantile (0..=1), as its bucket's lower bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower(b);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

struct Frame {
    id: u32,
    layer: Layer,
    start: Instant,
    child_ns: u64,
    opaque: u32,
}

struct SpanRec {
    id: u32,
    parent: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    opaque: u32,
}

#[derive(Default)]
struct Tracer {
    epoch: Option<Instant>,
    next_id: u32,
    stack: Vec<Frame>,
    spans: Vec<SpanRec>,
    aggs: [Agg; LAYERS.len()],
    step_hist: Hist,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Clears the previous window's data and starts recording.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Tracer {
            epoch: Some(Instant::now()),
            spans: Vec::with_capacity(SPAN_CAP),
            ..Tracer::default()
        }
    });
    ON.with(|on| on.set(true));
}

/// Stops recording. Spans still open stay unrecorded.
pub fn stop() {
    ON.with(|on| on.set(false));
}

/// An open span; recorded when dropped.
pub struct Span(bool);

/// Opens a span of `layer` if recording is on.
#[inline]
pub fn span(layer: Layer, opaque: u32) -> Span {
    if !ON.with(Cell::get) {
        return Span(false);
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.next_id += 1;
        let id = t.next_id;
        t.stack.push(Frame {
            id,
            layer,
            start: Instant::now(),
            child_ns: 0,
            opaque,
        });
    });
    Span(true)
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        let end = Instant::now();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(f) = t.stack.pop() else { return };
            let dur = end.duration_since(f.start).as_nanos() as u64;
            let agg = &mut t.aggs[f.layer as usize];
            agg.calls += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(f.child_ns);
            if f.layer == Layer::SimStep {
                t.step_hist.record(dur);
            }
            let parent = match t.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.id
                }
                None => 0,
            };
            if t.spans.len() < SPAN_CAP {
                let epoch = t.epoch.expect("recording started");
                let start_ns = f.start.duration_since(epoch).as_nanos() as u64;
                t.spans.push(SpanRec {
                    id: f.id,
                    parent,
                    layer: f.layer,
                    start_ns,
                    end_ns: start_ns + dur,
                    opaque: f.opaque,
                });
            }
        });
    }
}

/// The window's per-layer totals (indexed like [`LAYERS`]) and the
/// step-duration histogram.
pub fn results() -> ([Agg; LAYERS.len()], Hist) {
    TRACER.with(|t| {
        let t = t.borrow();
        (t.aggs, t.step_hist.clone())
    })
}

/// Writes the kept spans as tab-separated rows.
pub fn write_spans(out: &mut impl Write) -> std::io::Result<()> {
    TRACER.with(|t| {
        let t = t.borrow();
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\topaque")?;
        for s in &t.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.opaque
            )?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_are_close() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5000u64), (0.99, 9900)] {
            let got = h.quantile(q) as f64;
            assert!(
                (got - exact as f64).abs() / exact as f64 <= 0.04,
                "{q}: {got}"
            );
        }
        assert_eq!(Hist::lower(Hist::bucket(7)), 7);
    }

    #[test]
    fn self_time_excludes_children() {
        start();
        {
            let _outer = span(Layer::SimStep, 0);
            let _inner = span(Layer::AppsServe, 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop();
        let (aggs, _) = results();
        let step = aggs[Layer::SimStep as usize];
        let serve = aggs[Layer::AppsServe as usize];
        assert_eq!((step.calls, serve.calls), (1, 1));
        assert!(serve.self_ns >= 2_000_000);
        assert!(step.self_ns < serve.self_ns);
        let mut out = Vec::new();
        write_spans(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\tapps.serve\t"), "{text}");
    }
}
