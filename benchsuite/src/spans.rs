//! Spans recorded by the benchmark's own code around its calls into each
//! layer (the traced run only; end-to-end runs never install a recorder).
//!
//! One recorder per rank thread, kept in a thread-local: the SPMD closure
//! installs it, the bench's own solver loops and the FT phase hook open and
//! close spans on it, and [`crate::timed::TimedTransport`] — which the
//! runtime calls on the rank's own thread — charges every `send`/`recv` to
//! the innermost open span. Spans stay in memory until the rank returns
//! them; the suite writes them as JSON-lines when the run ends.
//!
//! Transport calls are charged to their enclosing span as totals
//! (`recv_ns`, `send_ns`, `msgs`, `bytes`) rather than as one child span
//! per message: a panel issues thousands of sub-microsecond sends, and the
//! question the trace answers is how long each panel or update *waited*.

use crate::json::Value;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// One recorded span. `id`/`parent` are unique within one `(solve, rank)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// `<crate dir>.<what>`, e.g. `pblas.panel`, `core.right`.
    pub name: &'static str,
    /// Which solve of the run this span belongs to (all its ranks share it).
    pub solve: u32,
    pub rank: u32,
    /// Panel iteration, for per-panel spans.
    pub panel: Option<u32>,
    /// Nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time blocked in `Transport::recv` directly under this span.
    pub recv_ns: u64,
    /// Time inside `Transport::send` directly under this span.
    pub send_ns: u64,
    /// Messages sent directly under this span, and their payload bytes.
    pub msgs: u64,
    pub bytes: u64,
}

impl Span {
    /// Wall seconds from start to end.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    fn to_json(&self) -> Value {
        let opt = |v: Option<u32>| v.map_or(Value::Null, |v| Value::Num(v as f64));
        Value::obj([
            ("name", Value::str(self.name)),
            ("solve", Value::Num(self.solve as f64)),
            ("rank", Value::Num(self.rank as f64)),
            ("panel", opt(self.panel)),
            ("id", Value::Num(self.id as f64)),
            ("parent", opt(self.parent)),
            ("start_ns", Value::Num(self.start_ns as f64)),
            ("end_ns", Value::Num(self.end_ns as f64)),
            ("recv_ns", Value::Num(self.recv_ns as f64)),
            ("send_ns", Value::Num(self.send_ns as f64)),
            ("msgs", Value::Num(self.msgs as f64)),
            ("bytes", Value::Num(self.bytes as f64)),
        ])
    }
}

struct Recorder {
    epoch: Instant,
    solve: u32,
    rank: u32,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f))
}

/// Start recording on this thread. `epoch` is shared by every rank of the
/// run so their timestamps line up.
pub fn install(epoch: Instant, solve: u32, rank: usize) {
    let rec = Recorder {
        epoch,
        solve,
        rank: rank as u32,
        spans: Vec::new(),
        open: Vec::new(),
    };
    RECORDER.with(|r| *r.borrow_mut() = Some(rec));
}

/// Stop recording and hand back this thread's spans (empty if none was
/// installed). Every span must have been closed.
pub fn take() -> Vec<Span> {
    match RECORDER.with(|r| r.borrow_mut().take()) {
        Some(rec) => {
            assert!(rec.open.is_empty(), "span left open on rank {}", rec.rank);
            rec.spans
        }
        None => Vec::new(),
    }
}

/// Open a span under the innermost open one. No-op without a recorder.
pub fn enter(name: &'static str, panel: Option<usize>) {
    with(|rec| {
        let now = rec.epoch.elapsed().as_nanos() as u64;
        let id = rec.spans.len();
        rec.spans.push(Span {
            id: id as u32,
            parent: rec.open.last().map(|&p| p as u32),
            name,
            solve: rec.solve,
            rank: rec.rank,
            panel: panel.map(|p| p as u32),
            start_ns: now,
            end_ns: now,
            recv_ns: 0,
            send_ns: 0,
            msgs: 0,
            bytes: 0,
        });
        rec.open.push(id);
    });
}

/// Close the innermost open span. No-op without a recorder.
pub fn exit() {
    with(|rec| {
        let id = rec.open.pop().expect("exit without a matching enter");
        rec.spans[id].end_ns = rec.epoch.elapsed().as_nanos() as u64;
    });
}

/// Run `f` inside a span.
pub fn scoped<R>(name: &'static str, panel: Option<usize>, f: impl FnOnce() -> R) -> R {
    enter(name, panel);
    let out = f();
    exit();
    out
}

/// Charge one `Transport::send` to the innermost open span.
pub fn note_send(took: Duration, bytes: u64) {
    with(|rec| {
        if let Some(&id) = rec.open.last() {
            let s = &mut rec.spans[id];
            s.send_ns += took.as_nanos() as u64;
            s.msgs += 1;
            s.bytes += bytes;
        }
    });
}

/// Charge one `Transport::recv` call (its whole blocked time) to the
/// innermost open span.
pub fn note_recv(took: Duration) {
    with(|rec| {
        if let Some(&id) = rec.open.last() {
            rec.spans[id].recv_ns += took.as_nanos() as u64;
        }
    });
}

/// Seconds of the spans called `name`, summed (one rank's spans).
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
}

/// Self time of every span of one `(solve, rank)`, in seconds: its duration
/// minus its child spans and minus the transport time charged to it — what
/// the layer computed itself. Indexed like `spans`.
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.secs() - (s.recv_ns + s.send_ns) as f64 * 1e-9).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.secs();
        }
    }
    own
}

/// Write spans as JSON-lines, one span per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(w, "{}", s.to_json().to_json())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_charge_transport_time_to_the_innermost() {
        install(Instant::now(), 3, 1);
        enter("solve", None);
        scoped("pblas.panel", Some(0), || {
            note_send(Duration::from_nanos(40), 64);
            note_recv(Duration::from_nanos(500));
        });
        scoped("pblas.update", Some(0), || note_recv(Duration::from_nanos(100)));
        note_send(Duration::from_nanos(7), 8);
        exit();
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(0)));
        assert_eq!((spans[1].solve, spans[1].rank, spans[1].panel), (3, 1, Some(0)));
        assert_eq!((spans[1].recv_ns, spans[1].send_ns, spans[1].msgs, spans[1].bytes), (500, 40, 1, 64));
        assert_eq!((spans[0].msgs, spans[0].bytes, spans[2].recv_ns), (1, 8, 100));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_subtracts_children_and_transport() {
        let span = |id, parent, start_ns, end_ns, recv_ns| Span {
            id,
            parent,
            name: "x",
            solve: 0,
            rank: 0,
            panel: None,
            start_ns,
            end_ns,
            recv_ns,
            send_ns: 0,
            msgs: 0,
            bytes: 0,
        };
        let spans = vec![
            span(0, None, 0, 1000, 100),
            span(1, Some(0), 100, 400, 50),
            span(2, Some(0), 400, 900, 0),
        ];
        let own = self_secs(&spans);
        assert!((own[0] - 100e-9).abs() < 1e-15, "{own:?}"); // 1000 − 100 − 300 − 500
        assert!((own[1] - 250e-9).abs() < 1e-15);
        assert!((own[2] - 500e-9).abs() < 1e-15);
    }

    #[test]
    fn without_a_recorder_everything_is_a_no_op() {
        enter("a", None);
        note_recv(Duration::from_secs(1));
        exit();
        assert!(take().is_empty());
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        install(Instant::now(), 0, 0);
        scoped("core.panel", Some(2), || {});
        let spans = take();
        let path = std::env::temp_dir().join(format!("ft-benchsuite-spans-{}.jsonl", std::process::id()));
        write_jsonl(&path, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let v = Value::parse(lines[0]).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("core.panel"));
        assert_eq!(v.get("panel").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("parent"), Some(&Value::Null));
    }
}
