//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span's name is `<layer>.<what>`; the layer is the part before the
//! first dot (`graph`, `linalg`, `core`, `storage`, `serve`, or `bench`
//! for the benchmark's own code). Spans nest by call: a span opened while
//! another is open becomes its child. All spans are taken on the client
//! thread, so children never overlap and a span's self time is its
//! duration minus its children's durations. Spans stay in memory until
//! [`Trace::to_json`] writes them out at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are seconds since the trace started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub batch: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span recorder; [`Trace::off`] records nothing and costs one branch
/// per call.
pub struct Trace {
    origin: Instant,
    recorder: Option<RefCell<Recorder>>,
}

impl Trace {
    pub fn off() -> Self {
        Trace {
            origin: Instant::now(),
            recorder: None,
        }
    }

    pub fn on() -> Self {
        Trace {
            origin: Instant::now(),
            recorder: Some(RefCell::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Run `f` inside a span named `name`, tagged with `batch`.
    pub fn span<T>(&self, name: &'static str, batch: Option<usize>, f: impl FnOnce() -> T) -> T {
        let Some(cell) = &self.recorder else {
            return f();
        };
        let id = {
            let mut r = cell.borrow_mut();
            let id = r.spans.len();
            let parent = r.open.last().copied();
            let start = self.origin.elapsed().as_secs_f64();
            r.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                batch,
            });
            r.open.push(id);
            id
        };
        let out = f();
        let mut r = cell.borrow_mut();
        r.open.pop();
        r.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.recorder
            .as_ref()
            .map_or_else(Vec::new, |r| r.borrow().spans.clone())
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per layer over the subtrees rooted at spans named
    /// `root` (every span when `root` is `None`); the values sum to the
    /// roots' total duration.
    pub fn self_times_under(&self, root: Option<&str>) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_time = vec![0.0f64; spans.len()];
        let mut in_tree = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            // Parents are recorded before their children.
            in_tree[i] = root.is_none_or(|r| s.name == r) || s.parent.is_some_and(|p| in_tree[p]);
            if let Some(p) = s.parent {
                child_time[p] += s.seconds();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().filter(|&(i, _)| in_tree[i]) {
            *out.entry(s.layer()).or_insert(0.0) += s.seconds() - child_time[i];
        }
        out
    }

    /// Every span as a JSON array of `{name, layer, start_s, end_s,
    /// parent, batch}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_s\": {:?}, \
                 \"end_s\": {:?}, \"parent\": {}, \"batch\": {}}}{}",
                s.name,
                s.layer(),
                s.start,
                s.end,
                opt(s.parent),
                opt(s.batch),
                if i + 1 == spans.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let t = Trace::on();
        t.span("bench.order", None, || {
            t.span("graph.build", None, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("linalg.solve", None, || {
                t.span("core.sort", None, || {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                })
            });
        });
        t.span("bench.serve", Some(3), || ());
        let root = t.total("bench.order");
        let selfs = t.self_times_under(Some("bench.order"));
        let sum: f64 = selfs.values().sum();
        assert!((sum - root).abs() < 1e-9, "{sum} vs {root}");
        assert!(selfs["graph"] >= 0.002 && selfs["core"] >= 0.001);
        assert!(!selfs.contains_key("serve"));
        assert_eq!(t.spans()[4].batch, Some(3));
        assert_eq!(t.spans()[3].parent, Some(2));
    }

    #[test]
    fn off_records_nothing() {
        let t = Trace::off();
        assert_eq!(t.span("graph.build", None, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
