//! The benchmark's own span recorder.
//!
//! Spans are taken in this package only, around each call into a
//! layer of the repository (name, layer, start, end, parent). They
//! stay in memory and are written once, when the run ends. A layer's
//! self time is the time its spans cover minus the part of each span
//! that its child spans cover.

use macro3d_json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
struct SpanRec {
    id: u64,
    parent: Option<u64>,
    layer: &'static str,
    name: String,
    thread: u64,
    start_s: f64,
    end_s: f64,
}

/// Records spans when enabled; a disabled recorder only runs the
/// wrapped closures.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// Open span ids on this thread (innermost last) and the thread's
    /// index for the written trace.
    static STACK: RefCell<(u64, Vec<u64>)> = const { RefCell::new((0, Vec::new())) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_index() -> u64 {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if s.0 == 0 {
            s.0 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        }
        s.0
    })
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span of `layer`. The parent is the innermost
    /// span open on this thread, or the one [`Recorder::adopt`] set.
    pub fn span<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let thread = thread_index();
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.1.last().copied();
            s.1.push(id);
            parent
        });
        let start_s = self.epoch.elapsed().as_secs_f64();
        let out = f();
        let end_s = self.epoch.elapsed().as_secs_f64();
        STACK.with(|s| s.borrow_mut().1.pop());
        self.spans
            .lock()
            .expect("span store poisoned by a panicking span")
            .push(SpanRec {
                id,
                parent,
                layer,
                name: name.to_string(),
                thread,
                start_s,
                end_s,
            });
        out
    }

    /// The innermost span open on this thread, to hand to threads it
    /// spawns.
    pub fn current(&self) -> Option<u64> {
        STACK.with(|s| s.borrow().1.last().copied())
    }

    /// Makes `parent` the parent of this thread's next top-level
    /// spans (for worker threads spawned inside a span).
    pub fn adopt(&self, parent: Option<u64>) {
        if let (true, Some(p)) = (self.on, parent) {
            STACK.with(|s| s.borrow_mut().1 = vec![p]);
        }
    }

    /// Seconds of self time per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking span");
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_s, s.end_s));
            }
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get(&s.id)
                .map_or(0.0, |c| union_within(c, s.start_s, s.end_s));
            *out.entry(s.layer).or_insert(0.0) += (s.end_s - s.start_s) - covered;
        }
        out
    }

    /// The recorded spans as a JSON array, ordered by start time.
    pub fn to_json(&self) -> String {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking span")
            .clone();
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.id.cmp(&b.id)));
        let items: Vec<String> = spans
            .iter()
            .map(|s| {
                Json::obj()
                    .field("id", Json::from_u64(s.id))
                    .field("parent", s.parent.map_or(Json::Null, Json::from_u64))
                    .field("layer", Json::str(s.layer))
                    .field("name", Json::str(s.name.clone()))
                    .field("thread", Json::from_u64(s.thread))
                    .field("start_s", Json::from_f64(s.start_s))
                    .field("end_s", Json::from_f64(s.end_s))
                    .emit()
            })
            .collect();
        format!("[\n{}\n]\n", items.join(",\n"))
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let u = union_within(
            &[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)],
            0.5,
            10.0,
        );
        assert!((u - (2.5 + 1.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn self_time_excludes_children() {
        let rec = Recorder::new(true);
        rec.span("outer", "a", || {
            rec.span("inner", "b", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = rec.self_time_by_layer();
        assert!(st["inner"] >= 0.019);
        assert!(st["outer"] < st["inner"]);
    }
}
