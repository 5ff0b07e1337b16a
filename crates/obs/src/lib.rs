#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Flow-wide observability for the Macro-3D reproduction: hierarchical
//! spans, a typed metrics registry, and Chrome-trace/JSON exporters.
//!
//! # Design
//!
//! A [`Session`] brackets one flow run. It creates the run's
//! *recorder* — its [`ObsLevel`] and a fresh metrics [`Registry`] —
//! and installs it in a thread-local on the calling thread; every
//! instrumentation site on that thread records into it, and
//! [`Session::finish`] takes it out again. Sites elsewhere see no
//! recorder and record nothing, so each run's trace holds its own
//! counts only, however many runs share the process:
//!
//! - [`ObsLevel::Off`] — nothing is recorded.
//! - [`ObsLevel::Summary`] — stage spans and metrics.
//! - [`ObsLevel::Full`] — adds fine-grained engine spans (per-level
//!   bisection, per-rip-up-round routing).
//!
//! With no recorder a site costs one thread-local load and a branch.
//!
//! Parallel work reaches the recorder through the fork/branch/join
//! protocol (see [`span`], [`fork`], [`ForkPoint`]): a fork point
//! carries the forking thread's recorder, and each branch installs it
//! on the thread that runs the branch. At [`ObsLevel::Full`] branches
//! also collect span forests keyed by their position in the *work
//! decomposition* (chunk start index, join arm), never by thread, so
//! the stitched tree — and every metric — is bit-identical for any
//! thread count, matching the `macro3d-par` determinism contract.
//!
//! # Examples
//!
//! ```
//! use macro3d_obs::{ObsConfig, Session};
//!
//! let session = Session::start(ObsConfig::full(), "demo");
//! {
//!     let _stage = macro3d_obs::span("place");
//!     macro3d_obs::with_metrics(|m| m.add("place/fm_passes", 3));
//! }
//! let trace = session.finish().expect("tracing was on");
//! assert_eq!(trace.stage_names(), ["place"]);
//! assert_eq!(trace.metrics.counters["place/fm_passes"], 3);
//! ```

mod export;
mod metrics;
mod span;

pub use export::FlowTrace;
pub use metrics::{HistSnapshot, MetricsSnapshot, Registry, SiteCounter, SiteHistogram};
pub use span::{
    fork, span, span_owned, stage_begin, BranchGuard, ForkPoint, SpanGuard, SpanRecord,
};

use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// How much a [`Session`] records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsLevel {
    /// Record nothing (the default).
    #[default]
    Off = 0,
    /// Stage spans and metrics.
    Summary = 1,
    /// Everything: adds fine-grained engine spans.
    Full = 2,
}

/// One run's recording state, shared by every thread working for it.
pub(crate) struct Recorder {
    pub(crate) level: ObsLevel,
    metrics: Registry,
}

thread_local! {
    /// The level of the recorder in `RECORDER`, copied out so the
    /// off-path check is a single thread-local load.
    static THREAD_LEVEL: Cell<ObsLevel> = const { Cell::new(ObsLevel::Off) };
    static RECORDER: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// Makes `recorder` the calling thread's recorder and returns the one
/// it replaces.
pub(crate) fn install(recorder: Option<Arc<Recorder>>) -> Option<Arc<Recorder>> {
    THREAD_LEVEL.set(recorder.as_ref().map_or(ObsLevel::Off, |r| r.level));
    RECORDER.replace(recorder)
}

/// The calling thread's recorder, if its run records anything.
pub(crate) fn current() -> Option<Arc<Recorder>> {
    if enabled(ObsLevel::Summary) {
        RECORDER.with_borrow(Option::clone)
    } else {
        None
    }
}

/// True when the calling thread's run records at least `min`. One
/// thread-local load — cheap enough for hot engine loops.
#[inline]
pub fn enabled(min: ObsLevel) -> bool {
    THREAD_LEVEL.get() >= min
}

/// Runs `f` on the calling thread's run registry when that run
/// records metrics ([`ObsLevel::Summary`] or above); otherwise does
/// nothing and returns `None`. For metrics whose name is built at run
/// time or that are not counters; fixed-name counters use a
/// [`SiteCounter`].
#[inline]
pub fn with_metrics<R>(f: impl FnOnce(&Registry) -> R) -> Option<R> {
    if !enabled(ObsLevel::Summary) {
        return None;
    }
    RECORDER.with_borrow(|r| r.as_ref().map(|r| f(&r.metrics)))
}

/// Observability settings threaded through `FlowConfig`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Recording level for the flow's session.
    pub level: ObsLevel,
}

impl ObsConfig {
    /// Record nothing (the default; <2 % overhead budget).
    pub fn off() -> Self {
        ObsConfig {
            level: ObsLevel::Off,
        }
    }

    /// Stage spans and metrics only.
    pub fn summary() -> Self {
        ObsConfig {
            level: ObsLevel::Summary,
        }
    }

    /// Full tracing, including fine-grained engine spans.
    pub fn full() -> Self {
        ObsConfig {
            level: ObsLevel::Full,
        }
    }

    /// True when nothing will be recorded.
    pub fn is_off(&self) -> bool {
        self.level == ObsLevel::Off
    }
}

/// Opens a [`span`] whose name needs formatting, without paying for
/// the `format!` unless the session level is [`ObsLevel::Full`].
///
/// ```
/// let depth = 3;
/// let _span = macro3d_obs::span_full!("bisect d{depth}");
/// ```
#[macro_export]
macro_rules! span_full {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::ObsLevel::Full) {
            $crate::span_owned(format!($($arg)*))
        } else {
            None
        }
    };
}

/// One flow run's recording session. Start it before the flow's first
/// stage, finish it after the last; [`Session::finish`] returns the
/// stitched [`FlowTrace`] (or `None` when the config was off).
/// Sessions do not nest: one thread runs one session at a time.
pub struct Session {
    flow: String,
    root: Option<SpanGuard>,
    recorder: Option<Arc<Recorder>>,
}

impl Session {
    /// Starts a session for `flow`: installs a fresh recorder on the
    /// calling thread and opens the root span. Inert when
    /// `cfg.is_off()`.
    pub fn start(cfg: ObsConfig, flow: &str) -> Session {
        let mut session = Session {
            flow: flow.to_owned(),
            root: None,
            recorder: None,
        };
        if !cfg.is_off() {
            let recorder = Arc::new(Recorder {
                level: cfg.level,
                metrics: Registry::default(),
            });
            install(Some(Arc::clone(&recorder)));
            span::reset_thread();
            session.root = Some(span::open_unchecked(format!("flow:{flow}")));
            session.recorder = Some(recorder);
        }
        session
    }

    /// Ends the session: closes the root span, takes the recorder off
    /// the thread, and returns the trace (`None` for an inert
    /// session). Must run on the thread that called
    /// [`Session::start`].
    pub fn finish(mut self) -> Option<FlowTrace> {
        let recorder = self.recorder.take()?;
        drop(self.root.take());
        install(None);
        let spans = span::cleanup(span::take_thread());
        Some(FlowTrace {
            flow: std::mem::take(&mut self.flow),
            spans,
            metrics: recorder.metrics.snapshot(),
        })
    }
}

impl Drop for Session {
    /// An unfinished session (a flow that panicked) still takes its
    /// recorder off the thread, so the thread's next run starts clean.
    fn drop(&mut self) {
        if self.recorder.take().is_some() {
            drop(self.root.take());
            install(None);
            span::reset_thread();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_session_records_nothing() {
        let session = Session::start(ObsConfig::off(), "noop");
        let _span = span("invisible");
        assert!(_span.is_none());
        assert!(session.finish().is_none());
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let session = Session::start(ObsConfig::full(), "t");
        {
            let _a = span("a");
            {
                let _b = span("b");
            }
            let _c = span_full!("c{}", 1);
        }
        let trace = session.finish().expect("on");
        assert_eq!(trace.tree_signature(), "flow:t\n  a\n    b\n    c1\n");
        assert_eq!(trace.stage_names(), ["a"]);
    }

    #[test]
    fn summary_level_skips_full_spans() {
        let session = Session::start(ObsConfig::summary(), "t");
        assert!(span("fine").is_none());
        let stage = stage_begin().expect("summary records stages");
        stage.finish_named("route");
        let trace = session.finish().expect("on");
        assert_eq!(trace.tree_signature(), "flow:t\n  route\n");
    }

    #[test]
    fn dropped_unnamed_span_is_cancelled_and_children_reparent() {
        let session = Session::start(ObsConfig::full(), "t");
        {
            let _pending = stage_begin();
            let _child = span("kept");
        } // _pending drops unnamed -> cancelled
        let trace = session.finish().expect("on");
        assert_eq!(trace.tree_signature(), "flow:t\n  kept\n");
    }

    /// Stitching is identical whether branches run serially or on
    /// threads, and regardless of completion order.
    #[test]
    fn fork_join_stitches_deterministically() {
        let run = |threaded: bool| {
            let session = Session::start(ObsConfig::full(), "t");
            {
                let _stage = span("stage");
                let fp = fork();
                if threaded {
                    std::thread::scope(|scope| {
                        // reverse spawn order to shuffle completion
                        for key in [2u64, 1, 0] {
                            let fp = &fp;
                            scope.spawn(move || {
                                let _b = fp.branch(key);
                                let _s = span_full!("work{key}");
                                let _inner = span("inner");
                            });
                        }
                    });
                } else {
                    for key in [0u64, 1, 2] {
                        let _b = fp.branch(key);
                        let _s = span_full!("work{key}");
                        let _inner = span("inner");
                    }
                }
                fp.join();
            }
            session.finish().expect("on").tree_signature()
        };
        let serial = run(false);
        let threaded = run(true);
        assert_eq!(serial, threaded);
        assert_eq!(
            serial,
            "flow:t\n  stage\n    work0\n      inner\n    work1\n      inner\n    work2\n      inner\n"
        );
    }

    #[test]
    fn histogram_tracks_bounds() {
        let session = Session::start(ObsConfig::summary(), "t");
        for v in [5, 1, 9] {
            with_metrics(|m| m.record("test/hist_bounds", v));
        }
        let snap = session.finish().expect("on").metrics.histograms["test/hist_bounds"];
        assert_eq!((snap.count, snap.sum, snap.min, snap.max), (3, 15, 1, 9));
        assert_eq!(snap.mean(), 5.0);
    }

    /// Sites record nothing outside a session, and a session lists
    /// only the instruments it touched itself.
    #[test]
    fn a_session_lists_only_its_own_instruments() {
        static SITE: SiteCounter = SiteCounter::new("test/site");
        SITE.add(5);
        with_metrics(|m| m.add("test/stray", 1));
        let first = Session::start(ObsConfig::summary(), "t");
        SITE.add(2);
        with_metrics(|m| m.set("test/gauge", 1.5));
        let m = first.finish().expect("on").metrics;
        assert_eq!(m.counters.len(), 1);
        assert_eq!(m.counters["test/site"], 2);
        assert_eq!(m.gauges["test/gauge"], 1.5);
        SITE.add(7);
        let second = Session::start(ObsConfig::summary(), "t");
        let m = second.finish().expect("on").metrics;
        assert_eq!(m, MetricsSnapshot::default());
    }

    /// Two sessions on two threads at once: each trace holds exactly
    /// its own counters and spans, including the work its fork
    /// branches did on other threads.
    #[test]
    fn concurrent_sessions_on_two_threads_stay_apart() {
        static WORK: SiteCounter = SiteCounter::new("test/work");
        let barrier = std::sync::Barrier::new(2);
        let run = |name: &str, n: u64| {
            let session = Session::start(ObsConfig::full(), name);
            {
                let _stage = span_owned(format!("stage-{name}"));
                let fp = fork();
                std::thread::scope(|scope| {
                    for key in 0..2u64 {
                        let fp = &fp;
                        scope.spawn(move || {
                            let _b = fp.branch(key);
                            let _s = span_full!("work{key}");
                            WORK.add(n);
                        });
                    }
                });
                fp.join();
                // both sessions are open here, so every count above
                // raced the other thread's
                barrier.wait();
                for _ in 0..1000 {
                    WORK.add(n);
                }
                with_metrics(|m| m.add(&format!("test/only-{name}"), 1));
                barrier.wait();
            }
            session.finish().expect("on")
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| run("a", 1));
            let b = scope.spawn(|| run("b", 1000));
            (a.join().expect("a"), b.join().expect("b"))
        });
        for (trace, name, n) in [(&a, "a", 1u64), (&b, "b", 1000)] {
            let counters: Vec<_> = trace.metrics.counters.iter().collect();
            let only = format!("test/only-{name}");
            assert_eq!(
                counters,
                [(&only, &1), (&"test/work".to_owned(), &(1002 * n))],
                "trace {name}"
            );
            assert_eq!(
                trace.tree_signature(),
                format!("flow:{name}\n  stage-{name}\n    work0\n    work1\n"),
            );
        }
    }

    #[test]
    fn exports_are_valid_and_deterministic() {
        let session = Session::start(ObsConfig::full(), "ex");
        {
            let _s = span("stage \"quoted\"\n");
            with_metrics(|m| {
                m.add("cache/tile/hits", 3);
                m.add("cache/tile/misses", 1);
                m.add("place/anneal_proposals", 10);
                m.add("place/anneal_accepts", 4);
                m.set("sta/cts_levels", 3.0);
                m.push("route/overflow", 12.0);
                m.push("route/overflow", 0.5);
            });
        }
        let trace = session.finish().expect("on");
        let chrome = trace.chrome_trace_json();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\\\"quoted\\\"\\n"), "escaped: {chrome}");
        let metrics = trace.metrics_json();
        assert!(
            metrics.contains("\"cache/tile/hit_rate\": 0.75"),
            "{metrics}"
        );
        assert!(metrics.contains("\"place/anneal_accept_ratio\": 0.4"));
        assert!(metrics.contains("\"route/overflow\": [12, 0.5]"));
        assert!(metrics.contains("\"sta/cts_levels\": 3"));
        let display = format!("{trace}");
        assert!(display.contains("flow 'ex'"));
        assert!(display.contains("place/anneal_accepts"));
    }
}
