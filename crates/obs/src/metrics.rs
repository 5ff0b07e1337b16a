//! Per-run metrics registry: counters, gauges, histograms, series.
//!
//! Every [`crate::Session`] owns a fresh [`Registry`], reached from
//! the run's threads through [`crate::with_metrics`]. Recording takes
//! the registry's lock, so it is safe from parallel workers. All
//! exported values are integers or deterministic functions of them,
//! so snapshots are bit-identical across thread counts as long as
//! recording sites fire a thread-count-independent set of events
//! (counters and histograms are commutative; gauges and series must
//! only be written from serial sections).

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Summary of a `u64` histogram: count/sum/min/max.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time view of a run's [`Registry`], with deterministic
/// (`BTreeMap`) iteration order for exporters. Lists exactly the
/// instruments the run touched.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Series samples by name.
    pub series: BTreeMap<String, Vec<f64>>,
}

/// One run's metrics. Instruments are created by their first event.
#[derive(Default)]
pub struct Registry(Mutex<MetricsSnapshot>);

/// Applies `f` to the instrument called `name`, creating it first
/// (allocating its name only then).
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => {
            let mut v = V::default();
            f(&mut v);
            map.insert(name.to_owned(), v);
        }
    }
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsSnapshot> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `n` to the counter `name`. Safe from any thread
    /// (commutative).
    pub fn add(&self, name: &str, n: u64) {
        update(&mut self.lock().counters, name, |c| *c += n);
    }

    /// Sets the last-write-wins gauge `name`. Set only from serial
    /// sections to keep snapshots deterministic.
    pub fn set(&self, name: &str, v: f64) {
        update(&mut self.lock().gauges, name, |g| *g = v);
    }

    /// Records one observation in the histogram `name`. Safe from any
    /// thread (every component is commutative).
    pub fn record(&self, name: &str, v: u64) {
        update(&mut self.lock().histograms, name, |h| {
            h.min = if h.count == 0 { v } else { h.min.min(v) };
            h.max = h.max.max(v);
            h.count += 1;
            h.sum += v;
        });
    }

    /// Appends one sample to the series `name` (e.g. router overflow
    /// per rip-up round). Push only from serial sections — order
    /// would otherwise depend on scheduling.
    pub fn push(&self, name: &str, v: f64) {
        update(&mut self.lock().series, name, |s| s.push(v));
    }

    /// Copies out every instrument's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().clone()
    }
}

/// A counter site suitable for a file-level `static`. Off the run's
/// recorder, [`SiteCounter::add`] is one thread-local load and a
/// branch.
///
/// ```
/// static NETS: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("extract/nets");
/// NETS.add(1);
/// ```
pub struct SiteCounter(&'static str);

impl SiteCounter {
    /// Declares a counter site named `name`.
    pub const fn new(name: &'static str) -> Self {
        SiteCounter(name)
    }

    /// Adds `n` if the thread's run records at least
    /// [`crate::ObsLevel::Summary`].
    #[inline]
    pub fn add(&self, n: u64) {
        crate::with_metrics(|m| m.add(self.0, n));
    }

    /// Adds one (level-gated like [`SiteCounter::add`]).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A histogram site suitable for a file-level `static`; the histogram
/// analogue of [`SiteCounter`].
pub struct SiteHistogram(&'static str);

impl SiteHistogram {
    /// Declares a histogram site named `name`.
    pub const fn new(name: &'static str) -> Self {
        SiteHistogram(name)
    }

    /// Records `v` if the thread's run records at least
    /// [`crate::ObsLevel::Summary`].
    #[inline]
    pub fn record(&self, v: u64) {
        crate::with_metrics(|m| m.record(self.0, v));
    }
}
