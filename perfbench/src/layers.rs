//! Per-layer measurements for the traced run.
//!
//! Every stage is timed from outside, by calling the layer's public
//! functions on the boundary snapshots a cold `Flow::try_run_reusing`
//! left in a `StageCache`, so each replay does the work the flow
//! itself did. A replay whose result differs from the flow's own
//! snapshot fails the run: its time would not describe the flow.
//! Work counts come from the obs registry at summary level, one call
//! at a time, with nothing else running in the process.

use crate::stats::{median, Metrics};
use crate::trace::Recorder;
use macro3d::flow::{extract_all, macro_obstacles, place_pipeline, route_pins, sta_constraints};
use macro3d::flows::{Flow, Flow2d, Macro3d};
use macro3d::stage::{ExtractSnap, FloorplanSnap, PlaceSnap, RouteSnap};
use macro3d::{FlowBudget, FlowConfig, StageCache, StageReuse, StageTimer, STANDARD_SITES};
use macro3d_dse::JobSpec;
use macro3d_obs::{ObsConfig, Session};
use macro3d_par::BudgetScope;
use macro3d_route::{RouteRequest, RoutedDesign, Router};
use macro3d_soc::{generate_tile, TileNetlist};
use macro3d_sta::{clock_arrivals, StaInput, StaSession};
use macro3d_tech::Corner;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed samples per replay; the median is reported.
const SAMPLES: usize = 5;
/// Plain/armed route replay pairs per flow for the budget tax.
const TAX_PAIRS: usize = 40;

/// Changes one knob of a config.
type Perturb = fn(&mut FlowConfig);

/// Obs counters summed over every replayed flow.
#[derive(Default)]
struct Counters(BTreeMap<String, u64>);

impl Counters {
    fn add_session<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let session = Session::start(ObsConfig::summary(), "perfbench");
        let out = f();
        if let Some(trace) = session.finish() {
            for (k, v) in trace.metrics.counters {
                *self.0.entry(k).or_insert(0) += v;
            }
        }
        out
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }
}

struct Snaps {
    fp: Arc<FloorplanSnap>,
    place: Arc<PlaceSnap>,
    route: Arc<RouteSnap>,
    extract: Arc<ExtractSnap>,
}

/// `cfg` with every thread-count knob set to `threads`.
pub fn with_threads(cfg: &FlowConfig, threads: usize) -> FlowConfig {
    let mut c = cfg.clone();
    c.parallelism.threads = threads;
    c.route.parallelism.threads = threads;
    c.place.parallelism.threads = threads;
    c
}

/// One timed `try_run_reusing` on `cache`, from a cold build cache.
/// Returns the wall-clock and the re-entry depth.
fn timed_flow(
    rec: &Recorder,
    flow: &dyn Flow,
    spec: &JobSpec,
    tile: &TileNetlist,
    cfg: &FlowConfig,
    cache: &mut StageCache,
) -> Result<(f64, usize), String> {
    macro3d::build_cache::global().clear();
    let mut reuse = StageReuse::begin(cache, &spec.flow, &spec.tile, cfg);
    let t = Instant::now();
    let out = rec
        .span("core", "try_run_reusing", || {
            flow.try_run_reusing(tile, cfg, reuse.as_mut())
        })
        .map_err(|e| format!("{}: {e}", spec.flow))?;
    Ok((t.elapsed().as_secs_f64(), out.reuse_depth))
}

fn time_n<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("n >= 1"))
}

/// The route stage as the flow runs it: obstacles, pins, session
/// build and the negotiated solve.
fn route_replay(snap: &PlaceSnap, cfg: &FlowConfig, projected: bool) -> RoutedDesign {
    let layers = snap.stack.num_layers();
    let obstacles = macro_obstacles(&snap.design, &snap.fp, cfg.logic_metals, layers, projected);
    let nets = route_pins(
        &snap.design,
        &snap.placement,
        &snap.ports,
        cfg.logic_metals,
        layers,
        projected,
    );
    let mut router = Router::new(
        &RouteRequest {
            die: snap.fp.die(),
            stack: &snap.stack,
            obstacles: &obstacles,
            nets: &nets,
            num_nets: snap.design.num_nets(),
        },
        &cfg.route,
    );
    router.route()
}

fn same_route(a: &RoutedDesign, b: &RoutedDesign) -> bool {
    a.total_wirelength_um.to_bits() == b.total_wirelength_um.to_bits()
        && a.f2f_bumps == b.f2f_bumps
        && a.overflow.to_bits() == b.overflow.to_bits()
}

/// Measures every layer on the 2D and Macro-3D inputs of `specs`
/// (one spec per flow, taken from the workload) and appends the
/// per-layer metrics. Returns the fidelity failures; an empty list
/// means every replay reproduced the flow's own snapshot.
pub fn measure(
    rec: &Recorder,
    specs: &[(&'static str, JobSpec)],
    cpus: usize,
    out: &mut Metrics,
) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let mut counters = Counters::default();
    let mut tax_pct = Vec::new();
    let mut gen_times = Vec::new();
    for (tag, spec) in specs {
        let flow: &dyn Flow = match spec.flow.as_str() {
            "2D" => &Flow2d,
            "Macro-3D" => &Macro3d,
            other => return Err(format!("no layer replay for flow '{other}'")),
        };
        let projected = spec.flow == "Macro-3D";
        let cfg = &spec.config;

        let (gen_s, tile) = time_n(SAMPLES, || {
            rec.span("soc", "generate_tile", || generate_tile(&spec.tile))
        });
        gen_times.push(gen_s);

        // core: cold runs, then re-entry at depth 1, 2 and 4 on a cache
        // primed by a run that differs only in one knob of that stage
        let mut cold = Vec::new();
        let mut cache = StageCache::new();
        for _ in 0..SAMPLES {
            cache = StageCache::new();
            let (t, depth) = timed_flow(rec, flow, spec, &tile, cfg, &mut cache)?;
            if depth != 0 {
                return Err(format!("{}: cold run re-entered at {depth}", spec.flow));
            }
            cold.push(t);
        }
        let variants: [(usize, Perturb); 3] = [
            (1, |c| c.place.fm_passes += 1),
            (2, |c| c.route.iterations += 1),
            (4, |c| c.sizing_rounds += 1),
        ];
        let mut reentry = BTreeMap::new();
        for (want, perturb) in variants {
            let mut primer = cfg.clone();
            perturb(&mut primer);
            let mut times = Vec::new();
            for _ in 0..SAMPLES {
                let mut primed = StageCache::new();
                timed_flow(rec, flow, spec, &tile, &primer, &mut primed)?;
                let (t, depth) = timed_flow(rec, flow, spec, &tile, cfg, &mut primed)?;
                if depth != want {
                    return Err(format!(
                        "{}: expected re-entry at depth {want}, got {depth}",
                        spec.flow
                    ));
                }
                times.push(t);
            }
            reentry.insert(want, median(&times));
        }
        let t0 = median(&cold);
        out.push(format!("core.flow.{tag}_s"), t0, "s");
        out.push(
            format!("core.stage.{tag}.floorplan_s"),
            t0 - reentry[&1],
            "s",
        );
        out.push(
            format!("core.stage.{tag}.place_s"),
            reentry[&1] - reentry[&2],
            "s",
        );
        out.push(
            format!("core.stage.{tag}.route_extract_s"),
            reentry[&2] - reentry[&4],
            "s",
        );
        out.push(format!("core.stage.{tag}.sta_s"), reentry[&4], "s");

        // the flow's own floorplan and sizing counters, from a cold
        // build cache so the macro anneal runs
        macro3d::build_cache::global().clear();
        let mut traced = cfg.clone();
        traced.obs = ObsConfig::summary();
        let outcome = flow
            .try_run(&tile, &traced)
            .map_err(|e| format!("{}: {e}", spec.flow))?;
        if let Some(trace) = outcome.obs {
            for (k, v) in trace.metrics.counters {
                if k.starts_with("place/anneal")
                    || k.starts_with("place/hpwl_cache")
                    || k == "sta/incremental_updates"
                {
                    *counters.0.entry(k).or_insert(0) += v;
                }
            }
        }

        // the boundary snapshots the last cold run stored, read back
        // through a run whose keys match every cached stage
        let snaps = {
            let reuse = StageReuse::begin(&mut cache, &spec.flow, &spec.tile, cfg)
                .ok_or("stage reuse is off for the job config")?;
            match (
                reuse.floorplan_snap(),
                reuse.place_snap(),
                reuse.route_snap(),
                reuse.extract_snap(),
            ) {
                (Some(fp), Some(place), Some(route), Some(extract)) => Snaps {
                    fp,
                    place,
                    route,
                    extract,
                },
                _ => return Err(format!("{}: cold run left no snapshots", spec.flow)),
            }
        };
        let constraints = sta_constraints(&tile);

        // place: the whole placement pipeline from the floorplan snapshot
        let place_once = |threads: usize| {
            let c = with_threads(cfg, threads);
            let mut design = tile.design.clone();
            let mut timer = StageTimer::new();
            let (placement, _tree) = rec.span("place", "place_pipeline", || {
                place_pipeline(
                    &mut design,
                    &snaps.fp.fp,
                    &snaps.fp.ports,
                    &constraints,
                    &c,
                    &mut timer,
                )
            });
            placement.pos == snaps.place.placement.pos
                && placement.die_of == snaps.place.placement.die_of
                && design.num_insts() == snaps.place.design.num_insts()
        };
        let (place_tn, ok_tn) = time_n(SAMPLES, || place_once(cpus));
        let (place_t1, ok_t1) = time_n(SAMPLES, || place_once(1));
        let place_ok = ok_tn && ok_t1 && counters.add_session(|| place_once(1));
        if place_ok {
            out.push(format!("place.{tag}.tn_s"), place_tn, "s");
            out.push(format!("place.{tag}.t1_s"), place_t1, "s");
        } else {
            failures.push(format!(
                "{}: place replay differs from PlaceSnap",
                spec.flow
            ));
        }

        // route: obstacles, pins, Router::new and route from the place
        // snapshot
        let route_once = |threads: usize| {
            let c = with_threads(cfg, threads);
            let routed = rec.span("route", "router", || {
                route_replay(&snaps.place, &c, projected)
            });
            same_route(&routed, &snaps.route.routed)
        };
        let (route_tn, ok_tn) = time_n(SAMPLES, || route_once(cpus));
        let (route_t1, ok_t1) = time_n(SAMPLES, || route_once(1));
        let route_ok = ok_tn && ok_t1 && counters.add_session(|| route_once(1));
        if route_ok {
            out.push(format!("route.{tag}.tn_s"), route_tn, "s");
            out.push(format!("route.{tag}.t1_s"), route_t1, "s");
        } else {
            failures.push(format!(
                "{}: route replay differs from RouteSnap",
                spec.flow
            ));
        }

        // budget-checkpoint tax: the same serial replay inside an armed
        // scope whose deadline and caps never fire, paired with a plain
        // replay and alternating which runs first
        let armed = STANDARD_SITES.iter().fold(
            FlowBudget::unlimited().with_wall_clock(Duration::from_secs(86_400)),
            |b, site| b.with_cap(site, u64::MAX),
        );
        let c1 = with_threads(cfg, 1);
        let mut tax_equal = true;
        for i in 0..TAX_PAIRS {
            let mut plain = 0.0;
            let mut scoped = 0.0;
            for arm in [i % 2 == 0, i % 2 == 1] {
                let t = Instant::now();
                let routed = if arm {
                    let scope = BudgetScope::begin(&armed, None);
                    let r = route_replay(&snaps.place, &c1, projected);
                    // the report may hold the router's residual-overflow
                    // note; an unchanged route shows no cap or deadline
                    // fired
                    let _ = scope.finish();
                    r
                } else {
                    route_replay(&snaps.place, &c1, projected)
                };
                let dt = t.elapsed().as_secs_f64();
                tax_equal &= same_route(&routed, &snaps.route.routed);
                if arm {
                    scoped = dt;
                } else {
                    plain = dt;
                }
            }
            tax_pct.push(100.0 * (scoped / plain - 1.0));
        }
        if !tax_equal {
            failures.push(format!("{}: budgeted route replay differs", spec.flow));
        }

        // extract: sign-off parasitics and clock arrivals from the route
        // snapshot
        let par = cfg.parallelism;
        let extract_once = || {
            rec.span("extract", "extract_all+clock_arrivals", || {
                let parasitics = extract_all(
                    &snaps.place.design,
                    &snaps.place.placement,
                    &snaps.place.ports,
                    &snaps.place.stack,
                    &snaps.route.routed,
                    &constraints,
                    Corner::signoff(),
                    &par,
                );
                let clock = clock_arrivals(
                    &snaps.place.design,
                    &snaps.place.tree,
                    &parasitics,
                    Corner::signoff(),
                );
                parasitics == snaps.extract.parasitics
                    && clock.arrival_ps == snaps.extract.clock.arrival_ps
            })
        };
        let (extract_s, ok) = time_n(SAMPLES, extract_once);
        if ok && counters.add_session(extract_once) {
            out.push(format!("extract.{tag}_s"), extract_s, "s");
        } else {
            failures.push(format!(
                "{}: extract replay differs from ExtractSnap",
                spec.flow
            ));
        }

        // sta: session build plus one full analysis on the extract
        // snapshot
        let sta_once = || {
            rec.span("sta", "StaSession::new+analyze", || {
                let input = StaInput {
                    design: &snaps.place.design,
                    parasitics: &snaps.extract.parasitics,
                    routed: Some(&snaps.route.routed),
                    constraints: &constraints,
                    clock: &snaps.extract.clock,
                    corner: Corner::signoff(),
                };
                let mut session = StaSession::new(&input);
                session.analyze(&input, &par).min_period_ps
            })
        };
        let (sta_s, period) = time_n(SAMPLES, sta_once);
        let counted = counters.add_session(sta_once);
        if period.to_bits() != counted.to_bits() || !period.is_finite() {
            failures.push(format!("{}: sta replay is not repeatable", spec.flow));
        }
        out.push(format!("sta.{tag}.analyze_s"), sta_s, "s");
    }

    out.push("soc.generate_tile_s", median(&gen_times), "s");
    out.push("host_cpus", cpus as f64, "count");
    out.push("place.fm_passes", counters.get("place/fm_passes"), "count");
    let proposals = counters.get("place/anneal_proposals");
    out.push(
        "place.anneal_accept_ratio",
        counters.get("place/anneal_accepts") / proposals,
        "ratio",
    );
    let hits = counters.get("place/hpwl_cache_hits");
    out.push(
        "place.hpwl_cache_hit_ratio",
        hits / (hits + counters.get("place/hpwl_cache_inits")),
        "ratio",
    );
    out.push("route.budget_tax_pct", median(&tax_pct), "%");
    out.push("route.budget_tax_pairs", tax_pct.len() as f64, "count");
    out.push(
        "route.budget_tax_iqr_pct",
        crate::stats::percentile(&tax_pct, 75.0) - crate::stats::percentile(&tax_pct, 25.0),
        "%",
    );
    for (metric, counter) in [
        ("route.iterations", "route/iterations"),
        ("route.ripup_rounds", "route/ripup_rounds"),
        ("route.nets_rerouted", "route/nets_rerouted"),
        ("route.search_nodes", "route/search_nodes"),
        ("extract.nets", "extract/nets"),
        ("sta.propagations", "sta/propagations"),
        ("sta.arcs_evaluated", "sta/arcs_evaluated"),
        ("sta.incremental_updates", "sta/incremental_updates"),
    ] {
        out.push(metric, counters.get(counter), "count");
    }
    let clean = counters.get("route/pattern_clean");
    out.push(
        "route.pattern_clean_ratio",
        clean / (clean + counters.get("route/pattern_dirty")),
        "ratio",
    );
    Ok(failures)
}
