//! Observability determinism: the stitched span tree and every metric
//! value must be bit-identical for any worker count, matching the
//! engine-level determinism guarantees, and a job's trace must not
//! change when other jobs run beside it.

use macro3d::flows::{Flow, Macro3d};
use macro3d::{FlowConfig, FlowTrace, ObsConfig};
use macro3d_dse::{DseConfig, DseService, JobSpec};
use macro3d_soc::{generate_tile, TileConfig, TileNetlist};

fn tiny_tile() -> TileNetlist {
    let mut cfg = TileConfig::small_cache().with_scale(32.0);
    cfg.l3_kb = 64;
    cfg.l2_kb = 8;
    cfg.l1i_kb = 8;
    cfg.l1d_kb = 8;
    cfg.noc_width = 4;
    cfg.core_kgates = 26.0;
    cfg.l3_ctrl_kgates = 5.0;
    cfg.l2_ctrl_kgates = 4.0;
    cfg.l1i_ctrl_kgates = 3.0;
    cfg.l1d_ctrl_kgates = 3.0;
    cfg.noc_kgates = 2.0;
    generate_tile(&cfg)
}

fn traced_cfg(threads: usize) -> FlowConfig {
    let mut cfg = FlowConfig::builder()
        .sizing_rounds(2)
        .threads(threads)
        .obs(ObsConfig::full())
        .build()
        .expect("valid config");
    cfg.route.iterations = 2;
    cfg
}

#[test]
fn full_trace_is_identical_across_thread_counts() {
    let tile = tiny_tile();

    // Warm-up pass: the build cache is shared by the process, so without it
    // the first traced run would record cache misses and the second
    // hits, which is a (correct) run-order difference, not a
    // thread-count difference.
    Macro3d.run(&tile, &traced_cfg(1));

    let t1 = Macro3d
        .run(&tile, &traced_cfg(1))
        .obs
        .expect("trace at 1 thread");
    let t8 = Macro3d
        .run(&tile, &traced_cfg(8))
        .obs
        .expect("trace at 8 threads");

    assert_eq!(
        t1.tree_signature(),
        t8.tree_signature(),
        "span tree differs between 1 and 8 threads"
    );
    assert_eq!(
        t1.metrics_json(),
        t8.metrics_json(),
        "metric values differ between 1 and 8 threads"
    );

    // the trace carries the instrumented engines end to end (anneal
    // counters live inside the cached floorplan builder and are only
    // recorded on a cold cache, so they are asserted by `obs_smoke`,
    // not here)
    assert!(t1.stage_names().len() >= 6, "{:?}", t1.stage_names());
    let m = &t1.metrics;
    for counter in [
        "place/fm_passes",
        "route/iterations",
        "extract/nets",
        "sta/arcs_evaluated",
    ] {
        assert!(m.counters.contains_key(counter), "{counter} missing");
    }
    assert!(m.series.contains_key("route/overflow"));
    assert!(m.counters.keys().any(|k| k.starts_with("cache/")));
    let derived = t1.metrics_json();
    assert!(derived.contains("hit_rate"));
}

/// A mini-tile job fast enough for a debug-mode test.
fn mini_spec(flow: &str, obs: ObsConfig, tweak: impl FnOnce(&mut FlowConfig)) -> JobSpec {
    let mut spec = JobSpec::new(flow, TileConfig::mini());
    spec.config.sizing_rounds = 1;
    spec.config.route.iterations = 1;
    spec.config.obs = obs;
    tweak(&mut spec.config);
    spec
}

/// A traced job's span tree and counters are those of its run alone,
/// however many traced and untraced jobs a `DseService` runs beside
/// it, at 1 and at 8 workers.
#[test]
fn traced_job_is_identical_alone_and_beside_neighbours() {
    let targets = [
        mini_spec("Macro-3D", ObsConfig::summary(), |_| {}),
        mini_spec("Macro-3D", ObsConfig::full(), |_| {}),
    ];
    let neighbours = [
        mini_spec("2D", ObsConfig::off(), |_| {}),
        mini_spec("Macro-3D", ObsConfig::off(), |c| c.sizing_rounds = 0),
        mini_spec("Macro-3D", ObsConfig::summary(), |c| c.route.iterations = 2),
        mini_spec("2D", ObsConfig::full(), |c| c.sizing_rounds = 2),
        mini_spec("Macro-3D", ObsConfig::off(), |c| c.macro_metals = 6),
        mini_spec("2D", ObsConfig::summary(), |c| c.route.iterations = 2),
    ];
    // Warm the shared build cache with every spec, so `cache/*` and the
    // macro-anneal counters (the anneal runs inside a cached builder)
    // do not depend on which job filled it.
    let tile = generate_tile(&TileConfig::mini());
    for spec in targets.iter().chain(&neighbours) {
        let flow = macro3d_dse::flow_by_name(&spec.flow).expect("known flow");
        flow.run(&tile, &spec.config);
    }
    let alone: Vec<FlowTrace> = targets
        .iter()
        .map(|spec| Macro3d.run(&tile, &spec.config).obs.expect("traced"))
        .collect();

    for workers in [1, 8] {
        let service = DseService::start(DseConfig {
            workers,
            queue_capacity: 64,
            // stage reuse would let the second target re-enter after
            // the first one's stages (obs keys no stage)
            stage_reuse: false,
            ..DseConfig::default()
        })
        .expect("service starts");
        let client = service.client();
        let (head, tail) = neighbours.split_at(3);
        let mut ids = Vec::new();
        for spec in head.iter().chain(&targets).chain(tail) {
            ids.push(client.submit(spec.clone()).expect("submit"));
        }
        let results: Vec<_> = ids
            .into_iter()
            .map(|id| client.wait(id).expect("job succeeds"))
            .collect();
        service.shutdown();

        for (i, alone) in alone.iter().enumerate() {
            let beside = results[head.len() + i].obs.as_ref().expect("traced");
            let level = targets[i].config.obs.level;
            assert_eq!(
                beside.tree_signature(),
                alone.tree_signature(),
                "span tree at {level:?}, workers={workers}"
            );
            assert_eq!(
                beside.metrics.counters, alone.metrics.counters,
                "counters at {level:?}, workers={workers}"
            );
            assert_eq!(
                beside.metrics_json(),
                alone.metrics_json(),
                "metrics at {level:?}, workers={workers}"
            );
        }
    }
    assert_eq!(alone[0].metrics.counters["route/iterations"], 1);
}
