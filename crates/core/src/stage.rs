//! Stage-graph reuse: prefix-keyed incremental flow execution.
//!
//! Every flow decomposes into the same five-stage graph:
//!
//! ```text
//! floorplan → place → route → extract → sta
//! ```
//!
//! Each stage **declares** which `TileConfig` / [`FlowConfig`] fields
//! feed its content key (the tables in [`stage_keys`]; the FNV-1a
//! discipline is shared with `BuildCache` and the DSE `ResultCache`).
//! Keys are *chained*: stage *i*'s key hashes stage *i−1*'s key
//! together with stage *i*'s own payload, so a key match at stage *i*
//! proves the whole prefix `0..=i` ran under identical inputs.
//!
//! A worker holds one [`StageCache`] — the artifacts the previous
//! flow run left at each stage boundary, tagged with that run's
//! chained keys. The next run compares its own keys against the
//! cache ([`StageReuse::start_stage`]), deep-clones the artifacts of
//! the longest matching prefix, and re-enters the flow at the first
//! stage whose key changed. Because reuse restores a *clone* of a
//! boundary snapshot that was itself taken at the same point of a
//! cold run, a warm run is bit-identical to a cold one by
//! construction — the determinism contract the DSE sweep tests and
//! the `sweep-reuse` CI gate hold.
//!
//! ## Memory
//!
//! The cache holds only snapshots that can still serve a run, each
//! stored once:
//!
//! - [`StageReuse::begin`] drops every slot at or past the matched
//!   depth before the run allocates anything. Keys are chained, so
//!   those slots can never serve this run, and it would overwrite
//!   them anyway.
//! - The route slot holds the assembled [`RoutedDesign`] only.
//! - The extract slot is written once, after the STA stage has built
//!   its session and before any analysis.
//! - A run writes a slot only for work it did: a stage restored from
//!   the cache stores nothing.
//!
//! ## Reuse / invalidation tables
//!
//! For the fine-grained flows (`2D`, `Macro-3D`), the per-stage key
//! payloads are:
//!
//! | stage     | key fields |
//! |-----------|------------|
//! | floorplan | flow name, full `TileConfig`, crate version, budget, fault plan, `logic_metals`, `macro_metals`¹, `util_logic`, `util_macro`, `halo_um` |
//! | place     | `place` (all fields + chunk size), `cts`, `repeater_max_len_um` |
//! | route     | `route` (all fields + chunk size) |
//! | extract   | — (inputs fully determined by the prefix) |
//! | sta       | `sizing_rounds` |
//!
//! ¹ `macro_metals` keys the 2D floorplan stage too only through the
//! base payload ordering below — the 2D flow never reads it, but the
//! S2D/C2D/Macro-3D flows that share a worker do.
//!
//! The pseudo-2D baselines (`MoL S2D`, `BF S2D`, `C2D`) consume the
//! route/STA knobs *inside* their stage-1 pseudo-2D implementation,
//! so their "place" super-stage keys additionally include `route`,
//! `sizing_rounds` and `partial_blockage_period_um` —
//! honest but coarse: for those flows, any late-stage knob change
//! re-enters at placement, and stage reuse degenerates to what the
//! spec-level `ResultCache` already provides.
//!
//! **Excluded everywhere:** `parallelism.threads` (all three copies)
//! and `obs`. Results are thread-count-invariant per the `macro3d-par`
//! contract, so a sweep over `threads` reuses the full prefix. The
//! route and place `chunk_size` copies *are* keyed because the
//! router's batched negotiation commits per chunk ("chunk size changes
//! routing results; the thread count never does"); the top-level one
//! is not, because extract and STA fan out through order-preserving
//! maps.
//!
//! The tables are checked, not trusted: a unit test perturbs every
//! leaf of the serialized `FlowConfig` and `TileConfig` and asserts
//! the change moves the key of the first stage that reads it.
//!
//! **Safety guard:** stage caching is disabled outright
//! ([`StageReuse::begin`] returns `None`) when the config carries a
//! stage budget or a fault plan — wall-clock deadlines fire
//! nondeterministically and degradation notes would not replay on a
//! warm run. Both still feed every stage key (via the base payload),
//! so a budget/fault sweep point can never hit a clean run's
//! artifacts by accident.

use crate::flow::FlowConfig;
use macro3d_extract::NetParasitics;
use macro3d_netlist::Design;
use macro3d_place::{Floorplan, GlobalPlaceConfig, Placement, PortPlan};
use macro3d_route::{RouteConfig, RoutedDesign};
use macro3d_soc::TileConfig;
use macro3d_sta::{ClockArrivals, ClockTree, StaSession};
use macro3d_tech::stack::MetalStack;
use std::sync::Arc;

/// Number of stages in the flow graph.
pub const NUM_STAGES: usize = 5;

/// One stage of the flow graph, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Floorplan + macro packing + port assignment + stack build.
    Floorplan = 0,
    /// Global place, repeaters, CTS, legalization, detailed place.
    /// For the pseudo-2D baselines this is the whole stage-1 +
    /// partition super-stage.
    Place = 1,
    /// Global routing over the final stack.
    Route = 2,
    /// Parasitic extraction + clock arrivals at the sign-off corner.
    Extract = 3,
    /// STA + sizing + hold fixing + power. Never cached (it is the
    /// terminal stage; identical specs are the `ResultCache`'s job).
    Sta = 4,
}

impl Stage {
    /// Stable stage label (telemetry, docs).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Floorplan => "floorplan",
            Stage::Place => "place",
            Stage::Route => "route",
            Stage::Extract => "extract",
            Stage::Sta => "sta",
        }
    }

    /// All stages in execution order.
    pub fn all() -> [Stage; NUM_STAGES] {
        [
            Stage::Floorplan,
            Stage::Place,
            Stage::Route,
            Stage::Extract,
            Stage::Sta,
        ]
    }
}

/// The chained per-stage content keys of one `(flow, tile, config)`
/// triple. `prefix[i]` covers stages `0..=i`: equal `prefix[i]` ⇒
/// identical inputs for the whole prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageKeys {
    /// Chained FNV-1a keys, one per [`Stage`].
    pub prefix: [u64; NUM_STAGES],
}

impl StageKeys {
    /// The key covering stages `0..=stage`.
    pub fn key(&self, stage: Stage) -> u64 {
        self.prefix[stage as usize]
    }
}

fn chain(prev: u64, payload: &str) -> u64 {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&prev.to_le_bytes());
    buf.extend_from_slice(payload.as_bytes());
    crate::jsonio::fnv1a_64(&buf)
}

/// `chunk_size` only — `threads` is deliberately excluded from every
/// stage key (see the module docs).
fn par_payload(chunk_size: usize) -> String {
    format!("chunk={chunk_size}")
}

fn route_payload(r: &RouteConfig) -> String {
    format!(
        "gcell={};util={};iters={};via={};deg={};f2f={:?};{}",
        r.gcell_um,
        r.utilization,
        r.iterations,
        r.via_cost,
        r.max_net_degree,
        r.f2f_pitch_um,
        par_payload(r.parallelism.chunk_size)
    )
}

fn place_payload(p: &GlobalPlaceConfig) -> String {
    format!(
        "min={};fm={};deg={};backend={:?};ana={},{},{};{}",
        p.min_cells,
        p.fm_passes,
        p.max_net_degree,
        p.backend,
        p.analytical.max_iters,
        p.analytical.target_overflow,
        p.analytical.lambda_growth,
        par_payload(p.parallelism.chunk_size)
    )
}

/// Computes the chained stage keys for one job. The per-stage field
/// tables live here — this is the single place a stage declares what
/// invalidates it.
pub fn stage_keys(flow: &str, tile: &TileConfig, cfg: &FlowConfig) -> StageKeys {
    // Base payload (seeds the floorplan key): anything that
    // invalidates *every* stage — the flow identity, the tile, the
    // crate version, and the budget/fault plan (kept in the key even
    // though caching is disabled when they are active, so their sweep
    // points can never alias a clean prefix).
    let base = format!(
        "{}\u{1f}{}\u{1f}{}\u{1f}budget={}\u{1f}faults={}",
        env!("CARGO_PKG_VERSION"),
        flow,
        crate::jsonio::tile_config_to_json(tile).emit(),
        crate::jsonio::flow_config_to_json(cfg)
            .get("budget")
            .map_or_else(String::new, macro3d_json::Json::emit),
        crate::jsonio::flow_config_to_json(cfg)
            .get("fault_plan")
            .map_or_else(String::new, macro3d_json::Json::emit),
    );
    let pseudo2d = matches!(flow, "MoL S2D" | "BF S2D" | "C2D");

    let floorplan_payload = format!(
        "lm={};mm={};ul={};um={};halo={}",
        cfg.logic_metals, cfg.macro_metals, cfg.util_logic, cfg.util_macro, cfg.halo_um
    );
    let mut place_stage = format!(
        "{};cts={},{};rep={}",
        place_payload(&cfg.place),
        cfg.cts.max_fanout,
        cfg.cts.repeater_spacing_um,
        cfg.repeater_max_len_um
    );
    if pseudo2d {
        // the pseudo-2D stage consumes these before the final P&R
        place_stage.push_str(&format!(
            ";s1route={};s1sr={};pbp={}",
            route_payload(&cfg.route),
            cfg.sizing_rounds,
            cfg.partial_blockage_period_um
        ));
    }

    let k0 = chain(crate::jsonio::fnv1a_64(base.as_bytes()), &floorplan_payload);
    let k1 = chain(k0, &place_stage);
    let k2 = chain(k1, &route_payload(&cfg.route));
    let k3 = chain(k2, "extract");
    let k4 = chain(k3, &format!("sr={}", cfg.sizing_rounds));
    StageKeys {
        prefix: [k0, k1, k2, k3, k4],
    }
}

/// Floorplan-boundary artifacts: everything `place_pipeline` needs
/// that is not re-derived from the tile. The design itself is *not*
/// stored — placement mutates it, so a warm run re-clones the
/// pristine `tile.design` exactly as a cold run does.
#[derive(Clone)]
pub struct FloorplanSnap {
    /// The floorplan (die, macro placements, blockages).
    pub fp: Floorplan,
    /// Port assignment.
    pub ports: PortPlan,
    /// The metal stack the flow routes over.
    pub stack: MetalStack,
}

/// Place-boundary artifacts: the design *after* repeater/CTS/buffer
/// insertion together with the legalized placement and clock tree,
/// plus the floorplan-boundary state (self-contained, so a place hit
/// never needs the floorplan slot).
#[derive(Clone)]
pub struct PlaceSnap {
    /// Design with repeaters and clock buffers inserted.
    pub design: Design,
    /// See [`FloorplanSnap::fp`].
    pub fp: Floorplan,
    /// See [`FloorplanSnap::ports`].
    pub ports: PortPlan,
    /// See [`FloorplanSnap::stack`].
    pub stack: MetalStack,
    /// Legalized placement.
    pub placement: Placement,
    /// Synthesized clock tree.
    pub tree: ClockTree,
}

/// Route-boundary artifacts: the assembled routing result, which is
/// all the downstream stages read. The negotiation session that
/// produced it is dropped at stage exit.
pub struct RouteSnap {
    /// The assembled routing result.
    pub routed: RoutedDesign,
}

/// Extract-boundary artifacts, stored once the STA stage has built
/// its session. `session` is the STA session snapshotted right after
/// graph build (before any analysis), so restoring it is
/// indistinguishable from building it fresh.
pub struct ExtractSnap {
    /// Sign-off-corner parasitics for every net.
    pub parasitics: Vec<NetParasitics>,
    /// Clock arrival times under the extracted tree.
    pub clock: ClockArrivals,
    /// Freshly-built timing session (graph only, no converged state).
    pub session: StaSession,
}

#[derive(Clone)]
enum Artifact {
    Floorplan(Arc<FloorplanSnap>),
    Place(Arc<PlaceSnap>),
    Route(Arc<RouteSnap>),
    Extract(Arc<ExtractSnap>),
}

/// One worker's stage-boundary artifact store: the last run's
/// snapshot per stage, tagged with the chained key it was produced
/// under. Purely in-memory and single-owner (each DSE worker owns
/// one); nothing here is ever persisted.
#[derive(Default)]
pub struct StageCache {
    slots: [Option<(u64, Artifact)>; NUM_STAGES],
}

impl StageCache {
    /// An empty cache.
    pub fn new() -> Self {
        StageCache::default()
    }

    /// Drops every stored artifact.
    pub fn clear(&mut self) {
        self.slots = Default::default();
    }
}

/// One run's view of a [`StageCache`]: the expected chained keys plus
/// the matched prefix depth. Created per job by [`StageReuse::begin`]
/// and threaded through the flow as `Option<&mut StageReuse>`.
pub struct StageReuse<'a> {
    cache: &'a mut StageCache,
    keys: StageKeys,
    start: usize,
}

impl<'a> StageReuse<'a> {
    /// Prepares reuse for one run, or `None` when stage caching is
    /// unsafe for this config (active budget or fault plan — see the
    /// module docs). Computes the matched prefix depth up front.
    pub fn begin(
        cache: &'a mut StageCache,
        flow: &str,
        tile: &TileConfig,
        cfg: &FlowConfig,
    ) -> Option<StageReuse<'a>> {
        if !cfg.budget.is_unlimited() || cfg.fault_plan.is_some() {
            return None;
        }
        let keys = stage_keys(flow, tile, cfg);
        // the longest prefix of slots whose stored chained keys match
        // this run's expected keys (the Sta slot is never stored)
        let mut start = 0;
        for (i, slot) in cache.slots.iter().enumerate().take(NUM_STAGES - 1) {
            match slot {
                Some((key, _)) if *key == keys.prefix[i] => start = i + 1,
                _ => break,
            }
        }
        // slots at or past the matched depth can never serve this run
        // (keys are chained) and it overwrites them anyway: free them
        // before the run allocates anything
        for slot in &mut cache.slots[start..] {
            *slot = None;
        }
        Some(StageReuse { cache, keys, start })
    }

    /// The first stage this run must execute — equivalently the
    /// number of stages whose artifacts can be reused (the run's
    /// *reuse depth*, `0..=4`).
    pub fn start_stage(&self) -> usize {
        self.start
    }

    /// This run's chained keys.
    pub fn keys(&self) -> &StageKeys {
        &self.keys
    }

    fn snap<T, F: Fn(&Artifact) -> Option<&Arc<T>>>(
        &self,
        stage: Stage,
        pick: F,
    ) -> Option<Arc<T>> {
        if self.start <= stage as usize {
            return None;
        }
        self.cache.slots[stage as usize]
            .as_ref()
            .and_then(|(_, a)| pick(a))
            .map(Arc::clone)
    }

    /// Floorplan-boundary snapshot, when the matched prefix covers it.
    pub fn floorplan_snap(&self) -> Option<Arc<FloorplanSnap>> {
        self.snap(Stage::Floorplan, |a| match a {
            Artifact::Floorplan(s) => Some(s),
            _ => None,
        })
    }

    /// Place-boundary snapshot, when the matched prefix covers it.
    pub fn place_snap(&self) -> Option<Arc<PlaceSnap>> {
        self.snap(Stage::Place, |a| match a {
            Artifact::Place(s) => Some(s),
            _ => None,
        })
    }

    /// Route-boundary snapshot, when the matched prefix covers it.
    pub fn route_snap(&self) -> Option<Arc<RouteSnap>> {
        self.snap(Stage::Route, |a| match a {
            Artifact::Route(s) => Some(s),
            _ => None,
        })
    }

    /// Extract-boundary snapshot, when the matched prefix covers it.
    pub fn extract_snap(&self) -> Option<Arc<ExtractSnap>> {
        self.snap(Stage::Extract, |a| match a {
            Artifact::Extract(s) => Some(s),
            _ => None,
        })
    }

    fn store(&mut self, stage: Stage, artifact: Artifact) {
        self.cache.slots[stage as usize] = Some((self.keys.prefix[stage as usize], artifact));
    }

    /// Stores the floorplan-boundary snapshot (call at stage exit).
    pub fn store_floorplan(&mut self, snap: FloorplanSnap) {
        self.store(Stage::Floorplan, Artifact::Floorplan(Arc::new(snap)));
    }

    /// Stores the place-boundary snapshot.
    pub fn store_place(&mut self, snap: PlaceSnap) {
        self.store(Stage::Place, Artifact::Place(Arc::new(snap)));
    }

    /// Stores the route-boundary snapshot.
    pub fn store_route(&mut self, routed: RoutedDesign) {
        self.store(
            Stage::Route,
            Artifact::Route(Arc::new(RouteSnap { routed })),
        );
    }

    /// Stores the extract-boundary snapshot. Call once the STA stage
    /// has built its session and before any analysis, so the slot is
    /// written once with everything a re-entry at STA needs.
    pub fn store_extract(&mut self, snap: ExtractSnap) {
        self.store(Stage::Extract, Artifact::Extract(Arc::new(snap)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{Flow, Macro3d};
    use macro3d_json::Json;
    use std::sync::OnceLock;

    fn keys(f: impl FnOnce(&mut FlowConfig)) -> StageKeys {
        let mut cfg = FlowConfig::default();
        f(&mut cfg);
        stage_keys("Macro-3D", &TileConfig::mini(), &cfg)
    }

    #[test]
    fn keys_chain_downstream() {
        let base = keys(|_| {});
        // a route-only knob: floorplan/place keys unchanged, route and
        // everything after invalidated
        let routed = keys(|c| c.route.iterations += 1);
        assert_eq!(base.key(Stage::Floorplan), routed.key(Stage::Floorplan));
        assert_eq!(base.key(Stage::Place), routed.key(Stage::Place));
        assert_ne!(base.key(Stage::Route), routed.key(Stage::Route));
        assert_ne!(base.key(Stage::Extract), routed.key(Stage::Extract));
        assert_ne!(base.key(Stage::Sta), routed.key(Stage::Sta));

        // an STA-only knob: only the terminal key moves
        let sized = keys(|c| c.sizing_rounds += 1);
        assert_eq!(base.key(Stage::Extract), sized.key(Stage::Extract));
        assert_ne!(base.key(Stage::Sta), sized.key(Stage::Sta));

        // a floorplan knob: everything moves
        let fp = keys(|c| c.util_logic += 0.01);
        for s in Stage::all() {
            assert_ne!(base.key(s), fp.key(s), "{}", s.name());
        }
    }

    #[test]
    fn threads_and_obs_never_key_stages() {
        let base = keys(|_| {});
        let threaded = keys(|c| {
            c.parallelism.threads = 8;
            c.route.parallelism.threads = 8;
            c.place.parallelism.threads = 8;
            c.obs = macro3d_obs::ObsConfig::summary();
        });
        assert_eq!(base, threaded, "thread/obs knobs must not invalidate");
        // …but chunk size does (router batching changes results)
        let chunked = keys(|c| c.route.parallelism.chunk_size += 1);
        assert_eq!(base.key(Stage::Place), chunked.key(Stage::Place));
        assert_ne!(base.key(Stage::Route), chunked.key(Stage::Route));
    }

    #[test]
    fn budget_and_fault_key_every_stage_and_disable_caching() {
        let base = keys(|_| {});
        let budgeted = keys(|c| {
            c.budget = macro3d_par::FlowBudget::unlimited()
                .with_wall_clock(std::time::Duration::from_secs(3600));
        });
        let faulted = keys(|c| {
            c.fault_plan = Some(macro3d_par::FaultPlan::new().with_fault(
                "sta/sizing_rounds",
                3,
                macro3d_par::FaultAction::Exhaust,
            ));
        });
        for s in Stage::all() {
            assert_ne!(base.key(s), budgeted.key(s), "budget keys {}", s.name());
            assert_ne!(base.key(s), faulted.key(s), "fault keys {}", s.name());
        }
        let mut cache = StageCache::new();
        let cfg = FlowConfig {
            budget: macro3d_par::FlowBudget::unlimited().with_cap("route/iterations", 1),
            ..FlowConfig::default()
        };
        assert!(
            StageReuse::begin(&mut cache, "Macro-3D", &TileConfig::mini(), &cfg).is_none(),
            "caching must be off under a budget"
        );
    }

    #[test]
    fn flows_and_tiles_never_share_prefixes() {
        let cfg = FlowConfig::default();
        let tile = TileConfig::mini();
        let a = stage_keys("Macro-3D", &tile, &cfg);
        let b = stage_keys("2D", &tile, &cfg);
        assert_ne!(a.key(Stage::Floorplan), b.key(Stage::Floorplan));
        let big = stage_keys("Macro-3D", &TileConfig::small_cache(), &cfg);
        assert_ne!(a.key(Stage::Floorplan), big.key(Stage::Floorplan));
    }

    #[test]
    fn pseudo2d_place_super_stage_keys_late_knobs() {
        let cfg = FlowConfig::default();
        let mut sized = cfg.clone();
        sized.sizing_rounds += 1;
        let tile = TileConfig::mini();
        // S2D: sizing_rounds feeds the stage-1 pseudo-2D run
        let a = stage_keys("MoL S2D", &tile, &cfg);
        let b = stage_keys("MoL S2D", &tile, &sized);
        assert_eq!(a.key(Stage::Floorplan), b.key(Stage::Floorplan));
        assert_ne!(a.key(Stage::Place), b.key(Stage::Place));
        // Macro-3D: it only feeds the terminal stage
        let c = stage_keys("Macro-3D", &tile, &cfg);
        let d = stage_keys("Macro-3D", &tile, &sized);
        assert_eq!(c.key(Stage::Extract), d.key(Stage::Extract));
    }

    #[test]
    fn matched_depth_follows_stored_slots() {
        let mut cache = StageCache::new();
        let cfg = FlowConfig::default();
        let tile = TileConfig::mini();
        {
            let r = StageReuse::begin(&mut cache, "Macro-3D", &tile, &cfg).unwrap();
            assert_eq!(r.start_stage(), 0, "cold cache");
        }
        {
            let mut r = StageReuse::begin(&mut cache, "Macro-3D", &tile, &cfg).unwrap();
            let lib = std::sync::Arc::new(macro3d_tech::libgen::n28_library(1.0));
            let die = macro3d_geom::Rect::from_um(0.0, 0.0, 10.0, 10.0);
            let design = Design::new("t", lib.clone());
            let fp = Floorplan::new(die, lib.row_height(), lib.site_width());
            let ports = PortPlan::assign(&design, die);
            let stack = macro3d_tech::stack::n28_stack(2, macro3d_tech::stack::DieRole::Logic);
            r.store_floorplan(FloorplanSnap { fp, ports, stack });
        }
        {
            let r = StageReuse::begin(&mut cache, "Macro-3D", &tile, &cfg).unwrap();
            assert_eq!(r.start_stage(), 1, "floorplan slot matches");
            assert!(r.floorplan_snap().is_some());
            assert!(r.place_snap().is_none());
        }
        // a floorplan knob invalidates the stored slot
        let mut moved = cfg.clone();
        moved.halo_um += 1.0;
        let r = StageReuse::begin(&mut cache, "Macro-3D", &tile, &moved).unwrap();
        assert_eq!(r.start_stage(), 0);
        assert!(r.floorplan_snap().is_none());
    }

    /// The four slots a cold Macro-3D mini run stores, shared by the
    /// tests below: each gets a cache holding `Arc` copies of them.
    fn cold_cache() -> StageCache {
        static COLD: OnceLock<StageCache> = OnceLock::new();
        let cold = COLD.get_or_init(|| {
            let mut cache = StageCache::new();
            run_mini(&mut cache, &FlowConfig::default());
            cache
        });
        StageCache {
            slots: cold.slots.clone(),
        }
    }

    /// Runs Macro-3D on the mini tile through `cache`; returns the
    /// re-entry depth.
    fn run_mini(cache: &mut StageCache, cfg: &FlowConfig) -> usize {
        let tile = TileConfig::mini();
        let netlist = crate::build_cache::cached_tile(&tile);
        let mut reuse = StageReuse::begin(cache, "Macro-3D", &tile, cfg);
        Macro3d
            .try_run_reusing(&netlist, cfg, reuse.as_mut())
            .unwrap()
            .reuse_depth
    }

    fn begin_with(cache: &mut StageCache, f: impl FnOnce(&mut FlowConfig)) -> usize {
        let mut cfg = FlowConfig::default();
        f(&mut cfg);
        StageReuse::begin(cache, "Macro-3D", &TileConfig::mini(), &cfg)
            .unwrap()
            .start_stage()
    }

    fn stored(cache: &StageCache) -> [bool; NUM_STAGES] {
        std::array::from_fn(|i| cache.slots[i].is_some())
    }

    fn extract_arc(cache: &StageCache) -> Arc<ExtractSnap> {
        match &cache.slots[Stage::Extract as usize] {
            Some((_, Artifact::Extract(snap))) => Arc::clone(snap),
            _ => panic!("no extract slot"),
        }
    }

    #[test]
    fn begin_drops_slots_at_or_past_the_matched_depth() {
        let mut cache = cold_cache();
        assert_eq!(stored(&cache), [true, true, true, true, false]);

        // a route knob: floorplan and place survive, route and extract go
        assert_eq!(begin_with(&mut cache, |c| c.route.iterations += 1), 2);
        assert_eq!(stored(&cache), [true, true, false, false, false]);

        // a floorplan knob: nothing survives
        let mut cache = cold_cache();
        assert_eq!(begin_with(&mut cache, |c| c.halo_um += 1.0), 0);
        assert_eq!(stored(&cache), [false; NUM_STAGES]);

        // a full key match keeps every slot (the replays read them)
        let mut cache = cold_cache();
        let before = extract_arc(&cache);
        assert_eq!(begin_with(&mut cache, |_| {}), 4);
        assert_eq!(stored(&cache), [true, true, true, true, false]);
        assert!(Arc::ptr_eq(&before, &extract_arc(&cache)));
    }

    #[test]
    fn route_snap_holds_only_the_routed_design() {
        let mut cache = cold_cache();
        let reuse = StageReuse::begin(
            &mut cache,
            "Macro-3D",
            &TileConfig::mini(),
            &FlowConfig::default(),
        )
        .unwrap();
        let snap = reuse.route_snap().unwrap();
        // exhaustive: a field added beside `routed` fails to compile
        let RouteSnap { routed } = &*snap;
        assert!(routed.total_wirelength_um > 0.0);
    }

    #[test]
    fn sta_reentry_leaves_the_extract_slot_alone() {
        let mut cache = cold_cache();
        let before = extract_arc(&cache);
        let mut sized = FlowConfig::default();
        sized.sizing_rounds += 1;
        assert_eq!(run_mini(&mut cache, &sized), 4);
        assert!(
            Arc::ptr_eq(&before, &extract_arc(&cache)),
            "a depth-4 re-entry must not rebuild the extract snapshot"
        );
    }

    /// Paths (`.`-joined object keys) of every non-object value in
    /// `json`, in emission order.
    fn leaves(json: &Json, prefix: &str, out: &mut Vec<String>) {
        match json {
            Json::Obj(members) => {
                for (k, v) in members {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    leaves(v, &path, out);
                }
            }
            _ => out.push(prefix.to_string()),
        }
    }

    /// `json` with the leaf at `path` replaced by a different value
    /// of a shape its decoder accepts.
    fn perturbed(json: &Json, path: &str) -> Json {
        let mut out = json.clone();
        let mut leaf = &mut out;
        for key in path.split('.') {
            let Json::Obj(members) = leaf else {
                unreachable!("leaf paths only cross objects")
            };
            leaf = &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        *leaf = match &*leaf {
            Json::Num(tok) => match tok.parse::<u64>() {
                Ok(n) => Json::from_u64(n + 1),
                Err(_) => Json::from_f64(tok.parse::<f64>().unwrap() + 0.5),
            },
            Json::Bool(b) => Json::Bool(!b),
            Json::Str(s) => Json::str(match s.as_str() {
                "bisection" => "analytical".to_string(),
                "off" => "summary".to_string(),
                other => format!("{other}~"),
            }),
            _ => match path {
                "route.f2f_pitch_um" => Json::from_f64(1.5),
                "budget.wall_clock_ns" => Json::from_u64(3_600_000_000_000),
                "budget.caps" => Json::Arr(vec![Json::Arr(vec![
                    Json::str("route/iterations"),
                    Json::from_u64(1),
                ])]),
                "fault_plan" => Json::Arr(vec![Json::Arr(vec![
                    Json::str("sta/sizing_rounds"),
                    Json::from_u64(3),
                    Json::str("exhaust"),
                ])]),
                other => panic!("no perturbation for leaf '{other}'"),
            },
        };
        out
    }

    /// The first stage that reads each `FlowConfig` leaf, or `None`
    /// for the exclusion list. A new field panics here until it is
    /// classified.
    fn first_reader(path: &str, pseudo2d: bool) -> Option<Stage> {
        // the pseudo-2D stage 1 runs inside the place super-stage and
        // consumes the route and sizing knobs there
        let late = |stage| Some(if pseudo2d { Stage::Place } else { stage });
        match path {
            // Exclusions. Results are invariant to the thread count
            // (all three copies), and obs only records.
            "parallelism.threads"
            | "route.parallelism.threads"
            | "place.parallelism.threads"
            | "obs" => None,
            // extract and STA fan out through order-preserving maps,
            // so their chunk size cannot change a result
            "parallelism.chunk_size" => None,
            // the fine-grained flows never read it
            "partial_blockage_period_um" if !pseudo2d => None,

            "logic_metals"
            | "macro_metals"
            | "util_logic"
            | "util_macro"
            | "halo_um"
            | "budget.wall_clock_ns"
            | "budget.caps"
            | "fault_plan" => Some(Stage::Floorplan),
            "repeater_max_len_um" | "partial_blockage_period_um" => Some(Stage::Place),
            p if p.starts_with("place.") || p.starts_with("cts.") => Some(Stage::Place),
            p if p.starts_with("route.") => late(Stage::Route),
            "sizing_rounds" => late(Stage::Sta),
            other => panic!("FlowConfig leaf '{other}' has no declared reader"),
        }
    }

    fn assert_first_moved(
        flow: &str,
        leaf: &str,
        base: &StageKeys,
        moved: &StageKeys,
        first: Option<Stage>,
    ) {
        for s in Stage::all() {
            if first.is_some_and(|f| s >= f) {
                assert_ne!(
                    base.key(s),
                    moved.key(s),
                    "{flow}: '{leaf}' must key {}",
                    s.name()
                );
            } else {
                assert_eq!(
                    base.key(s),
                    moved.key(s),
                    "{flow}: '{leaf}' must not key {}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn every_config_leaf_keys_the_first_stage_that_reads_it() {
        let cfg = FlowConfig::default();
        let tile = TileConfig::mini();
        let cfg_json = crate::jsonio::flow_config_to_json(&cfg);
        let tile_json = crate::jsonio::tile_config_to_json(&tile);
        let (mut cfg_leaves, mut tile_leaves) = (Vec::new(), Vec::new());
        leaves(&cfg_json, "", &mut cfg_leaves);
        leaves(&tile_json, "", &mut tile_leaves);
        assert!(cfg_leaves.len() > 20 && tile_leaves.len() > 10);
        for flow in ["Macro-3D", "MoL S2D"] {
            let pseudo2d = flow != "Macro-3D";
            let base = stage_keys(flow, &tile, &cfg);
            for leaf in &cfg_leaves {
                let moved = crate::jsonio::flow_config_from_json(&perturbed(&cfg_json, leaf))
                    .expect("perturbed config decodes");
                let keys = stage_keys(flow, &tile, &moved);
                assert_first_moved(flow, leaf, &base, &keys, first_reader(leaf, pseudo2d));
            }
            // every tile field shapes the netlist the floorplan reads
            for leaf in &tile_leaves {
                let moved = crate::jsonio::tile_config_from_json(&perturbed(&tile_json, leaf))
                    .expect("perturbed tile decodes");
                let keys = stage_keys(flow, &moved, &cfg);
                assert_first_moved(flow, leaf, &base, &keys, Some(Stage::Floorplan));
            }
        }
    }
}
