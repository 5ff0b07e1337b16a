//! Pin positions and half-perimeter wirelength.

use crate::placement::Placement;
use crate::ports::PortPlan;
use macro3d_geom::{Dbu, Point, Rect};
use macro3d_netlist::{Design, Master, NetId, PinRef};

/// Physical location of a pin.
///
/// Standard-cell pins are approximated at the cell centre (adequate at
/// this abstraction level — cells are micrometres across while nets
/// span tens to hundreds); macro pins use their exact LEF offsets;
/// ports use the port plan.
///
/// # Panics
///
/// Panics if ids are out of range.
pub fn pin_position(
    design: &Design,
    placement: &Placement,
    ports: &PortPlan,
    pin: PinRef,
) -> Point {
    match pin {
        PinRef::Port(p) => ports.position(p),
        PinRef::Inst { inst, pin } => match design.inst(inst).master {
            Master::Cell(_) => placement.center(design, inst),
            Master::Macro(m) => {
                let def = design.macro_master(m);
                let base = placement.pos[inst.index()];
                base + (def.pins[pin as usize].offset - Point::ORIGIN)
            }
        },
    }
}

/// Bounding box of a net's pins, or `None` for degenerate nets
/// (fewer than one pin).
pub fn net_bbox(
    design: &Design,
    placement: &Placement,
    ports: &PortPlan,
    net: NetId,
) -> Option<Rect> {
    let pins = &design.net(net).pins;
    let first = pins.first()?;
    let p0 = pin_position(design, placement, ports, *first);
    let mut lo = p0;
    let mut hi = p0;
    for &p in &pins[1..] {
        let pt = pin_position(design, placement, ports, p);
        lo = lo.min(pt);
        hi = hi.max(pt);
    }
    Some(Rect { lo, hi })
}

/// Half-perimeter wirelength of one net.
pub fn net_hpwl(design: &Design, placement: &Placement, ports: &PortPlan, net: NetId) -> Dbu {
    match net_bbox(design, placement, ports, net) {
        Some(b) => b.size().half_perimeter(),
        None => Dbu(0),
    }
}

/// Total HPWL over all nets with at least two pins.
pub fn total_hpwl(design: &Design, placement: &Placement, ports: &PortPlan) -> Dbu {
    design
        .net_ids()
        .filter(|&n| design.net(n).pins.len() >= 2)
        .map(|n| net_hpwl(design, placement, ports, n))
        .sum()
}

/// Incremental HPWL evaluator over a tracked net subset.
///
/// Caches each tracked net's half-perimeter and the integer running
/// total, so a local move costs one [`HpwlCache::update_nets`] over
/// the nets it touches instead of a full recompute. Because spans are
/// exact [`Dbu`] integers, [`HpwlCache::total`] always equals the sum
/// of fresh per-net recomputes bit for bit — optimizers (annealing,
/// detailed placement) can mix incremental and full evaluation freely.
///
/// The cache is built over a *movable set* of pins. Every other pin of
/// a tracked net is folded once, at build time, into a fixed bounding
/// box; an update re-reads only the net's movable pins and takes the
/// span of that box extended by them. Min/max over integers does not
/// depend on grouping, so the span equals [`net_hpwl`] exactly — as
/// long as the pins outside the movable set really stay put.
///
/// Rejected moves are rolled back with the [`HpwlUndo`] record
/// returned by `update_nets` (restore the placement, then
/// [`HpwlCache::undo`]).
#[derive(Clone, Debug)]
pub struct HpwlCache {
    /// Index into `tracked` per net; [`UNTRACKED`] for untracked nets.
    slot: Vec<u32>,
    tracked: Vec<TrackedNet>,
    /// Movable pins of every tracked net, one contiguous run per net.
    moving: Vec<PinRef>,
    total: Dbu,
}

const UNTRACKED: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct TrackedNet {
    span: Dbu,
    /// Bounding box of the pins outside the movable set ([`NO_PINS`]
    /// if every pin moves).
    fixed: Rect,
    /// This net's run in [`HpwlCache::moving`].
    moving_start: u32,
    moving_end: u32,
}

/// The identity of bounding-box growth: inverted, so the first pin
/// added becomes the whole box.
const NO_PINS: Rect = Rect {
    lo: Point::new(Dbu::MAX, Dbu::MAX),
    hi: Point::new(Dbu::MIN, Dbu::MIN),
};

/// Inverse of one [`HpwlCache::update_nets`] call.
#[derive(Clone, Debug)]
pub struct HpwlUndo {
    /// `(net, previous span)` in update order.
    entries: Vec<(NetId, Dbu)>,
}

impl HpwlCache {
    /// Builds a cache tracking every net with at least two pins, with
    /// every pin movable.
    pub fn new(design: &Design, placement: &Placement, ports: &PortPlan) -> Self {
        Self::over_nets(
            design,
            placement,
            ports,
            design.net_ids().filter(|&n| design.net(n).pins.len() >= 2),
            |_| true,
        )
    }

    /// Builds a cache tracking only the given nets (duplicates are
    /// tracked once). Nets with fewer than two pins are skipped.
    ///
    /// `movable` names the pins later updates may see moved; the
    /// positions of all other pins are read here, once.
    pub fn over_nets(
        design: &Design,
        placement: &Placement,
        ports: &PortPlan,
        nets: impl IntoIterator<Item = NetId>,
        movable: impl Fn(PinRef) -> bool,
    ) -> Self {
        let mut cache = HpwlCache {
            slot: vec![UNTRACKED; design.num_nets()],
            tracked: Vec::new(),
            moving: Vec::new(),
            total: Dbu(0),
        };
        for n in nets {
            let pins = &design.net(n).pins;
            if pins.len() < 2 || cache.slot[n.index()] != UNTRACKED {
                continue;
            }
            let moving_start = cache.moving.len() as u32;
            let mut fixed = NO_PINS;
            for &pin in pins {
                if movable(pin) {
                    cache.moving.push(pin);
                } else {
                    let pt = pin_position(design, placement, ports, pin);
                    fixed.lo = fixed.lo.min(pt);
                    fixed.hi = fixed.hi.max(pt);
                }
            }
            let mut net = TrackedNet {
                span: Dbu(0),
                fixed,
                moving_start,
                moving_end: cache.moving.len() as u32,
            };
            net.span = cache.span(design, placement, ports, &net);
            cache.slot[n.index()] = cache.tracked.len() as u32;
            cache.tracked.push(net);
            cache.total += net.span;
        }
        HPWL_CACHE_INITS.add(cache.tracked.len() as u64);
        cache
    }

    /// Half-perimeter of `net`'s fixed box grown by its movable pins
    /// at their current positions.
    fn span(
        &self,
        design: &Design,
        placement: &Placement,
        ports: &PortPlan,
        net: &TrackedNet,
    ) -> Dbu {
        let Rect { mut lo, mut hi } = net.fixed;
        for &pin in &self.moving[net.moving_start as usize..net.moving_end as usize] {
            let pt = pin_position(design, placement, ports, pin);
            lo = lo.min(pt);
            hi = hi.max(pt);
        }
        Rect { lo, hi }.size().half_perimeter()
    }

    /// The running total over all tracked nets.
    #[inline]
    pub fn total(&self) -> Dbu {
        self.total
    }

    /// Cached span of one net (`None` if untracked).
    #[inline]
    pub fn net(&self, n: NetId) -> Option<Dbu> {
        self.tracked
            .get(self.slot[n.index()] as usize)
            .map(|t| t.span)
    }

    /// Re-evaluates the given nets against the current placement and
    /// returns the undo record for the whole batch. Only the nets'
    /// movable pins are re-read. Untracked nets are ignored;
    /// duplicates in `nets` are handled (undo replays in reverse).
    pub fn update_nets<'a>(
        &mut self,
        design: &Design,
        placement: &Placement,
        ports: &PortPlan,
        nets: impl IntoIterator<Item = &'a NetId>,
    ) -> HpwlUndo {
        let nets = nets.into_iter();
        let mut entries = Vec::with_capacity(nets.size_hint().0);
        for &n in nets {
            let k = self.slot[n.index()] as usize;
            let Some(&net) = self.tracked.get(k) else {
                continue;
            };
            let new = self.span(design, placement, ports, &net);
            self.total += new - net.span;
            self.tracked[k].span = new;
            entries.push((n, net.span));
        }
        HPWL_CACHE_HITS.add(entries.len() as u64);
        HpwlUndo { entries }
    }

    /// Rolls back one `update_nets` batch (apply to the *matching*
    /// state only, most recent first).
    // INVARIANT: an `HpwlUndo` only holds nets the cache tracked when
    // it was produced, and tracked nets are never evicted.
    pub fn undo(&mut self, undo: HpwlUndo) {
        for (n, old) in undo.entries.into_iter().rev() {
            let net = &mut self.tracked[self.slot[n.index()] as usize];
            self.total += old - net.span;
            net.span = old;
        }
    }
}

/// Incremental re-evaluations served by the cache (nets whose span
/// was delta-updated instead of the whole design rescored).
static HPWL_CACHE_HITS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("place/hpwl_cache_hits");
/// Nets scored from scratch when a cache is (re)built.
static HPWL_CACHE_INITS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("place/hpwl_cache_inits");

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_tech::{libgen::n28_library, CellClass, PinDir};
    use std::sync::Arc;

    #[test]
    fn hpwl_of_two_cells() {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("t", lib);
        let a = d.add_cell("a", inv);
        let b = d.add_cell("b", inv);
        let n = d.add_net("n");
        d.connect(n, PinRef::inst(a, 1));
        d.connect(n, PinRef::inst(b, 0));
        let mut p = Placement::new(&d);
        p.pos[a.index()] = Point::from_um(0.0, 0.0);
        p.pos[b.index()] = Point::from_um(100.0, 50.0);
        let ports = PortPlan { pos: vec![] };
        let w = net_hpwl(&d, &p, &ports, n);
        // centers are offset by the same cell size, so distance is exact
        assert_eq!(w, Dbu::from_um(150.0));
        assert_eq!(total_hpwl(&d, &p, &ports), w);
    }

    #[test]
    fn macro_pins_use_offsets() {
        let lib = Arc::new(n28_library(1.0));
        let mut d = Design::new("t", lib);
        let def = macro3d_sram::MemoryCompiler::n28().sram("s", 256, 32);
        let pin0_off = def.pins[0].offset;
        let mm = d.add_macro_master(def);
        let m = d.add_macro_in("m", mm, 0);
        let mut p = Placement::new(&d);
        p.pos[m.index()] = Point::from_um(10.0, 20.0);
        let ports = PortPlan { pos: vec![] };
        let pt = pin_position(&d, &p, &ports, PinRef::inst(m, 0));
        assert_eq!(pt.x, Point::from_um(10.0, 20.0).x + pin0_off.x);
        assert_eq!(pt.y, Point::from_um(10.0, 20.0).y + pin0_off.y);
    }

    #[test]
    fn cache_tracks_total_incrementally() {
        use macro3d_netlist::Side;
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("t", lib);
        let port = d.add_port("p", PinDir::Input, Some(Side::West));
        let mut cells = Vec::new();
        let mut nets = Vec::new();
        for i in 0..6 {
            let c = d.add_cell(format!("c{i}"), inv);
            let n = d.add_net(format!("n{i}"));
            d.connect(n, PinRef::inst(c, 0));
            if let Some(&prev) = cells.last() {
                d.connect(n, PinRef::inst(prev, 1));
            } else {
                d.connect(n, PinRef::Port(port));
            }
            cells.push(c);
            nets.push(n);
        }
        let mut p = Placement::new(&d);
        for (i, &c) in cells.iter().enumerate() {
            p.pos[c.index()] = Point::from_um(10.0 * i as f64, 3.0 * i as f64);
        }
        let ports = PortPlan {
            pos: vec![Point::from_um(0.0, 0.0)],
        };

        let mut cache = HpwlCache::new(&d, &p, &ports);
        assert_eq!(cache.total(), total_hpwl(&d, &p, &ports));

        // move a middle cell; only its two nets change
        p.pos[cells[3].index()] = Point::from_um(55.0, 1.0);
        let touched = [nets[3], nets[4]];
        let undo = cache.update_nets(&d, &p, &ports, &touched);
        assert_eq!(cache.total(), total_hpwl(&d, &p, &ports), "after update");

        // rejected move: restore the placement and undo the cache
        p.pos[cells[3].index()] = Point::from_um(30.0, 9.0);
        cache.undo(undo);
        assert_eq!(cache.total(), total_hpwl(&d, &p, &ports), "after undo");
    }

    #[test]
    fn cache_subset_and_duplicates() {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("t", lib);
        let a = d.add_cell("a", inv);
        let b = d.add_cell("b", inv);
        let n = d.add_net("n");
        d.connect(n, PinRef::inst(a, 1));
        d.connect(n, PinRef::inst(b, 0));
        let lone = d.add_net("lone");
        d.connect(lone, PinRef::inst(b, 1));
        let mut p = Placement::new(&d);
        p.pos[b.index()] = Point::from_um(20.0, 0.0);
        let ports = PortPlan { pos: vec![] };

        // duplicates tracked once; single-pin nets skipped
        let cache = HpwlCache::over_nets(&d, &p, &ports, [n, n, lone], |_| true);
        assert_eq!(cache.total(), net_hpwl(&d, &p, &ports, n));
        assert_eq!(cache.net(lone), None);
        assert_eq!(cache.net(n), Some(net_hpwl(&d, &p, &ports, n)));
    }

    /// Random macro moves through a cache whose movable set is the
    /// macros: after every update or undo, each span and the total
    /// equal a fresh build and a full [`net_hpwl`] recompute.
    #[test]
    fn movable_set_cache_matches_fresh_build() {
        use macro3d_netlist::Side;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("t", lib);
        let def = macro3d_sram::MemoryCompiler::n28().sram("s", 256, 32);
        let pin = |name: &str| def.pins.iter().position(|p| p.name == name).expect(name) as u16;
        let (clk_pin, ce, we, addr) = (pin("clk"), pin("ce"), pin("we"), pin("addr[0]"));
        let mm = d.add_macro_master(def);
        let macros = [d.add_macro_in("m0", mm, 0), d.add_macro_in("m1", mm, 0)];
        let port = d.add_port("clk", PinDir::Input, Some(Side::West));
        let cells: Vec<_> = (0..300).map(|c| d.add_cell(format!("c{c}"), inv)).collect();

        // high fanout: a port, every cell, and both macros' clocks
        let clk = d.add_net("clk");
        d.connect(clk, PinRef::Port(port));
        for &c in &cells {
            d.connect(clk, PinRef::inst(c, 0));
        }
        for &m in &macros {
            d.connect(clk, PinRef::inst(m, clk_pin));
        }
        // two pins on one macro, plus a cell
        let ctl = d.add_net("ctl");
        d.connect(ctl, PinRef::inst(macros[0], ce));
        d.connect(ctl, PinRef::inst(macros[0], we));
        d.connect(ctl, PinRef::inst(cells[0], 1));
        // every pin fixed
        let still = d.add_net("still");
        d.connect(still, PinRef::inst(cells[1], 1));
        d.connect(still, PinRef::inst(cells[2], 1));
        // every pin movable
        let bus = d.add_net("bus");
        d.connect(bus, PinRef::inst(macros[0], addr));
        d.connect(bus, PinRef::inst(macros[1], addr));
        let nets = [clk, ctl, still, bus];

        let mut rng = SmallRng::seed_from_u64(7);
        let at = |rng: &mut SmallRng| {
            Point::from_um(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0))
        };
        let mut p = Placement::new(&d);
        for i in d.inst_ids() {
            p.pos[i.index()] = at(&mut rng);
        }
        let ports = PortPlan {
            pos: vec![Point::from_um(0.0, 250.0)],
        };
        let is_macro =
            |pin: PinRef| matches!(pin, PinRef::Inst { inst, .. } if macros.contains(&inst));
        let mut cache = HpwlCache::over_nets(&d, &p, &ports, nets, is_macro);

        let mut undos = 0;
        for step in 0..200 {
            let m = macros[rng.gen_range(0..macros.len())];
            let saved = p.pos[m.index()];
            p.pos[m.index()] = at(&mut rng);
            let undo = cache.update_nets(&d, &p, &ports, &nets);
            if rng.gen_bool(0.5) {
                p.pos[m.index()] = saved;
                cache.undo(undo);
                undos += 1;
            }
            let fresh = HpwlCache::over_nets(&d, &p, &ports, nets, is_macro);
            assert_eq!(cache.total(), fresh.total(), "step {step}");
            for n in nets {
                assert_eq!(cache.net(n), fresh.net(n), "step {step} net {n}");
                assert_eq!(
                    cache.net(n),
                    Some(net_hpwl(&d, &p, &ports, n)),
                    "step {step}"
                );
            }
            assert_eq!(cache.total(), total_hpwl(&d, &p, &ports), "step {step}");
        }
        assert!((70..130).contains(&undos), "{undos} undos");
    }

    #[test]
    fn port_pins_use_plan() {
        let lib = Arc::new(n28_library(1.0));
        let mut d = Design::new("t", lib);
        let p0 = d.add_port("p", PinDir::Input, None);
        let n = d.add_net("n");
        d.connect(n, PinRef::Port(p0));
        let p = Placement::new(&d);
        let ports = PortPlan {
            pos: vec![Point::from_um(5.0, 7.0)],
        };
        assert_eq!(
            pin_position(&d, &p, &ports, PinRef::Port(p0)),
            Point::from_um(5.0, 7.0)
        );
        // single-pin nets contribute zero HPWL
        assert_eq!(total_hpwl(&d, &p, &ports), Dbu(0));
    }
}
