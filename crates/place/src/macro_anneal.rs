//! Simulated-annealing refinement of macro placements.
//!
//! The deterministic packers ([`crate::macro_place`]) produce valid
//! floorplans; this pass models the paper's "highly optimized
//! floorplans … considering multiple floorplan alternatives" by
//! annealing over position swaps and nudges under a caller-supplied
//! cost (typically macro-net HPWL).

use crate::floorplan::MacroPlacement;
use crate::hpwl::HpwlCache;
use crate::placement::Placement;
use crate::ports::PortPlan;
use macro3d_geom::{Dbu, Point, Rect};
use macro3d_netlist::{Design, InstId, Master, NetId, PinRef};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Annealing parameters.
#[derive(Clone, Copy, Debug)]
pub struct AnnealConfig {
    /// Number of proposed moves.
    pub iterations: usize,
    /// Initial temperature as a fraction of the initial cost.
    pub t0_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 2_000,
            t0_frac: 0.05,
            seed: 0x5a,
        }
    }
}

/// HPWL of all nets touching at least one of the placed macros, with
/// non-macro pins collapsed to the die centre (logic is not placed
/// yet at floorplanning time). The standard macro-floorplanning cost.
pub fn macro_net_hpwl(design: &Design, placements: &[MacroPlacement], die: Rect) -> f64 {
    // ordered maps so cost bookkeeping never touches hash iteration
    // order (a nondeterminism hazard next to the seeded annealer)
    let pos: BTreeMap<InstId, Point> = placements.iter().map(|mp| (mp.inst, mp.rect.lo)).collect();
    let center = die.center();

    let mut seen = BTreeSet::new();
    let mut total = 0.0f64;
    for mp in placements {
        for conn in &design.inst(mp.inst).conns {
            let Some(net) = conn else { continue };
            if !seen.insert(*net) {
                continue;
            }
            total += net_span(design, *net, &pos, center);
        }
    }
    total
}

fn net_span(design: &Design, net: NetId, pos: &BTreeMap<InstId, Point>, center: Point) -> f64 {
    let mut lo: Option<Point> = None;
    let mut hi: Option<Point> = None;
    let add = |p: Point, lo: &mut Option<Point>, hi: &mut Option<Point>| {
        *lo = Some(lo.map_or(p, |q| q.min(p)));
        *hi = Some(hi.map_or(p, |q| q.max(p)));
    };
    for &pin in &design.net(net).pins {
        let p = match pin {
            PinRef::Inst { inst, pin } => match (design.inst(inst).master, pos.get(&inst)) {
                (Master::Macro(m), Some(&base)) => {
                    base + (design.macro_master(m).pins[pin as usize].offset - Point::ORIGIN)
                }
                _ => center,
            },
            PinRef::Port(_) => center,
        };
        add(p, &mut lo, &mut hi);
    }
    match (lo, hi) {
        (Some(l), Some(h)) => l.manhattan(h).to_um(),
        _ => 0.0,
    }
}

/// Anneals the placements in place, proposing same-die position swaps
/// of equally sized macros and small nudges, and returns the final
/// cost. Every accepted state is legal (within `die`, same-die
/// overlap-free with halo).
///
/// Cost is the macro-net HPWL of [`macro_net_hpwl`], evaluated
/// through the shared [`HpwlCache`] with the annealed macros as its
/// movable set: each proposal re-evaluates only the nets incident to
/// the moved macros (delta update, undone on rejection), and of those
/// only the annealed macros' pins — every other pin sits still at the
/// die centre, inside the net's fixed box. A proposal therefore costs
/// O(macro pins), however many cells hang on a macro's clock net.
pub fn refine_macros_sa(
    design: &Design,
    placements: &mut [MacroPlacement],
    die: Rect,
    halo: Dbu,
    cfg: &AnnealConfig,
) -> f64 {
    if placements.len() < 2 {
        return macro_net_hpwl(design, placements, die);
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Synthetic flat views of the floorplanning state for the shared
    // evaluator: annealed macros sit at their placed corners, every
    // other instance collapses to the die centre (logic is not placed
    // yet — the same convention as `macro_net_hpwl`), ports included.
    let center = die.center();
    let mut flat = Placement::new(design);
    for i in design.inst_ids() {
        let r = flat.rect(design, i);
        flat.pos[i.index()] = Point::new(center.x - r.width() / 2, center.y - r.height() / 2);
    }
    for mp in placements.iter() {
        flat.pos[mp.inst.index()] = mp.rect.lo;
    }
    let ports = PortPlan {
        pos: vec![center; design.num_ports()],
    };

    // macro-adjacent nets, listed per macro so a move touches exactly
    // its own nets (the cache tracks a net shared by macros once)
    let nets_of: Vec<Vec<NetId>> = placements
        .iter()
        .map(|mp| {
            let mut mine: Vec<NetId> = design
                .inst(mp.inst)
                .conns
                .iter()
                .flatten()
                .copied()
                .collect();
            mine.sort_unstable();
            mine.dedup();
            mine
        })
        .collect();
    let mut annealed = vec![false; design.num_insts()];
    for mp in placements.iter() {
        annealed[mp.inst.index()] = true;
    }
    let mut cache = HpwlCache::over_nets(
        design,
        &flat,
        &ports,
        nets_of.iter().flatten().copied(),
        |pin| matches!(pin, PinRef::Inst { inst, .. } if annealed[inst.index()]),
    );

    let mut cost = cache.total().to_um();
    let t0 = (cost * cfg.t0_frac).max(1.0);

    // batched locally; one registry add per call keeps the loop hot
    let mut proposals = 0u64;
    let mut accepts = 0u64;
    // best-so-far snapshot, restored if the budget stops the anneal
    // mid-schedule (the current state may sit on an uphill excursion)
    let mut best_cost = cost;
    let mut best: Vec<MacroPlacement> = placements.to_vec();
    let mut stopped = false;
    for it in 0..cfg.iterations {
        if let macro3d_par::Checkpoint::Stop(reason) =
            macro3d_par::checkpoint("place/anneal_proposals")
        {
            macro3d_par::note_degradation(
                "place/anneal_proposals",
                reason,
                format!("stopped after {it} of {} anneal proposals", cfg.iterations),
            );
            stopped = true;
            break;
        }
        let t = t0 * (1.0 - it as f64 / cfg.iterations as f64).max(1e-3);
        let a = rng.gen_range(0..placements.len());
        let b = rng.gen_range(0..placements.len());

        enum Move {
            Swap(usize, usize),
            Nudge(usize, Point),
        }
        let proposal = if a != b
            && placements[a].die == placements[b].die
            && placements[a].rect.size() == placements[b].rect.size()
            && rng.gen_bool(0.6)
        {
            Move::Swap(a, b)
        } else {
            let step = Dbu::from_um(rng.gen_range(5.0..60.0));
            let dir = rng.gen_range(0..4);
            let (dx, dy) = match dir {
                0 => (step, Dbu(0)),
                1 => (-step, Dbu(0)),
                2 => (Dbu(0), step),
                _ => (Dbu(0), -step),
            };
            Move::Nudge(
                a,
                Point::new(placements[a].rect.lo.x + dx, placements[a].rect.lo.y + dy),
            )
        };

        // apply tentatively; `a` always moves, `b` only in a swap
        let saved_a = placements[a];
        let saved_b = placements[b];
        let b_nets: &[NetId] = match proposal {
            Move::Swap(i, j) => {
                let (pi, pj) = (placements[i].rect.lo, placements[j].rect.lo);
                placements[i].rect = placements[i].rect.moved_to(pj);
                placements[j].rect = placements[j].rect.moved_to(pi);
                &nets_of[j]
            }
            Move::Nudge(i, to) => {
                placements[i].rect = placements[i].rect.moved_to(to);
                &[]
            }
        };
        flat.pos[placements[a].inst.index()] = placements[a].rect.lo;
        flat.pos[placements[b].inst.index()] = placements[b].rect.lo;

        let legal = legal_with_halo(placements, die, halo);
        let (new_cost, undo) = if legal {
            let undo = cache.update_nets(design, &flat, &ports, nets_of[a].iter().chain(b_nets));
            (cache.total().to_um(), Some(undo))
        } else {
            (f64::INFINITY, None)
        };
        let accept = legal
            && (new_cost <= cost || rng.gen_bool(((cost - new_cost) / t).exp().clamp(0.0, 1.0)));
        proposals += 1;
        if accept {
            accepts += 1;
            cost = new_cost;
            if cost < best_cost {
                best_cost = cost;
                best.copy_from_slice(placements);
            }
        } else {
            placements[a] = saved_a;
            placements[b] = saved_b;
            flat.pos[saved_a.inst.index()] = saved_a.rect.lo;
            flat.pos[saved_b.inst.index()] = saved_b.rect.lo;
            if let Some(u) = undo {
                cache.undo(u);
            }
        }
    }
    ANNEAL_PROPOSALS.add(proposals);
    ANNEAL_ACCEPTS.add(accepts);
    if stopped && best_cost < cost {
        placements.copy_from_slice(&best);
        return best_cost;
    }
    cost
}

/// Proposed anneal moves (the accept ratio is derived at export).
static ANNEAL_PROPOSALS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("place/anneal_proposals");
/// Accepted anneal moves.
static ANNEAL_ACCEPTS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("place/anneal_accepts");

fn legal_with_halo(placements: &[MacroPlacement], die: Rect, halo: Dbu) -> bool {
    for (i, a) in placements.iter().enumerate() {
        if !die.contains_rect(a.rect) {
            return false;
        }
        let ar = a.rect.inflate(halo);
        for b in &placements[i + 1..] {
            if a.die == b.die && ar.overlaps(b.rect) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macro_place::pack_shelves;
    use macro3d_sram::MemoryCompiler;
    use macro3d_tech::libgen::n28_library;
    use macro3d_tech::stack::DieRole;
    use macro3d_tech::{CellClass, PinDir};
    use std::sync::Arc;

    /// `refine_macros_sa` on [`clocked_bank_design`]: returned cost
    /// bits and final macro corners (DBU), recorded with the
    /// full-rescan cost evaluator.
    const GOLDEN_COST_BITS: u64 = 0x40c0_2530_8312_6e98; // 8266.379 µm
    const GOLDEN_LO: [(i64, i64); 8] = [
        (466932, 93181),
        (213697, 490140),
        (36059, 454493),
        (75003, 93586),
        (256431, 101293),
        (437110, 456043),
        (617925, 484697),
        (696097, 132119),
    ];

    /// Eight identical banks whose address bus ties them to the die
    /// centre — annealing should not increase the bus HPWL.
    fn banked_design() -> (Design, Vec<InstId>) {
        let lib = Arc::new(n28_library(1.0));
        let mut d = Design::new("t", lib);
        let def = MemoryCompiler::n28().sram("bank", 2048, 128);
        let clk_pin = def.clock_pin().expect("clk");
        let mm = d.add_macro_master(def);
        let clk_port = d.add_port("clk", PinDir::Input, None);
        let clk = d.add_net("clk");
        d.connect(clk, PinRef::Port(clk_port));
        let mut insts = Vec::new();
        for b in 0..8 {
            let i = d.add_macro_in(format!("bank{b}"), mm, 0);
            d.connect(clk, PinRef::inst(i, clk_pin as u16));
            insts.push(i);
        }
        (d, insts)
    }

    /// [`banked_design`] with real fanout, like the pre-CTS `clk` of a
    /// tile: the clock also drives 1000 cells. Each bank's `addr[0]` is
    /// driven by the next bank's `dout[0]` (so swaps change the cost),
    /// and its `ce`/`we` share one net with a cell (two pins on one
    /// macro).
    fn clocked_bank_design() -> (Design, Vec<InstId>) {
        let (mut d, insts) = banked_design();
        let inv = d.library().smallest(CellClass::Inv).expect("inv");
        let clk = d.net_ids().next().expect("clk");
        for c in 0..1000 {
            let cell = d.add_cell(format!("ff{c}"), inv);
            d.connect(clk, PinRef::inst(cell, 0));
        }
        let def = d.macro_master(match d.inst(insts[0]).master {
            Master::Macro(m) => m,
            Master::Cell(_) => unreachable!("banks are macros"),
        });
        let pin = |name: &str| def.pins.iter().position(|p| p.name == name).expect(name) as u16;
        let (ce, we, addr0, dout0) = (pin("ce"), pin("we"), pin("addr[0]"), pin("dout[0]"));
        for (b, &i) in insts.iter().enumerate() {
            let ctl = d.add_net(format!("ctl{b}"));
            d.connect(ctl, PinRef::inst(i, ce));
            d.connect(ctl, PinRef::inst(i, we));
            let drv = d.add_cell(format!("ctl_drv{b}"), inv);
            d.connect(ctl, PinRef::inst(drv, 1));
            let addr = d.add_net(format!("addr{b}"));
            d.connect(addr, PinRef::inst(i, addr0));
            d.connect(addr, PinRef::inst(insts[(b + 1) % insts.len()], dout0));
        }
        (d, insts)
    }

    #[test]
    fn anneal_golden_with_real_fanout() {
        let (d, insts) = clocked_bank_design();
        let die = Rect::from_um(0.0, 0.0, 900.0, 900.0);
        let halo = Dbu::from_um(2.0);
        let mut p = pack_shelves(&d, &insts, die, halo, DieRole::Macro).expect("fits");
        let cost = refine_macros_sa(&d, &mut p, die, halo, &AnnealConfig::default());
        let got: Vec<(i64, i64)> = p
            .iter()
            .map(|mp| (mp.rect.lo.x.0, mp.rect.lo.y.0))
            .collect();
        assert_eq!(cost.to_bits(), GOLDEN_COST_BITS, "{cost}");
        assert_eq!(got, GOLDEN_LO);
    }

    #[test]
    fn anneal_never_worsens_and_stays_legal() {
        let (d, insts) = banked_design();
        let die = Rect::from_um(0.0, 0.0, 900.0, 900.0);
        let halo = Dbu::from_um(2.0);
        let mut p = pack_shelves(&d, &insts, die, halo, DieRole::Macro).expect("fits");
        let before = macro_net_hpwl(&d, &p, die);
        let after = refine_macros_sa(
            &d,
            &mut p,
            die,
            halo,
            &AnnealConfig {
                iterations: 800,
                ..Default::default()
            },
        );
        assert!(after <= before * 1.001, "{after} vs {before}");
        assert!(crate::macro_place::is_legal(&p, die));
        // halo preserved between any pair
        for (i, a) in p.iter().enumerate() {
            for b in &p[i + 1..] {
                assert!(!a.rect.inflate(halo).overlaps(b.rect));
            }
        }
    }

    #[test]
    fn cost_is_deterministic() {
        let (d, insts) = banked_design();
        let die = Rect::from_um(0.0, 0.0, 900.0, 900.0);
        let p = pack_shelves(&d, &insts, die, Dbu::from_um(2.0), DieRole::Macro).expect("fits");
        assert_eq!(
            macro_net_hpwl(&d, &p, die).to_bits(),
            macro_net_hpwl(&d, &p, die).to_bits()
        );
    }
}
