//! ePlace-style analytical global placement.
//!
//! The second placer backend beside recursive bisection
//! ([`crate::global`]): cells are point charges whose area is spread
//! over the [`ElectroGrid`] bins, the Poisson potential of the
//! density field yields a spreading force, and a weighted-average
//! (WA) smooth wirelength supplies the attraction. The sum
//! `W(v) + λ·N(v)` is minimized by the Nesterov solver with the
//! inverse-Lipschitz step estimate and the ePlace preconditioner
//! (pin count + λ·charge per cell); λ grows geometrically until the
//! density overflow falls under the target.
//!
//! **Determinism.** Every hot kernel — WA net terms, per-cell
//! gradients with field interpolation, bin density accumulation, the
//! Nesterov position update — runs through the `macro3d-par` chunked
//! primitives over immutable snapshots of the iterate, and every
//! reduction (λ calibration, norms, HPWL) is a serial sum in fixed
//! index order. Results are bit-identical for any thread count
//! (`tests/analytical_determinism.rs`).
//!
//! **Budget/fault awareness.** The iteration loop polls
//! `checkpoint("place/nesterov_iters")`; exhaustion keeps the
//! best-so-far (major) solution and reports the degradation, exactly
//! like the router's rip-up loop.

use crate::density::ElectroGrid;
use crate::floorplan::Floorplan;
use crate::global::GlobalPlaceConfig;
use crate::hpwl::pin_position;
use crate::nesterov::Nesterov;
use crate::placement::Placement;
use crate::ports::PortPlan;
use macro3d_geom::{Dbu, Point};
use macro3d_netlist::{Design, InstId, Master};
use macro3d_par::{checkpoint, note_degradation, parallel_map, Checkpoint};

/// Knobs of the analytical backend (defaults follow ePlace).
#[derive(Clone, Copy, Debug)]
pub struct AnalyticalConfig {
    /// Nesterov iteration cap.
    pub max_iters: usize,
    /// Stop once density overflow falls below this fraction.
    pub target_overflow: f64,
    /// Geometric growth of the density weight λ per iteration.
    pub lambda_growth: f64,
}

impl Default for AnalyticalConfig {
    fn default() -> Self {
        AnalyticalConfig {
            max_iters: 512,
            target_overflow: 0.08,
            lambda_growth: 1.05,
        }
    }
}

/// Below this many movable cells the electrostatic model is
/// meaningless (a couple of charges on an 8×8 grid); recursive
/// bisection places tiny designs instead.
const MIN_ANALYTICAL_CELLS: usize = 16;

/// Damped-Jacobi sweeps of the star-model quadratic initial
/// placement (wirelength only, no density) run before the Nesterov
/// loop.
const INIT_SWEEPS: usize = 48;

static NESTEROV_ITERS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("place/nesterov_iters");

/// One net as the WA kernels see it: movable pins by local cell
/// index (one entry per pin, so multi-pin cells count once per pin)
/// and fixed pins (ports, macro pins) as static coordinates.
struct NetInfo {
    movable: Vec<u32>,
    fixed: Vec<(f64, f64)>,
}

/// Per-axis WA terms of one net, shifted-exponential form.
#[derive(Clone, Copy, Default)]
struct Axis {
    max: f64,
    min: f64,
    /// Σ e^{(x−max)/γ} and Σ x·e^{(x−max)/γ}.
    dp: f64,
    np: f64,
    /// Σ e^{−(x−min)/γ} and Σ x·e^{−(x−min)/γ}.
    dm: f64,
    nm: f64,
}

impl Axis {
    fn compute(coords: impl Iterator<Item = f64> + Clone, gamma: f64) -> Axis {
        let mut ax = Axis {
            max: f64::NEG_INFINITY,
            min: f64::INFINITY,
            ..Axis::default()
        };
        for c in coords.clone() {
            ax.max = ax.max.max(c);
            ax.min = ax.min.min(c);
        }
        for c in coords {
            let ep = ((c - ax.max) / gamma).exp();
            let em = (-(c - ax.min) / gamma).exp();
            ax.dp += ep;
            ax.np += c * ep;
            ax.dm += em;
            ax.nm += c * em;
        }
        ax
    }

    /// ∂(WA span)/∂x at pin coordinate `c`.
    fn grad(&self, c: f64, gamma: f64) -> f64 {
        let ep = ((c - self.max) / gamma).exp();
        let em = (-(c - self.min) / gamma).exp();
        let plus = ep * (self.dp + (c * self.dp - self.np) / gamma) / (self.dp * self.dp);
        let minus = em * (self.dm - (c * self.dm - self.nm) / gamma) / (self.dm * self.dm);
        plus - minus
    }
}

/// Runs ePlace-style analytical global placement (see the module
/// docs). Same contract as [`crate::global::global_place`]: macros
/// are fixed from `fp.macros`, cells end up spread (overlapping) over
/// the usable area, ready for row legalization.
///
/// # Panics
///
/// Panics if a macro in `fp.macros` references an out-of-range
/// instance.
pub fn analytical_place(
    design: &Design,
    fp: &Floorplan,
    ports: &PortPlan,
    cfg: &GlobalPlaceConfig,
) -> Placement {
    let mut placement = Placement::new(design);
    for mp in &fp.macros {
        placement.pos[mp.inst.index()] = mp.rect.lo;
        placement.die_of[mp.inst.index()] = mp.die;
    }
    let movable: Vec<InstId> = design.inst_ids().filter(|&i| !design.is_macro(i)).collect();
    if movable.len() < MIN_ANALYTICAL_CELLS {
        return crate::global::bisection_place(design, fp, ports, cfg);
    }
    let n = movable.len();

    // local geometry snapshot (µm, f64)
    let mut local_of = vec![u32::MAX; design.num_insts()];
    let mut w = Vec::with_capacity(n);
    let mut h = Vec::with_capacity(n);
    let mut area = Vec::with_capacity(n);
    for (k, &i) in movable.iter().enumerate() {
        local_of[i.index()] = k as u32;
        let r = placement.rect(design, i);
        w.push(r.width().to_um());
        h.push(r.height().to_um());
        area.push(r.width().to_um() * r.height().to_um());
    }
    let total_area: f64 = area.iter().sum();
    let avg_area = total_area / n as f64;
    // normalized charge: the preconditioner and field force scale
    let charge: Vec<f64> = area.iter().map(|a| a / avg_area).collect();

    // nets with 2..=max_net_degree pins, movable/fixed split
    let mut nets: Vec<NetInfo> = Vec::new();
    let mut inst_nets: Vec<Vec<u32>> = vec![Vec::new(); n];
    for nid in design.net_ids() {
        let pins = &design.net(nid).pins;
        if pins.len() < 2 || pins.len() > cfg.max_net_degree {
            continue;
        }
        let mut info = NetInfo {
            movable: Vec::new(),
            fixed: Vec::new(),
        };
        for &p in pins {
            let is_movable_cell = p
                .instance()
                .map(|i| matches!(design.inst(i).master, Master::Cell(_)))
                .unwrap_or(false);
            if is_movable_cell {
                let k = local_of[p.instance().map(InstId::index).unwrap_or(0)];
                info.movable.push(k);
            } else {
                let pt = pin_position(design, &placement, ports, p);
                info.fixed.push((pt.x.to_um(), pt.y.to_um()));
            }
        }
        if info.movable.is_empty() {
            continue;
        }
        let t = nets.len() as u32;
        for &k in &info.movable {
            inst_nets[k as usize].push(t);
        }
        nets.push(info);
    }
    let npins: Vec<f64> = inst_nets.iter().map(|v| v.len() as f64).collect();

    let grid = ElectroGrid::build(fp, n, total_area);
    let die = fp.die();
    let (die_lo_x, die_lo_y) = (die.lo.x.to_um(), die.lo.y.to_um());
    let (die_hi_x, die_hi_y) = (die.hi.x.to_um(), die.hi.y.to_um());
    let bin = 0.5 * (grid.bin_w_um() + grid.bin_h_um());

    // initial state: die centre plus a deterministic per-cell jitter
    // (splitmix64 of the cell index) to break the radial symmetry
    let (cx0, cy0) = (0.5 * (die_lo_x + die_hi_x), 0.5 * (die_lo_y + die_hi_y));
    let (jx, jy) = (0.125 * (die_hi_x - die_lo_x), 0.125 * (die_hi_y - die_lo_y));
    let mut init = Vec::with_capacity(2 * n);
    for k in 0..n {
        let r = splitmix64(k as u64 + 1);
        let ux = (r >> 32) as f64 / (1u64 << 32) as f64 - 0.5;
        let uy = (r & 0xFFFF_FFFF) as f64 / (1u64 << 32) as f64 - 0.5;
        init.push(cx0 + 2.0 * jx * ux);
        init.push(cy0 + 2.0 * jy * uy);
    }
    let clamp = |k: usize, x: f64, y: f64| {
        (
            x.clamp(die_lo_x + w[k] / 2.0, die_hi_x - w[k] / 2.0),
            y.clamp(die_lo_y + h[k] / 2.0, die_hi_y - h[k] / 2.0),
        )
    };
    for k in 0..n {
        let (x, y) = clamp(k, init[2 * k], init[2 * k + 1]);
        init[2 * k] = x;
        init[2 * k + 1] = y;
    }

    let par = cfg.parallelism;

    // Quadratic wirelength-only initial placement (star model, damped
    // Jacobi): each sweep computes every net's pin centroid, then
    // moves every cell halfway to the mean centroid of its nets.
    // Fixed pins (macros, ports) anchor the system, so the sweeps
    // drag each cell next to the logic it talks to before any density
    // force exists. Without this the density phase on a sparse die
    // reaches its overflow target within a few dozen iterations of
    // pure radial spreading and exits with the wirelength never
    // optimized. Both sweeps are order-preserving `parallel_map`s
    // with serial fixed-order inner sums — bit-identical for any
    // thread count.
    for _ in 0..INIT_SWEEPS {
        let centroids: Vec<(f64, f64)> = parallel_map(&nets, &par, |_, net| {
            let (mut sx, mut sy) = (0.0f64, 0.0f64);
            for &k in &net.movable {
                sx += init[2 * k as usize];
                sy += init[2 * k as usize + 1];
            }
            for &(x, y) in &net.fixed {
                sx += x;
                sy += y;
            }
            let m = (net.movable.len() + net.fixed.len()) as f64;
            (sx / m, sy / m)
        });
        let next: Vec<(f64, f64)> = parallel_map(&inst_nets, &par, |k, incident| {
            if incident.is_empty() {
                return (init[2 * k], init[2 * k + 1]);
            }
            let (mut sx, mut sy) = (0.0f64, 0.0f64);
            for &t in incident {
                let (cx, cy) = centroids[t as usize];
                sx += cx;
                sy += cy;
            }
            let m = incident.len() as f64;
            clamp(
                k,
                0.5 * (init[2 * k] + sx / m),
                0.5 * (init[2 * k + 1] + sy / m),
            )
        });
        for (k, &(x, y)) in next.iter().enumerate() {
            init[2 * k] = x;
            init[2 * k + 1] = y;
        }
    }
    let acfg = cfg.analytical;
    let mut nes = Nesterov::new(init);
    let mut lambda = 0.0f64; // calibrated after the first gradient
    let mut grad = vec![0.0f64; 2 * n];
    let mut best_overflow = f64::INFINITY;
    let mut stale = 0usize;

    for iter in 0..acfg.max_iters {
        if let Checkpoint::Stop(reason) = checkpoint("place/nesterov_iters") {
            note_degradation(
                "place/nesterov_iters",
                reason,
                format!("stopped at Nesterov iteration {iter} of {}", acfg.max_iters),
            );
            break;
        }
        let _iter_span = macro3d_obs::span_full!("place/nes_iter{iter}");
        NESTEROV_ITERS.inc();

        let pos = nes.reference();

        // density: accumulate → overflow → potential → field
        let bins = grid.accumulate(&w, &h, pos, &par);
        let overflow = grid.overflow(&bins);
        let psi = grid.potential(&bins);
        let (ex, ey) = grid.field(&psi);

        // WA smoothing follows the overflow: coarse while the
        // placement is piled up, sharp as it spreads out
        let gamma = bin * (0.5 + 7.5 * overflow.min(1.0));

        // kernel 1: per-net WA terms (+ exact span for HPWL)
        let terms: Vec<(Axis, Axis)> = parallel_map(&nets, &par, |_, net| {
            let xs = net
                .movable
                .iter()
                .map(|&k| pos[2 * k as usize])
                .chain(net.fixed.iter().map(|&(x, _)| x));
            let ys = net
                .movable
                .iter()
                .map(|&k| pos[2 * k as usize + 1])
                .chain(net.fixed.iter().map(|&(_, y)| y));
            (Axis::compute(xs, gamma), Axis::compute(ys, gamma))
        });
        let hpwl_um: f64 = terms
            .iter()
            .map(|(ax, ay)| (ax.max - ax.min) + (ay.max - ay.min))
            .sum();

        // kernel 2: per-cell wirelength + density gradients (field
        // interpolation inlined)
        let cell_grads: Vec<(f64, f64, f64, f64)> =
            parallel_map(&inst_nets, &par, |k, incident| {
                let (x, y) = (pos[2 * k], pos[2 * k + 1]);
                let mut gwx = 0.0;
                let mut gwy = 0.0;
                for &t in incident {
                    let (ax, ay) = &terms[t as usize];
                    gwx += ax.grad(x, gamma);
                    gwy += ay.grad(y, gamma);
                }
                let q = charge[k];
                let gdx = -q * grid.sample(&ex, x, y);
                let gdy = -q * grid.sample(&ey, x, y);
                (gwx, gwy, gdx, gdy)
            });

        // serial reductions in fixed order: λ calibration + combine
        if iter == 0 {
            let (mut sw, mut sd) = (0.0f64, 0.0f64);
            for &(gwx, gwy, gdx, gdy) in &cell_grads {
                sw += gwx.abs() + gwy.abs();
                sd += gdx.abs() + gdy.abs();
            }
            lambda = if sd > 0.0 { sw / sd } else { 1.0 };
        }
        for (k, &(gwx, gwy, gdx, gdy)) in cell_grads.iter().enumerate() {
            let precond = (npins[k] + lambda * charge[k]).max(1.0);
            grad[2 * k] = (gwx + lambda * gdx) / precond;
            grad[2 * k + 1] = (gwy + lambda * gdy) / precond;
        }

        // inverse-Lipschitz step, trust-clamped to one bin per move
        let gmax = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        let trust = grid.bin_w_um().max(grid.bin_h_um());
        let alpha = match nes.step_len(&grad) {
            Some(a) if gmax > 0.0 => a.min(trust / gmax),
            Some(a) => a,
            None if gmax > 0.0 => 0.1 * bin / gmax,
            None => 0.0,
        };

        macro3d_obs::with_metrics(|m| {
            m.push("place/overflow", overflow);
            m.push("place/hpwl_um", hpwl_um);
            m.push("place/step_size", alpha);
        });

        if overflow < acfg.target_overflow || alpha == 0.0 {
            break;
        }
        // plateau guard: once overflow stops improving the density
        // weight has won — further growth only churns the wirelength
        if overflow < best_overflow - 1e-3 {
            best_overflow = overflow;
            stale = 0;
        } else {
            stale += 1;
            if stale >= 64 {
                break;
            }
        }
        nes.step(&grad, alpha, &clamp, &par);
        lambda *= acfg.lambda_growth;
    }

    // round the major solution back to Dbu lower-left corners
    let sol = nes.solution();
    for (k, &i) in movable.iter().enumerate() {
        let (x, y) = clamp(k, sol[2 * k], sol[2 * k + 1]);
        placement.pos[i.index()] =
            Point::new(Dbu::from_um(x - w[k] / 2.0), Dbu::from_um(y - h[k] / 2.0));
    }
    placement
}

/// splitmix64 (public-domain) — the deterministic jitter source.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::PlacerBackend;
    use crate::hpwl::total_hpwl;
    use macro3d_geom::Rect;
    use macro3d_netlist::PinRef;
    use macro3d_tech::{libgen::n28_library, CellClass, PinDir};
    use std::sync::Arc;

    fn chain_design(n: usize) -> (Design, Vec<InstId>) {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("chain", lib);
        let pi = d.add_port("in", PinDir::Input, Some(macro3d_netlist::Side::West));
        let po = d.add_port("out", PinDir::Output, Some(macro3d_netlist::Side::East));
        let mut insts = Vec::new();
        let mut prev = d.add_net("n_in");
        d.connect(prev, PinRef::Port(pi));
        for i in 0..n {
            let c = d.add_cell(format!("c{i}"), inv);
            d.connect(prev, PinRef::inst(c, 0));
            prev = d.add_net(format!("w{i}"));
            d.connect(prev, PinRef::inst(c, 1));
            insts.push(c);
        }
        d.connect(prev, PinRef::Port(po));
        (d, insts)
    }

    fn fp(w: f64, h: f64) -> Floorplan {
        Floorplan::new(
            Rect::from_um(0.0, 0.0, w, h),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        )
    }

    fn cfg() -> GlobalPlaceConfig {
        GlobalPlaceConfig {
            backend: PlacerBackend::Analytical,
            ..GlobalPlaceConfig::default()
        }
    }

    #[test]
    fn chain_is_ordered_toward_ports() {
        let (d, insts) = chain_design(64);
        let f = fp(100.0, 24.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = analytical_place(&d, &f, &ports, &cfg());
        let avg = |slice: &[InstId]| -> f64 {
            slice
                .iter()
                .map(|i| p.pos[i.index()].x.0 as f64)
                .sum::<f64>()
                / slice.len() as f64
        };
        let head = avg(&insts[..16]);
        let tail = avg(&insts[48..]);
        assert!(
            head < tail,
            "chain head at {head} should precede tail at {tail}"
        );
    }

    #[test]
    fn all_cells_inside_die() {
        let (d, _) = chain_design(200);
        let f = fp(60.0, 60.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = analytical_place(&d, &f, &ports, &cfg());
        for i in d.inst_ids() {
            assert!(
                f.die()
                    .inflate(Dbu::from_um(0.1))
                    .contains_rect(p.rect(&d, i)),
                "cell {} at {:?} escapes die",
                i,
                p.pos[i.index()]
            );
        }
    }

    #[test]
    fn beats_random_and_rivals_bisection_hpwl() {
        use rand::{Rng, SeedableRng};
        let (d, _) = chain_design(300);
        let f = fp(100.0, 40.0);
        let ports = PortPlan::assign(&d, f.die());
        let placed = analytical_place(&d, &f, &ports, &cfg());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        let mut random = Placement::new(&d);
        for i in d.inst_ids() {
            random.pos[i.index()] =
                Point::from_um(rng.gen_range(0.0..100.0), rng.gen_range(0.0..40.0));
        }
        let analytical = total_hpwl(&d, &placed, &ports).0;
        assert!(
            analytical * 2 < total_hpwl(&d, &random, &ports).0,
            "analytical {} vs random {}",
            analytical,
            total_hpwl(&d, &random, &ports)
        );
    }

    #[test]
    fn spreads_cells_below_target_overflow() {
        let (d, insts) = chain_design(400);
        let f = fp(80.0, 48.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = analytical_place(&d, &f, &ports, &cfg());
        // more than half the bins of an 8×8 coverage grid are used
        let mut seen = std::collections::HashSet::new();
        for &i in &insts {
            let c = p.center(&d, i);
            seen.insert(((c.x.0 * 8 / 80_000).min(7), (c.y.0 * 8 / 48_000).min(7)));
        }
        assert!(seen.len() > 16, "cells collapsed into {} bins", seen.len());
    }

    #[test]
    fn tiny_designs_fall_back_to_bisection() {
        let (d, _) = chain_design(4);
        let f = fp(30.0, 12.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = analytical_place(&d, &f, &ports, &cfg());
        for i in d.inst_ids() {
            assert!(f
                .die()
                .inflate(Dbu::from_um(1.0))
                .contains(p.pos[i.index()]));
        }
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        use macro3d_par::{BudgetScope, FlowBudget};
        let (d, _) = chain_design(100);
        let f = fp(60.0, 24.0);
        let ports = PortPlan::assign(&d, f.die());
        let budget = FlowBudget::unlimited().with_cap("place/nesterov_iters", 3);
        let scope = BudgetScope::begin(&budget, None);
        let p = analytical_place(&d, &f, &ports, &cfg());
        let report = scope.finish();
        assert!(report.is_degraded(), "cap must surface as degradation");
        assert_eq!(report.stages[0].site, "place/nesterov_iters");
        for i in d.inst_ids() {
            assert!(f
                .die()
                .inflate(Dbu::from_um(1.0))
                .contains(p.pos[i.index()]));
        }
    }
}
