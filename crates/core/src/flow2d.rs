//! The conventional 2D flow (baseline of every table).
//!
//! Macros are packed around the die periphery (Fig. 4's 2D
//! floorplans), standard cells fill the centre, everything is placed
//! and routed with the six-metal single-die stack, and PPA is signed
//! off at SS / reported at TT. The footprint is exactly twice the 3D
//! footprint (equal total silicon, per the paper's fairness rule).

use crate::build_cache::{cached_stack, design_fingerprint};
use crate::error::FlowError;
use crate::flow::{implement_direct, FlowConfig, ImplementedDesign};
use crate::stage::StageReuse;
use macro3d_geom::Dbu;
use macro3d_place::macro_anneal::{refine_macros_sa, AnnealConfig};
use macro3d_place::macro_place::{pack_bands, pack_ring, pack_shelves};
use macro3d_place::Floorplan;
use macro3d_soc::TileNetlist;
use macro3d_tech::stack::DieRole;

/// Runs the 2D baseline flow and returns the implemented design.
///
/// `reuse` carries the worker's stage-artifact cache (see
/// [`crate::stage`]); matched floorplan/place prefixes re-enter the
/// flow downstream on deep clones of the previous run's snapshots.
///
/// # Errors
///
/// Returns [`FlowError::Floorplan`] if the macros cannot be packed on
/// the computed die (cannot happen for the paper's configurations
/// with default utilization targets) and [`FlowError::Injected`] when
/// the active fault plan injects an error at a flow gate.
pub(crate) fn implement(
    tile: &TileNetlist,
    cfg: &FlowConfig,
    reuse: Option<&mut StageReuse<'_>>,
) -> Result<ImplementedDesign, FlowError> {
    // 2x the 3D footprint: same silicon area in both styles
    implement_direct(tile, cfg, reuse, 2.0, false, |d, budget, die| {
        let lib = d.library();
        let halo = Dbu::from_um(cfg.halo_um);
        let mut fp = Floorplan::new(die, lib.row_height(), lib.site_width());
        let macros: Vec<_> = d.inst_ids().filter(|&i| d.is_macro(i)).collect();
        // macro-light dies use the periphery ring (small-cache
        // Fig. 4); macro-heavy dies interleave macro bands with cell
        // strips (large-cache Fig. 5), which keeps wire detours short
        let macro_fraction = budget.macro_um2 / (budget.macro_um2 + budget.cell_um2);
        let cell_fraction = (budget.cell_um2 / cfg.util_logic)
            / (budget.cell_um2 / cfg.util_logic + budget.macro_um2 / cfg.util_macro);
        let fp_key = format!(
            "fp-2d/{:016x}/{die:?}/{halo:?}/{:.6}/{:.6}",
            design_fingerprint(d),
            macro_fraction,
            cell_fraction
        );
        let placements = crate::build_cache::global().try_get_or_build(&fp_key, || {
            let mut packed = if macro_fraction > 0.7 {
                pack_bands(d, &macros, die, halo, cell_fraction.min(0.9))
                    .or_else(|| pack_ring(d, &macros, die, halo))
            } else {
                pack_ring(d, &macros, die, halo)
            }
            .or_else(|| pack_shelves(d, &macros, die, halo, DieRole::Logic))
            .ok_or_else(|| FlowError::Floorplan {
                stage: "2d/macro_pack",
                detail: format!(
                    "{} macros do not fit the {:.0}x{:.0}um 2D die",
                    macros.len(),
                    die.width().to_um(),
                    die.height().to_um()
                ),
            })?;
            // same floorplan-optimization step as the 3D flows
            refine_macros_sa(d, &mut packed, die, halo, &AnnealConfig::default());
            Ok::<_, FlowError>(packed)
        })?;
        for &mp in placements.iter() {
            fp.add_macro(mp, DieRole::Logic, halo);
        }
        let stack = (*cached_stack(cfg.logic_metals, DieRole::Logic)).clone();
        Ok((fp, stack))
    })
}
