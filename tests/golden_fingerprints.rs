//! Golden PPA fingerprints: every flow, both placer backends, on the
//! mini tile (tier-1) and the large-cache bench tile at scale 64
//! (`#[ignore]`, ~6.5 min in release). Refactors of the flow plumbing
//! must leave every value unchanged.
//!
//! Run the large cases with
//! `cargo test --release --test golden_fingerprints -- --ignored`.

use macro3d::flows::all_flows;
use macro3d::{ppa_fingerprint, FlowConfig, PlacerBackend};
use macro3d_soc::{generate_tile, TileConfig};

/// Flow names in [`all_flows`] order, for readable failures.
const FLOWS: [&str; 5] = ["2D", "MoL S2D", "BF S2D", "C2D", "Macro-3D"];

fn check(tile_cfg: &TileConfig, backend: PlacerBackend, golden: [u64; 5]) {
    let tile = generate_tile(tile_cfg);
    let mut cfg = FlowConfig::default();
    cfg.place.backend = backend;
    let got: Vec<String> = all_flows()
        .iter()
        .map(|flow| format!("{:016x}", ppa_fingerprint(&flow.run(&tile, &cfg).ppa)))
        .collect();
    let want: Vec<String> = golden.iter().map(|g| format!("{g:016x}")).collect();
    for ((name, g), w) in FLOWS.iter().zip(&got).zip(&want) {
        println!("{backend:?} {name}: {g} (golden {w})");
    }
    assert_eq!(got, want, "fingerprints for {FLOWS:?} with {backend:?}");
}

#[test]
fn mini_bisection() {
    check(
        &TileConfig::mini(),
        PlacerBackend::Bisection,
        [
            0xcad4ad03c56bed1b,
            0x8b301a13edc87d01,
            0xdb33f2771d8624ed,
            0xea33457e0d3b9f97,
            0x6f00d1ad1a17e8ef,
        ],
    );
}

#[test]
fn mini_analytical() {
    check(
        &TileConfig::mini(),
        PlacerBackend::Analytical,
        [
            0x46d609de92610fef,
            0xf3b976a0a11534f5,
            0xcbd8795be3c00481,
            0x9a5a7f0a6ef45199,
            0x1fea5b790b6827ee,
        ],
    );
}

#[test]
#[ignore = "large64 tile: ~3 min per backend in release"]
fn large64_bisection() {
    check(
        &TileConfig::large_cache().with_scale(64.0),
        PlacerBackend::Bisection,
        [
            0x8444bbae943faaa3,
            0xc7d2824ec4e19954,
            0x4692afa04993a8ad,
            0xe81d6f79136bfc7c,
            0xd755398c5faa407e,
        ],
    );
}

#[test]
#[ignore = "large64 tile: ~3 min per backend in release"]
fn large64_analytical() {
    check(
        &TileConfig::large_cache().with_scale(64.0),
        PlacerBackend::Analytical,
        [
            0x0e19b04ec02b9769,
            0x353676bd35c7c89d,
            0x937e85ecdac7d43f,
            0xeea7d3151f2bfebd,
            0x61140054265e400f,
        ],
    );
}
