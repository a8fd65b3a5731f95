//! Bit pins of what the reduced transient's samples feed: the `(peak,
//! t_peak)` bits of every Fig. 3 network under both glitch polarities, and
//! the sign-off bytes of three fields whose linear drivers run the modal
//! solver — 192 short tiles, 1–3 mm tiles, and a fine-mesh field.
//!
//! The digests were recorded from the walk that stepped every linear run to
//! `tstop` at `hmax`. The settle rule ends that walk early, once no later
//! sample can leave a `vtol`-band around its final value; a peak larger than
//! that band keeps its bits and its time, and so every byte here. Re-record
//! a digest only by running this file against a checkout of the code it
//! pins, never from new code. All four were re-recorded once, when the
//! reduction began to stop at the Padé order a cluster needs (the order
//! sweep in `oracle_sweep.rs` judges what that moved). The Fig. 3 bits and
//! the two tiled fields were re-recorded once more when every walk began to
//! hold its DC point up to the first aggressor edge: the state there is the
//! DC point itself rather than a re-converged copy, which moves later
//! samples by rounding; the fine mesh kept its bytes. All four were
//! re-recorded when steps began to be sized by their truncation error,
//! which moves every sample time (`oracle_sweep.rs`'s refined record judges
//! what that moved).

use pcv_designs::extract::{extract, WireGeom};
use pcv_designs::random::{random_cluster, RandomClusterConfig};
use pcv_designs::Technology;
use pcv_engine::{Engine, EngineConfig, Fnv1a, ResidentChip, RunRequest};
use pcv_netlist::{PNetId, ParasiticDb};
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{AnalysisContext, AnalysisOptions, PreparedCluster};

/// The Fig. 3 population's size.
const CASES: usize = 113;

/// Fig. 3's `(peak, t_peak)` bits over all 113 networks, rising then
/// falling, and how many runs end within their margin: a final sample
/// `y∞` with `|peak| ≤ |y∞ − baseline| + vtol`, the runs whose peak the
/// settle rule does not vouch for.
#[test]
fn fig3_peaks_keep_their_bits() {
    let opts = AnalysisOptions::default();
    let mut h = Fnv1a::new();
    let mut within_margin = 0;
    for i in 0..CASES {
        let cfg = RandomClusterConfig {
            n_aggressors: 2 + i % 11,
            seed: 1000 + i as u64,
            ..Default::default()
        };
        let cl = random_cluster(&cfg, &Technology::c025());
        let ctx = AnalysisContext::fixed_resistance(&cl.db, 1000.0);
        let prune = PruneConfig { cap_ratio: 0.0, max_aggressors: 12 };
        let cluster = prune_victim(&cl.db, cl.victim, &prune);
        let mut prepared = PreparedCluster::new(&ctx, &cluster, &opts);
        for rising in [true, false] {
            let g = prepared.glitch(&ctx, rising, &opts).expect("mpvl analysis");
            h.write(&g.peak.to_bits().to_le_bytes());
            h.write(&g.t_peak.to_bits().to_le_bytes());
            let baseline = if rising { 0.0 } else { opts.vdd };
            let last = *g.waveform.values().last().expect("samples");
            if g.peak.abs() <= (last - baseline).abs() + pcv_mor::sim::VTOL {
                within_margin += 1;
            }
        }
    }
    eprintln!("fig3: {within_margin} of {} runs within the settle margin", 2 * CASES);
    assert_eq!(within_margin, 0, "a peak the settle rule does not vouch for");
    assert_eq!(h.finish(), FIG3_PEAKS, "fig3 (peak, t_peak) bits moved");
}

const FIG3_PEAKS: u64 = 0x511e_2fa9_baf1_c46c;

/// `groups` bundles of `wires` minimum-pitch wires six empty tracks apart,
/// group lengths evenly spread over `len` (metres) in a fixed shuffled
/// order, extracted at segment length `seg`.
fn field(groups: usize, wires: usize, len: (f64, f64), seg: f64) -> ParasiticDb {
    let tech = Technology::c025();
    let mut geom = Vec::with_capacity(groups * wires);
    for g in 0..groups {
        let slot = (g * 37) % groups;
        let l = len.0 + (len.1 - len.0) * (slot as f64 + 0.5) / groups as f64;
        for w in 0..wires {
            let track = (g * (wires + 6) + w) as i64;
            geom.push(WireGeom::min_width(format!("g{g}_w{w}"), track, 0.0, l, &tech));
        }
    }
    extract(&geom, &tech, seg)
}

/// The FNV-1a digest of `db`'s sign-off, every net a victim, 1 kΩ drivers.
fn signoff_digest(db: &ParasiticDb) -> u64 {
    let victims: Vec<PNetId> = (0..db.num_nets()).map(PNetId).collect();
    let chip = ResidentChip::fixed_resistance(db.clone(), 1000.0, victims);
    let report = Engine::new(EngineConfig { workers: 2, ..Default::default() })
        .run(RunRequest::resident(&chip))
        .unwrap();
    assert!(report.errors.is_empty() && report.degradations.is_empty());
    let mut h = Fnv1a::new();
    h.write(report.signoff_json().as_bytes());
    h.finish()
}

#[test]
fn a_field_of_192_short_tiles_keeps_its_signoff_bytes() {
    let db = field(192, 4, (400e-6, 600e-6), 25e-6);
    assert_eq!(signoff_digest(&db), TILES_192, "sign-off bytes moved");
}

const TILES_192: u64 = 0x710b_bc9e_68ba_c317;

#[test]
fn a_field_of_long_tiles_keeps_its_signoff_bytes() {
    let db = field(12, 3, (1e-3, 3e-3), 50e-6);
    assert_eq!(signoff_digest(&db), LONG_TILES, "sign-off bytes moved");
}

const LONG_TILES: u64 = 0xec4a_2ef0_9ef1_e06a;

#[test]
fn a_fine_mesh_field_keeps_its_signoff_bytes() {
    let db = field(2, 4, (200e-6, 300e-6), 2.5e-6);
    assert_eq!(signoff_digest(&db), FINE_MESH, "sign-off bytes moved");
}

const FINE_MESH: u64 = 0x79ca_093d_55f3_b899;
