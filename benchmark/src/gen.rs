//! Seeded input generators: the same seed gives the same inputs, byte for
//! byte; the program under test receives only what these produce.

use pcv_designs::extract::{extract, WireGeom};
use pcv_designs::Technology;
use pcv_netlist::{NetParasitics, PNetId, ParasiticDb};
use pcv_rng::Rng;

/// Empty routing tracks between wire groups: past the extractor's coupling
/// cutoff, so groups are independent clusters.
const GROUP_GAP: usize = 6;

/// `groups` bundles of `wires` minimum-pitch parallel wires. Group lengths
/// are the `groups` evenly spaced values across `len_range` (metres) in a
/// seeded order: every seed gives a different chip with exactly the same
/// total wire, so the work — and with it every timing — does not move
/// with the seed, only with the program. Nets are named `g{group}_w{wire}`.
fn wire_groups(
    rng: &mut Rng,
    groups: usize,
    wires: usize,
    len_range: (f64, f64),
    tech: &Technology,
) -> Vec<WireGeom> {
    let mut order: Vec<usize> = (0..groups).collect();
    shuffle(rng, &mut order);
    let mut out = Vec::with_capacity(groups * wires);
    for (g, slot) in order.into_iter().enumerate() {
        let len = len_range.0 + (len_range.1 - len_range.0) * (slot as f64 + 0.5) / groups as f64;
        for w in 0..wires {
            let track = (g * (wires + GROUP_GAP) + w) as i64;
            out.push(WireGeom::min_width(format!("g{g}_w{w}"), track, 0.0, len, tech));
        }
    }
    out
}

/// Fisher–Yates.
fn shuffle(rng: &mut Rng, items: &mut [usize]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(0, i + 1));
    }
}

/// The `mesh_cold` chip: long parallel wires extracted at a fine, fixed
/// segment length, so every net carries thousands of RC nodes — what real
/// extracted parasitics look like, and what makes the sparse factorization
/// and the Krylov reduction (not the reduced transient) the dominant cost.
pub fn mesh_field(
    seed: u64,
    groups: usize,
    wires: usize,
    len: (f64, f64),
    seg: f64,
) -> ParasiticDb {
    let tech = Technology::c025();
    let mut rng = Rng::new(seed ^ 0x6d65_7368);
    extract(&wire_groups(&mut rng, groups, wires, len, &tech), &tech, seg)
}

/// The tiled field of `eco_edit` and `served_shard2`: `tiles` decoupled
/// 4-wire tiles, tile lengths spread over 400–600 µm, about twenty
/// segments a wire — many small clusters, so per-victim bookkeeping
/// (prune, fingerprint, cache, journal) weighs as much as the numerics.
pub fn tiled_field(seed: u64, tiles: usize) -> ParasiticDb {
    let tech = Technology::c025();
    let mut rng = Rng::new(seed ^ 0x7469_6c65);
    let wires = wire_groups(&mut rng, tiles, TILE_WIRES, (400e-6, 600e-6), &tech);
    // One segment length for the whole field, as one extraction run has.
    extract(&wires, &tech, 25e-6)
}

/// Wires per tile in [`tiled_field`].
pub const TILE_WIRES: usize = 4;

/// Every net of `db` as a victim, in database order.
pub fn all_victims(db: &ParasiticDb) -> Vec<PNetId> {
    (0..db.num_nets()).map(PNetId).collect()
}

/// A seeded sample of `k` distinct indices below `n`, ascending (all of
/// them when `k >= n`) — the victims the layer replay walks.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    if k >= n {
        return idx;
    }
    let mut rng = Rng::new(seed ^ 0x7361_6d70);
    // Partial Fisher–Yates: the first k slots become the sample.
    for i in 0..k {
        let j = rng.range_usize(i, n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// The ECO edit sequence over a [`tiled_field`]: edit `i` scales one
/// ground capacitor of one wire in a tile no earlier edit touched.
#[derive(Debug, Clone)]
pub struct EcoEdits {
    order: Vec<usize>,
    rng: Rng,
    next: usize,
}

impl EcoEdits {
    /// Tiles are drawn without replacement from a seeded permutation.
    pub fn new(seed: u64, tiles: usize) -> Self {
        EcoEdits {
            order: {
                let mut order: Vec<usize> = (0..tiles).collect();
                shuffle(&mut Rng::new(seed ^ 0x6564_6974), &mut order);
                order
            },
            rng: Rng::new(seed ^ 0x7769_7265),
            next: 0,
        }
    }

    /// Apply the next edit to `db` in place and return the edited net's
    /// name: its first ground capacitor grows by 1 % — what a SPEF
    /// re-extraction of a one-net fix produces.
    ///
    /// # Panics
    ///
    /// Panics once every tile has been edited (the repetition counts are
    /// fixed well below the tile count).
    pub fn apply_next(&mut self, db: &mut ParasiticDb) -> String {
        let tile = self.order[self.next];
        self.next += 1;
        let name = format!("g{tile}_w{}", self.rng.range_usize(0, TILE_WIRES));
        let id = db.find_net(&name).expect("edited net exists");
        let old = db.net(id);
        let (node, farads) = *old.ground_caps().first().expect("net has a ground cap");
        // Parasitics are append-only by design: rebuild the one net.
        let mut net = NetParasitics::new(old.name());
        for _ in 1..old.num_nodes() {
            net.add_node();
        }
        for &(a, b, ohms) in old.resistors() {
            net.add_resistor(a, b, ohms);
        }
        let mut scaled = false;
        for &(n, c) in old.ground_caps() {
            let hit = !scaled && n == node && c == farads;
            scaled |= hit;
            net.add_ground_cap(n, if hit { c * 1.01 } else { c });
        }
        for &n in old.load_nodes() {
            net.mark_load(n);
        }
        *db.net_mut(id) = net;
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::spef::write_spef;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let a = write_spef(&tiled_field(1, 6));
        assert_eq!(a, write_spef(&tiled_field(1, 6)));
        assert_ne!(a, write_spef(&tiled_field(2, 6)));
        let m = write_spef(&mesh_field(1, 6, 2, (100e-6, 200e-6), 10e-6));
        assert_eq!(m, write_spef(&mesh_field(1, 6, 2, (100e-6, 200e-6), 10e-6)));
        assert_ne!(m, write_spef(&mesh_field(2, 6, 2, (100e-6, 200e-6), 10e-6)));
    }

    #[test]
    fn every_seed_lays_out_the_same_total_wire() {
        let nodes = |seed| -> usize {
            let db = tiled_field(seed, 12);
            db.iter().map(|(_, net)| net.num_nodes()).sum()
        };
        assert_eq!(nodes(1), nodes(2));
        assert_eq!(nodes(1), nodes(99));
    }

    #[test]
    fn tiles_are_decoupled_and_wires_within_a_tile_couple() {
        let db = tiled_field(3, 4);
        assert_eq!(db.num_nets(), 4 * TILE_WIRES);
        for c in db.couplings() {
            let tile = |id: PNetId| db.net(id).name().split('_').next().unwrap().to_owned();
            assert_eq!(tile(c.a.net), tile(c.b.net), "coupling crosses tiles");
        }
        assert!(!db.couplings().is_empty());
    }

    #[test]
    fn victim_samples_are_seeded_distinct_and_sorted() {
        let a = sample_indices(1, 100, 16);
        assert_eq!(a, sample_indices(1, 100, 16));
        assert_ne!(a, sample_indices(2, 100, 16));
        assert_eq!(a.len(), 16);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&i| i < 100));
        assert_eq!(sample_indices(1, 5, 16), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn eco_edits_touch_each_tile_once_and_change_one_value() {
        let base = tiled_field(5, 8);
        let mut db = base.clone();
        let mut edits = EcoEdits::new(5, 8);
        let mut tiles = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let before = write_spef(&db);
            let name = edits.apply_next(&mut db);
            assert!(tiles.insert(name.split('_').next().unwrap().to_owned()), "tile reused");
            let after = write_spef(&db);
            let changed = before.lines().zip(after.lines()).filter(|(a, b)| a != b).count();
            assert_eq!(changed, 1, "one edit changes exactly one SPEF line");
        }
        let replay: Vec<String> = {
            let mut db = base.clone();
            let mut e = EcoEdits::new(5, 8);
            (0..8).map(|_| e.apply_next(&mut db)).collect()
        };
        let mut again = EcoEdits::new(5, 8);
        let mut db2 = base;
        assert_eq!(replay, (0..8).map(|_| again.apply_next(&mut db2)).collect::<Vec<_>>());
    }
}
