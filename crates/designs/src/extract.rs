//! Track-based wire geometry and RC extraction.
//!
//! Wires run horizontally on routing *tracks* (integer y positions at one
//! pitch each). Extraction segments every wire into RC sections and builds
//! coupling capacitors between vertically adjacent wires over their overlap
//! length — producing the "RC equivalent circuit form" (grounded plus
//! coupling capacitors) that the paper's flow starts from.

use crate::tech::Technology;
use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};

/// A routed wire: a horizontal segment on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct WireGeom {
    /// Net name (must be unique per extraction).
    pub name: String,
    /// Track index (vertical position in pitches).
    pub track: i64,
    /// Start abscissa (meters); the driver pin sits here.
    pub x0: f64,
    /// End abscissa (meters); the receiver pin sits here.
    pub x1: f64,
    /// Wire width (meters).
    pub width: f64,
}

impl WireGeom {
    /// A minimum-width wire.
    ///
    /// # Panics
    ///
    /// Panics unless `x1 > x0`.
    pub fn min_width(
        name: impl Into<String>,
        track: i64,
        x0: f64,
        x1: f64,
        tech: &Technology,
    ) -> Self {
        assert!(x1 > x0, "wire must have positive extent");
        WireGeom { name: name.into(), track, x0, x1, width: tech.min_width }
    }

    /// Wire length (meters).
    pub fn length(&self) -> f64 {
        self.x1 - self.x0
    }
}

/// Extract a set of routed wires into a parasitic database.
///
/// `seg_len` is the maximum RC section length (meters); 25–50 µm resolves
/// nanosecond-edge wave shapes on millimeter wires.
///
/// # Panics
///
/// Panics on non-positive `seg_len`, duplicate wire names, or degenerate
/// wire extents.
pub fn extract(wires: &[WireGeom], tech: &Technology, seg_len: f64) -> ParasiticDb {
    assert!(seg_len > 0.0, "segment length must be positive");
    let mut db = ParasiticDb::new();
    let pitch = tech.min_width + tech.min_spacing;

    // Node positions per wire, for coupling attachment.
    let mut node_positions: Vec<Vec<f64>> = Vec::with_capacity(wires.len());
    let mut ids = Vec::with_capacity(wires.len());

    for w in wires {
        assert!(w.x1 > w.x0, "wire {} has non-positive extent", w.name);
        let len = w.length();
        let nseg = (len / seg_len).ceil().max(1.0) as usize;
        let dl = len / nseg as f64;
        let mut net = NetParasitics::new(w.name.clone());
        let mut positions = vec![w.x0];
        let mut prev = 0usize; // driver node
        for k in 1..=nseg {
            let node = net.add_node();
            positions.push(w.x0 + dl * k as f64);
            net.add_resistor(prev, node, tech.wire_resistance(dl, w.width));
            prev = node;
        }
        // Grounded capacitance lumped at nodes: half-sections at the ends.
        for (idx, _) in positions.iter().enumerate() {
            let span = if idx == 0 || idx == nseg { dl / 2.0 } else { dl };
            let c = tech.ground_cap(span, w.width);
            if c > 0.0 {
                net.add_ground_cap(idx, c);
            }
        }
        net.mark_load(prev);
        ids.push(db.add_net(net));
        node_positions.push(positions);
    }

    // Coupling between wires on nearby tracks.
    for i in 0..wires.len() {
        for j in (i + 1)..wires.len() {
            let (a, b) = (&wires[i], &wires[j]);
            let dt = (a.track - b.track).unsigned_abs() as f64;
            if dt == 0.0 {
                continue; // same track: no lateral coupling modeled
            }
            let spacing = dt * pitch - 0.5 * (a.width + b.width);
            if spacing <= 0.0 {
                continue;
            }
            let lo = a.x0.max(b.x0);
            let hi = a.x1.min(b.x1);
            if hi <= lo {
                continue;
            }
            // Chunk the overlap and hang each chunk's coupling between the
            // nearest nodes of the two wires.
            let chunks = (((hi - lo) / seg_len).ceil()).max(1.0) as usize;
            let dl = (hi - lo) / chunks as f64;
            let cc = tech.coupling_cap(dl, spacing);
            if cc <= 0.0 {
                continue;
            }
            for k in 0..chunks {
                let mid = lo + dl * (k as f64 + 0.5);
                let na = nearest_node(&node_positions[i], mid);
                let nb = nearest_node(&node_positions[j], mid);
                db.add_coupling(
                    NetNodeRef { net: ids[i], node: na },
                    NetNodeRef { net: ids[j], node: nb },
                    cc,
                );
            }
        }
    }
    db
}

/// Fold grounded (shield) nets into the rest of the database: every
/// coupling capacitor touching a folded net becomes a grounded capacitor at
/// its other terminal, and the folded nets disappear.
///
/// Shield wires are tied to the supply rails, so electrically their
/// coupling is just extra ground capacitance for their neighbors — this is
/// how extraction flows model shielding.
///
/// # Panics
///
/// Panics if a named net does not exist.
pub fn fold_grounded_nets(db: &ParasiticDb, grounded: &[&str]) -> ParasiticDb {
    use std::collections::HashSet;
    let fold: HashSet<_> = grounded
        .iter()
        .map(|n| db.find_net(n).unwrap_or_else(|| panic!("unknown net {n}")))
        .collect();
    let mut out = ParasiticDb::new();
    // Copy kept nets, remembering new ids.
    let mut remap = std::collections::HashMap::new();
    for (id, net) in db.iter() {
        if fold.contains(&id) {
            continue;
        }
        remap.insert(id, out.add_net(net.clone()));
    }
    for c in db.couplings() {
        match (fold.contains(&c.a.net), fold.contains(&c.b.net)) {
            (false, false) => {
                out.add_coupling(
                    NetNodeRef { net: remap[&c.a.net], node: c.a.node },
                    NetNodeRef { net: remap[&c.b.net], node: c.b.node },
                    c.farads,
                );
            }
            (false, true) => {
                out.net_mut(remap[&c.a.net]).add_ground_cap(c.a.node, c.farads);
            }
            (true, false) => {
                out.net_mut(remap[&c.b.net]).add_ground_cap(c.b.node, c.farads);
            }
            (true, true) => {}
        }
    }
    out
}

/// Index of the position nearest to `x`; among equally near ones, the first.
/// `positions` ascends (a wire's nodes from driver to receiver) and is not
/// empty, so only the two neighbours of `x` can be nearest.
fn nearest_node(positions: &[f64], x: f64) -> usize {
    let dist = |k: usize| (positions[k] - x).abs();
    let above = positions.partition_point(|&p| p < x);
    let mut best = above.min(positions.len() - 1);
    if above > 0 && dist(above - 1) <= dist(best) {
        best = above - 1;
    }
    // Repeated positions, or differences that round to one distance.
    while best > 0 && dist(best - 1) == dist(best) {
        best -= 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::c025()
    }

    /// The linear scan `nearest_node` replaced: the first index attaining
    /// the minimum distance.
    fn nearest_by_scan(positions: &[f64], x: f64) -> usize {
        let mut best = 0usize;
        let mut dist = f64::INFINITY;
        for (k, &p) in positions.iter().enumerate() {
            let d = (p - x).abs();
            if d < dist {
                dist = d;
                best = k;
            }
        }
        best
    }

    #[test]
    fn nearest_node_picks_what_the_scan_picked() {
        let mut rng = pcv_rng::Rng::new(0xe87_4ac7);
        for case in 0..400 {
            // Ascending positions on grids from 1 to 1e-9 wide, some repeated.
            let scale = 10f64.powi(-(case % 10));
            let origin = rng.range_f64(-2.0, 2.0) * scale;
            let mut positions = vec![origin];
            for _ in 0..rng.range_usize(0, 40) {
                let step = if rng.bool_with(0.2) { 0.0 } else { rng.range_f64(0.0, 1.0) * scale };
                positions.push(positions.last().unwrap() + step);
            }
            let (first, last) = (positions[0], *positions.last().unwrap());
            let mut probes = vec![
                first - scale,
                last + scale,
                first - 1e9,
                last + 1e9,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::NAN,
            ];
            for pair in positions.windows(2) {
                // Exact midpoints tie the two neighbours; the lower wins.
                probes.extend([pair[0], 0.5 * (pair[0] + pair[1]), pair[1]]);
            }
            probes.extend((0..20).map(|_| rng.range_f64(first - scale, last + scale)));
            for x in probes {
                assert_eq!(
                    nearest_node(&positions, x),
                    nearest_by_scan(&positions, x),
                    "case {case}: x = {x:e} in {positions:?}"
                );
            }
        }
    }

    /// FNV-1a over the SPEF text of a database: every name, node, value
    /// digit and the order of every record.
    fn spef_hash(db: &ParasiticDb) -> (usize, u64) {
        let text = pcv_netlist::spef::write_spef(db);
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (text.len(), hash)
    }

    #[test]
    fn extraction_bytes_are_those_of_the_linear_scan() {
        // Pinned at the commit before `nearest_node` went from a scan over
        // every node to a bracket: the DSP block, and long wires with
        // staggered overlaps extracted at 2.5 um (about 500 nodes a wire).
        let t = tech();
        let lib = pcv_cells::library::CellLibrary::standard_025();
        let dsp = crate::dsp::generate(&crate::dsp::DspConfig::default(), &t, &lib);
        assert_eq!(spef_hash(&dsp.parasitics), DSP_PIN);
        let wires: Vec<WireGeom> = (0..6)
            .map(|k| {
                let x0 = 37.3e-6 * k as f64;
                WireGeom::min_width(
                    format!("m{k}"),
                    k % 4,
                    x0,
                    x0 + 1.2e-3 + 11.1e-6 * k as f64,
                    &t,
                )
            })
            .collect();
        assert_eq!(spef_hash(&extract(&wires, &t, 2.5e-6)), MESH_PIN);
    }

    const DSP_PIN: (usize, u64) = (788_671, 10_071_246_783_915_506_304);
    const MESH_PIN: (usize, u64) = (418_823, 7_271_754_169_350_146_753);

    #[test]
    fn single_wire_totals_match_analytic() {
        let t = tech();
        let len = 1000e-6;
        let w = WireGeom::min_width("a", 0, 0.0, len, &t);
        let db = extract(&[w], &t, 50e-6);
        let id = db.find_net("a").unwrap();
        let net = db.net(id);
        assert_eq!(net.num_nodes(), 21); // 20 segments + driver
        let r_total = net.total_resistance();
        let r_exact = t.wire_resistance(len, t.min_width);
        assert!((r_total - r_exact).abs() / r_exact < 1e-9);
        let c_total = net.total_ground_cap();
        let c_exact = t.ground_cap(len, t.min_width);
        assert!((c_total - c_exact).abs() / c_exact < 1e-9);
        assert_eq!(net.load_nodes(), &[20]);
    }

    #[test]
    fn adjacent_wires_couple_fully_over_overlap() {
        let t = tech();
        let len = 500e-6;
        let a = WireGeom::min_width("a", 0, 0.0, len, &t);
        let b = WireGeom::min_width("b", 1, 0.0, len, &t);
        let db = extract(&[a, b], &t, 25e-6);
        let ia = db.find_net("a").unwrap();
        let cc = db.total_coupling_cap(ia);
        let exact = t.coupling_cap(len, t.min_spacing);
        assert!((cc - exact).abs() / exact < 1e-9, "{cc} vs {exact}");
    }

    #[test]
    fn partial_overlap_couples_partially() {
        let t = tech();
        let a = WireGeom::min_width("a", 0, 0.0, 400e-6, &t);
        let b = WireGeom::min_width("b", 1, 300e-6, 700e-6, &t);
        let db = extract(&[a, b], &t, 25e-6);
        let cc = db.total_coupling_cap(db.find_net("a").unwrap());
        let exact = t.coupling_cap(100e-6, t.min_spacing);
        assert!((cc - exact).abs() / exact < 1e-9);
    }

    #[test]
    fn distant_tracks_do_not_couple() {
        let t = tech();
        let a = WireGeom::min_width("a", 0, 0.0, 400e-6, &t);
        let b = WireGeom::min_width("b", 30, 0.0, 400e-6, &t);
        let db = extract(&[a, b], &t, 25e-6);
        assert_eq!(db.couplings().len(), 0);
    }

    #[test]
    fn second_neighbor_couples_weaker() {
        let t = tech();
        let a = WireGeom::min_width("a", 0, 0.0, 400e-6, &t);
        let b = WireGeom::min_width("b", 1, 0.0, 400e-6, &t);
        let c = WireGeom::min_width("c", 2, 0.0, 400e-6, &t);
        let db = extract(&[a, b, c], &t, 25e-6);
        let ia = db.find_net("a").unwrap();
        let nbrs = db.neighbors(ia);
        assert_eq!(nbrs.len(), 2);
        let (first, second) = (nbrs[0].1, nbrs[1].1);
        assert!(first > 2.0 * second, "{first} vs {second}");
    }

    #[test]
    fn coupling_attaches_along_the_wire_not_just_ends() {
        let t = tech();
        let a = WireGeom::min_width("a", 0, 0.0, 1000e-6, &t);
        let b = WireGeom::min_width("b", 1, 0.0, 1000e-6, &t);
        let db = extract(&[a, b], &t, 50e-6);
        // Many distinct coupling caps, touching interior nodes.
        assert!(db.couplings().len() >= 15);
        let interior = db.couplings().iter().filter(|c| c.a.node > 0 && c.a.node < 20).count();
        assert!(interior > 10);
    }

    #[test]
    fn folding_converts_coupling_to_ground_cap() {
        let t = tech();
        let a = WireGeom::min_width("a", 0, 0.0, 400e-6, &t);
        let sh = WireGeom::min_width("sh", 1, 0.0, 400e-6, &t);
        let b = WireGeom::min_width("b", 2, 0.0, 400e-6, &t);
        let raw = extract(&[a, sh, b], &t, 25e-6);
        let folded = fold_grounded_nets(&raw, &["sh"]);
        assert_eq!(folded.num_nets(), 2);
        let fa = folded.find_net("a").unwrap();
        // a's coupling to the shield became grounded capacitance.
        let raw_a = raw.find_net("a").unwrap();
        let shield_cc = raw
            .couplings_of(raw_a)
            .filter(|c| {
                let other = if c.a.net == raw_a { c.b.net } else { c.a.net };
                raw.net(other).name() == "sh"
            })
            .map(|c| c.farads)
            .sum::<f64>();
        let delta = folded.net(fa).total_ground_cap() - raw.net(raw_a).total_ground_cap();
        assert!((delta - shield_cc).abs() < 1e-28, "{delta} vs {shield_cc}");
        // Direct a<->b coupling (2 tracks apart) is preserved.
        let direct_raw: f64 = raw
            .couplings_of(raw_a)
            .filter(|c| {
                let other = if c.a.net == raw_a { c.b.net } else { c.a.net };
                raw.net(other).name() == "b"
            })
            .map(|c| c.farads)
            .sum();
        assert!((folded.total_coupling_cap(fa) - direct_raw).abs() < 1e-28);
    }

    #[test]
    #[should_panic(expected = "unknown net")]
    fn folding_unknown_net_panics() {
        let t = tech();
        let a = WireGeom::min_width("a", 0, 0.0, 100e-6, &t);
        let db = extract(&[a], &t, 25e-6);
        fold_grounded_nets(&db, &["nope"]);
    }

    #[test]
    #[should_panic(expected = "positive extent")]
    fn rejects_degenerate_wire() {
        let t = tech();
        WireGeom::min_width("a", 0, 1e-6, 1e-6, &t);
    }
}
