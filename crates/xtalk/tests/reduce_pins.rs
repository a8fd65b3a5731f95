//! Bit pins of a cluster's way through the reduction: what `build_cluster`
//! assembles (members, offsets, ports, resistor and capacitor lists), the
//! `(G, C)` matrices `RcCluster` stamps from it, and the `(T, ρ)` SyMPVL
//! reduces them to — FNV-1a digests over every victim of a DSP block, a
//! tiled field and a fine-mesh field, plus a cluster whose `C` is not
//! bitwise its own transpose.
//!
//! The digests were recorded from the kernels these replaced (the
//! two-walk stamp assembly, the column-scatter `C` product, the unfused
//! Gram–Schmidt panel pass, the `position`-lookup cluster build) and must
//! not move: re-record one only by running this file against a checkout of
//! the code it pins, never from new code. The `(T, ρ)` digests were
//! re-recorded once, when the reduction began to stop at the Padé order a
//! cluster needs; the build and matrix digests did not move.

use pcv_cells::library::CellLibrary;
use pcv_designs::dsp::{generate, DspConfig};
use pcv_designs::extract::{extract, WireGeom};
use pcv_designs::Technology;
use pcv_mor::{sympvl, RcCluster};
use pcv_netlist::{PNetId, ParasiticDb};
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{build_cluster, ClusterModel};

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn list(&mut self, xs: &[usize]) {
        self.eat(xs.len() as u64);
        xs.iter().for_each(|&x| self.eat(x as u64));
    }
}

/// The three digests one chip is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    build: u64,
    matrices: u64,
    reduced: u64,
}

fn absorb_build(h: &mut Fnv, m: &ClusterModel) {
    h.eat(m.rc.num_nodes() as u64);
    h.list(&m.members.iter().map(|n| n.0).collect::<Vec<_>>());
    h.list(&m.offsets);
    h.list(m.rc.ports());
    h.list(&m.driver_ports);
    h.eat(m.observe_port as u64);
    for elements in [m.rc.resistors(), m.rc.capacitors()] {
        h.eat(elements.len() as u64);
        for &(a, b, v) in elements {
            h.eat(a as u64);
            h.eat(b as u64);
            h.eat(v.to_bits());
        }
    }
}

fn absorb_matrices(h: &mut Fnv, rc: &RcCluster) {
    for m in [rc.conductance_matrix(), rc.capacitance_matrix()] {
        h.eat(m.nrows() as u64);
        h.list(m.colptr());
        h.list(m.rowidx());
        m.values().iter().for_each(|v| h.eat(v.to_bits()));
    }
}

fn absorb_reduced(h: &mut Fnv, rc: &RcCluster) {
    let rom = sympvl::reduce(rc, 4).expect("the cluster reduces");
    h.eat(rom.order() as u64);
    for m in [rom.t(), rom.rho()] {
        for r in 0..m.nrows() {
            m.row(r).iter().for_each(|v| h.eat(v.to_bits()));
        }
    }
}

/// Every victim of `db`, pruned as the engine prunes and built with a
/// receiver load on two nets in three.
fn digests(db: &ParasiticDb) -> Digests {
    let (mut build, mut matrices, mut reduced) = (Fnv::new(), Fnv::new(), Fnv::new());
    let load = |net: PNetId| if net.0.is_multiple_of(3) { 0.0 } else { 2.5e-15 };
    for v in 0..db.num_nets() {
        let cluster = prune_victim(db, PNetId(v), &PruneConfig::default());
        let model = build_cluster(db, &cluster, &load, false);
        absorb_build(&mut build, &model);
        absorb_matrices(&mut matrices, &model.rc);
        absorb_reduced(&mut reduced, &model.rc);
    }
    Digests { build: build.0, matrices: matrices.0, reduced: reduced.0 }
}

/// `groups` bundles of `wires` minimum-pitch wires six empty tracks apart,
/// extracted at segment length `seg`.
fn field(groups: usize, wires: usize, len: f64, seg: f64) -> ParasiticDb {
    let tech = Technology::c025();
    let mut geom = Vec::new();
    for g in 0..groups {
        for w in 0..wires {
            let track = (g * (wires + 6) + w) as i64;
            let len = len * (1.0 + 0.13 * g as f64);
            geom.push(WireGeom::min_width(format!("g{g}_w{w}"), track, 0.0, len, &tech));
        }
    }
    extract(&geom, &tech, seg)
}

#[test]
fn dsp_block_clusters_keep_their_bits() {
    let cfg = DspConfig { n_buses: 2, bus_bits: 6, n_random_nets: 24, cycle: 10e-9, seed: 11 };
    let db = generate(&cfg, &Technology::c025(), &CellLibrary::standard_025()).parasitics;
    let want = Digests {
        build: 0xfda4_51e2_3162_2dd5,
        matrices: 0x32a5_5b85_a6cd_cc36,
        reduced: 0x7808_393f_b2af_2ae5,
    };
    assert_eq!(digests(&db), want);
}

#[test]
fn tiled_field_clusters_keep_their_bits() {
    let want = Digests {
        build: 0xe525_346a_8f68_e10a,
        matrices: 0xee69_96f8_bc00_2531,
        reduced: 0x1c6c_39c9_c17f_d90b,
    };
    assert_eq!(digests(&field(5, 4, 450e-6, 25e-6)), want);
}

#[test]
fn fine_mesh_clusters_keep_their_bits() {
    let want = Digests {
        build: 0x5944_f880_626f_e382,
        matrices: 0xb079_a5c3_4ef5_3eb5,
        reduced: 0xb504_bf90_159e_41bc,
    };
    assert_eq!(digests(&field(2, 5, 250e-6, 2.5e-6)), want);
}

/// A chain whose hub node couples to every other node: the hub's `C`
/// column takes far more pushes than the 20 up to which the row sort keeps
/// push order, so its sums and those of the hub's row are added in
/// different orders and `C` is not bitwise symmetric.
#[test]
fn a_cluster_whose_c_is_not_its_own_transpose_keeps_its_bits() {
    let mut rng = pcv_rng::Rng::new(0x4B_1B);
    let mut cl = RcCluster::new();
    let nodes: Vec<usize> = (0..48).map(|_| cl.add_node()).collect();
    for w in nodes.windows(2) {
        cl.add_resistor(w[0], w[1], rng.range_f64(5.0, 60.0)).unwrap();
    }
    let hub = nodes[17];
    for round in 0..3 {
        for &nd in &nodes {
            let farads = rng.range_f64(0.1e-15, 6e-15) * 10f64.powi(round - 1);
            cl.add_capacitor(hub, nd, farads).unwrap();
            cl.add_capacitor(nd, hub, farads * 1.0000001).unwrap();
            cl.add_ground_cap(nd, rng.range_f64(0.5e-15, 3e-15)).unwrap();
        }
    }
    for &port in &[nodes[0], nodes[30], nodes[47]] {
        cl.add_port(port);
    }
    let c = cl.capacitance_matrix();
    let asymmetric = (0..c.ncols())
        .flat_map(|col| c.col_iter(col).map(move |(row, v)| (row, col, v)))
        .filter(|&(row, col, v)| v.to_bits() != c.get(col, row).to_bits())
        .count();
    assert!(asymmetric > 0, "the hub's sums must differ from its row's");

    let mut h = Fnv::new();
    absorb_matrices(&mut h, &cl);
    absorb_reduced(&mut h, &cl);
    assert_eq!(h.0, 0x4d66_6444_f2b9_616d);
}
