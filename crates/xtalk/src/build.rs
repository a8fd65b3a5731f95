//! Cluster assembly: from a pruned [`Cluster`] to the [`RcCluster`] the
//! engines analyze.
//!
//! Member nets contribute their wire RC; couplings between members stay as
//! coupling capacitors; couplings to non-members are grounded at the member
//! node (conservative decoupling); receiver pin capacitance is lumped at
//! each net's load nodes. Ports are the driver pin of every member (victim
//! first) plus one observation port at the victim's receiver.

use crate::prune::Cluster;
use pcv_mor::RcCluster;
use pcv_netlist::{PNetId, ParasiticDb};

/// A cluster ready for analysis: the RC network plus the port roles.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    /// The assembled RC network.
    pub rc: RcCluster,
    /// Member nets, victim first (parallel to `driver_ports`).
    pub members: Vec<PNetId>,
    /// Port index of each member's driver pin.
    pub driver_ports: Vec<usize>,
    /// Port index observing the victim's receiver pin.
    pub observe_port: usize,
    /// Node offset of each member inside the flat RC node space.
    pub offsets: Vec<usize>,
}

impl ClusterModel {
    /// Port index of the victim driver.
    pub fn victim_port(&self) -> usize {
        self.driver_ports[0]
    }
}

/// Assemble a cluster.
///
/// `load_cap` returns the total receiver pin capacitance to lump at each
/// member net's load nodes (e.g. summed input caps of the cells the net
/// fans out to); return `0.0` when unknown.
///
/// When `ground_couplings` is set, even member-to-member couplings are
/// grounded — the *decoupled* analysis mode of Table 2.
///
/// # Panics
///
/// Panics if the database and cluster are inconsistent (programmer error).
pub fn build_cluster(
    db: &ParasiticDb,
    cluster: &Cluster,
    load_cap: &dyn Fn(PNetId) -> f64,
    ground_couplings: bool,
) -> ClusterModel {
    let _span = pcv_trace::span("xtalk", "build_cluster");
    pcv_trace::value("xtalk.cluster_nets", cluster.size() as u64);
    let members = cluster.members();
    let mut rc = RcCluster::new();
    let mut offsets = Vec::with_capacity(members.len());

    // Room for every element up front: the members' resistors, ground caps
    // and load pins, and a capacitor per coupling (two in decoupled mode).
    let nets = || members.iter().map(|&m| (m, db.net(m)));
    let couplings = db.couplings_touching(&members);
    let stamps = if ground_couplings { 2 } else { 1 };
    rc.reserve(
        nets().map(|(_, net)| net.resistors().len()).sum(),
        nets().map(|(_, net)| net.ground_caps().len() + net.load_nodes().len()).sum::<usize>()
            + stamps * couplings.len(),
    );

    // Wire RC of each member.
    for (m, net) in nets() {
        let offset = rc.add_net(net);
        offsets.push(offset);
        // Receiver pin loading, split across the net's load pins.
        let pins = net.load_nodes();
        let total = load_cap(m);
        if total > 0.0 && !pins.is_empty() {
            let per = total / pins.len() as f64;
            for &pin in pins {
                rc.add_ground_cap(offset + pin, per).expect("valid load cap");
            }
        }
    }

    // Couplings: member-to-member kept (unless decoupled mode), the rest
    // grounded at the member side. Only the members' own couplings are
    // visited, in database order: a cluster's element order is the
    // database's order restricted to the cluster, which is what keeps
    // every stamped sum's bits whatever the size of the chip around it. A
    // table over the members' net ids names a terminal's member.
    let first = members.iter().map(|m| m.0).min().expect("a cluster has its victim");
    let span = members.iter().map(|m| m.0).max().expect("a cluster has its victim") - first;
    let mut member_at = vec![usize::MAX; span + 1];
    for (k, m) in members.iter().enumerate().rev() {
        member_at[m.0 - first] = k;
    }
    let member_idx = |net: PNetId| {
        let k = *member_at.get(net.0.wrapping_sub(first))?;
        (k != usize::MAX).then_some(k)
    };
    let mut visited = 0u64;
    for c in couplings {
        visited += 1;
        let ia = member_idx(c.a.net);
        let ib = member_idx(c.b.net);
        match (ia, ib) {
            (Some(a), Some(b)) => {
                let na = offsets[a] + c.a.node;
                let nb = offsets[b] + c.b.node;
                if ground_couplings {
                    if c.farads > 0.0 {
                        rc.add_ground_cap(na, c.farads).expect("valid decoupled cap");
                        rc.add_ground_cap(nb, c.farads).expect("valid decoupled cap");
                    }
                } else if c.farads > 0.0 {
                    rc.add_capacitor(na, nb, c.farads).expect("valid coupling cap");
                }
            }
            (Some(a), None) => {
                if c.farads > 0.0 {
                    rc.add_ground_cap(offsets[a] + c.a.node, c.farads)
                        .expect("valid decoupled cap");
                }
            }
            (None, Some(b)) => {
                if c.farads > 0.0 {
                    rc.add_ground_cap(offsets[b] + c.b.node, c.farads)
                        .expect("valid decoupled cap");
                }
            }
            (None, None) => unreachable!("a visited coupling touches a member"),
        }
    }
    pcv_trace::count("xtalk.build.couplings_visited", visited);

    // Ports: driver pin of every member, then the victim observation pin.
    let mut driver_ports = Vec::with_capacity(members.len());
    for (k, &m) in members.iter().enumerate() {
        let net = db.net(m);
        driver_ports.push(rc.add_port(offsets[k] + net.driver_node()));
    }
    let vic = db.net(members[0]);
    let observe_node = vic.load_nodes().first().copied().unwrap_or_else(|| vic.driver_node());
    let observe_port = rc.add_port(offsets[0] + observe_node);

    ClusterModel { rc, members, driver_ports, observe_port, offsets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::{prune_victim, PruneConfig};
    use pcv_cells::library::CellLibrary;
    use pcv_designs::dsp::{generate, DspConfig};
    use pcv_designs::Technology;
    use pcv_netlist::{NetNodeRef, NetParasitics};
    use pcv_rng::Rng;

    fn pair_db() -> (ParasiticDb, PNetId, PNetId) {
        let mut db = ParasiticDb::new();
        let mut v = NetParasitics::new("v");
        let v1 = v.add_node();
        v.add_resistor(0, v1, 150.0);
        v.add_ground_cap(v1, 10e-15);
        v.mark_load(v1);
        let vid = db.add_net(v);
        let mut a = NetParasitics::new("a");
        let a1 = a.add_node();
        a.add_resistor(0, a1, 250.0);
        a.add_ground_cap(a1, 12e-15);
        let aid = db.add_net(a);
        db.add_coupling(NetNodeRef { net: vid, node: 1 }, NetNodeRef { net: aid, node: 1 }, 20e-15);
        (db, vid, aid)
    }

    #[test]
    fn basic_assembly_shapes() {
        let (db, vid, aid) = pair_db();
        let cluster = prune_victim(&db, vid, &PruneConfig::default());
        let model = build_cluster(&db, &cluster, &|_| 0.0, false);
        assert_eq!(model.members, vec![vid, aid]);
        assert_eq!(model.rc.num_nodes(), 4);
        assert_eq!(model.rc.num_ports(), 3); // 2 drivers + observe
        assert_eq!(model.victim_port(), 0);
        assert_eq!(model.driver_ports, [0, 1]);
        // Observe port is the victim load node.
        assert_eq!(model.rc.ports()[model.observe_port], 1);
    }

    #[test]
    fn load_caps_are_lumped_at_pins() {
        let (db, vid, _) = pair_db();
        let cluster = prune_victim(&db, vid, &PruneConfig::default());
        let with_loads =
            build_cluster(&db, &cluster, &|n| if n == vid { 5e-15 } else { 0.0 }, false);
        let without = build_cluster(&db, &cluster, &|_| 0.0, false);
        let delta = with_loads.rc.total_ground_cap() - without.rc.total_ground_cap();
        assert!((delta - 5e-15).abs() < 1e-28);
    }

    #[test]
    fn decoupled_mode_grounds_member_couplings() {
        let (db, vid, _) = pair_db();
        let cluster = prune_victim(&db, vid, &PruneConfig::default());
        let coupled = build_cluster(&db, &cluster, &|_| 0.0, false);
        let decoupled = build_cluster(&db, &cluster, &|_| 0.0, true);
        // Grounding adds the coupling cap at *both* ends.
        let delta = decoupled.rc.total_ground_cap() - coupled.rc.total_ground_cap();
        assert!((delta - 40e-15).abs() < 1e-28);
    }

    #[test]
    fn external_couplings_are_grounded_on_member_side() {
        let (mut db, vid, _) = pair_db();
        // A third net coupled weakly to the victim driver node; pruning will
        // decouple it.
        let w = db.add_net(NetParasitics::new("weak"));
        db.add_coupling(NetNodeRef { net: vid, node: 0 }, NetNodeRef { net: w, node: 0 }, 0.01e-15);
        let cluster = prune_victim(&db, vid, &PruneConfig::default());
        assert_eq!(cluster.aggressors.len(), 1);
        let model = build_cluster(&db, &cluster, &|_| 0.0, false);
        // Weak coupling appears as grounded cap: total ground cap includes it.
        let total = model.rc.total_ground_cap();
        assert!((total - (10e-15 + 12e-15 + 0.01e-15)).abs() < 1e-28);
    }

    #[test]
    fn victim_without_loads_observes_driver_pin() {
        let mut db = ParasiticDb::new();
        let mut v = NetParasitics::new("v");
        let v1 = v.add_node();
        v.add_resistor(0, v1, 100.0);
        v.add_ground_cap(v1, 1e-15);
        let vid = db.add_net(v);
        let cluster = prune_victim(&db, vid, &PruneConfig::default());
        let model = build_cluster(&db, &cluster, &|_| 0.0, false);
        assert_eq!(model.rc.ports()[model.observe_port], 0);
    }

    /// Rebuild `db` with a few hostile couplings appended: a second and a
    /// third capacitor between one existing node pair, and zero-farad
    /// couplings between random nets.
    fn with_hostile_couplings(db: &ParasiticDb, rng: &mut Rng) -> ParasiticDb {
        let mut out = db.clone();
        let n = out.num_nets();
        for _ in 0..6 {
            if !out.couplings().is_empty() {
                let c = out.couplings()[rng.range_usize(0, out.couplings().len())];
                out.add_coupling(c.a, c.b, c.farads * rng.range_f64(0.1, 2.0));
                out.add_coupling(c.b, c.a, 0.0);
            }
            let a = PNetId(rng.range_usize(0, n));
            let b = PNetId(rng.range_usize(0, n));
            if a != b {
                let node = |rng: &mut Rng, net| rng.range_usize(0, out.net(net).num_nodes());
                let (na, nb) = (node(rng, a), node(rng, b));
                out.add_coupling(
                    NetNodeRef { net: a, node: na },
                    NetNodeRef { net: b, node: nb },
                    if rng.bool_with(0.5) { 0.0 } else { rng.range_f64(0.1e-15, 5e-15) },
                );
            }
        }
        out
    }

    /// FNV-1a over everything a [`ClusterModel`] holds, values by their bits.
    fn absorb_model(h: &mut u64, m: &ClusterModel) {
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(m.rc.num_nodes() as u64);
        for elements in [m.rc.resistors(), m.rc.capacitors()] {
            eat(elements.len() as u64);
            for &(a, b, v) in elements {
                eat(a as u64);
                eat(b as u64);
                eat(v.to_bits());
            }
        }
        let members: Vec<usize> = m.members.iter().map(|n| n.0).collect();
        for list in [m.rc.ports(), &members, &m.driver_ports, &[m.observe_port], &m.offsets] {
            eat(list.len() as u64);
            list.iter().for_each(|&i| eat(i as u64));
        }
    }

    /// Every cluster of the sweep assembles to the elements, in the order,
    /// that the whole-chip coupling scan `build_cluster` once was produced
    /// for it: the digests were recorded while that scan still stood beside
    /// the members-only walk as its oracle (commit 4516939) and agreed.
    #[test]
    fn members_only_walk_assembles_what_the_full_scan_assembled() {
        use pcv_designs::extract::{extract, WireGeom};
        let tech = Technology::c025();
        let mut rng = Rng::new(0xB01D_C1A5);
        // Groups of minimum-pitch wires six empty tracks apart (decoupled
        // tiles), as the benchmark's fields are laid out.
        let field = |groups: usize, wires: usize, len: f64, seg: f64| {
            let mut geom = Vec::new();
            for g in 0..groups {
                for w in 0..wires {
                    let track = (g * (wires + 6) + w) as i64;
                    let len = len * (1.0 + 0.1 * g as f64);
                    geom.push(WireGeom::min_width(format!("g{g}_w{w}"), track, 0.0, len, &tech));
                }
            }
            extract(&geom, &tech, seg)
        };
        let dsp = DspConfig { n_buses: 2, bus_bits: 6, n_random_nets: 24, cycle: 10e-9, seed: 5 };
        let dsp = generate(&dsp, &tech, &CellLibrary::standard_025()).parasitics;
        let chips = [
            ("dsp", dsp, 0xa012_8da5_1e3a_ab6fu64),
            ("tiled", field(6, 4, 400e-6, 25e-6), 0x90b0_d061_2e4d_c3ab),
            ("mesh", field(2, 5, 300e-6, 2.5e-6), 0xb7a0_1edb_7169_cfdf),
        ];
        // Witnesses that the sweep met the cases it is for.
        let (mut kept, mut lonely) = (0, 0);
        for (chip, base, recorded) in &chips {
            let db = with_hostile_couplings(base, &mut rng);
            let n = db.num_nets();
            let digest = std::cell::Cell::new(0xcbf2_9ce4_8422_2325u64);
            let check = |cluster: &Cluster, rng: &mut Rng| {
                let scale = rng.range_f64(0.0, 4e-15);
                let load = move |net: PNetId| if net.0.is_multiple_of(3) { 0.0 } else { scale };
                for grounded in [false, true] {
                    let mut h = digest.get();
                    absorb_model(&mut h, &build_cluster(&db, cluster, &load, grounded));
                    digest.set(h);
                }
            };
            // What pruning produces, from keep-everything to keep-nothing
            // (an aggressor-less victim whose couplings all leave the
            // cluster).
            for v in 0..n {
                let cfg = PruneConfig {
                    cap_ratio: [0.0, 0.02, 0.2, 2.0][rng.range_usize(0, 4)],
                    max_aggressors: rng.range_usize(0, 8),
                };
                let cluster = prune_victim(&db, PNetId(v), &cfg);
                check(&cluster, &mut rng);
                kept += usize::from(!cluster.aggressors.is_empty());
                lonely += usize::from(cluster.aggressors.is_empty() && cluster.decoupled_cap > 0.0);
            }
            // Arbitrary member sets: members that share no coupling, so
            // one is coupled to outsiders only.
            for _ in 0..40 {
                let victim = PNetId(rng.range_usize(0, n));
                let mut aggressors: Vec<(PNetId, f64)> = Vec::new();
                for _ in 0..rng.range_usize(0, 6) {
                    let a = PNetId(rng.range_usize(0, n));
                    if a != victim && aggressors.iter().all(|&(m, _)| m != a) {
                        aggressors.push((a, 0.0));
                    }
                }
                let cluster = Cluster {
                    victim,
                    aggressors,
                    decoupled_cap: 0.0,
                    neighbors_before: 0,
                    component_size: 1,
                };
                check(&cluster, &mut rng);
            }
            assert_eq!(digest.get(), *recorded, "{chip}: an assembled cluster moved");
        }
        assert!(kept > 20 && lonely > 20, "{kept} coupled clusters, {lonely} aggressor-less");
    }

    #[test]
    fn an_isolated_victim_visits_no_coupling() {
        let (mut db, vid, _) = pair_db();
        let lone = db.add_net(NetParasitics::new("lone"));
        let cluster = prune_victim(&db, lone, &PruneConfig::default());
        assert!(cluster.aggressors.is_empty());
        let got = build_cluster(&db, &cluster, &|_| 1e-15, false);
        assert_eq!((got.rc.num_nodes(), got.rc.ports()), (1, &[0, 0][..]));
        assert!(got.rc.resistors().is_empty());
        assert!(got.rc.capacitors().is_empty(), "no load pin, no coupling, no ground cap");
        // The pair's own coupling is still there for its owner.
        let cluster = prune_victim(&db, vid, &PruneConfig::default());
        assert_eq!(build_cluster(&db, &cluster, &|_| 0.0, false).rc.capacitors().len(), 3);
    }
}
