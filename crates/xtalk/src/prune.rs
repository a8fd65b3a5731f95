//! Pruning: capacitance-ratio filtering and cluster formation (Section 3 of
//! the paper).
//!
//! Extraction hands the flow millions of coupling capacitors; most are
//! electrically irrelevant to any given victim. Pruning keeps, per victim,
//! only the aggressors whose summed coupling exceeds a fraction of the
//! victim's total capacitance; everything else is *decoupled* — its
//! coupling capacitance is grounded, conservatively preserving the victim's
//! loading. In the paper this reduces average cluster size from ~105 nets
//! to 2–5.

use pcv_netlist::{PNetId, ParasiticDb};

/// Sizes of the *coupling-connected components* of the database: nets
/// transitively linked through coupling capacitors. This is the paper's
/// "cluster before pruning" — without decoupling, analyzing one victim
/// drags in its whole component (~105 nets on the paper's DSP).
///
/// Returns, for each net, the size of its component.
pub fn coupling_component_sizes(db: &ParasiticDb) -> Vec<usize> {
    let n = db.num_nets();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for c in db.couplings() {
        let (a, b) = (find(&mut parent, c.a.net.0), find(&mut parent, c.b.net.0));
        if a != b {
            parent[a] = b;
        }
    }
    let mut size = vec![0usize; n];
    for i in 0..n {
        let r = find(&mut parent, i);
        size[r] += 1;
    }
    (0..n).map(|i| size[find(&mut parent, i)]).collect()
}

/// Pruning parameters.
#[derive(Debug, Clone)]
pub struct PruneConfig {
    /// Keep an aggressor when `C_couple(victim, agg) / C_total(victim)`
    /// is at least this ratio.
    pub cap_ratio: f64,
    /// Hard cap on aggressors per cluster (strongest kept).
    pub max_aggressors: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig { cap_ratio: 0.02, max_aggressors: 12 }
    }
}

/// A pruned victim cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The victim net.
    pub victim: PNetId,
    /// Kept aggressors with their summed coupling (farads), strongest
    /// first.
    pub aggressors: Vec<(PNetId, f64)>,
    /// Total coupling capacitance that was decoupled (grounded).
    pub decoupled_cap: f64,
    /// Number of coupled neighbors before pruning (cluster size − 1
    /// pre-prune).
    pub neighbors_before: usize,
    /// Size of the victim's coupling-connected component (the paper's
    /// cluster size *before* pruning: everything one would have to analyze
    /// together without decoupling).
    pub component_size: usize,
}

impl Cluster {
    /// Cluster size (victim + kept aggressors).
    pub fn size(&self) -> usize {
        1 + self.aggressors.len()
    }

    /// Net ids of all members, victim first.
    pub fn members(&self) -> Vec<PNetId> {
        let mut v = vec![self.victim];
        v.extend(self.aggressors.iter().map(|&(a, _)| a));
        v
    }
}

/// Prune one victim.
pub fn prune_victim(db: &ParasiticDb, victim: PNetId, cfg: &PruneConfig) -> Cluster {
    let sizes = coupling_component_sizes(db);
    prune_victim_with_components(db, victim, cfg, &sizes)
}

/// Prune one victim using precomputed component sizes (avoids recomputing
/// the union-find per victim in chip-level sweeps).
pub fn prune_victim_with_components(
    db: &ParasiticDb,
    victim: PNetId,
    cfg: &PruneConfig,
    component_sizes: &[usize],
) -> Cluster {
    let _span = pcv_trace::span("xtalk", "prune");
    let total = db.total_cap(victim).max(1e-30);
    let neighbors = db.neighbors(victim);
    let neighbors_before = neighbors.len();
    let mut kept = Vec::new();
    let mut decoupled = 0.0;
    for (agg, cc) in neighbors {
        if cc / total >= cfg.cap_ratio && kept.len() < cfg.max_aggressors {
            kept.push((agg, cc));
        } else {
            decoupled += cc;
        }
    }
    Cluster {
        victim,
        aggressors: kept,
        decoupled_cap: decoupled,
        neighbors_before,
        component_size: component_sizes[victim.0],
    }
}

/// Prune every net of the database as a victim.
pub fn prune_all(db: &ParasiticDb, cfg: &PruneConfig) -> Vec<Cluster> {
    let sizes = coupling_component_sizes(db);
    (0..db.num_nets()).map(|k| prune_victim_with_components(db, PNetId(k), cfg, &sizes)).collect()
}

/// Aggregate statistics over a set of clusters — the paper's §3 pruning
/// effectiveness numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningStats {
    /// Mean cluster size before pruning (victim + all coupled neighbors).
    pub mean_before: f64,
    /// Mean coupling-connected component size (the paper's pre-pruning
    /// cluster measure).
    pub mean_component: f64,
    /// Mean cluster size after pruning.
    pub mean_after: f64,
    /// Largest post-prune cluster.
    pub max_after: usize,
    /// Number of clusters with at least one kept aggressor (the
    /// "potentially problematic nets").
    pub active_clusters: usize,
}

impl PruningStats {
    /// Compute statistics for a cluster set.
    pub fn compute(clusters: &[Cluster]) -> PruningStats {
        if clusters.is_empty() {
            return PruningStats {
                mean_before: 0.0,
                mean_component: 0.0,
                mean_after: 0.0,
                max_after: 0,
                active_clusters: 0,
            };
        }
        let n = clusters.len() as f64;
        PruningStats {
            mean_before: clusters.iter().map(|c| 1 + c.neighbors_before).sum::<usize>() as f64 / n,
            mean_component: clusters.iter().map(|c| c.component_size).sum::<usize>() as f64 / n,
            mean_after: clusters.iter().map(|c| c.size()).sum::<usize>() as f64 / n,
            max_after: clusters.iter().map(|c| c.size()).max().unwrap_or(0),
            active_clusters: clusters.iter().filter(|c| !c.aggressors.is_empty()).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::{NetNodeRef, NetParasitics};

    /// A victim coupled to one strong and several weak aggressors.
    fn star_db(n_weak: usize) -> (ParasiticDb, PNetId) {
        let mut db = ParasiticDb::new();
        let mut v = NetParasitics::new("v");
        let v1 = v.add_node();
        v.add_resistor(0, v1, 100.0);
        v.add_ground_cap(v1, 50e-15);
        let vid = db.add_net(v);
        let strong = db.add_net(NetParasitics::new("strong"));
        db.add_coupling(
            NetNodeRef { net: vid, node: 1 },
            NetNodeRef { net: strong, node: 0 },
            40e-15,
        );
        for k in 0..n_weak {
            let w = db.add_net(NetParasitics::new(format!("weak{k}")));
            db.add_coupling(
                NetNodeRef { net: vid, node: 0 },
                NetNodeRef { net: w, node: 0 },
                0.2e-15,
            );
        }
        (db, vid)
    }

    #[test]
    fn weak_couplings_are_decoupled() {
        let (db, vid) = star_db(50);
        let cluster = prune_victim(&db, vid, &PruneConfig::default());
        assert_eq!(cluster.aggressors.len(), 1);
        assert_eq!(db.net(cluster.aggressors[0].0).name(), "strong");
        assert_eq!(cluster.neighbors_before, 51);
        assert!((cluster.decoupled_cap - 50.0 * 0.2e-15).abs() < 1e-28);
        // The whole star is one coupling component: 52 nets.
        assert_eq!(cluster.component_size, 52);
        assert_eq!(cluster.size(), 2);
        assert_eq!(cluster.members().len(), 2);
    }

    #[test]
    fn threshold_zero_keeps_everything_up_to_cap() {
        let (db, vid) = star_db(5);
        let cfg = PruneConfig { cap_ratio: 0.0, max_aggressors: 100 };
        let cluster = prune_victim(&db, vid, &cfg);
        assert_eq!(cluster.aggressors.len(), 6);
        assert_eq!(cluster.decoupled_cap, 0.0);
    }

    #[test]
    fn max_aggressors_caps_cluster_keeping_strongest() {
        let (db, vid) = star_db(5);
        let cfg = PruneConfig { cap_ratio: 0.0, max_aggressors: 2 };
        let cluster = prune_victim(&db, vid, &cfg);
        assert_eq!(cluster.aggressors.len(), 2);
        // Strongest (40 fF) is kept first.
        assert!((cluster.aggressors[0].1 - 40e-15).abs() < 1e-28);
    }

    #[test]
    fn stats_reflect_reduction() {
        let (db, _) = star_db(100);
        let clusters = prune_all(&db, &PruneConfig::default());
        let stats = PruningStats::compute(&clusters);
        // The victim's cluster shrinks from 102 to 2; weak nets have tiny
        // clusters throughout.
        assert!(stats.mean_before > stats.mean_after);
        assert!(stats.max_after <= 2 + 1);
        assert!(stats.active_clusters >= 1);
    }

    #[test]
    fn empty_stats() {
        let s = PruningStats::compute(&[]);
        assert_eq!(s.max_after, 0);
        assert_eq!(s.active_clusters, 0);
    }
}
