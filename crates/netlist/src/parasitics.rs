//! Extracted parasitics: per-net RC trees plus cross-net coupling capacitors.
//!
//! This is the chip-level data model the crosstalk flow consumes. Each net
//! carries its own internal node space (node `0` is the driver/root pin);
//! coupling capacitors reference `(net, node)` pairs across nets.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a net inside a [`ParasiticDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PNetId(pub usize);

impl fmt::Display for PNetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// Reference to a specific electrical node of a specific net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetNodeRef {
    /// The net.
    pub net: PNetId,
    /// Node index within the net (0 = driver pin).
    pub node: usize,
}

/// A coupling capacitor between nodes of two different nets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CouplingCap {
    /// One terminal.
    pub a: NetNodeRef,
    /// The other terminal.
    pub b: NetNodeRef,
    /// Capacitance in farads.
    pub farads: f64,
}

/// The couplings [`ParasiticDb::couplings_touching`] yields: a bitmap over
/// coupling indices from the first one listed, read in index order.
#[derive(Debug, Clone)]
pub struct CouplingsTouching<'a> {
    couplings: &'a [CouplingCap],
    marks: Vec<u64>,
    /// The word the next mark is read from; marks already read are cleared.
    word: usize,
    left: usize,
}

impl<'a> Iterator for CouplingsTouching<'a> {
    type Item = &'a CouplingCap;

    fn next(&mut self) -> Option<&'a CouplingCap> {
        while *self.marks.get(self.word)? == 0 {
            self.word += 1;
        }
        let bits = &mut self.marks[self.word];
        let bit = bits.trailing_zeros() as usize;
        *bits &= *bits - 1;
        self.left -= 1;
        Some(&self.couplings[self.word * 64 + bit])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for CouplingsTouching<'_> {}

/// RC parasitics of a single net.
///
/// Node `0` is by convention the driver (root) pin. Receiver pins are
/// registered through [`NetParasitics::mark_load`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetParasitics {
    name: String,
    num_nodes: usize,
    load_nodes: Vec<usize>,
    resistors: Vec<(usize, usize, f64)>,
    gcaps: Vec<(usize, f64)>,
}

impl NetParasitics {
    /// Create a net with just the driver node (node 0).
    pub fn new(name: impl Into<String>) -> Self {
        NetParasitics {
            name: name.into(),
            num_nodes: 1,
            load_nodes: Vec::new(),
            resistors: Vec::new(),
            gcaps: Vec::new(),
        }
    }

    /// Create a net of `num_nodes` ≥ 1 nodes (node 0 is the driver) at the
    /// cost of one: what a reader makes of a declared node count.
    pub fn with_nodes(name: impl Into<String>, num_nodes: usize) -> Self {
        assert!(num_nodes >= 1, "net needs at least the driver node");
        NetParasitics { num_nodes, ..Self::new(name) }
    }

    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of electrical nodes (≥ 1).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The driver (root) node index.
    pub fn driver_node(&self) -> usize {
        0
    }

    /// Receiver pin node indices.
    pub fn load_nodes(&self) -> &[usize] {
        &self.load_nodes
    }

    /// Wire resistors as `(node_a, node_b, ohms)`.
    pub fn resistors(&self) -> &[(usize, usize, f64)] {
        &self.resistors
    }

    /// Grounded capacitors as `(node, farads)`.
    pub fn ground_caps(&self) -> &[(usize, f64)] {
        &self.gcaps
    }

    /// Add a new internal node, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.num_nodes += 1;
        self.num_nodes - 1
    }

    /// Add a wire resistor between two nodes of this net.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or non-positive resistance.
    pub fn add_resistor(&mut self, a: usize, b: usize, ohms: f64) {
        assert!(a < self.num_nodes && b < self.num_nodes, "resistor node out of range");
        assert!(ohms > 0.0 && ohms.is_finite(), "resistance must be positive");
        self.resistors.push((a, b, ohms));
    }

    /// Add a grounded capacitor at a node.
    ///
    /// A negative zero is stored as canonical `+0.0`: the two zeros are
    /// electrically identical but differ in bits, and downstream consumers
    /// (ECO diffs, cluster fingerprints) compare capacitances bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node or negative capacitance.
    pub fn add_ground_cap(&mut self, node: usize, farads: f64) {
        assert!(node < self.num_nodes, "cap node out of range");
        assert!(farads >= 0.0 && farads.is_finite(), "capacitance must be non-negative");
        // IEEE: -0.0 + 0.0 == +0.0, nonzero values are unchanged.
        self.gcaps.push((node, farads + 0.0));
    }

    /// Mark a node as a receiver (load) pin.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node.
    pub fn mark_load(&mut self, node: usize) {
        assert!(node < self.num_nodes, "load node out of range");
        if !self.load_nodes.contains(&node) {
            self.load_nodes.push(node);
        }
    }

    /// Sum of grounded capacitance on this net.
    pub fn total_ground_cap(&self) -> f64 {
        self.gcaps.iter().map(|&(_, c)| c).sum()
    }

    /// Total wire resistance (sum over segments).
    pub fn total_resistance(&self) -> f64 {
        self.resistors.iter().map(|&(_, _, r)| r).sum()
    }
}

/// A chip-level parasitic database: nets plus coupling capacitors.
///
/// # Example
///
/// ```
/// # use pcv_netlist::{ParasiticDb, NetParasitics, NetNodeRef};
/// let mut db = ParasiticDb::new();
/// let mut a = NetParasitics::new("a");
/// let a1 = a.add_node();
/// a.add_resistor(0, a1, 50.0);
/// a.add_ground_cap(a1, 2e-15);
/// let a_id = db.add_net(a);
/// let b_id = db.add_net(NetParasitics::new("b"));
/// db.add_coupling(NetNodeRef { net: a_id, node: a1 },
///                 NetNodeRef { net: b_id, node: 0 }, 1e-15);
/// assert_eq!(db.total_coupling_cap(a_id), 1e-15);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParasiticDb {
    nets: Vec<NetParasitics>,
    by_name: HashMap<String, PNetId>,
    couplings: Vec<CouplingCap>,
    /// For each net, indices into `couplings` that touch it.
    net_couplings: Vec<Vec<usize>>,
}

impl ParasiticDb {
    /// Create an empty database.
    pub fn new() -> Self {
        ParasiticDb::default()
    }

    /// Add a net; its name must be unique.
    ///
    /// # Panics
    ///
    /// Panics if a net with the same name already exists.
    pub fn add_net(&mut self, net: NetParasitics) -> PNetId {
        let id = PNetId(self.nets.len());
        let prev = self.by_name.insert(net.name.clone(), id);
        assert!(prev.is_none(), "duplicate net name {:?}", net.name);
        self.nets.push(net);
        self.net_couplings.push(Vec::new());
        id
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Access a net.
    pub fn net(&self, id: PNetId) -> &NetParasitics {
        &self.nets[id.0]
    }

    /// Mutable access to a net.
    pub fn net_mut(&mut self, id: PNetId) -> &mut NetParasitics {
        &mut self.nets[id.0]
    }

    /// Look up a net by name.
    pub fn find_net(&self, name: &str) -> Option<PNetId> {
        self.by_name.get(name).copied()
    }

    /// Iterate over `(id, net)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PNetId, &NetParasitics)> {
        self.nets.iter().enumerate().map(|(i, n)| (PNetId(i), n))
    }

    /// Add a coupling capacitor between nodes of two different nets.
    ///
    /// As with [`NetParasitics::add_ground_cap`], a negative zero is
    /// stored as canonical `+0.0` so that bit-exact consumers (ECO diffs,
    /// cluster fingerprints) never see two spellings of the same zero.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are on the same net, reference invalid
    /// nodes, or the value is negative.
    pub fn add_coupling(&mut self, a: NetNodeRef, b: NetNodeRef, farads: f64) -> usize {
        assert_ne!(a.net, b.net, "coupling endpoints must be on different nets");
        assert!(a.node < self.nets[a.net.0].num_nodes, "coupling node out of range");
        assert!(b.node < self.nets[b.net.0].num_nodes, "coupling node out of range");
        assert!(farads >= 0.0 && farads.is_finite(), "capacitance must be non-negative");
        let idx = self.couplings.len();
        self.couplings.push(CouplingCap { a, b, farads: farads + 0.0 });
        self.net_couplings[a.net.0].push(idx);
        self.net_couplings[b.net.0].push(idx);
        idx
    }

    /// All coupling capacitors.
    pub fn couplings(&self) -> &[CouplingCap] {
        &self.couplings
    }

    /// Coupling capacitors that touch a given net.
    pub fn couplings_of(&self, net: PNetId) -> impl Iterator<Item = &CouplingCap> + Clone {
        self.net_couplings[net.0].iter().map(move |&i| &self.couplings[i])
    }

    /// Every coupling capacitor with a terminal on any of `nets`, each
    /// exactly once, in [`ParasiticDb::couplings`] order — what a filtered
    /// walk of the whole list yields, at the cost of the listed nets' own
    /// couplings. `nets` may repeat a net. The iterator knows its length.
    pub fn couplings_touching(&self, nets: &[PNetId]) -> CouplingsTouching<'_> {
        // The per-net lists name coupling indices: mark each in a bitmap
        // over the span they cover, then read the marks in index order —
        // a coupling on two listed nets is marked twice and read once.
        let lists = || nets.iter().map(|n| self.net_couplings[n.0].as_slice());
        let first = lists().filter_map(<[usize]>::first).min().copied().unwrap_or(0);
        let end = lists().filter_map(<[usize]>::last).max().map_or(0, |&last| last + 1);
        let mut marks = vec![0u64; (end - first).div_ceil(64)];
        for &i in lists().flatten() {
            marks[(i - first) / 64] |= 1 << ((i - first) % 64);
        }
        let left = marks.iter().map(|w| w.count_ones() as usize).sum();
        CouplingsTouching { couplings: &self.couplings[first..], marks, word: 0, left }
    }

    /// Sum of coupling capacitance touching a net.
    pub fn total_coupling_cap(&self, net: PNetId) -> f64 {
        self.couplings_of(net).map(|c| c.farads).sum()
    }

    /// Total capacitance (grounded plus coupling) on a net — the denominator
    /// of the pruning capacitance-ratio test.
    pub fn total_cap(&self, net: PNetId) -> f64 {
        self.net(net).total_ground_cap() + self.total_coupling_cap(net)
    }

    /// Aggressor neighbors of a net: `(other_net, summed_coupling_farads)`,
    /// sorted descending by coupling.
    pub fn neighbors(&self, net: PNetId) -> Vec<(PNetId, f64)> {
        let mut acc: HashMap<PNetId, f64> = HashMap::new();
        for c in self.couplings_of(net) {
            let other = if c.a.net == net { c.b.net } else { c.a.net };
            *acc.entry(other).or_insert(0.0) += c.farads;
        }
        let mut v: Vec<(PNetId, f64)> = acc.into_iter().collect();
        v.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite caps").then(x.0.cmp(&y.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_net_db() -> (ParasiticDb, PNetId, PNetId) {
        let mut db = ParasiticDb::new();
        let mut a = NetParasitics::new("a");
        let a1 = a.add_node();
        a.add_resistor(0, a1, 100.0);
        a.add_ground_cap(0, 1e-15);
        a.add_ground_cap(a1, 3e-15);
        a.mark_load(a1);
        let aid = db.add_net(a);
        let mut b = NetParasitics::new("b");
        let b1 = b.add_node();
        b.add_resistor(0, b1, 200.0);
        b.add_ground_cap(b1, 2e-15);
        let bid = db.add_net(b);
        db.add_coupling(
            NetNodeRef { net: aid, node: a1 },
            NetNodeRef { net: bid, node: b1 },
            5e-15,
        );
        (db, aid, bid)
    }

    #[test]
    fn net_construction_and_sums() {
        let (db, aid, _) = two_net_db();
        let a = db.net(aid);
        assert_eq!(a.num_nodes(), 2);
        assert_eq!(a.driver_node(), 0);
        assert_eq!(a.load_nodes(), &[1]);
        assert!((a.total_ground_cap() - 4e-15).abs() < 1e-30);
        assert!((a.total_resistance() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn coupling_bookkeeping() {
        let (db, aid, bid) = two_net_db();
        assert_eq!(db.couplings().len(), 1);
        assert_eq!(db.couplings_of(aid).count(), 1);
        assert!((db.total_coupling_cap(bid) - 5e-15).abs() < 1e-30);
        assert!((db.total_cap(aid) - 9e-15).abs() < 1e-30);
        let nbrs = db.neighbors(aid);
        assert_eq!(nbrs, vec![(bid, 5e-15)]);
    }

    #[test]
    fn neighbors_sum_multiple_caps_and_sort() {
        let mut db = ParasiticDb::new();
        let a = db.add_net(NetParasitics::new("a"));
        let b = db.add_net(NetParasitics::new("b"));
        let c = db.add_net(NetParasitics::new("c"));
        let r = |net, node| NetNodeRef { net, node };
        db.add_coupling(r(a, 0), r(b, 0), 1e-15);
        db.add_coupling(r(a, 0), r(b, 0), 2e-15);
        db.add_coupling(r(a, 0), r(c, 0), 10e-15);
        let nbrs = db.neighbors(a);
        assert_eq!(nbrs.len(), 2);
        assert_eq!(nbrs[0].0, c);
        assert!((nbrs[1].1 - 3e-15).abs() < 1e-30);
    }

    #[test]
    fn find_net_by_name() {
        let (db, aid, bid) = two_net_db();
        assert_eq!(db.find_net("a"), Some(aid));
        assert_eq!(db.find_net("b"), Some(bid));
        assert_eq!(db.find_net("zz"), None);
        assert_eq!(db.num_nets(), 2);
        assert_eq!(db.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate net name")]
    fn duplicate_names_rejected() {
        let mut db = ParasiticDb::new();
        db.add_net(NetParasitics::new("x"));
        db.add_net(NetParasitics::new("x"));
    }

    #[test]
    #[should_panic(expected = "different nets")]
    fn self_coupling_rejected() {
        let mut db = ParasiticDb::new();
        let a = db.add_net(NetParasitics::new("a"));
        db.add_coupling(NetNodeRef { net: a, node: 0 }, NetNodeRef { net: a, node: 0 }, 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_coupling_node_rejected() {
        let mut db = ParasiticDb::new();
        let a = db.add_net(NetParasitics::new("a"));
        let b = db.add_net(NetParasitics::new("b"));
        db.add_coupling(NetNodeRef { net: a, node: 5 }, NetNodeRef { net: b, node: 0 }, 1e-15);
    }

    #[test]
    fn mark_load_is_idempotent() {
        let mut n = NetParasitics::new("n");
        let k = n.add_node();
        n.mark_load(k);
        n.mark_load(k);
        assert_eq!(n.load_nodes().len(), 1);
    }

    #[test]
    fn couplings_touching_reads_marks_across_words() {
        // Hundreds of couplings on a chain of nets: the listed nets' marks
        // span many 64-bit words, start and end inside one, and skip some.
        let mut db = ParasiticDb::new();
        let ids: Vec<PNetId> =
            (0..9).map(|i| db.add_net(NetParasitics::new(format!("n{i}")))).collect();
        for k in 0..700 {
            let (a, b) = (ids[k % 8], ids[k % 8 + 1]);
            db.add_coupling(NetNodeRef { net: a, node: 0 }, NetNodeRef { net: b, node: 0 }, 1e-15);
        }
        for set in [vec![ids[3]], vec![ids[0], ids[8]], vec![ids[2], ids[3], ids[2]], ids.clone()] {
            let want: Vec<*const CouplingCap> = db
                .couplings()
                .iter()
                .filter(|c| set.contains(&c.a.net) || set.contains(&c.b.net))
                .map(std::ptr::from_ref)
                .collect();
            let touching = db.couplings_touching(&set);
            assert_eq!(touching.len(), want.len(), "set {set:?}");
            let got: Vec<*const CouplingCap> = touching.map(std::ptr::from_ref).collect();
            assert_eq!(got, want, "set {set:?}");
        }
    }

    #[test]
    fn couplings_touching_is_the_filtered_walk() {
        use pcv_rng::Rng;
        let mut rng = Rng::new(0xC0_7011C);
        for round in 0..50 {
            let mut db = ParasiticDb::new();
            let n = rng.range_usize(2, 12);
            let ids: Vec<PNetId> =
                (0..n).map(|i| db.add_net(NetParasitics::new(format!("n{i}")))).collect();
            // Net 0 stays uncoupled; parallel and zero-farad couplings occur.
            for _ in 0..rng.range_usize(0, 60) {
                let a = ids[rng.range_usize(1, n)];
                let b = ids[rng.range_usize(1, n)];
                if a != b {
                    let farads = if rng.bool_with(0.2) { 0.0 } else { rng.range_f64(0.0, 1e-14) };
                    db.add_coupling(
                        NetNodeRef { net: a, node: 0 },
                        NetNodeRef { net: b, node: 0 },
                        farads,
                    );
                }
            }
            let mut sets = vec![vec![], vec![ids[0]], ids.clone()];
            for _ in 0..8 {
                // Draws with replacement: a set may name a net twice.
                sets.push((0..rng.range_usize(1, 7)).map(|_| ids[rng.range_usize(0, n)]).collect());
            }
            for set in sets {
                let want: Vec<*const CouplingCap> = db
                    .couplings()
                    .iter()
                    .filter(|c| set.contains(&c.a.net) || set.contains(&c.b.net))
                    .map(std::ptr::from_ref)
                    .collect();
                let got: Vec<*const CouplingCap> =
                    db.couplings_touching(&set).map(std::ptr::from_ref).collect();
                assert_eq!(got, want, "round {round}, set {set:?}");
            }
        }
    }
}
