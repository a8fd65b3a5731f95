//! Assembly of coupled RC clusters into the symmetric MNA pencil
//! `G v + C v̇ = B i` that SyMPVL reduces.
//!
//! Extraction produces nets that may have no DC path to ground, which makes
//! the conductance Laplacian only *semi*-definite. A per-node leakage
//! conductance (`gmin`, default 1 nS) restores strict positive definiteness;
//! at kΩ driver impedances and fF capacitances this perturbs results at the
//! 1e-4 % level while guaranteeing the Cholesky factorization exists.

use crate::error::MorError;
use pcv_netlist::NetParasitics;
use pcv_sparse::dense::{Dense, DenseLu};
use pcv_sparse::Csc;

/// Default per-node leakage conductance (siemens).
pub const DEFAULT_GMIN: f64 = 1e-9;

/// A coupled RC cluster with designated ports.
///
/// Nodes are dense indices `0..num_nodes`; ground is implicit. Ports are the
/// nodes at which external devices (drivers, observed receivers) connect.
///
/// # Example
///
/// ```
/// # use pcv_mor::RcCluster;
/// # fn main() -> Result<(), pcv_mor::MorError> {
/// let mut cl = RcCluster::new();
/// let a = cl.add_node();
/// cl.add_resistor_to_ground(a, 1e3)?;
/// cl.add_ground_cap(a, 1e-15)?;
/// cl.add_port(a);
/// assert_eq!(cl.num_ports(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RcCluster {
    n: usize,
    /// `(a, b, ohms)`; `usize::MAX` encodes ground.
    resistors: Vec<(usize, usize, f64)>,
    /// `(a, b, farads)`; `usize::MAX` encodes ground.
    capacitors: Vec<(usize, usize, f64)>,
    ports: Vec<usize>,
    gmin: f64,
}

const GND: usize = usize::MAX;

impl Default for RcCluster {
    fn default() -> Self {
        RcCluster::new()
    }
}

impl RcCluster {
    /// Create an empty cluster with the default `gmin`.
    pub fn new() -> Self {
        RcCluster {
            n: 0,
            resistors: Vec::new(),
            capacitors: Vec::new(),
            ports: Vec::new(),
            gmin: DEFAULT_GMIN,
        }
    }

    /// Override the leakage conductance used for regularization.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite values.
    pub fn set_gmin(&mut self, gmin: f64) -> Result<(), MorError> {
        if gmin <= 0.0 || !gmin.is_finite() {
            return Err(MorError::InvalidValue { what: "gmin" });
        }
        self.gmin = gmin;
        Ok(())
    }

    /// The leakage conductance currently used for regularization.
    #[must_use]
    pub fn gmin(&self) -> f64 {
        self.gmin
    }

    /// Add a node, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.n += 1;
        self.n - 1
    }

    /// Append a net's wire RC on nodes of its own: the net's nodes, its
    /// resistors and its non-zero grounded capacitors, in the net's order,
    /// node `i` of the net becoming node `offset + i`. Returns `offset`.
    ///
    /// Nothing is checked per element: a [`NetParasitics`] holds only
    /// in-range nodes, positive finite resistances and non-negative finite
    /// capacitances, and its nodes are the cluster's last.
    pub fn add_net(&mut self, net: &NetParasitics) -> usize {
        let offset = self.n;
        self.n += net.num_nodes();
        let resistors = net.resistors().iter().map(|&(a, b, ohms)| (offset + a, offset + b, ohms));
        self.resistors.extend(resistors);
        let caps = net.ground_caps().iter().filter(|&&(_, farads)| farads > 0.0);
        self.capacitors.extend(caps.map(|&(a, farads)| (offset + a, GND, farads)));
        offset
    }

    /// Reserve room for `resistors` more resistors and `capacitors` more
    /// capacitors.
    pub fn reserve(&mut self, resistors: usize, capacitors: usize) {
        self.resistors.reserve(resistors);
        self.capacitors.reserve(capacitors);
    }

    /// Number of nodes (excluding ground).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Add a resistor between two nodes.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range nodes and non-positive resistance.
    pub fn add_resistor(&mut self, a: usize, b: usize, ohms: f64) -> Result<(), MorError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if ohms <= 0.0 || !ohms.is_finite() {
            return Err(MorError::InvalidValue { what: "resistance" });
        }
        self.resistors.push((a, b, ohms));
        Ok(())
    }

    /// Add a resistor from a node to ground.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range nodes and non-positive resistance.
    pub fn add_resistor_to_ground(&mut self, a: usize, ohms: f64) -> Result<(), MorError> {
        self.check_node(a)?;
        if ohms <= 0.0 || !ohms.is_finite() {
            return Err(MorError::InvalidValue { what: "resistance" });
        }
        self.resistors.push((a, GND, ohms));
        Ok(())
    }

    /// Add a capacitor between two nodes (a *coupling* capacitor when the
    /// nodes belong to different nets).
    ///
    /// # Errors
    ///
    /// Rejects out-of-range nodes and negative capacitance.
    pub fn add_capacitor(&mut self, a: usize, b: usize, farads: f64) -> Result<(), MorError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if farads < 0.0 || !farads.is_finite() {
            return Err(MorError::InvalidValue { what: "capacitance" });
        }
        self.capacitors.push((a, b, farads));
        Ok(())
    }

    /// Add a grounded capacitor.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range nodes and negative capacitance.
    pub fn add_ground_cap(&mut self, a: usize, farads: f64) -> Result<(), MorError> {
        self.check_node(a)?;
        if farads < 0.0 || !farads.is_finite() {
            return Err(MorError::InvalidValue { what: "capacitance" });
        }
        self.capacitors.push((a, GND, farads));
        Ok(())
    }

    /// Designate a node as a port. Ports may repeat nodes; the order defines
    /// the port index used by reduction and simulation.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node (ports are programmer-controlled).
    pub fn add_port(&mut self, node: usize) -> usize {
        assert!(node < self.n, "port node out of range");
        self.ports.push(node);
        self.ports.len() - 1
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Port node indices in port order.
    pub fn ports(&self) -> &[usize] {
        &self.ports
    }

    /// Sentinel value used for the ground terminal in
    /// [`RcCluster::resistors`] and [`RcCluster::capacitors`].
    pub const GROUND: usize = GND;

    /// Raw resistor list as `(a, b, ohms)` with [`RcCluster::GROUND`] for
    /// ground terminals — lets other engines (e.g. a SPICE netlist builder)
    /// consume the same cluster.
    pub fn resistors(&self) -> &[(usize, usize, f64)] {
        &self.resistors
    }

    /// Raw capacitor list as `(a, b, farads)` with [`RcCluster::GROUND`]
    /// for ground terminals.
    pub fn capacitors(&self) -> &[(usize, usize, f64)] {
        &self.capacitors
    }

    fn check_node(&self, a: usize) -> Result<(), MorError> {
        if a >= self.n {
            return Err(MorError::InvalidIndex { what: "node", index: a, bound: self.n });
        }
        Ok(())
    }

    /// Assemble the conductance matrix `G` (SPD after `gmin`).
    pub fn conductance_matrix(&self) -> Csc {
        self.assemble(self.gmin, &self.resistors, |ohms| 1.0 / ohms)
    }

    /// Assemble the capacitance matrix `C` (symmetric positive
    /// semidefinite). The full diagonal pattern is pinned, so `C` always
    /// has stored zeros where the Lanczos matvec expects them.
    pub fn capacitance_matrix(&self) -> Csc {
        self.assemble(0.0, &self.capacitors, |farads| farads)
    }

    /// Stamp `diag` on every node, then each two-terminal element with
    /// value `value(x)`, straight into CSC: element `(a, b)` pushes
    /// `(a,a,+)`, `(a,b,−)`, `(b,b,+)`, `(b,a,−)` in that order, minus the
    /// entries on a grounded row or column. An element's first node is never
    /// ground, so a grounded one pushes `(a,a,+)` alone. The pushes per
    /// column are counted from the node pairs, and the elements are walked
    /// once, each value computed once.
    fn assemble(
        &self,
        diag: f64,
        elements: &[(usize, usize, f64)],
        value: impl Fn(f64) -> f64,
    ) -> Csc {
        let mut counts = vec![1usize; self.n + 1];
        counts[0] = 0;
        for &(a, b, _) in elements {
            if b == GND {
                counts[a + 1] += 1;
            } else {
                counts[a + 1] += 2;
                counts[b + 1] += 2;
            }
        }
        let stamps = elements.iter().flat_map(|&(a, b, x)| {
            let v = value(x);
            let pushes = if b == GND { 1 } else { 4 };
            [(a, a, v), (a, b, -v), (b, b, v), (b, a, -v)].into_iter().take(pushes)
        });
        Csc::from_counted_pushes(self.n, counts, (0..self.n).map(|i| (i, i, diag)).chain(stamps))
    }

    /// Exact (unreduced) transfer-function matrix
    /// `H(s) = Bᵀ (G + sC)⁻¹ B` at a real frequency point `s`, computed
    /// densely — the reference the reduced model is validated against.
    ///
    /// # Errors
    ///
    /// Returns [`MorError::NoPorts`] for a port-less cluster or a numeric
    /// error if `G + sC` is singular.
    pub fn exact_transfer(&self, s: f64) -> Result<Dense, MorError> {
        if self.ports.is_empty() {
            return Err(MorError::NoPorts);
        }
        let g = self.conductance_matrix().to_dense();
        let c = self.capacitance_matrix().to_dense();
        let p = self.ports.len();
        let mut a = Dense::zeros(self.n, self.n);
        for r in 0..self.n {
            for cc in 0..self.n {
                a[(r, cc)] = g[(r, cc)] + s * c[(r, cc)];
            }
        }
        let lu = DenseLu::factor(a)?;
        let mut h = Dense::zeros(p, p);
        for (j, &pj) in self.ports.iter().enumerate() {
            let mut e = vec![0.0; self.n];
            e[pj] = 1.0;
            let x = lu.solve(&e);
            for (i, &pi) in self.ports.iter().enumerate() {
                h[(i, j)] = x[pi];
            }
        }
        Ok(h)
    }

    /// Total grounded capacitance (diagnostic).
    pub fn total_ground_cap(&self) -> f64 {
        self.capacitors.iter().filter(|&&(_, b, _)| b == GND).map(|&(_, _, c)| c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(n: usize) -> RcCluster {
        let mut cl = RcCluster::new();
        let nodes: Vec<usize> = (0..n).map(|_| cl.add_node()).collect();
        cl.add_resistor_to_ground(nodes[0], 100.0).unwrap();
        for w in nodes.windows(2) {
            cl.add_resistor(w[0], w[1], 50.0).unwrap();
        }
        for &nd in &nodes {
            cl.add_ground_cap(nd, 1e-15).unwrap();
        }
        cl.add_port(nodes[0]);
        cl
    }

    #[test]
    fn matrices_are_symmetric_and_spd() {
        let cl = ladder(5);
        let g = cl.conductance_matrix();
        let c = cl.capacitance_matrix();
        assert!(g.is_symmetric(0.0));
        assert!(c.is_symmetric(0.0));
        assert!(pcv_sparse::SparseCholesky::factor(&g).is_ok());
    }

    /// `G` and `C` as they were assembled before stamping went straight to
    /// CSC: every stamp pushed into a `Triplets`, then `to_csc`. Kept
    /// verbatim as the oracle of `assemble`.
    fn stamped_triplets(cl: &RcCluster) -> (Csc, Csc) {
        fn stamp_sym(t: &mut pcv_sparse::Triplets, a: usize, b: usize, g: f64) {
            if a != GND {
                t.push(a, a, g);
                if b != GND {
                    t.push(a, b, -g);
                }
            }
            if b != GND {
                t.push(b, b, g);
                if a != GND {
                    t.push(b, a, -g);
                }
            }
        }
        let mut t = pcv_sparse::Triplets::new(cl.n, cl.n);
        for i in 0..cl.n {
            t.push(i, i, cl.gmin);
        }
        for &(a, b, ohms) in &cl.resistors {
            let g = 1.0 / ohms;
            stamp_sym(&mut t, a, b, g);
        }
        let g = t.to_csc();
        let mut t = pcv_sparse::Triplets::new(cl.n, cl.n);
        for i in 0..cl.n {
            t.push(i, i, 0.0);
        }
        for &(a, b, c) in &cl.capacitors {
            stamp_sym(&mut t, a, b, c);
        }
        (g, t.to_csc())
    }

    #[test]
    fn assembly_has_the_stamped_triplets_bits() {
        // Seeded clusters with grounded ends, repeated and self-looped
        // elements, a hub node whose columns take far more than the 20
        // pushes up to which the row sort keeps push order, and values at
        // ±0, subnormal and ordinary magnitudes.
        let mut rng = pcv_rng::Rng::new(0xA55E);
        let mut longest = 0;
        for case in 0..60 {
            let mut cl = RcCluster::new();
            let n = rng.range_usize(1, 24);
            (0..n).for_each(|_| _ = cl.add_node());
            let farads = |rng: &mut pcv_rng::Rng| match rng.range_usize(0, 6) {
                0 => 0.0,
                1 => -0.0,
                2 => 5e-324 * rng.range_usize(1, 9) as f64,
                _ => rng.range_f64(0.1e-15, 9e-15),
            };
            let ohms = |rng: &mut pcv_rng::Rng| match rng.range_usize(0, 6) {
                0 => 1e308 * rng.range_f64(1.0, 1.7),
                _ => rng.range_f64(1.0, 400.0),
            };
            let hub = rng.range_usize(0, n);
            for _ in 0..rng.range_usize(0, 12 * n) {
                let a = if rng.bool_with(0.3) { hub } else { rng.range_usize(0, n) };
                let b = rng.range_usize(0, n);
                match rng.range_usize(0, 4) {
                    0 => cl.add_resistor(a, b, ohms(&mut rng)).unwrap(),
                    1 => cl.add_resistor_to_ground(a, ohms(&mut rng)).unwrap(),
                    2 => cl.add_capacitor(a, b, farads(&mut rng)).unwrap(),
                    _ => cl.add_ground_cap(a, farads(&mut rng)).unwrap(),
                }
            }
            let (want_g, want_c) = stamped_triplets(&cl);
            for (what, got, want) in
                [("G", cl.conductance_matrix(), want_g), ("C", cl.capacitance_matrix(), want_c)]
            {
                assert_eq!(got.colptr(), want.colptr(), "case {case} {what}");
                assert_eq!(got.rowidx(), want.rowidx(), "case {case} {what}");
                let bits = |m: &Csc| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "case {case} {what}");
            }
            for elements in [cl.resistors(), cl.capacitors()] {
                // At least one push per element touching the hub, plus its
                // diagonal's.
                let touching = elements.iter().filter(|&&(a, b, _)| a == hub || b == hub);
                longest = longest.max(1 + touching.count());
            }
        }
        assert!(longest > 40, "a column far past the sort's stable regime ({longest} pushes)");
    }

    #[test]
    fn gmin_regularizes_floating_nodes() {
        let mut cl = RcCluster::new();
        let a = cl.add_node();
        let b = cl.add_node();
        // Only a capacitor: without gmin, G would be all zero.
        cl.add_capacitor(a, b, 1e-15).unwrap();
        let g = cl.conductance_matrix();
        assert!(pcv_sparse::SparseCholesky::factor(&g).is_ok());
    }

    #[test]
    fn dc_transfer_matches_resistive_divider() {
        // Port at the end of two 50 Ω segments grounded through 100 Ω:
        // H(0) = resistance to ground seen at the port = 100 + nothing in
        // series (port is node 0, directly grounded through 100).
        let cl = ladder(3);
        let h = cl.exact_transfer(0.0).unwrap();
        assert!((h[(0, 0)] - 100.0).abs() / 100.0 < 1e-4, "{}", h[(0, 0)]);
    }

    #[test]
    fn high_frequency_transfer_drops() {
        let cl = ladder(4);
        let h0 = cl.exact_transfer(0.0).unwrap()[(0, 0)];
        let hf = cl.exact_transfer(1e13).unwrap()[(0, 0)];
        assert!(hf < h0, "impedance falls with frequency: {hf} vs {h0}");
    }

    #[test]
    fn validation_errors() {
        let mut cl = RcCluster::new();
        let a = cl.add_node();
        assert!(cl.add_resistor(a, 7, 1.0).is_err());
        assert!(cl.add_resistor_to_ground(a, -1.0).is_err());
        assert!(cl.add_ground_cap(a, -1e-15).is_err());
        assert!(cl.set_gmin(0.0).is_err());
        assert!(cl.set_gmin(1e-10).is_ok());
        assert!(cl.exact_transfer(0.0).is_err()); // no ports
    }

    #[test]
    fn total_ground_cap_sums() {
        let cl = ladder(3);
        assert!((cl.total_ground_cap() - 3e-15).abs() < 1e-28);
    }
}
