//! Modified nodal analysis assembly.
//!
//! The unknown vector is `[node voltages | voltage-source branch currents]`.
//! A [`Stamper`] accumulates one Newton iteration's Jacobian and right-hand
//! side; element evaluation lives in the engine so the stamper stays a dumb,
//! easily tested accumulator.

use pcv_netlist::{Circuit, Element, NodeId};
use pcv_sparse::{Csc, Triplets};

/// Static layout of an MNA system for a circuit: node count, branch-current
/// rows for voltage sources, and total size.
#[derive(Debug, Clone)]
pub struct MnaLayout {
    n_nodes: usize,
    /// For each element index that is a `Vsrc`, its branch row.
    vsrc_rows: Vec<(usize, usize)>,
}

impl MnaLayout {
    /// Build the layout for a circuit.
    pub fn new(ckt: &Circuit) -> Self {
        let n_nodes = ckt.num_nodes();
        let mut vsrc_rows = Vec::new();
        let mut next = n_nodes;
        for (i, e) in ckt.elements().iter().enumerate() {
            if matches!(e, Element::Vsrc { .. }) {
                vsrc_rows.push((i, next));
                next += 1;
            }
        }
        MnaLayout { n_nodes, vsrc_rows }
    }

    /// Number of non-ground nodes.
    pub fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Total unknown count (nodes plus branch currents).
    pub fn size(&self) -> usize {
        self.n_nodes + self.vsrc_rows.len()
    }

    /// Branch row of the `k`-th voltage source, as `(element_index, row)`.
    pub fn vsrc_rows(&self) -> &[(usize, usize)] {
        &self.vsrc_rows
    }
}

/// Accumulator for one linearized MNA system `J x = b`.
#[derive(Debug)]
pub struct Stamper {
    size: usize,
    triplets: Triplets,
    rhs: Vec<f64>,
}

impl Stamper {
    /// Create an empty system of the given size.
    pub fn new(size: usize) -> Self {
        Stamper { size, triplets: Triplets::new(size, size), rhs: vec![0.0; size] }
    }

    /// Total unknown count.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Forget every stamp, keeping the size and the allocations: the next
    /// Newton iteration stamps into the same buffers.
    pub fn clear(&mut self) {
        self.triplets.clear();
        self.rhs.fill(0.0);
    }

    /// The system as stamped so far: unassembled Jacobian entries and RHS.
    pub fn system(&self) -> (&Triplets, &[f64]) {
        (&self.triplets, &self.rhs)
    }

    /// Stamp a conductance `g` between two nodes (either may be ground).
    pub fn conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        if let Some(i) = a.index_opt() {
            self.triplets.push(i, i, g);
            if let Some(j) = b.index_opt() {
                self.triplets.push(i, j, -g);
            }
        }
        if let Some(j) = b.index_opt() {
            self.triplets.push(j, j, g);
            if let Some(i) = a.index_opt() {
                self.triplets.push(j, i, -g);
            }
        }
    }

    /// Stamp a raw Jacobian entry: `d(KCL at row_node)/d(v[col_node])`.
    pub fn jacobian(&mut self, row: NodeId, col: NodeId, g: f64) {
        if let (Some(i), Some(j)) = (row.index_opt(), col.index_opt()) {
            self.triplets.push(i, j, g);
        }
    }

    /// Inject a current `i` *into* a node (adds to the RHS).
    pub fn current_into(&mut self, node: NodeId, i: f64) {
        if let Some(k) = node.index_opt() {
            self.rhs[k] += i;
        }
    }

    /// Stamp a voltage source `v(pos) - v(neg) = value` with branch row
    /// `row` (from [`MnaLayout::vsrc_rows`]).
    pub fn vsrc(&mut self, row: usize, pos: NodeId, neg: NodeId, value: f64) {
        if let Some(i) = pos.index_opt() {
            self.triplets.push(i, row, 1.0);
            self.triplets.push(row, i, 1.0);
        }
        if let Some(j) = neg.index_opt() {
            self.triplets.push(j, row, -1.0);
            self.triplets.push(row, j, -1.0);
        }
        self.rhs[row] += value;
    }

    /// Add `g` to a diagonal entry by raw row index (gmin, branch damping).
    pub fn diagonal(&mut self, row: usize, g: f64) {
        self.triplets.push(row, row, g);
    }

    /// Finish assembly: returns the sparse Jacobian and RHS.
    pub fn finish(self) -> (Csc, Vec<f64>) {
        (self.triplets.to_csc(), self.rhs)
    }
}

/// Voltage of a node under a solution vector (`0.0` for ground).
#[inline]
pub fn node_voltage(x: &[f64], node: NodeId) -> f64 {
    match node.index_opt() {
        Some(i) => x[i],
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::SourceWave;
    use pcv_sparse::SparseLu;

    #[test]
    fn layout_assigns_branch_rows() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_resistor(a, b, 1.0);
        ckt.add_vsrc(a, Circuit::GROUND, SourceWave::Dc(1.0));
        ckt.add_vsrc(b, Circuit::GROUND, SourceWave::Dc(2.0));
        let layout = MnaLayout::new(&ckt);
        assert_eq!(layout.num_nodes(), 2);
        assert_eq!(layout.size(), 4);
        assert_eq!(layout.vsrc_rows(), &[(1, 2), (2, 3)]);
    }

    #[test]
    fn voltage_divider_solves() {
        // v1 --- R1=1k --- v2 --- R2=1k --- gnd, V(v1)=2.0
        let mut ckt = Circuit::new();
        let v1 = ckt.node("v1");
        let v2 = ckt.node("v2");
        let layout = MnaLayout::new(&ckt);
        let _ = layout; // layout built before sources for variety below
        let mut ckt2 = Circuit::new();
        let a = ckt2.node("a");
        let b = ckt2.node("b");
        ckt2.add_vsrc(a, Circuit::GROUND, SourceWave::Dc(2.0));
        let layout = MnaLayout::new(&ckt2);
        let mut st = Stamper::new(layout.size());
        st.conductance(a, b, 1e-3);
        st.conductance(b, Circuit::GROUND, 1e-3);
        let (_, row) = layout.vsrc_rows()[0];
        st.vsrc(row, a, Circuit::GROUND, 2.0);
        let (j, rhs) = st.finish();
        let x = SparseLu::factor(&j, 1e-3).unwrap().solve(&rhs);
        assert!((node_voltage(&x, a) - 2.0).abs() < 1e-12);
        assert!((node_voltage(&x, b) - 1.0).abs() < 1e-12);
        // Branch current: 1 mA flowing out of the source's + terminal.
        assert!((x[row] + 1e-3).abs() < 1e-12);
        let _ = (v1, v2);
    }

    #[test]
    fn current_source_injects() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let layout = MnaLayout::new(&ckt);
        let mut st = Stamper::new(layout.size());
        st.conductance(a, Circuit::GROUND, 1e-3);
        st.current_into(a, 2e-3);
        let (j, rhs) = st.finish();
        let x = SparseLu::factor(&j, 1e-3).unwrap().solve(&rhs);
        assert!((x[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ground_terminals_are_ignored_gracefully() {
        let mut st = Stamper::new(1);
        st.conductance(Circuit::GROUND, Circuit::GROUND, 1.0);
        st.current_into(Circuit::GROUND, 1.0);
        st.jacobian(Circuit::GROUND, NodeId::from_index(0), 1.0);
        st.diagonal(0, 1.0);
        let (j, rhs) = st.finish();
        assert_eq!(j.nnz(), 1);
        assert_eq!(rhs, vec![0.0]);
    }

    #[test]
    fn node_voltage_of_ground_is_zero() {
        assert_eq!(node_voltage(&[5.0], Circuit::GROUND), 0.0);
        assert_eq!(node_voltage(&[5.0], NodeId::from_index(0)), 5.0);
    }
}
