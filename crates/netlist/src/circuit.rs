//! Flat electrical circuits: named nodes plus R, C, sources and MOSFETs.

use crate::wave::SourceWave;
use std::collections::HashMap;
use std::fmt;

/// A circuit node handle.
///
/// `NodeId::GROUND` is the reference node and is not counted in
/// [`Circuit::num_nodes`]; all other nodes are indexed `0..num_nodes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(usize::MAX);

    /// `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self == NodeId::GROUND
    }

    /// Index of a non-ground node.
    ///
    /// # Panics
    ///
    /// Panics when called on ground.
    pub fn index(self) -> usize {
        assert!(!self.is_ground(), "ground node has no index");
        self.0
    }

    /// Index of the node, or `None` for ground.
    pub fn index_opt(self) -> Option<usize> {
        if self.is_ground() {
            None
        } else {
            Some(self.0)
        }
    }

    /// Construct from a raw index (for deserialization).
    pub fn from_index(i: usize) -> Self {
        NodeId(i)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ground() {
            write!(f, "gnd")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// NMOS or PMOS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosKind {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// Level-1 (Shichman–Hodges) MOSFET parameters for a 0.25 µm-class process.
#[derive(Debug, Clone, PartialEq)]
pub struct MosParams {
    /// Device polarity.
    pub kind: MosKind,
    /// Channel width in meters.
    pub w: f64,
    /// Channel length in meters.
    pub l: f64,
    /// Zero-bias threshold voltage (positive for NMOS, negative for PMOS).
    pub vt0: f64,
    /// Transconductance parameter `KP = µ Cox` in A/V².
    pub kp: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Gate-oxide capacitance per area (F/m²), used for simple gate caps.
    pub cox: f64,
    /// Source/drain junction + overlap capacitance per width (F/m).
    pub cj_w: f64,
}

impl MosParams {
    /// A representative 0.25 µm NMOS with the given width (in meters).
    pub fn nmos_025(w: f64) -> Self {
        MosParams {
            kind: MosKind::Nmos,
            w,
            l: 0.25e-6,
            vt0: 0.55,
            kp: 170e-6,
            lambda: 0.08,
            cox: 6.0e-3,
            cj_w: 0.6e-9,
        }
    }

    /// A representative 0.25 µm PMOS with the given width (in meters).
    pub fn pmos_025(w: f64) -> Self {
        MosParams {
            kind: MosKind::Pmos,
            w,
            l: 0.25e-6,
            vt0: -0.6,
            kp: 60e-6,
            lambda: 0.1,
            cox: 6.0e-3,
            cj_w: 0.65e-9,
        }
    }

    /// `beta = KP * W / L`, the current-factor of the Level-1 model.
    pub fn beta(&self) -> f64 {
        self.kp * self.w / self.l
    }

    /// Total gate capacitance (area) in farads.
    pub fn gate_cap(&self) -> f64 {
        self.cox * self.w * self.l
    }

    /// Drain/source junction capacitance in farads.
    pub fn junction_cap(&self) -> f64 {
        self.cj_w * self.w
    }
}

/// A circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between two nodes.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (must be positive).
        ohms: f64,
    },
    /// Linear capacitor between two nodes.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (must be positive).
        farads: f64,
    },
    /// Independent voltage source (adds an MNA branch current).
    Vsrc {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Waveform.
        wave: SourceWave,
    },
    /// Independent current source (flows from `pos` to `neg` through the
    /// source, i.e. injects into `neg`... follows SPICE convention: positive
    /// current flows from `pos` node through the source to `neg` node).
    Isrc {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Waveform.
        wave: SourceWave,
    },
    /// Level-1 MOSFET.
    Mosfet {
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Model parameters.
        params: MosParams,
    },
}

/// A flat circuit: a node arena plus an element list.
///
/// Nodes are created on demand by [`Circuit::node`] and identified by name;
/// `"0"` and `"gnd"` map to the ground reference.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: Vec<String>,
    by_name: HashMap<String, NodeId>,
    elements: Vec<Element>,
}

impl Circuit {
    /// The ground node (alias of [`NodeId::GROUND`], for call-site brevity).
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Create an empty circuit.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Get or create a named node. `"0"` and `"gnd"` return ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return NodeId::GROUND;
        }
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NodeId(self.names.len());
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Create a fresh anonymous node with a generated unique name.
    pub fn fresh_node(&mut self, prefix: &str) -> NodeId {
        let name = format!("{}${}", prefix, self.names.len());
        self.node(&name)
    }

    /// Look up an existing node by name (without creating it).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(NodeId::GROUND);
        }
        self.by_name.get(name).copied()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        if id.is_ground() {
            "0"
        } else {
            &self.names[id.0]
        }
    }

    /// Number of non-ground nodes.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Add a resistor; returns its element index.
    ///
    /// # Panics
    ///
    /// Panics if `ohms <= 0` or not finite.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> usize {
        assert!(ohms > 0.0 && ohms.is_finite(), "resistance must be positive");
        self.push(Element::Resistor { a, b, ohms })
    }

    /// Add a capacitor; returns its element index.
    ///
    /// # Panics
    ///
    /// Panics if `farads <= 0` or not finite.
    pub fn add_capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> usize {
        assert!(farads > 0.0 && farads.is_finite(), "capacitance must be positive");
        self.push(Element::Capacitor { a, b, farads })
    }

    /// Add an independent voltage source; returns its element index.
    pub fn add_vsrc(&mut self, pos: NodeId, neg: NodeId, wave: SourceWave) -> usize {
        self.push(Element::Vsrc { pos, neg, wave })
    }

    /// Add an independent current source; returns its element index.
    pub fn add_isrc(&mut self, pos: NodeId, neg: NodeId, wave: SourceWave) -> usize {
        self.push(Element::Isrc { pos, neg, wave })
    }

    /// Add a MOSFET; returns its element index.
    pub fn add_mosfet(&mut self, d: NodeId, g: NodeId, s: NodeId, params: MosParams) -> usize {
        self.push(Element::Mosfet { d, g, s, params })
    }

    fn push(&mut self, e: Element) -> usize {
        self.elements.push(e);
        self.elements.len() - 1
    }

    /// Count of elements by a coarse category: `(r, c, v, i, mos)`.
    pub fn element_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0, 0);
        for e in &self.elements {
            match e {
                Element::Resistor { .. } => counts.0 += 1,
                Element::Capacitor { .. } => counts.1 += 1,
                Element::Vsrc { .. } => counts.2 += 1,
                Element::Isrc { .. } => counts.3 += 1,
                Element::Mosfet { .. } => counts.4 += 1,
            }
        }
        counts
    }

    /// Merge another circuit into this one, remapping its nodes by name.
    /// Nodes with equal names are connected; returns nothing because node
    /// identity is name-based.
    pub fn merge(&mut self, other: &Circuit) {
        let map: Vec<NodeId> = (0..other.num_nodes()).map(|i| self.node(&other.names[i])).collect();
        let remap = |id: NodeId| -> NodeId {
            if id.is_ground() {
                NodeId::GROUND
            } else {
                map[id.0]
            }
        };
        for e in &other.elements {
            let e2 = match e {
                Element::Resistor { a, b, ohms } => {
                    Element::Resistor { a: remap(*a), b: remap(*b), ohms: *ohms }
                }
                Element::Capacitor { a, b, farads } => {
                    Element::Capacitor { a: remap(*a), b: remap(*b), farads: *farads }
                }
                Element::Vsrc { pos, neg, wave } => {
                    Element::Vsrc { pos: remap(*pos), neg: remap(*neg), wave: wave.clone() }
                }
                Element::Isrc { pos, neg, wave } => {
                    Element::Isrc { pos: remap(*pos), neg: remap(*neg), wave: wave.clone() }
                }
                Element::Mosfet { d, g, s, params } => Element::Mosfet {
                    d: remap(*d),
                    g: remap(*g),
                    s: remap(*s),
                    params: params.clone(),
                },
            };
            self.elements.push(e2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_identity_is_name_based() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.node_name(a), "a");
    }

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert!(c.node("0").is_ground());
        assert!(c.node("gnd").is_ground());
        assert!(c.node("GND").is_ground());
        assert_eq!(c.num_nodes(), 0);
        assert_eq!(c.node_name(NodeId::GROUND), "0");
        assert_eq!(c.find_node("0"), Some(NodeId::GROUND));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn fresh_nodes_are_unique() {
        let mut c = Circuit::new();
        let x = c.fresh_node("t");
        let y = c.fresh_node("t");
        assert_ne!(x, y);
    }

    #[test]
    fn element_building_and_counts() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor(a, b, 100.0);
        c.add_capacitor(b, Circuit::GROUND, 1e-15);
        c.add_vsrc(a, Circuit::GROUND, SourceWave::Dc(3.0));
        c.add_isrc(b, Circuit::GROUND, SourceWave::Dc(1e-6));
        c.add_mosfet(a, b, Circuit::GROUND, MosParams::nmos_025(1e-6));
        assert_eq!(c.element_counts(), (1, 1, 1, 1, 1));
        assert_eq!(c.elements().len(), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_resistance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor(a, Circuit::GROUND, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_capacitance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_capacitor(a, Circuit::GROUND, -1e-15);
    }

    #[test]
    fn ground_has_no_index() {
        assert_eq!(NodeId::GROUND.index_opt(), None);
        assert_eq!(NodeId::from_index(3).index(), 3);
    }

    #[test]
    #[should_panic(expected = "ground node has no index")]
    fn ground_index_panics() {
        let _ = NodeId::GROUND.index();
    }

    #[test]
    fn merge_connects_by_name() {
        let mut a = Circuit::new();
        let n1 = a.node("x");
        a.add_resistor(n1, Circuit::GROUND, 50.0);

        let mut b = Circuit::new();
        let n2 = b.node("x");
        let n3 = b.node("y");
        b.add_resistor(n2, n3, 25.0);

        a.merge(&b);
        assert_eq!(a.num_nodes(), 2); // x shared, y added
        assert_eq!(a.elements().len(), 2);
    }

    #[test]
    fn mos_param_helpers() {
        let p = MosParams::nmos_025(2.5e-6);
        assert!(p.beta() > 0.0);
        assert!(p.gate_cap() > 0.0);
        assert!(p.junction_cap() > 0.0);
        let q = MosParams::pmos_025(5e-6);
        assert_eq!(q.kind, MosKind::Pmos);
        assert!(q.vt0 < 0.0);
    }

    #[test]
    fn display_of_nodes() {
        assert_eq!(format!("{}", NodeId::GROUND), "gnd");
        assert_eq!(format!("{}", NodeId::from_index(4)), "n4");
    }
}
