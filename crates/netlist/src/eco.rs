//! ECO (engineering change order) deltas between two parasitic databases.
//!
//! [`EcoDelta::diff`] compares two [`ParasiticDb`]s **by net name** and
//! produces a typed description of every electrical difference: nets
//! added, nets removed, per-net RC edits ([`NetDelta`]) and coupling-cap
//! edits ([`CouplingEdit`]). The diff is the front end of incremental
//! re-verification: its [`EcoDelta::touched_nets`] seed the coupling-aware
//! dirty-set computation, so it must be *exact* —
//!
//! * values compare **bit-for-bit** (`f64::to_bits`), never with a
//!   tolerance: the engine's cluster fingerprints hash exact bits, so any
//!   bit flip can change a verdict and must dirty its clusters;
//! * element lists compare as **multisets** — a SPEF that lists the same
//!   resistors or coupling caps in a different order is electrically
//!   identical and produces no edit (parallel duplicates keep their
//!   multiplicity);
//! * coupling endpoints are **canonicalized** (lexicographically smaller
//!   `(net, node)` first), so `*CC a 1 b 2 c` and `*CC b 2 a 1 c` are the
//!   same capacitor and never a phantom edit;
//! * **zero-valued caps are real**: a coupling entry of `0.0` farads is
//!   electrically inert but still enters the engine's canonical
//!   fingerprints, so adding or dropping one is a reportable edit.

use crate::parasitics::{NetNodeRef, NetParasitics, PNetId, ParasiticDb};
use std::collections::{BTreeMap, BTreeSet};

/// One endpoint of a coupling capacitor, by net name and node index.
pub type CouplingEnd = (String, usize);

/// A multiset-valued edit: the old and new capacitance/resistance values
/// observed under one key, each sorted by `f64::total_cmp`. Either side
/// may be empty (pure addition / removal); both non-empty means the
/// values under the key changed.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueEdit {
    /// Values in the old database (sorted, possibly empty).
    pub old: Vec<f64>,
    /// Values in the new database (sorted, possibly empty).
    pub new: Vec<f64>,
}

/// A resistor edit within one net, keyed by the stored `(a, b)` node pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ResEdit {
    /// First node of the resistor as stored.
    pub a: usize,
    /// Second node of the resistor as stored.
    pub b: usize,
    /// Old vs new resistance values (ohms) under this node pair.
    pub values: ValueEdit,
}

/// A ground-capacitor edit within one net, keyed by node.
#[derive(Debug, Clone, PartialEq)]
pub struct GcapEdit {
    /// The node the capacitor hangs off.
    pub node: usize,
    /// Old vs new capacitance values (farads) at this node.
    pub values: ValueEdit,
}

/// All intra-net differences for one net present in both databases.
#[derive(Debug, Clone, PartialEq)]
pub struct NetDelta {
    /// Net name (the diff key).
    pub name: String,
    /// `Some((old, new))` when the node count changed.
    pub nodes: Option<(usize, usize)>,
    /// The set of receiver (load) nodes changed.
    pub loads_changed: bool,
    /// Resistor multiset edits.
    pub res_edits: Vec<ResEdit>,
    /// Ground-capacitor multiset edits.
    pub gcap_edits: Vec<GcapEdit>,
}

impl NetDelta {
    /// Whether this record carries any difference.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_none()
            && !self.loads_changed
            && self.res_edits.is_empty()
            && self.gcap_edits.is_empty()
    }
}

/// A coupling-capacitor edit, keyed by the canonical (sorted) endpoint
/// pair. Covers couplings incident to added or removed nets as well.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingEdit {
    /// Lexicographically smaller endpoint.
    pub a: CouplingEnd,
    /// Lexicographically larger endpoint.
    pub b: CouplingEnd,
    /// Old vs new capacitance values (farads) between these endpoints.
    pub values: ValueEdit,
}

/// A typed ECO delta between two parasitic databases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EcoDelta {
    /// Nets present only in the new database (sorted by name).
    pub added: Vec<String>,
    /// Nets present only in the old database (sorted by name).
    pub removed: Vec<String>,
    /// Nets present in both whose own RC content differs (sorted by name).
    pub reparasitized: Vec<NetDelta>,
    /// Coupling-cap differences (sorted by canonical endpoint pair).
    pub coupling_edits: Vec<CouplingEdit>,
}

/// Multiset of `f64` values keyed by `K`, with bit-exact comparison.
fn value_map<K: Ord, I: Iterator<Item = (K, f64)>>(items: I) -> BTreeMap<K, Vec<f64>> {
    let mut map: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for (k, v) in items {
        map.entry(k).or_default().push(v);
    }
    for vals in map.values_mut() {
        vals.sort_by(f64::total_cmp);
    }
    map
}

/// Bit-exact equality of two sorted value multisets.
fn same_values(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Merge two keyed multisets into the keys where they differ bit-for-bit.
///
/// A sorted merge-join over the two maps: unchanged keys (the vast
/// majority in an ECO diff) are visited once and never cloned, so the
/// cost is linear in the databases and allocation is proportional to the
/// *edit*, not the chip.
fn multiset_edits<K: Ord>(
    old: BTreeMap<K, Vec<f64>>,
    new: BTreeMap<K, Vec<f64>>,
) -> Vec<(K, ValueEdit)> {
    let mut edits = Vec::new();
    let mut old_it = old.into_iter().peekable();
    let mut new_it = new.into_iter().peekable();
    loop {
        match (old_it.peek(), new_it.peek()) {
            (Some((ko, _)), Some((kn, _))) => match ko.cmp(kn) {
                std::cmp::Ordering::Equal => {
                    let (k, o) = old_it.next().expect("peeked");
                    let (_, n) = new_it.next().expect("peeked");
                    if !same_values(&o, &n) {
                        edits.push((k, ValueEdit { old: o, new: n }));
                    }
                }
                std::cmp::Ordering::Less => {
                    let (k, o) = old_it.next().expect("peeked");
                    edits.push((k, ValueEdit { old: o, new: Vec::new() }));
                }
                std::cmp::Ordering::Greater => {
                    let (k, n) = new_it.next().expect("peeked");
                    edits.push((k, ValueEdit { old: Vec::new(), new: n }));
                }
            },
            (Some(_), None) => {
                let (k, o) = old_it.next().expect("peeked");
                edits.push((k, ValueEdit { old: o, new: Vec::new() }));
            }
            (None, Some(_)) => {
                let (k, n) = new_it.next().expect("peeked");
                edits.push((k, ValueEdit { old: Vec::new(), new: n }));
            }
            (None, None) => break,
        }
    }
    edits
}

/// Fast path: the two views of a net are stored bit-identically in the
/// same order — the overwhelmingly common case when a re-extraction only
/// edits a handful of nets. Order-sensitive, so a `false` only means
/// "run the full multiset diff", never "different".
fn same_net_bits(old: &NetParasitics, new: &NetParasitics) -> bool {
    old.num_nodes() == new.num_nodes()
        && old.load_nodes() == new.load_nodes()
        && old.resistors().len() == new.resistors().len()
        && old.ground_caps().len() == new.ground_caps().len()
        && old
            .resistors()
            .iter()
            .zip(new.resistors())
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
        && old
            .ground_caps()
            .iter()
            .zip(new.ground_caps())
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Diff the intra-net content of one net present in both databases.
fn net_delta(name: &str, old: &NetParasitics, new: &NetParasitics) -> NetDelta {
    let nodes = (old.num_nodes() != new.num_nodes()).then(|| (old.num_nodes(), new.num_nodes()));
    let loads_old: BTreeSet<usize> = old.load_nodes().iter().copied().collect();
    let loads_new: BTreeSet<usize> = new.load_nodes().iter().copied().collect();
    let res_edits = multiset_edits(
        value_map(old.resistors().iter().map(|&(a, b, r)| ((a, b), r))),
        value_map(new.resistors().iter().map(|&(a, b, r)| ((a, b), r))),
    )
    .into_iter()
    .map(|((a, b), values)| ResEdit { a, b, values })
    .collect();
    let gcap_edits = multiset_edits(
        value_map(old.ground_caps().iter().copied()),
        value_map(new.ground_caps().iter().copied()),
    )
    .into_iter()
    .map(|(node, values)| GcapEdit { node, values })
    .collect();
    NetDelta {
        name: name.to_owned(),
        nodes,
        loads_changed: loads_old != loads_new,
        res_edits,
        gcap_edits,
    }
}

/// Canonically keyed coupling multiset of a whole database:
/// `(smaller endpoint, larger endpoint) -> sorted farads`.
fn coupling_map(db: &ParasiticDb) -> BTreeMap<(CouplingEnd, CouplingEnd), Vec<f64>> {
    value_map(db.couplings().iter().map(|c| {
        let ea: CouplingEnd = (db.net(c.a.net).name().to_owned(), c.a.node);
        let eb: CouplingEnd = (db.net(c.b.net).name().to_owned(), c.b.node);
        let key = if ea <= eb { (ea, eb) } else { (eb, ea) };
        (key, c.farads)
    }))
}

/// Fast path over the coupling lists: bit-identical entries in the same
/// stored order, either way round (two entries share a canonical key
/// exactly when they join the same two endpoints). `new_id` maps an old net
/// to the new net of its name. Like [`same_net_bits`], `false` only means
/// "build the canonical maps".
fn same_coupling_bits(old: &ParasiticDb, new: &ParasiticDb, new_id: &[Option<PNetId>]) -> bool {
    let same_end =
        |o: NetNodeRef, n: NetNodeRef| new_id[o.net.0] == Some(n.net) && o.node == n.node;
    old.couplings().len() == new.couplings().len()
        && old.couplings().iter().zip(new.couplings()).all(|(o, n)| {
            o.farads.to_bits() == n.farads.to_bits()
                && ((same_end(o.a, n.a) && same_end(o.b, n.b))
                    || (same_end(o.a, n.b) && same_end(o.b, n.a)))
        })
}

impl EcoDelta {
    /// Compute the typed delta between two databases, comparing by net
    /// name with bit-exact values and multiset semantics (see the module
    /// docs for the exact rules).
    pub fn diff(old: &ParasiticDb, new: &ParasiticDb) -> EcoDelta {
        let _span = pcv_trace::span("engine", "eco_diff");
        let mut removed = Vec::new();
        let mut reparasitized = Vec::new();
        // The new net of each old net's name: one look-up a net, which the
        // coupling comparison then reads instead of comparing names.
        let mut new_id = Vec::with_capacity(old.num_nets());
        for (_, o) in old.iter() {
            let id = new.find_net(o.name());
            new_id.push(id);
            match id.map(|id| new.net(id)) {
                None => removed.push(o.name().to_owned()),
                Some(n) if same_net_bits(o, n) => {}
                Some(n) => {
                    let d = net_delta(o.name(), o, n);
                    if !d.is_empty() {
                        reparasitized.push(d);
                    }
                }
            }
        }
        let mut added: Vec<String> = new
            .iter()
            .filter(|(_, n)| old.find_net(n.name()).is_none())
            .map(|(_, n)| n.name().to_owned())
            .collect();
        added.sort_unstable();
        removed.sort_unstable();
        reparasitized.sort_unstable_by(|a: &NetDelta, b| a.name.cmp(&b.name));
        let coupling_edits = if same_coupling_bits(old, new, &new_id) {
            Vec::new()
        } else {
            multiset_edits(coupling_map(old), coupling_map(new))
                .into_iter()
                .map(|((a, b), values)| CouplingEdit { a, b, values })
                .collect()
        };

        EcoDelta { added, removed, reparasitized, coupling_edits }
    }

    /// `true` when the two databases are electrically identical (a no-op
    /// rewrite: same nets, same RC bits, same coupling multiset).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.reparasitized.is_empty()
            && self.coupling_edits.is_empty()
    }

    /// Every net name an edit touches: added and removed nets,
    /// re-parasitized nets, and **both** endpoints of every coupling edit.
    /// This is the seed set for the coupling-aware blast radius.
    pub fn touched_nets(&self) -> BTreeSet<String> {
        let mut touched: BTreeSet<String> = BTreeSet::new();
        touched.extend(self.added.iter().cloned());
        touched.extend(self.removed.iter().cloned());
        touched.extend(self.reparasitized.iter().map(|d| d.name.clone()));
        for e in &self.coupling_edits {
            touched.insert(e.a.0.clone());
            touched.insert(e.b.0.clone());
        }
        touched
    }

    /// Total number of element-level edits (a size measure for logs).
    pub fn num_edits(&self) -> usize {
        self.added.len()
            + self.removed.len()
            + self
                .reparasitized
                .iter()
                .map(|d| {
                    d.res_edits.len()
                        + d.gcap_edits.len()
                        + usize::from(d.nodes.is_some())
                        + usize::from(d.loads_changed)
                })
                .sum::<usize>()
            + self.coupling_edits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parasitics::NetNodeRef;
    use crate::PNetId;

    /// Two coupled two-node nets plus one zero-cap coupling.
    fn fixture() -> ParasiticDb {
        let mut db = ParasiticDb::new();
        for name in ["a", "b", "c"] {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 100.0);
            n.add_ground_cap(n1, 2e-15);
            n.mark_load(n1);
            db.add_net(n);
        }
        let (a, b, c) = (PNetId(0), PNetId(1), PNetId(2));
        db.add_coupling(NetNodeRef { net: a, node: 1 }, NetNodeRef { net: b, node: 1 }, 5e-15);
        // Zero-cap entry: electrically inert, fingerprint-relevant.
        db.add_coupling(NetNodeRef { net: b, node: 1 }, NetNodeRef { net: c, node: 1 }, 0.0);
        db
    }

    #[test]
    fn identical_databases_diff_empty() {
        let db = fixture();
        let d = EcoDelta::diff(&db, &db.clone());
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(d.num_edits(), 0);
        assert!(d.touched_nets().is_empty());
    }

    #[test]
    fn reordered_elements_are_not_edits() {
        // Same electrical content, different emission order: resistors,
        // ground caps and couplings shuffled, coupling endpoints swapped.
        let old = fixture();
        let mut new = ParasiticDb::new();
        for name in ["a", "b", "c"] {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_ground_cap(n1, 2e-15);
            n.add_resistor(0, n1, 100.0);
            n.mark_load(n1);
            new.add_net(n);
        }
        let (a, b, c) = (PNetId(0), PNetId(1), PNetId(2));
        // Emitted in the opposite order, with endpoints flipped.
        new.add_coupling(NetNodeRef { net: c, node: 1 }, NetNodeRef { net: b, node: 1 }, 0.0);
        new.add_coupling(NetNodeRef { net: b, node: 1 }, NetNodeRef { net: a, node: 1 }, 5e-15);
        let d = EcoDelta::diff(&old, &new);
        assert!(d.is_empty(), "reordering must not produce phantom edits: {d:?}");
    }

    #[test]
    fn value_edits_are_bit_exact() {
        let old = fixture();
        let mut new = fixture();
        // A 1-ulp resistance nudge must register.
        let r = new.net(PNetId(0)).resistors()[0];
        let nudged = f64::from_bits(r.2.to_bits() + 1);
        *new.net_mut(PNetId(0)) = {
            let mut n = NetParasitics::new("a");
            let n1 = n.add_node();
            n.add_resistor(0, n1, nudged);
            n.add_ground_cap(n1, 2e-15);
            n.mark_load(n1);
            n
        };
        let d = EcoDelta::diff(&old, &new);
        assert_eq!(d.reparasitized.len(), 1);
        assert_eq!(d.reparasitized[0].name, "a");
        assert_eq!(d.reparasitized[0].res_edits.len(), 1);
        assert_eq!(d.touched_nets(), BTreeSet::from(["a".to_owned()]));
    }

    #[test]
    fn zero_cap_coupling_changes_are_edits() {
        let old = fixture();
        // Dropping the zero-cap b<->c entry is electrically inert but
        // changes the canonical fingerprints of b and c — it must report.
        let mut new = ParasiticDb::new();
        for name in ["a", "b", "c"] {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 100.0);
            n.add_ground_cap(n1, 2e-15);
            n.mark_load(n1);
            new.add_net(n);
        }
        new.add_coupling(
            NetNodeRef { net: PNetId(0), node: 1 },
            NetNodeRef { net: PNetId(1), node: 1 },
            5e-15,
        );
        let d = EcoDelta::diff(&old, &new);
        assert_eq!(d.coupling_edits.len(), 1);
        let e = &d.coupling_edits[0];
        assert_eq!((e.a.0.as_str(), e.b.0.as_str()), ("b", "c"));
        assert_eq!(e.values.old, vec![0.0]);
        assert!(e.values.new.is_empty());
        assert_eq!(d.touched_nets(), BTreeSet::from(["b".to_owned(), "c".to_owned()]));
    }

    #[test]
    fn added_and_removed_nets_with_couplings() {
        let old = fixture();
        let mut new = fixture();
        let mut extra = NetParasitics::new("d");
        let d1 = extra.add_node();
        extra.add_resistor(0, d1, 50.0);
        let did = new.add_net(extra);
        new.add_coupling(
            NetNodeRef { net: did, node: 1 },
            NetNodeRef { net: PNetId(0), node: 1 },
            1e-15,
        );
        let d = EcoDelta::diff(&old, &new);
        assert_eq!(d.added, vec!["d".to_owned()]);
        assert!(d.removed.is_empty());
        // The new net's coupling to "a" is an edit touching both ends.
        assert_eq!(d.coupling_edits.len(), 1);
        assert!(d.touched_nets().contains("a"));
        assert!(d.touched_nets().contains("d"));
        // Reverse direction: same delta classified as a removal.
        let r = EcoDelta::diff(&new, &old);
        assert_eq!(r.removed, vec!["d".to_owned()]);
    }

    #[test]
    fn parallel_duplicates_keep_multiplicity() {
        // Two identical resistors in parallel vs one: a multiset diff.
        let mut old = ParasiticDb::new();
        let mut n = NetParasitics::new("a");
        let n1 = n.add_node();
        n.add_resistor(0, n1, 100.0);
        n.add_resistor(0, n1, 100.0);
        old.add_net(n);
        let mut new = ParasiticDb::new();
        let mut n = NetParasitics::new("a");
        let n1 = n.add_node();
        n.add_resistor(0, n1, 100.0);
        new.add_net(n);
        let d = EcoDelta::diff(&old, &new);
        assert_eq!(d.reparasitized.len(), 1);
        let e = &d.reparasitized[0].res_edits[0];
        assert_eq!(e.values.old.len(), 2);
        assert_eq!(e.values.new.len(), 1);
    }

    #[test]
    fn spef_round_trip_produces_no_phantom_edits() {
        // The ECO front door: a database (with a zero-cap coupling) that
        // goes out through the SPEF writer and back through the parser
        // must diff empty against itself.
        let db = fixture();
        let text = crate::spef::write_spef(&db);
        let back = crate::spef::parse_spef(&text).expect("round-trip parses");
        assert!(EcoDelta::diff(&db, &back).is_empty());
    }
}
