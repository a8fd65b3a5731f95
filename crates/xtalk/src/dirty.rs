//! Coupling-aware blast radius for incremental (ECO) re-verification.
//!
//! Given the set of nets an ECO touched, [`blast_radius`] returns every
//! net whose *cluster fingerprint* (see `pcv-engine`) could possibly have
//! changed — the candidate dirty set the engine then confirms against the
//! canonical fingerprints.
//!
//! The radius follows from what a fingerprint actually reads. For a
//! victim `v` it hashes the members of `v`'s pruned cluster (`v` plus
//! kept aggressors, all drawn from `v`'s direct coupling neighbors), each
//! member's own RC content, and **every coupling capacitor incident to a
//! member** — including the far endpoint's net name. An edit at net `x`
//! can therefore only reach victims within **two coupling hops**:
//!
//! * `x == v` — the victim's own RC or couplings changed;
//! * `x` couples to `v` — the pruning input (aggressor selection,
//!   decoupled cap) changed;
//! * `x` couples to a member `m` of `v`'s cluster — `m`'s incident
//!   coupling list changed. Members are neighbors of `v`, so `x` is two
//!   hops out, *transitively through the shared coupling cap* on `m`.
//!
//! Anything further away cannot appear in the hash, so the two-hop
//! closure is a sound over-approximation of the exact dirty set: it may
//! include victims whose fingerprints turn out unchanged (e.g. the edit
//! only moved a neighbor that pruning discards *and* left the decoupled
//! sum bit-identical — impossible, but the radius does not reason about
//! bits), never the reverse.
//!
//! Because an ECO can both add and remove couplings, the closure runs
//! over the union of the old and new coupling graphs: a deleted aggressor
//! dirties the victims it *used to* couple into.

use pcv_netlist::ParasiticDb;
use std::collections::BTreeSet;

/// Add to `out` the coupling neighbors, in either database, of every net
/// `names` yields — at the cost of those nets' own coupling lists.
fn add_neighbors<'a, 'n>(
    dbs: [&'a ParasiticDb; 2],
    names: impl Iterator<Item = &'n str>,
    out: &mut BTreeSet<&'a str>,
) {
    for name in names {
        for db in dbs {
            let Some(net) = db.find_net(name) else { continue };
            // Segment-wise extraction emits long runs of couplings between
            // the same net pair (one per overlap segment); skipping
            // consecutive repeats cuts the insert count by the segment count.
            let mut last = None;
            for c in db.couplings_of(net) {
                let other = if c.a.net == net { c.b.net } else { c.a.net };
                if last != Some(other) {
                    last = Some(other);
                    out.insert(db.net(other).name());
                }
            }
        }
    }
}

/// Every net within two coupling hops of a touched net, in the union of
/// the old and new coupling graphs (see the module docs for why two hops
/// bound the reach of a cluster fingerprint). The walk starts at the
/// touched nets, so it costs what the edit reaches, not the chip.
///
/// The result contains net names from either database; intersect it with
/// the run's victim list to get the candidate dirty clusters. Touched
/// nets are themselves included (whether or not they still exist).
pub fn blast_radius(
    old: &ParasiticDb,
    new: &ParasiticDb,
    touched: &BTreeSet<String>,
) -> BTreeSet<String> {
    // Names are borrowed from the two databases until the (small) result
    // set is built.
    let (mut hop1, mut hop2) = (BTreeSet::new(), BTreeSet::new());
    // Hop 1: direct coupling neighbors of every touched net.
    add_neighbors([old, new], touched.iter().map(String::as_str), &mut hop1);
    // Hop 2: neighbors of hop-1 nets (members of clusters the edit reaches).
    add_neighbors([old, new], hop1.iter().copied(), &mut hop2);
    let mut radius: BTreeSet<String> = touched.clone();
    radius.extend(hop1.into_iter().chain(hop2).map(str::to_owned));
    radius
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_netlist::{NetNodeRef, NetParasitics, PNetId};

    /// A chain a - b - c - d - e with nearest-neighbor coupling only.
    fn chain(names: &[&str]) -> ParasiticDb {
        let mut db = ParasiticDb::new();
        for name in names {
            let mut n = NetParasitics::new(*name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 100.0);
            n.add_ground_cap(n1, 1e-15);
            n.mark_load(n1);
            db.add_net(n);
        }
        for i in 1..names.len() {
            db.add_coupling(
                NetNodeRef { net: PNetId(i - 1), node: 1 },
                NetNodeRef { net: PNetId(i), node: 1 },
                2e-15,
            );
        }
        db
    }

    #[test]
    fn radius_is_two_hops_and_no_more() {
        let db = chain(&["a", "b", "c", "d", "e", "f"]);
        let touched = BTreeSet::from(["a".to_owned()]);
        let r = blast_radius(&db, &db, &touched);
        assert_eq!(
            r,
            BTreeSet::from(["a".to_owned(), "b".to_owned(), "c".to_owned()]),
            "an edit at one end of the chain reaches exactly two hops"
        );
    }

    #[test]
    fn empty_touched_set_has_empty_radius() {
        let db = chain(&["a", "b"]);
        assert!(blast_radius(&db, &db, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn removed_couplings_still_dirty_their_old_victims() {
        let old = chain(&["a", "b", "c"]);
        // New netlist: the b-c coupling is gone entirely.
        let mut new = ParasiticDb::new();
        for name in ["a", "b", "c"] {
            let mut n = NetParasitics::new(name);
            let n1 = n.add_node();
            n.add_resistor(0, n1, 100.0);
            n.add_ground_cap(n1, 1e-15);
            n.mark_load(n1);
            new.add_net(n);
        }
        new.add_coupling(
            NetNodeRef { net: PNetId(0), node: 1 },
            NetNodeRef { net: PNetId(1), node: 1 },
            2e-15,
        );
        // The edit touches b and c (the deleted cap's endpoints); "a" is
        // within the radius through the *old* graph's b-c-a path.
        let touched = BTreeSet::from(["b".to_owned(), "c".to_owned()]);
        let r = blast_radius(&old, &new, &touched);
        assert!(r.contains("a"), "old-graph adjacency must count: {r:?}");
    }

    #[test]
    fn disconnected_nets_stay_clean() {
        let mut db = chain(&["a", "b"]);
        let mut lone = NetParasitics::new("z");
        let z1 = lone.add_node();
        lone.add_resistor(0, z1, 50.0);
        db.add_net(lone);
        let touched = BTreeSet::from(["a".to_owned()]);
        let r = blast_radius(&db, &db, &touched);
        assert!(!r.contains("z"));
    }
}
