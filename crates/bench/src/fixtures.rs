//! Shared fixtures: partial characterized libraries and structure/driver
//! bindings used by several experiments.

use pcv_cells::charlib::CharLibrary;
use pcv_cells::library::CellLibrary;
use pcv_designs::structures::sandwich;
use pcv_designs::Technology;
use pcv_netlist::{Design, ParasiticDb};
use pcv_xtalk::drivers::DriverModelKind;
use pcv_xtalk::AnalysisContext;

/// Characterize only the named cells ([`CharLibrary::cached`]) — a fast
/// fixture for tests and examples that do not need the 53-cell library.
///
/// # Panics
///
/// Panics on unknown cell names or characterization failure (fixture
/// context: failures are programming errors).
pub fn charlib_for(names: &[&str]) -> CharLibrary {
    CharLibrary::cached(names).unwrap_or_else(|e| panic!("fixture characterization: {e}"))
}

/// A Figure 1 structure bound to drivers: victim `v` driven by
/// `victim_cell`, aggressors `a1`/`a2` by `agg_cell`, with a latch load on
/// the victim.
#[derive(Debug)]
pub struct StructureFixture {
    /// Extracted parasitics of the three wires.
    pub db: ParasiticDb,
    /// Matching gate-level view.
    pub design: Design,
}

/// Build the Figure 1 sandwich plus a design view wiring the given driver
/// cells.
pub fn structure_fixture(
    length: f64,
    tech: &Technology,
    victim_cell: &str,
    agg_cell: &str,
) -> StructureFixture {
    let db = sandwich(length, tech);
    let mut design = Design::new("fig1");
    let pi = "pi0";
    // Net order in the sandwich db: a1, v, a2.
    let mut net_of = std::collections::BTreeMap::new();
    for (_, pnet) in db.iter() {
        net_of.insert(pnet.name().to_owned(), design.add_net(pnet.name()));
    }
    let pi_net = design.add_net(pi);
    for (name, cell) in [("a1", agg_cell), ("v", victim_cell), ("a2", agg_cell)] {
        let net = net_of[name];
        design.add_instance(format!("{name}_drv"), cell, vec![pi_net], Some(net), false);
    }
    design.add_instance("v_lat", "LATCH", vec![net_of["v"]], None, false);
    design.mark_latch_input(net_of["v"]);
    StructureFixture { db, design }
}

/// Borrow an [`AnalysisContext`] over a structure fixture.
pub fn structure_context<'a>(
    fx: &'a StructureFixture,
    lib: &'a CellLibrary,
    charlib: &'a CharLibrary,
    model: DriverModelKind,
) -> AnalysisContext<'a> {
    AnalysisContext::with_design(&fx.db, &fx.design, lib, charlib, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_fixture_wires_drivers() {
        let fx = structure_fixture(200e-6, &Technology::c025(), "INVX2", "BUFX8");
        let v = fx.design.find_net("v").unwrap();
        assert_eq!(fx.design.drivers_of(v).len(), 1);
        assert!(fx.design.is_latch_input(v));
        assert_eq!(fx.db.num_nets(), 3);
    }
}
