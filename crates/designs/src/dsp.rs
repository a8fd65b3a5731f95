//! A DSP-like block generator: the stand-in for the paper's proprietary
//! Texas Instruments DSP design (see `DESIGN.md` for the substitution
//! rationale).
//!
//! The generated block has the structural features the paper's experiments
//! rely on:
//!
//! * **datapath buses** — groups of bits routed in parallel at minimum
//!   pitch over long spans (the strong-coupling population), each driven by
//!   multiple tri-state buffers (the bus design style of Section 2) and
//!   received by latches;
//! * **random logic nets** with a spread of lengths, drive strengths and
//!   fanouts;
//! * **latch-input victims** (the 101-victim experiment of Figures 6–7);
//! * **complementary flip-flop output pairs** and per-net **switching
//!   windows** (the logic/timing correlation of Section 2).

use crate::extract::{extract, WireGeom};
use crate::tech::Technology;
use pcv_cells::library::CellLibrary;
use pcv_netlist::{Design, NetId, PNetId, ParasiticDb};
use pcv_rng::Rng;

/// Every cell a generated block's drivers are drawn from — the set a flow
/// pre-characterizes before auditing the block — in the generator's three
/// runs: six inverter-like cells, four two-input gates, three bus drivers.
pub const DRIVER_CELLS: [&str; 13] = [
    "INVX2", "INVX4", "INVX8", "BUFX4", "BUFX8", "BUFX12", "NAND2X2", "NAND2X4", "NOR2X2",
    "NOR2X4", "TBUFX4", "TBUFX8", "TBUFX16",
];

/// Configuration of the generated block.
#[derive(Debug, Clone, PartialEq)]
pub struct DspConfig {
    /// Number of bus groups.
    pub n_buses: usize,
    /// Bits per bus.
    pub bus_bits: usize,
    /// Number of random-logic nets.
    pub n_random_nets: usize,
    /// Clock cycle used for switching windows (seconds).
    pub cycle: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DspConfig {
    fn default() -> Self {
        DspConfig { n_buses: 4, bus_bits: 16, n_random_nets: 60, cycle: 10e-9, seed: 1 }
    }
}

impl DspConfig {
    /// The scale-out tier: a chip big enough that verification dominates
    /// elaboration by a wide margin, so multi-process sharding (each
    /// worker re-elaborates the full chip, then verifies only its slice)
    /// shows real speedup. Ten 32-bit buses plus 320 random nets — about
    /// 640 nets and a strong-coupling population an order of magnitude
    /// past the default fixture.
    pub fn scaleout() -> Self {
        DspConfig { n_buses: 10, bus_bits: 32, n_random_nets: 320, cycle: 10e-9, seed: 7 }
    }
}

/// A generated DSP-like block: gate-level design plus extracted parasitics.
///
/// Design nets and parasitic nets are created in the same order and share
/// names, so `design` net `k` corresponds to `parasitics` net `k`.
#[derive(Debug, Clone)]
pub struct DspBlock {
    /// Gate-level view: instances, drivers, loads, windows, correlations.
    pub design: Design,
    /// Extracted RC + coupling parasitics.
    pub parasitics: ParasiticDb,
}

impl DspBlock {
    /// Nets that feed latch data pins — the victim population of the
    /// paper's Figure 6/7 experiment — as ids of the parasitic view.
    pub fn victims(&self) -> Vec<PNetId> {
        let pnet = |d| self.parasitics.find_net(self.design.net_name(d)).expect("aligned views");
        self.design.latch_input_nets().into_iter().map(pnet).collect()
    }
}

/// Generate a block.
///
/// # Panics
///
/// Panics on a degenerate configuration (zero buses *and* zero random
/// nets, or zero bus bits with buses requested).
pub fn generate(cfg: &DspConfig, tech: &Technology, lib: &CellLibrary) -> DspBlock {
    assert!(cfg.n_buses * cfg.bus_bits + cfg.n_random_nets > 0, "configuration generates no nets");
    let mut rng = Rng::new(cfg.seed);
    let mut wires: Vec<WireGeom> = Vec::new();
    let mut next_track: i64 = 0;

    struct NetPlan {
        name: String,
        is_bus: bool,
        latch_load: bool,
        complement_of: Option<usize>,
    }
    let mut plans: Vec<NetPlan> = Vec::new();

    // --- Bus groups: parallel full-length wires at minimum pitch. ---
    for b in 0..cfg.n_buses {
        let len = rng.range_f64(800e-6, 3000e-6);
        let x0 = rng.range_f64(0.0, 200e-6);
        for bit in 0..cfg.bus_bits {
            let name = format!("bus{b}_{bit}");
            wires.push(WireGeom::min_width(&name, next_track, x0, x0 + len, tech));
            next_track += 1;
            plans.push(NetPlan { name, is_bus: true, latch_load: true, complement_of: None });
        }
        next_track += 3; // routing gap between buses
    }

    // --- Random logic nets, some as complementary pairs. ---
    let mut i = 0;
    while i < cfg.n_random_nets {
        let len = rng.range_f64(60e-6, 1500e-6);
        let x0 = rng.range_f64(0.0, 500e-6);
        let name = format!("net{i}");
        wires.push(WireGeom::min_width(&name, next_track, x0, x0 + len, tech));
        next_track += 1;
        let latch_load = rng.bool_with(0.3);
        let make_pair = rng.bool_with(0.15) && i + 1 < cfg.n_random_nets;
        plans.push(NetPlan { name, is_bus: false, latch_load, complement_of: None });
        if make_pair {
            // The complementary net runs alongside (classic Q/QB routing).
            let name2 = format!("net{}", i + 1);
            wires.push(WireGeom::min_width(&name2, next_track, x0, x0 + len, tech));
            next_track += 1;
            plans.push(NetPlan {
                name: name2,
                is_bus: false,
                latch_load: false,
                complement_of: Some(plans.len() - 1),
            });
            i += 1;
        }
        i += 1;
        // Occasional routing gap so not everything couples.
        if rng.bool_with(0.4) {
            next_track += rng.range_usize(1, 4) as i64;
        }
    }

    let parasitics = extract(&wires, tech, 50e-6);

    // --- Gate-level view. ---
    let mut design = Design::new("dsp_block");
    let net_ids: Vec<NetId> = parasitics.iter().map(|(_, n)| design.add_net(n.name())).collect();

    // Primary inputs feeding the drivers (no parasitics of their own).
    let pi: Vec<NetId> = (0..8).map(|k| design.add_net(format!("pi{k}"))).collect();

    let (inv_like, rest) = DRIVER_CELLS.split_at(6);
    let (gate_like, tbufs) = rest.split_at(4);
    let pick = |rng: &mut Rng, list: &[&str]| -> String {
        list[rng.range_usize(0, list.len())].to_owned()
    };

    for (k, plan) in plans.iter().enumerate() {
        let net = net_ids[k];
        if plan.is_bus {
            // Bus design style: several tri-state drivers, one latch.
            let n_drv = rng.range_usize(2, 5);
            for d in 0..n_drv {
                let cell = pick(&mut rng, tbufs);
                let inp = pi[rng.range_usize(0, pi.len())];
                design.add_instance(
                    format!("{}_drv{d}", plan.name),
                    cell,
                    vec![inp],
                    Some(net),
                    true,
                );
            }
        } else {
            let use_gate = rng.bool_with(0.3);
            let cell = if use_gate { pick(&mut rng, gate_like) } else { pick(&mut rng, inv_like) };
            let n_inputs = lib.cell(&cell).map_or(1, |c| c.kind.num_inputs());
            let inputs: Vec<NetId> =
                (0..n_inputs).map(|_| pi[rng.range_usize(0, pi.len())]).collect();
            design.add_instance(format!("{}_drv", plan.name), cell, inputs, Some(net), false);
        }
        // Loads.
        if plan.latch_load {
            design.add_instance(format!("{}_lat", plan.name), "LATCH", vec![net], None, false);
            design.mark_latch_input(net);
        }
        let extra_loads = rng.range_usize(0, 3);
        for l in 0..extra_loads {
            let cell = pick(&mut rng, inv_like);
            design.add_instance(format!("{}_ld{l}", plan.name), cell, vec![net], None, false);
        }
        // Switching window inside the cycle.
        let w0 = rng.range_f64(0.0, 0.6 * cfg.cycle);
        let w1 = w0 + rng.range_f64(0.05 * cfg.cycle, 0.35 * cfg.cycle);
        design.set_window(net, w0, w1.min(cfg.cycle));
        if let Some(other) = plan.complement_of {
            design.set_complementary(net, net_ids[other]);
        }
    }
    DspBlock { design, parasitics }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> DspBlock {
        generate(
            &DspConfig { n_buses: 2, bus_bits: 8, n_random_nets: 30, ..Default::default() },
            &Technology::c025(),
            &CellLibrary::standard_025(),
        )
    }

    #[test]
    fn nets_align_between_views() {
        let b = block();
        assert_eq!(b.parasitics.num_nets(), 2 * 8 + 30);
        for (pid, pnet) in b.parasitics.iter() {
            let did = b.design.find_net(pnet.name()).expect("net exists in design");
            assert_eq!(did.0, pid.0, "aligned ordering");
        }
    }

    #[test]
    fn buses_are_tristate_multi_driven() {
        let b = block();
        let bus0 = b.design.find_net("bus0_0").unwrap();
        assert!(b.design.is_bus(bus0));
        assert!(b.design.drivers_of(bus0).len() >= 2);
        assert!(b.design.is_latch_input(bus0));
    }

    #[test]
    fn bus_bits_couple_strongly() {
        let b = block();
        let p = b.parasitics.find_net("bus0_3").unwrap();
        let cc = b.parasitics.total_coupling_cap(p);
        let cg = b.parasitics.net(p).total_ground_cap();
        assert!(cc > cg, "bus coupling should dominate: {cc} vs {cg}");
    }

    #[test]
    fn latch_victims_exist() {
        let b = block();
        let victims = b.victims();
        assert!(victims.len() >= 16, "all bus bits plus some logic nets");
    }

    #[test]
    fn windows_and_complements_annotated() {
        let b = block();
        let mut windows = 0;
        let mut complements = 0;
        for k in 0..b.parasitics.num_nets() {
            let n = NetId(k);
            if b.design.window(n).is_some() {
                windows += 1;
            }
            if b.design.complement_of(n).is_some() {
                complements += 1;
            }
        }
        assert_eq!(windows, b.parasitics.num_nets());
        assert!(complements >= 2, "some complementary pairs generated");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = block();
        let b = block();
        assert_eq!(a.design.num_instances(), b.design.num_instances());
        assert_eq!(a.parasitics.couplings().len(), b.parasitics.couplings().len());
    }

    #[test]
    fn every_wire_net_has_a_driver() {
        let b = block();
        for (pid, pnet) in b.parasitics.iter() {
            let did = b.design.find_net(pnet.name()).unwrap();
            assert!(!b.design.drivers_of(did).is_empty(), "net {} must be driven", pnet.name());
            let _ = pid;
        }
    }
}
