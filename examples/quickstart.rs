//! Quickstart: build a two-net coupled parasitic network by hand, prune it,
//! and measure the worst-case crosstalk glitch with the SyMPVL engine.
//!
//! Run with: `cargo run --release -p pcv-bench --example quickstart`

use pcv_netlist::{NetNodeRef, NetParasitics, ParasiticDb};
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{AnalysisContext, AnalysisOptions, PreparedCluster, XtalkError};

fn main() -> Result<(), XtalkError> {
    // --- 1. Describe extracted parasitics (normally parsed from SPEF). ---
    let mut db = ParasiticDb::new();

    // Victim: a 2-segment RC wire with a receiver at the far end.
    let mut victim = NetParasitics::new("victim");
    let v1 = victim.add_node();
    let v2 = victim.add_node();
    victim.add_resistor(0, v1, 120.0);
    victim.add_resistor(v1, v2, 120.0);
    victim.add_ground_cap(v1, 6e-15);
    victim.add_ground_cap(v2, 6e-15);
    victim.mark_load(v2);
    let victim_id = db.add_net(victim);

    // Aggressor: a similar wire routed alongside.
    let mut agg = NetParasitics::new("agg");
    let a1 = agg.add_node();
    let a2 = agg.add_node();
    agg.add_resistor(0, a1, 120.0);
    agg.add_resistor(a1, a2, 120.0);
    agg.add_ground_cap(a1, 6e-15);
    agg.add_ground_cap(a2, 6e-15);
    let agg_id = db.add_net(agg);

    // Coupling capacitance along the parallel run.
    db.add_coupling(
        NetNodeRef { net: victim_id, node: v1 },
        NetNodeRef { net: agg_id, node: a1 },
        15e-15,
    );
    db.add_coupling(
        NetNodeRef { net: victim_id, node: v2 },
        NetNodeRef { net: agg_id, node: a2 },
        15e-15,
    );

    // --- 2. Prune: find the victim's significant aggressors. ---
    let cluster = prune_victim(&db, victim_id, &PruneConfig::default());
    println!(
        "cluster: victim + {} aggressor(s), {:.1} fF decoupled",
        cluster.aggressors.len(),
        cluster.decoupled_cap * 1e15
    );

    // --- 3. Analyze: 1 kOhm linear drivers, SyMPVL engine. The cluster is
    // assembled and reduced once; each polarity is then one transient. ---
    let ctx = AnalysisContext::fixed_resistance(&db, 1000.0);
    let opts = AnalysisOptions::default();
    let mut prepared = PreparedCluster::new(&ctx, &cluster, &opts);
    let rising = prepared.glitch(&ctx, true, &opts)?;
    let falling = prepared.glitch(&ctx, false, &opts)?;

    println!(
        "rising glitch:  {:+.4} V at {:.2} ns (reduced order {})",
        rising.peak,
        rising.t_peak * 1e9,
        rising.reduced_order.unwrap_or(0)
    );
    println!("falling glitch: {:+.4} V at {:.2} ns", falling.peak, falling.t_peak * 1e9);
    let frac = rising.peak.abs().max(falling.peak.abs()) / opts.vdd;
    println!("worst case is {:.1}% of Vdd", 100.0 * frac);
    Ok(())
}
