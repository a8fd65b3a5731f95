//! Delay impact of coupling: how much the naive decoupled (grounded-cap)
//! delay estimate misses, as a function of coupled length — the Table 2
//! story, swept continuously.
//!
//! Run with: `cargo run --release -p pcv-bench --example delay_impact`

use pcv_designs::structures::sandwich;
use pcv_designs::Technology;
use pcv_xtalk::prune::{prune_victim, PruneConfig};
use pcv_xtalk::{
    analyze_delay, AnalysisContext, AnalysisOptions, DelayMode, PreparedCluster, XtalkError,
};

fn main() -> Result<(), XtalkError> {
    let tech = Technology::c025();
    println!("victim rise delay through a coupled sandwich (500 ohm drivers)");
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>9}",
        "len (um)", "decoupled", "worst (ns)", "best (ns)", "penalty"
    );
    for &len_um in &[250.0, 500.0, 1000.0, 2000.0, 3000.0, 4000.0] {
        let db = sandwich(len_um * 1e-6, &tech);
        let victim = db.find_net("v").expect("victim exists");
        let cluster = prune_victim(&db, victim, &PruneConfig::default());
        let ctx = AnalysisContext::fixed_resistance(&db, 500.0);
        let opts = AnalysisOptions { tstop: 25e-9, ..Default::default() };

        let base = analyze_delay(&ctx, &cluster, true, DelayMode::Decoupled, &opts)?;
        // Both coupled modes run on one coupled model and one reduction.
        let mut coupled = PreparedCluster::new(&ctx, &cluster, &opts);
        let worst = coupled.delay(&ctx, true, true, &opts)?;
        let best = coupled.delay(&ctx, true, false, &opts)?;
        println!(
            "{:>9.0} {:>10.4}ns {:>10.4}ns {:>10.4}ns {:>8.1}%",
            len_um,
            base.delay * 1e9,
            worst.delay * 1e9,
            best.delay * 1e9,
            100.0 * (worst.delay - base.delay) / base.delay
        );
    }
    println!("\npenalty = worst-case slowdown the decoupled estimate misses");
    Ok(())
}
