//! `experiments` — run every table and figure of the paper's evaluation and
//! rewrite its measured block in the repository's `EXPERIMENTS.md` (see
//! [`pcv_bench::experiments::record`]). No flags: each block has one scale.
//!
//! ```text
//! cargo run --release -p pcv-bench --bin experiments
//! ```
//!
//! What depends on the wall clock — seconds per block, the Figure 3 and
//! Figure 6/7 speedups over SPICE — goes to stderr, so the file depends on
//! the code alone. Exit status 1 on a bad marker or an unwritable file, 2
//! on any argument.

use pcv_bench::experiments::{
    ablation, fig3, fig45, fig67, immunity, pruning, record, table1, table2, table34, Scale,
};
use std::path::Path;
use std::process::exit;
use std::time::Instant;

const BLOCKS: [&str; 10] = [
    "table1", "table2", "table3", "table4", "fig3", "fig4_5", "fig6_7", "pruning", "ablation",
    "immunity",
];

fn timed<T>(what: &str, run: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = run();
    eprintln!("experiments: {what} took {:.1} s", started.elapsed().as_secs_f64());
    out
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("experiments: takes no arguments (each block has one scale)");
        exit(2);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let fail = |why: String| -> ! {
        eprintln!("experiments: {}: {why}", path.display());
        exit(1)
    };
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(e.to_string()));
    // Check the markers before minutes of runs.
    let empty: Vec<(&str, String)> = BLOCKS.iter().map(|&name| (name, String::new())).collect();
    record::splice(&doc, &empty).unwrap_or_else(|e| fail(e));

    let t1 = timed("table1", table1::run);
    let t2 = timed("table2", table2::run);
    let [t3, t4] = timed("table3 + table4", || table34::run(Scale::Quick));
    let population = timed("fig3", || fig3::run(Scale::Full));
    eprintln!("experiments: fig3 speedup over SPICE {:.1}x", population.speedup());
    let overlay = timed("fig4_5", || fig45::run(&population));
    let (rise, fall) = timed("fig6_7", || fig67::run(Scale::Full));
    eprintln!(
        "experiments: fig6_7 speedup over SPICE {:.1}x rising, {:.1}x falling",
        rise.speedup(),
        fall.speedup()
    );
    let prune = timed("pruning", pruning::run);
    let (order, fill) = timed("ablation", || (ablation::order_sweep(), ablation::ordering_fill()));
    let curves = timed("immunity", immunity::run);

    let texts = [
        table1::to_text(&t1),
        table2::to_text(&t2),
        t3.to_text("Table 3: timing-library (linear resistor) driver model vs SPICE"),
        t4.to_text("Table 4: nonlinear cell model vs SPICE"),
        population.to_text(),
        overlay.to_text(),
        rise.to_text() + &fall.to_text(),
        pruning::to_text(&prune),
        ablation::to_text(&order, fill),
        curves,
    ];
    let blocks: Vec<(&str, String)> = BLOCKS.into_iter().zip(texts).collect();
    let out = record::splice(&doc, &blocks).unwrap_or_else(|e| fail(e));
    std::fs::write(&path, out).unwrap_or_else(|e| fail(e.to_string()));
}
