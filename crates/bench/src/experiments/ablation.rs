//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Krylov order** — reduced-model accuracy versus `block_iters`
//!    (each Lanczos block matches two more moments).
//! 2. **Lanczos vs Arnoldi** — SyMPVL against the PRIMA-style baseline at
//!    equal order.
//! 3. **Orderings** — LU fill under natural, RCM and minimum-degree
//!    orderings of a cluster MNA pattern.

use pcv_designs::structures::sandwich;
use pcv_designs::Technology;
use pcv_mor::{reduce_arnoldi, sympvl, RcCluster};
use pcv_sparse::order::{min_degree, rcm};
use pcv_sparse::SparseLu;
use pcv_xtalk::build_cluster;
use pcv_xtalk::prune::{prune_victim, PruneConfig};

/// Accuracy of a reduced model versus the exact transfer at `s`.
fn transfer_err(cl: &RcCluster, rom: &pcv_mor::ReducedModel, s: f64) -> f64 {
    let exact = cl.exact_transfer(s).expect("exact transfer");
    let h = rom.transfer(s).expect("reduced transfer");
    let scale = exact[(0, 0)].abs();
    let mut err = 0.0f64;
    for i in 0..cl.num_ports() {
        for j in 0..cl.num_ports() {
            let denom = exact[(i, j)].abs().max(1e-6 * scale);
            err = err.max((h[(i, j)] - exact[(i, j)]).abs() / denom);
        }
    }
    err
}

/// One row of the order sweep.
#[derive(Debug, Clone)]
pub struct OrderRow {
    /// Block iterations requested.
    pub block_iters: usize,
    /// Resulting reduced order (states).
    pub lanczos_order: usize,
    /// SyMPVL max relative transfer error at 2 GHz.
    pub lanczos_err: f64,
    /// Arnoldi order at the same iteration count.
    pub arnoldi_order: usize,
    /// Arnoldi max relative transfer error.
    pub arnoldi_err: f64,
}

/// Run the order sweep on a 2 mm Figure-1 cluster.
pub fn order_sweep() -> Vec<OrderRow> {
    let tech = Technology::c025();
    let db = sandwich(2000e-6, &tech);
    let victim = db.find_net("v").expect("victim");
    let cluster = prune_victim(&db, victim, &PruneConfig::default());
    let rc = build_cluster(&db, &cluster, &|_| 0.0, false).rc;
    let s = 2e9;
    [1usize, 2, 3, 4, 6, 8]
        .iter()
        .map(|&k| {
            let lan = sympvl::reduce(&rc, k).expect("lanczos reduces");
            let arn = reduce_arnoldi(&rc, k).expect("arnoldi reduces");
            OrderRow {
                block_iters: k,
                lanczos_order: lan.order(),
                lanczos_err: transfer_err(&rc, &lan, s),
                arnoldi_order: arn.order(),
                arnoldi_err: transfer_err(&rc, &arn, s),
            }
        })
        .collect()
}

/// LU fill (nnz of L+U) of a cluster conductance-like pattern under the
/// three orderings: `(natural, rcm, min_degree)`.
pub fn ordering_fill() -> (usize, usize, usize) {
    let tech = Technology::c025();
    let db = sandwich(3000e-6, &tech);
    let victim = db.find_net("v").expect("victim");
    let cluster = prune_victim(&db, victim, &PruneConfig::default());
    let rc = build_cluster(&db, &cluster, &|_| 0.0, false).rc;
    // Use G + C/h as a representative transient Jacobian pattern.
    let a = rc.conductance_matrix().add_scaled(1e12, &rc.capacitance_matrix());
    let natural = SparseLu::factor(&a, 1e-3).expect("factor").nnz();
    let p = rcm(&a);
    let with_rcm = SparseLu::factor(&a.permute_sym(&p), 1e-3).expect("factor").nnz();
    let p = min_degree(&a);
    let with_md = SparseLu::factor(&a.permute_sym(&p), 1e-3).expect("factor").nnz();
    (natural, with_rcm, with_md)
}

/// Render the ablation report.
pub fn to_text(rows: &[OrderRow], fill: (usize, usize, usize)) -> String {
    let mut out =
        String::from("Ablation 1: reduction accuracy vs Krylov order (2 GHz, 2 mm cluster)\n");
    out.push_str("  iters   lanczos(order, max rel err)    arnoldi(order, max rel err)\n");
    for r in rows {
        let line = format!(
            "  {:>5}   q={:<3} err={:<12.3e}       q={:<3} err={:<12.3e}",
            r.block_iters, r.lanczos_order, r.lanczos_err, r.arnoldi_order, r.arnoldi_err
        );
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out.push_str(&format!(
        "Ablation 2: LU fill by ordering — natural {} nnz, rcm {} nnz, min-degree {} nnz\n",
        fill.0, fill.1, fill.2
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanczos_error_decreases_with_order() {
        let rows = order_sweep();
        assert!(rows.len() >= 4);
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(
            last.lanczos_err < first.lanczos_err * 0.1 || last.lanczos_err < 1e-8,
            "order helps: {} -> {}",
            first.lanczos_err,
            last.lanczos_err
        );
        // At equal block count Lanczos is at least as accurate as Arnoldi
        // (two moments per block vs one) on most rows.
        let wins = rows.iter().filter(|r| r.lanczos_err <= r.arnoldi_err * 1.5 + 1e-12).count();
        assert!(wins * 2 >= rows.len(), "lanczos competitive in {wins}/{} rows", rows.len());
    }

    #[test]
    fn orderings_reduce_fill() {
        let (nat, with_rcm, with_md) = ordering_fill();
        assert!(with_rcm < nat, "rcm reduces fill: {with_rcm} vs {nat}");
        assert!(with_md < nat, "min-degree reduces fill: {with_md} vs {nat}");
        let rows = order_sweep();
        let text = to_text(&rows, (nat, with_rcm, with_md));
        assert!(text.contains("Ablation"));
        assert!(text.lines().all(|l| l == l.trim_end()), "no trailing blanks: {text}");
    }
}
