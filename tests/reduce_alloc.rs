//! Allocation regression test of the reduction (`pcv_mor::sympvl::reduce`).
//!
//! Assembly, the Cholesky factor and block Lanczos allocate per call, per
//! Lanczos block and per doubling of a buffer, never per node: `G` and `C`
//! go from their element lists straight into CSC, and the factor's row
//! patterns share one buffer, and the projection grows one buffer a block.
//! So the same line cut ten times finer, reduced to the same order, may
//! cost a few more doublings, and nothing per node.

use pcv_mor::{sympvl, RcCluster};
use pcv_obs::{mem, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::system();

/// A 2.5 kΩ, 200 fF RC line cut into `nodes` nodes: a driver port at one
/// end, an observed port at the other. Every cut is the same line to the
/// port transfer, so the reduction stops at the same block.
fn chain(nodes: usize) -> RcCluster {
    let (r, c) = (2.5e3 / (nodes - 1) as f64, 200e-15 / nodes as f64);
    let mut cl = RcCluster::new();
    let line: Vec<usize> = (0..nodes).map(|_| cl.add_node()).collect();
    for seg in line.windows(2) {
        cl.add_resistor(seg[0], seg[1], r).unwrap();
    }
    for &node in &line {
        cl.add_ground_cap(node, c).unwrap();
    }
    cl.add_port(line[0]);
    cl.add_port(line[nodes - 1]);
    cl
}

#[test]
fn a_reduction_allocates_by_blocks_and_doublings_not_by_nodes() {
    let (short, long) = (chain(1_000), chain(10_000));
    let reduce = |cl: &RcCluster| {
        let before = mem::thread_totals().1;
        let rom = sympvl::reduce(cl, 4).unwrap();
        (rom.order(), mem::thread_totals().1 - before)
    };
    let ((short_order, short_allocs), (long_order, long_allocs)) = (reduce(&short), reduce(&long));
    assert!(mem::active(), "the tracking allocator is installed in this binary");
    assert_eq!((short_order, long_order), (6, 6), "both stop at block 3 of 4");

    // 9 000 more nodes may cost a few more doublings of a buffer whose
    // length follows the node count, not one allocation a node.
    let growth = 8;
    assert!(
        long_allocs <= short_allocs + growth,
        "reducing 10 000 nodes took {long_allocs} allocations, 1 000 took {short_allocs}: the \
         difference must stay within buffer growth ({growth})"
    );
}
