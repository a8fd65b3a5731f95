//! Allocation regression test of the SPEF-lite text round trip
//! (`pcv_netlist::spef::{write_spef, parse_spef}`).
//!
//! The writer fills one buffer: what allocates is that buffer's growth, one
//! shrink to the text's length and the formatted text of each value column.
//! The reader allocates per net (its name and its lists) and per doubling of
//! a list, never per record. So ten times the segments a wire may cost the
//! writer a few more doublings and the reader a few more per list.

use pcv_netlist::spef::{parse_spef, write_spef};
use pcv_netlist::{NetNodeRef, NetParasitics, PNetId, ParasiticDb};
use pcv_obs::{mem, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc::system();

const WIRES: usize = 8;

/// `WIRES` parallel wires of `segments` RC segments, each neighbour pair
/// coupled segment by segment, the far end a load.
fn field(segments: usize) -> ParasiticDb {
    let mut db = ParasiticDb::new();
    for w in 0..WIRES {
        let mut net = NetParasitics::with_nodes(format!("w{w}"), segments + 1);
        for s in 1..=segments {
            // A run of equal values, broken now and then.
            net.add_resistor(s - 1, s, if s % 7 == 0 { 13.0 } else { 12.5 });
            net.add_ground_cap(s, 0.4e-15);
        }
        net.mark_load(segments);
        db.add_net(net);
    }
    for w in 1..WIRES {
        for s in 1..=segments {
            let end = |w: usize| NetNodeRef { net: PNetId(w), node: s };
            db.add_coupling(end(w - 1), end(w), 0.2e-15);
        }
    }
    db
}

/// What `f` returns, and the allocations (reallocations included) this
/// thread made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = mem::thread_totals().1;
    let out = f();
    (out, mem::thread_totals().1 - before)
}

#[test]
fn the_text_round_trip_allocates_by_nets_and_doublings_not_by_records() {
    let (short, long) = (field(60), field(600));
    let (short_text, short_writes) = counted(|| write_spef(&short));
    let (long_text, long_writes) = counted(|| write_spef(&long));
    assert!(mem::active(), "the tracking allocator is installed in this binary");
    assert_eq!(long_text.capacity(), long_text.len(), "the text is returned without slack");
    let records = long_text.lines().count() as u64;
    assert!(records > 10_000, "{records} records");

    // 10x the text is log2(10) < 4 more doublings of the one buffer.
    assert!(
        long_writes <= short_writes + 4,
        "writing {records} records took {long_writes} allocations, a tenth of them took \
         {short_writes}: the difference must stay within the buffer's growth (4)"
    );

    let (_, short_reads) = counted(|| parse_spef(&short_text).expect("own text parses"));
    let (parsed, long_reads) = counted(|| parse_spef(&long_text).expect("own text parses"));
    assert_eq!(parsed.num_nets(), WIRES);
    // Each net's resistors, ground caps and coupling list, and the chip's
    // couplings, may double four more times; nothing may grow per record.
    let growth = 4 * (3 * WIRES as u64 + 1);
    assert!(
        long_reads <= short_reads + growth,
        "parsing {records} records took {long_reads} allocations, a tenth of them took \
         {short_reads}: the difference must stay within list growth ({growth})"
    );
}
