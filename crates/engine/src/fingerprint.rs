//! Cluster fingerprints for the incremental result cache.
//!
//! A fingerprint is an FNV-1a hash over everything that can change a
//! cluster's verdict: the cluster's own RC topology, every coupling
//! capacitor incident to a member (member-to-member couplings enter the
//! analyzed network; member-to-outside couplings are grounded onto the
//! member by conservative decoupling, so they matter too), the design
//! annotations the analysis consults (receiver loads, switching windows,
//! complement pairs, driver cells), and the global analysis configuration.
//!
//! Two runs that produce the same fingerprint for a victim are guaranteed
//! to run the exact same floating-point analysis, so the cached verdict is
//! bit-identical to a recomputed one.
//!
//! Element lists are *canonicalized* (sorted) before hashing, so the
//! fingerprint depends only on the electrical content of a cluster, not on
//! the order a parasitic extractor happened to emit resistors, capacitors,
//! or couplings. Re-extracting an unchanged layout therefore keeps the
//! cache warm even when the netlist file shuffles.

use pcv_xtalk::prune::Cluster;
use pcv_xtalk::AnalysisContext;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorb a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a `usize`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb an `f64` bit-exactly.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a string (length-prefixed so concatenations cannot collide).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// Final hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Final hash value through a splitmix64 finalizer. FNV-1a avalanches
    /// weakly over trailing bytes (`"w3"` vs `"w4"`, bus bit indices), so
    /// anything that takes a modulus or a uniform draw of the hash — shard
    /// assignment, seeded fault picks — finishes here instead.
    pub(crate) fn finish_mixed(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x
    }
}

/// Hash the run-global configuration: everything that applies to every
/// cluster alike. Mixed into each cluster fingerprint so caches written
/// under different options never collide.
pub fn config_hash(
    ctx: &AnalysisContext<'_>,
    prune: &pcv_xtalk::PruneConfig,
    opts: &pcv_xtalk::AnalysisOptions,
    warn_frac: f64,
    fail_frac: f64,
    check_receivers: bool,
) -> u64 {
    use pcv_xtalk::drivers::DriverModelKind;
    use pcv_xtalk::EngineKind;
    let mut h = Fnv1a::new();
    // v3: gmin scaling and the MOR solver knobs entered the options and
    // can change a verdict bit-for-bit, so they enter the hash. Bumping
    // the tag invalidates caches written by earlier layouts.
    h.write_str("pcv-engine config v3");
    h.write_f64(prune.cap_ratio);
    h.write_usize(prune.max_aggressors);
    match opts.engine {
        EngineKind::Mor { block_iters } => {
            h.write_u64(1);
            h.write_usize(block_iters);
        }
        EngineKind::Spice => h.write_u64(2),
    }
    h.write_f64(opts.tstop);
    h.write_f64(opts.switch_time);
    h.write_f64(opts.input_slew);
    h.write_f64(opts.vdd);
    h.write_f64(opts.gmin_scale);
    h.write_f64(opts.mor.max_step_fraction);
    h.write_f64(opts.mor.vtol);
    h.write_f64(opts.mor.damping);
    h.write_usize(opts.mor.max_newton);
    h.write_f64(opts.mor.min_step);
    h.write_usize(opts.mor.newton_budget);
    h.write_usize(opts.mor.max_tran_steps);
    h.write_f64(warn_frac);
    h.write_f64(fail_frac);
    h.write_u64(check_receivers as u64);
    match ctx.driver_model {
        DriverModelKind::FixedResistance(ohms) => {
            h.write_u64(10);
            h.write_f64(ohms);
        }
        DriverModelKind::TimingLibrary => h.write_u64(11),
        DriverModelKind::Nonlinear => h.write_u64(12),
        DriverModelKind::TransistorLevel => h.write_u64(13),
    }
    h.finish()
}

/// Fingerprint of the audited chip slice: the victim list (names, in
/// input order). Stamped into run-ledger records so cross-run
/// trajectories of different audits on the same cache never mix.
pub fn chip_slice_fingerprint(ctx: &AnalysisContext<'_>, victims: &[pcv_netlist::PNetId]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("pcv-engine chip slice v1");
    h.write_usize(victims.len());
    for &v in victims {
        h.write_str(ctx.db.net(v).name());
    }
    h.finish()
}

/// Fingerprint one pruned cluster under a given configuration hash.
pub fn cluster_fingerprint(ctx: &AnalysisContext<'_>, cluster: &Cluster, config: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(config);

    // Pruning outcome beyond membership: what was grounded away changes
    // the victim's loading.
    h.write_f64(cluster.decoupled_cap);
    h.write_usize(cluster.aggressors.len());
    for &(_, cc) in &cluster.aggressors {
        h.write_f64(cc);
    }

    for m in cluster.members() {
        let net = ctx.db.net(m);
        h.write_str(net.name());
        h.write_usize(net.num_nodes());
        // Canonical order for every element list: the fingerprint must not
        // depend on the order an extractor emitted the netlist.
        let mut loads: Vec<usize> = net.load_nodes().to_vec();
        loads.sort_unstable();
        for n in loads {
            h.write_usize(n);
        }
        let mut resistors: Vec<(usize, usize, u64)> =
            net.resistors().iter().map(|&(a, b, ohms)| (a, b, ohms.to_bits())).collect();
        resistors.sort_unstable();
        for (a, b, bits) in resistors {
            h.write_usize(a);
            h.write_usize(b);
            h.write_u64(bits);
        }
        let mut gcaps: Vec<(usize, u64)> =
            net.ground_caps().iter().map(|&(n, c)| (n, c.to_bits())).collect();
        gcaps.sort_unstable();
        for (n, bits) in gcaps {
            h.write_usize(n);
            h.write_u64(bits);
        }
        // Every coupling incident to a member shapes the analyzed network:
        // member-to-member caps directly, member-to-outside caps through
        // conservative decoupling (grounded at the member node).
        let mut couplings: Vec<(usize, &str, usize, u64)> = ctx
            .db
            .couplings_of(m)
            .map(|c| {
                let (own, other) = if c.a.net == m { (c.a, c.b) } else { (c.b, c.a) };
                (own.node, ctx.db.net(other.net).name(), other.node, c.farads.to_bits())
            })
            .collect();
        couplings.sort_unstable();
        for (own_node, other_name, other_node, bits) in couplings {
            h.write_usize(own_node);
            h.write_str(other_name);
            h.write_usize(other_node);
            h.write_u64(bits);
        }
        // Design-side inputs: receiver loading, switching window, driver
        // cell, complement partner.
        h.write_f64(ctx.load_cap(m));
        if let Some(design) = ctx.design {
            match design.find_net(net.name()) {
                Some(dnet) => {
                    match design.window(dnet) {
                        Some((a, b)) => {
                            h.write_u64(1);
                            h.write_f64(a);
                            h.write_f64(b);
                        }
                        None => h.write_u64(0),
                    }
                    match design.complement_of(dnet) {
                        Some(other) => h.write_str(design.net_name(other)),
                        None => h.write_u64(0),
                    }
                }
                None => h.write_u64(2),
            }
        }
        match ctx.driver_cell(m) {
            Ok(cell) => h.write_str(&cell.name),
            Err(_) => h.write_u64(3),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv1a::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn mixed_finish_is_the_splitmix64_finalizer() {
        // splitmix64's first output from state 0 is the finalizer applied
        // to the golden-ratio increment (published reference value).
        assert_eq!(Fnv1a(0x9e37_79b9_7f4a_7c15).finish_mixed(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(Fnv1a(0).finish_mixed(), 0);
    }

    #[test]
    fn length_prefix_prevents_concat_collisions() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
