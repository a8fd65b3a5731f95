//! Cluster fingerprints for the incremental result cache.
//!
//! A fingerprint is a hash over everything that can change a
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
//! It is a digest of digests. Everything a member net contributes — its
//! RC, its incident couplings, its annotations — depends on the analysis
//! context and that net alone, not on the cluster around it, so it is
//! hashed into a per-net *section digest*, once per sweep (`NetDigests`),
//! and a cluster's fingerprint hashes the configuration, the pruning
//! outcome and its members' digests, victim first. Fingerprinting a chip
//! therefore costs one pass over each net, however much the clusters
//! overlap.
//!
//! Element lists are hashed in *canonical* (ascending) order, so the
//! fingerprint depends only on the electrical content of a cluster, not on
//! the order a parasitic extractor happened to emit resistors, capacitors,
//! or couplings: re-extracting an unchanged layout keeps the cache warm
//! even when the netlist file shuffles. A list that already ascends — what
//! an extractor walking a wire emits — is hashed where it lies; only one
//! that does not is copied and sorted. Sections and clusters hash 64-bit
//! words (`Digest`); a string enters as the [`Fnv1a`] hash of its bytes, a
//! net's name once per sweep; configuration, chip slice and shard
//! assignment hash bytes.

use pcv_netlist::PNetId;
use pcv_xtalk::prune::{prune_victim_with_components, Cluster, PruneConfig};
use pcv_xtalk::AnalysisContext;
use std::cmp::Ordering;
use std::sync::OnceLock;

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

    /// Final hash value through [`mix64`]. FNV-1a avalanches weakly over
    /// trailing bytes (`"w3"` vs `"w4"`, bus bit indices), so anything that
    /// takes a modulus or a uniform draw of the hash — shard assignment,
    /// seeded fault picks — finishes here instead.
    pub(crate) fn finish_mixed(&self) -> u64 {
        mix64(self.0)
    }
}

/// The splitmix64 finalizer: a bijection of `u64` under which flipping any
/// input bit flips each output bit about half the time.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Word-at-a-time hasher of section and cluster digests. A word is
/// avalanched by [`mix64`] alone — off the chain that links one word to
/// the next — then folded in by a rotate, an xor and one odd multiply: a
/// bijection of the state per word and of the word per state, so two
/// sequences of one length that differ in one word never share a digest.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(23) ^ mix64(v)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// Absorb a list in ascending `order`, each element through `words`,
    /// then its length: as it stands while it ascends; at the first descent
    /// that work is dropped and a sorted copy absorbed instead, so the digest
    /// never tells which of the two happened.
    fn list<const N: usize>(
        &mut self,
        items: impl Iterator<Item = [u64; N]> + Clone,
        order: impl Fn(&[u64; N], &[u64; N]) -> Ordering,
        words: impl Fn([u64; N]) -> [u64; N],
    ) {
        let (mut in_place, mut last, mut len) = (*self, None, 0u64);
        for item in items.clone() {
            if last.is_some_and(|last| order(&last, &item).is_gt()) {
                let mut sorted: Vec<[u64; N]> = items.collect();
                sorted.sort_unstable_by(order);
                sorted.iter().flat_map(|&item| words(item)).for_each(|w| self.word(w));
                return self.word(sorted.len() as u64);
            }
            words(item).iter().for_each(|&w| in_place.word(w));
            (last, len) = (Some(item), len + 1);
        }
        in_place.word(len);
        *self = in_place;
    }

    fn finish(self) -> u64 {
        mix64(self.0)
    }
}

/// How a string enters a [`Digest`]: FNV-1a of its length-prefixed bytes.
fn str_hash(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(s);
    h.finish()
}

/// Hash the run-global configuration: everything that applies to every
/// cluster alike. Mixed into each cluster fingerprint so caches written
/// under different options never collide.
pub fn config_hash(
    ctx: &AnalysisContext<'_>,
    prune: &PruneConfig,
    opts: &pcv_xtalk::AnalysisOptions,
    warn_frac: f64,
    fail_frac: f64,
    check_receivers: bool,
) -> u64 {
    use pcv_xtalk::drivers::DriverModelKind;
    use pcv_xtalk::EngineKind;
    let mut h = Fnv1a::new();
    // v7: every transient holds its DC point across its quiet prefix (v6:
    // `block_iters` is a ceiling the reduction may stop below; v5 hashed
    // sections and clusters word-wise). Bumping the tag invalidates caches
    // and journals written by earlier layouts or rules.
    h.write_str("pcv-engine config v7");
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
    // The solver constants keep the slots the option fields they replaced
    // had, so fingerprints written before still match.
    h.write_f64(pcv_xtalk::analysis::SWITCH_TIME);
    h.write_f64(opts.input_slew);
    h.write_f64(opts.vdd);
    h.write_f64(opts.gmin_scale);
    h.write_f64(opts.mor.max_step_fraction);
    h.write_f64(pcv_mor::sim::VTOL);
    h.write_f64(pcv_mor::sim::DAMPING);
    h.write_usize(opts.mor.max_newton);
    h.write_f64(pcv_mor::sim::MIN_STEP);
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

/// Run-scoped memo of per-net section digests and name hashes, indexed by
/// [`PNetId`]. A section reads nothing but `(ctx, net)`, so within one
/// [`AnalysisContext`] it is hashed once however many clusters the net is
/// a member of. A memo is created per sweep and dropped with it: nothing
/// digested under one context can be read under another.
pub(crate) struct NetDigests {
    sections: Vec<OnceLock<u64>>,
    names: Vec<OnceLock<u64>>,
}

impl NetDigests {
    /// An empty memo for the nets of `ctx`.
    pub(crate) fn new(ctx: &AnalysisContext<'_>) -> Self {
        let empty = || (0..ctx.db.num_nets()).map(|_| OnceLock::new()).collect();
        NetDigests { sections: empty(), names: empty() }
    }

    fn section(&self, ctx: &AnalysisContext<'_>, net: PNetId) -> u64 {
        *self.sections[net.0].get_or_init(|| self.digest_section(ctx, net))
    }

    fn name(&self, ctx: &AnalysisContext<'_>, net: PNetId) -> u64 {
        *self.names[net.0].get_or_init(|| str_hash(ctx.db.net(net).name()))
    }

    /// Digest of everything one member net contributes to a cluster's
    /// analysis: its RC, every coupling incident to it, and the design
    /// annotations the analysis consults for it.
    fn digest_section(&self, ctx: &AnalysisContext<'_>, m: PNetId) -> u64 {
        pcv_trace::count("engine.fingerprint.net_digests", 1);
        let mut h = Digest::new();
        let net = ctx.db.net(m);
        h.word(self.name(ctx, m));
        h.word(net.num_nodes() as u64);
        h.list(net.load_nodes().iter().map(|&n| [n as u64]), Ord::cmp, |item| item);
        let resistors = net.resistors().iter().map(|&(a, b, r)| [a as u64, b as u64, r.to_bits()]);
        h.list(resistors, Ord::cmp, |item| item);
        h.list(net.ground_caps().iter().map(|&(n, c)| [n as u64, c.to_bits()]), Ord::cmp, |item| {
            item
        });
        // Every coupling incident to a member shapes the analyzed network:
        // member-to-member caps directly, member-to-outside caps through
        // conservative decoupling (grounded at the member node). They are
        // ordered by the other net's name first — wire by wire, as an
        // extractor emits them — and the name is absorbed as its hash.
        let couplings = ctx.db.couplings_of(m).map(|c| {
            let (own, other) = if c.a.net == m { (c.a, c.b) } else { (c.b, c.a) };
            [other.net.0 as u64, own.node as u64, other.node as u64, c.farads.to_bits()]
        });
        let name = |net: u64| ctx.db.net(PNetId(net as usize)).name();
        let by_name = |a: &[u64; 4], b: &[u64; 4]| {
            if a[0] == b[0] {
                a.cmp(b)
            } else {
                name(a[0]).cmp(name(b[0]))
            }
        };
        let hashed = |c: [u64; 4]| [self.name(ctx, PNetId(c[0] as usize)), c[1], c[2], c[3]];
        h.list(couplings, by_name, hashed);
        // Design-side inputs: receiver loading, switching window, driver
        // cell, complement partner.
        h.word(ctx.load_cap(m).to_bits());
        if let Some(design) = ctx.design {
            match design.find_net(net.name()) {
                Some(dnet) => {
                    match design.window(dnet) {
                        Some((a, b)) => {
                            h.word(1);
                            h.word(a.to_bits());
                            h.word(b.to_bits());
                        }
                        None => h.word(0),
                    }
                    match design.complement_of(dnet) {
                        Some(other) => h.word(str_hash(design.net_name(other))),
                        None => h.word(0),
                    }
                }
                None => h.word(2),
            }
        }
        match ctx.driver_cell(m) {
            Ok(cell) => h.word(str_hash(&cell.name)),
            Err(_) => h.word(3),
        }
        h.finish()
    }
}

/// Fingerprint one pruned cluster under a given configuration hash,
/// taking each member's section digest from (or into) `memo`.
fn cluster_fingerprint_in(
    ctx: &AnalysisContext<'_>,
    cluster: &Cluster,
    config: u64,
    memo: &NetDigests,
) -> u64 {
    pcv_trace::count("engine.fingerprint.clusters", 1);
    let mut h = Digest::new();
    h.word(config);

    // Pruning outcome beyond membership: what was grounded away changes
    // the victim's loading.
    h.word(cluster.decoupled_cap.to_bits());
    h.word(cluster.aggressors.len() as u64);
    for &(_, cc) in &cluster.aggressors {
        h.word(cc.to_bits());
    }
    h.word(memo.section(ctx, cluster.victim));
    for &(aggressor, _) in &cluster.aggressors {
        h.word(memo.section(ctx, aggressor));
    }
    h.finish()
}

/// Prune `victim` and fingerprint what is left — the key of its stored
/// record, computed alike by a run, an ECO plan and a shard harvest.
pub(crate) fn pruned_fingerprint(
    ctx: &AnalysisContext<'_>,
    victim: PNetId,
    prune: &PruneConfig,
    component_sizes: &[usize],
    config: u64,
    memo: &NetDigests,
) -> (Cluster, u64) {
    let cluster = prune_victim_with_components(ctx.db, victim, prune, component_sizes);
    let fp = cluster_fingerprint_in(ctx, &cluster, config, memo);
    (cluster, fp)
}

/// Fingerprint one pruned cluster under a given configuration hash: the
/// value a sweep computes for it, from a memo of its own.
pub fn cluster_fingerprint(ctx: &AnalysisContext<'_>, cluster: &Cluster, config: u64) -> u64 {
    cluster_fingerprint_in(ctx, cluster, config, &NetDigests::new(ctx))
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

    #[test]
    fn flipping_any_bit_of_any_absorbed_word_changes_the_digest() {
        let mut rng = pcv_rng::Rng::new(0xD16E);
        let words: Vec<u64> =
            (0..24).map(|k| if k % 5 == 0 { k } else { rng.next_u64() }).collect();
        let digest = |words: &[u64]| {
            let mut h = Digest::new();
            words.iter().for_each(|&w| h.word(w));
            h.finish()
        };
        let base = digest(&words);
        let mut flipped_bits = 0;
        for (k, bit) in (0..words.len()).flat_map(|k| (0..64).map(move |bit| (k, bit))) {
            let mut edited = words.clone();
            edited[k] ^= 1 << bit;
            assert_ne!(digest(&edited), base, "word {k} bit {bit}");
            flipped_bits += (digest(&edited) ^ base).count_ones();
        }
        // Full avalanche: a flipped input bit flips about half the digest.
        let mean = f64::from(flipped_bits) / (words.len() * 64) as f64;
        assert!((30.0..34.0).contains(&mean), "mean flipped output bits {mean}");
        // Length and order count.
        assert_ne!(digest(&words[1..]), base);
        assert_ne!(digest(&[&words[1..2], &words[..1], &words[2..]].concat()), base);
    }

    #[test]
    fn a_list_digests_alike_in_canonical_order_and_shuffled() {
        let mut rng = pcv_rng::Rng::new(0x5047);
        let digest = |list: &[[u64; 3]]| {
            let mut h = Digest::new();
            h.list(list.iter().copied(), Ord::cmp, |item| item);
            h.finish()
        };
        for len in [0usize, 1, 2, 3, 17, 200] {
            // Few distinct leading words, so later words decide the order,
            // and (from three elements up) a duplicate.
            let element = |rng: &mut pcv_rng::Rng| {
                [rng.next_u64() >> 62, rng.next_u64() >> 62, rng.next_u64()]
            };
            let mut sorted: Vec<[u64; 3]> = (0..len).map(|_| element(&mut rng)).collect();
            sorted.extend_from_within(..len.min(3) / 3);
            sorted.sort_unstable();
            // In place: what absorbing a sorted copy word by word gives.
            let mut by_hand = Digest::new();
            sorted.iter().flatten().for_each(|&w| by_hand.word(w));
            by_hand.word(sorted.len() as u64);
            assert_eq!(digest(&sorted), by_hand.finish(), "len {len}");
            for _ in 0..8 {
                let mut shuffled = sorted.clone();
                (1..shuffled.len()).rev().for_each(|k| shuffled.swap(k, rng.range_usize(0, k + 1)));
                assert_eq!(digest(&shuffled), digest(&sorted), "len {len}: {shuffled:?}");
            }
            if let Some(last) = sorted.last().copied() {
                assert_ne!(digest(&sorted[1..]), digest(&sorted), "len {len}");
                *sorted.last_mut().expect("non-empty") = [last[0], last[1], last[2] ^ 1];
                assert_ne!(digest(&sorted), by_hand.finish(), "len {len}");
            }
        }
    }

    use pcv_cells::library::CellLibrary;
    use pcv_netlist::{Design, NetNodeRef, NetParasitics, ParasiticDb};
    use pcv_xtalk::drivers::DriverModelKind;
    use pcv_xtalk::prune::{prune_victim, PruneConfig};

    /// Every per-net input a section digests, for one member of the
    /// fixture's cluster.
    #[derive(Clone)]
    struct Inputs {
        ohms: f64,
        ground_cap: f64,
        /// The member's coupling to a net outside the cluster.
        outside: (f64, usize, &'static str),
        receivers: usize,
        window: Option<(f64, f64)>,
        complement: bool,
        driver: &'static str,
    }

    const BASE: Inputs = Inputs {
        ohms: 150.0,
        ground_cap: 5e-15,
        outside: (0.05e-15, 0, "far"),
        receivers: 1,
        window: Some((1e-9, 2e-9)),
        complement: false,
        driver: "INVX2",
    };

    /// Victim `v` with aggressors `a0`, `a1`, each weakly coupled to a net
    /// that pruning leaves outside; `member` (0 = victim) takes `inputs`,
    /// the other two take [`BASE`].
    fn fixture(member: usize, inputs: &Inputs) -> (ParasiticDb, Design) {
        let mut db = ParasiticDb::new();
        let mut design = Design::new("fixture");
        let pi = design.add_net("pi");
        let sink = design.add_net("sink");
        let outside: Vec<_> = ["far", "farther"]
            .iter()
            .map(|name| {
                let mut net = NetParasitics::new(*name);
                net.add_node();
                design.add_net(*name);
                db.add_net(net)
            })
            .collect();
        let mut ids = Vec::new();
        for (k, name) in ["v", "a0", "a1"].into_iter().enumerate() {
            let inp = if k == member { inputs } else { &BASE };
            let mut net = NetParasitics::new(name);
            let (n1, n2) = (net.add_node(), net.add_node());
            net.add_resistor(0, n1, inp.ohms);
            net.add_resistor(n1, n2, 180.0);
            net.add_ground_cap(n1, inp.ground_cap);
            net.add_ground_cap(n2, 6e-15);
            net.mark_load(n2);
            let id = db.add_net(net);
            let dnet = design.add_net(name);
            design.add_instance(format!("drv_{name}"), inp.driver, vec![pi], Some(dnet), false);
            for r in 0..inp.receivers {
                design.add_instance(
                    format!("rx{r}_{name}"),
                    "INVX1",
                    vec![dnet],
                    Some(sink),
                    false,
                );
            }
            if let Some((open, close)) = inp.window {
                design.set_window(dnet, open, close);
            }
            let (farads, node, far) = inp.outside;
            let far = outside[usize::from(far != "far")];
            db.add_coupling(NetNodeRef { net: id, node: 1 }, NetNodeRef { net: far, node }, farads);
            ids.push((id, dnet));
        }
        for &(agg, _) in &ids[1..] {
            let v = ids[0].0;
            db.add_coupling(
                NetNodeRef { net: v, node: 2 },
                NetNodeRef { net: agg, node: 2 },
                20e-15,
            );
        }
        if inputs.complement {
            // The member pairs with the next one round the cluster.
            design.set_complementary(ids[member].1, ids[(member + 1) % 3].1);
        }
        (db, design)
    }

    fn fixture_fingerprint(member: usize, inputs: &Inputs) -> u64 {
        let (db, design) = fixture(member, inputs);
        let lib = CellLibrary::standard_025();
        let ctx = AnalysisContext {
            db: &db,
            design: Some(&design),
            lib: Some(&lib),
            charlib: None,
            driver_model: DriverModelKind::FixedResistance(1500.0),
        };
        let cluster = prune_victim(&db, db.find_net("v").unwrap(), &PruneConfig::default());
        assert_eq!(cluster.size(), 3, "both aggressors kept, the outside nets pruned");
        cluster_fingerprint(&ctx, &cluster, 7)
    }

    #[test]
    fn every_input_of_every_member_reaches_the_fingerprint() {
        let edits: [(&str, Inputs); 11] = [
            ("a resistor", Inputs { ohms: 151.0, ..BASE }),
            ("a ground cap", Inputs { ground_cap: 5.05e-15, ..BASE }),
            ("outside coupling value", Inputs { outside: (0.0505e-15, 0, "far"), ..BASE }),
            ("outside coupling far node", Inputs { outside: (0.05e-15, 1, "far"), ..BASE }),
            ("outside net's name", Inputs { outside: (0.05e-15, 0, "farther"), ..BASE }),
            ("load cap", Inputs { receivers: 2, ..BASE }),
            ("window edge", Inputs { window: Some((1e-9, 2.5e-9)), ..BASE }),
            ("window removed", Inputs { window: None, ..BASE }),
            ("complement partner", Inputs { complement: true, ..BASE }),
            ("driver cell", Inputs { driver: "BUFX4", ..BASE }),
            ("driver strength", Inputs { driver: "INVX4", ..BASE }),
        ];
        let base = fixture_fingerprint(0, &BASE);
        let mut seen = vec![base];
        for member in 0..3 {
            assert_eq!(fixture_fingerprint(member, &BASE), base, "the baseline is one chip");
            for (what, inputs) in &edits {
                let fp = fixture_fingerprint(member, inputs);
                assert!(!seen.contains(&fp), "member {member}: {what} left no trace");
                seen.push(fp);
            }
        }
    }

    #[test]
    fn pruning_outcome_member_order_and_config_reach_the_fingerprint() {
        let (db, _) = fixture(0, &BASE);
        let ctx = AnalysisContext::fixed_resistance(&db, 1500.0);
        let cluster = prune_victim(&db, db.find_net("v").unwrap(), &PruneConfig::default());
        let base = cluster_fingerprint(&ctx, &cluster, 7);
        let mut edited = vec![cluster.clone(); 5];
        edited[0].decoupled_cap *= 1.01;
        edited[1].aggressors[1].1 *= 1.01;
        edited[2].aggressors.swap(0, 1);
        edited[3].aggressors.pop();
        // The victim trades places with an aggressor: same member set.
        edited[4].victim = std::mem::replace(&mut edited[4].aggressors[0].0, cluster.victim);
        let mut seen = vec![base, cluster_fingerprint(&ctx, &cluster, 8)];
        assert_ne!(seen[0], seen[1], "config hash");
        for (k, c) in edited.iter().enumerate() {
            let fp = cluster_fingerprint(&ctx, c, 7);
            assert!(!seen.contains(&fp), "edit {k} left no trace");
            seen.push(fp);
        }
        // What the report carries but no analysis reads stays out.
        let mut cosmetic = cluster.clone();
        cosmetic.neighbors_before += 1;
        cosmetic.component_size += 1;
        assert_eq!(cluster_fingerprint(&ctx, &cosmetic, 7), base);
    }

    #[test]
    fn a_shared_memo_gives_the_fresh_value_from_one_thread_and_from_four() {
        use pcv_designs::dsp::{generate, DspConfig};
        let lib = CellLibrary::standard_025();
        let cfg = DspConfig { n_buses: 2, bus_bits: 8, n_random_nets: 24, ..Default::default() };
        let block = generate(&cfg, &pcv_designs::Technology::c025(), &lib);
        let ctx = AnalysisContext {
            db: &block.parasitics,
            design: Some(&block.design),
            lib: Some(&lib),
            charlib: None,
            driver_model: DriverModelKind::FixedResistance(2000.0),
        };
        let prune = PruneConfig::default();
        let clusters: Vec<Cluster> =
            (0..ctx.db.num_nets()).map(|v| prune_victim(ctx.db, PNetId(v), &prune)).collect();
        let fresh: Vec<u64> = clusters.iter().map(|c| cluster_fingerprint(&ctx, c, 11)).collect();
        let member_slots: usize = clusters.iter().map(Cluster::size).sum();
        let mut distinct: Vec<PNetId> = clusters.iter().flat_map(Cluster::members).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(member_slots > 2 * distinct.len(), "the chip must share nets between clusters");

        for threads in [1usize, 4] {
            let memo = NetDigests::new(&ctx);
            let start = std::sync::Barrier::new(threads);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (memo, start, clusters, fresh, ctx) =
                        (&memo, &start, &clusters, &fresh, &ctx);
                    scope.spawn(move || {
                        // Every thread fingerprints every cluster, each from
                        // its own starting point, so first uses collide.
                        start.wait();
                        for k in 0..clusters.len() {
                            let k = (k + t * clusters.len() / threads) % clusters.len();
                            let fp = cluster_fingerprint_in(ctx, &clusters[k], 11, memo);
                            assert_eq!(fp, fresh[k], "victim {k}, thread {t} of {threads}");
                        }
                    });
                }
            });
            let filled = memo.sections.iter().filter(|slot| slot.get().is_some()).count();
            assert_eq!(filled, distinct.len(), "one digest per net that is a member somewhere");
        }
    }

    /// The bits every cache, journal and sign-off is keyed by, recorded
    /// while the solver tolerances were still option fields: the default
    /// configuration over a fixed-resistance and a nonlinear context,
    /// every ladder rung's options, and the cluster fingerprints of a
    /// small DSP block. A tolerance turned into a constant must keep
    /// writing the same value in the same slot. Re-recorded twice since, for
    /// the tags `v6` (the reduction's stop rule) and `v7` (the DC hold):
    /// only the tag moved.
    #[test]
    fn configuration_and_cluster_digests_are_the_recorded_ones() {
        use crate::engine::EngineConfig;
        use crate::recovery::{rung_options, RecoveryRung};
        use pcv_designs::dsp::{generate, DspConfig};
        let cfg = EngineConfig::default();
        let (db, _) = fixture(0, &BASE);
        let fixed = AnalysisContext::fixed_resistance(&db, 1500.0);
        let lib = CellLibrary::standard_025();
        let dsp = DspConfig { n_buses: 2, bus_bits: 8, n_random_nets: 24, ..Default::default() };
        let block = generate(&dsp, &pcv_designs::Technology::c025(), &lib);
        let nonlinear = AnalysisContext {
            db: &block.parasitics,
            design: Some(&block.design),
            lib: Some(&lib),
            charlib: None,
            driver_model: DriverModelKind::Nonlinear,
        };
        let mut got = vec![cfg.config_hash(&fixed), cfg.config_hash(&nonlinear)];
        for rung in RecoveryRung::ALL {
            let opts = rung_options(&cfg.analysis, rung);
            got.push(config_hash(&fixed, &cfg.prune, &opts, cfg.warn_frac, cfg.fail_frac, true));
        }
        let config = cfg.config_hash(&nonlinear);
        let mut clusters = Fnv1a::new();
        for v in 0..block.parasitics.num_nets() {
            let cluster = prune_victim(&block.parasitics, PNetId(v), &cfg.prune);
            clusters.write_u64(cluster_fingerprint(&nonlinear, &cluster, config));
        }
        got.push(clusters.finish());
        let want: [u64; 9] = [
            0xbac6c5746af6ddd1,
            0xd62aea9187ec5bb8,
            0xb13b9af23fe32172,
            0x2ff55202c2b72f78,
            0xeb03f711bfa29e42,
            0x44af5f0d2e20bf22,
            0x3c0392c57bad946b,
            0x3c0392c57bad946b,
            0xb60b4a24e5e80103,
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }
}
