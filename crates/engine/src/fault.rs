//! The one fault-injection primitive. Every drill in the workspace — a
//! numeric failure inside a cluster job ([`FaultKind`](crate::FaultKind)),
//! a disk failure under a persisted artifact
//! ([`FsFaultKind`](crate::FsFaultKind)), a worker-process failure in a
//! sharded run ([`ShardFault`](crate::ShardFault)) — is the same rule:
//! *fault `F` fires at site `S` on its first `n` occurrences*. A [`Plan`]
//! is an ordered list of such rules over one payload type.
//!
//! A rule's target either names its site exactly (victim name, full file
//! path, shard index) or draws its sites from `(seed, probability)`: a
//! pure hash of the seed and the site name, no RNG state. Either way the
//! plan is plain data — no wall clock, no randomness — so the same plan
//! produces the same faults on every run, worker count and machine.
//!
//! Two queries read a plan. [`Plan::armed`] is pure, for callers that know
//! which occurrence they are at (the recovery ladder's attempt index, a
//! shard worker's incarnation). [`Plan::fire`] counts occurrences itself,
//! for [`Fs`](crate::Fs), which does not.

use crate::fingerprint::Fnv1a;
use std::collections::BTreeMap;
use std::fmt::Display;

/// The `fires` of a rule that never disarms.
pub const ALWAYS: u32 = u32::MAX;

/// Where a rule applies.
#[derive(Debug, Clone)]
enum Target {
    /// Exactly this site.
    Site(String),
    /// Every site whose name hashes, under `seed`, below `probability`.
    Seeded { seed: u64, probability: f64 },
}

#[derive(Debug, Clone)]
struct Rule<F> {
    target: Target,
    /// Armed while the occurrence index is below this.
    fires: u32,
    fault: F,
    /// Occurrences [`Plan::fire`] has consumed so far, per site.
    fired: BTreeMap<String, u32>,
}

impl<F> Rule<F> {
    fn live(&self, nth: u32) -> bool {
        self.fires == ALWAYS || nth < self.fires
    }
}

/// A deterministic fault schedule over payloads of type `F`.
#[derive(Debug, Clone)]
pub struct Plan<F> {
    rules: Vec<Rule<F>>,
}

impl<F> Default for Plan<F> {
    fn default() -> Self {
        Plan { rules: Vec::new() }
    }
}

impl<F> Plan<F> {
    /// An empty plan: nothing is ever armed.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `fault` at exactly `site` for its first `fires` occurrences
    /// ([`ALWAYS`]: every occurrence). A site with exact rules is governed
    /// by them alone — seeded rules never reach it.
    #[must_use]
    pub fn at(self, site: impl Display, fires: u32, fault: F) -> Self {
        self.rule(Target::Site(site.to_string()), fires, fault)
    }

    /// Arm `fault`, for the first `fires` occurrences at each, at every
    /// site whose name hashes (under `seed`) below `probability` — a pure
    /// function of `(seed, site)`.
    #[must_use]
    pub fn seeded(self, seed: u64, probability: f64, fires: u32, fault: F) -> Self {
        self.rule(Target::Seeded { seed, probability }, fires, fault)
    }

    fn rule(mut self, target: Target, fires: u32, fault: F) -> Self {
        self.rules.push(Rule { target, fires, fault, fired: BTreeMap::new() });
        self
    }

    /// The rules that govern `site`, in plan order: the exact rules naming
    /// it when there are any, otherwise the seeded rules whose draw picks
    /// it.
    fn rules_at<'a>(&'a self, site: &'a str) -> impl Iterator<Item = (usize, &'a Rule<F>)> {
        let named = self.rules.iter().any(|r| matches!(&r.target, Target::Site(s) if s == site));
        self.rules.iter().enumerate().filter(move |(_, r)| match &r.target {
            Target::Site(s) => s == site,
            Target::Seeded { seed, probability } => {
                let mut h = Fnv1a::new();
                h.write_u64(*seed);
                h.write_str(site);
                // The top 53 mixed bits are a uniform [0, 1) draw.
                let draw = (h.finish_mixed() >> 11) as f64 / (1u64 << 53) as f64;
                !named && draw < *probability
            }
        })
    }

    /// The faults armed at `site` on its `nth` occurrence (0 = the first),
    /// in plan order. Pure: the same `(plan, site, nth)` always answers
    /// the same.
    pub fn armed<'a>(&'a self, site: &'a str, nth: u32) -> impl Iterator<Item = &'a F> {
        self.rules_at(site).filter(move |(_, r)| r.live(nth)).map(|(_, r)| &r.fault)
    }

    /// Consume one occurrence of the first rule at `site` that is still
    /// armed and whose fault satisfies `want`; `false` when there is none.
    /// Each rule counts its own occurrences per site, so over any call
    /// sequence a rule answers `true` exactly `fires` times at each site
    /// it governs.
    pub fn fire(&mut self, site: &str, want: impl Fn(&F) -> bool) -> bool {
        let hit = self
            .rules_at(site)
            .find(|(_, r)| want(&r.fault) && r.live(r.fired.get(site).copied().unwrap_or(0)))
            .map(|(i, _)| i);
        let Some(i) = hit else {
            return false;
        };
        let n = self.rules[i].fired.entry(site.to_owned()).or_insert(0);
        *n = n.saturating_add(1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_rng::Rng;

    /// A random plan over payloads `0..4` and sites `s0..s7`: the rule
    /// list as plain tuples (for the model) and the plan built from it.
    type Spec = (Option<usize>, u64, f64, u32, u8);

    fn random_plan(rng: &mut Rng) -> (Vec<Spec>, Plan<u8>) {
        let mut specs = Vec::new();
        let mut plan = Plan::new();
        for _ in 0..rng.range_usize(0, 7) {
            let fires = [0, 1, 2, 3, ALWAYS][rng.range_usize(0, 5)];
            let fault = rng.range_usize(0, 4) as u8;
            if rng.bool_with(0.5) {
                let site = rng.range_usize(0, 8);
                specs.push((Some(site), 0, 0.0, fires, fault));
                plan = plan.at(format!("s{site}"), fires, fault);
            } else {
                let (seed, p) = (rng.next_u64(), rng.f64());
                specs.push((None, seed, p, fires, fault));
                plan = plan.seeded(seed, p, fires, fault);
            }
        }
        (specs, plan)
    }

    /// Whether a one-rule seeded plan picks `site` — the draw, observed
    /// through the public query.
    fn picked(seed: u64, p: f64, site: &str) -> bool {
        Plan::new().seeded(seed, p, ALWAYS, ()).armed(site, 0).next().is_some()
    }

    #[test]
    fn armed_is_pure_and_exact_rules_shadow_seeded_ones() {
        let mut rng = Rng::new(0x5eed_fa17);
        for _ in 0..200 {
            let (specs, plan) = random_plan(&mut rng);
            for site in 0..8usize {
                let name = format!("s{site}");
                let named = specs.iter().any(|s| s.0 == Some(site));
                for nth in [0u32, 1, 2, 3, 1000, u32::MAX] {
                    let want: Vec<u8> = specs
                        .iter()
                        .filter(|&&(at, seed, p, fires, _)| {
                            let governs = match at {
                                Some(s) => s == site,
                                None => !named && picked(seed, p, &name),
                            };
                            governs && (fires == ALWAYS || nth < fires)
                        })
                        .map(|s| s.4)
                        .collect();
                    let got: Vec<u8> = plan.armed(&name, nth).copied().collect();
                    assert_eq!(got, want, "{specs:?} at {name} occurrence {nth}");
                    assert_eq!(plan.armed(&name, nth).copied().collect::<Vec<_>>(), got);
                }
            }
        }
    }

    #[test]
    fn fire_answers_true_exactly_fires_times_per_rule_and_site() {
        let mut rng = Rng::new(0xf1_4e);
        for _ in 0..200 {
            let (specs, mut plan) = random_plan(&mut rng);
            let pristine = plan.clone();
            for site in 0..8usize {
                let name = format!("s{site}");
                for fault in 0..4u8 {
                    // What `armed` promises at occurrence n is what `fire`
                    // delivers on its n-th call: finite rules run out,
                    // an ALWAYS rule never does.
                    let finite: u32 = (0..8)
                        .map(|n| pristine.armed(&name, n).filter(|&&f| f == fault).count() as u32)
                        .sum();
                    let forever = pristine.armed(&name, 1000).any(|&f| f == fault);
                    let fired = (0..40).filter(|_| plan.fire(&name, |&f| f == fault)).count();
                    let want = if forever { 40 } else { finite as usize };
                    assert_eq!(fired, want, "{specs:?}: fault {fault} at {name}");
                }
            }
        }
    }

    #[test]
    fn an_empty_plan_is_inert() {
        let mut plan: Plan<u8> = Plan::new();
        for site in ["", "a", "/tmp/x.cache", "0"] {
            assert_eq!(plan.armed(site, 0).count(), 0);
            assert!(!plan.fire(site, |_| true));
        }
    }
}
