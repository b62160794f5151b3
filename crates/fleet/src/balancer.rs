//! Pluggable load-balancing policies routing requests over the fleet's
//! shards.
//!
//! Every policy is deterministic given its configuration: round-robin and
//! least-outstanding are state machines with no randomness, consistent
//! hashing derives placement from a seeded avalanche hash, and
//! power-of-two-choices carries its own [`SimRng`] stream so routing never
//! perturbs the client pool's random sequence (which is what keeps a
//! 1-shard fleet identical under every balancer, and equal to a
//! single-server `Experiment`).

use asyncinv_simcore::SimRng;
use serde::{Deserialize, Serialize};

/// SplitMix64 finalizer: a full-avalanche 64-bit hash. Used instead of
/// `std::hash` so ring placement is stable across Rust versions and
/// platforms.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Routes request attempts to shards.
///
/// `outstanding[s]` is the number of attempts currently routed to shard
/// `s` and not yet resolved (completed, cancelled, retried away or
/// abandoned); load-aware policies read it, others ignore it.
pub trait Balancer {
    /// Policy name for tables and reports.
    fn name(&self) -> &'static str;

    /// Picks the shard for a fresh request from `user` of `class`.
    fn pick(&mut self, user: usize, class: usize, outstanding: &[u32]) -> usize;

    /// Picks a shard for a hedge or cross-shard retry; never returns
    /// `exclude` when more than one shard exists.
    fn pick_excluding(
        &mut self,
        user: usize,
        class: usize,
        outstanding: &[u32],
        exclude: usize,
    ) -> usize;
}

/// Which balancer a [`crate::FleetConfig`] builds, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BalancerKind {
    /// Cycle through shards in index order.
    RoundRobin,
    /// Consistent hashing keyed on the request class, with `vnodes`
    /// virtual nodes per shard bounding remap churn on resharding.
    ConsistentHash {
        /// Virtual nodes per shard on the hash ring.
        vnodes: usize,
    },
    /// Route to the shard with the fewest unresolved attempts (ties to
    /// the lowest index).
    LeastOutstanding,
    /// Sample two distinct shards from a dedicated seeded stream, route
    /// to the less loaded of the two.
    PowerOfTwoChoices {
        /// Seed of the balancer's private random stream.
        seed: u64,
    },
}

impl BalancerKind {
    /// One representative configuration of each policy, for sweeps and
    /// property tests.
    pub const ALL: [BalancerKind; 4] = [
        BalancerKind::RoundRobin,
        BalancerKind::ConsistentHash { vnodes: 64 },
        BalancerKind::LeastOutstanding,
        BalancerKind::PowerOfTwoChoices { seed: 0x5eed },
    ];

    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            BalancerKind::RoundRobin => "round-robin",
            BalancerKind::ConsistentHash { .. } => "consistent-hash",
            BalancerKind::LeastOutstanding => "least-outstanding",
            BalancerKind::PowerOfTwoChoices { .. } => "power-of-two",
        }
    }

    /// Builds the balancer for a fleet of `shards` shards.
    pub fn build(&self, shards: usize) -> Box<dyn Balancer> {
        match *self {
            BalancerKind::RoundRobin => Box::new(RoundRobin { next: 0 }),
            BalancerKind::ConsistentHash { vnodes } => Box::new(ConsistentHash {
                ring: ConsistentHashRing::new(shards, vnodes.max(1)),
            }),
            BalancerKind::LeastOutstanding => Box::new(LeastOutstanding),
            BalancerKind::PowerOfTwoChoices { seed } => Box::new(PowerOfTwo {
                rng: SimRng::new(seed),
            }),
        }
    }
}

/// Cycles through shards in index order.
#[derive(Debug)]
struct RoundRobin {
    next: usize,
}

impl Balancer for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn pick(&mut self, _user: usize, _class: usize, outstanding: &[u32]) -> usize {
        let n = outstanding.len();
        let s = self.next % n;
        self.next = (self.next + 1) % n;
        s
    }

    fn pick_excluding(
        &mut self,
        user: usize,
        class: usize,
        outstanding: &[u32],
        exclude: usize,
    ) -> usize {
        let s = self.pick(user, class, outstanding);
        if s != exclude || outstanding.len() == 1 {
            s
        } else {
            self.pick(user, class, outstanding)
        }
    }
}

/// A consistent-hash ring with virtual nodes: each shard owns `vnodes`
/// points on a 64-bit ring and a key maps to the owner of the first point
/// clockwise from its hash. Removing one shard only remaps the keys that
/// shard owned (≈ 1/N of them), which the unit tests bound.
#[derive(Debug, Clone)]
pub struct ConsistentHashRing {
    /// `(point, shard)` sorted by point.
    ring: Vec<(u64, usize)>,
    vnodes: usize,
}

impl ConsistentHashRing {
    /// A ring over shards `0..shards` with `vnodes` points each.
    pub fn new(shards: usize, vnodes: usize) -> Self {
        let mut r = ConsistentHashRing {
            ring: Vec::with_capacity(shards * vnodes),
            vnodes,
        };
        for s in 0..shards {
            r.add_shard(s);
        }
        r
    }

    /// Adds a shard's virtual nodes to the ring.
    pub fn add_shard(&mut self, shard: usize) {
        for replica in 0..self.vnodes {
            let point = mix64(((shard as u64) << 32) | replica as u64);
            self.ring.push((point, shard));
        }
        self.ring.sort_unstable();
    }

    /// Removes a shard's virtual nodes from the ring.
    pub fn remove_shard(&mut self, shard: usize) {
        self.ring.retain(|&(_, s)| s != shard);
    }

    /// The shard owning `key`'s position on the ring.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn lookup(&self, key: u64) -> usize {
        let h = mix64(key);
        let i = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[i % self.ring.len()].1
    }

    /// The first shard clockwise from `key` that is not `exclude`; falls
    /// back to `exclude` when it owns the whole ring.
    pub fn lookup_excluding(&self, key: u64, exclude: usize) -> usize {
        let h = mix64(key);
        let start = self.ring.partition_point(|&(p, _)| p < h);
        for step in 0..self.ring.len() {
            let (_, s) = self.ring[(start + step) % self.ring.len()];
            if s != exclude {
                return s;
            }
        }
        exclude
    }
}

/// Balancer wrapper over [`ConsistentHashRing`], keyed on request class.
#[derive(Debug)]
struct ConsistentHash {
    ring: ConsistentHashRing,
}

impl Balancer for ConsistentHash {
    fn name(&self) -> &'static str {
        "consistent-hash"
    }

    fn pick(&mut self, _user: usize, class: usize, _outstanding: &[u32]) -> usize {
        self.ring.lookup(class as u64)
    }

    fn pick_excluding(
        &mut self,
        _user: usize,
        class: usize,
        _outstanding: &[u32],
        exclude: usize,
    ) -> usize {
        self.ring.lookup_excluding(class as u64, exclude)
    }
}

/// Routes to the shard with the fewest unresolved attempts.
#[derive(Debug)]
struct LeastOutstanding;

fn argmin_excluding(outstanding: &[u32], exclude: Option<usize>) -> usize {
    let mut best = usize::MAX;
    let mut best_load = u32::MAX;
    for (s, &load) in outstanding.iter().enumerate() {
        if Some(s) == exclude && outstanding.len() > 1 {
            continue;
        }
        if load < best_load {
            best = s;
            best_load = load;
        }
    }
    best
}

impl Balancer for LeastOutstanding {
    fn name(&self) -> &'static str {
        "least-outstanding"
    }

    fn pick(&mut self, _user: usize, _class: usize, outstanding: &[u32]) -> usize {
        argmin_excluding(outstanding, None)
    }

    fn pick_excluding(
        &mut self,
        _user: usize,
        _class: usize,
        outstanding: &[u32],
        exclude: usize,
    ) -> usize {
        argmin_excluding(outstanding, Some(exclude))
    }
}

/// Power-of-two-choices with a private seeded stream.
#[derive(Debug)]
struct PowerOfTwo {
    rng: SimRng,
}

impl PowerOfTwo {
    /// Two distinct draws from `candidates`, keeping the less loaded (tie:
    /// lower index). With one candidate no randomness is consumed.
    fn choose(&mut self, outstanding: &[u32], candidates: &[usize]) -> usize {
        if candidates.len() == 1 {
            return candidates[0];
        }
        let a = candidates[self.rng.gen_range(candidates.len() as u64) as usize];
        let mut b = candidates[self.rng.gen_range(candidates.len() as u64 - 1) as usize];
        if b == a {
            b = candidates[candidates.len() - 1];
        }
        match outstanding[a].cmp(&outstanding[b]) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => a.min(b),
        }
    }
}

impl Balancer for PowerOfTwo {
    fn name(&self) -> &'static str {
        "power-of-two"
    }

    fn pick(&mut self, _user: usize, _class: usize, outstanding: &[u32]) -> usize {
        if outstanding.len() == 1 {
            return 0;
        }
        let candidates: Vec<usize> = (0..outstanding.len()).collect();
        self.choose(outstanding, &candidates)
    }

    fn pick_excluding(
        &mut self,
        _user: usize,
        _class: usize,
        outstanding: &[u32],
        exclude: usize,
    ) -> usize {
        if outstanding.len() == 1 {
            return 0;
        }
        let candidates: Vec<usize> = (0..outstanding.len()).filter(|&s| s != exclude).collect();
        self.choose(outstanding, &candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_and_excludes() {
        let mut rr = BalancerKind::RoundRobin.build(3);
        let out = [0u32; 3];
        assert_eq!(
            [
                rr.pick(0, 0, &out),
                rr.pick(0, 0, &out),
                rr.pick(0, 0, &out),
                rr.pick(0, 0, &out)
            ],
            [0, 1, 2, 0]
        );
        // Next natural pick is 1; excluding 1 advances past it.
        assert_eq!(rr.pick_excluding(0, 0, &out, 1), 2);
    }

    #[test]
    fn least_outstanding_takes_argmin_with_low_index_ties() {
        let mut lo = BalancerKind::LeastOutstanding.build(4);
        assert_eq!(lo.pick(0, 0, &[3, 1, 1, 2]), 1);
        assert_eq!(lo.pick_excluding(0, 0, &[3, 1, 1, 2], 1), 2);
        assert_eq!(lo.pick(0, 0, &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn power_of_two_never_picks_excluded_and_is_deterministic() {
        let mk = || BalancerKind::PowerOfTwoChoices { seed: 7 }.build(4);
        let out = [5u32, 0, 5, 5];
        let mut a = mk();
        let mut b = mk();
        for _ in 0..100 {
            let (x, y) = (a.pick(0, 0, &out), b.pick(0, 0, &out));
            assert_eq!(x, y, "same seed, same stream");
            let (xe, ye) = (
                a.pick_excluding(0, 0, &out, 2),
                b.pick_excluding(0, 0, &out, 2),
            );
            assert_eq!(xe, ye, "same seed, same stream under exclusion");
            assert_ne!(xe, 2);
        }
    }

    #[test]
    fn power_of_two_prefers_less_loaded() {
        let mut p = BalancerKind::PowerOfTwoChoices { seed: 1 }.build(2);
        // With two shards both draws cover {0, 1}: always the idle one.
        for _ in 0..20 {
            assert_eq!(p.pick(0, 0, &[9, 0]), 1);
        }
    }

    #[test]
    fn single_shard_fleet_routes_everything_to_shard_zero() {
        for kind in BalancerKind::ALL {
            let mut b = kind.build(1);
            let out = [3u32];
            for class in 0..8 {
                assert_eq!(b.pick(class, class, &out), 0, "{}", kind.name());
                assert_eq!(b.pick_excluding(class, class, &out, 0), 0);
            }
        }
    }

    #[test]
    fn ring_lookup_is_stable_and_spread_is_uniform() {
        let ring = ConsistentHashRing::new(8, 64);
        let mut counts = [0u32; 8];
        for class in 0..4096u64 {
            let s = ring.lookup(class);
            assert_eq!(ring.lookup(class), s, "lookup must be pure");
            counts[s] += 1;
        }
        let ideal = 4096.0 / 8.0;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > ideal * 0.5 && (c as f64) < ideal * 1.7,
                "shard {s} got {c} of 4096 keys (ideal {ideal})"
            );
        }
    }

    #[test]
    fn removing_a_shard_remaps_only_a_bounded_fraction() {
        let before = ConsistentHashRing::new(8, 64);
        let mut after = before.clone();
        after.remove_shard(3);
        let mut moved = 0u32;
        const KEYS: u64 = 4096;
        for key in 0..KEYS {
            let was = before.lookup(key);
            let now = after.lookup(key);
            if was != now {
                assert_eq!(was, 3, "only keys owned by the removed shard move");
                moved += 1;
            }
        }
        let frac = moved as f64 / KEYS as f64;
        // Ideal is 1/8 = 0.125; virtual nodes keep the real share close.
        assert!(
            frac > 0.05 && frac < 0.25,
            "remap fraction {frac} out of bounds"
        );
    }

    #[test]
    fn adding_a_shard_only_steals_keys_for_the_new_shard() {
        let before = ConsistentHashRing::new(4, 64);
        let mut after = before.clone();
        after.add_shard(4);
        let mut moved = 0u32;
        const KEYS: u64 = 4096;
        for key in 0..KEYS {
            let was = before.lookup(key);
            let now = after.lookup(key);
            if was != now {
                assert_eq!(now, 4, "moved keys must land on the new shard");
                moved += 1;
            }
        }
        let frac = moved as f64 / KEYS as f64;
        // Ideal steal is 1/5 = 0.2.
        assert!(
            frac > 0.08 && frac < 0.35,
            "steal fraction {frac} out of bounds"
        );
    }

    #[test]
    fn excluding_lookup_avoids_the_excluded_shard() {
        let ring = ConsistentHashRing::new(4, 32);
        for key in 0..512u64 {
            let owner = ring.lookup(key);
            let alt = ring.lookup_excluding(key, owner);
            assert_ne!(alt, owner);
        }
        // Degenerate single-shard ring falls back to the excluded shard.
        let one = ConsistentHashRing::new(1, 8);
        assert_eq!(one.lookup_excluding(9, 0), 0);
    }

    #[test]
    fn kinds_serialize_round_trip() {
        for kind in BalancerKind::ALL {
            let json = serde_json::to_string(&kind).expect("serialize");
            let back: BalancerKind = serde_json::from_str(&json).expect("parse");
            assert_eq!(kind, back);
        }
    }
}
