//! Per-query parallelism routing: the paper's §4.4 hybrid scheduling.
//!
//! A sharded CPU path has two ways to spend its pool: **intra-query**
//! (one query fans across every shard, minimizing that query's latency)
//! and **inter-query** (each query stays on one execution lane,
//! maximizing concurrent throughput). Fan-out is not free — every shard
//! task pays enqueue, wakeup, and merge overhead — so below a certain
//! postings volume the fan-out tax exceeds the parallel speedup and a
//! query is better served inline.
//!
//! The router prices a query from document frequencies alone
//! ([`iiu_core::estimate_query_cost`]: O(terms) dictionary reads, never a
//! postings list) and compares the longest list against
//! [`SchedulerConfig::heavy_df_threshold`]. The default threshold is
//! [`iiu_core::HEAVY_DF_THRESHOLD`], the `shard_bench` calibration point
//! where the 4-shard scaling gate measures its speedup. [`route`] is the
//! cost half of the decision only.
//!
//! The load half is `Lanes`: the service counts the CPU lanes its
//! fallback queries occupy — 1 for an inline query, one per shard for a
//! fan-out — and a heavy query fans out only if it can reserve its
//! shards' lanes within a capacity of `max(pool threads, shards)`.
//! A lone heavy query therefore always fans out (the paper's latency
//! mode); when the CPUs are already busy it runs inline, where it costs
//! less CPU. Measured on a 2-vCPU VM (`heavy_mixed_heap`, seed 1):
//! fanned-out queries took more CPU than the same queries inline (AND
//! 161 vs 121 µs, OR 299 vs 179 µs, trees 180 vs 110 µs) because the
//! shard tasks mostly ran one after the other, so fanning out 66% of the
//! queries regardless of load ran them at 0.56x inline speed.

use std::sync::atomic::{AtomicUsize, Ordering};

use iiu_core::{estimate_query_cost, InvertedIndex, Query, QueryCostEstimate};

use crate::config::SchedulerConfig;

/// How one query should spend the sharded CPU path's parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelismMode {
    /// Answer on the calling worker against the unsharded index: no
    /// fan-out tax, and the shard pool stays free for heavy queries.
    InterQuery,
    /// Fan out across every shard of the pool (the fixed topology's
    /// only mode).
    IntraQuery,
}

/// The routing decision plus the estimate that produced it, so
/// operators and benches can audit why a query ran where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Where the query runs.
    pub mode: ParallelismMode,
    /// The df-derived cost estimate behind the decision.
    pub estimate: QueryCostEstimate,
}

/// Routes `query` under `cfg` by cost alone. With `cfg.hybrid` off this
/// is the fixed topology: every query fans out. With it on, only queries
/// whose longest postings list reaches `cfg.heavy_df_threshold`
/// documents are classed for fan-out; the rest run inline. The service
/// further runs an `IntraQuery` query inline when `Lanes` has no room
/// for its fan-out. Either way the hits are bit-identical — only the
/// work placement changes.
pub fn route(index: &InvertedIndex, query: &Query, cfg: &SchedulerConfig) -> RouteDecision {
    let estimate = estimate_query_cost(index, &query.terms());
    let mode = if !cfg.hybrid || estimate.is_heavy(cfg.heavy_df_threshold) {
        ParallelismMode::IntraQuery
    } else {
        ParallelismMode::InterQuery
    };
    RouteDecision { mode, estimate }
}

/// Occupancy of the CPU lanes the sharded fallback path runs on: an
/// inline query holds 1 lane, a fanned-out query one per shard, and a
/// [`LaneGuard`] gives them back when it drops — on every exit,
/// unwinding included.
///
/// The counter publishes no other data, so its atomics are `Relaxed`:
/// the bound on reservations comes from the compare-exchange itself.
#[derive(Debug)]
pub(crate) struct Lanes {
    in_use: AtomicUsize,
    peak: AtomicUsize,
    capacity: usize,
}

impl Lanes {
    /// An idle lane set; fan-outs may fill it up to `capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        Lanes { in_use: AtomicUsize::new(0), peak: AtomicUsize::new(0), capacity }
    }

    /// Takes `n` lanes if, counting them, no more than the capacity is in
    /// use; `None` leaves the count untouched.
    pub(crate) fn try_reserve(&self, n: usize) -> Option<LaneGuard<'_>> {
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = cur.checked_add(n).filter(|&next| next <= self.capacity)?;
            match self.in_use.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(self.guard(next, n)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Takes `n` lanes whatever the occupancy: work that runs anyway
    /// (an inline query, a fixed-topology fan-out) still counts.
    pub(crate) fn hold(&self, n: usize) -> LaneGuard<'_> {
        let next = self.in_use.fetch_add(n, Ordering::Relaxed) + n;
        self.guard(next, n)
    }

    fn guard(&self, now: usize, n: usize) -> LaneGuard<'_> {
        if now > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
        LaneGuard { lanes: self, n }
    }

    /// Lanes held right now.
    pub(crate) fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// The most lanes ever held at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Lanes taken from a [`Lanes`] set, returned on drop.
#[derive(Debug)]
pub(crate) struct LaneGuard<'a> {
    lanes: &'a Lanes,
    n: usize,
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        self.lanes.in_use.fetch_sub(self.n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_index() -> InvertedIndex {
        let mut b = iiu_index::IndexBuilder::new(iiu_index::BuildOptions::default());
        for i in 0..128 {
            // "common" in every doc, "rare" in one.
            let rare = if i == 0 { " rare" } else { "" };
            b.add_document(&format!("common filler{i}{rare}"));
        }
        b.build()
    }

    #[test]
    fn fixed_topology_always_fans_out() {
        let idx = tiny_index();
        let cfg =
            SchedulerConfig { hybrid: false, heavy_df_threshold: 1, ..Default::default() };
        for text in ["rare", "common", "rare AND common"] {
            let q = Query::parse(text).unwrap();
            assert_eq!(route(&idx, &q, &cfg).mode, ParallelismMode::IntraQuery, "{text}");
        }
    }

    #[test]
    fn hybrid_routes_by_longest_list() {
        let idx = tiny_index();
        let cfg =
            SchedulerConfig { hybrid: true, heavy_df_threshold: 100, ..Default::default() };
        let rare = Query::parse("rare").unwrap();
        let common = Query::parse("common").unwrap();
        let mixed = Query::parse("rare AND common").unwrap();

        let d = route(&idx, &rare, &cfg);
        assert_eq!(d.mode, ParallelismMode::InterQuery);
        assert_eq!(d.estimate.max_list_postings, 1);

        let d = route(&idx, &common, &cfg);
        assert_eq!(d.mode, ParallelismMode::IntraQuery);
        assert_eq!(d.estimate.max_list_postings, 128);

        // One heavy list anywhere in the query is enough: the longest
        // list bounds the slowest shard task.
        assert_eq!(route(&idx, &mixed, &cfg).mode, ParallelismMode::IntraQuery);
    }

    #[test]
    fn unknown_terms_are_cheap() {
        let idx = tiny_index();
        let cfg =
            SchedulerConfig { hybrid: true, heavy_df_threshold: 1, ..Default::default() };
        let q = Query::parse("zzzneverindexed").unwrap();
        let d = route(&idx, &q, &cfg);
        assert_eq!(d.mode, ParallelismMode::InterQuery);
        assert_eq!(d.estimate.resolved_terms, 0);
    }

    #[test]
    fn fan_outs_fit_within_capacity_and_guards_release_on_panic() {
        let lanes = Lanes::new(3);
        let inline = lanes.hold(1);
        let fan_out = lanes.try_reserve(2).expect("1 + 2 lanes fit in 3");
        assert!(lanes.try_reserve(2).is_none(), "a second fan-out would need 5 lanes");
        assert_eq!(lanes.in_use(), 3, "a refused reservation takes nothing");
        let over = lanes.hold(1);
        assert_eq!((lanes.in_use(), lanes.peak()), (4, 4), "inline work always counts");
        drop((inline, fan_out, over));
        let unwound = std::panic::catch_unwind(|| {
            let _held = lanes.try_reserve(3).expect("an idle set fits 3");
            panic!("query panicked while holding its lanes");
        });
        assert!(unwound.is_err());
        assert_eq!(lanes.in_use(), 0, "unwinding released the lanes");
    }
}
