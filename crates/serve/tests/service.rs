//! End-to-end tests of the resilient serving layer: shedding, deadlines,
//! retries, breaker trip/recovery, panic isolation, and shutdown drain.

use std::sync::Arc;
use std::time::Duration;

use iiu_core::{CpuSearchEngine, Degradation, Query, SearchEngine};
use iiu_index::InvertedIndex;
use iiu_serve::{
    BreakerConfig, BreakerState, FaultPlan, QueryService, Rejected, RetryPolicy, ServeConfig,
};
use iiu_workloads::{CorpusConfig, QuerySampler};

fn tiny_index(seed: u64) -> InvertedIndex {
    let cfg = CorpusConfig { n_docs: 400, n_terms: 120, ..CorpusConfig::tiny(seed) };
    cfg.generate().into_default_index()
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(10),
        retry: RetryPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(500),
            ..RetryPolicy::default()
        },
        ..ServeConfig::default()
    }
}

#[test]
fn clean_queries_match_cpu_engine() {
    let index = Arc::new(tiny_index(0xA11CE));
    let svc = QueryService::start(Arc::clone(&index), quick_config());
    let mut sampler = QuerySampler::new(&index, 7);
    let mut cpu = CpuSearchEngine::new(&index);
    for (a, b) in sampler.pair_queries(6) {
        let q = Query::and(Query::term(&a), Query::term(&b));
        let served = svc.search_blocking(q.clone(), 10).expect("serving failed");
        let direct = cpu.search(&q, 10).expect("cpu search failed");
        assert_eq!(served.hits, direct.hits, "hits diverge for {a} AND {b}");
        assert!(served.degraded.is_empty(), "unexpected degradation: {:?}", served.degraded);
    }
    let h = svc.health();
    assert_eq!(h.submitted, 6);
    assert_eq!(h.completed, 6);
    assert_eq!(h.breaker, BreakerState::Closed);
    assert!(h.p50.is_some() && h.p99.is_some());
}

#[test]
fn unknown_terms_degrade_identically_to_cpu() {
    let index = Arc::new(tiny_index(0xBEE));
    let svc = QueryService::start(Arc::clone(&index), quick_config());
    let mut cpu = CpuSearchEngine::new(&index);
    let q = Query::or(Query::term("zzznotaterm"), Query::term(term_of(&index, 3)));
    let served = svc.search_blocking(q.clone(), 10).expect("serving failed");
    let direct = cpu.search(&q, 10).expect("cpu search failed");
    assert_eq!(served.hits, direct.hits);
    assert_eq!(served.degraded, direct.degraded);
    assert!(served
        .degraded
        .iter()
        .any(|d| matches!(d, Degradation::UnknownTermDropped { .. })));
}

fn term_of(index: &InvertedIndex, id: u32) -> &str {
    &index.term_info(id).term
}

#[test]
fn zero_deadline_is_shed_with_stage() {
    let index = Arc::new(tiny_index(0xD0));
    let cfg = ServeConfig { default_deadline: Duration::ZERO, ..quick_config() };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 0));
    match svc.search_blocking(q, 10) {
        Err(Rejected::DeadlineExceeded { stage }) => {
            assert!(!stage.is_empty());
        }
        other => panic!("expected deadline rejection, got {other:?}"),
    }
    assert_eq!(svc.health().shed_deadline, 1);
}

#[test]
fn overload_sheds_typed_rejections() {
    let index = Arc::new(tiny_index(0x10AD));
    // One worker pinned down by retry backoff (the whole burst stalls
    // every attempt), a 2-deep queue: the burst of submissions must shed.
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        default_deadline: Duration::from_secs(30),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(40),
            max_backoff: Duration::from_millis(80),
            jitter: 0.0,
        },
        fault: FaultPlan { burst: Some((0, 64)), ..FaultPlan::NONE },
        ..ServeConfig::default()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 0));
    let mut pending = Vec::new();
    let mut shed = 0usize;
    for _ in 0..16 {
        match svc.submit(q.clone(), 5) {
            Ok(p) => pending.push(p),
            Err(Rejected::Overloaded { queue_depth }) => {
                assert_eq!(queue_depth, 2);
                shed += 1;
            }
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    assert!(shed >= 8, "only {shed}/16 shed with a 2-deep queue and a pinned worker");
    for p in pending {
        // Burst-sabotaged queries exhaust retries and fall back to CPU.
        let resp = p.wait().expect("admitted queries must still resolve");
        assert!(resp.degraded.iter().any(|d| matches!(d, Degradation::CpuFallback { .. })));
    }
    let h = svc.health();
    assert_eq!(h.shed_overload, shed as u64);
    assert_eq!(h.submitted, 16);
    assert_eq!(h.degraded_ok + h.shed_overload, 16);
}

#[test]
fn sharded_fallback_serves_identical_hits_and_reports_shard_stats() {
    let index = Arc::new(tiny_index(0x5AAD));
    // Every device attempt of every query is sabotaged, so each query
    // exhausts retries and lands on the CPU fallback — which here fans
    // out across 3 document shards.
    let cfg = ServeConfig {
        shards: 3,
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(100),
            jitter: 0.0,
        },
        fault: FaultPlan { burst: Some((0, 1024)), ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let mut cpu = CpuSearchEngine::new(&index);
    let mut sampler = QuerySampler::new(&index, 21);
    let mut expected_candidates = 0u64;
    for (a, b) in sampler.pair_queries(5) {
        for q in [
            Query::term(a.clone()),
            Query::and(Query::term(&a), Query::term(&b)),
            Query::or(Query::term(&a), Query::term(&b)),
        ] {
            let served = svc.search_blocking(q.clone(), 10).expect("fallback should serve");
            let direct = cpu.search(&q, 10).expect("cpu search failed");
            assert_eq!(served.hits, direct.hits, "sharded fallback diverges for {q}");
            assert!(
                served.degraded.iter().any(|d| matches!(d, Degradation::CpuFallback { .. })),
                "expected a fallback tag: {:?}",
                served.degraded
            );
            expected_candidates += served.candidates;
        }
    }
    let h = svc.health();
    assert_eq!(h.cpu_fallbacks, 15);
    assert_eq!(h.shards, 3);
    assert_eq!(h.shard_docs_scored.len(), 3, "one load counter per shard");
    assert!(
        h.shard_docs_scored.iter().all(|&d| d > 0),
        "every shard should have scored documents: {:?}",
        h.shard_docs_scored
    );
    // The fallback path keeps (not drops) the CPU outcome's accounting.
    assert_eq!(h.fallback_candidates, expected_candidates);
    assert!(h.fallback_modeled_ns > 0);
    assert!(h.to_string().contains("shards=3"));
}

#[test]
fn unsharded_fallback_still_records_its_work() {
    let index = Arc::new(tiny_index(0x5AAE));
    let cfg = ServeConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(100),
            jitter: 0.0,
        },
        fault: FaultPlan { burst: Some((0, 1024)), ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 2));
    let served = svc.search_blocking(q, 10).expect("fallback should serve");
    let h = svc.health();
    assert_eq!(h.shards, 1);
    assert!(h.shard_docs_scored.is_empty());
    assert_eq!(h.fallback_candidates, served.candidates);
    assert!(h.fallback_candidates > 0, "fallback work accounting was dropped");
}

#[test]
fn transient_stall_is_retried_and_tagged() {
    let index = Arc::new(tiny_index(0x7E57));
    // stall_rate 1.0 sabotages exactly the first attempt of every query;
    // the retry runs clean and must succeed with bit-identical hits.
    let cfg = ServeConfig {
        fault: FaultPlan { stall_rate: 1.0, seed: 9, ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let mut cpu = CpuSearchEngine::new(&index);
    let q = Query::term(term_of(&index, 1));
    let served = svc.search_blocking(q.clone(), 10).expect("retry should recover");
    let direct = cpu.search(&q, 10).expect("cpu search failed");
    assert_eq!(served.hits, direct.hits);
    assert!(
        served.degraded.contains(&Degradation::Retried { attempts: 2 }),
        "missing retry tag: {:?}",
        served.degraded
    );
    let h = svc.health();
    assert_eq!(h.retries, 1);
    assert_eq!(h.degraded_ok, 1);
    assert_eq!(h.cpu_fallbacks, 0, "retry must recover without falling back");
}

#[test]
fn breaker_trips_then_recovers() {
    let index = Arc::new(tiny_index(0xB12));
    // Single worker for a deterministic seq → outcome order. Queries
    // 0..3 stall on every attempt (retries disabled), tripping the
    // 3-failure breaker; later queries find a healed device.
    let cfg = ServeConfig {
        workers: 1,
        default_deadline: Duration::from_secs(30),
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(20),
            probe_successes: 2,
        },
        fault: FaultPlan { burst: Some((0, 3)), ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 2));

    for _ in 0..3 {
        let resp = svc.search_blocking(q.clone(), 10).expect("fallback answers");
        assert!(resp.degraded.iter().any(|d| matches!(d, Degradation::CpuFallback { .. })));
    }
    assert_eq!(svc.health().breaker, BreakerState::Open);
    assert_eq!(svc.health().breaker_trips, 1);

    // While open (cooldown not elapsed), queries take the CPU with the
    // breaker-open reason.
    let resp = svc.search_blocking(q.clone(), 10).expect("open breaker still answers");
    assert!(resp.degraded.iter().any(|d| matches!(
        d,
        Degradation::CpuFallback { reason } if reason.contains("breaker")
    )));

    // After the cooldown, probes run on the healed device and close the
    // breaker again.
    std::thread::sleep(Duration::from_millis(30));
    let mut recovered = false;
    for _ in 0..8 {
        let resp = svc.search_blocking(q.clone(), 10).expect("probing answers");
        if resp.degraded.is_empty() {
            recovered = true;
        }
    }
    assert!(recovered, "device path never served again after cooldown");
    let h = svc.health();
    assert_eq!(h.breaker, BreakerState::Closed);
    assert!(h.breaker_recoveries >= 1);
    assert_eq!(h.panicked, 0);
}

#[test]
fn injected_panic_is_isolated_and_falls_back() {
    // Keep the intentional panic's backtrace out of the test output;
    // real panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or("");
        if !msg.contains("injected panic fault") {
            default_hook(info);
        }
    }));
    let index = Arc::new(tiny_index(0xFA11));
    let cfg = ServeConfig {
        workers: 1,
        fault: FaultPlan { panic_burst: Some((0, 1)), ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 0));

    let resp = svc.search_blocking(q.clone(), 10).expect("panic must not kill query");
    assert!(resp.degraded.iter().any(|d| matches!(
        d,
        Degradation::CpuFallback { reason } if reason.contains("panicked")
    )));

    // The worker survived and serves the next query cleanly.
    let resp = svc.search_blocking(q, 10).expect("worker must survive the panic");
    assert!(resp.degraded.is_empty(), "{:?}", resp.degraded);
    let h = svc.health();
    assert_eq!(h.panicked, 1);
    assert_eq!(h.completed, 1);
    assert_eq!(h.degraded_ok, 1);
}

#[test]
fn shutdown_drains_admitted_queries_and_rejects_new_ones() {
    let index = Arc::new(tiny_index(0x5D));
    let mut svc = QueryService::start(Arc::clone(&index), quick_config());
    let q = Query::term(term_of(&index, 0));
    let pending: Vec<_> =
        (0..8).map(|_| svc.submit(q.clone(), 5).expect("admission")).collect();
    svc.shutdown();
    assert!(matches!(svc.submit(q, 5), Err(Rejected::ShuttingDown)));
    for p in pending {
        p.wait().expect("admitted before shutdown, must be drained");
    }
    let h = svc.health();
    assert_eq!(h.completed, 8);
}

#[test]
fn shutdown_never_loses_the_wakeup_race() {
    // Regression test for a lost-wakeup deadlock: a worker that had just
    // observed `shutdown == false` under the queue lock but had not yet
    // parked on the condvar would miss an unlocked store + notify_all and
    // park forever, hanging shutdown() on the join (seen in the wild as a
    // soak run wedged with one worker futex-parked). The window is a few
    // instructions wide, so this churn is a best-effort canary, not a
    // reliable reproducer; the real guarantee is the lock discipline in
    // shutdown() (flag flipped under the queue lock).
    let index = Arc::new(tiny_index(0xAA));
    let q = Query::term(term_of(&index, 0));
    for i in 0..400 {
        let cfg = ServeConfig { workers: 4, ..quick_config() };
        let mut svc = QueryService::start(Arc::clone(&index), cfg);
        // Every few iterations run a real query so some workers race from
        // the serve path back to the park point instead of from spawn.
        let pending = (i % 4 == 0).then(|| svc.submit(q.clone(), 3).expect("admission"));
        svc.shutdown();
        if let Some(p) = pending {
            p.wait().expect("admitted before shutdown, must be drained");
        }
    }
}

#[test]
fn wedged_shard_task_degrades_instead_of_hanging() {
    // Regression test for the fan-out deadline policy: a shard task that
    // stalls past the pool deadline must resolve as a partial answer
    // carrying Degradation::ShardsUnavailable — never hang the query or
    // the service. Chaos stalls half of all (seq, shard) executions for
    // 5x the fan-out deadline, so the stream mixes clean fan-outs,
    // one-shard wedges (partial answers), and total wedges (rescued by
    // the unsharded engine). All of them must answer, in bounded time.
    let index = Arc::new(tiny_index(0x3ED6ED));
    let cfg = ServeConfig {
        shards: 2,
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        fault: FaultPlan { burst: Some((0, u64::MAX)), ..FaultPlan::NONE },
        shard_pool: iiu_serve::ShardPoolConfig {
            deadline: Some(Duration::from_millis(40)),
            ..iiu_serve::ShardPoolConfig::default()
        },
        shard_chaos: iiu_serve::ShardChaosPlan {
            stall_rate: 0.5,
            stall: Duration::from_millis(200),
            seed: 0xC0FFEE,
            ..iiu_serve::ShardChaosPlan::NONE
        },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let started = std::time::Instant::now();
    let mut partials = 0u64;
    for id in 0..12u32 {
        let q = Query::term(term_of(&index, id));
        let resp = svc.search_blocking(q, 10).expect("fail-soft serving must answer");
        if resp.degraded.iter().any(|d| matches!(d, Degradation::ShardsUnavailable { .. })) {
            partials += 1;
        }
        // Let a stalled task finish sleeping so its shard drains and the
        // next query exercises a fresh wedge instead of piling onto a
        // shard already marked wedged (which resolves as a rescue, not a
        // partial).
        std::thread::sleep(Duration::from_millis(220));
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "wedged shard tasks must not stack into a hang"
    );
    let h = svc.health();
    assert!(partials > 0, "the stall plan should wedge at least one single shard");
    assert_eq!(h.shard_partials, partials);
    assert_eq!(h.answered(), 12, "every query answers despite wedged tasks");
}

#[test]
fn hybrid_scheduler_routes_by_cost_and_stays_bit_identical() {
    let index = Arc::new(tiny_index(0x11B71D));
    // Pick the rarest and the most common term, then set the heavy
    // threshold between them so the scheduler must use both routes.
    let df_of = |id: u32| index.term_info(id).df;
    let ids: Vec<u32> = (0..index.num_terms() as u32).collect();
    let rare = *ids.iter().min_by_key(|&&i| df_of(i)).expect("nonempty dictionary");
    let common = *ids.iter().max_by_key(|&&i| df_of(i)).expect("nonempty dictionary");
    assert!(df_of(rare) < df_of(common), "corpus must have df spread");
    let cfg = ServeConfig {
        shards: 2,
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        fault: FaultPlan { burst: Some((0, u64::MAX)), ..FaultPlan::NONE },
        scheduler: iiu_serve::SchedulerConfig {
            hybrid: true,
            heavy_df_threshold: df_of(common),
            ..iiu_serve::SchedulerConfig::default()
        },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let mut cpu = CpuSearchEngine::new(&index);
    let (rare, common) =
        (term_of(&index, rare).to_string(), term_of(&index, common).to_string());
    let queries = [
        Query::term(&rare),                                   // inline
        Query::term(&common),                                 // fan-out
        Query::and(Query::term(&rare), Query::term(&common)), // fan-out (longest list)
        Query::or(Query::term(&rare), Query::term(&common)),  // fan-out
    ];
    for q in queries {
        let served = svc.search_blocking(q.clone(), 10).expect("fallback should serve");
        let direct = cpu.search(&q, 10).expect("cpu search failed");
        assert_eq!(served.hits, direct.hits, "hybrid routing changed hits for {q}");
    }
    let h = svc.health();
    assert_eq!(h.sched_inline, 1, "the rare query routes inter-query");
    assert_eq!(h.sched_fanout, 3, "heavy-list queries route intra-query");
    assert_eq!(h.sched_inline + h.sched_fanout, h.cpu_fallbacks);
}

/// A hybrid two-shard service whose every query counts as heavy, with the
/// device path sabotaged so each one runs the sharded CPU path.
fn all_heavy_config(
    pool_threads: usize,
    shard_chaos: iiu_serve::ShardChaosPlan,
) -> ServeConfig {
    ServeConfig {
        workers: 2,
        shards: 2,
        shard_pool: iiu_serve::ShardPoolConfig {
            pool_threads,
            ..iiu_serve::ShardPoolConfig::default()
        },
        shard_chaos,
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        fault: FaultPlan { burst: Some((0, u64::MAX)), ..FaultPlan::NONE },
        scheduler: iiu_serve::SchedulerConfig {
            hybrid: true,
            heavy_df_threshold: 1,
            ..iiu_serve::SchedulerConfig::default()
        },
        ..quick_config()
    }
}

#[test]
fn heavy_queries_run_inline_while_a_fan_out_holds_the_pool() {
    let index = Arc::new(tiny_index(0x1A4E5));
    // Every shard task sleeps, so a fanned-out query holds both lanes of
    // the two-thread pool for the whole stall.
    let stall = iiu_serve::ShardChaosPlan {
        stall_rate: 1.0,
        stall: Duration::from_millis(500),
        ..iiu_serve::ShardChaosPlan::NONE
    };
    let svc = QueryService::start(Arc::clone(&index), all_heavy_config(2, stall));
    let mut cpu = CpuSearchEngine::new(&index);
    let mut check = |q: &Query, resp: iiu_core::SearchResponse| {
        assert_eq!(resp.hits, cpu.search(q, 10).expect("cpu search failed").hits, "{q}");
    };
    let queries: Vec<Query> = (0..3).map(|id| Query::term(term_of(&index, id))).collect();

    let first = svc.submit(queries[0].clone(), 10).expect("admitted");
    let waiting_since = std::time::Instant::now();
    while svc.health().lanes_in_use < 2 {
        assert!(
            waiting_since.elapsed() < Duration::from_secs(5),
            "first query never fanned out"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The pool is full: the second heavy query answers inline, long
    // before the stalled fan-out returns.
    check(&queries[1], svc.search_blocking(queries[1].clone(), 10).expect("inline answer"));
    let h = svc.health();
    assert_eq!((h.sched_fanout, h.sched_inline, h.sched_deferred), (1, 1, 1), "{h}");
    assert_eq!(h.lanes_in_use, 2, "the fan-out still holds its lanes: {h}");

    check(&queries[0], first.wait().expect("stalled fan-out completes"));
    // Idle again: the next heavy query fans out.
    check(&queries[2], svc.search_blocking(queries[2].clone(), 10).expect("fan-out answer"));
    let h = svc.health();
    assert_eq!((h.sched_fanout, h.sched_inline, h.sched_deferred), (2, 1, 1), "{h}");
    assert_eq!(h.sched_inline + h.sched_fanout, h.cpu_fallbacks);
    assert_eq!((h.lanes_in_use, h.lanes_peak), (0, 3), "{h}");
}

#[test]
fn racing_heavy_queries_never_overfill_the_lanes() {
    // Shard panics fail the fan-out closed; the unsharded rescue answers,
    // so every reply is the full ranking.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or("");
        if !msg.contains("injected shard panic") {
            default_hook(info);
        }
    }));
    let index = Arc::new(tiny_index(0x7ACE));
    let panics = iiu_serve::ShardChaosPlan {
        panic_rate: 0.3,
        seed: 0x7ACE,
        ..iiu_serve::ShardChaosPlan::NONE
    };
    // Capacity max(3 pool threads, 2 shards) = 3: one two-lane fan-out
    // beside the other worker's inline query fits, two fan-outs do not.
    let cfg = ServeConfig { fail_closed_shards: true, ..all_heavy_config(3, panics) };
    let mut svc = QueryService::start(Arc::clone(&index), cfg);
    let mut cpu = CpuSearchEngine::new(&index);
    let queries: Vec<(Query, Vec<iiu_core::Hit>)> = (0..16)
        .map(|id| {
            let q = Query::term(term_of(&index, id));
            let hits = cpu.search(&q, 10).expect("cpu search failed").hits;
            (q, hits)
        })
        .collect();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 40;
    let start = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (svc, queries, start) = (&svc, &queries, &start);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    start.wait();
                    let (q, expect) = &queries[(c * ROUNDS + r) % queries.len()];
                    let resp =
                        svc.search_blocking(q.clone(), 10).expect("every query answers");
                    assert_eq!(&resp.hits, expect, "{q}");
                }
            });
        }
    });
    svc.shutdown();
    let h = svc.health();
    assert_eq!(h.answered(), (CLIENTS * ROUNDS) as u64, "{h}");
    assert!(h.sched_fanout >= 1 && h.shard_rescues >= 1, "no fan-out hit a shard panic: {h}");
    assert_eq!(h.sched_inline + h.sched_fanout, h.cpu_fallbacks, "{h}");
    assert!(h.sched_deferred <= h.sched_inline, "{h}");
    assert!(h.lanes_peak <= 3, "lanes overfilled: {h}");
    assert_eq!(h.lanes_in_use, 0, "lanes leaked after the drain: {h}");
}
