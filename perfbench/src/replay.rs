//! The traced run: the same generated inputs, replayed through the
//! public functions of each layer with a span around every call.
//!
//! Spans are recorded here, around calls into the program, never inside
//! it. Per-layer numbers come from span durations and from the counts
//! the calls return; end-to-end numbers always come from the untraced
//! run. The traced run reports its own overhead as the closed-loop rate
//! with client spans against the rate without, on the same queries.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use iiu_baseline::ops::{intersect_svs, union_merge};
use iiu_baseline::topk::top_k;
use iiu_baseline::{CpuEngine, DecodeScratch, OpCounts};
use iiu_core::{
    CpuSearchEngine, Hit, InvertedIndex, LiveIndex, Query, SearchEngine, ShardedIndex,
    ShardedSearchEngine,
};
use iiu_index::score::term_score_fixed;
use iiu_index::{Fixed, IncrementalOptions};
use iiu_serve::scheduler::{route, ParallelismMode};
use iiu_serve::QueryService;

use crate::deploy;
use crate::inputs::{self, hits_digest, DocFeed, Shape, Stream, Workload, K};
use crate::metrics::{json_str, Report};
use crate::stats::{median, percentile, Tally};
use crate::trace::{self_times, Tracer};

/// Queries replayed through the layers (and offered in each overhead
/// pass): enough for stable medians in a few seconds.
fn sample_size(workload: Workload) -> usize {
    match workload {
        Workload::HeavyMixedHeap => 3_000,
        _ => 20_000,
    }
}

/// Untraced and traced closed-loop passes, alternated, for the overhead.
const OVERHEAD_PASSES: usize = 3;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Sorted durations (ns) of every span named `name`.
fn durations(tracer: &Tracer, name: &str) -> Vec<u64> {
    let mut d: Vec<u64> =
        tracer.spans().iter().filter(|s| s.name == name).map(|s| s.duration_ns()).collect();
    d.sort_unstable();
    d
}

/// Median duration of spans named `name`, scaled by `scale` ns per unit.
fn median_of(tracer: &Tracer, name: &str, scale: f64) -> (Option<f64>, u64) {
    let d = durations(tracer, name);
    (percentile(&d, 0.5).map(|v| v as f64 / scale), d.len() as u64)
}

/// Runs the traced replay of `workload` on the inputs in `dir`.
///
/// # Errors
///
/// Returns an error when the inputs cannot be read or the trace cannot
/// be written.
pub fn run(workload: Workload, dir: &Path) -> Result<bool, String> {
    let stream = Stream::load(dir).map_err(|e| format!("reading the query stream: {e}"))?;
    let mut tracer = Tracer::new(Instant::now());
    let mut report = Report::default();
    let mut tally = Tally::default();
    let sample = sample_size(workload).min(stream.len());
    let n = deploy::nproc();

    let (client_p50, inline_p50) = if workload.is_static() {
        let corpus = inputs::read_corpus(&dir.join(inputs::CORPUS_FILE))
            .map_err(|e| format!("reading corpus: {e}"))?;
        let svc = deploy::setup_static(
            workload,
            corpus,
            &dir.join("index-trace.iiu"),
            Some(&mut tracer),
        );
        for (span, metric) in [
            ("index.build", "index.build_s"),
            ("index.write", "index.write_s"),
            ("index.open", "index.open_s"),
            ("serve.start", "serve.start_s"),
        ] {
            report.add(metric, durations(&tracer, span).first().map(|&d| secs(d)), "s", 1);
        }
        let split = tracer.time("index.split", 0, None, || ShardedIndex::split(&svc.index, n));
        drop(split.map_err(|e| format!("splitting shards: {e}"))?);
        report.add(
            "index.split_s",
            durations(&tracer, "index.split").first().map(|&d| secs(d)),
            "s",
            1,
        );

        let client_p50 = service_part(
            &svc.service,
            &stream,
            sample,
            Vec::new(),
            &mut tracer,
            &mut report,
            &mut tally,
        );
        let mut svc = svc;
        svc.service.shutdown();
        let fanout = ShardedSearchEngine::split(&svc.index, n)
            .map_err(|e| format!("splitting shards: {e}"))?
            .with_pruning(true);
        layer_replay(
            &svc.index,
            &stream,
            sample,
            Some(&fanout),
            &mut tracer,
            &mut report,
            &mut tally,
        );
        let (all, _) = search_durations(&tracer);
        (client_p50, percentile(&all, 0.5))
    } else {
        live_part(dir, &stream, sample, &mut tracer, &mut report, &mut tally)?
    };
    let overhead = match (client_p50, inline_p50) {
        (Some(c), Some(i)) => Some((c as f64 - i as f64) / 1e3),
        _ => None,
    };
    report.add_with_base(
        "serve.overhead_us",
        overhead,
        "us",
        sample as u64,
        Some("untraced client p50 - inline engine p50, same queries".into()),
    );

    let trace_file = dir.join("trace.tsv");
    tracer.write_tsv(&trace_file).map_err(|e| format!("writing spans: {e}"))?;
    println!(
        "spans of {} ({} recorded, written to trace.tsv):",
        workload.name(),
        tracer.spans().len()
    );
    print!("{}", span_summary(&tracer));
    report.fact("workload", json_str(workload.name()));
    report.fact("nproc", n.to_string());
    report.fact("replayed_queries", sample.to_string());
    println!("trace {}:", workload.name());
    print!("{}", report.text());
    let correct = tally.failed == 0;
    println!(
        "RESULT {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"report\": {}}}",
        tally.attempted,
        tally.failed,
        report.json()
    );
    Ok(correct)
}

/// Per span name: count, total and self time, median duration.
fn span_summary(tracer: &Tracer) -> String {
    let selfs = self_times(tracer.spans());
    let mut names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = format!(
        "  {:<28} {:>9} {:>12} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms", "p50_us"
    );
    for name in names {
        let (mut total, mut own) = (0u64, 0u64);
        for (s, &own_ns) in tracer.spans().iter().zip(&selfs).filter(|(s, _)| s.name == name) {
            total += s.duration_ns();
            own += own_ns;
        }
        let d = durations(tracer, name);
        out.push_str(&format!(
            "  {name:<28} {:>9} {:>12.3} {:>12.3} {:>12.3}\n",
            d.len(),
            total as f64 / 1e6,
            own as f64 / 1e6,
            percentile(&d, 0.5).unwrap_or(0) as f64 / 1e3
        ));
    }
    out
}

/// The service layer: untraced and traced closed-loop passes over the
/// first `len` queries, alternated, then the service's own histogram
/// against the exact client latencies it saw (`prior` holds those of
/// answers given before this call). Returns the untraced client p50 (ns).
fn service_part(
    service: &QueryService,
    stream: &Stream,
    len: usize,
    prior: Vec<u64>,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Option<u64> {
    let n = deploy::nproc();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut plain_lat = Vec::new();
    let mut all = prior;
    for _ in 0..OVERHEAD_PASSES {
        let r = deploy::closed_loop(service, stream, true, 0..len, n, None);
        tally.merge(&r.tally);
        plain.push(r.latencies_ns.len() as f64 / r.wall.as_secs_f64());
        all.extend_from_slice(&r.latencies_ns);
        plain_lat.extend(r.latencies_ns);

        let mut clients: Vec<Tracer> = (0..n).map(|_| Tracer::new(tracer.origin())).collect();
        let r = deploy::closed_loop(service, stream, true, 0..len, n, Some(&mut clients));
        tally.merge(&r.tally);
        traced.push(r.latencies_ns.len() as f64 / r.wall.as_secs_f64());
        all.extend(r.latencies_ns);
        for c in clients {
            tracer.absorb(c);
        }
    }
    let (u, t) = (median(&plain), median(&traced));
    let passes = OVERHEAD_PASSES as u64;
    report.add("trace.untraced_qps", u, "queries/s", passes);
    report.add("trace.traced_qps", t, "queries/s", passes);
    report.add_with_base(
        "trace.overhead_frac",
        u.zip(t).map(|(u, t)| 1.0 - t / u),
        "ratio",
        passes,
        Some(format!(
            "1 - traced / untraced closed-loop qps, median of {passes} passes of {len} \
             queries each"
        )),
    );
    let (v, c) = median_of(tracer, "serve.submit", 1.0);
    report.add("serve.submit_ns", v, "ns", c);

    let health = service.health();
    all.sort_unstable();
    let exact = percentile(&all, 0.99).map(|v| v as f64 / 1e3);
    let hist = health.p99.map(|q| q.value.as_secs_f64() * 1e6);
    report.add_with_base(
        "serve.hist_p99_err",
        exact.zip(hist).map(|(e, h)| (h - e) / e),
        "ratio",
        all.len() as u64,
        Some(format!(
            "(HealthSnapshot p99 {} us - exact client p99 {} us) / exact",
            hist.map_or_else(|| "n/a".into(), |h| format!("{h:.1}")),
            exact.map_or_else(|| "n/a".into(), |e| format!("{e:.1}"))
        )),
    );
    let routed = health.sched_inline + health.sched_fanout;
    if routed > 0 {
        report.add_with_base(
            "serve.fanout_frac",
            Some(health.sched_fanout as f64 / routed as f64),
            "ratio",
            routed,
            Some("HealthSnapshot sched_fanout / (sched_inline + sched_fanout)".into()),
        );
    }
    plain_lat.sort_unstable();
    percentile(&plain_lat, 0.5)
}

/// `live_ingest`: traced set-up, the ingest phase with a span around
/// every `LiveIndex::ingest_batch`, the service passes, live searches,
/// the layer replay over the final snapshot, and the reopen. Returns the
/// untraced client p50 and the inline live-search p50 (ns).
fn live_part(
    dir: &Path,
    stream: &Stream,
    sample: usize,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(Option<u64>, Option<u64>), String> {
    let mut feed = DocFeed::open(&dir.join(inputs::DOCS_FILE))
        .map_err(|e| format!("reading documents: {e}"))?;
    let n_docs = feed.len();
    let preload = n_docs / 2;
    let live_dir = dir.join("live-trace");
    std::fs::remove_dir_all(&live_dir).ok();
    let (mut svc, _) = deploy::setup_live(&mut feed, preload, &live_dir, Some(&mut *tracer));
    let live = Arc::clone(svc.live().ok_or("live service has no live index")?);

    // Ingest the other half beside a query client, as the untraced run
    // does, sorting batches by whether the sealed count moved.
    let mut batches: Vec<(u64, bool)> = Vec::new();
    let query_clients = deploy::nproc().saturating_sub(1).max(1);
    let phase = deploy::live_phase(
        &svc,
        |b, batch| {
            let sealed_before = live.doc_counts().0;
            let id = tracer.begin("index.ingest_batch", b, None);
            let acked = live.ingest_batch(batch).is_ok();
            tracer.end(id);
            let sealed = live.doc_counts().0 != sealed_before;
            batches.push((tracer.spans()[id].duration_ns(), sealed));
            acked
        },
        &mut feed,
        n_docs - preload,
        stream,
        query_clients,
        1,
    );
    for w in &phase.windows {
        tally.merge(&w.tally);
    }
    tally.merge(&phase.batches);
    let mut plain: Vec<u64> = batches.iter().filter(|b| !b.1).map(|b| b.0).collect();
    let mut seals: Vec<u64> = batches.iter().filter(|b| b.1).map(|b| b.0).collect();
    plain.sort_unstable();
    seals.sort_unstable();
    let us = |v: Option<u64>| v.map(|v| v as f64 / 1e3);
    report.add("index.ingest_batch_us", us(percentile(&plain, 0.5)), "us", plain.len() as u64);
    report.add("index.seal_batch_us", us(percentile(&seals, 0.5)), "us", seals.len() as u64);
    report.add_with_base(
        "index.seals",
        Some(seals.len() as f64),
        "count",
        batches.len() as u64,
        Some(format!("batches after which doc_counts().0 moved, of {}", batches.len())),
    );

    // Every document is in now, so answers must match the reference.
    let prior: Vec<u64> = phase.windows.into_iter().flat_map(|w| w.latencies_ns).collect();
    let client_p50 = service_part(&svc, stream, sample, prior, tracer, report, tally);
    svc.shutdown();
    drop(svc);

    for i in 0..sample {
        let Ok(q) = tracer.time("core.parse", i as u64, None, || Query::parse(stream.text(i)))
        else {
            tally.record(true, false);
            continue;
        };
        match tracer.time("core.live_search", i as u64, None, || live.search(&q, K)) {
            Ok(r) => tally.record(false, hits_digest(&r.hits) != stream.expected(i)),
            Err(_) => tally.record(true, false),
        }
    }
    let inline = durations(tracer, "core.live_search");
    report.add("core.live_search_us", us(percentile(&inline, 0.5)), "us", inline.len() as u64);

    let snapshot = live.snapshot().map_err(|e| format!("snapshot of the live index: {e}"))?;
    layer_replay(&snapshot, stream, sample, None, tracer, report, tally);
    drop(snapshot);
    drop(live);

    let reopened = tracer.time("index.reopen", 0, None, || {
        LiveIndex::open(&live_dir, IncrementalOptions::default())
    });
    report.add(
        "index.reopen_ms",
        durations(tracer, "index.reopen").first().map(|&d| d as f64 / 1e6),
        "ms",
        1,
    );
    match reopened {
        Ok(r) => tally.record(false, r.num_docs() != preload as u64 + phase.docs_acked),
        Err(_) => tally.record(true, false),
    }
    Ok((client_p50, percentile(&inline, 0.5)))
}

const SEARCH_SPANS: [&str; 4] =
    ["core.search.single", "core.search.and", "core.search.or", "core.search.tree"];

fn search_span(shape: Shape) -> &'static str {
    SEARCH_SPANS[Shape::ALL.iter().position(|&s| s == shape).unwrap_or(3)]
}

/// Sorted durations of every inline engine search, and the count.
fn search_durations(tracer: &Tracer) -> (Vec<u64>, u64) {
    let mut all: Vec<u64> = SEARCH_SPANS.iter().flat_map(|n| durations(tracer, n)).collect();
    all.sort_unstable();
    let n = all.len() as u64;
    (all, n)
}

/// The first `AND`/`OR` node whose children are both terms: the set
/// operation a two-term query is, and the innermost one of a tree.
fn term_pair(q: &Query) -> Option<(bool, &str, &str)> {
    match q {
        Query::And(a, b) | Query::Or(a, b) => match (&**a, &**b) {
            (Query::Term(x), Query::Term(y)) => Some((matches!(q, Query::And(..)), x, y)),
            _ => term_pair(a).or_else(|| term_pair(b)),
        },
        _ => None,
    }
}

/// Totals the replay accumulates across queries.
#[derive(Default)]
struct Totals {
    counts: OpCounts,
    primitive_queries: u64,
    decoded_postings: u64,
    decode_ns: u64,
    setop_postings: u64,
    setop_ns: u64,
    topk_candidates: u64,
    topk_ns: u64,
    measured_ns: u64,
    modeled_ns: f64,
    fanout: Vec<(u64, u64)>,
}

/// Replays the first `sample` queries of `stream` through each layer's
/// public functions over `index`, one span per call, and adds the
/// per-layer metrics. `fanout` is the deployment's sharded engine
/// (static workloads), timed on the queries the scheduler fans out.
fn layer_replay(
    index: &InvertedIndex,
    stream: &Stream,
    sample: usize,
    fanout: Option<&ShardedSearchEngine>,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) {
    let sched = inputs::scheduler_config();
    let mut t = Totals::default();
    let mut buf = Vec::new();
    for i in 0..sample {
        let qid = i as u64;
        let root = Some(tracer.begin("replay.query", qid, None));
        let parsed = tracer.time("core.parse", qid, root, || Query::parse(stream.text(i)));
        let Ok(q) = parsed else {
            tally.record(true, false);
            continue;
        };
        let terms = q.terms();
        let ids: Vec<_> = tracer.time("index.resolve", qid, root, || {
            terms
                .iter()
                .filter_map(|term| index.term_id(term))
                .filter(|&id| index.verify_term(id).is_ok())
                .collect()
        });
        let shape = Shape::of(&q);
        let fans = fanout.is_some()
            && tracer.time("serve.route", qid, root, || route(index, &q, &sched)).mode
                == ParallelismMode::IntraQuery;

        let mut engine = CpuSearchEngine::new(index).with_pruning(true);
        let span = search_span(shape);
        match tracer.time(span, qid, root, || engine.search(&q, K)) {
            Ok(r) => {
                tally.record(false, hits_digest(&r.hits) != stream.expected(i));
                t.measured_ns += tracer.last_duration(span);
                t.modeled_ns += r.latency_ns();
            }
            Err(_) => tally.record(true, false),
        }
        if let (true, Some(engine)) = (fans, fanout) {
            let inline_ns = tracer.last_duration(span);
            match tracer.time("baseline.fanout", qid, root, || engine.search_ref(&q, K)) {
                Ok(r) => {
                    tally.record(false, hits_digest(&r.hits) != stream.expected(i));
                    t.fanout.push((tracer.last_duration("baseline.fanout"), inline_ns));
                }
                Err(_) => tally.record(true, false),
            }
        }
        if ids.len() == terms.len() {
            replay_primitives(index, &q, shape, qid, root, tracer, &mut t, &mut buf);
        }
        if let Some(root) = root {
            tracer.end(root);
        }
    }
    add_layer_metrics(report, tracer, &t);
}

/// The baseline engine, decode, set-operation and top-k calls of one
/// query whose terms all resolve.
#[allow(clippy::too_many_arguments)]
fn replay_primitives(
    index: &InvertedIndex,
    q: &Query,
    shape: Shape,
    qid: u64,
    root: Option<usize>,
    tracer: &mut Tracer,
    t: &mut Totals,
    buf: &mut Vec<iiu_index::Posting>,
) {
    let terms = q.terms();
    let ids: Vec<_> = terms.iter().filter_map(|term| index.term_id(term)).collect();
    if shape != Shape::Tree {
        let mut cpu = CpuEngine::new(index).with_pruning(true);
        let outcome =
            tracer.time("baseline.engine", qid, root, || match (shape, &terms[..]) {
                (Shape::Single, [a]) => cpu.search_single(a, K).ok(),
                (Shape::And, [a, b]) => cpu.search_intersection(a, b, K).ok(),
                (Shape::Or, [a, b]) => cpu.search_union(a, b, K).ok(),
                _ => None,
            });
        if let Some(o) = outcome {
            t.counts.merge(&o.counts);
            t.primitive_queries += 1;
        }
    }

    let span = tracer.begin("index.decode", qid, root);
    for &id in &ids {
        let list = index.encoded_list(id);
        for b in 0..list.num_blocks() {
            buf.clear();
            let _ = list.try_decode_block_into(b, buf);
            std::hint::black_box(&buf);
        }
        t.decoded_postings += list.num_postings();
    }
    tracer.end(span);
    t.decode_ns += tracer.spans()[span].duration_ns();

    let Some((is_and, a, b)) = term_pair(q) else { return };
    let (Some(ia), Some(ib)) = (index.term_id(a), index.term_id(b)) else { return };
    let (la, lb) = (index.encoded_list(ia), index.encoded_list(ib));
    let mut scratch = DecodeScratch::new();
    let mut counts = OpCounts::default();
    t.setop_postings += la.num_postings() + lb.num_postings();
    if is_and {
        let (short, long, long_id) =
            if la.num_postings() <= lb.num_postings() { (la, lb, ib) } else { (lb, la, ia) };
        let out = tracer.time("baseline.setop", qid, root, || {
            intersect_svs(short, long, long_id, &mut counts, &mut scratch)
        });
        std::hint::black_box(out);
        t.setop_ns += tracer.last_duration("baseline.setop");
        return;
    }
    let merged = tracer
        .time("baseline.setop", qid, root, || union_merge(la, lb, &mut counts, &mut scratch));
    t.setop_ns += tracer.last_duration("baseline.setop");
    let (idf_a, idf_b) = (index.term_info(ia).idf_bar, index.term_info(ib).idf_bar);
    let hits: Vec<Hit> = merged
        .iter()
        .map(|&(doc_id, tf_a, tf_b)| {
            let dl = index.dl_bar(doc_id);
            let mut s = Fixed::ZERO;
            if tf_a > 0 {
                s = s.saturating_add(term_score_fixed(idf_a, dl, tf_a));
            }
            if tf_b > 0 {
                s = s.saturating_add(term_score_fixed(idf_b, dl, tf_b));
            }
            Hit { doc_id, score: s.to_f64() }
        })
        .collect();
    t.topk_candidates += hits.len() as u64;
    let top = tracer.time("baseline.topk", qid, root, || top_k(hits, K));
    std::hint::black_box(top);
    t.topk_ns += tracer.last_duration("baseline.topk");
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn add_layer_metrics(report: &mut Report, tracer: &Tracer, t: &Totals) {
    let (v, c) = median_of(tracer, "core.parse", 1.0);
    report.add("core.parse_ns", v, "ns", c);
    let resolve: Vec<u64> = {
        let mut v: Vec<u64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "index.resolve")
            .map(|s| s.duration_ns())
            .collect();
        v.sort_unstable();
        v
    };
    report.add_with_base(
        "index.resolve_ns",
        percentile(&resolve, 0.5).map(|v| v as f64),
        "ns",
        resolve.len() as u64,
        Some("median per query of term_id + verify_term over its terms".into()),
    );
    let (v, c) = median_of(tracer, "serve.route", 1.0);
    if c > 0 {
        report.add("serve.route_ns", v, "ns", c);
    }
    for (shape, span) in Shape::ALL.iter().zip(SEARCH_SPANS) {
        let (v, c) = median_of(tracer, span, 1e3);
        if c > 0 {
            report.add(&format!("core.search_us.{}", shape.label()), v, "us", c);
        }
    }
    let (_, searched) = search_durations(tracer);
    report.add_with_base(
        "core.model_ratio",
        ratio(t.measured_ns as f64, t.modeled_ns),
        "ratio",
        searched,
        Some(format!(
            "measured {:.3} ms / modeled {:.3} ms (SearchResponse::latency_ns) over \
             {searched} searches",
            t.measured_ns as f64 / 1e6,
            t.modeled_ns / 1e6
        )),
    );
    if !t.fanout.is_empty() {
        let fan: Vec<f64> = t.fanout.iter().map(|f| f.0 as f64 / 1e3).collect();
        let inline: Vec<f64> = t.fanout.iter().map(|f| f.1 as f64 / 1e3).collect();
        let (f, i) = (median(&fan), median(&inline));
        let n = t.fanout.len() as u64;
        report.add("baseline.fanout_us", f, "us", n);
        report.add_with_base(
            "baseline.fanout_speedup",
            f.zip(i).and_then(|(f, i)| ratio(i, f)),
            "ratio",
            n,
            Some(
                "median inline search / median search_ref, on queries the scheduler fans out"
                    .into(),
            ),
        );
    }
    let c = &t.counts;
    let q = t.primitive_queries as f64;
    let primitive =
        Some(format!("{} primitive queries (pruned CpuEngine)", t.primitive_queries));
    report.add_with_base(
        "baseline.blocks_decoded_per_query",
        ratio(c.blocks_decoded as f64, q),
        "count",
        t.primitive_queries,
        primitive.clone(),
    );
    report.add_with_base(
        "baseline.blocks_skipped_frac",
        ratio(c.blocks_skipped as f64, (c.blocks_decoded + c.blocks_skipped) as f64),
        "ratio",
        c.blocks_decoded + c.blocks_skipped,
        Some(format!(
            "{} skipped / {} blocks",
            c.blocks_skipped,
            c.blocks_decoded + c.blocks_skipped
        )),
    );
    report.add_with_base(
        "baseline.block_cache_hit_frac",
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        "ratio",
        c.cache_hits + c.cache_misses,
        Some(format!("{} hits / {} probes", c.cache_hits, c.cache_hits + c.cache_misses)),
    );
    report.add_with_base(
        "baseline.candidates_per_query",
        ratio(c.topk_candidates as f64, q),
        "count",
        t.primitive_queries,
        primitive,
    );
    report.add_with_base(
        "baseline.setop_ns_per_posting",
        ratio(t.setop_ns as f64, t.setop_postings as f64),
        "ns",
        t.setop_postings,
        Some(format!(
            "intersect_svs / union_merge time over {} input postings",
            t.setop_postings
        )),
    );
    report.add_with_base(
        "baseline.topk_ns_per_candidate",
        ratio(t.topk_ns as f64, t.topk_candidates as f64),
        "ns",
        t.topk_candidates,
        Some(format!("top_k time over {} union candidates", t.topk_candidates)),
    );
    report.add_with_base(
        "index.decode_ns_per_posting",
        ratio(t.decode_ns as f64, t.decoded_postings as f64),
        "ns",
        t.decoded_postings,
        Some(format!(
            "try_decode_block_into over every block of {} postings",
            t.decoded_postings
        )),
    );
}
