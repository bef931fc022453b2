//! The deployment every workload serves from, its set-up, and the
//! closed-loop clients that drive it.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iiu_core::{InvertedIndex, LiveIndex, Query};
use iiu_index::{io, storage, IncrementalOptions, IngestDoc};
use iiu_serve::{FaultPlan, QueryService, ServeConfig, ShardPoolConfig};
use iiu_workloads::GeneratedCorpus;

use crate::inputs::{self, hits_digest, DocFeed, Stream, Workload, K};
use crate::stats::Tally;
use crate::trace::{SpanId, Tracer};

/// Threads the deployment and the client pool are sized to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The one deployment every workload uses: `workers = shards =
/// pool_threads = n`, hybrid scheduler and pruned CPU fallback on, every
/// other field at its default. The device path (the cycle-level
/// simulator, whose wall time measures simulator speed rather than
/// serving speed) is disabled the way `iiu serve-bench --no-device yes`
/// does it: every device attempt is sabotaged, so the breaker opens and
/// queries run on the CPU path.
pub fn serve_config(n: usize) -> ServeConfig {
    ServeConfig {
        workers: n,
        shards: n,
        shard_pool: ShardPoolConfig { pool_threads: n, ..ShardPoolConfig::default() },
        scheduler: inputs::scheduler_config(),
        pruned_cpu_fallback: true,
        fault: FaultPlan { burst: Some((0, u64::MAX)), ..FaultPlan::NONE },
        ..ServeConfig::default()
    }
}

/// Runs `f`, inside a span named `name` when tracing.
pub fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    query: u64,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, query, parent, f),
        None => f(),
    }
}

/// A static-index service ready to answer.
pub struct StaticService {
    /// The running service.
    pub service: QueryService,
    /// The index it serves (shared with the service).
    pub index: Arc<InvertedIndex>,
    /// Size of the written index file.
    pub file_bytes: u64,
}

/// Set-up of a static workload: build the index from the generated
/// corpus, write it to `path`, open it (mapped for `zipf_light_mmap`,
/// deserialized onto the heap for `heavy_mixed_heap`), and start the
/// service, which splits the shards.
///
/// # Panics
///
/// Panics when the index cannot be built, written or opened: the
/// benchmark has nothing to measure then.
pub fn setup_static(
    workload: Workload,
    corpus: GeneratedCorpus,
    path: &Path,
    mut tracer: Option<&mut Tracer>,
) -> StaticService {
    let built = timed(&mut tracer, "index.build", 0, None, || inputs::build_index(corpus));
    let file_bytes = timed(&mut tracer, "index.write", 0, None, || {
        let bytes = io::serialize(&built).expect("generated index serializes");
        std::fs::write(path, &bytes).expect("index file is writable");
        bytes.len() as u64
    });
    drop(built);
    let index = timed(&mut tracer, "index.open", 0, None, || match workload {
        Workload::ZipfLightMmap => storage::map_index(path).expect("written index maps"),
        _ => {
            let bytes = std::fs::read(path).expect("written index reads back");
            io::deserialize(&bytes).expect("written index deserializes")
        }
    });
    let index = Arc::new(index);
    let service = timed(&mut tracer, "serve.start", 0, None, || {
        QueryService::start(Arc::clone(&index), serve_config(nproc()))
    });
    StaticService { service, index, file_bytes }
}

/// Documents per preload batch on `live_ingest` (set-up only).
pub const PRELOAD_BATCH: usize = 1024;

/// Set-up of `live_ingest`: open the live index in `dir`, preload the
/// next `preload` documents of `feed`, start the service. Returns the
/// service and the set-up time, which excludes reading the generated
/// documents.
///
/// # Panics
///
/// Panics when the directory cannot be opened, the feed cannot be read
/// or a preload batch fails.
pub fn setup_live(
    feed: &mut DocFeed,
    preload: usize,
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> (QueryService, Duration) {
    let mut spent = Duration::ZERO;
    let started = Instant::now();
    let live = timed(&mut tracer, "index.open", 0, None, || {
        LiveIndex::open(dir, IncrementalOptions::default()).expect("live index opens")
    });
    spent += started.elapsed();
    for start in (0..preload).step_by(PRELOAD_BATCH) {
        let batch = feed
            .next_batch(PRELOAD_BATCH.min(preload - start))
            .expect("generated documents read back");
        let t = Instant::now();
        live.ingest_batch(&batch).expect("preload batch is acknowledged");
        spent += t.elapsed();
    }
    let t = Instant::now();
    let service = timed(&mut tracer, "serve.start", 0, None, || {
        QueryService::start_live(Arc::new(live), serve_config(nproc()))
    });
    spent += t.elapsed();
    (service, spent)
}

/// What one closed-loop pass measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Client-side submit-to-reply latency of every answered query (ns).
    pub latencies_ns: Vec<u64>,
    /// Wall time of the pass.
    pub wall: Duration,
    /// Queries attempted and failed.
    pub tally: Tally,
}

/// A closed loop of `clients` threads answering queries `range` of
/// `stream` through `service`: each client takes the next query, submits
/// it and waits for the reply before taking another. With `check`, every
/// answer is compared with the stream's reference. With `tracers`, each
/// client records `client.query` spans with a `serve.submit` child into
/// its own tracer.
pub fn closed_loop(
    service: &QueryService,
    stream: &Stream,
    check: bool,
    range: std::ops::Range<usize>,
    clients: usize,
    tracers: Option<&mut [Tracer]>,
) -> LoopResult {
    let next = AtomicUsize::new(range.start);
    let end = range.end;
    let started = Instant::now();
    let parts: Vec<LoopResult> = std::thread::scope(|scope| {
        let next = &next;
        let handles: Vec<_> = match tracers {
            Some(ts) => ts
                .iter_mut()
                .map(|t| {
                    scope
                        .spawn(move || client_loop(service, stream, check, next, end, Some(t)))
                })
                .collect(),
            None => (0..clients.max(1))
                .map(|_| {
                    scope.spawn(move || client_loop(service, stream, check, next, end, None))
                })
                .collect(),
        };
        handles.into_iter().map(|h| h.join().expect("client thread completes")).collect()
    });
    let mut out = LoopResult { wall: started.elapsed(), ..LoopResult::default() };
    for p in parts {
        out.latencies_ns.extend(p.latencies_ns);
        out.tally.merge(&p.tally);
    }
    out
}

/// One closed-loop client: takes queries from `next` until `end`.
fn client_loop(
    service: &QueryService,
    stream: &Stream,
    check: bool,
    next: &AtomicUsize,
    end: usize,
    mut tracer: Option<&mut Tracer>,
) -> LoopResult {
    let mut out = LoopResult::default();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= end {
            return out;
        }
        let want = check.then(|| stream.expected(i));
        ask(service, stream.text(i), i as u64, want, &mut out, &mut tracer);
    }
}

/// One client request: parse, submit, wait, check. Records the latency
/// of an answered query and the outcome in `out`.
fn ask(
    service: &QueryService,
    text: &str,
    id: u64,
    want: Option<u64>,
    out: &mut LoopResult,
    tracer: &mut Option<&mut Tracer>,
) {
    let Ok(query) = Query::parse(text) else {
        out.tally.record(true, false);
        return;
    };
    let root = tracer.as_mut().map(|t| t.begin("client.query", id, None));
    let t0 = Instant::now();
    let reply = timed(tracer, "serve.submit", id, root, || service.submit(query, K))
        .and_then(|pending| pending.wait());
    let latency = t0.elapsed();
    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
        t.end(root);
    }
    match reply {
        Ok(resp) => {
            out.latencies_ns.push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
            let wrong = want.is_some_and(|w| hits_digest(&resp.hits) != w);
            out.tally.record(false, wrong);
        }
        Err(_) => out.tally.record(true, false),
    }
}

/// What the measured phase of `live_ingest` measured.
#[derive(Debug, Default)]
pub struct LiveResult {
    /// The queries of each window of equal ingest progress.
    pub windows: Vec<LoopResult>,
    /// Acknowledgement latency of every ingest batch (ns).
    pub ingest_ns: Vec<u64>,
    /// Documents acknowledged.
    pub docs_acked: u64,
    /// Wall time of the whole measured phase.
    pub wall: Duration,
    /// Ingest batches attempted and failed.
    pub batches: Tally,
}

/// The measured phase of `live_ingest`: one client ingests the next
/// `count` documents of `feed` in [`inputs::INGEST_BATCH`]-document
/// batches by calling `ingest(batch_no, batch)` (true when acknowledged)
/// while `query_clients` clients cycle through `stream` via `service`.
/// The phase is cut into `windows` windows of equal ingest progress, and
/// each window starts fresh query clients, as the static workloads do.
///
/// The ingest client is a document feed: it waits for each batch's
/// acknowledgement, and sends batches at least one period apart, the
/// period that makes [`inputs::LIVE_DOCS_PER_S`]. It does not catch up
/// after a slow batch (a seal or a merge). An unpaced writer that holds
/// the index's write lock back to back starves the readers or not
/// depending on fsync timing, which made the query numbers flip between
/// runs. A feed that cannot be read counts as one failed batch and ends
/// the phase.
pub fn live_phase(
    service: &QueryService,
    mut ingest: impl FnMut(u64, &[IngestDoc]) -> bool,
    feed: &mut DocFeed,
    count: usize,
    stream: &Stream,
    query_clients: usize,
    windows: usize,
) -> LiveResult {
    let batches = count.div_ceil(inputs::INGEST_BATCH);
    let per_window = batches.div_ceil(windows.max(1)).max(1);
    let period = Duration::from_secs_f64(
        inputs::INGEST_BATCH as f64 / f64::from(inputs::LIVE_DOCS_PER_S),
    );
    let next = AtomicUsize::new(0);
    let mut out = LiveResult::default();
    let mut last_sent: Option<Instant> = None;
    let mut feed_ok = true;
    let started = Instant::now();
    for first in (0..batches).step_by(per_window) {
        if !feed_ok {
            break;
        }
        let done = AtomicBool::new(false);
        let window_start = Instant::now();
        let window = std::thread::scope(|scope| {
            let queriers: Vec<_> = (0..query_clients.max(1))
                .map(|_| {
                    scope.spawn(|| {
                        let mut one = LoopResult::default();
                        while !done.load(Ordering::Acquire) {
                            let i = next.fetch_add(1, Ordering::Relaxed) % stream.len();
                            ask(service, stream.text(i), i as u64, None, &mut one, &mut None);
                        }
                        one
                    })
                })
                .collect();
            for b in first..(first + per_window).min(batches) {
                let start = b * inputs::INGEST_BATCH;
                let Ok(batch) = feed.next_batch(inputs::INGEST_BATCH.min(count - start))
                else {
                    out.batches.record(true, false);
                    feed_ok = false;
                    break;
                };
                if let Some(wait) =
                    last_sent.and_then(|t| (t + period).checked_duration_since(Instant::now()))
                {
                    std::thread::sleep(wait);
                }
                let t = Instant::now();
                last_sent = Some(t);
                let acked = ingest(b as u64, &batch);
                out.ingest_ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                out.batches.record(!acked, false);
                if acked {
                    out.docs_acked += batch.len() as u64;
                }
            }
            done.store(true, Ordering::Release);
            let mut window = LoopResult::default();
            for h in queriers {
                let one = h.join().expect("query client completes");
                window.latencies_ns.extend(one.latencies_ns);
                window.tally.merge(&one.tally);
            }
            window.wall = window_start.elapsed();
            window
        });
        out.windows.push(window);
    }
    out.wall = started.elapsed();
    out
}

/// Hands the memory the allocator holds free back to the kernel, then
/// resets this process's peak resident set size (VmHWM) to its current
/// size, so that [`peak_rss_mib`] covers only what runs afterwards: the
/// buffers the set-up freed neither count nor raise the starting point.
/// Returns false where the kernel does not offer the reset.
pub fn reset_peak_rss() -> bool {
    release_free_memory();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim takes no pointers; it only returns free heap
    // pages to the kernel and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Current resident set size (VmRSS) of this process, in MiB.
pub fn rss_mib() -> Option<f64> {
    status_mib("VmRSS:")
}
/// Cumulative `(steal, total)` CPU time of the machine from `/proc/stat`,
/// in clock ticks. Steal is time the hypervisor gave this machine's
/// virtual CPUs to someone else: a run with much of it measured a
/// slower machine.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    // (guest time is already counted in user).
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of machine CPU time stolen between two [`cpu_steal_ticks`]
/// readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
