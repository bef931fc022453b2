//! `perfbench`: generates a workload's inputs, then measures it.
//!
//! ```text
//! perfbench gen   --workload W --seed N --seconds S --dir D
//! perfbench serve --workload W --dir D     # untraced: end-to-end metrics
//! perfbench trace --workload W --dir D     # traced: per-layer metrics
//! ```
//!
//! `serve` and `trace` print a human-readable report, then as their last
//! line `RESULT {"correct": .., "attempted": .., "failed": .., "report":
//! {..}}`. They exit with 1 when any operation failed or any answer was
//! wrong, and with 2 on a usage or input error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use iiu_core::{CpuSearchEngine, LiveIndex, Query, SearchEngine};
use iiu_index::IncrementalOptions;
use iiu_perfbench::deploy::{self, LoopResult, StaticService};
use iiu_perfbench::inputs::{self, DocFeed, Stream, Workload, K};
use iiu_perfbench::metrics::{json_num, json_str, Report};
use iiu_perfbench::replay;
use iiu_perfbench::stats::{median, percentile, Tally};

/// Times the set-up is repeated in one run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Windows a static workload's stream is cut into: the first warms the
/// service up and is not measured. Each window starts fresh client
/// threads, so one unlucky placement of clients on CPUs, which can hold
/// for a whole pass, weighs on one window rather than the run.
const WINDOWS: usize = 81;
/// Windows of equal ingest progress on `live_ingest`.
const LIVE_WINDOWS: usize = 20;
/// Warm-up queries on `live_ingest` before the measured phase.
const LIVE_WARMUP: usize = 2_000;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command (gen, serve or trace)")?;
    let (mut workload, mut seed, mut seconds, mut dir) = (None, 0u64, 10u64, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        dir: dir.ok_or("missing --dir")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "gen" => gen(&args).map(|()| true),
        "serve" => serve(args.workload, &args.dir),
        "trace" => replay::run(args.workload, &args.dir),
        other => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Generates the inputs and reference answers of one workload and seed.
fn gen(args: &Args) -> Result<(), String> {
    let w = args.workload;
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("creating work dir: {e}"))?;
    let corpus = inputs::corpus_config(w, args.seed, args.seconds).generate();
    if w.is_static() {
        inputs::write_corpus(&args.dir.join(inputs::CORPUS_FILE), &corpus)
    } else {
        inputs::write_docs(&args.dir.join(inputs::DOCS_FILE), &corpus)
    }
    .map_err(|e| format!("writing corpus: {e}"))?;
    let (docs, postings) = (corpus.doc_lens.len(), corpus.total_postings());
    let index = inputs::build_index(corpus);
    let stream = inputs::query_stream(w, &index, args.seed, args.seconds);
    let props = inputs::input_properties(&index, &stream);
    let distinct = inputs::distinct_queries(&stream);
    let digests = inputs::reference_digests(&index, &distinct, deploy::nproc());
    inputs::write_lines(
        &args.dir.join(inputs::QUERIES_FILE),
        stream.iter().map(String::as_str),
    )
    .map_err(|e| format!("writing queries: {e}"))?;
    let reference: Vec<String> =
        distinct.iter().zip(&digests).map(|(t, d)| format!("{d:016x}\t{t}")).collect();
    inputs::write_lines(
        &args.dir.join(inputs::REFERENCE_FILE),
        reference.iter().map(String::as_str),
    )
    .map_err(|e| format!("writing reference: {e}"))?;

    let shapes: Vec<String> = props
        .shape_mix
        .iter()
        .map(|(s, share)| format!("{}: {}", json_str(s.label()), json_num(Some(*share))))
        .collect();
    // Live mode serves from the live index and never routes to fan-out.
    let fanout = if w.is_static() { Some(props.fanout_share) } else { None };
    println!(
        "inputs {{\"workload\": {}, \"seed\": {}, \"docs\": {docs}, \"postings\": {postings}, \
         \"queries\": {}, \"distinct_queries\": {}, \"repeat_share\": {}, \
         \"shape_mix\": {{{}}}, \"unknown_term_share\": {}, \"mean_longest_list_df\": {}, \
         \"postings_per_query\": {}, \"fanout_share\": {}}}",
        json_str(w.name()),
        args.seed,
        props.queries,
        props.distinct,
        json_num(Some(props.repeat_share)),
        shapes.join(", "),
        json_num(Some(props.unknown_term_share)),
        json_num(Some(props.mean_longest_df)),
        json_num(Some(props.postings_per_query)),
        json_num(fanout),
    );
    Ok(())
}

fn load_stream(dir: &Path) -> Result<Stream, String> {
    Stream::load(dir).map_err(|e| format!("reading the query stream: {e}"))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Adds the throughput and latency metrics shared by every workload, as
/// medians over the measured windows: `qps` of each window's queries
/// answered ÷ its wall time, the latency percentiles of each window's
/// exact sorted samples. Windows on a 2-vCPU machine run at one of two
/// speeds, depending on how the client and service threads land on the
/// CPUs, so a median of windows is steadier than a pooled figure. The
/// service's own histogram estimate is printed beside the exact
/// client-side p99 over every answer it recorded (`answered`, warm-up
/// included).
fn latency_metrics(
    report: &mut Report,
    windows: &mut [LoopResult],
    what: &str,
    answered: &mut [u64],
    health: &iiu_serve::HealthSnapshot,
) {
    for w in windows.iter_mut() {
        w.latencies_ns.sort_unstable();
    }
    let n: u64 = windows.iter().map(|w| w.latencies_ns.len() as u64).sum();
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| w.latencies_ns.len() as f64 / w.wall.as_secs_f64().max(1e-9))
        .collect();
    let of = format!("{} windows of {what}", windows.len());
    report.add_with_base(
        "qps",
        median(&rates),
        "queries/s",
        n,
        Some(format!("median of queries answered / wall time, over {of}")),
    );
    let base = Some(format!("median of exact window percentiles, over {of}"));
    for (name, q) in [("query_p50_us", 0.5), ("query_p90_us", 0.9), ("query_p99_us", 0.99)] {
        let per_window: Vec<f64> =
            windows.iter().filter_map(|w| percentile(&w.latencies_ns, q)).map(us).collect();
        report.add_with_base(name, median(&per_window), "us", n, base.clone());
    }

    answered.sort_unstable();
    let n = answered.len() as u64;
    let exact99 = percentile(answered, 0.99).map(us);
    let hist = |q: Option<iiu_serve::Quantile>| q.map(|q| q.value.as_secs_f64() * 1e6);
    let (hist50, hist99) = (hist(health.p50), hist(health.p99));
    report.add("serve.hist_p50_us", hist50, "us", n);
    report.add("serve.hist_p99_us", hist99, "us", n);
    report.add_with_base(
        "serve.hist_p99_err",
        hist99.zip(exact99).filter(|(_, e)| *e > 0.0).map(|(h, e)| (h - e) / e),
        "ratio",
        n,
        Some(format!(
            "(HealthSnapshot p99 - exact client p99 {}) / exact, over every answer",
            exact99.map_or_else(|| "n/a".into(), |e| format!("{e:.1} us"))
        )),
    );
}

/// Adds the set-up time: the median of the repeated set-ups.
fn setup_metric(report: &mut Report, setups: &[f64], what: &str) {
    report.add_with_base(
        "setup_s",
        median(setups),
        "s",
        setups.len() as u64,
        Some(format!("median of {} set-ups: {what}", setups.len())),
    );
}

/// Adds the peak resident set size of the serving phase. `reset` tells
/// whether the peak was reset when set-up ended; where the kernel offers
/// no reset, the resident size at the end of the phase stands in.
fn rss_metric(report: &mut Report, reset: bool) {
    let (value, base) = if reset {
        (
            deploy::peak_rss_mib(),
            "VmHWM, reset when set-up ended, read after the measured phase",
        )
    } else {
        (deploy::rss_mib(), "VmRSS after the measured phase (peak reset unavailable)")
    };
    report.add_with_base("peak_rss_mib", value, "MiB", 1, Some(base.into()));
}

fn finish(report: &mut Report, workload: Workload, tally: &Tally, title: &str) -> bool {
    report.add_with_base(
        "failed_frac",
        Some(tally.failed_frac()),
        "ratio",
        tally.attempted,
        Some(format!(
            "{} failed ({} rejected, {} wrong) of {} attempted",
            tally.failed, tally.rejected, tally.mismatched, tally.attempted
        )),
    );
    report.fact("workload", json_str(workload.name()));
    report.fact("nproc", deploy::nproc().to_string());
    println!("{title} {}:", workload.name());
    print!("{}", report.text());
    let correct = tally.failed == 0;
    println!(
        "RESULT {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"report\": {}}}",
        tally.attempted,
        tally.failed,
        report.json()
    );
    correct
}

/// The untraced run: set up the deployment several times, drive it with
/// the closed loop, check every answer, report end-to-end metrics.
fn serve(workload: Workload, dir: &Path) -> Result<bool, String> {
    match workload {
        Workload::LiveIngest => serve_live(dir),
        _ => serve_static(workload, dir),
    }
}

/// A static workload. Each set-up builds from a fresh read of the
/// generated corpus, which the set-up consumes, so no copy of it outlives
/// the set-up. The peak RSS is reset once the last set-up is done: it
/// covers the warm-up and the measured phase, not the corpus or the build.
fn serve_static(workload: Workload, dir: &Path) -> Result<bool, String> {
    let stream = load_stream(dir)?;
    let mut setups = Vec::new();
    let mut postings = 0;
    let mut current: Option<StaticService> = None;
    for rep in 0..SETUP_REPS {
        drop(current.take());
        let corpus = inputs::read_corpus(&dir.join(inputs::CORPUS_FILE))
            .map_err(|e| format!("reading corpus: {e}"))?;
        postings = corpus.total_postings();
        let path = dir.join(format!("index-{rep}.iiu"));
        let t = Instant::now();
        current = Some(deploy::setup_static(workload, corpus, &path, None));
        setups.push(t.elapsed().as_secs_f64());
        if rep > 0 {
            std::fs::remove_file(dir.join(format!("index-{}.iiu", rep - 1))).ok();
        }
    }
    let mut svc = current.ok_or("no service")?;
    let clients = deploy::nproc();
    let reset = deploy::reset_peak_rss();

    let n = stream.len();
    let warm = n / WINDOWS;
    let warmup = deploy::closed_loop(&svc.service, &stream, true, 0..warm, clients, None);
    let steal_before = deploy::cpu_steal_ticks();
    let mut windows: Vec<LoopResult> = (1..WINDOWS)
        .map(|w| {
            let range = w * n / WINDOWS..(w + 1) * n / WINDOWS;
            deploy::closed_loop(&svc.service, &stream, true, range, clients, None)
        })
        .collect();
    let steal = deploy::steal_frac(steal_before, deploy::cpu_steal_ticks());
    let mut report = Report::default();
    rss_metric(&mut report, reset);
    let health = svc.service.health();
    svc.service.shutdown();

    let mut tally = warmup.tally;
    let mut answered = warmup.latencies_ns;
    for w in &windows {
        tally.merge(&w.tally);
        answered.extend_from_slice(&w.latencies_ns);
    }
    setup_metric(&mut report, &setups, "build, write, open, start (split shards)");
    let what =
        format!("~{warm} queries, {clients} closed-loop clients, after one warm-up window");
    latency_metrics(&mut report, &mut windows, &what, &mut answered, &health);
    report.add_with_base(
        "disk_bits_per_posting",
        Some(svc.file_bytes as f64 * 8.0 / postings.max(1) as f64),
        "bits",
        postings,
        Some(format!("{} index-file bytes x 8 / {postings} postings", svc.file_bytes)),
    );
    report.add(
        "serve.fanout_frac",
        fanout_frac(&health),
        "ratio",
        health.sched_inline + health.sched_fanout,
    );
    report.add("cpu_steal_frac", steal, "ratio", 1);
    Ok(finish(&mut report, workload, &tally, "serve"))
}

/// Share of CPU-path queries the scheduler sent to shard fan-out.
fn fanout_frac(h: &iiu_serve::HealthSnapshot) -> Option<f64> {
    let total = h.sched_inline + h.sched_fanout;
    (total > 0).then(|| h.sched_fanout as f64 / total as f64)
}

/// `live_ingest`. Documents are read from the generated file batch by
/// batch, so the process never holds the corpus; the peak RSS is reset
/// once the last set-up is done.
fn serve_live(dir: &Path) -> Result<bool, String> {
    let docs_path = dir.join(inputs::DOCS_FILE);
    let open_feed =
        || DocFeed::open(&docs_path).map_err(|e| format!("reading documents: {e}"));
    let stream = load_stream(dir)?;

    let mut setups = Vec::new();
    let mut current: Option<(iiu_serve::QueryService, DocFeed)> = None;
    let mut live_dir = PathBuf::new();
    for rep in 0..SETUP_REPS {
        drop(current.take());
        if rep > 0 {
            std::fs::remove_dir_all(&live_dir).ok();
        }
        live_dir = dir.join(format!("live-{rep}"));
        std::fs::remove_dir_all(&live_dir).ok();
        let mut feed = open_feed()?;
        let preload = feed.len() / 2;
        let (svc, spent) = deploy::setup_live(&mut feed, preload, &live_dir, None);
        setups.push(spent.as_secs_f64());
        current = Some((svc, feed));
    }
    let (mut svc, mut feed) = current.ok_or("no service")?;
    let (n_docs, postings) = (feed.len(), feed.postings());
    let preload = n_docs / 2;
    let query_clients = deploy::nproc().saturating_sub(1).max(1);
    let reset = deploy::reset_peak_rss();

    let steal_before = deploy::cpu_steal_ticks();
    let warm = deploy::closed_loop(
        &svc,
        &stream,
        false,
        0..LIVE_WARMUP.min(stream.len()),
        query_clients,
        None,
    );
    let run = deploy::live_phase(
        &svc,
        |_, batch| svc.ingest(batch).is_ok(),
        &mut feed,
        n_docs - preload,
        &stream,
        query_clients,
        LIVE_WINDOWS,
    );
    let steal = deploy::steal_frac(steal_before, deploy::cpu_steal_ticks());
    let mut report = Report::default();
    rss_metric(&mut report, reset);
    let health = svc.health();
    let live = Arc::clone(svc.live().ok_or("live service has no live index")?);
    svc.shutdown();
    drop(svc);

    let mut tally = Tally::default();
    tally.merge(&warm.tally);
    for w in &run.windows {
        tally.merge(&w.tally);
    }
    tally.merge(&run.batches);
    let checks = check_live(live, &live_dir, (preload as u64) + run.docs_acked, &stream);
    tally.merge(&checks);
    let disk = deploy::dir_bytes(&live_dir);

    setup_metric(&mut report, &setups, &format!("open, preload {preload} docs, start"));
    let what = format!(
        "equal ingest progress, {query_clients} query client(s) beside 1 ingest client"
    );
    let mut answered = warm.latencies_ns;
    for w in &run.windows {
        answered.extend_from_slice(&w.latencies_ns);
    }
    let mut windows = run.windows;
    latency_metrics(&mut report, &mut windows, &what, &mut answered, &health);
    report.add_with_base(
        "disk_bits_per_posting",
        Some(disk as f64 * 8.0 / postings.max(1) as f64),
        "bits",
        postings,
        Some(format!(
            "{disk} bytes of segments + WAL after the run x 8 / {postings} postings"
        )),
    );
    report.add_with_base(
        "ingest_docs_per_s",
        Some(run.docs_acked as f64 / run.wall.as_secs_f64()),
        "docs/s",
        run.docs_acked,
        Some(format!("docs acknowledged / {:.3} s measured phase", run.wall.as_secs_f64())),
    );
    let mut ingest = run.ingest_ns;
    ingest.sort_unstable();
    let batches = ingest.len() as u64;
    report.add("ingest_p50_us", percentile(&ingest, 0.5).map(us), "us", batches);
    report.add("ingest_p99_us", percentile(&ingest, 0.99).map(us), "us", batches);
    report.add("cpu_steal_frac", steal, "ratio", 1);
    Ok(finish(&mut report, Workload::LiveIngest, &tally, "serve"))
}

/// Post-run checks of `live_ingest`. Every distinct query must answer the
/// same from the live index, from an exhaustive engine over its snapshot
/// and from the reference over the whole generated corpus; after the
/// directory is reopened, every acknowledged document must be there and
/// every answer identical. Each check counts as one operation.
fn check_live(live: Arc<LiveIndex>, dir: &Path, acked: u64, stream: &Stream) -> Tally {
    let mut tally = Tally::default();
    match live.snapshot() {
        Ok(snapshot) => {
            let mut engine = CpuSearchEngine::new(&snapshot);
            for (text, want) in stream.texts.iter().zip(&stream.reference) {
                let Ok(q) = Query::parse(text) else {
                    tally.record(true, false);
                    continue;
                };
                match (live.search(&q, K), engine.search(&q, K)) {
                    (Ok(a), Ok(b)) => {
                        let (a, b) =
                            (inputs::hits_digest(&a.hits), inputs::hits_digest(&b.hits));
                        tally.record(false, a != b || b != *want);
                    }
                    _ => tally.record(true, false),
                }
            }
        }
        Err(_) => tally.record(true, false),
    }
    drop(live);
    match LiveIndex::open(dir, IncrementalOptions::default()) {
        Ok(reopened) => {
            tally.record(false, reopened.num_docs() != acked);
            for (text, want) in stream.texts.iter().zip(&stream.reference) {
                match Query::parse(text).map(|q| reopened.search(&q, K)) {
                    Ok(Ok(r)) => tally.record(false, inputs::hits_digest(&r.hits) != *want),
                    _ => tally.record(true, false),
                }
            }
        }
        Err(_) => tally.record(true, false),
    }
    tally
}
