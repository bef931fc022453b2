//! Workload definitions and the generated inputs they run on.
//!
//! Everything here is a pure function of the workload and the seed:
//! the corpus, the query stream and the reference answers. `gen` writes
//! them to a work directory; the serving processes read them back, so the
//! program under test only ever receives generated inputs.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use iiu_core::{
    estimate_query_cost, Bm25Params, CpuSearchEngine, Hit, InvertedIndex, Partitioner, Query,
    SearchEngine,
};
use iiu_index::faultinject::SplitMix64;
use iiu_index::{IngestDoc, Posting, PostingList};
use iiu_serve::scheduler::{route, ParallelismMode};
use iiu_serve::SchedulerConfig;
use iiu_workloads::{traffic, CorpusConfig, GeneratedCorpus, QuerySampler, TrafficConfig};

/// Result-set size of every query.
pub const K: usize = 10;

/// Documents in the corpus of both static workloads.
pub const STATIC_DOCS: u32 = 100_000;

/// Queries offered per second of `--seconds` on `zipf_light_mmap`: about
/// the closed-loop rate a 2-vCPU machine sustains, so the fixed query
/// count takes roughly the requested time.
pub const ZIPF_QUERIES_PER_S: usize = 160_000;

/// Queries offered per second of `--seconds` on `heavy_mixed_heap`.
pub const HEAVY_QUERIES_PER_S: usize = 5_000;

/// Rate the `live_ingest` feed sends documents at.
pub const LIVE_DOCS_PER_S: u32 = 5_000;

/// Documents ingested in the measured phase of `live_ingest` per second
/// of `--seconds`: fewer than the feed rate, because seals and merges
/// delay the feed. The corpus holds twice as many (half preloaded).
pub const LIVE_INGESTED_PER_S: u32 = 3_500;

/// Documents per `QueryService::ingest` batch on `live_ingest`.
pub const INGEST_BATCH: usize = 64;

/// Zipf query stream length on `live_ingest`; the query client cycles
/// through it for as long as the ingest client runs.
pub const LIVE_QUERIES: usize = 200_000;

/// Share of Zipf-stream queries carrying an out-of-vocabulary term.
pub const UNKNOWN_TERM_RATE: f64 = 0.02;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated light queries over a memory-mapped index: fixed
    /// per-query and serve-layer costs dominate.
    ZipfLightMmap,
    /// Unique heavy queries over a heap index: index work dominates.
    HeavyMixedHeap,
    /// Ingest beside Zipf queries over a crash-safe live index.
    LiveIngest,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] =
        [Workload::ZipfLightMmap, Workload::HeavyMixedHeap, Workload::LiveIngest];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfLightMmap => "zipf_light_mmap",
            Workload::HeavyMixedHeap => "heavy_mixed_heap",
            Workload::LiveIngest => "live_ingest",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the service runs over a static index image (as opposed to
    /// a live index).
    pub fn is_static(self) -> bool {
        self != Workload::LiveIngest
    }
}

/// Derives an independent 64-bit stream seed from the run seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The corpus of `workload` for a run of `seconds` under `seed`.
pub fn corpus_config(workload: Workload, seed: u64, seconds: u64) -> CorpusConfig {
    let docs = match workload {
        Workload::LiveIngest => {
            2 * LIVE_INGESTED_PER_S * u32::try_from(seconds.max(1)).unwrap_or(u32::MAX / 8)
        }
        _ => STATIC_DOCS,
    };
    // Salted per workload, so two workloads never share a corpus.
    let salt = 0xC0 + workload as u64;
    CorpusConfig { seed: derive_seed(seed, salt), ..CorpusConfig::ccnews_like(docs) }
}

/// Builds the heap index every reference answer and input property is
/// computed on.
pub fn build_index(corpus: GeneratedCorpus) -> InvertedIndex {
    corpus.into_index(Partitioner::default(), Bm25Params::default())
}

/// Generates the query stream of `workload` over `index`'s vocabulary.
pub fn query_stream(
    workload: Workload,
    index: &InvertedIndex,
    seed: u64,
    seconds: u64,
) -> Vec<String> {
    let seconds = usize::try_from(seconds.max(1)).unwrap_or(usize::MAX / ZIPF_QUERIES_PER_S);
    match workload {
        Workload::ZipfLightMmap => zipf_stream(index, seed, ZIPF_QUERIES_PER_S * seconds),
        Workload::LiveIngest => zipf_stream(index, seed, LIVE_QUERIES),
        Workload::HeavyMixedHeap => heavy_stream(index, seed, HEAVY_QUERIES_PER_S * seconds),
    }
}

/// Independent Zipf streams interleaved into one. With a single stream
/// the top query of its pool takes 13% of traffic, so whether a seed's
/// few most popular queries happen to fan out, or are unions rather than
/// single terms, decides the tail latency and qps on its own (about 1% of
/// traffic fanning out moves p99 into the fan-out regime). Interleaving
/// 32 streams caps any one query's share near 0.4% while keeping about
/// 96% of queries repeats.
pub const ZIPF_TENANTS: usize = 32;

/// Zipf-popular repeats: [`ZIPF_TENANTS`] interleaved `traffic::open_loop`
/// streams, each with skew 1.0 over the default 1024-query pool and the
/// default 50/25/25 single/AND/OR mix.
fn zipf_stream(index: &InvertedIndex, seed: u64, n: usize) -> Vec<String> {
    let tenants: Vec<Vec<String>> = (0..ZIPF_TENANTS as u64)
        .map(|t| {
            let cfg = TrafficConfig {
                // Arrival times are unused: the closed loop paces itself.
                rate_qps: 1e9,
                n_queries: n.div_ceil(ZIPF_TENANTS),
                unknown_term_rate: UNKNOWN_TERM_RATE,
                zipf_skew: 1.0,
                seed: derive_seed(seed, 0x21F + t),
                ..TrafficConfig::default()
            };
            traffic::open_loop(index, &cfg).into_iter().map(|q| q.text).collect()
        })
        .collect();
    (0..n).map(|i| tenants[i % ZIPF_TENANTS][i / ZIPF_TENANTS].clone()).collect()
}

/// Redraws allowed when a heavy query repeats an earlier one.
const HEAVY_REDRAWS: usize = 16;

/// Heavy queries, none repeating an earlier one: terms drawn in
/// proportion to df among terms with df >= 1% of documents; shapes drawn
/// 1/3 single, 1/6 AND, 1/6 OR, 1/3 three-term trees. A draw that repeats
/// an earlier query, in any term order, gets new terms. Only about a
/// hundred terms reach df >= 1%, so single-term queries run out of new
/// terms early; a single-term slot that finds none becomes a tree. The
/// measured shape mix is printed with the input properties.
fn heavy_stream(index: &InvertedIndex, seed: u64, n: usize) -> Vec<String> {
    let min_df = (index.num_docs() / 100).max(1);
    let mut sampler = QuerySampler::with_bias(index, derive_seed(seed, 0x4EA), 1.0, min_df);
    let mut shapes = SplitMix64::new(derive_seed(seed, 0x5A4));
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut shape = shapes.below(6);
        let mut text = String::new();
        for attempt in 0..2 * HEAVY_REDRAWS {
            if attempt == HEAVY_REDRAWS && shape < 2 {
                shape = 4 + shapes.below(2);
            }
            let a = sampler.term();
            let b = sampler.term_distinct_from(a);
            let c = sampler.term_distinct_from(b);
            // The key names the query whatever order its operands take.
            let (mut ab, mut abc) = ([a, b], [a, b, c]);
            ab.sort_unstable();
            abc.sort_unstable();
            let key = match shape {
                0 | 1 => a.to_string(),
                2 => format!("and {ab:?}"),
                3 => format!("or {ab:?}"),
                4 => format!("or {ab:?} and {c}"),
                _ => format!("and {abc:?}"),
            };
            text = match shape {
                0 | 1 => a.to_string(),
                2 => format!("{a} AND {b}"),
                3 => format!("{a} OR {b}"),
                4 => format!("({a} OR {b}) AND {c}"),
                _ => format!("{a} AND {b} AND {c}"),
            };
            if seen.insert(key) {
                break;
            }
        }
        out.push(text);
    }
    out
}

/// Query shape classes reported in the input properties and used to
/// split the per-shape engine timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// One term.
    Single,
    /// Two terms joined by `AND`.
    And,
    /// Two terms joined by `OR`.
    Or,
    /// Anything larger: evaluated by the general tree evaluator.
    Tree,
}

impl Shape {
    /// Every shape, in reporting order.
    pub const ALL: [Shape; 4] = [Shape::Single, Shape::And, Shape::Or, Shape::Tree];

    /// Classifies a parsed query.
    pub fn of(query: &Query) -> Shape {
        match query {
            Query::Term(_) => Shape::Single,
            Query::And(a, b) if matches!((&**a, &**b), (Query::Term(_), Query::Term(_))) => {
                Shape::And
            }
            Query::Or(a, b) if matches!((&**a, &**b), (Query::Term(_), Query::Term(_))) => {
                Shape::Or
            }
            _ => Shape::Tree,
        }
    }

    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Shape::Single => "single",
            Shape::And => "and",
            Shape::Or => "or",
            Shape::Tree => "tree",
        }
    }
}

/// The deployment's scheduler settings (hybrid routing on, default heavy
/// threshold), shared by the service and the input-property report.
pub fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig { hybrid: true, ..SchedulerConfig::default() }
}

/// Measured properties of one workload's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct InputProperties {
    /// Queries in the stream.
    pub queries: usize,
    /// Distinct query texts.
    pub distinct: usize,
    /// Share of queries repeating an earlier one.
    pub repeat_share: f64,
    /// Share of queries per shape.
    pub shape_mix: Vec<(Shape, f64)>,
    /// Share of queries naming a term the index does not hold.
    pub unknown_term_share: f64,
    /// Mean document frequency of each query's longest list.
    pub mean_longest_df: f64,
    /// Mean sum of the query terms' document frequencies.
    pub postings_per_query: f64,
    /// Share the deployment's hybrid scheduler routes to shard fan-out.
    pub fanout_share: f64,
}

/// Measures `stream`'s properties against `index`.
///
/// # Panics
///
/// Panics if a generated query fails to parse (a generator bug).
pub fn input_properties(index: &InvertedIndex, stream: &[String]) -> InputProperties {
    let mut seen = HashSet::new();
    let (mut repeats, mut unknown, mut fanout) = (0usize, 0usize, 0usize);
    let (mut longest, mut postings) = (0u64, 0u64);
    let mut shapes: HashMap<Shape, usize> = HashMap::new();
    let sched = scheduler_config();
    for text in stream {
        if !seen.insert(text.as_str()) {
            repeats += 1;
        }
        let q = Query::parse(text).expect("generated queries parse");
        *shapes.entry(Shape::of(&q)).or_default() += 1;
        let terms = q.terms();
        let est = estimate_query_cost(index, &terms);
        unknown += usize::from(est.resolved_terms < terms.len());
        longest += est.max_list_postings;
        postings += est.total_postings;
        fanout += usize::from(route(index, &q, &sched).mode == ParallelismMode::IntraQuery);
    }
    let n = stream.len().max(1) as f64;
    InputProperties {
        queries: stream.len(),
        distinct: seen.len(),
        repeat_share: repeats as f64 / n,
        shape_mix: Shape::ALL
            .iter()
            .map(|&s| (s, shapes.get(&s).copied().unwrap_or(0) as f64 / n))
            .collect(),
        unknown_term_share: unknown as f64 / n,
        mean_longest_df: longest as f64 / n,
        postings_per_query: postings as f64 / n,
        fanout_share: fanout as f64 / n,
    }
}

/// SplitMix64 finalizer step folding `v` into the running digest `h`.
fn mix(h: u64, v: u64) -> u64 {
    let mut x = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-sensitive digest of a ranked hit list (doc ids and exact score
/// bits). Two answers are equal exactly when their digests are, up to a
/// 2^-64 collision chance.
pub fn hits_digest(hits: &[Hit]) -> u64 {
    hits.iter().fold(mix(0, hits.len() as u64), |h, hit| {
        mix(mix(h, u64::from(hit.doc_id)), hit.score.to_bits())
    })
}

/// Reference answers for every distinct query in `distinct`, computed
/// with an unsharded, exhaustive [`CpuSearchEngine`] over the heap index
/// on `threads` threads.
///
/// # Panics
///
/// Panics if a query fails to parse or the reference engine errors (a
/// broken generator or index, not a measurement).
pub fn reference_digests(
    index: &InvertedIndex,
    distinct: &[&str],
    threads: usize,
) -> Vec<u64> {
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut engine = CpuSearchEngine::new(index);
                    part.iter()
                        .map(|text| {
                            let q = Query::parse(text).expect("generated queries parse");
                            let resp = engine.search(&q, K).expect("reference search answers");
                            hits_digest(&resp.hits)
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread completes"))
            .collect()
    })
}

/// Distinct texts of `stream` in first-appearance order.
pub fn distinct_queries(stream: &[String]) -> Vec<&str> {
    let mut seen = HashSet::new();
    stream.iter().map(String::as_str).filter(|t| seen.insert(*t)).collect()
}

/// File names inside a work directory.
pub const CORPUS_FILE: &str = "corpus.bin";
/// The `live_ingest` corpus, per document ([`write_docs`]).
pub const DOCS_FILE: &str = "docs.bin";
/// Query stream, one query per line, in offering order.
pub const QUERIES_FILE: &str = "queries.txt";
/// `digest<TAB>query` for every distinct query.
pub const REFERENCE_FILE: &str = "reference.tsv";

fn write_u32(w: &mut impl Write, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Writes a generated corpus (doc lengths, then every term's postings).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_corpus(path: &Path, corpus: &GeneratedCorpus) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    let len = |n: usize| u32::try_from(n).map_err(|_| bad("corpus too large"));
    write_u32(&mut w, len(corpus.doc_lens.len())?)?;
    for &l in &corpus.doc_lens {
        write_u32(&mut w, l)?;
    }
    write_u32(&mut w, len(corpus.lists.len())?)?;
    for (term, list) in &corpus.lists {
        write_u32(&mut w, len(term.len())?)?;
        w.write_all(term.as_bytes())?;
        write_u32(&mut w, len(list.len())?)?;
        for p in list.iter() {
            write_u32(&mut w, p.doc_id)?;
            write_u32(&mut w, p.tf)?;
        }
    }
    w.flush()
}

/// Upper bound on any count read back from a corpus file, so a damaged
/// file cannot ask for an absurd allocation.
const MAX_COUNT: u32 = 1 << 28;

fn read_count(r: &mut impl Read) -> std::io::Result<usize> {
    let n = read_u32(r)?;
    if n > MAX_COUNT {
        return Err(bad("count out of range"));
    }
    Ok(n as usize)
}

/// Reads a corpus written by [`write_corpus`].
///
/// # Errors
///
/// Returns an error on I/O failure or a malformed file.
pub fn read_corpus(path: &Path) -> std::io::Result<GeneratedCorpus> {
    let mut r = BufReader::new(File::open(path)?);
    let count = read_count;
    let n_docs = count(&mut r)?;
    let doc_lens = (0..n_docs).map(|_| read_u32(&mut r)).collect::<Result<Vec<_>, _>>()?;
    let n_lists = count(&mut r)?;
    let mut lists = Vec::with_capacity(n_lists);
    for _ in 0..n_lists {
        let mut name = vec![0u8; count(&mut r)?];
        r.read_exact(&mut name)?;
        let term = String::from_utf8(name).map_err(|_| bad("term is not UTF-8"))?;
        let n = count(&mut r)?;
        let mut postings = Vec::with_capacity(n);
        for _ in 0..n {
            let doc = read_u32(&mut r)?;
            let tf = read_u32(&mut r)?;
            postings.push(Posting::new(doc, tf));
        }
        lists.push((term, PostingList::from_sorted(postings)));
    }
    Ok(GeneratedCorpus { lists, doc_lens })
}

/// Writes lines to a text file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_lines<'a>(
    path: &Path,
    lines: impl IntoIterator<Item = &'a str>,
) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for l in lines {
        writeln!(w, "{l}")?;
    }
    w.flush()
}

/// Reads a text file's lines.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn read_lines(path: &Path) -> std::io::Result<Vec<String>> {
    BufReader::new(File::open(path)?).lines().collect()
}

/// A query stream as the serving processes hold it: each distinct text
/// once, with its reference digest, and the offering order as indices.
#[derive(Debug, Default)]
pub struct Stream {
    /// Distinct query texts.
    pub texts: Vec<String>,
    /// Reference digest of each distinct text's answer.
    pub reference: Vec<u64>,
    /// The stream, as indices into `texts`.
    pub order: Vec<u32>,
}

impl Stream {
    /// Reads the stream and the reference answers from a work directory.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, a malformed reference line, or a
    /// query without a reference answer.
    pub fn load(dir: &Path) -> std::io::Result<Stream> {
        let mut out = Stream::default();
        let mut ids: HashMap<String, u32> = HashMap::new();
        for line in read_lines(&dir.join(REFERENCE_FILE))? {
            let (digest, text) = line.split_once('\t').ok_or_else(|| bad("reference line"))?;
            let digest =
                u64::from_str_radix(digest, 16).map_err(|_| bad("reference digest"))?;
            let id = u32::try_from(out.texts.len()).map_err(|_| bad("too many queries"))?;
            ids.insert(text.to_string(), id);
            out.texts.push(text.to_string());
            out.reference.push(digest);
        }
        for line in BufReader::new(File::open(dir.join(QUERIES_FILE))?).lines() {
            let line = line?;
            let id = ids.get(&line).ok_or_else(|| bad("query without a reference answer"))?;
            out.order.push(*id);
        }
        Ok(out)
    }

    /// Queries in the stream.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Text of the `i`-th query offered.
    pub fn text(&self, i: usize) -> &str {
        &self.texts[self.order[i] as usize]
    }

    /// Reference digest of the `i`-th query's answer.
    pub fn expected(&self, i: usize) -> u64 {
        self.reference[self.order[i] as usize]
    }
}

/// Writes `corpus` regrouped per document, for the `live_ingest` feed:
/// the vocabulary, the document and posting counts, then each document's
/// length and `(term index, tf)` pairs in document order. The serving
/// process reads it back batch by batch with [`DocFeed`], so it never
/// holds the corpus.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_docs(path: &Path, corpus: &GeneratedCorpus) -> std::io::Result<()> {
    let n = corpus.doc_lens.len();
    let mut offsets = vec![0usize; n + 1];
    for (_, list) in &corpus.lists {
        for p in list.iter() {
            offsets[p.doc_id as usize + 1] += 1;
        }
    }
    for d in 0..n {
        offsets[d + 1] += offsets[d];
    }
    let mut fill = offsets.clone();
    let mut entries = vec![(0u32, 0u32); offsets[n]];
    for (t, (_, list)) in corpus.lists.iter().enumerate() {
        let t = u32::try_from(t).map_err(|_| bad("corpus too large"))?;
        for p in list.iter() {
            let d = p.doc_id as usize;
            entries[fill[d]] = (t, p.tf);
            fill[d] += 1;
        }
    }
    let len = |n: usize| u32::try_from(n).map_err(|_| bad("corpus too large"));
    let mut w = BufWriter::new(File::create(path)?);
    write_u32(&mut w, len(corpus.lists.len())?)?;
    for (term, _) in &corpus.lists {
        write_u32(&mut w, len(term.len())?)?;
        w.write_all(term.as_bytes())?;
    }
    write_u32(&mut w, len(n)?)?;
    w.write_all(&(entries.len() as u64).to_le_bytes())?;
    for d in 0..n {
        let doc = &entries[offsets[d]..offsets[d + 1]];
        write_u32(&mut w, corpus.doc_lens[d])?;
        write_u32(&mut w, len(doc.len())?)?;
        for &(t, tf) in doc {
            write_u32(&mut w, t)?;
            write_u32(&mut w, tf)?;
        }
    }
    w.flush()
}

/// Reads a file written by [`write_docs`] front to back, one batch of
/// ingestible documents at a time. Only the vocabulary stays in memory.
#[derive(Debug)]
pub struct DocFeed {
    terms: Vec<String>,
    docs: usize,
    postings: u64,
    read: usize,
    r: BufReader<File>,
}

impl DocFeed {
    /// Opens a document file and reads its vocabulary.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or a malformed header.
    pub fn open(path: &Path) -> std::io::Result<DocFeed> {
        let mut r = BufReader::new(File::open(path)?);
        let n_terms = read_count(&mut r)?;
        let mut terms = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            let mut name = vec![0u8; read_count(&mut r)?];
            r.read_exact(&mut name)?;
            terms.push(String::from_utf8(name).map_err(|_| bad("term is not UTF-8"))?);
        }
        let docs = read_count(&mut r)?;
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        Ok(DocFeed { terms, docs, postings: u64::from_le_bytes(b), read: 0, r })
    }

    /// Documents in the file.
    pub fn len(&self) -> usize {
        self.docs
    }

    /// True when the file holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs == 0
    }

    /// Postings over every document in the file.
    pub fn postings(&self) -> u64 {
        self.postings
    }

    /// The next `n` documents (fewer at the end of the file).
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or a malformed document.
    pub fn next_batch(&mut self, n: usize) -> std::io::Result<Vec<IngestDoc>> {
        let take = n.min(self.docs - self.read);
        let mut out = Vec::with_capacity(take);
        for _ in 0..take {
            let len = read_u32(&mut self.r)?;
            let k = read_count(&mut self.r)?;
            let mut terms = Vec::with_capacity(k);
            for _ in 0..k {
                let t = read_u32(&mut self.r)? as usize;
                let tf = read_u32(&mut self.r)?;
                let term = self.terms.get(t).ok_or_else(|| bad("term index out of range"))?;
                terms.push((term.clone(), tf));
            }
            out.push(IngestDoc::new(len, terms));
        }
        self.read += take;
        Ok(out)
    }
}
