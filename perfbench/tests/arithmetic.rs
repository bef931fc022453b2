//! The benchmark's own arithmetic: percentile selection, span self time
//! and failure accounting; and the per-document regrouping of the corpus
//! the `live_ingest` feed reads.

use iiu_perfbench::stats::{median, percentile, Tally};
use iiu_perfbench::trace::{self_times, Span};

#[test]
fn percentile_at_small_sample_counts() {
    assert_eq!(percentile(&[], 0.5), None);
    // One sample answers every percentile.
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(percentile(&[7], q), Some(7));
    }
    // Nearest rank: the smallest sample with at least q of all at or below.
    let two = [10, 20];
    assert_eq!(percentile(&two, 0.5), Some(10));
    assert_eq!(percentile(&two, 0.51), Some(20));
    assert_eq!(percentile(&two, 0.99), Some(20));
    let ten: Vec<u64> = (1..=10).collect();
    assert_eq!(percentile(&ten, 0.5), Some(5));
    assert_eq!(percentile(&ten, 0.9), Some(9));
    assert_eq!(percentile(&ten, 0.99), Some(10));
    assert_eq!(percentile(&ten, 0.0), Some(1));
    let hundred: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&hundred, 0.99), Some(99));
    assert_eq!(percentile(&hundred, 0.999), Some(100));
    // Out-of-range and NaN quantiles are clamped, never out of bounds.
    assert_eq!(percentile(&ten, 1.5), Some(10));
    assert_eq!(percentile(&ten, -1.0), Some(1));
    assert_eq!(percentile(&ten, f64::NAN), Some(1));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span { name: "s", start_ns, end_ns, parent, query: 0 }
}

#[test]
fn self_time_subtracts_nested_children_once() {
    // root [0,100) > child [10,60) > grandchild [20,40); sibling [70,80).
    let spans = vec![
        span(0, 100, None),
        span(10, 60, Some(0)),
        span(20, 40, Some(1)),
        span(70, 80, Some(0)),
    ];
    // Root loses only its direct children's 50 + 10 ns; the grandchild is
    // already inside the child and is charged to the child alone.
    assert_eq!(self_times(&spans), vec![40, 30, 20, 10]);
}

#[test]
fn self_time_counts_overlapping_children_as_their_union() {
    // Two children from different threads overlap on [30,50).
    let spans = vec![span(0, 100, None), span(10, 50, Some(0)), span(30, 70, Some(0))];
    assert_eq!(self_times(&spans), vec![40, 40, 40]);
    // A child sticking out of its parent only covers the shared part, and
    // fully covering children leave no self time (never negative).
    let spans = vec![span(100, 200, None), span(50, 150, Some(0)), span(140, 260, Some(0))];
    assert_eq!(self_times(&spans)[0], 0);
    let spans = vec![span(0, 10, None), span(0, 10, Some(0)), span(0, 10, Some(0))];
    assert_eq!(self_times(&spans)[0], 0);
}

#[test]
fn self_time_without_children_is_the_duration() {
    let spans = vec![span(5, 9, None), span(9, 9, None)];
    assert_eq!(self_times(&spans), vec![4, 0]);
}

#[test]
fn failed_frac_counts_rejections_and_mismatches_together() {
    let mut t = Tally::default();
    for _ in 0..6 {
        t.record(false, false);
    }
    t.record(true, false); // rejected
    t.record(true, false); // rejected
    t.record(false, true); // wrong answer
    t.record(true, true); // both: one failed operation, counted in each cause
    assert_eq!((t.attempted, t.rejected, t.mismatched, t.failed), (10, 3, 2, 4));
    assert!((t.failed_frac() - 0.4).abs() < 1e-12);

    // Merging keeps every count, so queries, ingest batches and post-run
    // checks add up to one fraction.
    let mut batches = Tally::default();
    batches.record(true, false);
    batches.record(false, false);
    t.merge(&batches);
    assert_eq!((t.attempted, t.failed), (12, 5));
    assert!((t.failed_frac() - 5.0 / 12.0).abs() < 1e-12);
    assert_eq!(Tally::default().failed_frac(), 0.0);
}

#[test]
fn doc_feed_regroups_the_corpus_per_document_in_order() {
    use iiu_index::{Posting, PostingList};
    use iiu_perfbench::inputs::{write_docs, DocFeed};
    use iiu_workloads::GeneratedCorpus;

    let list = |p: &[(u32, u32)]| {
        PostingList::from_sorted(p.iter().map(|&(d, tf)| Posting::new(d, tf)).collect())
    };
    let corpus = GeneratedCorpus {
        lists: vec![
            ("a".to_string(), list(&[(0, 2), (1, 1), (2, 5)])),
            ("b".to_string(), list(&[(1, 3)])),
            ("c".to_string(), list(&[(0, 1), (2, 1)])),
        ],
        doc_lens: vec![3, 4, 6],
    };
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("feed.bin");
    write_docs(&path, &corpus).expect("writes");
    let mut feed = DocFeed::open(&path).expect("opens");
    assert_eq!((feed.len(), feed.postings()), (3, 6));
    let first = feed.next_batch(2).expect("reads");
    let rest = feed.next_batch(5).expect("reads");
    assert!(feed.next_batch(1).expect("reads").is_empty());
    let docs: Vec<(u32, Vec<(String, u32)>)> =
        first.iter().chain(&rest).map(|d| (d.len(), d.terms().to_vec())).collect();
    let pairs = |p: &[(&str, u32)]| p.iter().map(|&(t, tf)| (t.to_string(), tf)).collect();
    assert_eq!(
        docs,
        vec![
            (3, pairs(&[("a", 2), ("c", 1)])),
            (4, pairs(&[("a", 1), ("b", 3)])),
            (6, pairs(&[("a", 5), ("c", 1)])),
        ]
    );
    std::fs::remove_file(&path).ok();
}
