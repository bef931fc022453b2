//! Posting cursors: a forward-only, document-at-a-time view of one
//! compressed list.
//!
//! [`PostingCursor::next_geq`] is the universal list primitive (`nextGEQ`
//! in Pibiri & Venturini's survey of index compression): it binary-searches
//! the skip list for the one block that can hold the target and decodes
//! only that block, so a conjunction decodes only its *candidate* blocks —
//! the paper's intersection flow (§4.2). A cursor that lands on a block's
//! first posting knows its docID from the skip list alone; the block is
//! decoded only when that posting is scored or stepped past.
//!
//! Every decode goes through [`EncodedList::try_decode_block_into`], so a
//! mapped list's deferred record CRC and the typed decode errors apply
//! unchanged. The cursor tallies the work it actually does in its own
//! [`OpCounts`] (see [`PostingCursor::counts`]).

use iiu_index::block::EncodedList;
use iiu_index::score::term_score_fixed;
use iiu_index::{DocId, Fixed, IndexError, InvertedIndex, Posting, TermId};

use crate::ops::OpCounts;

/// The docID of an exhausted cursor. Real docIDs index the per-document
/// length table and never reach it.
pub const END: DocId = DocId::MAX;

/// A forward-only cursor over one term's postings, scoring with the
/// shared Q16.16 BM25 datapath.
///
/// Memory is one decoded block. Blocks are decoded at most once each,
/// in list order.
#[derive(Debug, Clone)]
pub struct PostingCursor<'a> {
    list: &'a EncodedList,
    dl_bars: &'a [Fixed],
    idf: Fixed,
    /// Current block; `list.num_blocks()` once exhausted.
    block: usize,
    /// Whether `buf` holds `block`'s postings. While it does not, the
    /// cursor sits on the block's first posting (`pos == 0`).
    loaded: bool,
    buf: Vec<Posting>,
    pos: usize,
    doc: DocId,
    counts: OpCounts,
}

impl<'a> PostingCursor<'a> {
    /// Opens a cursor on `term`'s list, positioned on its first posting
    /// (or at [`END`] for an empty list). Runs the list's deferred record
    /// checksum first, so a corrupt mapped record fails here with a typed
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::ChecksumMismatch`] for a corrupt mapped record.
    pub fn new(index: &'a InvertedIndex, term: TermId) -> Result<Self, IndexError> {
        index.verify_term(term)?;
        let list = index.encoded_list(term);
        Ok(PostingCursor {
            list,
            dl_bars: index.dl_bars(),
            idf: index.term_info(term).idf_bar,
            block: 0,
            loaded: false,
            buf: Vec::new(),
            pos: 0,
            doc: list.skips().first().copied().unwrap_or(END),
            counts: OpCounts::default(),
        })
    }

    /// The current docID, or [`END`].
    pub fn doc(&self) -> DocId {
        self.doc
    }

    /// Number of postings in the list (the cursor's worst-case work).
    pub fn num_postings(&self) -> u64 {
        self.list.num_postings()
    }

    /// Moves to the first posting with docID `>= target` and returns its
    /// docID ([`END`] when none is left). Never moves backwards: a target
    /// at or before the current docID is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] or
    /// [`IndexError::ChecksumMismatch`] if the block to search fails to
    /// decode.
    pub fn next_geq(&mut self, target: DocId) -> Result<DocId, IndexError> {
        if self.doc >= target {
            return Ok(self.doc);
        }
        let skips = self.list.skips();
        if skips.get(self.block + 1).is_some_and(|&s| s <= target) {
            // The target lies past the current block: find the last block
            // starting at or before it.
            let (mut lo, mut hi) = (self.block + 1, skips.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                self.counts.binary_probes += 1;
                if skips[mid] <= target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            self.enter(lo - 1);
            if self.doc == target {
                return Ok(target);
            }
        }
        // The target lies inside the current block, after the current
        // posting.
        self.load()?;
        let rest = &self.buf[self.pos + 1..];
        let step = if rest.first().is_some_and(|p| p.doc_id >= target) {
            self.counts.comparisons += 1;
            0
        } else {
            self.counts.comparisons += u64::from(usize::BITS - rest.len().leading_zeros());
            rest.partition_point(|p| p.doc_id < target)
        };
        match rest.get(step) {
            Some(p) => {
                self.doc = p.doc_id;
                self.pos += 1 + step;
            }
            // Every remaining posting precedes the target, so the next
            // block's first posting (which starts after it) is the answer.
            None => self.enter(self.block + 1),
        }
        Ok(self.doc)
    }

    /// BM25 score of the current posting. The cursor must not be at
    /// [`END`].
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] if the block fails to decode
    /// or the cursor is exhausted.
    pub fn score(&mut self) -> Result<Fixed, IndexError> {
        self.load()?;
        let p = self.buf[self.pos];
        let dl_bar = *self
            .dl_bars
            .get(p.doc_id as usize)
            .ok_or(IndexError::CorruptIndex { context: "posting docID out of range" })?;
        self.counts.docs_scored += 1;
        Ok(term_score_fixed(self.idf, dl_bar, p.tf))
    }

    /// The work done so far: blocks and postings decoded, skip-list
    /// probes, in-block comparisons, documents scored, and every block
    /// never decoded as `blocks_skipped`.
    pub fn counts(&self) -> OpCounts {
        OpCounts {
            blocks_skipped: self.list.num_blocks() as u64 - self.counts.blocks_decoded,
            ..self.counts
        }
    }

    /// Positions the cursor, undecoded, on block `b`'s first posting (or
    /// at [`END`] past the last block).
    fn enter(&mut self, b: usize) {
        self.block = b;
        self.loaded = false;
        self.pos = 0;
        self.doc = self.list.skips().get(b).copied().unwrap_or(END);
    }

    fn load(&mut self) -> Result<(), IndexError> {
        if self.loaded {
            return Ok(());
        }
        self.buf.clear();
        self.list.try_decode_block_into(self.block, &mut self.buf)?;
        if self.buf.is_empty() {
            return Err(IndexError::CorruptIndex { context: "empty block" });
        }
        self.loaded = true;
        self.counts.blocks_decoded += 1;
        self.counts.postings_decoded += self.buf.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiu_index::{BuildOptions, IndexBuilder, Partitioner};
    use proptest::prelude::*;

    /// Docs over words `w0..w3` with blocks of 4 postings, so lists span
    /// several blocks.
    fn index(docs: &[Vec<u8>]) -> InvertedIndex {
        let mut b = IndexBuilder::new(BuildOptions {
            partitioner: Partitioner::fixed(4),
            ..Default::default()
        });
        for doc in docs {
            let text: Vec<String> = doc.iter().map(|t| format!("w{t}")).collect();
            b.add_document(&text.join(" "));
        }
        b.build()
    }

    #[test]
    fn next_geq_on_a_skip_value_decodes_nothing() {
        let docs: Vec<Vec<u8>> = (0..40).map(|_| vec![0]).collect();
        let idx = index(&docs);
        let id = idx.term_id("w0").unwrap();
        let mut c = PostingCursor::new(&idx, id).unwrap();
        assert_eq!(c.doc(), 0);
        // Docs 0..40 in blocks of 4: doc 20 starts block 5.
        assert_eq!(c.next_geq(20).unwrap(), 20);
        assert_eq!(c.counts().blocks_decoded, 0);
        assert_eq!(c.next_geq(22).unwrap(), 22);
        assert_eq!(c.counts().blocks_decoded, 1);
        // Past the last docID: only the last block can tell.
        assert_eq!(c.next_geq(40).unwrap(), END);
        let counts = c.counts();
        assert_eq!(counts.blocks_decoded, 2);
        assert_eq!(counts.blocks_skipped, 8);
    }

    proptest! {
        /// Any increasing target sequence visits exactly the postings the
        /// decoded list says it should, with the exhaustive scores.
        #[test]
        fn prop_next_geq_matches_the_decoded_list(
            docs in proptest::collection::vec(proptest::collection::vec(0u8..4, 1..6), 1..60),
            steps in proptest::collection::vec(1u32..9, 1..40),
        ) {
            let idx = index(&docs);
            for id in 0..idx.num_terms() as TermId {
                let list = idx.encoded_list(id).decode_all();
                let idf = idx.term_info(id).idf_bar;
                let mut c = PostingCursor::new(&idx, id).unwrap();
                let mut target = 0;
                for &s in &steps {
                    target += s;
                    let want = list.as_slice().iter().find(|p| p.doc_id >= target);
                    let got = c.next_geq(target).unwrap();
                    prop_assert_eq!(got, want.map_or(END, |p| p.doc_id));
                    if let Some(p) = want {
                        let score = term_score_fixed(idf, idx.dl_bar(p.doc_id), p.tf);
                        prop_assert_eq!(c.score().unwrap(), score);
                    }
                }
                let counts = c.counts();
                prop_assert!(counts.blocks_decoded <= idx.encoded_list(id).num_blocks() as u64);
            }
        }
    }
}
