//! Binary index file format: its layout, its one writer, and the heap
//! loaders.
//!
//! The host's `init(file invFile)` primitive (paper §4.1) loads the inverted
//! index from a file into the memory region the accelerator reads. This
//! module defines that file format: a little-endian, sectioned layout with a
//! magic/version word, the BM25 parameters, the document-length table, and
//! one record per term (name, metadata words, skip values, payload bytes).
//!
//! # Format v4
//!
//! ```text
//! magic/version            u64   (MAGIC, not covered by a section CRC)
//! header                   k1 f64 · b f64 · partitioner (u8 kind + u32 arg)
//!                          · codec u8
//!                          · num_docs u64 · num_terms u64      + crc32 u32
//! doc-length table         num_docs × u32                      + crc32 u32
//! term record (× num_terms)
//!                          name_len u32 · name bytes
//!                          · num_postings u64 · num_blocks u64
//!                          · num_blocks × meta u64
//!                          · num_blocks × skip u32
//!                          · payload_len u64 · payload bytes   + crc32 u32
//! score bounds             per term: num_blocks u64
//!                          · num_blocks × (ub_raw u32 · max_tf u32)
//!                          whole section                       + crc32 u32
//! footer                   crc32 u32 over every preceding byte
//! ```
//!
//! The codec byte names the [`CodecId`] every payload is encoded with. A
//! shard manifest ([`MAGIC_SHARD_V3`]) carries the same header, doc table
//! and term records once per shard.
//!
//! Each section's bytes come from one function here; [`serialize`] is
//! [`StreamingWriter`] writing into a `Vec`. Every reader is the one parser
//! in [`crate::storage`], whose module docs state the integrity contract:
//! what the parser checks eagerly, what it checks lazily on first touch,
//! and what [`deserialize`] and [`InvertedIndex::validate`] add. Earlier
//! formats (plain v1–v3, manifest v1–v2) are refused with
//! [`IndexError::UnsupportedFormat`], like any unknown magic.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;

use crate::block::EncodedList;
use crate::bounds::ListBounds;
use crate::checksum::{crc32, Crc32};
use crate::codec::CodecId;
use crate::error::IndexError;
use crate::index::{InvertedIndex, TermId};
use crate::mmap::Mmap;
use crate::partition::Partitioner;
use crate::posting::PostingList;
use crate::score::{Bm25Params, Fixed};
use crate::shard::ShardedIndex;
use crate::storage::{self, Reader};

/// Little-endian append helpers over the output buffer (the serialized
/// format is defined in terms of these primitives).
trait PutLe {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_f64_le(&mut self, v: f64);
    fn put_slice(&mut self, s: &[u8]);
}

impl PutLe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

/// Magic + version identifying the plain index format ("IIUX" + 0x0004).
pub const MAGIC: u64 = 0x4949_5558_0000_0004;

/// Magic + version of the shard-manifest format ("IIUS" + 0x0003).
///
/// A shard manifest is *not* N concatenated plain files: every shard is
/// built with the global collection statistics (avgdl, per-term idf̄),
/// which cannot be recomputed from a shard's own postings. The manifest
/// therefore carries those statistics once, up front, followed by one
/// checksummed body (the v4 header + doc table + term records) per
/// shard:
///
/// ```text
/// magic/version      u64  (MAGIC_SHARD_V3)
/// shard header       num_shards u32 · global num_docs u64 · avgdl f64
///                    · parent partitioner (u8 kind + u32 arg)
///                    · num_terms u64 · num_terms × idf̄ raw u32
///                    · num_shards × body byte-length u64        + crc32
/// shard body (× N)   header · doc-length table · term records
/// footer             crc32 u32 over every preceding byte
/// ```
///
/// The body-length table lets [`scan_sharded`] locate every shard body
/// independently, so a single corrupt shard is reported as *that shard*
/// failing its CRC cross-check while the remaining shards still get
/// scanned.
///
/// Per-shard score bounds are derived data (recomputed from the postings
/// plus the manifest's global statistics on load), so they are not stored.
pub const MAGIC_SHARD_V3: u64 = 0x4949_5553_0000_0003;

/// Appends a section CRC over `buf[start..]`.
fn seal_section(buf: &mut Vec<u8>, start: usize) {
    let crc = crc32(&buf[start..]);
    buf.put_u32_le(crc);
}

fn put_partitioner(buf: &mut Vec<u8>, partitioner: Partitioner) {
    let (kind, arg) = match partitioner {
        Partitioner::Fixed { block_len } => (0, block_len),
        Partitioner::Dynamic { max_size } => (1, max_size),
    };
    buf.put_u8(kind);
    buf.put_u32_le(arg as u32);
}

/// Writes the sealed header section of a plain file or shard body.
fn write_header(
    buf: &mut Vec<u8>,
    params: Bm25Params,
    partitioner: Partitioner,
    codec: CodecId,
    num_docs: u64,
    num_terms: u64,
) {
    let start = buf.len();
    buf.put_f64_le(params.k1);
    buf.put_f64_le(params.b);
    put_partitioner(buf, partitioner);
    buf.put_u8(codec.as_u8());
    buf.put_u64_le(num_docs);
    buf.put_u64_le(num_terms);
    seal_section(buf, start);
}

/// Writes the sealed document-length table.
fn write_doc_table(buf: &mut Vec<u8>, doc_lens: &[u32]) {
    let start = buf.len();
    buf.reserve(doc_lens.len() * 4 + 4);
    for &l in doc_lens {
        buf.put_u32_le(l);
    }
    seal_section(buf, start);
}

/// Writes one sealed term record.
fn write_term_record(buf: &mut Vec<u8>, term: &str, list: &EncodedList) {
    let start = buf.len();
    buf.put_u32_le(term.len() as u32);
    buf.put_slice(term.as_bytes());
    buf.put_u64_le(list.num_postings());
    buf.put_u64_le(list.num_blocks() as u64);
    for meta in list.metas() {
        buf.put_u64_le(meta.pack());
    }
    for &skip in list.skips() {
        buf.put_u32_le(skip);
    }
    buf.put_u64_le(list.payload().len() as u64);
    buf.put_slice(list.payload());
    seal_section(buf, start);
}

/// Appends one term's entry of the score-bounds section (the section is
/// sealed once, after its last entry).
fn write_bounds_entry(buf: &mut Vec<u8>, bounds: &ListBounds) {
    buf.put_u64_le(bounds.num_blocks() as u64);
    for (ub, &max_tf) in bounds.ubs().iter().zip(bounds.max_tfs()) {
        buf.put_u32_le(ub.raw());
        buf.put_u32_le(max_tf);
    }
}

/// Serializes `index` to bytes in format v4 (the index's block codec is
/// recorded in the CRC-protected header).
///
/// # Errors
///
/// Never fails for a well-formed index; the `Result` is the writer's
/// ([`StreamingWriter`] into a `Vec`, whose term count check cannot trip).
pub fn serialize(index: &InvertedIndex) -> Result<Vec<u8>, IndexError> {
    let mut writer = StreamingWriter::new(
        Vec::new(),
        index.doc_lens(),
        index.num_terms() as u64,
        index.partitioner(),
        index.params(),
        index.codec(),
    )?;
    for (id, info) in index.terms().iter().enumerate() {
        let id = id as TermId;
        writer.push_encoded(&info.term, index.encoded_list(id), index.list_bounds(id))?;
    }
    writer.finish()
}

/// Serializes a sharded index as a shard manifest (see
/// [`MAGIC_SHARD_V3`] for the layout).
///
/// # Errors
///
/// Returns [`IndexError::CorruptIndex`] if the sharded index has no
/// shards or its shard dictionaries disagree.
pub fn serialize_sharded(sharded: &ShardedIndex) -> Result<Vec<u8>, IndexError> {
    let Some(first) = sharded.shards().first() else {
        return Err(IndexError::CorruptIndex { context: "sharded index has no shards" });
    };
    // Render each body up front so the header can carry its byte length
    // (the table scan_sharded uses to address shards independently).
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(sharded.num_shards());
    for shard in sharded.shards() {
        if shard.num_terms() != first.num_terms() {
            return Err(IndexError::CorruptIndex { context: "shard dictionaries disagree" });
        }
        let mut body = Vec::new();
        write_header(
            &mut body,
            shard.params(),
            shard.partitioner(),
            shard.codec(),
            shard.num_docs(),
            shard.num_terms() as u64,
        );
        write_doc_table(&mut body, shard.doc_lens());
        for (id, info) in shard.terms().iter().enumerate() {
            write_term_record(&mut body, &info.term, shard.encoded_list(id as TermId));
        }
        bodies.push(body);
    }

    let mut buf = Vec::new();
    buf.put_u64_le(MAGIC_SHARD_V3);

    let header_start = buf.len();
    buf.put_u32_le(sharded.num_shards() as u32);
    buf.put_u64_le(sharded.num_docs());
    buf.put_f64_le(first.avgdl());
    put_partitioner(&mut buf, sharded.parent_partitioner());
    buf.put_u64_le(first.num_terms() as u64);
    for info in first.terms() {
        buf.put_u32_le(info.idf_bar.raw());
    }
    for body in &bodies {
        buf.put_u64_le(body.len() as u64);
    }
    seal_section(&mut buf, header_start);

    for body in &bodies {
        buf.put_slice(body);
    }

    let footer = crc32(&buf);
    buf.put_u32_le(footer);
    Ok(buf)
}

/// Streams a format-v4 index file one term at a time without ever
/// holding the whole index — or the whole file — in memory. [`serialize`]
/// is this writer over a `Vec`.
///
/// The v4 header carries `num_docs`/`num_terms` and the footer CRC
/// covers every preceding byte, so construction takes the complete
/// document-length table and the term count up front and immediately
/// emits magic, header, and doc table while folding them into a running
/// [`Crc32`]. Each [`push_term`](Self::push_term) call then encodes one
/// posting list, writes its sealed record, and appends that list's
/// score-bounds entry; [`finish`](Self::finish) emits the bounds section
/// and the footer. Peak memory is one encoded list plus the per-document
/// (4 + 4 bytes/doc) and per-block (8 bytes/block) tables —
/// independent of the total posting count, which is what lets `iiu gen`
/// stream a million-document corpus to disk with bounded RSS.
///
/// Terms must be pushed in the order the index's dictionary should
/// assign term ids (the synthetic corpus generator's rank order).
pub struct StreamingWriter<W: std::io::Write> {
    sink: W,
    /// Running checksum over every byte emitted so far (the footer).
    footer: Crc32,
    params: Bm25Params,
    partitioner: Partitioner,
    codec: CodecId,
    n_docs: u64,
    /// Per-document `dl̄` table, shared by every list's bound computation.
    dl_bars: Vec<Fixed>,
    /// The score-bounds section so far, sealed and emitted by `finish`.
    bounds: Vec<u8>,
    /// Reused buffer each section is rendered into before it is emitted.
    scratch: Vec<u8>,
    expected_terms: u64,
    written_terms: u64,
}

impl<W: std::io::Write> StreamingWriter<W> {
    /// Opens a streamed v4 file: writes magic, sealed header, and sealed
    /// doc-length table to `sink`. Exactly `num_terms` calls to
    /// [`push_term`](Self::push_term) must follow before
    /// [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Io`] if the sink rejects a write.
    pub fn new(
        sink: W,
        doc_lens: &[u32],
        num_terms: u64,
        partitioner: Partitioner,
        params: Bm25Params,
        codec: CodecId,
    ) -> Result<Self, IndexError> {
        let n_docs = doc_lens.len() as u64;
        let avgdl = if doc_lens.is_empty() {
            1.0
        } else {
            doc_lens.iter().map(|&l| f64::from(l)).sum::<f64>() / n_docs as f64
        };
        let dl_bars: Vec<Fixed> =
            doc_lens.iter().map(|&l| Fixed::from_f64(params.dl_bar(l, avgdl))).collect();

        let mut writer = StreamingWriter {
            sink,
            footer: Crc32::new(),
            params,
            partitioner,
            codec,
            n_docs,
            dl_bars,
            bounds: Vec::new(),
            scratch: Vec::new(),
            expected_terms: num_terms,
            written_terms: 0,
        };
        writer.emit(|buf| {
            buf.put_u64_le(MAGIC);
            write_header(buf, params, partitioner, codec, n_docs, num_terms);
            write_doc_table(buf, doc_lens);
        })?;
        Ok(writer)
    }

    /// Encodes `list`, writes its sealed term record, and accumulates its
    /// score bounds. The term is assigned the next term id.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] on a docID beyond the corpus
    /// or when more terms are pushed than the header declares, encoding
    /// errors from [`EncodedList::encode_with`] verbatim, and
    /// [`IndexError::Io`] if the sink rejects the write.
    pub fn push_term(&mut self, term: &str, list: &PostingList) -> Result<(), IndexError> {
        if let Some(last) = list.as_slice().last() {
            if u64::from(last.doc_id) >= self.n_docs {
                return Err(IndexError::CorruptIndex {
                    context: "posting list references docID beyond corpus",
                });
            }
        }
        let idf_bar = Fixed::from_f64(self.params.idf_bar(self.n_docs, list.len() as u64));
        let partition = self.partitioner.partition_for(list, self.codec);
        let encoded = EncodedList::encode_with(list, &partition, self.codec)?;
        let bounds = ListBounds::compute(list.as_slice(), &partition, idf_bar, &self.dl_bars);
        self.push_encoded(term, &encoded, &bounds)
    }

    /// Writes an already-encoded list and its score bounds as the next
    /// term (how [`serialize`] writes an index it holds in memory).
    fn push_encoded(
        &mut self,
        term: &str,
        list: &EncodedList,
        bounds: &ListBounds,
    ) -> Result<(), IndexError> {
        if self.written_terms == self.expected_terms {
            return Err(IndexError::CorruptIndex {
                context: "more streamed terms than the header declares",
            });
        }
        write_bounds_entry(&mut self.bounds, bounds);
        self.emit(|buf| write_term_record(buf, term, list))?;
        self.written_terms += 1;
        Ok(())
    }

    /// Writes the sealed score-bounds section and the footer CRC, flushes,
    /// and returns the sink.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] if fewer terms were pushed
    /// than the header declares, and [`IndexError::Io`] on sink errors.
    pub fn finish(mut self) -> Result<W, IndexError> {
        if self.written_terms != self.expected_terms {
            return Err(IndexError::CorruptIndex {
                context: "fewer streamed terms than the header declares",
            });
        }
        let section = std::mem::take(&mut self.bounds);
        self.emit(|buf| {
            buf.put_slice(&section);
            seal_section(buf, 0);
        })?;

        // The footer covers everything already emitted and is itself
        // outside the running checksum.
        let footer = self.footer.finish();
        self.sink.write_all(&footer.to_le_bytes()).map_err(stream_io_err)?;
        self.sink.flush().map_err(stream_io_err)?;
        Ok(self.sink)
    }

    /// Renders bytes into the scratch buffer, writes them to the sink and
    /// folds them into the footer CRC.
    fn emit(&mut self, render: impl FnOnce(&mut Vec<u8>)) -> Result<(), IndexError> {
        self.scratch.clear();
        render(&mut self.scratch);
        self.footer.update(&self.scratch);
        self.sink.write_all(&self.scratch).map_err(stream_io_err)
    }
}

/// Maps a sink write failure to the typed I/O error.
fn stream_io_err(e: std::io::Error) -> IndexError {
    IndexError::Io { context: "writing streamed index file", message: e.to_string() }
}

/// Whether `bytes` starts with the shard-manifest magic — the dispatch
/// probe loaders use to pick [`deserialize_sharded`] over [`deserialize`].
pub fn is_sharded(bytes: &[u8]) -> bool {
    bytes.get(..8).is_some_and(|m| m == MAGIC_SHARD_V3.to_le_bytes())
}

/// Holds `bytes` in an owned buffer the parser can lend payload windows of.
fn owned(bytes: &[u8]) -> Arc<Mmap> {
    Arc::new(Mmap::from_vec(bytes.to_vec()))
}

/// Checks the whole-file footer: the CRC of every byte before it.
fn verify_footer(bytes: &[u8]) -> Result<(), IndexError> {
    let n =
        bytes.len().checked_sub(4).ok_or(IndexError::CorruptIndex { context: "footer" })?;
    let expected = u32::from_le_bytes([bytes[n], bytes[n + 1], bytes[n + 2], bytes[n + 3]]);
    let found = crc32(&bytes[..n]);
    if expected != found {
        return Err(IndexError::ChecksumMismatch { section: "footer", expected, found });
    }
    Ok(())
}

/// Loads an index file written by [`serialize`] onto the heap: the
/// parser of [`crate::storage`] over an owned copy of `bytes`, then
/// [`InvertedIndex::validate`] and the footer CRC. The index reports a
/// `heap` source.
///
/// # Errors
///
/// Returns [`IndexError::UnsupportedFormat`] on any magic/version word but
/// [`MAGIC`], [`IndexError::UnknownCodec`] when the header names a codec
/// this build doesn't know, [`IndexError::ChecksumMismatch`] when a section
/// or the footer checksum fails, and [`IndexError::CorruptIndex`] on
/// truncated or inconsistent content — including a score-bounds section
/// that passes its CRC but disagrees with the bounds recomputed from the
/// postings.
pub fn deserialize(bytes: &[u8]) -> Result<InvertedIndex, IndexError> {
    let index = storage::map_index_from(owned(bytes))?;
    index.validate()?;
    verify_footer(bytes)?;
    Ok(index)
}

/// Loads a shard manifest written by [`serialize_sharded`] onto the heap,
/// with the same checks as [`deserialize`]: the parser, then
/// [`ShardedIndex::validate`] and the footer CRC.
///
/// # Errors
///
/// Returns [`IndexError::UnsupportedFormat`] on any magic but
/// [`MAGIC_SHARD_V3`], [`IndexError::ChecksumMismatch`] when a section
/// checksum fails, and [`IndexError::CorruptIndex`] on truncated or
/// inconsistent content.
pub fn deserialize_sharded(bytes: &[u8]) -> Result<ShardedIndex, IndexError> {
    let sharded = storage::map_sharded_from(owned(bytes))?;
    sharded.validate()?;
    verify_footer(bytes)?;
    Ok(sharded)
}

/// Cheaply reads the codec id a plain index file's payloads are encoded
/// with, verifying only the magic and the header-section CRC (no payload
/// decode).
///
/// # Errors
///
/// Returns [`IndexError::UnsupportedFormat`] on any magic but [`MAGIC`],
/// [`IndexError::ChecksumMismatch`] on a corrupt header, and
/// [`IndexError::UnknownCodec`] on a codec id this build doesn't know.
pub fn peek_codec(bytes: &[u8]) -> Result<CodecId, IndexError> {
    let mut r = Reader::new(bytes);
    storage::expect_magic(&mut r, MAGIC)?;
    Ok(storage::parse_header(&mut r)?.codec)
}

/// CRC cross-check result for one shard body in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardBodyStatus {
    /// The body parsed and passed [`InvertedIndex::validate`].
    Ok {
        /// Documents in this shard's doc-length table.
        docs: u64,
        /// Total postings across this shard's term records.
        postings: u64,
    },
    /// The body failed its CRC cross-check (or was structurally invalid).
    Corrupt {
        /// The typed rejection.
        error: IndexError,
    },
}

/// Per-shard integrity report over a shard manifest, produced by
/// [`scan_sharded`] without aborting on the first bad shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardScanReport {
    /// Manifest format version: always 3, the only one this build reads.
    pub version: u32,
    /// Shard count claimed by the (CRC-verified) header.
    pub num_shards: usize,
    /// Global document count claimed by the header.
    pub num_docs: u64,
    /// One status per shard body.
    pub shards: Vec<ShardBodyStatus>,
    /// Whether the whole-file footer CRC held (always `false` when any
    /// body is corrupt — the footer covers every body byte).
    pub footer_ok: bool,
}

impl ShardScanReport {
    /// Whether every shard body verified and the footer held.
    pub fn is_clean(&self) -> bool {
        self.footer_ok && self.shards.iter().all(|s| matches!(s, ShardBodyStatus::Ok { .. }))
    }

    /// Indices of shards whose body failed verification.
    pub fn corrupt_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, ShardBodyStatus::Corrupt { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// The round-robin document count shard `s` must hold for the
    /// header's global count (`ShardedIndex::validate`'s invariant).
    pub fn expected_docs(&self, s: usize) -> u64 {
        let n = self.num_shards as u64;
        (self.num_docs + n - 1 - s as u64) / n
    }
}

/// Scans a shard manifest, CRC-cross-checking every shard body
/// *independently* instead of erroring on the first bad one.
///
/// The header's body-length table addresses each body directly, so one
/// corrupt shard leaves the others scannable. Each body goes through the
/// parser of [`crate::storage`] and then [`InvertedIndex::validate`], so
/// [`ShardBodyStatus::Ok`] means every record CRC held.
///
/// # Errors
///
/// Returns [`IndexError::UnsupportedFormat`] on any magic but
/// [`MAGIC_SHARD_V3`] and a typed error if the *header* itself is
/// unreadable — without a valid header there is no shard layout to scan.
pub fn scan_sharded(bytes: &[u8]) -> Result<ShardScanReport, IndexError> {
    let map = owned(bytes);
    let (header, mut start) = storage::parse_manifest_header(bytes)?;
    let mut shards = Vec::with_capacity(header.body_lens.len());
    for &len in &header.body_lens {
        let end = match storage::shard_body_end(start, len, bytes.len()) {
            Ok(end) => end,
            Err(error) => {
                shards.push(ShardBodyStatus::Corrupt { error });
                continue;
            }
        };
        let scanned = storage::parse_shard(&map, &header, start, end)
            .and_then(|shard| shard.validate().map(|()| shard));
        shards.push(match scanned {
            Ok(shard) => ShardBodyStatus::Ok {
                docs: shard.num_docs(),
                postings: shard.terms().iter().map(|t| t.df).sum(),
            },
            Err(error) => ShardBodyStatus::Corrupt { error },
        });
        start = end;
    }
    Ok(ShardScanReport {
        version: 3,
        num_shards: header.body_lens.len(),
        num_docs: header.n_docs,
        shards,
        footer_ok: start + 4 == bytes.len() && verify_footer(bytes).is_ok(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildOptions, IndexBuilder};

    fn sample_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(BuildOptions::default());
        b.add_document("the quick brown fox jumps over the lazy dog");
        b.add_document("pack my box with five dozen liquor jugs");
        b.add_document("the five boxing wizards jump quickly");
        b.add_document("quick wizards pack the box");
        b.build()
    }

    #[test]
    fn roundtrip_preserves_index() {
        let idx = sample_index();
        let bytes = serialize(&idx).unwrap();
        let back = deserialize(&bytes).unwrap();
        assert_eq!(idx, back);
    }

    #[test]
    fn stored_bounds_cross_check_catches_consistent_tampering() {
        // Tamper with a stored block bound, then recompute the section CRC
        // and footer so every checksum passes. The recomputation oracle
        // must still reject the file — CRCs can't catch a file that was
        // *written* wrong.
        let idx = sample_index();
        let mut bytes = serialize(&idx).unwrap().to_vec();
        let n = bytes.len();
        let bounds_len: usize = idx.bounds().iter().map(|b| 8 + b.num_blocks() * 8).sum();
        let content_start = n - 8 - bounds_len;
        // First term's first block ub, low byte (right after its num_blocks).
        bytes[content_start + 8] ^= 0x01;
        let crc = crc32(&bytes[content_start..n - 8]);
        bytes[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
        let footer = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&footer.to_le_bytes());
        assert!(matches!(
            deserialize(&bytes),
            Err(IndexError::CorruptIndex { context: "score bounds mismatch" })
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = serialize(&sample_index()).unwrap().to_vec();
        bytes[0] ^= 0xff;
        assert!(matches!(deserialize(&bytes), Err(IndexError::UnsupportedFormat { .. })));
    }

    #[test]
    fn rejects_unknown_future_version() {
        let mut bytes = serialize(&sample_index()).unwrap().to_vec();
        bytes[0] = 0x05; // "IIUX" + 0x0005
        assert!(matches!(
            deserialize(&bytes),
            Err(IndexError::UnsupportedFormat { found }) if found & 0xffff == 5
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = serialize(&sample_index()).unwrap().to_vec();
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let r = deserialize(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must be rejected");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = serialize(&sample_index()).unwrap().to_vec();
        bytes.push(0);
        assert!(matches!(
            deserialize(&bytes),
            Err(IndexError::CorruptIndex { context: "trailing bytes" })
        ));
    }

    #[test]
    fn every_bit_flip_is_detected() {
        // With per-section CRCs plus a whole-file footer, any single-bit
        // flip anywhere in the file must be rejected.
        let bytes = serialize(&sample_index()).unwrap().to_vec();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << (byte % 8);
            assert!(
                deserialize(&flipped).is_err(),
                "bit flip at byte {byte} was silently accepted"
            );
        }
    }

    #[test]
    fn checksum_error_names_the_section() {
        let idx = sample_index();
        let bytes = serialize(&idx).unwrap().to_vec();
        // Flip a doc-length byte: header is 8 (magic) + 38 + 4 bytes in.
        let mut corrupt = bytes.clone();
        corrupt[8 + 38 + 4 + 1] ^= 0x10;
        match deserialize(&corrupt) {
            Err(IndexError::ChecksumMismatch { section, expected, found }) => {
                assert_eq!(section, "doc length table");
                assert_ne!(expected, found);
            }
            other => panic!("expected doc-length checksum failure, got {other:?}"),
        }
        // Flip a byte in the header (k1).
        let mut corrupt = bytes.clone();
        corrupt[9] ^= 0x01;
        match deserialize(&corrupt) {
            Err(IndexError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, "header");
            }
            other => panic!("expected header checksum failure, got {other:?}"),
        }
        // Flip a byte of the first term record (its name byte at offset
        // 8 magic + 38 header + 4 crc + 16 doc table + 4 crc + 4 name_len).
        let mut corrupt = bytes.clone();
        corrupt[8 + 38 + 4 + 16 + 4 + 4] ^= 0x04;
        match deserialize(&corrupt) {
            Err(
                IndexError::ChecksumMismatch { section: "term record", .. }
                | IndexError::CorruptIndex { .. },
            ) => {}
            other => panic!("expected term-record failure, got {other:?}"),
        }
        // Flip the last score-bounds byte before its checksum: the file
        // ends [bounds content][bounds crc 4][footer 4].
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n - 9] ^= 0x80;
        match deserialize(&corrupt) {
            Err(IndexError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, "score bounds");
            }
            other => panic!("expected score-bounds checksum failure, got {other:?}"),
        }
    }

    /// Byte offsets of every section boundary in a v4 file, in order, each
    /// labeled with the context/section expected when the file is cut
    /// *inside* the following section.
    fn v4_section_boundaries(index: &InvertedIndex) -> Vec<(usize, &'static str)> {
        let mut bounds = Vec::new();
        let mut pos = 0usize;
        bounds.push((pos, "magic"));
        pos += 8;
        bounds.push((pos, "header"));
        pos += 38;
        bounds.push((pos, "header checksum"));
        pos += 4;
        bounds.push((pos, "doc length table"));
        pos += index.doc_lens().len() * 4;
        bounds.push((pos, "doc length checksum"));
        pos += 4;
        for info in index.terms() {
            let list = index.encoded_list(index.term_id(&info.term).unwrap());
            bounds.push((pos, "term record"));
            pos += 4
                + info.term.len()
                + 8
                + 8
                + list.num_blocks() * 12
                + 8
                + list.payload().len();
            bounds.push((pos, "term record checksum"));
            pos += 4;
        }
        bounds.push((pos, "score bounds"));
        for b in index.bounds() {
            pos += 8 + b.num_blocks() * 8;
        }
        bounds.push((pos, "score bounds checksum"));
        pos += 4;
        bounds.push((pos, "footer"));
        bounds
    }

    #[test]
    fn truncation_context_names_the_right_section() {
        let idx = sample_index();
        let bytes = serialize(&idx).unwrap().to_vec();
        let bounds = v4_section_boundaries(&idx);
        assert_eq!(bounds.last().unwrap().0 + 4, bytes.len(), "boundary math");
        for &(at, expect) in &bounds {
            // Cutting exactly at a boundary fails while *needing* the next
            // section, so the context must name it.
            match deserialize(&bytes[..at]) {
                Err(IndexError::CorruptIndex { context }) => {
                    assert_eq!(context, expect, "cut at {at}");
                }
                other => panic!("cut at {at}: expected CorruptIndex, got {other:?}"),
            }
        }
    }

    fn sample_sharded() -> ShardedIndex {
        ShardedIndex::split(&sample_index(), 3).unwrap()
    }

    #[test]
    fn sharded_roundtrip_preserves_every_shard() {
        let sharded = sample_sharded();
        let bytes = serialize_sharded(&sharded).unwrap();
        assert!(is_sharded(&bytes));
        let back = deserialize_sharded(&bytes).unwrap();
        assert_eq!(sharded, back, "roundtrip must preserve global stats and bounds");
        assert_eq!(back.merge().unwrap(), sample_index());
    }

    #[test]
    fn sharded_magic_is_rejected_by_plain_deserialize_and_vice_versa() {
        let sharded = sample_sharded();
        let bytes = serialize_sharded(&sharded).unwrap();
        assert!(matches!(
            deserialize(&bytes),
            Err(IndexError::UnsupportedFormat { found }) if found == MAGIC_SHARD_V3
        ));
        let plain = serialize(&sample_index()).unwrap();
        assert!(!is_sharded(&plain));
        assert!(matches!(
            deserialize_sharded(&plain),
            Err(IndexError::UnsupportedFormat { .. })
        ));
        assert!(matches!(scan_sharded(&plain), Err(IndexError::UnsupportedFormat { .. })));
    }

    fn sample_index_with(codec: CodecId) -> InvertedIndex {
        let mut b = IndexBuilder::new(BuildOptions { codec, ..Default::default() });
        b.add_document("the quick brown fox jumps over the lazy dog");
        b.add_document("pack my box with five dozen liquor jugs");
        b.add_document("the five boxing wizards jump quickly");
        b.add_document("quick wizards pack the box");
        b.build()
    }

    #[test]
    fn streaming_writer_is_byte_identical_to_serialize() {
        for codec in CodecId::ALL {
            let idx = sample_index_with(codec);
            let expected = serialize(&idx).unwrap();
            let mut w = StreamingWriter::new(
                Vec::new(),
                idx.doc_lens(),
                idx.num_terms() as u64,
                idx.partitioner(),
                idx.params(),
                codec,
            )
            .unwrap();
            for info in idx.terms() {
                let list = idx.decode_term(&info.term).unwrap();
                w.push_term(&info.term, &list).unwrap();
            }
            let bytes = w.finish().unwrap();
            assert_eq!(bytes, expected, "{codec} streamed output diverges");
            // And the streamed file loads on both the heap and mmap paths.
            assert_eq!(deserialize(&bytes).unwrap(), idx, "{codec}");
        }
    }

    #[test]
    fn streaming_writer_enforces_declared_term_count() {
        let idx = sample_index();
        let w = StreamingWriter::new(
            Vec::new(),
            idx.doc_lens(),
            idx.num_terms() as u64,
            idx.partitioner(),
            idx.params(),
            idx.codec(),
        )
        .unwrap();
        // Too few: finishing before all declared terms were pushed.
        assert!(matches!(
            w.finish(),
            Err(IndexError::CorruptIndex {
                context: "fewer streamed terms than the header declares"
            })
        ));

        // Too many: one extra push past the declared count.
        let mut w = StreamingWriter::new(
            Vec::new(),
            idx.doc_lens(),
            1,
            idx.partitioner(),
            idx.params(),
            idx.codec(),
        )
        .unwrap();
        let info = &idx.terms()[0];
        let list = idx.decode_term(&info.term).unwrap();
        w.push_term(&info.term, &list).unwrap();
        assert!(matches!(
            w.push_term(&info.term, &list),
            Err(IndexError::CorruptIndex {
                context: "more streamed terms than the header declares"
            })
        ));
    }

    #[test]
    fn streaming_writer_rejects_out_of_range_docid() {
        let idx = sample_index();
        let mut w = StreamingWriter::new(
            Vec::new(),
            idx.doc_lens(),
            1,
            idx.partitioner(),
            idx.params(),
            idx.codec(),
        )
        .unwrap();
        let mut list = PostingList::new();
        list.push(idx.num_docs() as u32, 1);
        assert!(matches!(
            w.push_term("beyond", &list),
            Err(IndexError::CorruptIndex {
                context: "posting list references docID beyond corpus"
            })
        ));
    }

    #[test]
    fn v4_roundtrip_preserves_codec_for_every_codec() {
        for codec in CodecId::ALL {
            let idx = sample_index_with(codec);
            assert_eq!(idx.codec(), codec);
            let bytes = serialize(&idx).unwrap();
            assert_eq!(peek_codec(&bytes).unwrap(), codec);
            let back = deserialize(&bytes).unwrap();
            assert_eq!(back.codec(), codec);
            assert_eq!(back, idx, "{codec} roundtrip");

            let sharded = ShardedIndex::split(&idx, 3).unwrap();
            let sbytes = serialize_sharded(&sharded).unwrap();
            let sback = deserialize_sharded(&sbytes).unwrap();
            assert_eq!(sback, sharded, "{codec} sharded roundtrip");
            for shard in sback.shards() {
                assert_eq!(shard.codec(), codec);
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected_for_every_codec() {
        for codec in CodecId::ALL {
            let bytes = serialize(&sample_index_with(codec)).unwrap();
            for byte in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << (byte % 8);
                assert!(
                    deserialize(&flipped).is_err(),
                    "{codec}: bit flip at byte {byte} was silently accepted"
                );
            }
        }
    }

    /// Rewrites the header section CRC and whole-file footer of a plain
    /// v4 file so a deliberate header tamper passes every checksum.
    fn reseal_v4_header(bytes: &mut [u8]) {
        // Header spans bytes 8..46 (38 bytes), its CRC sits at 46..50.
        let crc = crc32(&bytes[8..46]);
        bytes[46..50].copy_from_slice(&crc.to_le_bytes());
        let n = bytes.len();
        let footer = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&footer.to_le_bytes());
    }

    #[test]
    fn crc_consistent_unknown_codec_id_is_a_typed_error() {
        let mut bytes = serialize(&sample_index()).unwrap().to_vec();
        // Codec id byte: 8 magic + 16 params + 5 partitioner = offset 29.
        bytes[29] = 99;
        reseal_v4_header(&mut bytes);
        assert!(matches!(deserialize(&bytes), Err(IndexError::UnknownCodec { id: 99 })));
    }

    #[test]
    fn crc_consistent_codec_flip_is_rejected() {
        // Flipping a bit-packed file's codec id to a *valid* other codec
        // (with all checksums recomputed) must not load: the payload
        // misdecodes, tripping the docID monotonic check or the stored
        // score-bounds oracle.
        for &codec in &[CodecId::StreamVByte, CodecId::SimdBp128] {
            let mut bytes = serialize(&sample_index()).unwrap().to_vec();
            assert_eq!(bytes[29], CodecId::BitPack.as_u8());
            bytes[29] = codec.as_u8();
            reseal_v4_header(&mut bytes);
            assert!(deserialize(&bytes).is_err(), "codec flip to {codec} accepted");
        }
    }

    #[test]
    fn corrupting_the_codec_byte_alone_is_a_checksum_mismatch() {
        // Without recomputing the CRCs, a flipped codec byte must surface
        // as a header checksum failure, not an unknown-codec error.
        let mut bytes = serialize(&sample_index()).unwrap().to_vec();
        bytes[29] ^= 0xff;
        assert!(matches!(
            deserialize(&bytes),
            Err(IndexError::ChecksumMismatch { section: "header", .. })
        ));
    }

    #[test]
    fn scan_reports_clean_manifest_per_shard() {
        let sharded = sample_sharded();
        let bytes = serialize_sharded(&sharded).unwrap();
        let report = scan_sharded(&bytes).unwrap();
        assert_eq!(report.version, 3);
        assert_eq!(report.num_shards, sharded.num_shards());
        assert!(report.is_clean(), "{report:?}");
        assert!(report.corrupt_shards().is_empty());
        for (s, status) in report.shards.iter().enumerate() {
            let ShardBodyStatus::Ok { docs, .. } = status else {
                panic!("shard {s} not ok: {status:?}");
            };
            assert_eq!(*docs, sharded.shard(s).num_docs());
            assert_eq!(*docs, report.expected_docs(s), "round-robin balance");
        }
    }

    #[test]
    fn scan_isolates_a_corrupt_shard_body_and_keeps_scanning() {
        // Corrupt one byte inside shard 1's body: deserialize_sharded must
        // reject the file, while scan_sharded must flag exactly shard 1
        // and still verify shards 0 and 2.
        let sharded = sample_sharded();
        let bytes = serialize_sharded(&sharded).unwrap();
        let clean = scan_sharded(&bytes).unwrap();
        assert_eq!(clean.shards.len(), 3);

        // Locate shard 1's body: header ends where the first body starts.
        let header_len = 4 + 8 + 8 + 5 + 8 + sharded.shard(0).num_terms() * 4 + 3 * 8;
        let bodies_start = 8 + header_len + 4;
        let mut body_lens = Vec::new();
        for s in 0..3 {
            let at = 8 + 4 + 8 + 8 + 5 + 8 + sharded.shard(0).num_terms() * 4 + s * 8;
            body_lens.push(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize);
        }
        let shard1_mid = bodies_start + body_lens[0] + body_lens[1] / 2;
        let mut corrupt = bytes.clone();
        corrupt[shard1_mid] ^= 0x10;

        assert!(deserialize_sharded(&corrupt).is_err());
        let report = scan_sharded(&corrupt).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.corrupt_shards(), vec![1], "{report:?}");
        assert!(matches!(report.shards[0], ShardBodyStatus::Ok { .. }));
        assert!(matches!(report.shards[2], ShardBodyStatus::Ok { .. }));
        assert!(!report.footer_ok, "footer covers the flipped byte");
    }

    #[test]
    fn scan_survives_truncation_and_bit_flips_without_panicking() {
        let bytes = serialize_sharded(&sample_sharded()).unwrap();
        for cut in 0..bytes.len() {
            // Any prefix must yield Err or a non-clean report, never panic.
            if let Ok(report) = scan_sharded(&bytes[..cut]) {
                assert!(!report.is_clean(), "truncation at {cut} scanned clean");
            }
        }
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << (byte % 8);
            if let Ok(report) = scan_sharded(&flipped) {
                assert!(!report.is_clean(), "bit flip at byte {byte} scanned clean");
            }
        }
    }

    #[test]
    fn sharded_rejects_truncation_everywhere() {
        let bytes = serialize_sharded(&sample_sharded()).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                deserialize_sharded(&bytes[..cut]).is_err(),
                "shard manifest prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn sharded_every_bit_flip_is_detected() {
        let bytes = serialize_sharded(&sample_sharded()).unwrap();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << (byte % 8);
            assert!(
                deserialize_sharded(&flipped).is_err(),
                "shard-manifest bit flip at byte {byte} was silently accepted"
            );
        }
    }

    #[test]
    fn sharded_rejects_crc_consistent_idf_tampering() {
        // Flip an idf̄ raw in the shard header, then recompute the header
        // CRC and footer so every checksum passes. The loaded shards would
        // score differently from the global index; the round-robin/validate
        // oracle can't see that, but the flip must at least survive the
        // structural rebuild — prove the *checksum* catches the plain flip
        // and that a fully recomputed file loads as a different index
        // rather than silently equal.
        let sharded = sample_sharded();
        let bytes = serialize_sharded(&sharded).unwrap();
        let mut flipped = bytes.clone();
        // idf table starts at 8 (magic) + 4 + 8 + 8 + 5 (partitioner) + 8 = 41.
        flipped[41] ^= 0x40;
        assert!(matches!(
            deserialize_sharded(&flipped),
            Err(IndexError::ChecksumMismatch { section: "shard header", .. })
        ));

        let header_len = 4 + 8 + 8 + 5 + 8 + sharded.shard(0).num_terms() * 4 + 3 * 8;
        let crc = crc32(&flipped[8..8 + header_len]);
        flipped[8 + header_len..8 + header_len + 4].copy_from_slice(&crc.to_le_bytes());
        let n = flipped.len();
        let footer = crc32(&flipped[..n - 4]);
        flipped[n - 4..].copy_from_slice(&footer.to_le_bytes());
        let back = deserialize_sharded(&flipped).unwrap();
        assert_ne!(back, sharded, "tampered idf̄ must not load as the original");
    }

    #[test]
    fn sharded_rejects_trailing_garbage() {
        let mut bytes = serialize_sharded(&sample_sharded()).unwrap();
        bytes.push(0);
        assert!(matches!(
            deserialize_sharded(&bytes),
            Err(IndexError::CorruptIndex { context: "trailing bytes" })
        ));
    }

    #[test]
    fn roundtrip_empty_index() {
        let idx = IndexBuilder::new(BuildOptions::default()).build();
        let bytes = serialize(&idx).unwrap();
        let back = deserialize(&bytes).unwrap();
        assert_eq!(idx, back);
    }

    #[test]
    fn zero_length_files_are_typed_errors_in_every_loader() {
        // A crash can leave an index file at length zero (created, never
        // written). Every loader must reject it with a typed error; none
        // may panic.
        assert!(matches!(deserialize(&[]), Err(IndexError::CorruptIndex { .. })));
        assert!(matches!(deserialize_sharded(&[]), Err(IndexError::CorruptIndex { .. })));
        assert!(matches!(scan_sharded(&[]), Err(IndexError::CorruptIndex { .. })));
        assert!(!is_sharded(&[]));
    }

    #[test]
    fn truncation_inside_the_header_is_a_typed_error_at_every_cut() {
        // Truncate both formats at every byte inside magic + header: the
        // loaders must return a typed error (not panic, not succeed) for
        // each cut. Past-magic cuts may legitimately report checksum or
        // corruption errors; cuts inside the magic word itself must not be
        // misread as a different format.
        let plain = serialize(&sample_index()).unwrap();
        let sharded = serialize_sharded(&sample_sharded()).unwrap();
        for cut in 0..64usize {
            if cut < plain.len() {
                let r = std::panic::catch_unwind(|| deserialize(&plain[..cut]))
                    .expect("plain loader must not panic on truncated header");
                assert!(r.is_err(), "accepted a {cut}-byte prefix of a plain index");
            }
            if cut < sharded.len() {
                let short = &sharded[..cut];
                let r = std::panic::catch_unwind(|| deserialize_sharded(short))
                    .expect("sharded loader must not panic on truncated header");
                assert!(r.is_err(), "accepted a {cut}-byte prefix of a manifest");
                let r = std::panic::catch_unwind(|| scan_sharded(short))
                    .expect("scan must not panic on truncated header");
                assert!(r.is_err(), "scanned a {cut}-byte prefix of a manifest");
                assert!(cut >= 8 || !is_sharded(short));
            }
        }
    }

    #[test]
    fn roundtrip_preserves_partitioner_and_params() {
        let mut b = IndexBuilder::new(BuildOptions {
            partitioner: Partitioner::fixed(128),
            bm25: Bm25Params { k1: 0.9, b: 0.4 },
            ..Default::default()
        });
        b.add_document("alpha beta gamma alpha");
        let idx = b.build();
        let back = deserialize(&serialize(&idx).unwrap()).unwrap();
        assert_eq!(back.partitioner(), Partitioner::fixed(128));
        assert!((back.params().k1 - 0.9).abs() < 1e-12);
        assert!((back.params().b - 0.4).abs() < 1e-12);
    }

    #[test]
    fn heap_loads_report_a_heap_source() {
        // Heap loads parse an owned copy of the file: the index and every
        // list report heap bytes, never a mapping.
        let back = deserialize(&serialize(&sample_index()).unwrap()).unwrap();
        assert!(!back.source().is_mapped());
        assert_eq!(back.source().kind(), "heap");
        for id in 0..back.num_terms() as TermId {
            assert!(!back.encoded_list(id).is_mapped(), "list {id}");
        }
        let sharded =
            deserialize_sharded(&serialize_sharded(&sample_sharded()).unwrap()).unwrap();
        for shard in sharded.shards() {
            assert_eq!(shard.source().kind(), "heap");
        }
    }

    #[test]
    fn removed_formats_are_refused_by_every_loader() {
        // Plain v1–v3 and manifest v1–v2 files are no longer read: every
        // loader reports their magic as an unsupported format, whatever
        // bytes follow it.
        let plain = serialize(&sample_index()).unwrap();
        let manifest = serialize_sharded(&sample_sharded()).unwrap();
        let removed: [(u64, &Vec<u8>); 5] = [
            (0x4949_5558_0000_0001, &plain),
            (0x4949_5558_0000_0002, &plain),
            (0x4949_5558_0000_0003, &plain),
            (0x4949_5553_0000_0001, &manifest),
            (0x4949_5553_0000_0002, &manifest),
        ];
        let path = std::env::temp_dir().join(format!("iiu-io-{}-removed", std::process::id()));
        for (magic, original) in removed {
            let mut bytes = original.clone();
            bytes[..8].copy_from_slice(&magic.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let refused = |r: Result<(), IndexError>| matches!(r, Err(IndexError::UnsupportedFormat { found }) if found == magic);
            assert!(!is_sharded(&bytes), "{magic:#x}");
            assert!(refused(deserialize(&bytes).map(drop)), "deserialize {magic:#x}");
            assert!(refused(deserialize_sharded(&bytes).map(drop)), "sharded {magic:#x}");
            assert!(refused(scan_sharded(&bytes).map(drop)), "scan {magic:#x}");
            assert!(refused(peek_codec(&bytes).map(drop)), "peek {magic:#x}");
            assert!(refused(storage::map_index(&path).map(drop)), "map {magic:#x}");
            assert!(refused(storage::map_sharded(&path).map(drop)), "map sharded {magic:#x}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflowing_shard_body_length_is_a_typed_error_in_every_manifest_loader() {
        // A body-length entry that takes its body's start + length to
        // usize::MAX, with the header CRC and the footer resealed so only
        // the length is wrong. Every manifest loader must reject it with a
        // typed error; the scan reports that shard corrupt.
        let sharded = sample_sharded();
        let clean = serialize_sharded(&sharded).unwrap();
        let header_len = 4 + 8 + 8 + 5 + 8 + sharded.shard(0).num_terms() * 4 + 3 * 8;
        let lens_at = 8 + header_len - 3 * 8;
        let path =
            std::env::temp_dir().join(format!("iiu-io-{}-overflow", std::process::id()));
        let mut start = 8 + header_len + 4;
        for s in 0..3 {
            let at = lens_at + s * 8;
            let len = u64::from_le_bytes(clean[at..at + 8].try_into().unwrap());
            let mut bytes = clean.clone();
            bytes[at..at + 8].copy_from_slice(&((usize::MAX - start) as u64).to_le_bytes());
            let crc = crc32(&bytes[8..8 + header_len]);
            bytes[8 + header_len..8 + header_len + 4].copy_from_slice(&crc.to_le_bytes());
            let n = bytes.len();
            let footer = crc32(&bytes[..n - 4]);
            bytes[n - 4..].copy_from_slice(&footer.to_le_bytes());

            assert!(
                matches!(deserialize_sharded(&bytes), Err(IndexError::CorruptIndex { .. })),
                "shard {s}"
            );
            let report = scan_sharded(&bytes).unwrap();
            assert!(
                matches!(
                    report.shards[s],
                    ShardBodyStatus::Corrupt { error: IndexError::CorruptIndex { .. } }
                ),
                "shard {s}: {report:?}"
            );
            assert!(!report.is_clean());
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(storage::map_sharded(&path), Err(IndexError::CorruptIndex { .. })),
                "shard {s}"
            );
            start += len as usize;
        }
        std::fs::remove_file(&path).ok();
    }
}
