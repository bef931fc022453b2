//! Document-at-a-time (DAAT) evaluation of expression trees over posting
//! cursors (DESIGN.md §20).
//!
//! The tree becomes an operator tree whose leaves are
//! [`PostingCursor`]s: `AND` nodes leapfrog their children to a common
//! docID with `next_geq`, `OR` nodes sit on their children's smallest
//! docID, and a phrase is an `AND` whose matches must also pass
//! [`PositionIndex::phrase_in_doc`]. Chains of the same operator flatten
//! into one n-ary node, and an `AND` drives from its sparsest child. Each
//! matching document is scored and pushed straight into a [`FusedTopK`],
//! so a query holds k hits plus one decoded block per leaf, never the
//! scored lists the exhaustive `eval_tree` materializes.
//!
//! Scores are bit-identical to `eval_tree`: a node's score is the
//! saturating Q16.16 sum of its matching children, and saturating addition
//! of unsigned values is associative and commutative, so neither
//! flattening nor reordering children changes a sum. Matches arrive in
//! ascending docID order, the order `eval_tree`'s lists reach `top_k`.

use iiu_baseline::cursor::{PostingCursor, END};
use iiu_baseline::topk::{FusedTopK, Hit};
use iiu_baseline::OpCounts;
use iiu_index::{DocId, Fixed, IndexError, InvertedIndex, PositionIndex};

use crate::query::Query;

/// One operator of the evaluation tree.
enum Node<'a> {
    Leaf(PostingCursor<'a>),
    /// A conjunction (`phrase` set for an exact phrase), sitting on the
    /// docID `doc` all its children agree on.
    And {
        doc: DocId,
        kids: Vec<Node<'a>>,
        phrase: Option<Phrase<'a>>,
    },
    /// A disjunction, sitting on its children's smallest docID `doc`.
    Or {
        doc: DocId,
        kids: Vec<Node<'a>>,
    },
}

/// The positional check of a phrase node, and how often it ran.
struct Phrase<'a> {
    terms: &'a [String],
    positions: &'a PositionIndex,
    checks: u64,
}

/// Evaluates `query` over `index` and returns its top `k` hits, adding the
/// work done to `counts`; `counts.topk_candidates` grows by the number of
/// matching documents.
///
/// # Errors
///
/// Returns [`IndexError::UnknownTerm`] for a term missing from the
/// dictionary, [`IndexError::PositionsUnavailable`] for a phrase without
/// `positions`, and decode or checksum errors from the lists.
pub(crate) fn search_tree(
    index: &InvertedIndex,
    query: &Query,
    positions: Option<&PositionIndex>,
    k: usize,
    counts: &mut OpCounts,
) -> Result<Vec<Hit>, IndexError> {
    let mut root = build(index, query, positions)?;
    let mut heap = FusedTopK::new(k);
    let mut doc = root.doc();
    while doc != END {
        heap.push(doc, root.score()?);
        counts.topk_candidates += 1;
        doc = root.next_geq(doc + 1)?;
    }
    root.tally(counts);
    Ok(heap.into_hits())
}

fn build<'a>(
    index: &'a InvertedIndex,
    q: &'a Query,
    positions: Option<&'a PositionIndex>,
) -> Result<Node<'a>, IndexError> {
    Ok(match q {
        Query::Term(t) => Node::Leaf(cursor(index, t)?),
        Query::Phrase(terms) => {
            let positions = positions.ok_or(IndexError::PositionsUnavailable)?;
            let kids = terms
                .iter()
                .map(|t| cursor(index, t).map(Node::Leaf))
                .collect::<Result<_, _>>()?;
            Node::and(kids, Some(Phrase { terms, positions, checks: 0 }))?
        }
        Query::And(..) => Node::and(operands(index, q, positions)?, None)?,
        Query::Or(..) => {
            let kids = operands(index, q, positions)?;
            let doc = kids.iter().map(Node::doc).min().unwrap_or(END);
            Node::Or { doc, kids }
        }
    })
}

/// The operands of the operator node `op`, with nested nodes of the same
/// operator flattened into their own operands.
fn operands<'a>(
    index: &'a InvertedIndex,
    op: &'a Query,
    positions: Option<&'a PositionIndex>,
) -> Result<Vec<Node<'a>>, IndexError> {
    let mut kids = Vec::new();
    let mut stack = vec![op];
    while let Some(q) = stack.pop() {
        match q {
            Query::And(a, b) | Query::Or(a, b)
                if std::mem::discriminant(q) == std::mem::discriminant(op) =>
            {
                stack.extend([&**a, &**b]);
            }
            _ => kids.push(build(index, q, positions)?),
        }
    }
    Ok(kids)
}

fn cursor<'a>(index: &'a InvertedIndex, term: &str) -> Result<PostingCursor<'a>, IndexError> {
    let id = index
        .term_id(term)
        .ok_or_else(|| IndexError::UnknownTerm { term: term.to_owned() })?;
    PostingCursor::new(index, id)
}

impl<'a> Node<'a> {
    /// An `AND` node over `kids`, sparsest first, positioned on its first
    /// match.
    fn and(
        mut kids: Vec<Node<'a>>,
        mut phrase: Option<Phrase<'a>>,
    ) -> Result<Self, IndexError> {
        kids.sort_by_key(Node::cost);
        let doc = align(&mut kids, 0, &mut phrase)?;
        Ok(Node::And { doc, kids, phrase })
    }

    /// Postings this subtree can match at most, for ordering `AND`
    /// children.
    fn cost(&self) -> u64 {
        match self {
            Node::Leaf(c) => c.num_postings(),
            Node::And { kids, .. } => kids.iter().map(Node::cost).min().unwrap_or(0),
            Node::Or { kids, .. } => kids.iter().map(Node::cost).sum(),
        }
    }

    fn doc(&self) -> DocId {
        match self {
            Node::Leaf(c) => c.doc(),
            Node::And { doc, .. } | Node::Or { doc, .. } => *doc,
        }
    }

    /// Moves to the first match with docID `>= target`.
    fn next_geq(&mut self, target: DocId) -> Result<DocId, IndexError> {
        match self {
            Node::Leaf(c) => c.next_geq(target),
            Node::And { doc, kids, phrase } => {
                if *doc < target {
                    *doc = align(kids, target, phrase)?;
                }
                Ok(*doc)
            }
            Node::Or { doc, kids } => {
                if *doc < target {
                    let mut min = END;
                    for kid in kids.iter_mut() {
                        min = min.min(kid.next_geq(target)?);
                    }
                    *doc = min;
                }
                Ok(*doc)
            }
        }
    }

    /// Score of the current match: the saturating sum over the children
    /// sitting on it.
    fn score(&mut self) -> Result<Fixed, IndexError> {
        match self {
            Node::Leaf(c) => c.score(),
            Node::And { kids, .. } => kids
                .iter_mut()
                .try_fold(Fixed::ZERO, |s, kid| Ok(s.saturating_add(kid.score()?))),
            Node::Or { doc, kids } => {
                let mut s = Fixed::ZERO;
                for kid in kids.iter_mut().filter(|kid| kid.doc() == *doc) {
                    s = s.saturating_add(kid.score()?);
                }
                Ok(s)
            }
        }
    }

    /// Adds the subtree's work to `counts`.
    fn tally(&self, counts: &mut OpCounts) {
        match self {
            Node::Leaf(c) => counts.merge(&c.counts()),
            Node::And { kids, phrase, .. } => {
                counts.phrase_checks += phrase.as_ref().map_or(0, |p| p.checks);
                kids.iter().for_each(|kid| kid.tally(counts));
            }
            Node::Or { kids, .. } => kids.iter().for_each(|kid| kid.tally(counts)),
        }
    }
}

/// Leapfrogs `kids` to the first docID `>= target` they all hold (and, for
/// a phrase, that passes the positional check).
fn align(
    kids: &mut [Node<'_>],
    mut target: DocId,
    phrase: &mut Option<Phrase<'_>>,
) -> Result<DocId, IndexError> {
    if kids.is_empty() {
        return Ok(END);
    }
    'seek: while target != END {
        for kid in kids.iter_mut() {
            let doc = kid.next_geq(target)?;
            if doc != target {
                target = doc;
                continue 'seek;
            }
        }
        if let Some(p) = phrase {
            p.checks += 1;
            if !p.positions.phrase_in_doc(p.terms, target) {
                target += 1;
                continue;
            }
        }
        return Ok(target);
    }
    Ok(END)
}
