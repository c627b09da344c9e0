"""Single-field inverted index with incremental updates.

One :class:`InvertedIndex` instance holds the postings of one searchable
field.  Postings map ``term -> {internal_doc_id -> term frequency}``;
document lengths and the collection-wide average length are maintained
incrementally so the BM25 scorer (:mod:`repro.search.bm25`) can read them in
O(1).  Removal is supported because the ingestion service re-indexes
modified documents every polling cycle.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.search.kernels import KernelPostings, KernelView
from repro.text.analyzer import FULL_ANALYZER, ItalianAnalyzer


class InvertedIndex:
    """Postings for one field, keyed by internal integer doc ids.

    The index also exposes a frozen contiguous-array view of its postings
    (:meth:`kernel_views`) that the BM25 scorer consumes for vectorized
    scoring.  The kernel is built lazily and dropped on any write:
    freezing is O(postings), which is why :class:`~repro.search.index
    .SearchIndex` uses this class only as the small write buffer of the
    segmented store (:mod:`repro.search.segment`) — sealed documents never
    re-freeze.
    """

    def __init__(self, analyzer: ItalianAnalyzer = FULL_ANALYZER) -> None:
        self._analyzer = analyzer
        self._postings: dict[str, dict[int, int]] = {}
        self._doc_lengths: dict[int, int] = {}
        self._total_length = 0
        self._kernel: KernelPostings | None = None

    def __len__(self) -> int:
        return len(self._doc_lengths)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._doc_lengths

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct indexed terms."""
        return len(self._postings)

    @property
    def total_length(self) -> int:
        """Summed analyzed length of all indexed documents.

        Exposed (as an exact integer) so that distributed deployments can
        aggregate collection statistics across shards without the rounding
        error a mean-of-means would introduce.
        """
        return self._total_length

    @property
    def average_length(self) -> float:
        """Mean analyzed length of indexed documents (0 when empty)."""
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    def add(self, doc_id: int, text: str) -> Iterable[str]:
        """Index *text* under *doc_id* (doc must not already be present).

        Returns the distinct terms *text* analyzed to, for a caller that
        would otherwise analyze it again.
        """
        if doc_id in self._doc_lengths:
            raise ValueError(f"doc {doc_id} already indexed; remove it first")
        self._kernel = None
        terms = self._analyzer.analyze(text)
        self._doc_lengths[doc_id] = len(terms)
        self._total_length += len(terms)
        frequencies = Counter(terms)
        for term, frequency in frequencies.items():
            self._postings.setdefault(term, {})[doc_id] = frequency
        return frequencies.keys()

    def remove(self, doc_id: int) -> None:
        """Remove all postings of *doc_id*; no-op when absent."""
        length = self._doc_lengths.pop(doc_id, None)
        if length is None:
            return
        self._kernel = None
        self._total_length -= length
        empty_terms = []
        for term, postings in self._postings.items():
            if postings.pop(doc_id, None) is not None and not postings:
                empty_terms.append(term)
        for term in empty_terms:
            del self._postings[term]

    def postings(self, term: str) -> dict[int, int]:
        """The ``doc_id -> tf`` map of *term* (empty dict when unseen)."""
        return self._postings.get(term, {})

    def document_frequencies(self, terms: list[str]) -> list[int]:
        """Number of documents containing each of *terms*."""
        return [len(self._postings.get(term, ())) for term in terms]

    def document_length(self, doc_id: int) -> int:
        """Analyzed length of *doc_id* (0 when absent)."""
        return self._doc_lengths.get(doc_id, 0)

    def doc_ids(self) -> list[int]:
        """The indexed document ids, in insertion order."""
        return list(self._doc_lengths)

    def analyze_query(self, query: str) -> list[str]:
        """Analyze a query string with this field's analyzer."""
        return self._analyzer.analyze(query)

    # -- kernel access --------------------------------------------------------

    def to_kernel(self, doc_ids=None) -> KernelPostings:
        """Freeze the current postings into contiguous arrays.

        ``doc_ids`` optionally passes the ascending member ids, one array
        shared by every field of a segment (and so one slot order).
        """
        return KernelPostings.build(self._doc_lengths, self._postings, doc_ids=doc_ids)

    def kernel_views(self) -> list[KernelView]:
        """The scorable kernel views of this index (one, lazily frozen)."""
        if not self._doc_lengths:
            return []
        if self._kernel is None:
            self._kernel = self.to_kernel()
        return [KernelView(self._kernel)]
