"""Index schema: field definitions and attributes.

Mirrors the Azure AI Search field model the paper builds on (Section 4):
every field carries attributes that decide how it participates in queries —

* ``searchable``  — analyzed into an inverted index for full-text search;
* ``filterable``  — usable for exact-match filtering only;
* ``retrievable`` — returned in search results;
* ``vector``      — embedded and indexed for vector search.

The module also ships :func:`uniask_schema`, the concrete schema of the
deployed system: title/content/summary retrievable and searchable, domain/
section/topic/keywords filterable, separate vector embeddings for title and
content.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FieldDefinition:
    """One index field and its behaviour flags.

    Attributes:
        name: field name; chunk records expose values under this key.
        searchable: include in full-text (BM25) matching.
        filterable: allow exact-match filters.
        retrievable: include in returned results.
        vector: build a vector index from this field's text.
        collection: True when the field holds a list of strings (keywords).
    """

    name: str
    searchable: bool = False
    filterable: bool = False
    retrievable: bool = False
    vector: bool = False
    collection: bool = False


@dataclass(frozen=True)
class IndexSchema:
    """An ordered collection of field definitions."""

    fields: tuple[FieldDefinition, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise ValueError("duplicate field names in schema")

    def field(self, name: str) -> FieldDefinition:
        """Return the definition of field *name*."""
        for definition in self.fields:
            if definition.name == name:
                return definition
        raise KeyError(name)

    @property
    def searchable_fields(self) -> tuple[str, ...]:
        """Names of full-text searchable fields."""
        return tuple(f.name for f in self.fields if f.searchable)

    @property
    def filterable_fields(self) -> tuple[str, ...]:
        """Names of exact-match filterable fields."""
        return tuple(f.name for f in self.fields if f.filterable)

    def check_filters(self, filters: dict[str, str] | None) -> None:
        """Raise ``KeyError`` when *filters* names a field that is not filterable.

        Searchers call this once per request, before any leg runs, so an
        unknown filter is an error whether or not anything matches.
        """
        for name in filters or ():
            if name not in self.filterable_fields:
                raise KeyError(f"field {name!r} is not filterable")

    @property
    def retrievable_fields(self) -> tuple[str, ...]:
        """Names of fields returned in results."""
        return tuple(f.name for f in self.fields if f.retrievable)

    @property
    def vector_fields(self) -> tuple[str, ...]:
        """Names of fields with a vector index."""
        return tuple(f.name for f in self.fields if f.vector)


def uniask_schema(include_llm_keywords: bool = False) -> IndexSchema:
    """The production UniAsk index schema.

    Args:
        include_llm_keywords: add the ``llm_keywords`` *searchable* field used
            by the HSS-KT / HSS-KTC enrichment experiments (Table 4); the
            base deployment does not search LLM keywords.
    """
    fields = [
        FieldDefinition("title", searchable=True, retrievable=True, vector=True),
        FieldDefinition("content", searchable=True, retrievable=True, vector=True),
        FieldDefinition("summary", searchable=True, retrievable=True),
        FieldDefinition("domain", filterable=True),
        FieldDefinition("section", filterable=True),
        FieldDefinition("topic", filterable=True),
        FieldDefinition("keywords", filterable=True, collection=True),
    ]
    if include_llm_keywords:
        fields.append(FieldDefinition("llm_keywords", searchable=True, collection=True))
    return IndexSchema(fields=tuple(fields))


@dataclass(frozen=True)
class ChunkRecord:
    """One indexed chunk of a knowledge-base document.

    ``chunk_id`` is globally unique (``"{doc_id}#{chunk_index}"``); several
    chunks share a ``doc_id``.  Retrieval metrics are computed at document
    granularity, so results de-duplicate by ``doc_id``.
    """

    chunk_id: str
    doc_id: str
    title: str
    content: str
    summary: str = ""
    domain: str = ""
    section: str = ""
    topic: str = ""
    keywords: tuple[str, ...] = ()
    llm_keywords: tuple[str, ...] = ()

    #: Where :func:`repro.search.reading.read_chunk` keeps what it derived
    #: from this record.  Not annotated, so not a field: ``==``, ``hash``,
    #: ``asdict`` and ``replace`` never see it.
    _reading = None

    def value(self, field_name: str) -> str:
        """The text value of *field_name* for indexing purposes."""
        raw = getattr(self, field_name)
        if isinstance(raw, tuple):
            return " ".join(raw)
        return raw
