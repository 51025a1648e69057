"""Corpus ingestion: parse a hyperlinked JSONL corpus into a frozen store.

Input format is UTF-8 JSONL, one document per line:
    {"id": str, "title": str, "text": str,
     "anchors": [{"span": str, "target": str}], "topic": str (optional)}

Document texts are truncated to the configured token budget. Anchors are
resolved against titles in one pass, and every link is stored in both
directions, so the store answers "which documents are related to d"
directly: `hyperlinks` maps each document to its sorted hyperlink neighbors
and `topic_clusters` maps each topic to its sorted members. Topics are
resolved in the same pass (`file`, `keyword` or `none`; see
`ingest_corpus`). The store is frozen and never written after ingestion,
except for a cache of normalized document texts filled on first use.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .jsonl import NON_EMPTY, InputError, read_numbered_rows, write_rows
from .metrics import TOKEN_PATTERN, normalize_answer


class CorpusFormatError(InputError):
    """Raised for unreadable, malformed, or duplicate corpus records."""


@dataclass(frozen=True)
class Document:
    id: str
    title: str
    text: str
    anchors: tuple[tuple[str, str], ...]  # (surface_span, target_title)
    topic: Optional[str] = None


@dataclass
class CorpusConfig:
    max_doc_tokens: int = 100

    def __post_init__(self):
        if self.max_doc_tokens < 1:
            raise ValueError("max_doc_tokens must be >= 1")


TOPIC_SOURCES = ("file", "keyword", "none")


@dataclass
class TopicsConfig:
    labeler: str = "file"  # one of TOPIC_SOURCES; see ingest_corpus

    def __post_init__(self):
        if self.labeler not in TOPIC_SOURCES:
            raise ValueError(f"labeler {self.labeler!r} is not one of {', '.join(TOPIC_SOURCES)}")


@dataclass(frozen=True)
class CorpusStore:
    documents: dict[str, Document]
    hyperlinks: dict[str, tuple[str, ...]]  # undirected, sorted, no self links
    topic_clusters: dict[str, tuple[str, ...]]  # sorted members
    _normalized: dict[str, str] = field(default_factory=dict, init=False, repr=False,
                                        compare=False)

    def normalized_text(self, doc_id: str) -> str:
        """`normalize_answer` of a document's text, computed once per store."""
        text = self._normalized.get(doc_id)
        if text is None:
            text = self._normalized[doc_id] = normalize_answer(self.documents[doc_id].text)
        return text


# First matching keyword in title + text names a document's topic.
_KEYWORD_TOPICS = {
    "film": "film", "movie": "film", "director": "film", "documentary": "film",
    "band": "music", "album": "music", "song": "music", "rock": "music",
    "season": "sport", "league": "sport", "team": "sport", "coach": "sport",
    "mathematician": "science", "scientist": "science", "physics": "science",
    "novel": "literature", "writer": "literature", "author": "literature",
}
_FALLBACK_TOPIC = "misc"


def _keyword_topic(title: str, text: str) -> str:
    """Topic of the first keyword found in title + text, else the fallback."""
    haystack = f"{title} {text}".lower()
    for keyword, label in _KEYWORD_TOPICS.items():
        if keyword in haystack:
            return label
    return _FALLBACK_TOPIC


def truncate_text(text: str, max_tokens: int) -> str:
    """Prefix of `text` with at most max_tokens pipeline tokens.

    Cuts at the end of the last kept token, preserving the original
    characters between tokens. One anchored match takes up to max_tokens
    tokens and a search for a further non-space character ends the scan, so
    a long text is read only up to the start of its token max_tokens + 1.
    """
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    if max_tokens >= len(text):  # every token is at least one character
        return text
    end = _leading_tokens(max_tokens).match(text).end()
    return text if _NON_SPACE.search(text, end) is None else text[:end]


@functools.lru_cache(maxsize=16)
def _leading_tokens(max_tokens: int) -> re.Pattern:
    # up to max_tokens tokens of `metrics.TOKEN_PATTERN`, each after its
    # whitespace. The match always succeeds with the greedy path, so it never
    # backtracks into a word to split it into shorter tokens. Every non-space
    # character belongs to a token, so one after the match starts the next
    # token.
    return re.compile(r"(?:\s*(?:%s)){0,%d}" % (TOKEN_PATTERN, max_tokens))


_NON_SPACE = re.compile(r"\S")


# a text of whitespace alone has no tokens, so its index row would be zeros
_NON_BLANK = (lambda value: isinstance(value, str) and _NON_SPACE.search(value) is not None,
              "a non-blank string")
_RECORD_FIELDS = {"id": NON_EMPTY, "title": NON_EMPTY, "text": _NON_BLANK}
_RECORD_OPTIONAL = {
    "anchors": (lambda value: isinstance(value, list) and all(
        isinstance(anchor, dict) and isinstance(anchor.get("span"), str)
        and isinstance(anchor.get("target"), str) for anchor in value),
        "a list of {'span': str, 'target': str}"),
    "topic": (lambda value: value is None or isinstance(value, str), "a string"),
}


def ingest_corpus(
    path: str | Path,
    config: Optional[CorpusConfig] = None,
    topics: Optional[TopicsConfig] = None,
) -> CorpusStore:
    """Parse a corpus file into a CorpusStore.

    `topics.labeler` (default `file`) picks the topics. With `file`,
    documents get topics when any record carries one, and records without a
    topic then fall back to `_keyword_topic`; `keyword` always labels,
    keeping record topics; `none` leaves every topic and cluster empty.
    Anchors whose span no longer occurs in the truncated text are discarded
    so every stored anchor is quotable from the stored document, and so are
    anchors whose target title names no document, so every stored anchor
    is a link. A file with no record (blank lines at most) raises
    CorpusFormatError.
    """
    config = config or CorpusConfig()
    labeler = (topics or TopicsConfig()).labeler
    path = Path(path)
    try:
        rows = read_numbered_rows(path, CorpusFormatError, _RECORD_FIELDS, _RECORD_OPTIONAL)
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus file {path}: {exc}") from exc

    # one tuple per record: (id, title, truncated text, in-window anchors,
    # topic); each parsed record is dropped as soon as its tuple is made
    records: list[tuple[str, str, str, tuple[tuple[str, str], ...], Optional[str]]] = []
    id_lines: dict[str, int] = {}
    title_to_id: dict[str, str] = {}
    for line_no, record in rows:
        doc_id, title = record["id"], record["title"]
        if doc_id in id_lines:
            raise CorpusFormatError(
                f"{path}: duplicate id {doc_id!r} on lines {id_lines[doc_id]} and {line_no}"
            )
        if title in title_to_id:
            first = id_lines[title_to_id[title]]
            raise CorpusFormatError(
                f"{path}: duplicate title {title!r} on lines {first} and {line_no}"
            )
        id_lines[doc_id] = line_no
        title_to_id[title] = doc_id
        text = truncate_text(record["text"], config.max_doc_tokens)
        anchors = tuple(
            (anchor["span"], anchor["target"])
            for anchor in record.get("anchors", [])
            if anchor["span"] in text  # else outside the truncation window
        )
        records.append((doc_id, title, text, anchors, record.get("topic")))
    if not records:
        raise CorpusFormatError(f"{path}: no documents")

    label_docs = labeler == "keyword" or (
        labeler == "file" and any(topic for *_, topic in records)
    )

    documents: dict[str, Document] = {}
    links: dict[str, list[str]] = {doc_id: [] for doc_id in id_lines}
    clusters: dict[str, list[str]] = {}
    for doc_id, title, text, window_anchors, record_topic in records:
        anchors: list[tuple[str, str]] = []
        for span, target in window_anchors:
            target_id = title_to_id.get(target)
            if target_id is None:  # names no document: never a link
                continue
            anchors.append((span, target))
            if target_id != doc_id:
                links[doc_id].append(target_id)
                links[target_id].append(doc_id)
        topic = None
        if label_docs:
            topic = record_topic or _keyword_topic(title, text)
            clusters.setdefault(topic, []).append(doc_id)
        documents[doc_id] = Document(
            id=doc_id, title=title, text=text, anchors=tuple(anchors), topic=topic,
        )

    return CorpusStore(
        documents=documents,
        hyperlinks={doc_id: tuple(sorted(set(ids))) for doc_id, ids in links.items()},
        topic_clusters={topic: tuple(sorted(ids)) for topic, ids in clusters.items()},
    )


def hyperlink_neighbors(store: CorpusStore, doc_id: str) -> list[str]:
    """Documents connected to doc_id by a hyperlink in either direction, sorted."""
    if doc_id not in store.documents:
        raise KeyError(f"unknown document id: {doc_id}")
    return list(store.hyperlinks[doc_id])


def serialize_store(store: CorpusStore, path: str | Path) -> int:
    """Write the store back out in the corpus input format; returns doc count."""
    def record(doc: Document) -> dict:
        row = {
            "id": doc.id,
            "title": doc.title,
            "text": doc.text,
            "anchors": [{"span": s, "target": t} for s, t in doc.anchors],
        }
        if doc.topic is not None:
            row["topic"] = doc.topic
        return row

    write_rows((record(store.documents[doc_id]) for doc_id in sorted(store.documents)), path)
    return len(store.documents)
