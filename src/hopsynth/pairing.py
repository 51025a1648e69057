"""Document pairing and answer-candidate selection.

Every anchor document yields up to `pairs_per_document` partners, drawn from
its hyperlink neighbors ("hyper" pairs) and its topic cluster ("topic"
pairs). Hyper answers come from recognized entities and anchor texts; topic
pairs always offer the two titles plus yes/no.

An anchor costs its hyperlink degree plus the pairs drawn, not the size of
its topic cluster: topic partners are drawn lazily (`_TopicDraws`), from the
sorted cluster tuple as it is stored.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass

from .corpus import CorpusStore, Document, hyperlink_neighbors
from .promptkit import one_line

HYPER = "hyper"
TOPIC = "topic"
# the `jsonl` check of a row's relation field
RELATION = (lambda value: value in (HYPER, TOPIC), f"{HYPER!r} or {TOPIC!r}")


@dataclass(frozen=True)
class DocumentPair:
    d1: Document
    d2: Document
    relation: str  # HYPER or TOPIC


@dataclass
class PairingConfig:
    pairs_per_document: int = 4

    def __post_init__(self):
        if self.pairs_per_document < 1:
            raise ValueError("pairs_per_document must be >= 1")


def derive_seed(seed: int, *keys) -> int:
    """Deterministic per-item seed, stable across processes."""
    material = ":".join([str(seed), *map(str, keys)]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def derive_rng(seed: int, *keys) -> random.Random:
    """Deterministic per-item generator, stable across processes."""
    return random.Random(derive_seed(seed, *keys))


class _TopicDraws:
    """The other members of an anchor's topic cluster, popped in the order
    `rng.shuffle(members)` followed by `members.pop()` would give them.

    `random.shuffle` (Fisher-Yates; Knuth, *TAOCP* Vol. 2, 3.4.2, Algorithm
    P) fixes list positions from the end: step i swaps position i with
    j = `rng._randbelow(i + 1)` and never touches position i again. So the
    `pop` that takes position i makes step i's draw, on the same rng in the
    same order, and a dict keeps the members that earlier steps moved. The
    members are the sorted cluster tuple read around the anchor's `bisect`
    position, never copied. Equal to the shuffle only while the rng draws
    nothing else between pops; `tests/test_pairing.py` checks it on the
    running interpreter.
    """

    def __init__(self, store: CorpusStore, doc_id: str, rng: random.Random):
        topic = store.documents[doc_id].topic
        # a document with a topic is a member of that topic's cluster
        self._cluster = store.topic_clusters[topic] if topic is not None else (doc_id,)
        self._anchor = bisect_left(self._cluster, doc_id)
        self._size = len(self._cluster) - 1
        self._randbelow = rng._randbelow
        self._moved: dict[int, str] = {}

    def __len__(self) -> int:
        return self._size

    def _member(self, position: int) -> str:
        # taken out of the dict: a position read here is final or written again
        moved = self._moved.pop(position, None)
        if moved is not None:
            return moved
        return self._cluster[position + (position >= self._anchor)]

    def pop(self) -> str:
        i = self._size - 1
        if i < 0:
            raise IndexError("pop from an empty topic pool")
        self._size = i
        last = self._member(i)
        if i == 0:  # shuffle makes no draw for position 0
            return last
        j = self._randbelow(i + 1)
        if j == i:
            return last
        picked = self._member(j)
        self._moved[j] = last
        return picked


def sample_pairs(
    store: CorpusStore, doc_id: str, config: PairingConfig, seed: int
) -> list[DocumentPair]:
    """Up to pairs_per_document pairs anchored at doc_id, shuffled by `seed`.

    Hyper partners are taken first, then topic partners, alternating while
    both pools last; partners never repeat within one anchor document. The
    hyper pool is shuffled whole, as its draws come first; the topic pool
    then draws only the partners it gives up.
    """
    rng = derive_rng(seed, "pairs", doc_id)
    hyper_pool = hyperlink_neighbors(store, doc_id)
    rng.shuffle(hyper_pool)
    topic_pool = _TopicDraws(store, doc_id, rng)

    anchor = store.documents[doc_id]
    pairs: list[DocumentPair] = []
    used: set[str] = set()
    take_hyper = True
    while len(pairs) < config.pairs_per_document and (hyper_pool or topic_pool):
        pool, relation = (
            (hyper_pool, HYPER) if (take_hyper and hyper_pool) or not topic_pool
            else (topic_pool, TOPIC)
        )
        partner_id = pool.pop()
        take_hyper = not take_hyper
        if partner_id in used:
            continue
        used.add(partner_id)
        pairs.append(DocumentPair(d1=anchor, d2=store.documents[partner_id], relation=relation))
    return pairs


def answer_candidates(pair: DocumentPair, entities: list[str]) -> list[tuple[str, str]]:
    """Candidate answers for a pair, as (text, source) with source one of
    entity, anchor_text, title, yes, no.

    Hyper: recognized entities plus anchor surface spans of both documents,
    deduplicated in that order on their raw text, empty when there are none.
    Topic: both titles, "yes", "no". Each text is `promptkit.one_line`, as
    prompts take an answer.
    """
    if pair.relation == TOPIC:
        titles = [(one_line(doc.title), "title") for doc in (pair.d1, pair.d2)]
        return [*titles, ("yes", "yes"), ("no", "no")]
    candidates: list[tuple[str, str]] = []
    seen: set[str] = set()
    for entity in entities:
        if entity and entity not in seen:
            seen.add(entity)
            candidates.append((one_line(entity), "entity"))
    for doc in (pair.d1, pair.d2):
        for span, _ in doc.anchors:
            if span and span not in seen:
                seen.add(span)
                candidates.append((one_line(span), "anchor_text"))
    return candidates


def pick_answer(candidates: list[tuple[str, str]], rng: random.Random) -> tuple[str, str]:
    if not candidates:
        raise ValueError("cannot pick from an empty candidate list")
    return rng.choice(candidates)
