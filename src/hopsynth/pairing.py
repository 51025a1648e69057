"""Document pairing and answer-candidate selection.

Every anchor document yields up to `pairs_per_document` partners, drawn from
its hyperlink neighbors ("hyper" pairs) and its topic cluster ("topic"
pairs). Hyper answers come from recognized entities and anchor texts; topic
pairs always offer the two titles plus yes/no.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .corpus import CorpusStore, Document, hyperlink_neighbors, topic_neighbors

HYPER = "hyper"
TOPIC = "topic"


@dataclass(frozen=True)
class DocumentPair:
    d1: Document
    d2: Document
    relation: str  # HYPER or TOPIC


@dataclass(frozen=True)
class AnswerCandidate:
    text: str
    source: str  # entity | anchor_text | title | yes | no


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


def sample_pairs(
    store: CorpusStore, doc_id: str, config: PairingConfig, seed: int
) -> list[DocumentPair]:
    """Up to pairs_per_document pairs anchored at doc_id, shuffled by `seed`.

    Hyper partners are taken first, then topic partners, alternating while
    both pools last; partners never repeat within one anchor document.
    """
    if doc_id not in store.documents:
        raise KeyError(f"unknown document id: {doc_id}")
    rng = derive_rng(seed, "pairs", doc_id)
    hyper_pool = hyperlink_neighbors(store, doc_id)
    topic_pool = topic_neighbors(store, doc_id)
    rng.shuffle(hyper_pool)
    rng.shuffle(topic_pool)

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


def answer_candidates(pair: DocumentPair, entities: list[str]) -> list[AnswerCandidate]:
    """Candidate answers for a pair.

    Hyper: recognized entities plus anchor surface spans of both documents,
    deduplicated in that order, empty when there are none. Topic: both
    titles, "yes", "no".
    """
    if pair.relation == TOPIC:
        return [
            AnswerCandidate(pair.d1.title, "title"),
            AnswerCandidate(pair.d2.title, "title"),
            AnswerCandidate("yes", "yes"),
            AnswerCandidate("no", "no"),
        ]
    candidates: list[AnswerCandidate] = []
    seen: set[str] = set()
    for entity in entities:
        if entity and entity not in seen:
            seen.add(entity)
            candidates.append(AnswerCandidate(entity, "entity"))
    for doc in (pair.d1, pair.d2):
        for span, _ in doc.anchors:
            if span and span not in seen:
                seen.add(span)
                candidates.append(AnswerCandidate(span, "anchor_text"))
    return candidates


def pick_answer(candidates: list[AnswerCandidate], rng: random.Random) -> AnswerCandidate:
    if not candidates:
        raise ValueError("cannot pick from an empty candidate list")
    return rng.choice(candidates)
