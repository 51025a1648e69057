"""Query verification against the corpus index and final instance assembly.

A candidate query is valid when either pair document lands in its top-k.
Valid queries that retrieve the same pair document are duplicates; only the
shortest survives. Hop 1 is the first survivor in generation order, hop 2
the first later survivor covering the other document. The original-question
backup is consulted only when every model candidate is invalid.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import Optional, Sequence

from .corpus import CorpusStore
from .metrics import normalize_answer
from .pairing import HYPER, DocumentPair
from .retrieval import EmbeddingError, FlatIndex, embed, search
from .synthesis import (
    ORIGIN_BACKUP,
    ORIGIN_MODEL,
    TASK_MQA,
    HopDecision,
    QueryCandidate,
    QuestionDraft,
)

logger = logging.getLogger(__name__)

DROP_TWO_HOP_COVERAGE = "two_hop_coverage"
DROP_ONE_HOP_COVERAGE = "one_hop_coverage"
DROP_ANSWER_CONTAINMENT = "answer_containment"

# Query texts per embedding call. Over HTTP, 256-text blocks raised the
# client's peak RSS where 64 did not, and 64 already removes almost every call.
EMBED_BLOCK = 64
# Failures that make a query invalid rather than abort the run.
_RETRIEVAL_ERRORS = (EmbeddingError, ValueError)


@dataclass(frozen=True)
class QueryVerdict:
    candidate: QueryCandidate
    valid: bool
    hit_d1: bool
    hit_d2: bool
    retrieved_ids: tuple[str, ...]


@dataclass
class VerifyConfig:
    k: int = 7

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class DataInstance:
    id: str
    task: str  # mqa | fever
    relation: str  # hyper | topic
    question_or_claim: str
    hops: tuple[tuple[str, tuple[str, ...]], ...]  # (query text, retrieved ids)
    answer: str
    source_pair: tuple[str, str]
    single_or_two: str  # single | two (number of queries)


def _embed_one(provider, text: str):
    try:
        return embed(provider, [text])[0]
    except _RETRIEVAL_ERRORS as exc:
        return exc


def retrieve_queries(
    texts: Sequence[str],
    index: FlatIndex,
    provider,
    k: int,
) -> dict[str, tuple[str, ...] | Exception]:
    """Top-k doc ids for each distinct text, keyed by text in first-seen order.

    Distinct texts are embedded EMBED_BLOCK per provider call and each is
    searched once. When a block's call fails, its texts are embedded one at
    a time, so only the texts that fail on their own map to their error.
    """
    distinct = list(dict.fromkeys(texts))
    retrieved: dict[str, tuple[str, ...] | Exception] = {}
    for start in range(0, len(distinct), EMBED_BLOCK):
        block = distinct[start:start + EMBED_BLOCK]
        try:
            vectors = embed(provider, block)
        except _RETRIEVAL_ERRORS:
            vectors = [_embed_one(provider, text) for text in block]
        for text, vector in zip(block, vectors):
            if isinstance(vector, Exception):
                retrieved[text] = vector
                continue
            try:
                retrieved[text] = tuple(s.doc_id for s in search(index, vector, k))
            except ValueError as exc:
                retrieved[text] = exc
    return retrieved


def verify_query(
    candidate: QueryCandidate,
    pair: DocumentPair,
    retrieved: tuple[str, ...] | Exception,
) -> QueryVerdict:
    """Flag pair-document hits among the candidate's retrieved ids.

    `retrieved` is what `retrieve_queries` recorded for the candidate's
    text; an error there makes the verdict invalid.
    """
    if isinstance(retrieved, Exception):
        logger.warning("query %r could not be verified (%s); treating as invalid",
                       candidate.text[:60], retrieved)
        return QueryVerdict(candidate, valid=False, hit_d1=False, hit_d2=False, retrieved_ids=())
    hit_d1 = pair.d1.id in retrieved
    hit_d2 = pair.d2.id in retrieved
    return QueryVerdict(candidate, valid=hit_d1 or hit_d2, hit_d1=hit_d1, hit_d2=hit_d2,
                        retrieved_ids=retrieved)


def dedup_queries(verdicts: Sequence[QueryVerdict]) -> list[QueryVerdict]:
    """Drop invalid verdicts and collapse duplicate classes.

    Two valid verdicts are duplicates when they hit the same pair document;
    a verdict hitting both documents merges the two classes. Each class
    keeps its shortest candidate (ties: model before backup, then lower
    generation rank). Output preserves input order.
    """
    valid = [v for v in verdicts if v.valid]
    parent = list(range(len(valid)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    d1_hitters = [i for i, v in enumerate(valid) if v.hit_d1]
    d2_hitters = [i for i, v in enumerate(valid) if v.hit_d2]
    for group in (d1_hitters, d2_hitters):
        for i in group[1:]:
            union(group[0], i)

    best_of: dict[int, int] = {}
    for i, verdict in enumerate(valid):
        root = find(i)
        key = (
            len(verdict.candidate.text),
            1 if verdict.candidate.origin == ORIGIN_BACKUP else 0,
            verdict.candidate.generation_rank,
        )
        current = best_of.get(root)
        if current is None or key < (
            len(valid[current].candidate.text),
            1 if valid[current].candidate.origin == ORIGIN_BACKUP else 0,
            valid[current].candidate.generation_rank,
        ):
            best_of[root] = i
    keep = set(best_of.values())
    return [v for i, v in enumerate(valid) if i in keep]


def consult_backup_rule(verdicts: Sequence[QueryVerdict]) -> list[QueryVerdict]:
    """Model verdicts when any is valid; otherwise the backup verdict alone."""
    model = [v for v in verdicts if v.candidate.origin == ORIGIN_MODEL]
    backup = [v for v in verdicts if v.candidate.origin == ORIGIN_BACKUP]
    if any(v.valid for v in model):
        return model
    return backup


def _instance_id(task: str, relation: str, pair: DocumentPair, question: str) -> str:
    digest = hashlib.sha256(question.encode("utf-8")).hexdigest()[:8]
    return f"{task}-{relation}-{pair.d1.id}-{pair.d2.id}-{digest}"


def _containment_ok(answer: str, retrieved_ids: Sequence[str], store: CorpusStore) -> bool:
    haystack = " ".join(
        normalize_answer(store.documents[doc_id].text)
        for doc_id in retrieved_ids
        if doc_id in store.documents
    )
    return normalize_answer(answer) in haystack


def finalize_with_reason(
    draft: QuestionDraft,
    decision: HopDecision,
    verdicts: Sequence[QueryVerdict],
    store: CorpusStore,
    config: VerifyConfig,
) -> tuple[Optional[DataInstance], Optional[str]]:
    """finalize_instance plus the drop reason for pipeline accounting.

    `verdicts` must already be deduplicated survivors in generation order.
    """
    pair = draft.pair
    if decision.hops == "two":
        if not verdicts:
            return None, DROP_TWO_HOP_COVERAGE
        first = verdicts[0]
        chosen = [first]
        if not (first.hit_d1 and first.hit_d2):
            missing_is_d1 = not first.hit_d1
            second = next(
                (v for v in verdicts[1:] if (v.hit_d1 if missing_is_d1 else v.hit_d2)),
                None,
            )
            if second is None:
                return None, DROP_TWO_HOP_COVERAGE
            chosen.append(second)
    else:
        wanted: set[str] = set()
        if "first" in decision.answerable_in:
            wanted.add(pair.d1.id)
        if "second" in decision.answerable_in:
            wanted.add(pair.d2.id)
        if not wanted:
            raise ValueError("single-hop decision without an answerable document")
        hop = next(
            (
                v for v in verdicts
                if (v.hit_d1 and pair.d1.id in wanted) or (v.hit_d2 and pair.d2.id in wanted)
            ),
            None,
        )
        if hop is None:
            return None, DROP_ONE_HOP_COVERAGE
        chosen = [hop]

    if pair.relation == HYPER and draft.task == TASK_MQA:
        if not _containment_ok(decision.final_answer, chosen[-1].retrieved_ids, store):
            return None, DROP_ANSWER_CONTAINMENT

    instance = DataInstance(
        id=_instance_id(draft.task, pair.relation, pair, draft.text),
        task=draft.task,
        relation=pair.relation,
        question_or_claim=draft.text,
        hops=tuple((v.candidate.text, v.retrieved_ids) for v in chosen),
        answer=decision.final_answer,
        source_pair=(pair.d1.id, pair.d2.id),
        single_or_two="single" if len(chosen) == 1 else "two",
    )
    return instance, None


def finalize_instance(
    draft: QuestionDraft,
    decision: HopDecision,
    verdicts: Sequence[QueryVerdict],
    store: CorpusStore,
    config: VerifyConfig,
) -> Optional[DataInstance]:
    instance, _ = finalize_with_reason(draft, decision, verdicts, store, config)
    return instance


def assemble_instance(
    draft: QuestionDraft,
    decision: HopDecision,
    all_verdicts: Sequence[QueryVerdict],
    store: CorpusStore,
    config: VerifyConfig,
) -> tuple[Optional[DataInstance], Optional[str]]:
    """Backup rule, dedup, and finalize in one step."""
    considered = consult_backup_rule(all_verdicts)
    survivors = dedup_queries(considered)
    return finalize_with_reason(draft, decision, survivors, store, config)


def validate_instance(
    instance: DataInstance,
    store: CorpusStore,
    index: FlatIndex,
    provider,
    config: VerifyConfig,
) -> list[str]:
    """Standalone re-check of every DataInstance invariant.

    Re-runs retrieval for each hop query, so a clean result certifies the
    recorded retrieved ids, the coverage rules, and (for hyper questions)
    answer containment. Returns human-readable violations; empty means valid.
    """
    problems: list[str] = []
    d1, d2 = instance.source_pair
    if not 1 <= len(instance.hops) <= 2:
        problems.append(f"{instance.id}: {len(instance.hops)} hops")
    if d1 not in store.documents or d2 not in store.documents:
        problems.append(f"{instance.id}: source pair not in corpus")
        return problems
    if instance.single_or_two != ("single" if len(instance.hops) == 1 else "two"):
        problems.append(f"{instance.id}: single_or_two mislabeled")

    covered: set[str] = set()
    for hop_index, (query_text, retrieved_ids) in enumerate(instance.hops):
        if len(retrieved_ids) > config.k:
            problems.append(f"{instance.id}: hop {hop_index} retrieved {len(retrieved_ids)} > k")
        query_vec = embed(provider, [query_text])[0]
        expected = tuple(s.doc_id for s in search(index, query_vec, config.k))
        if tuple(retrieved_ids) != expected:
            problems.append(f"{instance.id}: hop {hop_index} retrieval not reproducible")
        hits = set(retrieved_ids) & {d1, d2}
        if not hits:
            problems.append(f"{instance.id}: hop {hop_index} query hits neither pair document")
        covered |= hits
    if len(instance.hops) == 2 and covered != {d1, d2}:
        problems.append(f"{instance.id}: two hops do not cover both pair documents")
    if not covered:
        problems.append(f"{instance.id}: no pair document covered")

    if instance.relation == HYPER and instance.task == TASK_MQA:
        if not _containment_ok(instance.answer, instance.hops[-1][1], store):
            problems.append(f"{instance.id}: answer missing from last-hop documents")
    return problems
