"""Query verification against the corpus index and final instance assembly.

A candidate query is valid when either pair document lands in its top-k.
The original-question backup is read only when every model candidate of the
row is invalid; `consult_backup_rule` is the one statement of that rule, and
verification reads no candidate it does not return. Valid queries that
retrieve the same pair document are duplicates; only the shortest survives.
Hop 1 is the first survivor in generation order, hop 2 the first later
survivor covering the other document.

`retrieve_queries` embeds and searches each distinct text once, one `embed`
and one `search` call per block of `retrieval.EMBED_BLOCK` texts. `search`
scores the block with one GEMM and returns exactly the per-query mat-vec
top-k (see `retrieval`). `pipeline.stage_verify` calls it twice: on the
model candidates of every row, then on the candidates `consult_backup_rule`
returns that the first pass did not retrieve, which are backups. A backup no
rule reads is never searched.

Retrieval failures are not verdicts: an `EmbeddingError` from the provider
or a `ValueError` from `search` (wrong dimension, non-finite vector) leaves
`retrieve_queries` and stops the stage, so a missed query always means the
retriever ran and missed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import CorpusStore
from .metrics import normalize_answer
from .pairing import HYPER, DocumentPair
from .retrieval import FlatIndex, embed, per_distinct_text, search
from .synthesis import ORIGIN_BACKUP, ORIGIN_MODEL, TASK_MQA, QuestionDraft

DROP_TWO_HOP_COVERAGE = "two_hop_coverage"
DROP_ONE_HOP_COVERAGE = "one_hop_coverage"
DROP_ANSWER_CONTAINMENT = "answer_containment"


@dataclass(frozen=True)
class QueryVerdict:
    candidate: dict  # a `generate_queries` row: {"text", "origin", "rank"}
    hit_d1: bool
    hit_d2: bool
    retrieved_ids: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return self.hit_d1 or self.hit_d2


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


def retrieve_queries(
    texts: Sequence[str],
    index: FlatIndex,
    provider,
    k: int,
) -> dict[str, tuple[str, ...]]:
    """Top-k doc ids for each distinct text, keyed by text in first-seen order.

    Each block of `per_distinct_text` is one `embed` and one `search` call,
    which scores it with one GEMM. Embedding and search errors propagate.
    """
    return per_distinct_text(lambda block: search(index, embed(provider, block), k), texts)


def verify_query(
    candidate: dict,
    pair: DocumentPair,
    retrieved: tuple[str, ...],
) -> QueryVerdict:
    """Flag pair-document hits among the ids `retrieve_queries` recorded for the candidate."""
    hit_d1 = pair.d1.id in retrieved
    hit_d2 = pair.d2.id in retrieved
    return QueryVerdict(candidate, hit_d1=hit_d1, hit_d2=hit_d2, retrieved_ids=retrieved)


def _dedup_key(verdict: QueryVerdict) -> tuple[int, int, int]:
    candidate = verdict.candidate
    return (len(candidate["text"]), 1 if candidate["origin"] == ORIGIN_BACKUP else 0,
            candidate["rank"])


def dedup_queries(verdicts: Sequence[QueryVerdict]) -> list[QueryVerdict]:
    """Drop invalid verdicts and collapse duplicate classes.

    Two valid verdicts are duplicates when they hit the same pair document,
    so there are at most two classes: every valid verdict when one of them
    hits both documents, else the d1 hitters and the d2 hitters. Each class
    keeps its shortest candidate (ties: model before backup, then lower
    generation rank, then input order). Output preserves input order.
    """
    valid = [v for v in verdicts if v.valid]
    if any(v.hit_d1 and v.hit_d2 for v in valid):
        classes = [range(len(valid))]
    else:
        classes = [
            [i for i, v in enumerate(valid) if v.hit_d1],
            [i for i, v in enumerate(valid) if v.hit_d2],
        ]
    keep = {min(cls, key=lambda i: _dedup_key(valid[i])) for cls in classes if cls}
    return [v for i, v in enumerate(valid) if i in keep]


def consult_backup_rule(row: Mapping, retrieved: Mapping[str, Sequence[str]]) -> list[dict]:
    """The candidates of `row` that verification reads: its model candidates
    when any of them retrieved `row["d1"]` or `row["d2"]`, else its backups.

    `retrieved` maps a text to its top-k ids; it needs only the model texts.
    """
    model = [c for c in row["candidates"] if c["origin"] == ORIGIN_MODEL]
    pair = (row["d1"], row["d2"])
    if any(doc in retrieved[c["text"]] for c in model for doc in pair):
        return model
    return [c for c in row["candidates"] if c["origin"] == ORIGIN_BACKUP]


def _instance_id(task: str, relation: str, pair: DocumentPair, question: str) -> str:
    digest = hashlib.sha256(question.encode("utf-8")).hexdigest()[:8]
    return f"{task}-{relation}-{pair.d1.id}-{pair.d2.id}-{digest}"


def _containment_ok(answer: str, retrieved_ids: Sequence[str], store: CorpusStore) -> bool:
    haystack = " ".join(
        store.normalized_text(doc_id) for doc_id in retrieved_ids if doc_id in store.documents
    )
    return normalize_answer(answer) in haystack


def assemble_instance(
    draft: QuestionDraft,
    decision: Mapping,
    verdicts: Sequence[QueryVerdict],
    store: CorpusStore,
) -> DataInstance | str:
    """Dedup the verdicts, pick the hops that cover the question and build the instance.

    `verdicts` are those of the candidates `consult_backup_rule` returns, in
    generation order. `decision` is any mapping with the `classify_hops`
    fields: a decision or a stage row. Returns the instance, or its drop
    reason (a `DROP_*` constant) for pipeline accounting.
    """
    pair = draft.pair
    verdicts = dedup_queries(verdicts)
    if decision["hops"] == "two":
        if not verdicts:
            return DROP_TWO_HOP_COVERAGE
        first = verdicts[0]
        chosen = [first]
        if not (first.hit_d1 and first.hit_d2):
            missing_is_d1 = not first.hit_d1
            second = next(
                (v for v in verdicts[1:] if (v.hit_d1 if missing_is_d1 else v.hit_d2)),
                None,
            )
            if second is None:
                return DROP_TWO_HOP_COVERAGE
            chosen.append(second)
    else:
        wanted: set[str] = set()
        if "first" in decision["answerable_in"]:
            wanted.add(pair.d1.id)
        if "second" in decision["answerable_in"]:
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
            return DROP_ONE_HOP_COVERAGE
        chosen = [hop]

    if pair.relation == HYPER and draft.task == TASK_MQA:
        if not _containment_ok(decision["final_answer"], chosen[-1].retrieved_ids, store):
            return DROP_ANSWER_CONTAINMENT

    return DataInstance(
        id=_instance_id(draft.task, pair.relation, pair, draft.text),
        task=draft.task,
        relation=pair.relation,
        question_or_claim=draft.text,
        hops=tuple((v.candidate["text"], v.retrieved_ids) for v in chosen),
        answer=decision["final_answer"],
        source_pair=(pair.d1.id, pair.d2.id),
    )


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

    expected = retrieve_queries([text for text, _ in instance.hops], index, provider, config.k)
    covered: set[str] = set()
    for hop_index, (query_text, retrieved_ids) in enumerate(instance.hops):
        if len(retrieved_ids) > config.k:
            problems.append(f"{instance.id}: hop {hop_index} retrieved {len(retrieved_ids)} > k")
        if tuple(retrieved_ids) != expected[query_text]:
            problems.append(f"{instance.id}: hop {hop_index} retrieval not reproducible")
        hits = set(retrieved_ids) & {d1, d2}
        if not hits:
            problems.append(f"{instance.id}: hop {hop_index} query hits neither pair document")
        covered |= hits
    if len(instance.hops) == 2 and covered != {d1, d2}:
        problems.append(f"{instance.id}: two hops do not cover both pair documents")
    if not covered:
        problems.append(f"{instance.id}: no pair document covered")

    if instance.hops and instance.relation == HYPER and instance.task == TASK_MQA:
        if not _containment_ok(instance.answer, instance.hops[-1][1], store):
            problems.append(f"{instance.id}: answer missing from last-hop documents")
    return problems
