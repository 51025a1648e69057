"""Stage-wise pipeline: pairs -> questions -> answer filters -> queries ->
verified instances, with per-reason drop accounting.

Every stage consumes and produces JSONL-friendly dicts so the CLI can stop
and resume between stages. All randomness derives from (seed, stable item
keys), so reruns with the same inputs reproduce outputs byte for byte, and
item-level work parallelizes without ordering effects.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import synthesis
from .config import (
    PipelineConfig,
    build_backend,
    build_embedder,
    build_recognizer,
    build_topic_labeler,
)
from .corpus import CorpusStore, ingest_corpus, serialize_store
from .emitter import dataset_stats, split_dev, write_jsonl
from .evalharness import run_episode, score_fever, score_qa, self_consistency
from .genbackend import EVAL_GREEDY, EVAL_SELF_CONSISTENCY, default_decode_params
from .pairing import (
    HYPER,
    DocumentPair,
    NoCandidates,
    answer_candidates,
    derive_rng,
    derive_seed,
    pick_answer,
    sample_pairs,
)
from .promptkit import load_examples
from .retrieval import build_flat_index, embed
from .synthesis import (
    FEVER_LABELS,
    TASK_FEVER,
    TASK_MQA,
    HopDecision,
    QueryCandidate,
    QuestionDraft,
)
from .verification import (
    DataInstance,
    VerifyConfig,
    assemble_instance,
    retrieve_queries,
    verify_query,
)

logger = logging.getLogger(__name__)

DROP_REASONS = (
    "no_answer_candidates",
    "empty_question",
    "entity_filter",
    "not_answerable",
    "two_hop_coverage",
    "one_hop_coverage",
    "answer_containment",
)


def new_counters() -> dict[str, int]:
    counters = {"attempts": 0, "emitted": 0}
    counters.update({reason: 0 for reason in DROP_REASONS})
    return counters


def merge_counters(total: dict[str, int], part: dict[str, int]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def counters_conserved(counters: dict[str, int]) -> bool:
    drops = sum(counters.get(reason, 0) for reason in DROP_REASONS)
    return counters["attempts"] == counters["emitted"] + drops


def build_store(path: str | Path, config: PipelineConfig) -> CorpusStore:
    labeler = build_topic_labeler(config)
    store = ingest_corpus(path, config.corpus, topic_labeler=labeler)
    if config.topics_labeler == "none" and store.topic_clusters:
        documents = {i: replace(d, topic=None) for i, d in store.documents.items()}
        store = CorpusStore(documents, store.title_index, store.link_graph, {})
    return store


def _pair_from_row(store: CorpusStore, row: dict) -> DocumentPair:
    return DocumentPair(
        d1=store.documents[row["d1"]], d2=store.documents[row["d2"]], relation=row["relation"]
    )


def _examples_override(config: PipelineConfig):
    if config.examples_path:
        return load_examples(config.examples_path)
    return None


def stage_pair(store: CorpusStore, config: PipelineConfig, recognizer=None) -> tuple[list[dict], dict]:
    """Sample pairs per anchor document and attach a prepared answer.

    For fact verification only hyper pairs are used and the answer is a
    uniformly sampled label; for QA the answer comes from the candidate set.
    """
    recognizer = recognizer or build_recognizer(config)
    pairing_config = replace(config.pairing, rng_seed=config.seed)
    counters = new_counters()
    rows: list[dict] = []
    for anchor_id in sorted(store.documents):
        for pair in sample_pairs(store, anchor_id, pairing_config):
            if config.task == TASK_FEVER and pair.relation != HYPER:
                continue
            counters["attempts"] += 1
            rng = derive_rng(config.seed, "answer", pair.d1.id, pair.d2.id)
            if config.task == TASK_FEVER:
                answer, source = rng.choice(FEVER_LABELS), "label"
            else:
                if pair.relation == HYPER:
                    try:
                        entities = recognizer([pair.d1.text, pair.d2.text])
                        flat = [e for group in entities for e in group]
                        candidates = answer_candidates(pair, flat)
                    except NoCandidates:
                        counters["no_answer_candidates"] += 1
                        continue
                else:
                    candidates = answer_candidates(pair, [])
                chosen = pick_answer(candidates, rng)
                answer, source = chosen.text, chosen.source
            rows.append(
                {
                    "d1": pair.d1.id,
                    "d2": pair.d2.id,
                    "relation": pair.relation,
                    "answer": answer,
                    "answer_source": source,
                }
            )
    return rows, counters


def _map_ordered(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def stage_questions(
    store: CorpusStore,
    pair_rows: list[dict],
    config: PipelineConfig,
    backend=None,
    recognizer=None,
) -> tuple[list[dict], dict]:
    """Generate questions/claims and apply the entity filter."""
    backend = backend or build_backend(config)
    recognizer = recognizer or build_recognizer(config)
    examples = _examples_override(config)
    counters = new_counters()

    def work(row: dict):
        pair = _pair_from_row(store, row)
        draft = synthesis.generate_question(
            pair, row["answer"], backend, task=config.task, examples=examples,
            seed=derive_seed(config.seed, "qgen", row["d1"], row["d2"]),
        )
        if draft is None:
            return row, "empty_question"
        if not synthesis.entity_count_filter(draft, recognizer, config.filter):
            return row, "entity_filter"
        return {**row, "question": draft.text}, None

    results = _map_ordered(work, pair_rows, config.resolved_workers())
    rows = []
    for result, drop in results:
        if drop:
            counters[drop] += 1
        else:
            rows.append(result)
    return rows, counters


def _draft_from_row(store: CorpusStore, row: dict, task: str) -> QuestionDraft:
    return QuestionDraft(
        pair=_pair_from_row(store, row), task=task,
        text=row["question"], prepared_answer=row["answer"],
    )


def stage_filter_answers(
    store: CorpusStore,
    draft_rows: list[dict],
    config: PipelineConfig,
    backend=None,
) -> tuple[list[dict], dict]:
    """Answerability and hop classification via both/first/second probes."""
    backend = backend or build_backend(config)
    examples = _examples_override(config)
    counters = new_counters()

    def work(row: dict):
        draft = _draft_from_row(store, row, config.task)
        pair = draft.pair
        preds = {}
        for context, docs in (
            ("both", [pair.d1, pair.d2]),
            ("first", [pair.d1]),
            ("second", [pair.d2]),
        ):
            preds[context] = synthesis.answer_question(
                draft.text, docs, backend, task=config.task, setting=pair.relation,
                examples=examples,
                seed=derive_seed(config.seed, "answer", context, row["d1"], row["d2"]),
            )
        decision = synthesis.classify_hops(
            draft, preds["both"], preds["first"], preds["second"], config.filter
        )
        if decision.verdict != "keep":
            return row, None, "not_answerable"
        return row, decision, None

    results = _map_ordered(work, draft_rows, config.resolved_workers())
    rows = []
    for row, decision, drop in results:
        if drop:
            counters[drop] += 1
            continue
        rows.append(
            {
                **row,
                "hops": decision.hops,
                "answerable_in": sorted(decision.answerable_in),
                "final_answer": decision.final_answer,
            }
        )
    return rows, counters


def stage_queries(
    store: CorpusStore,
    decision_rows: list[dict],
    config: PipelineConfig,
    backend=None,
) -> tuple[list[dict], dict]:
    """Generate query candidates (model + backup) for every kept draft."""
    backend = backend or build_backend(config)
    examples = _examples_override(config)

    def work(row: dict):
        pair = _pair_from_row(store, row)
        candidates = synthesis.generate_queries(
            pair, row["question"], row["final_answer"], backend, task=config.task,
            examples=examples,
            seed=derive_seed(config.seed, "querygen", row["d1"], row["d2"]),
        )
        return {
            **row,
            "candidates": [
                {"text": c.text, "origin": c.origin, "rank": c.generation_rank}
                for c in candidates
            ],
        }

    rows = _map_ordered(work, decision_rows, config.resolved_workers())
    return rows, new_counters()


def build_index(store: CorpusStore, provider):
    doc_ids = sorted(store.documents)
    vectors = embed(provider, [store.documents[i].text for i in doc_ids])
    return build_flat_index(doc_ids, vectors)


def stage_verify(
    store: CorpusStore,
    candidate_rows: list[dict],
    config: PipelineConfig,
    provider=None,
    index=None,
) -> tuple[list[DataInstance], dict]:
    """Verify candidates against the corpus index and assemble instances.

    Each distinct candidate text across all rows is embedded and searched
    once; every candidate then gets its verdict from those retrieved ids.
    """
    provider = provider or build_embedder(config)
    index = index if index is not None else build_index(store, provider)
    counters = new_counters()
    retrieved = retrieve_queries(
        [c["text"] for row in candidate_rows for c in row["candidates"]],
        index, provider, config.verify.k,
    )

    def work(row: dict):
        pair = _pair_from_row(store, row)
        draft = _draft_from_row(store, row, config.task)
        decision = HopDecision(
            "keep", row["hops"], frozenset(row["answerable_in"]), row["final_answer"]
        )
        verdicts = [
            verify_query(
                QueryCandidate(c["text"], c["origin"], c["rank"]), pair, retrieved[c["text"]]
            )
            for c in row["candidates"]
        ]
        return assemble_instance(draft, decision, verdicts, store, config.verify)

    results = _map_ordered(work, candidate_rows, config.resolved_workers())
    instances = []
    for instance, reason in results:
        if instance is None:
            counters[reason] += 1
        else:
            instances.append(instance)
    counters["emitted"] = len(instances)
    return instances, counters


def run_all(
    corpus_path: str | Path,
    out_dir: str | Path,
    config: PipelineConfig,
    backend=None,
    provider=None,
    recognizer=None,
) -> dict:
    """End-to-end synthesis. Writes train/dev/stats/report files to out_dir.

    Returns the report dict (counters plus output paths and stats).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    backend = backend or build_backend(config)
    provider = provider or build_embedder(config)
    recognizer = recognizer or build_recognizer(config)

    store = build_store(corpus_path, config)
    serialize_store(store, out_dir / "store.jsonl")

    totals = new_counters()
    pair_rows, counters = stage_pair(store, config, recognizer=recognizer)
    merge_counters(totals, counters)
    draft_rows, counters = stage_questions(store, pair_rows, config, backend, recognizer)
    merge_counters(totals, counters)
    decision_rows, counters = stage_filter_answers(store, draft_rows, config, backend)
    merge_counters(totals, counters)
    candidate_rows, counters = stage_queries(store, decision_rows, config, backend)
    merge_counters(totals, counters)
    instances, counters = stage_verify(store, candidate_rows, config, provider)
    merge_counters(totals, counters)

    dev_size = min(config.dev_size, len(instances))
    train, dev = split_dev(instances, dev_size=dev_size, seed=derive_seed(config.seed, "dev"))
    write_jsonl(train, out_dir / "train.jsonl")
    write_jsonl(dev, out_dir / "dev.jsonl")
    report = {
        "task": config.task,
        "seed": config.seed,
        "counters": totals,
        "conserved": counters_conserved(totals),
        "stats": dataset_stats(train, dev).to_dict(),
        "outputs": {
            "train": str(out_dir / "train.jsonl"),
            "dev": str(out_dir / "dev.jsonl"),
            "store": str(out_dir / "store.jsonl"),
        },
    }
    return report


def load_eval_items(path: str | Path) -> list[dict]:
    import json

    items = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            items.append(json.loads(line))
    return items


def run_eval(
    eval_path: str | Path,
    corpus_path: str | Path,
    config: PipelineConfig,
    backend=None,
    provider=None,
) -> dict:
    """Score an evaluation set with retrieval episodes.

    Items carry {"id", "question", "answer"} (QA) or {"id", "question",
    "label"} (fact verification). Greedy mode runs one episode per item;
    self-consistency samples several episodes and majority-votes.
    """
    backend = backend or build_backend(config)
    provider = provider or build_embedder(config)
    store = build_store(corpus_path, config)
    index = build_index(store, provider)
    items = load_eval_items(eval_path)
    lookup = lambda doc_id: store.documents[doc_id].text  # noqa: E731

    def one_episode(item: dict, sample: Optional[int]) -> str:
        if sample is None:
            params = default_decode_params(EVAL_GREEDY)
            seed = derive_seed(config.seed, "eval", item["id"])
        else:
            params = default_decode_params(EVAL_SELF_CONSISTENCY)
            seed = derive_seed(config.seed, "eval", item["id"], sample)
        transcript = run_episode(
            item["question"], backend, index, provider, config.eval,
            params.replace_seed(seed), doc_text_lookup=lookup,
        )
        return transcript.final_answer or ""

    def work(item: dict) -> str:
        if config.eval_mode == "self_consistency":
            answers = [
                one_episode(item, sample)
                for sample in range(config.eval.self_consistency_samples)
            ]
            return self_consistency(answers)
        return one_episode(item, None)

    predictions = _map_ordered(work, items, config.resolved_workers())
    records = []
    for item, prediction in zip(items, predictions):
        gold = item.get("answer", item.get("label", ""))
        records.append({"id": item["id"], "prediction": prediction, "gold": gold})
    golds = [r["gold"] for r in records]
    if config.task == TASK_FEVER:
        report: dict = {"accuracy": score_fever(predictions, golds)}
    else:
        em, f1 = score_qa(predictions, golds)
        report = {"em": em, "f1": f1}
    report["items"] = records
    return report
