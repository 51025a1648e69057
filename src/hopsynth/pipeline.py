"""Stage-wise pipeline: pairs -> questions -> answer filters -> queries ->
verified instances, with per-reason drop accounting.

Every stage consumes and produces JSONL-friendly dicts so the CLI can stop
and resume between stages. All randomness derives from (seed, stable item
keys), so reruns with the same inputs reproduce outputs byte for byte.
Each stage runs with the clients it is given, runs any block pre-pass,
then hands a per-item step to `_run_steps`: one loop counts every stage's
attempts (the items it took; for `stage_pair`, the pairs sampled for the
task), outputs and drops, so attempts = emitted + drops per stage.
`run_all` runs `stage_pair` once over the whole corpus and the four per-row
stages on blocks of PAIR_BLOCK pair rows, so the rows of only one block are
held at a time; pair rows do not depend on each other, so the blocks write
what one block would. `run_eval` scores one greedy episode, or
majority-votes sampled ones, per evaluation item; it plays the episodes in
blocks, turn by turn.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import asdict
from itertools import islice
from pathlib import Path

from . import retrieval, synthesis
from .config import PipelineConfig, build_backend, build_embedder, build_examples, build_recognizer
from .corpus import CorpusStore, ingest_corpus, serialize_store
from .emitter import dataset_stats, split_dev, write_jsonl
from .evalharness import play_episodes, run_episode, score_fever, score_qa, self_consistency
from .genbackend import EVAL_GREEDY, EVAL_SELF_CONSISTENCY, default_decode_params
from .jsonl import (
    NON_EMPTY,
    STRING,
    InputError,
    is_strings,
    read_numbered_rows,
    refuse_multiline,
)
from .pairing import (
    HYPER,
    RELATION,
    DocumentPair,
    answer_candidates,
    derive_rng,
    derive_seed,
    pick_answer,
    sample_pairs,
)
from .retrieval import build_flat_index, embed, per_distinct_text
from .synthesis import (
    FEVER_LABELS,
    ORIGIN_BACKUP,
    ORIGIN_MODEL,
    TASK_FEVER,
    TASK_MQA,
    QuestionDraft,
)
from .verification import (
    DROP_ANSWER_CONTAINMENT,
    DROP_ONE_HOP_COVERAGE,
    DROP_TWO_HOP_COVERAGE,
    DataInstance,
    assemble_instance,
    consult_backup_rule,
    retrieve_queries,
    verify_query,
)

DROP_REASONS = (
    "no_answer_candidates",
    "empty_question",
    "entity_filter",
    "not_answerable",
    DROP_TWO_HOP_COVERAGE,
    DROP_ONE_HOP_COVERAGE,
    DROP_ANSWER_CONTAINMENT,
)


# Pair rows per block of the per-row stages in `run_all`. A block's drafts,
# decisions and candidates are dropped before the next block starts, so the
# rows in memory stop growing with the corpus.
PAIR_BLOCK = 1024


def counters_conserved(counters: dict[str, int]) -> bool:
    drops = sum(counters.get(reason, 0) for reason in DROP_REASONS)
    return counters["attempts"] == counters["emitted"] + drops


def _run_steps(items: list, step) -> tuple[list, dict[str, int]]:
    """Run a stage's step on each item in order; the one place stages count.

    A step returns the item's output, or a drop reason: a str in
    DROP_REASONS (any other str raises KeyError).
    """
    outputs = []
    drops = dict.fromkeys(DROP_REASONS, 0)
    for item in items:
        result = step(item)
        if isinstance(result, str):
            drops[result] += 1
        else:
            outputs.append(result)
    return outputs, {"attempts": len(items), "emitted": len(outputs), **drops}


def own(built: ExitStack, client):
    """`client`, which the caller built, closed when `built` exits if it has
    a `close` (the HTTP clients do). A client the caller was passed is its
    owner's to close, so it never goes through here."""
    close = getattr(client, "close", None)
    if close is not None:
        built.callback(close)
    return client


def build_store(path: str | Path, config: PipelineConfig) -> CorpusStore:
    return ingest_corpus(path, config.corpus, config.topics)


def _pair_from_row(store: CorpusStore, row: dict) -> DocumentPair:
    return DocumentPair(store.documents[row["d1"]], store.documents[row["d2"]], row["relation"])


def stage_pair(store: CorpusStore, config: PipelineConfig, recognizer=None) -> tuple[list[dict], dict]:
    """Sample pairs per anchor document and attach a prepared answer.

    For fact verification only hyper pairs are used and the answer is a
    uniformly sampled label; for QA the answer comes from the candidate set,
    and the distinct texts of the hyper pairs' documents go to the
    recognizer in blocks before any answer is picked. Without a recognizer
    it builds and closes one, as perfbench calls `stage_pair(store, config)`.
    """
    mqa = config.task == TASK_MQA
    pairs = [
        pair
        for anchor_id in sorted(store.documents)
        for pair in sample_pairs(store, anchor_id, config.pairing, config.seed)
        if mqa or pair.relation == HYPER
    ]
    entities = {}
    if mqa:  # fever needs no recognizer
        with ExitStack() as built:
            entities = per_distinct_text(recognizer or own(built, build_recognizer(config)), [
                doc.text for pair in pairs if pair.relation == HYPER for doc in (pair.d1, pair.d2)
            ])

    def step(pair: DocumentPair):
        rng = derive_rng(config.seed, "answer", pair.d1.id, pair.d2.id)
        if mqa:
            docs = (pair.d1, pair.d2) if pair.relation == HYPER else ()
            candidates = answer_candidates(pair, [e for doc in docs for e in entities[doc.text]])
            if not candidates:  # only a hyper pair can have none
                return "no_answer_candidates"
            answer, source = pick_answer(candidates, rng)
        else:
            answer, source = rng.choice(FEVER_LABELS), "label"
        return {"d1": pair.d1.id, "d2": pair.d2.id, "relation": pair.relation,
                "answer": answer, "answer_source": source}

    return _run_steps(pairs, step)


def stage_questions(
    store: CorpusStore,
    pair_rows: list[dict],
    config: PipelineConfig,
    backend,
    recognizer,
    examples=None,
) -> tuple[list[dict], dict]:
    """Generate questions/claims and apply the entity filter.

    All drafts are generated first; their distinct texts then go to the
    recognizer in blocks, and the filter runs in row order.
    """
    drafts = [
        synthesis.generate_question(
            _pair_from_row(store, row), row["answer"], backend, task=config.task,
            examples=examples, seed=derive_seed(config.seed, "qgen", row["d1"], row["d2"]),
        )
        for row in pair_rows
    ]
    entities = per_distinct_text(recognizer, [draft.text for draft in drafts if draft])

    def step(item: tuple[dict, QuestionDraft | None]):
        row, draft = item
        if draft is None:
            return "empty_question"
        if not synthesis.entity_count_filter(draft, entities[draft.text], config.filter):
            return "entity_filter"
        return {**row, "question": draft.text}

    return _run_steps(list(zip(pair_rows, drafts, strict=True)), step)


def _draft_from_row(store: CorpusStore, row: dict, task: str) -> QuestionDraft:
    return QuestionDraft(
        pair=_pair_from_row(store, row), task=task,
        text=row["question"], prepared_answer=row["answer"],
    )


def stage_filter_answers(
    store: CorpusStore,
    draft_rows: list[dict],
    config: PipelineConfig,
    backend,
    examples=None,
) -> tuple[list[dict], dict]:
    """Answerability and hop classification via both/first/second probes."""

    def step(row: dict):
        draft = _draft_from_row(store, row, config.task)
        pair = draft.pair
        preds = {
            context: synthesis.answer_question(
                draft.text, docs, backend, task=config.task, setting=pair.relation,
                examples=examples,
                seed=derive_seed(config.seed, "answer", context, row["d1"], row["d2"]),
            )
            for context, docs in (("both", [pair.d1, pair.d2]), ("first", [pair.d1]),
                                  ("second", [pair.d2]))
        }
        decision = synthesis.classify_hops(
            draft, preds["both"], preds["first"], preds["second"], config.filter
        )
        return "not_answerable" if decision is None else {**row, **decision}

    return _run_steps(draft_rows, step)


def stage_queries(
    store: CorpusStore,
    decision_rows: list[dict],
    config: PipelineConfig,
    backend,
    examples=None,
) -> tuple[list[dict], dict]:
    """Generate query candidates (model + backup) for every kept draft."""

    def step(row: dict):
        return {**row, "candidates": synthesis.generate_queries(
            _pair_from_row(store, row), row["question"], row["final_answer"], backend,
            task=config.task, examples=examples,
            seed=derive_seed(config.seed, "querygen", row["d1"], row["d2"]),
        )}

    return _run_steps(decision_rows, step)


def build_index(store: CorpusStore, provider):
    """The flat index of every stored document, embedded EMBED_BLOCK texts per call.

    The ids go in sorted, so `build_flat_index` keeps `embed`'s matrix as it is.
    """
    doc_ids = sorted(store.documents)
    vectors = embed(provider, [store.documents[i].text for i in doc_ids])
    return build_flat_index(doc_ids, vectors)


def stage_verify(
    store: CorpusStore,
    candidate_rows: list[dict],
    config: PipelineConfig,
    provider,
    index=None,
    retrieved=None,
) -> tuple[list[DataInstance], dict]:
    """Verify candidates against the corpus index and assemble instances.

    Retrieval runs in two passes, each embedding and searching a distinct
    text once. The first takes the model candidates of every row. The
    second takes the candidates `consult_backup_rule` returns that the first
    pass did not retrieve: the backups of the rows whose model candidates
    all missed d1 and d2. Each candidate row that rule returns goes to
    `verify_query` as it is, and the row itself to `assemble_instance` as
    its decision. Without an `index` it builds the store's. `retrieved`, a
    map from text to top-k ids that the caller shares between calls on the
    same index and k, is updated in place, and both passes skip the texts
    already in it, so a run in blocks retrieves each distinct text once.
    """
    retrieved = {} if retrieved is None else retrieved
    k = config.verify.k
    index = index if index is not None else build_index(store, provider)
    retrieved.update(retrieve_queries([
        c["text"] for row in candidate_rows for c in row["candidates"]
        if c["origin"] == ORIGIN_MODEL and c["text"] not in retrieved
    ], index, provider, k))
    retrieved.update(retrieve_queries([
        c["text"] for row in candidate_rows for c in consult_backup_rule(row, retrieved)
        if c["text"] not in retrieved
    ], index, provider, k))

    def step(row: dict):
        draft = _draft_from_row(store, row, config.task)
        return assemble_instance(draft, row, [
            verify_query(c, draft.pair, retrieved[c["text"]])
            for c in consult_backup_rule(row, retrieved)
        ], store)

    return _run_steps(candidate_rows, step)


def _is_contexts(value) -> bool:
    return (is_strings(value) and value == sorted(set(value))
            and set(value) <= {"both", "first", "second"})


def _is_candidates(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(c, dict) and isinstance(c.get("text"), str)
        and c.get("origin") in (ORIGIN_MODEL, ORIGIN_BACKUP) and type(c.get("rank")) is int
        for c in value
    )


_PAIR = {"relation": RELATION}  # what _pair_from_row reads besides d1 and d2
_DRAFT = {**_PAIR, "question": NON_EMPTY, "answer": STRING}  # what _draft_from_row reads

# The synthesis chain, in order: (command, stage name, help, the fields the
# stage reads of its input rows besides d1 and d2, each with the check it must
# pass as the rules that read it take it; None for pair, which reads no rows).
# It holds names: a caller runs `stage_<name>` as it finds it at the call.
STAGES = (
    ("pair", "pair", "sample document pairs with prepared answers", None),
    ("gen-questions", "questions", "generate questions/claims and entity-filter them",
     {**_PAIR, "answer": STRING}),
    ("filter-answers", "filter_answers", "answerability and hop classification", _DRAFT),
    ("gen-queries", "queries", "generate query candidates",
     {**_PAIR, "question": NON_EMPTY, "final_answer": STRING}),
    ("verify", "verify", "verify queries and assemble instances", {
        **_DRAFT,
        "hops": (lambda value: value in ("one", "two"), "'one' or 'two'"),
        "answerable_in": (_is_contexts,
                          "a sorted list of distinct values from 'both', 'first', 'second'"),
        "final_answer": STRING,
        "candidates": (_is_candidates, f"a list of {{'text': str, 'origin': {ORIGIN_MODEL!r} "
                                       f"or {ORIGIN_BACKUP!r}, 'rank': int}}"),
    }),
)


def write_splits(
    instances: list[DataInstance], out_dir: str | Path, config: PipelineConfig
) -> tuple[list[DataInstance], list[DataInstance]]:
    """Split off a seeded dev set and write train.jsonl and dev.jsonl to out_dir."""
    out_dir = Path(out_dir)
    dev_size = min(config.dev_size, len(instances))
    train, dev = split_dev(instances, dev_size=dev_size, seed=derive_seed(config.seed, "dev"))
    write_jsonl(train, out_dir / "train.jsonl")
    write_jsonl(dev, out_dir / "dev.jsonl")
    return train, dev


def run_all(
    corpus_path: str | Path,
    out_dir: str | Path,
    config: PipelineConfig,
    backend=None,
    provider=None,
    recognizer=None,
) -> dict:
    """End-to-end synthesis. Writes train, dev and store files to out_dir.

    `stage_pair` runs once over the whole corpus: its rows are the smallest,
    and its recognizer pre-pass takes each distinct document text once. The
    four per-row stages then run on consecutive blocks of PAIR_BLOCK pair
    rows, and a block's rows are dropped before the next block starts; the
    instances, the output, are kept whole. The corpus index is built once,
    before the first block (one empty block runs if there are no pair
    rows), and one map from text to top-k ids is shared by the blocks, so
    each distinct text is retrieved once per run. Pair rows do not depend
    on each other and every seed is keyed on the pair, so the output and
    the counters, summed over the blocks, do not depend on PAIR_BLOCK.

    Nothing is written until every stage has run, so a run that fails in a
    stage creates no out_dir. Returns the report dict (counters plus output paths and
    stats). The clients it builds itself are closed once the stages have run,
    or have raised.
    """
    out_dir = Path(out_dir)
    with ExitStack() as built:
        backend = backend or own(built, build_backend(config))
        provider = provider or own(built, build_embedder(config))
        recognizer = recognizer or own(built, build_recognizer(config))
        examples = build_examples(config)

        store = build_store(corpus_path, config)
        pair_rows, pair_counts = stage_pair(store, config, recognizer=recognizer)
        index = build_index(store, provider)
        stages, instances, retrieved = [pair_counts], [], {}
        for start in range(0, max(len(pair_rows), 1), PAIR_BLOCK):
            # each stage takes the rows the one before it wrote; rebinding
            # `rows` frees a stage's input once the next stage has returned
            rows, question_counts = stage_questions(
                store, pair_rows[start:start + PAIR_BLOCK], config, backend, recognizer, examples)
            rows, answer_counts = stage_filter_answers(store, rows, config, backend, examples)
            rows, query_counts = stage_queries(store, rows, config, backend, examples)
            block, verify_counts = stage_verify(store, rows, config, provider, index=index,
                                                retrieved=retrieved)
            del rows
            instances += block
            stages += (question_counts, answer_counts, query_counts, verify_counts)
        del pair_rows, index, retrieved
    totals = {"attempts": pair_counts["attempts"], "emitted": len(instances)}
    totals.update({reason: sum(counts[reason] for counts in stages) for reason in DROP_REASONS})

    train, dev = write_splits(instances, out_dir, config)
    serialize_store(store, out_dir / "store.jsonl")
    report = {
        "task": config.task,
        "seed": config.seed,
        "counters": totals,
        "conserved": counters_conserved(totals),
        "stats": asdict(dataset_stats(train, dev)),
        "outputs": {
            "train": str(out_dir / "train.jsonl"),
            "dev": str(out_dir / "dev.jsonl"),
            "store": str(out_dir / "store.jsonl"),
        },
    }
    return report


# task -> (the gold field of an evaluation item, its check)
_GOLD_FIELDS = {
    TASK_MQA: ("answer", STRING),
    TASK_FEVER: ("label", (
        lambda value: isinstance(value, str) and synthesis.normalize_label(value) in FEVER_LABELS,
        f"one of {', '.join(map(repr, FEVER_LABELS))}",
    )),
}


def run_eval(
    eval_path: str | Path,
    corpus_path: str | Path,
    config: PipelineConfig,
    backend=None,
    provider=None,
) -> dict:
    """Score an evaluation set with retrieval episodes.

    Items carry {"id", "question", "answer"} (QA) or {"id", "question",
    "label"} (fact verification); an item without them, a question or answer
    that is not a string, a question that spans lines (the episode takes it
    on one line), or a label not in FEVER_LABELS once normalized, raises
    InputError naming `<path>:<line>`, and a file without items raises
    InputError naming `<path>`, before the corpus is read. The clients it
    builds itself are closed when it returns or raises.
    `config.eval.mode` picks greedy decoding, one episode per item, or
    self-consistency, several sampled episodes; either way the prediction
    is the majority vote over the item's answers.

    The episodes (items by seeds, in that order) run in blocks of
    EMBED_BLOCK: `play_episodes` plays a block turn by turn, each turn's
    queries searched together, then `run_episode` reads each played episode
    into its transcript, once per episode in order. The backend gets the
    same requests as one episode at a time would send, in another order.
    """
    gold_field, gold_check = _GOLD_FIELDS[config.task]
    fields = {"id": None, "question": STRING, gold_field: gold_check}
    items = []
    for line_no, row in read_numbered_rows(eval_path, fields=fields):
        refuse_multiline(row, ("question",), f"{eval_path}:{line_no}")
        items.append(row)
    if not items:
        raise InputError(f"{eval_path}: no evaluation items")
    sampled = config.eval.mode == "self_consistency"
    params = default_decode_params(EVAL_SELF_CONSISTENCY if sampled else EVAL_GREEDY)
    samples = config.eval.self_consistency_samples if sampled else 1

    def episodes():
        for item in items:
            if sampled:
                seeds = [derive_seed(config.seed, "eval", item["id"], s) for s in range(samples)]
            else:
                seeds = [derive_seed(config.seed, "eval", item["id"])]
            for seed in seeds:
                yield item["question"], params.with_seed(seed)

    with ExitStack() as built:
        backend = backend or own(built, build_backend(config))
        provider = provider or own(built, build_embedder(config))
        store = build_store(corpus_path, config)
        index = build_index(store, provider)
        lookup = lambda doc_id: store.documents[doc_id].text  # noqa: E731
        stream, answers = episodes(), []
        while block := list(islice(stream, retrieval.EMBED_BLOCK)):
            played = play_episodes(block, backend, index, provider, config.eval, lookup)
            for (question, _), episode in zip(block, played, strict=True):
                answers.append(run_episode(question, episode).final_answer or "")
    records = [
        {"id": item["id"], "prediction": self_consistency(answers[n * samples:(n + 1) * samples]),
         "gold": item[gold_field]}
        for n, item in enumerate(items)
    ]
    predictions = [r["prediction"] for r in records]
    golds = [r["gold"] for r in records]
    if config.task == TASK_FEVER:
        report: dict = {"accuracy": score_fever(predictions, golds)}
    else:
        em, f1 = score_qa(predictions, golds)
        report = {"em": em, "f1": f1}
    report["items"] = records
    return report
