"""Independent oracles the test suite checks the package against.

Each oracle is written from the rules directly, in the most literal way
possible, and stays independent of the implementation path it validates:

* SQuAD v1 scoring: a line-for-line port of the public evaluate-v1.1 logic,
  the reference for `metrics.score_pair`.
* Flat-index search: full sort of every dot product.
* Query dedup / instance assembly: explicit enumeration over candidates.
* Hyperlink neighbors: a scan of every document's outbound links.
* Pair sampling: the sampler's earlier implementation, which copies and
  shuffles an anchor's whole topic cluster.
* Heuristic entities: the recognizer's earlier implementation, kept as is,
  which marks runs with word offsets and sheds a sentence-initial word.
* Hash embeddings: the embedder's earlier implementation, one token vector
  added at a time.
* Document truncation: `truncate_text`'s earlier implementation, which
  takes the span of every token of the text.
* Evaluation episodes: the episode loop as it ran one episode at a time,
  one completion per turn and one mat-vec top-k per query.
* Synthesis prompts: `render_prompt` as it checked every call's task, stage
  and setting in turn and keyed its example cache by the examples' contents.
* Hop classification: `classify_hops` as it scored each agreement by itself
  (`_oracle_agrees`), normalizing both texts and counting tokens with
  `Counter` every time.
* Mock completions: `SyntheticPipelineRule` as it derived each call's
  generator with `derive_rng(seed, prompt)` over the whole prompt, its
  target block cut from the whole prompt at the last blank line.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re
import string
from collections import Counter

import numpy as np

from hopsynth.retrieval import select_topk
from hopsynth.genbackend import EmptyCompletion, complete
from hopsynth.mockllm import SyntheticPipelineRule
from hopsynth.pairing import derive_rng
from hopsynth.promptkit import parse_block, render_episode

# ---------------------------------------------------------------------------
# SQuAD v1 reference evaluator (evaluate-v1.1.py logic)
# ---------------------------------------------------------------------------


def squad_normalize(s):
    def remove_articles(text):
        return re.sub(r"\b(a|an|the)\b", " ", text)

    def white_space_fix(text):
        return " ".join(text.split())

    def remove_punc(text):
        exclude = set(string.punctuation)
        return "".join(ch for ch in text if ch not in exclude)

    def lower(text):
        return text.lower()

    return white_space_fix(remove_articles(remove_punc(lower(s))))


def squad_f1(prediction, ground_truth):
    prediction_tokens = squad_normalize(prediction).split()
    ground_truth_tokens = squad_normalize(ground_truth).split()
    common = Counter(prediction_tokens) & Counter(ground_truth_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = 1.0 * num_same / len(prediction_tokens)
    recall = 1.0 * num_same / len(ground_truth_tokens)
    return (2 * precision * recall) / (precision + recall)


def squad_exact_match(prediction, ground_truth):
    return squad_normalize(prediction) == squad_normalize(ground_truth)


# ---------------------------------------------------------------------------
# Brute-force flat search: score everything, sort everything
# ---------------------------------------------------------------------------


def brute_force_search(doc_ids, matrix, query_vec, k):
    """Top-k by descending float32 dot product, ties by ascending doc id."""
    scores = matrix.astype(np.float32) @ query_vec.astype(np.float32)
    order = sorted(range(len(doc_ids)), key=lambda i: (-float(scores[i]), doc_ids[i]))
    return [(doc_ids[i], float(scores[i])) for i in order[: min(k, len(doc_ids))]]


# ---------------------------------------------------------------------------
# Verification rules, enumerated literally
# ---------------------------------------------------------------------------


def oracle_dedup(verdicts):
    """Survivor list per the dedup rules, computed by explicit enumeration.

    A verdict is a dict with keys: text, origin ("model"|"backup"), rank,
    valid, hit_d1, hit_d2. Returns the surviving verdicts in input order.
    """
    valid = [v for v in verdicts if v["valid"]]
    # Build duplicate classes: connect two verdicts when they hit the same
    # pair document; transitive closure via repeated merging.
    classes = [{i} for i in range(len(valid))]
    changed = True
    while changed:
        changed = False
        for a in range(len(classes)):
            for b in range(a + 1, len(classes)):
                joined = False
                for i in classes[a]:
                    for j in classes[b]:
                        if (valid[i]["hit_d1"] and valid[j]["hit_d1"]) or (
                            valid[i]["hit_d2"] and valid[j]["hit_d2"]
                        ):
                            joined = True
                if joined:
                    classes[a] |= classes[b]
                    del classes[b]
                    changed = True
                    break
            if changed:
                break
    keep = set()
    for cls in classes:
        best = min(
            cls,
            key=lambda i: (
                len(valid[i]["text"]),
                1 if valid[i]["origin"] == "backup" else 0,
                valid[i]["rank"],
            ),
        )
        keep.add(id(valid[best]))
    return [v for v in valid if id(v) in keep]


def oracle_assemble(candidates, hops, answerable_in, answer, relation, task, normalize):
    """Assemble hops per the verification rules, or return None with a reason.

    candidates: verdict dicts in generation order, backup last; each carries
    a "retrieved_texts" list for the containment rule.
    Returns (chosen_verdicts, reason).
    """
    model = [c for c in candidates if c["origin"] == "model"]
    backup = [c for c in candidates if c["origin"] == "backup"]
    if any(c["valid"] for c in model):
        considered = model
    else:
        considered = backup
    survivors = oracle_dedup(considered)

    if hops == "two":
        if not survivors:
            return None, "two_hop_coverage"
        first = survivors[0]
        chosen = [first]
        covered = set()
        if first["hit_d1"]:
            covered.add("d1")
        if first["hit_d2"]:
            covered.add("d2")
        if covered != {"d1", "d2"}:
            missing = ({"d1", "d2"} - covered).pop()
            second = None
            for cand in survivors[1:]:
                if cand[f"hit_{missing}"]:
                    second = cand
                    break
            if second is None:
                return None, "two_hop_coverage"
            chosen.append(second)
    else:
        targets = set()
        if "first" in answerable_in:
            targets.add("d1")
        if "second" in answerable_in:
            targets.add("d2")
        chosen = None
        for cand in survivors:
            hit = set(d for d in ("d1", "d2") if cand[f"hit_{d}"])
            if hit & targets:
                chosen = [cand]
                break
        if chosen is None:
            return None, "one_hop_coverage"

    if relation == "hyper" and task == "mqa":
        last = chosen[-1]
        haystack = " ".join(normalize(t) for t in last["retrieved_texts"])
        if normalize(answer) not in haystack:
            return None, "answer_containment"
    return chosen, None


# ---------------------------------------------------------------------------
# Hyperlink neighbors: scan the whole outbound link graph per document
# ---------------------------------------------------------------------------


def oracle_hyperlink_neighbors(store, doc_id):
    """Documents linking to doc_id or linked from it, sorted, self excluded.

    The outbound graph is rebuilt from the stored anchors: an anchor is an
    edge when its target title names a document.
    """
    title_to_id = {doc.title: doc.id for doc in store.documents.values()}
    outbound = {
        doc.id: {title_to_id[t] for _, t in doc.anchors if t in title_to_id} - {doc.id}
        for doc in store.documents.values()
    }
    neighbors = set(outbound[doc_id])
    for other, targets in outbound.items():
        if doc_id in targets and other != doc_id:
            neighbors.add(other)
    return sorted(neighbors)


# ---------------------------------------------------------------------------
# Pair sampling: shuffle both partner pools whole, then pop
# ---------------------------------------------------------------------------


def oracle_sample_pairs(store, doc_id, pairs_per_document, seed):
    """(partner id, relation) per pair anchored at doc_id, as `sample_pairs` draws them.

    The rng is seeded from the first 8 bytes of sha256("seed:pairs:doc_id").
    It shuffles a copy of the sorted hyperlink neighbors, then a copy of the
    other members of the anchor's topic cluster; pairs pop from the ends,
    hyper first and alternating while both pools last, skipping repeats.
    """
    material = f"{seed}:pairs:{doc_id}".encode("utf-8")
    rng = random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))
    hyper_pool = list(store.hyperlinks[doc_id])
    topic = store.documents[doc_id].topic
    cluster = store.topic_clusters[topic] if topic is not None else ()
    topic_pool = [member for member in cluster if member != doc_id]
    rng.shuffle(hyper_pool)
    rng.shuffle(topic_pool)
    pairs, used, take_hyper = [], set(), True
    while len(pairs) < pairs_per_document and (hyper_pool or topic_pool):
        if (take_hyper and hyper_pool) or not topic_pool:
            partner, relation = hyper_pool.pop(), "hyper"
        else:
            partner, relation = topic_pool.pop(), "topic"
        take_hyper = not take_hyper
        if partner not in used:
            used.add(partner)
            pairs.append((partner, relation))
    return pairs


# ---------------------------------------------------------------------------
# Heuristic entity recognizer: the earlier implementation, run by run
# ---------------------------------------------------------------------------

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_WORD = re.compile(r"\S+")


def _is_capitalized(word):
    for ch in word:
        if ch.isalpha():
            return ch.isupper()
    return False


def _has_digit(word):
    return any(ch.isdigit() for ch in word)


def _strip_edges(word):
    return word.strip("\"'.,;:!?()[]{}")


def _oracle_runs(words, predicate, skip_sentence_start):
    runs = []
    current = []
    start_index = None
    for index, (word, _) in enumerate(words):
        if predicate(_strip_edges(word)):
            if not current:
                start_index = index
            current.append(_strip_edges(word))
        else:
            if current:
                runs.append((start_index, current))
                current = []
    if current:
        runs.append((start_index, current))
    spans = []
    for start, run in runs:
        if skip_sentence_start and start == 0:
            run = run[1:]
        span = " ".join(w for w in run if w)
        if span:
            spans.append(span)
    return spans


def oracle_heuristic_entities(text):
    """Capitalized runs not anchored at sentence start, then digit runs, per sentence."""
    found = []
    seen = set()
    for sentence in _SENTENCE_SPLIT.split(text):
        words = [(m.group(), m.start()) for m in _WORD.finditer(sentence)]
        for span in _oracle_runs(words, _is_capitalized, skip_sentence_start=True):
            if span not in seen:
                seen.add(span)
                found.append(span)
        for span in _oracle_runs(words, _has_digit, skip_sentence_start=False):
            if span not in seen:
                seen.add(span)
                found.append(span)
    return found


# ---------------------------------------------------------------------------
# Hash embeddings: a dict of token vectors, added to a zero vector one by one
# ---------------------------------------------------------------------------

# the pipeline's token rule: a maximal word run, or one other non-space character
_TOKEN = re.compile(r"\w+|[^\w\s]")


class OracleHashEmbedder:
    """The distinct lowercased tokens that hold an alphanumeric character,
    each a sha256-seeded unit gaussian, summed in sorted order and normalized."""

    def __init__(self, dim):
        self.dim = dim
        self._token_cache = {}

    def _token_vector(self, token):
        cached = self._token_cache.get(token)
        if cached is None:
            seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
            rng = np.random.default_rng(seed)
            vec = rng.standard_normal(self.dim).astype(np.float32)
            vec /= np.linalg.norm(vec)
            cached = self._token_cache[token] = vec
        return cached

    def __call__(self, texts):
        out = []
        for text in texts:
            tokens = {t.lower() for t in _TOKEN.findall(text) if any(c.isalnum() for c in t)}
            vec = np.zeros(self.dim, dtype=np.float32)
            for token in sorted(tokens):
                vec += self._token_vector(token)
            norm = np.linalg.norm(vec)
            if norm > 0:
                vec = vec / norm
            out.append(vec.astype(np.float32))
        return out


# ---------------------------------------------------------------------------
# Document truncation: the span of every token, then a cut after the last kept
# ---------------------------------------------------------------------------


def oracle_truncate_text(text, max_tokens):
    """The prefix of `text` that ends with its max_tokens-th token, or all of
    `text` when it has no more tokens than that."""
    spans = [m.span() for m in _TOKEN.finditer(text)]
    if len(spans) <= max_tokens:
        return text
    return text[: spans[max_tokens - 1][1]]


# ---------------------------------------------------------------------------
# Evaluation episodes: one episode at a time, one mat-vec per query
# ---------------------------------------------------------------------------


def oracle_episode(question, backend, params, index, provider, k, max_hops, doc_text):
    """One retrieval episode played by itself, turn after turn.

    Each turn renders the context, completes it once under `params` (an
    empty completion reads as ""), and a "Query:" line before the hop limit
    retrieves `select_topk(index.matrix @ q, k)` for its own embedding q.
    After `max_hops` queries the context ends in the "Answer:" cue. Returns
    the turns, the last line, whether it was completed at the limit, the
    answer (None without one) and the halt reason.
    """
    turns = []
    while True:
        at_limit = len(turns) == max_hops
        prompt = render_episode(question, turns, doc_text, cue="Answer:" if at_limit else None)
        try:
            line = complete(backend, prompt, params).strip()
        except EmptyCompletion:
            line = ""
        query = line[len("Query:"):].strip() if line.startswith("Query:") else ""
        if query and not at_limit:
            q = np.asarray(provider([query])[0], dtype=np.float32)
            rows = select_topk(index.matrix @ q, k)
            turns.append((query, tuple(index.doc_ids[row] for row in rows)))
            continue
        if line.startswith("Answer:"):
            answer = line[len("Answer:"):].strip()
        else:
            answer = line if at_limit else ""
        if at_limit and answer.startswith("Query:"):
            answer = ""
        break
    halted = "answered" if answer else "hop_limit" if at_limit else "empty_completion"
    return tuple(turns), line, at_limit, answer or None, halted


# ---------------------------------------------------------------------------
# Synthesis prompts: the checks in order, then the blocks written line by line
# ---------------------------------------------------------------------------

_ORACLE_LAYOUTS = {
    "question_gen": ("answer", "question"),
    "answering": ("question", "answer"),
    "query_gen": ("question", "answer", "queries"),
}
_ORACLE_LABELS = {
    "mqa": {"question": "Question", "answer": "Answer", "queries": "Query"},
    "fever": {"question": "Claim", "answer": "Answer", "queries": "Query"},
}


def oracle_check_task(task, setting, stage):
    from hopsynth.promptkit import PromptError

    if task not in _ORACLE_LABELS:
        raise PromptError(f"unknown task: {task}")
    if stage not in _ORACLE_LAYOUTS:
        raise PromptError(f"unknown stage: {stage}")
    if setting not in ("hyper", "topic"):
        raise PromptError(f"unknown setting: {setting}")
    if task == "fever" and setting == "topic":
        raise PromptError("fact verification only uses the hyper setting")


def _oracle_block(documents, layout, values):
    lines = [f"Document: {' '.join(doc.split(chr(10)))}" for doc in documents]
    for name, label in layout:
        lines.extend(f"{label}: {value}" for value in values[name])
    return "\n".join(lines)


def oracle_render_prompt(task, stage, setting, examples, documents, answer=None, question=None):
    """The prompt text; a bad input raises the PromptError the renderer raised."""
    from hopsynth.promptkit import PromptError

    oracle_check_task(task, setting, stage)
    labels = _ORACLE_LABELS[task]
    *given, cue = [(name, labels[name]) for name in _ORACLE_LAYOUTS[stage]]
    values = {}
    for name, label in given:
        value = question if name == "question" else answer
        if value is None or "\n" in value:
            raise PromptError(f"{task} {stage} needs a single-line {label} field")
        values[name] = (value,)
    if not documents:
        raise PromptError("target needs at least one document")
    prefix = "".join(
        _oracle_block(example.documents, given + [cue], {
            "question": (example.question_or_claim,),
            "answer": (example.answer,),
            "queries": example.queries,
        }) + "\n\n"
        for example in examples
    )
    return prefix + _oracle_block(documents, given, values) + f"\n{cue[1]}:"


# ---------------------------------------------------------------------------
# Hop classification: every agreement normalized and counted from the texts
# ---------------------------------------------------------------------------


def oracle_f1_tokens(pred_tokens, gold_tokens):
    """Multiset-overlap F1 of two token lists, counted with Counter."""
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def _oracle_agrees(pred, prepared, threshold, task):
    from hopsynth.metrics import normalize_answer
    from hopsynth.synthesis import normalize_label

    if task == "fever":
        return bool(pred.strip()) and normalize_label(pred) == normalize_label(prepared)
    f1 = oracle_f1_tokens(normalize_answer(pred).split(), normalize_answer(prepared).split())
    return f1 > threshold


def oracle_classify_hops(task, relation, prepared, pred_both, pred_first, pred_second, threshold):
    """The decision row, or None, for a draft of `task` on a `relation` pair."""
    if not pred_both.strip():
        return None
    agrees_first = _oracle_agrees(pred_both, pred_first, threshold, task)
    agrees_second = _oracle_agrees(pred_both, pred_second, threshold, task)
    if agrees_first or agrees_second:
        answerable_in = ["both"]
        if agrees_first:
            answerable_in.append("first")
        if agrees_second:
            answerable_in.append("second")
        hops = "two" if relation == "topic" else "one"
        return {"hops": hops, "answerable_in": answerable_in, "final_answer": pred_both}
    if _oracle_agrees(pred_both, prepared, threshold, task):
        return {"hops": "two", "answerable_in": ["both"], "final_answer": prepared}
    return None


class _OracleRule(SyntheticPipelineRule):
    def __call__(self, prompt, seed):
        rng = derive_rng(seed, prompt)
        target = parse_block(prompt.rpartition("\n\n")[2])
        cue = target["cue"]
        if cue == "Question:":
            return self._question(target, rng)
        if cue == "Claim:":
            return self._claim(target, rng)
        if cue == "Answer:" and "claim" in target:
            return self._verify(target, rng)
        if cue == "Answer:":
            return self._answer(target, rng)
        if cue == "Query:":
            return self._queries(target, rng)
        return ""


@functools.lru_cache(maxsize=None)
def _oracle_rule(**p):
    return _OracleRule(**p)


def oracle_synthetic_rule(prompt, seed, **p):
    """`SyntheticPipelineRule(**p)(prompt, seed)` by its definition: one
    generator from `derive_rng(seed, prompt)`, and the target block cut from
    the whole prompt after its last blank line; the completion for each cue
    is the rule's own."""
    return _oracle_rule(**p)(prompt, seed)
