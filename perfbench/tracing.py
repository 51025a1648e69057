"""Spans and counters around hopsynth's layers, recorded from outside.

`Tracer.install()` replaces each traced function under the name its caller
looks it up by (`pipeline.stage_pair`, `verification.search`,
`synthesis.complete`, ...) with a wrapper that records a span: name, start,
end, parent span and workload-item id. Spans stay in memory until
`write_spans`. A span's self time is its duration minus the time its child
spans cover. `layer_metrics` turns the aggregates into the per-layer metrics.
No hopsynth source changes; `uninstall()` restores every original.
"""

from __future__ import annotations

import itertools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from hopsynth import (
    evalharness,
    pairing,
    pipeline,
    promptkit,
    retrieval,
    synthesis,
    verification,
)

STAGES = ("pair", "questions", "filter_answers", "queries", "verify")
HTTP_ROUTES = ("completions", "embeddings", "entities")


def _pair_key(pair) -> str:
    return f"{pair.d1.id}|{pair.d2.id}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, item)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.episode_s: list[float] = []
        self._stack: list[list] = []  # [span id, child seconds, item]
        self._ids = itertools.count()
        self._queries_seen: set[str] = set()
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, item_of=None, after=None):
        """`fn` recording a span per call; `after(args, result)` adds counts."""
        stack, spans, ids = self._stack, self.spans, self._ids

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            item = item_of(args) if item_of else (parent[2] if parent else None)
            frame = [next(ids), 0.0, item]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
                spans.append((frame[0], name, start, end, parent[0] if parent else None, item))
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, module, attr, name, **hooks) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **hooks))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- counters ------------------------------------------------------------

    def _stage_io(self, stage):
        def after(args, result):
            self.counts[f"pipeline.stage_{stage}.in"] += (
                len(args[0].documents) if stage == "pair" else len(args[1])
            )
            self.counts[f"pipeline.stage_{stage}.out"] += len(result[0])

        return after

    def _embed_texts(self, args, result) -> None:
        self.counts["retrieval.embed.texts"] += len(args[1])

    def _query_texts(self, args, result) -> None:
        self._embed_texts(args, result)
        for text in args[1]:
            self.counts["retrieval.query_texts"] += 1
            if text in self._queries_seen:
                self.counts["retrieval.query_repeats"] += 1
            self._queries_seen.add(text)

    def _topk_rows(self, args, result) -> None:
        self.counts["kernels.select_topk.rows"] += args[0].shape[0]

    def _prompt_chars(self, args, result) -> None:
        self.counts["promptkit.prompt_chars"] += len(result.text)

    def _verdict(self, args, result) -> None:
        self.counts["verification.valid"] += result.valid

    def _episode(self, args, result) -> None:
        self.counts["evalharness.run_episode.hops"] += len(result.turns)
        self.counts[f"evalharness.halt.{result.halted_reason}"] += 1
        _, _, start, end, _, _ = self.spans[-1]
        self.episode_s.append(end - start)

    def _entity_texts(self, args, result) -> None:
        self.counts["entities.texts"] += len(args[0])

    # -- installation --------------------------------------------------------

    def install(self, backend, provider, recognizer) -> tuple:
        """Patch module names; return the wrapped objects to pass in."""
        for stage in STAGES:
            self.patch(pipeline, f"stage_{stage}", f"pipeline.stage_{stage}",
                       after=self._stage_io(stage))
        self.patch(pipeline, "build_index", "pipeline.build_index")
        self.patch(pipeline, "ingest_corpus", "corpus.ingest_corpus")
        self.patch(pipeline, "serialize_store", "corpus.serialize_store")
        self.patch(pairing, "hyperlink_neighbors", "corpus.hyperlink_neighbors")
        self.patch(pipeline, "sample_pairs", "pairing.sample_pairs")
        self.patch(promptkit, "builtin_examples", "promptkit.builtin_examples")
        self.patch(promptkit, "render_prompt", "promptkit.render_prompt",
                   after=self._prompt_chars)
        pair_item = lambda args: _pair_key(args[0])  # noqa: E731
        for fn in ("generate_question", "generate_queries"):
            self.patch(synthesis, fn, f"synthesis.{fn}", item_of=pair_item)
        self.patch(synthesis, "answer_question", "synthesis.answer_question",
                   item_of=lambda args: "|".join(doc.id for doc in args[1]))
        self.patch(synthesis, "entity_count_filter", "synthesis.entity_count_filter",
                   item_of=lambda args: _pair_key(args[0].pair))
        for module in (synthesis, evalharness):
            self.patch(module, "complete", "genbackend.complete")
        self.patch(pipeline, "embed", "retrieval.embed", after=self._embed_texts)
        for module in (verification, evalharness):
            self.patch(module, "embed", "retrieval.embed", after=self._query_texts)
            self.patch(module, "search", "retrieval.search")
        self.patch(pipeline, "build_flat_index", "retrieval.build_flat_index")
        self.patch(retrieval, "select_topk", "kernels.select_topk", after=self._topk_rows)
        self.patch(pipeline, "verify_query", "verification.verify_query",
                   item_of=lambda args: _pair_key(args[1]), after=self._verdict)
        self.patch(pipeline, "assemble_instance", "verification.assemble_instance",
                   item_of=lambda args: _pair_key(args[0].pair))
        self.patch(pipeline, "run_episode", "evalharness.run_episode",
                   item_of=lambda args: args[0], after=self._episode)
        self.patch(pipeline, "write_jsonl", "emitter.write_jsonl")

        inner = getattr(backend, "inner", backend)
        if getattr(inner, "rule", None) is not None:
            self.patch(inner, "rule", "mockllm.rule")
        clients = (inner, getattr(provider, "inner", None), getattr(recognizer, "inner", None))
        for route, client in zip(HTTP_ROUTES, clients):
            session = getattr(client, "session", None)
            if session is not None:
                self.patch(session, "post", f"genbackend.http.{route}")
        recognizer = self.wrap("entities", recognizer, after=self._entity_texts)
        return backend, provider, recognizer

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, backend_calls: int, stub: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out: dict[str, tuple[float, str]] = {}

        def timed(span, with_calls=True):
            out[f"{span}.s"] = (self_s.get(span, 0.0), "s")
            if with_calls:
                out[f"{span}.calls"] = (calls.get(span, 0), "count")

        for stage in STAGES:
            name = f"pipeline.stage_{stage}"
            timed(name, with_calls=False)
            out[f"{name}.in"] = (counts[f"{name}.in"], "count")
            out[f"{name}.out"] = (counts[f"{name}.out"], "count")
        timed("pipeline.build_index", with_calls=False)
        timed("corpus.ingest_corpus", with_calls=False)
        timed("corpus.serialize_store", with_calls=False)
        timed("corpus.hyperlink_neighbors")
        timed("pairing.sample_pairs", with_calls=False)
        timed("promptkit.builtin_examples")
        timed("promptkit.render_prompt")
        out["promptkit.prompt_chars"] = (counts["promptkit.prompt_chars"], "chars")
        for fn in ("generate_question", "entity_count_filter", "answer_question",
                   "generate_queries"):
            timed(f"synthesis.{fn}")
        timed("genbackend.complete")
        out["genbackend.complete.empty"] = (
            counts["genbackend.complete.raised.EmptyCompletion"], "count")
        routes = [f"genbackend.http.{route}" for route in HTTP_ROUTES]
        out["genbackend.http.requests"] = (sum(calls.get(r, 0) for r in routes), "count")
        completions = calls.get("genbackend.http.completions", 0)
        out["genbackend.http.retries"] = (
            completions - backend_calls if completions else 0, "count")
        out["genbackend.http.client_s"] = (sum(self_s.get(r, 0.0) for r in routes), "s")
        out["stub.requests"] = (stub.get("requests", 0), "count")
        out["stub.busy_s"] = (stub.get("busy_s", 0.0), "s")
        timed("mockllm.rule")
        timed("entities")
        out["entities.texts"] = (counts["entities.texts"], "count")
        timed("retrieval.embed")
        out["retrieval.embed.texts"] = (counts["retrieval.embed.texts"], "count")
        timed("retrieval.search")
        timed("retrieval.build_flat_index", with_calls=False)
        queries = counts["retrieval.query_texts"]
        out["retrieval.query_repeat_frac"] = (
            counts["retrieval.query_repeats"] / queries if queries else 0.0, "frac")
        timed("kernels.select_topk")
        out["kernels.select_topk.rows"] = (counts["kernels.select_topk.rows"], "count")
        timed("verification.verify_query")
        verdicts = calls.get("verification.verify_query", 0)
        out["verification.valid_frac"] = (
            counts["verification.valid"] / verdicts if verdicts else 0.0, "frac")
        timed("verification.assemble_instance", with_calls=False)
        episodes = self.episode_s
        out["evalharness.run_episode.calls"] = (len(episodes), "count")
        out["evalharness.run_episode.hops"] = (counts["evalharness.run_episode.hops"], "count")
        quantiles = statistics.quantiles(episodes, n=100) if len(episodes) >= 2 else [0.0] * 99
        out["evalharness.episode_ms.p50"] = (1e3 * quantiles[49], "ms")
        out["evalharness.episode_ms.p99"] = (1e3 * quantiles[98], "ms")
        for reason in (evalharness.HALT_ANSWERED, evalharness.HALT_HOP_LIMIT,
                       evalharness.HALT_EMPTY):
            out[f"evalharness.halt.{reason}"] = (counts[f"evalharness.halt.{reason}"], "count")
        timed("emitter.write_jsonl", with_calls=False)
        return out
