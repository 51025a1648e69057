import json
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from hopsynth import pipeline
from hopsynth.cli import main
from hopsynth.config import (ConfigError, PipelineConfig, _config_keys, build_backend,
                             build_recognizer, set_config_key)
from hopsynth.retrieval import HashEmbedder

from synthcorpus import make_corpus, write_corpus

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demo"


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("clicorpus") / "corpus.jsonl"
    write_corpus(path, make_corpus(n_docs=40, seed=5, n_topics=4))
    return path


def test_module_invocation_smoke(tmp_path, corpus_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "hopsynth.cli", "ingest",
         "--in", str(corpus_path), "--out", str(tmp_path / "store.jsonl")],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert "ingested" in out.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "hopsynth.cli", "nonsense"],
        capture_output=True, text=True, env=env,
    )
    assert bad.returncode == 1


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_subcommand(capsys):
    assert main([]) == 1


def test_unknown_flag(capsys):
    assert main(["--bogus", "stats"]) == 1


def test_runtime_failure_exit_2(tmp_path, capsys):
    assert main(["stats", "--in", str(tmp_path / "missing.jsonl")]) == 2


def _corpus_only_embeddings(tmp_path, corpus_path):
    """A config file whose embedding file holds the corpus texts alone, that
    file, and the first query text run-all asks it for."""
    config = PipelineConfig()
    store = pipeline.build_store(corpus_path, config)
    texts = [doc.text for doc in store.documents.values()]
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text("".join(
        json.dumps({"text": text, "vector": vector.tolist()}) + "\n"
        for text, vector in zip(texts, HashEmbedder(dim=32)(texts))
    ))
    config_file = tmp_path / "config.txt"
    config_file.write_text(f"embeddings.kind = file\nembeddings.file = {vectors}\n")
    backend = build_backend(config)
    rows, _ = pipeline.stage_pair(store, config)
    rows, _ = pipeline.stage_questions(store, rows, config, backend, build_recognizer(config))
    for stage in (pipeline.stage_filter_answers, pipeline.stage_queries):
        rows, _ = stage(store, rows, config, backend)
    return config_file, vectors, rows[0]["candidates"][0]["text"]


def test_run_all_exits_2_on_a_query_missing_from_the_embedding_file(
    tmp_path, corpus_path, capsys
):
    config_file, _, first_query = _corpus_only_embeddings(tmp_path, corpus_path)
    out = tmp_path / "out"
    assert main([
        "--config", str(config_file), "run-all", "--in", str(corpus_path), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert f"no precomputed embedding for text: {first_query[:60]!r}" in err
    assert not out.exists()  # nothing is written before every stage has run


def test_stage_command_runs_the_stage_found_at_the_call(tmp_path, corpus_path, capsys,
                                                         monkeypatch):
    calls = []
    stage_pair = pipeline.stage_pair

    def spy(*args, **clients):
        calls.append(args)
        return stage_pair(*args, **clients)

    monkeypatch.setattr(pipeline, "stage_pair", spy)
    store = tmp_path / "store.jsonl"
    assert main(["ingest", "--in", str(corpus_path), "--out", str(store)]) == 0
    assert main(["pair", "--store", str(store), "--out", str(tmp_path / "pairs.jsonl")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["gen-questions", "filter-answers", "gen-queries"])
def test_prompt_stage_refuses_a_bad_examples_store_before_its_inputs(
        tmp_path, capsys, caplog, monkeypatch, command):
    store, pairs = tmp_path / "store.jsonl", tmp_path / "pairs.jsonl"
    assert main(["--config", str(DEMO / "config.txt"), "ingest",
                 "--in", str(DEMO / "corpus.jsonl"), "--out", str(store)]) == 0
    assert main(["--config", str(DEMO / "config.txt"), "pair",
                 "--store", str(store), "--out", str(pairs)]) == 0
    capsys.readouterr()
    read = []
    build_store = pipeline.build_store
    monkeypatch.setattr(pipeline, "build_store",
                        lambda *args: read.append(args) or build_store(*args))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out.jsonl"
    assert main(["--config", str(DEMO / "config.txt"), "--examples", str(empty), command,
                 "--store", str(store), "--in", str(pairs), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: no few-shot examples\n"
    assert [record for record in caplog.records if record.exc_info] == []
    assert read == []
    assert not out.exists()


@pytest.mark.parametrize("command, lines, message", [
    ("verify", "embeddings.kind = file\nembeddings.file = <bad>",
     "<bad>:1: vector ['y'] is not a list of finite numbers"),
    ("pair", "recognizer.kind = http", "recognizer.kind=http requires recognizer.endpoint"),
    ("gen-questions", "recognizer.kind = http", "recognizer.kind=http requires recognizer.endpoint"),
    # fever's question stage runs the entity filter too, so it needs the recognizer
    ("gen-questions", "task = fever\nrecognizer.kind = http",
     "recognizer.kind=http requires recognizer.endpoint"),
], ids=["verify-embeddings-file", "pair-recognizer", "gen-questions-recognizer",
        "fever-gen-questions-recognizer"])
def test_stage_builds_its_clients_before_it_reads_the_store(tmp_path, capsys, caplog, command,
                                                            lines, message):
    bad = tmp_path / "vectors.jsonl"
    bad.write_text(json.dumps({"text": "a", "vector": ["y"]}) + "\n")
    config_file = tmp_path / "config.txt"
    config_file.write_text(lines.replace("<bad>", str(bad)) + "\n")
    inputs = [] if command == "pair" else ["--in", str(tmp_path / "rows.jsonl")]
    out = tmp_path / "out.jsonl"
    assert main(["--config", str(config_file), command, "--store", str(tmp_path / "missing.jsonl"),
                 *inputs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.replace('<bad>', str(bad))}\n"
    assert [record for record in caplog.records if record.exc_info] == []
    assert not out.exists()


def test_stage_chain(tmp_path, corpus_path, capsys):
    base = [
        "--seed", "3", "--task", "mqa", "--backend", "mock", "--embeddings", "mock",
        "--workers", "1",
    ]
    store = tmp_path / "store.jsonl"
    pairs = tmp_path / "pairs.jsonl"
    drafts = tmp_path / "drafts.jsonl"
    decisions = tmp_path / "decisions.jsonl"
    candidates = tmp_path / "candidates.jsonl"
    instances = tmp_path / "instances.jsonl"

    assert main(base + ["ingest", "--in", str(corpus_path), "--out", str(store)]) == 0
    assert main(base + ["pair", "--store", str(store), "--out", str(pairs)]) == 0
    assert main(base + [
        "gen-questions", "--store", str(store), "--in", str(pairs), "--out", str(drafts),
    ]) == 0
    assert main(base + [
        "filter-answers", "--store", str(store), "--in", str(drafts), "--out", str(decisions),
    ]) == 0
    assert main(base + [
        "gen-queries", "--store", str(store), "--in", str(decisions), "--out", str(candidates),
    ]) == 0
    report = tmp_path / "verify_report.json"
    assert main(base + [
        "verify", "--store", str(store), "--in", str(candidates),
        "--out", str(instances), "--report", str(report),
    ]) == 0
    emitted = [json.loads(l) for l in instances.read_text().splitlines()]
    assert emitted
    for row in emitted:
        assert set(row) == {
            "id", "task", "relation", "question", "answer", "hops", "source_pair", "n_hops",
        }
    counters = json.loads(report.read_text())
    assert counters["emitted"] == len(emitted)

    out_dir = tmp_path / "splits"
    assert main(base + [
        "emit", "--in", str(instances), "--out", str(out_dir), "--dev-size", "2",
    ]) == 0
    assert len((out_dir / "dev.jsonl").read_text().splitlines()) == 2

    capsys.readouterr()
    assert main(base + ["stats", "--in", str(instances)]) == 0
    stats_out = capsys.readouterr().out
    assert "Size of Train Set" in stats_out
    assert "#SQ Data" in stats_out


@pytest.mark.parametrize("task", ["mqa", "fever"])
def test_stage_chain_counters_conserve(tmp_path, corpus_path, capsys, task):
    # each stage command counts the rows it took and the rows it wrote;
    # fever's pair stage takes only the sampled hyper pairs
    from hopsynth.pairing import HYPER, sample_pairs

    base = ["--seed", "3", "--task", task]
    store = tmp_path / "store.jsonl"
    assert main(base + ["ingest", "--in", str(corpus_path), "--out", str(store)]) == 0
    config = PipelineConfig()
    ingested = pipeline.build_store(store, config)
    sampled = sum(
        task == "mqa" or pair.relation == HYPER
        for doc_id in ingested.documents
        for pair in sample_pairs(ingested, doc_id, config.pairing, 3)
    )
    chain = [
        ("pair", None, "pairs"), ("gen-questions", "pairs", "drafts"),
        ("filter-answers", "drafts", "decisions"), ("gen-queries", "decisions", "candidates"),
        ("verify", "candidates", "instances"),
    ]
    taken = sampled
    for command, in_name, out_name in chain:
        args = base + [command, "--store", str(store), "--out", str(tmp_path / out_name)]
        if in_name is not None:
            args += ["--in", str(tmp_path / in_name)]
            taken = len((tmp_path / in_name).read_text().splitlines())
        if command == "verify":
            args += ["--report", str(tmp_path / "report.json")]
        capsys.readouterr()
        assert main(args) == 0
        counters = json.loads(capsys.readouterr().err)["counters"]
        written = len((tmp_path / out_name).read_text().splitlines())
        assert counters["attempts"] == taken, command
        assert counters["emitted"] == written, command
        assert pipeline.counters_conserved(counters), (command, counters)
    assert json.loads((tmp_path / "report.json").read_text()) == counters


def test_fever_pair_builds_no_recognizer(tmp_path, corpus_path):
    # fever labels need no entities, so an unusable recognizer spec is never built
    store = tmp_path / "store.jsonl"
    assert main(["ingest", "--in", str(corpus_path), "--out", str(store)]) == 0
    http_config = tmp_path / "http.txt"
    http_config.write_text("recognizer.kind = http\n")
    outputs = {}
    for name, config_args in (("http", ["--config", str(http_config)]), ("heuristic", [])):
        outputs[name] = tmp_path / f"{name}.jsonl"
        assert main(config_args + [
            "--task", "fever", "pair", "--store", str(store), "--out", str(outputs[name]),
        ]) == 0
    assert outputs["http"].read_bytes() == outputs["heuristic"].read_bytes()
    assert outputs["http"].read_text()


@pytest.mark.parametrize("bad_line", ["{bad", "[1, 2]"])
def test_bad_input_line_names_file_and_line(tmp_path, corpus_path, capsys, bad_line):
    store = tmp_path / "store.jsonl"
    pairs = tmp_path / "pairs.jsonl"
    assert main(["ingest", "--in", str(corpus_path), "--out", str(store)]) == 0
    assert main(["pair", "--store", str(store), "--out", str(pairs)]) == 0
    first = pairs.read_text().splitlines()[0]
    pairs.write_text(f"{first}\n{bad_line}\n")
    capsys.readouterr()
    assert main([
        "gen-questions", "--store", str(store), "--in", str(pairs),
        "--out", str(tmp_path / "drafts.jsonl"),
    ]) == 2
    assert f"{pairs}:2: " in capsys.readouterr().err
    assert not (tmp_path / "drafts.jsonl").exists()


@pytest.mark.parametrize("argv", [
    lambda bad, out: ["--examples", str(bad), "run-all",
                      "--in", str(DEMO / "corpus.jsonl"), "--out", str(out)],
    lambda bad, out: ["ingest", "--in", str(bad), "--out", str(out)],
], ids=["examples", "corpus"])
def test_bad_jsonl_line_of_examples_or_corpus_names_file_and_line(tmp_path, capsys, argv):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{bad\n", encoding="utf-8")
    assert main(argv(bad, tmp_path / "out")) == 2
    assert f"{bad}:1: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("row,message", [
    ({"documents": ["a", "b"], "answer": "c"}, "missing field 'question'"),
    ({"documents": ["a"], "question": "q", "answer": "b"},
     "documents ['a'] is not a list of two strings"),
    ({"documents": ["a", "b"], "question": 5, "answer": "c"}, "question 5 is not a string"),
    ({"documents": ["a", "b"], "question": "q", "answer": ["c"]}, "answer ['c'] is not a string"),
    ({"documents": ["a", "b"], "question": "q", "answer": "c", "queries": "one"},
     "queries 'one' is not a list of strings"),
    ({"documents": ["a", "b"], "question": "q", "answer": "c", "queries": ["a", 1]},
     "queries ['a', 1] is not a list of strings"),
    ({"documents": ["a", "b"], "question": "q", "answer": "c", "queries": ["a", "b", "c"]},
     "an example carries at most two queries"),
])
def test_examples_row_missing_a_field_names_file_and_line(tmp_path, capsys, row, message):
    examples = tmp_path / "examples.jsonl"
    good = {"documents": ["a", "b"], "question": "q", "answer": "c"}
    examples.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n")
    assert main(["--examples", str(examples), "run-all", "--in", str(DEMO / "corpus.jsonl"),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{examples}:2: {message}" in capsys.readouterr().err


def test_embedding_file_row_missing_a_field_names_file_and_line(tmp_path, capsys):
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text(json.dumps({"text": "x"}) + "\n")
    config_file = tmp_path / "config.txt"
    config_file.write_text(f"embeddings.kind = file\nembeddings.file = {vectors}\n")
    assert main(["--config", str(config_file), "run-all", "--in", str(DEMO / "corpus.jsonl"),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{vectors}:1: missing field 'vector'" in capsys.readouterr().err


@pytest.mark.parametrize("row,message", [
    ({"text": "y", "vector": ["x", 0.0]}, "vector ['x', 0.0] is not a list of finite numbers"),
    ({"text": "y", "vector": [float("nan"), 0.0]}, "vector [nan, 0.0] is not a list of finite numbers"),
    ({"text": "y", "vector": [True, False]}, "vector [True, False] is not a list of finite numbers"),
    ({"text": 5, "vector": [1.0, 0.0]}, "text 5 is not a string"),
], ids=["string_entry", "nan_entry", "booleans", "text_not_a_string"])
def test_embedding_file_bad_row_names_file_and_line(tmp_path, capsys, row, message):
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text(json.dumps({"text": "x", "vector": [1.0, 0.0]}) + "\n"
                       + json.dumps(row) + "\n")
    config_file = tmp_path / "config.txt"
    config_file.write_text(f"embeddings.kind = file\nembeddings.file = {vectors}\n")
    assert main(["--config", str(config_file), "run-all", "--in", str(DEMO / "corpus.jsonl"),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"error: {vectors}:2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command,dropped", [
    ("gen-questions", "relation"),  # a pair row, as _pair_from_row reads it
    ("filter-answers", "question"),  # a draft row, as _draft_from_row reads it
])
def test_stage_row_missing_a_field_names_file_and_line(
    tmp_path, corpus_path, capsys, command, dropped
):
    store, pairs = tmp_path / "store.jsonl", tmp_path / "pairs.jsonl"
    assert main(["ingest", "--in", str(corpus_path), "--out", str(store)]) == 0
    assert main(["pair", "--store", str(store), "--out", str(pairs)]) == 0
    first = json.loads(pairs.read_text().splitlines()[0])
    rows = tmp_path / "rows.jsonl"
    rows.write_text(json.dumps({**first, "question": "Q?"}) + "\n"
                    + json.dumps({k: v for k, v in first.items() if k != dropped}) + "\n")
    capsys.readouterr()
    assert main([command, "--store", str(store), "--in", str(rows),
                 "--out", str(tmp_path / "out.jsonl")]) == 2
    assert f"{rows}:2: missing field {dropped!r}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["d1", "d2"])
def test_stage_row_with_an_unknown_id_names_field_id_and_store(tmp_path, capsys, name):
    store, pairs = tmp_path / "store.jsonl", tmp_path / "pairs.jsonl"
    assert main(["ingest", "--in", str(DEMO / "corpus.jsonl"), "--out", str(store)]) == 0
    assert main(["pair", "--store", str(store), "--out", str(pairs)]) == 0
    first = json.loads(pairs.read_text().splitlines()[0])
    pairs.write_text(json.dumps({**first, name: "no-such-doc"}) + "\n")
    capsys.readouterr()
    assert main(["gen-questions", "--in", str(pairs), "--store", str(store),
                 "--out", str(tmp_path / "q.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"error: {pairs}:1: {name} 'no-such-doc' is not a document of the store {store}" in err
    assert not (tmp_path / "q.jsonl").exists()
    # an id that is not a string (here unhashable) is named the same way
    pairs.write_text(json.dumps(first) + "\n" + json.dumps({**first, name: ["x"]}) + "\n")
    assert main(["gen-questions", "--in", str(pairs), "--store", str(store),
                 "--out", str(tmp_path / "q.jsonl")]) == 2
    assert f"error: {pairs}:2: {name} ['x'] is not a document" in capsys.readouterr().err


@pytest.fixture(scope="module")
def demo_candidates(tmp_path_factory):
    """The demo store and its gen-queries rows, under demo/config.txt."""
    out = tmp_path_factory.mktemp("democandidates")
    store, rows = out / "store.jsonl", out / "pairs.jsonl"
    base = ["--config", str(DEMO / "config.txt")]
    assert main(base + ["ingest", "--in", str(DEMO / "corpus.jsonl"), "--out", str(store)]) == 0
    assert main(base + ["pair", "--store", str(store), "--out", str(rows)]) == 0
    for command in ("gen-questions", "filter-answers", "gen-queries"):
        done = out / f"{command}.jsonl"
        assert main(base + [command, "--store", str(store), "--in", str(rows),
                            "--out", str(done)]) == 0
        rows = done
    return store, [json.loads(line) for line in rows.read_text().splitlines()]


def _verify_rows(tmp_path, store, rows) -> tuple[int, Path]:
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    code = main(["--config", str(DEMO / "config.txt"), "verify", "--store", str(store),
                 "--in", str(path), "--out", str(tmp_path / "out.jsonl")])
    return code, path


def test_verify_refuses_answerable_in_that_is_not_a_list(tmp_path, capsys, demo_candidates):
    # a string is not the list of contexts; verifying such rows read "first"
    # by its characters and emitted most of them as answerable in d1
    store, rows = demo_candidates
    capsys.readouterr()
    code, path = _verify_rows(tmp_path, store, [
        {**row, "hops": "one", "answerable_in": "first"} for row in rows
    ])
    assert code == 2
    assert (f"error: {path}:1: answerable_in 'first' is not a sorted list of distinct values "
            f"from 'both', 'first', 'second'") in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("command", ["filter-answers", "gen-queries", "verify"])
def test_stages_refuse_an_empty_question_as_a_bad_line(tmp_path, capsys, caplog,
                                                      demo_candidates, command):
    # every stage that reads a question refuses an empty one as a bad input
    # line, not as a runtime failure of the stage or of a later one
    store, rows = demo_candidates
    capsys.readouterr()
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(rows[0]) + "\n" + json.dumps({**rows[0], "question": ""}) + "\n")
    out = tmp_path / "out.jsonl"
    assert main(["--config", str(DEMO / "config.txt"), command, "--store", str(store),
                 "--in", str(path), "--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {path}:2: question '' is not a non-empty string"]
    assert [record for record in caplog.records if record.exc_info] == []
    assert not out.exists()


def _stage_on_two_rows(tmp_path, store, command, rows, *flags) -> tuple[int, Path, Path]:
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "out.jsonl"
    code = main(["--config", str(DEMO / "config.txt"), *flags, command, "--store", str(store),
                 "--in", str(path), "--out", str(out)])
    return code, path, out


@pytest.mark.parametrize("command, field", [
    ("gen-questions", "answer"), ("filter-answers", "question"),
    ("gen-queries", "final_answer"), ("verify", "question"),
])
def test_stages_refuse_a_field_that_spans_lines(tmp_path, capsys, caplog, demo_candidates,
                                                command, field):
    # every prompt takes a question or answer on one line: such a row used to
    # stop a stage with a PromptError traceback naming no line, or pass verify
    store, rows = demo_candidates
    capsys.readouterr()
    code, path, out = _stage_on_two_rows(tmp_path, store, command,
                                         [rows[0], {**rows[0], field: "two\nlines"}])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {path}:2: {field} 'two\\nlines' spans more than one line"]
    assert [record for record in caplog.records if record.exc_info] == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-questions", "filter-answers", "gen-queries", "verify"])
def test_fever_stages_refuse_a_topic_row(tmp_path, capsys, caplog, demo_candidates, command):
    # fever pairs are hyper only: a topic row used to stop a stage with a
    # traceback, or pass verify as a fever instance of relation topic
    store, rows = demo_candidates
    capsys.readouterr()
    hyper, topic = (next(row for row in rows if row["relation"] == r) for r in ("hyper", "topic"))
    code, path, out = _stage_on_two_rows(tmp_path, store, command, [hyper, topic],
                                         "--task", "fever")
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {path}:2: relation 'topic' is not 'hyper', the one fever relation"]
    assert [record for record in caplog.records if record.exc_info] == []
    assert not out.exists()


def _candidate(field, value):
    def patch(row):
        return {**row, "candidates": [{**row["candidates"][0], field: value},
                                      *row["candidates"][1:]]}
    return patch


@pytest.mark.parametrize("patch, field", [
    (_candidate("text", 5), "candidates"),
    (_candidate("origin", "other"), "candidates"),
    (_candidate("rank", "0"), "candidates"),
    (_candidate("rank", True), "candidates"),
    (lambda row: {**row, "candidates": [row["candidates"][0]["text"]]}, "candidates"),
    (lambda row: {**row, "candidates": "a query"}, "candidates"),
    (lambda row: {**row, "hops": "three"}, "hops"),
    (lambda row: {**row, "answerable_in": ["first", "both"]}, "answerable_in"),
    (lambda row: {**row, "answerable_in": ["both", "both"]}, "answerable_in"),
    (lambda row: {**row, "answerable_in": ["both", "third"]}, "answerable_in"),
    (lambda row: {**row, "answerable_in": [["both"]]}, "answerable_in"),
    (lambda row: {**row, "relation": "sibling"}, "relation"),
    (lambda row: {**row, "question": ["Q?"]}, "question"),
    (lambda row: {**row, "answer": 5}, "answer"),
    (lambda row: {**row, "final_answer": None}, "final_answer"),
], ids=["text-int", "origin-other", "rank-str", "rank-bool", "candidate-str", "candidates-str",
        "hops-three", "contexts-unsorted", "contexts-repeated", "contexts-unknown",
        "contexts-nested", "relation-sibling", "question-list", "answer-int",
        "final-answer-null"])
def test_verify_row_field_of_the_wrong_type_names_file_and_line(
    tmp_path, capsys, demo_candidates, patch, field
):
    # a candidate text of 5 used to die in word_tokens with a bare TypeError
    store, rows = demo_candidates
    capsys.readouterr()
    code, path = _verify_rows(tmp_path, store, [rows[0], patch(rows[1]), rows[2]])
    assert code == 2
    assert f"error: {path}:2: {field} " in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_verify_refuses_a_single_hop_row_that_no_document_answers(
    tmp_path, capsys, demo_candidates
):
    # such a row passes every field check; it used to stop the stage partway
    # with "single-hop decision without an answerable document" and no line
    store, rows = demo_candidates
    capsys.readouterr()
    code, path = _verify_rows(tmp_path, store, [
        rows[0], {**rows[1], "hops": "one", "answerable_in": ["both"]}, rows[2],
    ])
    assert code == 2
    assert (f"error: {path}:2: hops 'one' but answerable_in ['both'] names no document "
            f"that answers alone") in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_stage_commands_create_the_out_parent(tmp_path, capsys, demo_candidates):
    # each used to run its stage, then exit 2 with "No such file or directory"
    store, rows = demo_candidates
    missing = tmp_path / "missing"
    base = ["--config", str(DEMO / "config.txt")]
    assert main(base + ["ingest", "--in", str(DEMO / "corpus.jsonl"),
                        "--out", str(missing / "a" / "store.jsonl")]) == 0
    assert main(base + ["pair", "--store", str(store),
                        "--out", str(missing / "b" / "pairs.jsonl")]) == 0
    rows_path = tmp_path / "rows.jsonl"
    rows_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert main(base + ["verify", "--store", str(store), "--in", str(rows_path),
                        "--out", str(missing / "c" / "out.jsonl"),
                        "--report", str(missing / "d" / "report.json")]) == 0
    assert (missing / "a" / "store.jsonl").read_bytes() == store.read_bytes()
    assert (missing / "b" / "pairs.jsonl").stat().st_size > 0
    assert (missing / "c" / "out.jsonl").stat().st_size > 0
    assert json.loads((missing / "d" / "report.json").read_text())["attempts"] == len(rows)


_DATASET_RECORD = {
    "id": "i0", "task": "mqa", "relation": "hyper", "question": "Q?", "answer": "A",
    "hops": [{"query": "q", "retrieved": ["d1"]}], "source_pair": ["d1", "d2"], "n_hops": 1,
}


@pytest.mark.parametrize("command", ["stats", "emit"])
@pytest.mark.parametrize("patch, message", [
    (lambda r: {k: v for k, v in r.items() if k != "hops"}, "missing field 'hops'"),
    (lambda r: {**r, "hops": "x"}, "hops 'x' is not a list of {'query': str, 'retrieved': [str]}"),
    (lambda r: {**r, "hops": [{"query": "q", "retrieved": "d1"}]},
     "hops [{'query': 'q', 'retrieved': 'd1'}] is not a list of"),
    (lambda r: {**r, "source_pair": ["d1"]}, "source_pair ['d1'] is not a list of two strings"),
    (lambda r: {**r, "task": "qa"}, "task 'qa' is not 'mqa' or 'fever'"),
    (lambda r: {**r, "n_hops": "1"}, "n_hops '1' is not an integer"),
    (lambda r: {**r, "n_hops": 2}, "n_hops 2 but 1 hops"),
], ids=["no-hops", "hops-str", "retrieved-str", "pair-short", "task-qa", "n-hops-str",
        "n-hops-mismatch"])
def test_dataset_record_errors_name_file_and_line(tmp_path, capsys, command, patch, message):
    # a record without hops used to print "error: 'hops'" and a traceback
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(_DATASET_RECORD) + "\n" + json.dumps(patch(_DATASET_RECORD)) + "\n")
    out = tmp_path / "out"
    assert main([command, "--in", str(path)] + (["--out", str(out)] if command == "emit" else [])) == 2
    assert f"error: {path}:2: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_stage_rerun_reproduces_output(tmp_path, corpus_path):
    base = ["--seed", "9", "--backend", "mock", "--embeddings", "mock", "--workers", "2"]
    store = tmp_path / "store.jsonl"
    main(base + ["ingest", "--in", str(corpus_path), "--out", str(store)])
    p1, p2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
    assert main(base + ["pair", "--store", str(store), "--out", str(p1)]) == 0
    assert main(base + ["pair", "--store", str(store), "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_run_all_twice_byte_identical(tmp_path, corpus_path):
    base = [
        "--seed", "7", "--backend", "mock", "--embeddings", "mock", "--workers", "2",
        "run-all", "--in", str(corpus_path), "--dev-size", "3",
    ]
    assert main(base + ["--out", str(tmp_path / "r1")]) == 0
    assert main(base + ["--out", str(tmp_path / "r2")]) == 0
    for name in ("train.jsonl", "dev.jsonl"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
    report = json.loads((tmp_path / "r1" / "report.json").read_text())
    assert report["conserved"] is True


def test_config_file_and_flag_override(tmp_path, corpus_path):
    config_file = tmp_path / "config.txt"
    config_file.write_text(
        "# pipeline config\n"
        "seed = 5\n"
        "task = mqa\n"
        "backend.kind = mock\n"
        "embeddings.kind = mock\n"
        "pairing.pairs_per_document = 1\n"
        "verify.k = 3\n"
        "workers = 1\n"
    )
    out = tmp_path / "cfg_out"
    assert main([
        "--config", str(config_file), "run-all",
        "--in", str(corpus_path), "--out", str(out), "--dev-size", "0",
    ]) == 0
    rows = [json.loads(l) for l in (out / "train.jsonl").read_text().splitlines()]
    assert all(len(h["retrieved"]) <= 3 for r in rows for h in r["hops"])


def test_workers_alias_changes_nothing(tmp_path, corpus_path):
    base = ["--seed", "7", "--backend", "mock", "--embeddings", "mock"]
    run_all = ["run-all", "--in", str(corpus_path), "--dev-size", "3"]
    config_file = tmp_path / "workers.txt"
    config_file.write_text("workers = 4\n")
    variants = {
        f"flag{n}": base + ["--workers", str(n)] + run_all for n in (0, 1, 4)
    }
    variants["file4"] = ["--config", str(config_file)] + base + run_all
    for name, argv in variants.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    for name in ("train.jsonl", "dev.jsonl", "store.jsonl"):
        outputs = {(tmp_path / run / name).read_bytes() for run in variants}
        assert len(outputs) == 1, name


def test_stage_commands_counters_add_up_to_run_all(tmp_path, capsys):
    # run-all's totals: pair's attempts, verify's emitted, drops summed per reason
    base = ["--config", str(DEMO / "config.txt")]
    store = tmp_path / "store.jsonl"
    assert main(base + ["ingest", "--in", str(DEMO / "corpus.jsonl"), "--out", str(store)]) == 0
    chain = ("pair", "gen-questions", "filter-answers", "gen-queries", "verify")
    counters = {}
    for before, command in zip((None,) + chain, chain):
        argv = base + [command, "--store", str(store), "--out", str(tmp_path / command)]
        if before is not None:
            argv += ["--in", str(tmp_path / before)]
        capsys.readouterr()
        assert main(argv) == 0, command
        counters[command] = json.loads(capsys.readouterr().err)["counters"]
    assert main(base + [
        "run-all", "--in", str(DEMO / "corpus.jsonl"), "--out", str(tmp_path / "all"),
    ]) == 0
    totals = json.loads((tmp_path / "all" / "report.json").read_text())["counters"]
    assert totals["attempts"] == counters["pair"]["attempts"]
    assert totals["emitted"] == counters["verify"]["emitted"]
    for reason in pipeline.DROP_REASONS:
        assert totals[reason] == sum(c[reason] for c in counters.values()), reason
    assert sum(totals[reason] for reason in pipeline.DROP_REASONS) > 0


# every key: a scalar field of the config, or section.name for a scalar field of a section
CONFIG_KEYS = {
    "task", "seed", "workers", "dev_size", "examples",
    "corpus.max_doc_tokens", "topics.labeler",
    "pairing.pairs_per_document",
    "filter.f1_threshold", "filter.min_entities_hyper", "filter.min_entities_topic",
    "verify.k", "eval.max_hops", "eval.k", "eval.self_consistency_samples", "eval.mode",
    "backend.kind", "backend.endpoint", "backend.mock_script",
    "embeddings.kind", "embeddings.endpoint", "embeddings.file", "embeddings.dim",
    "recognizer.kind", "recognizer.endpoint",
}


def _is_known_key(key: str) -> bool:
    try:
        set_config_key(PipelineConfig(), key, "1")
    except ConfigError as exc:  # a bad value still names a known key
        return "unknown config key" not in str(exc)
    return True


def test_config_keys_are_exactly_the_pinned_set():
    assert len(CONFIG_KEYS) == 25
    config = PipelineConfig()
    candidates = set(CONFIG_KEYS) | {
        "topics_labeler", "examples_path", "topics", "corpus", "corpus.max_doc_tokens.x",
    }
    for outer in fields(config):
        candidates.add(outer.name)
        section = getattr(config, outer.name)
        if is_dataclass(section):
            candidates |= {f"{outer.name}.{inner.name}" for inner in fields(section)}
    assert {key for key in candidates if _is_known_key(key)} == CONFIG_KEYS
    for key in ("topics_labeler", "examples_path", "topics", "corpus", "corpus.max_doc_tokens.x"):
        with pytest.raises(ConfigError, match=f"unknown config key {key!r}"):
            set_config_key(PipelineConfig(), key, "1")


def test_readme_names_every_config_key_and_their_count():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    keys = _config_keys(PipelineConfig())
    assert [key for key in keys if f"`{key}`" not in readme] == []
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"there are (\d+)\.", " ".join(section.split())) == [str(len(keys))]


def test_config_unknown_key(tmp_path, corpus_path, capsys):
    # eval.corpus, pairing.rng_seed, backend.mock_rule, backend.mock_table and
    # corpus.dangling_link_policy were keys once; nothing read the first two,
    # nothing set the last three
    for line in ("no.such.key = 1", "eval.corpus = x.jsonl", "pairing.rng_seed = 3",
                 "backend.mock_rule = none", "backend.mock_table = table.json",
                 "corpus.dangling_link_policy = drop"):
        config_file = tmp_path / "bad.txt"
        config_file.write_text(line + "\n")
        assert main([
            "--config", str(config_file), "stats", "--in", str(corpus_path),
        ]) == 2, line
        assert f"{config_file}:1: unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "verify.k = 0",
    "corpus.max_doc_tokens = 0",
    "corpus.max_doc_tokens = many",
    "task = mqaa",
    "eval.mode = greedyy",
    "eval.max_hops = 0",
    "eval.k = 0",
    "eval.self_consistency_samples = 0",
    "backend.kind = htp",
    "embeddings.kind = fil",
    "embeddings.dim = 0",
    "recognizer.kind = heurstic",
    "filter.f1_threshold = 1.0",
    "filter.f1_threshold = -0.1",
    "pairing.pairs_per_document = -3",
    "filter.min_entities_hyper = -3",
    "filter.min_entities_topic = -1",
    "backend.endpoint = ftp://host",
    "embeddings.endpoint = http://host:99999",
    "recognizer.endpoint = http://host/a b",
    "topics.labeler = keywrd",
    "dev_size = -1",
])
def test_config_bad_value_exits_2(tmp_path, corpus_path, capsys, line):
    config_file = tmp_path / "bad.txt"
    config_file.write_text("pairing.pairs_per_document = 2\n" + line + "\n")
    out = tmp_path / "out"
    assert main([
        "--config", str(config_file), "run-all", "--in", str(corpus_path), "--out", str(out),
    ]) == 2
    assert f"{config_file}:2: bad value for {line.split()[0]!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("verify.k 3", "<config>:2: expected key = value"),
    ("backend.kind = http", "backend.kind=http requires backend.endpoint"),
    ("embeddings.kind = file", "embeddings.kind=file requires embeddings.file"),
    ("embeddings.kind = http", "embeddings.kind=http requires embeddings.endpoint"),
    ("recognizer.kind = http", "recognizer.kind=http requires recognizer.endpoint"),
], ids=["no-equals", "backend-endpoint", "embeddings-file", "embeddings-endpoint",
        "recognizer-endpoint"])
def test_config_error_exits_2_with_one_error_line(tmp_path, capsys, caplog, monkeypatch, line,
                                                  message):
    read = []
    monkeypatch.setattr(pipeline, "build_store", lambda *args: read.append(args))
    config_file = tmp_path / "config.txt"
    config_file.write_text("seed = 3\n" + line + "\n")
    out = tmp_path / "out"
    assert main(["--config", str(config_file), "run-all", "--in", str(DEMO / "corpus.jsonl"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.replace('<config>', str(config_file))}\n"
    assert [record for record in caplog.records if record.exc_info] == []
    assert read == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["run-all", "eval"])
def test_k_flag_is_validated(tmp_path, corpus_path, capsys, command):
    argv = [command, "--in", str(corpus_path), "--out", str(tmp_path / "out"), "--k", "0"]
    if command == "eval":
        argv += ["--corpus", str(corpus_path)]
    assert main(argv) == 2
    assert "--k: bad value for 'verify.k'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, command, key", [
    ("--task", "mqaa", "run-all", "task"),
    ("--backend", "htp", "run-all", "backend.kind"),
    ("--embeddings", "fil", "run-all", "embeddings.kind"),
    ("--seed", "x", "run-all", "seed"),
    ("--k", "x", "run-all", "verify.k"),
    ("--k", "x", "eval", "verify.k"),
    ("--dev-size", "x", "run-all", "dev_size"),
])
def test_bad_flag_value_exits_2(tmp_path, corpus_path, capsys, flag, value, command, key):
    # a flag's value is parsed and checked like a config file line's
    out = tmp_path / "out"
    paths = [command, "--in", str(corpus_path), "--out", str(out)]
    if command == "eval":
        paths += ["--corpus", str(corpus_path)]
    argv = paths + [flag, value] if flag in ("--k", "--dev-size") else [flag, value] + paths
    assert main(argv) == 2
    assert f"{flag}: bad value for {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run-all", "emit"])
def test_dev_size_flag_is_validated(tmp_path, corpus_path, capsys, command):
    argv = [command, "--in", str(corpus_path), "--out", str(tmp_path / "out"), "--dev-size", "-1"]
    assert main(argv) == 2
    assert "--dev-size: bad value for 'dev_size'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task, row, message", [
    ("mqa", {"id": "q1", "question": "Who?"}, "missing field 'answer'"),
    ("mqa", {"id": "q1", "question": "Who?", "label": "SUPPORTS"}, "missing field 'answer'"),
    ("fever", {"id": "q1", "question": "Claim.", "answer": "SUPPORTS"}, "missing field 'label'"),
    ("fever", {"id": "q1", "question": "Claim.", "label": "MAYBE"},
     "label 'MAYBE' is not one of 'SUPPORTS', 'REFUTES', 'NOT ENOUGH INFO'"),
    ("mqa", {"id": "q1", "question": "Who?", "answer": 5}, "answer 5 is not a string"),
    ("mqa", {"id": "q1", "question": 7, "answer": "x"}, "question 7 is not a string"),
    ("fever", {"id": "q1", "question": "Claim.", "label": 1},
     "label 1 is not one of 'SUPPORTS', 'REFUTES', 'NOT ENOUGH INFO'"),
    ("fever", {"id": "q1", "question": ["Claim."], "label": "SUPPORTS"},
     "question ['Claim.'] is not a string"),
], ids=["mqa_no_gold", "mqa_label_only", "fever_answer_only", "fever_unknown_label",
        "mqa_answer_not_a_string", "mqa_question_not_a_string", "fever_label_not_a_string",
        "fever_question_not_a_string"])
def test_eval_gold_is_checked_as_the_file_is_read(tmp_path, corpus_path, capsys, task, row,
                                                  message):
    good = {"id": "q0", "question": "Who?", "answer" if task == "mqa" else "label": "REFUTES"}
    eval_set = tmp_path / "evalset.jsonl"
    eval_set.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n")
    out = tmp_path / "report.json"
    assert main(["--task", task, "eval", "--in", str(eval_set), "--corpus", str(corpus_path),
                 "--out", str(out)]) == 2
    assert f"error: {eval_set}:2: {message}" in capsys.readouterr().err
    assert not out.exists()


def _scripted_eval_argv(tmp_path):
    """Arguments of an `eval` run over 10 docs whose 5 questions a gold
    script answers, up to --out."""
    records = make_corpus(n_docs=10, seed=1, n_topics=2)
    eval_corpus = tmp_path / "eval_corpus.jsonl"
    write_corpus(eval_corpus, records)
    items = []
    script = {}
    for i, record in enumerate(records[:5]):
        question = f"What is fact {i} about {record['title']}?"
        items.append({"id": f"q{i}", "question": question, "answer": record["title"]})
        script[question] = {"queries": [record["title"]], "answer": record["title"]}
    eval_set = tmp_path / "evalset.jsonl"
    eval_set.write_text("".join(json.dumps(i) + "\n" for i in items))
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    config_file = tmp_path / "eval_config.txt"
    config_file.write_text(
        "backend.kind = mock\n"
        f"backend.mock_script = {script_path}\n"
        "embeddings.kind = mock\n"
        "eval.max_hops = 2\n"
        "workers = 1\n"
    )
    return ["--config", str(config_file), "--seed", "1", "eval",
            "--in", str(eval_set), "--corpus", str(eval_corpus)]


def test_eval_cli_with_scripted_backend(tmp_path, corpus_path):
    report_path = tmp_path / "report.json"
    assert main(_scripted_eval_argv(tmp_path) + ["--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["em"] == 100.0
    assert report["f1"] == 100.0
    assert len(report["items"]) == 5


def test_eval_cli_creates_the_out_parent(tmp_path):
    report_path = tmp_path / "missing" / "dir" / "report.json"
    assert main(_scripted_eval_argv(tmp_path) + ["--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["em"] == 100.0


@pytest.mark.parametrize("text, message", [
    ("", ": no evaluation items"),
    ("\n\n", ": no evaluation items"),
    (json.dumps({"id": "q", "answer": "x"}) + "\n", ":1: missing field 'question'"),
    # written after "Question: ", its second line would read as a turn the model never took
    (json.dumps({"id": "q", "question": "Who wrote it?\nQuery: injected", "answer": "x"}) + "\n",
     ":1: question 'Who wrote it?\\nQuery: injected' spans more than one line"),
], ids=["empty", "blank-lines", "missing-question", "multi-line-question"])
def test_eval_checks_its_items_before_the_corpus(tmp_path, corpus_path, capsys, caplog,
                                                 monkeypatch, text, message):
    indexed = []
    monkeypatch.setattr(pipeline, "build_index", lambda *args: indexed.append(args))
    items = tmp_path / "items.jsonl"
    items.write_text(text)
    assert main(["eval", "--in", str(items), "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr().err == f"error: {items}{message}\n"
    assert [record for record in caplog.records if record.exc_info] == []
    assert indexed == []


def _bad_input_argv(tmp_path, corpus_path, case):
    """Arguments of a command whose input file has a bad line, and the error it names."""
    bad = tmp_path / "bad.jsonl"
    if case == "stats":
        bad.write_text(json.dumps({"id": "x"}) + "\n")
        return ["stats", "--in", str(bad)], f"{bad}:1: missing field 'task'"
    if case == "ingest":
        bad.write_text(json.dumps({"id": "a", "title": "A"}) + "\n")
        return (["ingest", "--in", str(bad), "--out", str(tmp_path / "store.jsonl")],
                f"{bad}:1: missing field 'text'")
    if case == "eval_gold":
        bad.write_text(json.dumps({"id": "q", "question": "Who?", "answer": 5}) + "\n")
        return (["eval", "--in", str(bad), "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "report.json")], f"{bad}:1: answer 5 is not a string")
    if case == "embedding_text":
        config_file, vectors, first_query = _corpus_only_embeddings(tmp_path, corpus_path)
        return (["--config", str(config_file), "run-all", "--in", str(corpus_path),
                 "--out", str(tmp_path / "out")],
                f"{vectors}: no precomputed embedding for text: {first_query[:60]!r}")
    if case == "run_all_blank_text":
        bad.write_text(json.dumps({"id": "a", "title": "A", "text": "   "}) + "\n")
        return (["--config", str(DEMO / "config.txt"), "run-all", "--in", str(bad),
                 "--out", str(tmp_path / "out")], f"{bad}:1: text '   ' is not a non-blank string")
    if case == "run_all_empty_corpus":
        bad.write_text("\n\n")
        return (["--config", str(DEMO / "config.txt"), "run-all", "--in", str(bad),
                 "--out", str(tmp_path / "out")], f"{bad}: no documents")
    if case == "eval_empty_corpus":
        bad.write_text("")
        items = tmp_path / "items.jsonl"
        items.write_text(json.dumps({"id": "q", "question": "Who?", "answer": "x"}) + "\n")
        return (["eval", "--in", str(items), "--corpus", str(bad),
                 "--out", str(tmp_path / "report.json")], f"{bad}: no documents")
    if case == "empty_examples":
        bad.write_text("")
        return (["--config", str(DEMO / "config.txt"), "--examples", str(bad), "run-all",
                 "--in", str(DEMO / "corpus.jsonl"), "--out", str(tmp_path / "out")],
                f"{bad}: no few-shot examples")
    bad.write_text(json.dumps({"text": "x", "vector": ["y"]}) + "\n")
    config_file = tmp_path / "config.txt"
    config_file.write_text(f"embeddings.kind = file\nembeddings.file = {bad}\n")
    return (["--config", str(config_file), "run-all", "--in", str(DEMO / "corpus.jsonl"),
             "--out", str(tmp_path / "out")],
            f"{bad}:1: vector ['y'] is not a list of finite numbers")


@pytest.mark.parametrize("case", ["stats", "ingest", "eval_gold", "embedding_vector",
                                  "embedding_text", "run_all_blank_text", "run_all_empty_corpus",
                                  "eval_empty_corpus", "empty_examples"])
def test_bad_input_line_exits_2_without_a_traceback(tmp_path, corpus_path, capsys, caplog, case):
    argv, message = _bad_input_argv(tmp_path, corpus_path, case)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert [record for record in caplog.records if record.exc_info] == []


_SCRIPT_ENTRY = '{"queries": [str, ...], "answer": str}'


@pytest.mark.parametrize("command", ["run-all", "eval"])
@pytest.mark.parametrize("key, content, message", [
    ("backend.mock_script", b"{bad",
     "<path>: invalid JSON (Expecting property name enclosed in double quotes at line 1 column 2)"),
    ("backend.mock_script", b'["Who?"]', f"<path>: not a JSON object of question -> {_SCRIPT_ENTRY}"),
    ("backend.mock_script", b'{"Who?": {"queries": ["a"]}}',
     f"<path>: question 'Who?': {{'queries': ['a']}} is not {_SCRIPT_ENTRY}"),
    ("backend.mock_script", b'{"Who?": {"queries": [1], "answer": "x"}}',
     f"<path>: question 'Who?': {{'queries': [1], 'answer': 'x'}} is not {_SCRIPT_ENTRY}"),
    (None, b"seed = 7\n# caf\xe9\n", "<path>: not UTF-8 (invalid continuation byte at byte 15)"),
], ids=["script-json", "script-list", "script-no-answer", "script-query-not-string",
         "config-not-utf8"])
def test_bad_file_a_config_names_exits_2_before_the_corpus_is_read(
        tmp_path, capsys, caplog, monkeypatch, command, key, content, message):
    read = []
    monkeypatch.setattr(pipeline, "build_store", lambda *args: read.append(args))
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    config_file = bad
    if key is not None:
        config_file = tmp_path / "config.txt"
        config_file.write_text(f"{key} = {bad}\n")
    items = tmp_path / "items.jsonl"
    items.write_text(json.dumps({"id": "q", "question": "Who?", "answer": "x"}) + "\n")
    out = tmp_path / "out"
    inputs = {"run-all": ["--in", str(DEMO / "corpus.jsonl")],
              "eval": ["--in", str(items), "--corpus", str(DEMO / "corpus.jsonl")]}[command]
    assert main(["--config", str(config_file), command, *inputs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.replace('<path>', str(bad))}\n"
    assert [record for record in caplog.records if record.exc_info] == []
    assert read == []
    assert not out.exists()


def test_bad_input_line_prints_no_traceback_from_the_module(tmp_path, corpus_path):
    argv, message = _bad_input_argv(tmp_path, corpus_path, "stats")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-m", "hopsynth.cli", *argv],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert out.stderr == f"error: {message}\n"


def test_program_fault_still_logs_its_traceback(tmp_path, corpus_path, capsys, caplog,
                                                monkeypatch):
    def run_all(*args):
        raise KeyError("boom")

    monkeypatch.setattr(pipeline, "run_all", run_all)
    assert main(["run-all", "--in", str(corpus_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.endswith("error: 'boom'\n")
    logged = [record for record in caplog.records if record.exc_info]
    assert [record.exc_info[0] for record in logged] == [KeyError]
