"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every test also enforces its runtime budget.
"""

import json
import random
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from hopsynth.cli import main as cli_main
from hopsynth.config import PipelineConfig
from hopsynth.corpus import CorpusStore, Document
from hopsynth.emitter import dataset_stats, read_jsonl
from hopsynth.evalharness import self_consistency
from hopsynth.genbackend import MockBackend
from hopsynth.metrics import normalize_answer, score_pair
from hopsynth.pairing import DocumentPair, derive_rng
from hopsynth.pipeline import build_index, run_all, run_eval
from hopsynth.retrieval import HashEmbedder, build_flat_index, search
from hopsynth.synthesis import FilterConfig, QuestionDraft, classify_hops
from hopsynth.verification import (
    VerifyConfig,
    assemble_instance,
    consult_backup_rule,
    dedup_queries,
    validate_instance,
    verify_query,
)

import appendix_fixture
from oracles import (
    brute_force_search,
    oracle_assemble,
    oracle_dedup,
    squad_exact_match,
    squad_f1,
)
from synthcorpus import make_corpus, write_corpus


def report(number: int, message: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s >= {budget}s"
    print(f"[ACCEPTANCE {number}] PASS ({elapsed:.2f}s) {message}")


# -- 1. metrics oracle equivalence ------------------------------------------


def test_criterion_1_metrics_oracle():
    started = time.perf_counter()
    fixed = [
        ("Celtics", "Boston Celtics"),
        ("the Turner Pictures company", "Turner Pictures"),
        ("1,800 to 7,000 ft", "1800 to 7000 ft"),
        ("The Saimaa Gesture", "Saimaa Gesture"),
        ("Boston  Celtics", "boston celtics."),
        ("yes", "no"),
        ("1 March 1936", "March 1, 1936"),
        ("NOT ENOUGH INFO", "not enough info"),
    ]
    rng = random.Random(77)
    vocab = ["Turner", "Pictures", "Boston", "Celtics", "the", "1,800", "7,000",
             "ft", "Saimaa", "company", "March", "1936", "a-b"]
    cases = list(fixed)
    while len(cases) < 50:
        a = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        b = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        if normalize_answer(a) and normalize_answer(b):
            cases.append((a, b))
    assert len(cases) == 50
    for pred, gold in cases:
        score = score_pair(pred, gold)
        assert abs(score.f1 - squad_f1(pred, gold)) < 1e-9
        assert score.em == squad_exact_match(pred, gold)
    assert score_pair("Celtics", "Boston Celtics").f1 == pytest.approx(2 / 3, abs=1e-12)
    assert score_pair("the Turner Pictures company", "Turner Pictures").f1 == pytest.approx(
        0.8, abs=1e-12)
    report(1, "score_pair agrees with the reference evaluator on 50 cases", started, 1.0)


# -- 2. flat-index exactness --------------------------------------------------


def test_criterion_2_flat_index_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(4242)
    for trial in range(200):
        n = int(rng.integers(1, 1001))
        dim = int(rng.integers(1, 65))
        k = int(rng.integers(1, min(n, 50) + 2))
        ids = [f"doc{i:04d}" for i in range(n)]
        matrix = rng.standard_normal((n, dim)).astype(np.float32)
        queries = rng.standard_normal((4, dim)).astype(np.float32)
        index = build_flat_index(ids, list(matrix))
        # each query alone (the mat-vec), then the trial's queries as one block (the GEMM)
        got = [search(index, [query], k)[0] for query in queries] + search(index, queries, k)
        for i, ranked in enumerate(got):
            expected = brute_force_search(list(index.doc_ids), index.matrix, queries[i % 4], k)
            assert list(ranked) == [e[0] for e in expected], f"trial {trial}, search {i}"
    report(2, "search matches the brute-force oracle on 200 random instances", started, 10.0)


# -- 3. verification-rule oracle ----------------------------------------------


def _random_verification_instance(rng):
    filler_texts = {f"F{i}": f"filler document {rng.randint(0, 99)} body" for i in range(3)}
    answer = f"needle {rng.randint(100, 999)}"
    texts = {
        "D1": f"first pair document {answer if rng.random() < 0.5 else 'without it'}",
        "D2": f"second pair document {answer if rng.random() < 0.5 else 'missing'}",
        **filler_texts,
    }
    docs = {
        doc_id: Document(doc_id, f"T{doc_id}", text, (), None) for doc_id, text in texts.items()
    }
    store = CorpusStore(docs, {i: () for i in docs}, {})
    relation = "hyper" if rng.random() < 0.75 else "topic"
    pair = DocumentPair(docs["D1"], docs["D2"], relation)
    n_model = rng.randint(0, 4)
    candidates = []
    for rank in range(n_model):
        hits = tuple(d for d in ("D1", "D2") if rng.random() < 0.42)
        retrieved = list(hits) + rng.sample(list(filler_texts), rng.randint(0, 2))
        candidates.append({
            "text": f"{rank}" + "q" * rng.randint(1, 12), "origin": "model", "rank": rank,
            "valid": bool(hits), "hit_d1": "D1" in hits, "hit_d2": "D2" in hits,
            "retrieved": retrieved,
        })
    backup_hits = tuple(d for d in ("D1", "D2") if rng.random() < 0.35)
    candidates.append({
        "text": f"{n_model}" + "b" * rng.randint(4, 14), "origin": "original_question_backup",
        "rank": n_model, "valid": bool(backup_hits),
        "hit_d1": "D1" in backup_hits, "hit_d2": "D2" in backup_hits,
        "retrieved": list(backup_hits),
    })
    hops = "two" if rng.random() < 0.7 else "one"
    answerable = {"both"}
    if hops == "one":
        answerable |= set(rng.sample(["first", "second"], rng.randint(1, 2)))
    draft = QuestionDraft(pair=pair, task="mqa", text="Which?", prepared_answer=answer)
    decision = {"hops": hops, "answerable_in": sorted(answerable), "final_answer": answer}
    # a row as stage_verify reads it, and each text's top-k: every text is
    # distinct, as one text has one top-k
    row = {"d1": "D1", "d2": "D2", "candidates": [
        {"text": c["text"], "origin": c["origin"], "rank": c["rank"]} for c in candidates]}
    retrieved = {c["text"]: tuple(c["retrieved"]) for c in candidates}
    return store, draft, decision, candidates, row, retrieved


def test_criterion_3_verification_rule_oracle():
    started = time.perf_counter()
    rng = random.Random(31337)
    triggered = {"shortest_dedup": 0, "two_hop_coverage": 0, "answer_containment": 0}
    for trial in range(1000):
        store, draft, decision, candidates, row, retrieved = _random_verification_instance(rng)
        pair = draft.pair

        # dedup agreement on the model+backup pool as a whole
        got_dedup = dedup_queries([verify_query(c, pair, retrieved[c["text"]])
                                   for c in row["candidates"]])
        oracle_pool = [
            {"text": c["text"], "origin": "backup" if c["origin"] != "model" else "model",
             "rank": c["rank"], "valid": c["valid"],
             "hit_d1": c["hit_d1"], "hit_d2": c["hit_d2"]}
            for c in candidates
        ]
        expected_dedup = oracle_dedup(oracle_pool)
        assert [(v.candidate["text"], v.candidate["rank"]) for v in got_dedup] == [
            (e["text"], e["rank"]) for e in expected_dedup
        ], f"trial {trial}"
        if sum(1 for c in candidates if c["valid"]) > len(expected_dedup) > 0:
            triggered["shortest_dedup"] += 1

        # end-to-end agreement: the candidates the backup rule returns,
        # verified, then assembled, against the oracle over every candidate
        result = assemble_instance(draft, decision, [
            verify_query(c, pair, retrieved[c["text"]]) for c in consult_backup_rule(row, retrieved)
        ], store)
        reason = result if isinstance(result, str) else None
        oracle_candidates = [
            {**c, "origin": "backup" if c["origin"] != "model" else "model",
             "retrieved_texts": [store.documents[i].text for i in c["retrieved"]]}
            for c in candidates
        ]
        expected_hops, expected_reason = oracle_assemble(
            oracle_candidates, decision["hops"], decision["answerable_in"],
            decision["final_answer"], draft.pair.relation, draft.task, normalize_answer,
        )
        assert reason == expected_reason, f"trial {trial}: {reason} vs {expected_reason}"
        if reason is not None:
            assert expected_hops is None
            if reason in triggered:
                triggered[reason] += 1
        else:
            assert [q for q, _ in result.hops] == [c["text"] for c in expected_hops]
    assert all(count >= 50 for count in triggered.values()), triggered
    report(
        3,
        "dedup/assembly match the rule oracle on 1000 instances "
        f"(rule triggers: {triggered})",
        started, 10.0,
    )


# -- 4. appendix-fixture end-to-end -------------------------------------------


class _EntityHandler(BaseHTTPRequestHandler):
    entity_map: dict = {}

    def do_POST(self):
        assert self.path == "/v1/entities"
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        payload = {"entities": [type(self).entity_map.get(t, []) for t in body["texts"]]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_criterion_4_appendix_end_to_end(tmp_path, monkeypatch):
    started = time.perf_counter()
    corpus_path = tmp_path / "toy_corpus.jsonl"
    with corpus_path.open("w", encoding="utf-8") as handle:
        for record in appendix_fixture.corpus_records():
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    assert len(appendix_fixture.corpus_records()) == 16

    # scripted entity recognizer over the wire protocol
    _EntityHandler.entity_map = appendix_fixture.entity_map()
    server = HTTPServer(("127.0.0.1", 0), _EntityHandler)
    threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True).start()

    # the completions need the ingested (truncated) texts; every other
    # prompt gets "", an empty completion
    config = PipelineConfig()
    from hopsynth import pipeline

    store = pipeline.build_store(corpus_path, config)
    completions = appendix_fixture.mock_completions(store)
    monkeypatch.setattr(pipeline, "build_backend", lambda config: MockBackend(
        rule=lambda text, seed: completions.get(text, "")))

    seed = appendix_fixture.find_topic_answer_seed()
    config_path = tmp_path / "config.txt"
    config_path.write_text(
        "backend.kind = mock\n"
        "embeddings.kind = mock\n"
        "recognizer.kind = http\n"
        f"recognizer.endpoint = http://127.0.0.1:{server.server_port}\n"
        "verify.k = 1\n"
        "workers = 1\n"
    )
    try:
        for run_dir in ("run1", "run2"):
            code = cli_main([
                "--config", str(config_path), "--seed", str(seed), "run-all",
                "--in", str(corpus_path), "--out", str(tmp_path / run_dir),
                "--dev-size", "0",
            ])
            assert code == 0
    finally:
        server.shutdown()
        server.server_close()

    for name in ("train.jsonl", "dev.jsonl"):
        assert (tmp_path / "run1" / name).read_bytes() == (
            tmp_path / "run2" / name
        ).read_bytes()

    instances = read_jsonl(tmp_path / "run1" / "train.jsonl")
    expected = appendix_fixture.expected_instances()
    assert len(instances) == len(expected) == 8
    by_stem = {inst.source_pair[0][:2]: inst for inst in instances}
    for stem, (question, answer, n_hops) in expected.items():
        inst = by_stem[stem]
        assert inst.question_or_claim == question
        assert inst.answer == answer
        assert len(inst.hops) == n_hops

    pagemaster = by_stem["h3"]
    assert pagemaster.answer == "Turner Pictures"
    assert len(pagemaster.hops) == 2
    covered = set()
    for _, retrieved in pagemaster.hops:
        covered |= set(retrieved) & set(pagemaster.source_pair)
    assert covered == set(pagemaster.source_pair)

    provider = HashEmbedder(dim=256)
    index = build_index(store, provider)
    for inst in instances:
        assert validate_instance(inst, store, index, provider, VerifyConfig(k=1)) == []
    report(4, "run-all reproduces all 8 appendix examples, byte-identical reruns", started, 30.0)


# -- 5. pipeline invariant sweep ----------------------------------------------


def test_criterion_5_pipeline_invariant_sweep(tmp_path):
    started = time.perf_counter()
    corpus_path = tmp_path / "sweep_corpus.jsonl"
    write_corpus(corpus_path, make_corpus(n_docs=500, seed=99, n_topics=20))
    config = PipelineConfig()
    config.seed = 13
    config.workers = 4
    config.dev_size = 0
    config.pairing.pairs_per_document = 4

    report_dict = run_all(corpus_path, tmp_path / "sweep_out", config)
    counters = report_dict["counters"]
    assert report_dict["conserved"], counters
    drops = sum(counters[r] for r in (
        "no_answer_candidates", "empty_question", "entity_filter", "not_answerable",
        "two_hop_coverage", "one_hop_coverage", "answer_containment",
    ))
    assert counters["attempts"] == counters["emitted"] + drops
    assert counters["emitted"] >= 100, counters
    assert drops > 0, "the randomized mock should exercise drop paths"

    from hopsynth.pipeline import build_store

    store = build_store(corpus_path, config)
    provider = HashEmbedder(dim=config.embeddings.dim)
    index = build_index(store, provider)
    instances = read_jsonl(tmp_path / "sweep_out" / "train.jsonl")
    assert len(instances) == counters["emitted"]
    failures = []
    for inst in instances:
        problems = validate_instance(inst, store, index, provider, config.verify)
        if problems:
            failures.extend(problems)
    assert not failures, failures[:5]
    report(
        5,
        f"all {len(instances)} emitted instances validate; "
        f"conservation holds ({counters['attempts']} attempts, {drops} drops)",
        started, 120.0,
    )


# -- 6. stats format -----------------------------------------------------------


def test_criterion_6_stats_format():
    started = time.perf_counter()
    from hopsynth.verification import DataInstance

    def inst(i, n_hops, task="mqa"):
        return DataInstance(
            id=f"i{i}", task=task, relation="hyper",
            question_or_claim="Does A or B have more members?",
            hops=tuple((f"q{h}", ("d1",)) for h in range(n_hops)),
            answer="A" if task == "mqa" else "SUPPORTS",
            source_pair=("d1", "d2"),
        )

    train = [inst(i, 1 + i % 2) for i in range(7)]
    dev = [inst(100 + i, 2) for i in range(3)]
    stats = dataset_stats(train, dev)
    payload = asdict(stats)
    assert set(payload) == {
        "train_size", "dev_size",
        "count_single_query", "percent_single_query",
        "count_two_query", "percent_two_query",
        "avg_question_words", "avg_query_words", "avg_answer_words",
    }
    assert payload["train_size"] == 7 and payload["dev_size"] == 3
    assert payload["count_single_query"] + payload["count_two_query"] == 10
    assert payload["percent_single_query"] + payload["percent_two_query"] == pytest.approx(
        100.0, abs=0.05
    )
    assert payload["avg_question_words"] == pytest.approx(7.0)
    assert payload["avg_answer_words"] is not None
    fever_stats = dataset_stats([inst(i, 2, task="fever") for i in range(4)])
    assert fever_stats.avg_answer_words is None
    report(6, "stats report carries exactly the table fields", started, 1.0)


# -- 7. eval-harness oracle -----------------------------------------------------


def test_criterion_7_eval_harness_oracle(tmp_path):
    started = time.perf_counter()
    records = make_corpus(n_docs=60, seed=21, n_topics=6)
    corpus_path = tmp_path / "eval_corpus.jsonl"
    write_corpus(corpus_path, records)

    items, script = [], {}
    for i, record in enumerate(records[:50]):
        question = f"What entry number {i} covers {record['title']}?"
        gold = f"entry about {record['title']}"
        items.append({"id": f"q{i}", "question": question, "answer": gold})
        script[question] = {"queries": [record["title"]], "answer": gold}
    eval_path = tmp_path / "evalset.jsonl"
    eval_path.write_text("".join(json.dumps(i) + "\n" for i in items))
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))

    config = PipelineConfig()
    config.workers = 4
    config.backend.mock_script = str(script_path)
    result = run_eval(eval_path, corpus_path, config)
    assert result["em"] == 100.0
    assert result["f1"] == 100.0
    assert len(result["items"]) == 50

    # self-consistency: 20 seeded samples per item, 60% correct majority
    for i, item in enumerate(items):
        rng = random.Random(1000 + i)
        answers = [item["answer"]] * 12 + [f"wrong {j}" for j in range(8)]
        rng.shuffle(answers)
        assert len(answers) == 20
        assert self_consistency(answers) == item["answer"]
    report(7, "scripted episodes give EM=F1=100.0; majority voting recovers all items",
           started, 30.0)


# -- 8. hop-classification truth table -----------------------------------------


def test_criterion_8_hop_truth_table():
    started = time.perf_counter()
    config = FilterConfig()

    def run_case(relation, answerable, agrees_first, agrees_second):
        d1 = Document("a", "A", "text a", (), None)
        d2 = Document("b", "B", "text b", (), None)
        draft = QuestionDraft(
            pair=DocumentPair(d1, d2, relation), task="mqa",
            text="Q?", prepared_answer="gold answer",
        )
        pred_both = "gold answer" if answerable else "different prediction"
        pred_first = pred_both if agrees_first else "junk alpha"
        pred_second = pred_both if agrees_second else "junk beta"
        return classify_hops(draft, pred_both, pred_first, pred_second, config)

    # (answerable, agrees_first, agrees_second) -> (verdict, hops, final)
    hyper_table = {
        (False, False, False): ("drop", None, None),
        (False, False, True): ("keep", "one", "pred_both"),
        (False, True, False): ("keep", "one", "pred_both"),
        (False, True, True): ("keep", "one", "pred_both"),
        (True, False, False): ("keep", "two", "prepared"),
        (True, False, True): ("keep", "one", "pred_both"),
        (True, True, False): ("keep", "one", "pred_both"),
        (True, True, True): ("keep", "one", "pred_both"),
    }
    for (answerable, first, second), (verdict, hops, final) in hyper_table.items():
        decision = run_case("hyper", answerable, first, second)
        assert (decision is not None) == (verdict == "keep"), (answerable, first, second)
        if verdict == "keep":
            assert decision["hops"] == hops, (answerable, first, second)
            expected_final = "gold answer" if (final == "prepared" or answerable) else "different prediction"
            assert decision["final_answer"] == expected_final
            # "both", then each agreeing single-document context, sorted
            expected_in = ["both"] + ["first"] * first + ["second"] * second
            assert decision["answerable_in"] == expected_in
            if hops == "one":
                assert set(decision["answerable_in"]) & {"first", "second"}
        # topic pairs: same keep/drop outcomes, always two hops
        topic_decision = run_case("topic", answerable, first, second)
        assert (topic_decision is not None) == (verdict == "keep")
        if verdict == "keep":
            assert topic_decision["hops"] == "two"
    report(8, "classify_hops reproduces the eight-outcome truth table", started, 1.0)
