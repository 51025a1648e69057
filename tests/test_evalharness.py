import numpy as np
import pytest

from hopsynth import evalharness, retrieval
from hopsynth.evalharness import (
    EvalConfig,
    Played,
    Transcript,
    play_episodes,
    run_episode,
    score_fever,
    score_qa,
    self_consistency,
)
from hopsynth.genbackend import DecodeParams, MockBackend, default_decode_params
from hopsynth.mockllm import GoldScriptRule
from hopsynth.retrieval import HashEmbedder, build_flat_index, embed, search

from oracles import oracle_episode
from synthcorpus import make_corpus


def toy_index(doc_texts):
    provider = HashEmbedder(dim=128)
    ids = list(doc_texts)
    vectors = embed(provider, [doc_texts[i] for i in ids])
    return build_flat_index(ids, vectors), provider


def scripted_rule(answer, queries):
    """Emit each query in turn, then the answer."""

    def rule(prompt, seed):
        emitted = prompt.count("\nQuery: ")
        if emitted < len(queries):
            return f"Query: {queries[emitted]}\n"
        return f"Answer: {answer}\n"

    return rule


def play_one(question, backend, index, provider, config, params, doc_text_lookup=str):
    """The transcript of one episode: played by `play_episodes`, read by `run_episode`."""
    played = play_episodes([(question, params)], backend, index, provider, config, doc_text_lookup)
    return run_episode(question, played[0])


def test_run_episode_query_then_answer():
    index, provider = toy_index({"d1": "alpha doc", "d2": "beta doc"})
    backend = MockBackend(rule=scripted_rule("alpha", ["alpha doc"]))
    transcript = play_one(
        "Which doc?", backend, index, provider, EvalConfig(max_hops=2, k=1),
        default_decode_params("eval_greedy"),
    )
    assert transcript.halted_reason == "answered"
    assert transcript.final_answer == "alpha"
    assert len(transcript.turns) == 1
    assert transcript.turns[0] == ("alpha doc", ("d1",))


def test_run_episode_hop_limit_forces_answer():
    index, provider = toy_index({"d1": "alpha doc", "d2": "beta doc"})

    def only_queries(prompt, seed):
        if prompt.endswith("Answer:"):
            return " forced final"
        return "Query: alpha doc\n"

    backend = MockBackend(rule=only_queries)
    transcript = play_one(
        "Q?", backend, index, provider, EvalConfig(max_hops=2, k=1),
        default_decode_params("eval_greedy"),
    )
    assert len(transcript.turns) == 2
    assert transcript.final_answer == "forced final"
    assert transcript.halted_reason == "answered"


def test_run_episode_hop_limit_without_usable_answer():
    index, provider = toy_index({"d1": "alpha doc"})
    backend = MockBackend(rule=lambda prompt, seed: "Query: alpha doc\n")
    transcript = play_one(
        "Q?", backend, index, provider, EvalConfig(max_hops=2, k=1),
        default_decode_params("eval_greedy"),
    )
    assert transcript.halted_reason == "hop_limit"
    assert transcript.final_answer is None
    assert len(transcript.turns) == 2


def test_run_episode_empty_completion():
    index, provider = toy_index({"d1": "alpha doc"})
    backend = MockBackend(rule=lambda prompt, seed: "")
    transcript = play_one(
        "Q?", backend, index, provider, EvalConfig(), default_decode_params("eval_greedy")
    )
    assert transcript.halted_reason == "empty_completion"
    assert transcript.final_answer is None


def test_run_episode_context_layout():
    index, provider = toy_index({"d1": "alpha doc", "d2": "beta doc"})
    prompts = []

    def recording(prompt, seed):
        prompts.append(prompt)
        return scripted_rule("alpha", ["alpha doc"])(prompt, seed)

    backend = MockBackend(rule=recording)
    play_one(
        "Which doc?", backend, index, provider, EvalConfig(max_hops=2, k=2),
        default_decode_params("eval_greedy"),
        doc_text_lookup=lambda i: {"d1": "alpha doc", "d2": "beta doc"}[i],
    )
    assert prompts[0] == "Question: Which doc?\n"
    assert prompts[1].startswith(
        "Question: Which doc?\nQuery: alpha doc\nDocument: alpha doc\nDocument: beta doc"
    )


def test_run_episode_multiline_document_stays_one_line():
    # a document line that starts with a label must not read as a turn
    index, provider = toy_index({"d1": "first"})
    prompts = []
    rule = GoldScriptRule({"Who?": {"queries": ["first", "second"], "answer": "A"}})

    def recording(prompt, seed):
        prompts.append(prompt)
        return rule(prompt, seed)

    transcript = play_one(
        "Who?", MockBackend(rule=recording), index, provider, EvalConfig(max_hops=2, k=1),
        default_decode_params("eval_greedy"),
        doc_text_lookup=lambda doc_id: "line one\nQuery: inside a document",
    )
    assert prompts[1] == "Question: Who?\nQuery: first\nDocument: line one Query: inside a document\n"
    assert [query for query, _ in transcript.turns] == ["first", "second"]
    assert (transcript.final_answer, transcript.halted_reason) == ("A", "answered")


@pytest.mark.parametrize("max_hops", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 5, 64])
def test_play_episodes_matches_one_query_at_a_time(monkeypatch, block, max_hops):
    # each episode plays as it would by itself, each query's ids being its
    # own mat-vec; each round's distinct queries are embedded and searched
    # `block` at a time, in first-seen order
    records = make_corpus(n_docs=50, seed=4, n_topics=5)
    docs = {r["id"]: r["text"] for r in records}
    index, provider = toy_index(docs)
    titles = [r["title"] for r in records[:9]]

    def rule(prompt, seed):
        turn = prompt.count("\nQuery: ")
        roll = (seed + 3 * turn) % 7
        if roll == 0:
            return "Answer: early"
        return "" if roll == 1 else f"Query: {titles[(seed + turn) % len(titles)]}\n"

    params = default_decode_params("eval_greedy")
    episodes = [(f"Q{n}?", params.with_seed(seed)) for n, seed in enumerate(range(3, 40))]
    config = EvalConfig(k=4, max_hops=max_hops)
    embedded, searched = [], []
    monkeypatch.setattr(retrieval, "EMBED_BLOCK", block)
    monkeypatch.setattr(evalharness, "embed", lambda p, texts: (
        embedded.append(list(texts)) or embed(p, texts)))
    monkeypatch.setattr(evalharness, "search", lambda i, q, k: (
        searched.append(len(q)) or search(i, q, k)))
    played = play_episodes(episodes, MockBackend(rule=rule), index, provider, config, docs.get)

    backend = MockBackend(rule=rule)
    expected = [oracle_episode(question, backend, episode_params, index, provider, config.k,
                               max_hops, docs.get)
                for question, episode_params in episodes]
    assert played == [Played(turns, line, at_limit) for turns, line, at_limit, _, _ in expected]
    for turns, _, _, _, _ in expected:
        for query, ids in turns:
            assert ids == search(index, embed(provider, [query]), config.k)[0]
    rounds = [list(dict.fromkeys(p.turns[r][0] for p in played if len(p.turns) > r))
              for r in range(max_hops)]
    assert embedded == [queries[i:i + block] for queries in rounds
                        for i in range(0, len(queries), block)]
    assert searched == [len(texts) for texts in embedded]
    assert {len(p.turns) for p in played} == set(range(max_hops + 1))
    assert {p.line for p in played if not p.turns} == {"Answer: early", ""}


EPISODE = (("alpha doc", ("d1",)),)


@pytest.mark.parametrize("played, transcript", [
    (Played(EPISODE, "Answer: beta", False), Transcript(EPISODE, "beta", "answered")),
    (Played((), "Answer: gamma", False), Transcript((), "gamma", "answered")),
    (Played((), "a bare line", False), Transcript((), None, "empty_completion")),
    (Played(EPISODE, "bare answer", True), Transcript(EPISODE, "bare answer", "answered")),
    (Played(EPISODE, "Query: q2", True), Transcript(EPISODE, None, "hop_limit")),
])
def test_run_episode_reads_a_played_episode_without_the_backend(played, transcript):
    # a played episode stands for every turn: there is nothing to ask
    assert run_episode("Which doc?", played) == transcript


def test_score_qa():
    assert score_qa(["a", "b"], ["a", "b"]) == (100.0, 100.0)
    em, f1 = score_qa(["same", "x"], ["same", "y"])
    assert (em, f1) == (50.0, 50.0)
    em, f1 = score_qa(["The Cat", "dog."], ["cat", "Dog"])
    assert em == 100.0
    with pytest.raises(ValueError):
        score_qa(["a"], ["a", "b"])


def test_score_fever():
    assert score_fever(
        ["SUPPORTS", "REFUTES", "SUPPORTS", "NOT ENOUGH INFO"],
        ["SUPPORTS", "SUPPORTS", "REFUTES", "REFUTES"],
    ) == 25.0
    assert score_fever(["supports"], ["SUPPORTS"]) == 100.0
    assert score_fever(["MAYBE", "", "REFUTES"], ["SUPPORTS", "REFUTES", "REFUTES"]) == 100 / 3
    with pytest.raises(ValueError, match="gold label outside the class set: 'MAYBE'"):
        score_fever(["SUPPORTS"], ["MAYBE"])


def test_self_consistency():
    assert self_consistency(["a", "a", "b"]) == "a"
    assert self_consistency(["The X", "x"]) == "The X"
    assert self_consistency(["a", "b"]) == "a"
    for n in (1, 3, 7):
        assert self_consistency(["same answer"] * n) == "same answer"
    with pytest.raises(ValueError):
        self_consistency([])


def test_self_consistency_minority_invariant():
    base = ["win", "win", "win", "other"]
    assert self_consistency(base) == "win"
    assert self_consistency(base + ["loser", "Loser"]) == "win"


# (completions in call order, max_hops) -> (queries, final answer, halt reason).
# Every turn retrieves from a one-document index, so each turn's ids are ("d1",).
EPISODE_OUTCOMES = [
    (["Answer: A"], 1, [], "A", "answered"),
    (["Query: q1", "Answer: A"], 2, ["q1"], "A", "answered"),
    (["Query:q1", "Answer:A"], 2, ["q1"], "A", "answered"),
    (["Query: q1", "Answer: A\nQuery: q2"], 2, ["q1"], "A", "answered"),
    (["Query: q1", "Query: q2", "Query: q3", "Answer: A"], 3, ["q1", "q2", "q3"], "A", "answered"),
    # before the hop limit, anything unusable ends the episode
    ([""], 2, [], None, "empty_completion"),
    (["   "], 2, [], None, "empty_completion"),
    (["Answer:"], 2, [], None, "empty_completion"),
    (["Query:"], 2, [], None, "empty_completion"),
    (["a bare line"], 2, [], None, "empty_completion"),
    (["Query: q1", "Query:  "], 3, ["q1"], None, "empty_completion"),
    (["Answer: Query: q1"], 2, [], "Query: q1", "answered"),
    # at the hop limit the context ends in the Answer: cue
    (["Query: q1", " A"], 1, ["q1"], "A", "answered"),
    (["Query: q1", "Answer: A"], 1, ["q1"], "A", "answered"),
    (["Query: q1", "Answer:Answer: A"], 1, ["q1"], "Answer: A", "answered"),
    (["Query: q1", "Query: q2", "the answer"], 2, ["q1", "q2"], "the answer", "answered"),
    (["Query: q1", "Query: q2"], 1, ["q1"], None, "hop_limit"),
    (["Query: q1", "Query:"], 1, ["q1"], None, "hop_limit"),
    (["Query: q1", ""], 1, ["q1"], None, "hop_limit"),
    (["Query: q1", "Answer:"], 1, ["q1"], None, "hop_limit"),
    (["Query: q1", "Answer: Query: q2"], 1, ["q1"], None, "hop_limit"),
]


@pytest.mark.parametrize("completions, max_hops, queries, answer, halted", EPISODE_OUTCOMES)
def test_run_episode_outcome_table(completions, max_hops, queries, answer, halted):
    index, provider = toy_index({"d1": "alpha doc"})
    script = iter(completions)
    prompts = []

    def rule(prompt, seed):
        prompts.append(prompt)
        return next(script)

    transcript = play_one(
        "Q?", MockBackend(rule=rule), index, provider, EvalConfig(max_hops=max_hops, k=1),
        default_decode_params("eval_greedy"),
    )
    assert transcript.turns == tuple((query, ("d1",)) for query in queries)
    assert (transcript.final_answer, transcript.halted_reason) == (answer, halted)
    assert len(prompts) == len(completions)
    forced = len(queries) == max_hops
    assert [p.endswith("\nAnswer:") for p in prompts] == [False] * (len(prompts) - 1) + [forced]


def test_self_consistency_tie_goes_to_the_earliest_class():
    assert self_consistency(["The Cat", "dog", "cat", "Dog"]) == "The Cat"
    assert self_consistency(["dog", "The Cat", "cat", "Dog"]) == "dog"
    assert self_consistency(["x", "y", "z"]) == "x"
