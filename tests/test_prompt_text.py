"""promptkit owns prompt text: synthesis and evaluation read a model's lines
the same way, and no other module spells a prompt label."""

import ast
from pathlib import Path

import pytest

from hopsynth.corpus import Document
from hopsynth.evalharness import EvalConfig, Played, Transcript, play_episodes, run_episode
from hopsynth.genbackend import MockBackend, default_decode_params
from hopsynth.pairing import HYPER, DocumentPair
from hopsynth.retrieval import HashEmbedder, build_flat_index, embed
from hopsynth.synthesis import ORIGIN_MODEL, generate_queries

SRC = Path(__file__).resolve().parents[1] / "src" / "hopsynth"

# a model's line -> (the query it makes, run_episode's (answer, halt) for it
# before the hop limit, and at the hop limit)
MODEL_LINES = {
    "Query: x": ("x", ("", "empty_completion"), ("", "hop_limit")),
    "Query:x": ("x", ("", "empty_completion"), ("", "hop_limit")),
    "  Query:  x  ": ("x", ("", "empty_completion"), ("", "hop_limit")),
    "Query:": (None, ("", "empty_completion"), ("", "hop_limit")),
    "query: x": (None, ("", "empty_completion"), ("query: x", "answered")),
    "Answer: Query: y": (None, ("Query: y", "answered"), ("", "hop_limit")),
    "Answer:a": (None, ("a", "answered"), ("a", "answered")),
}


def _document(doc_id):
    return Document(id=doc_id, title=doc_id, text=f"{doc_id} text", anchors=(), topic=None)


@pytest.mark.parametrize("line", list(MODEL_LINES))
def test_synthesis_and_evaluation_read_the_same_query(line):
    query = MODEL_LINES[line][0]
    backend = MockBackend(rule=lambda prompt, seed: line)
    pair = DocumentPair(_document("a"), _document("b"), HYPER)
    candidates = generate_queries(pair, "Which?", "b", backend, seed=1)
    synthesized = [c["text"] for c in candidates if c["origin"] == ORIGIN_MODEL]

    provider = HashEmbedder(dim=32)
    index = build_flat_index(["a"], embed(provider, ["a text"]))
    params = default_decode_params("eval_greedy").with_seed(1)
    played, = play_episodes([("Which?", params)], backend, index, provider,
                            EvalConfig(max_hops=1, k=1), str)
    assert synthesized == [turn[0] for turn in played.turns] == ([query] if query else [])


@pytest.mark.parametrize("at_limit", [False, True], ids=["before-limit", "at-limit"])
@pytest.mark.parametrize("line", list(MODEL_LINES))
def test_run_episode_reads_each_line_as_before(line, at_limit):
    # play_episodes keeps a turn's completion stripped
    answer, halted = MODEL_LINES[line][2 if at_limit else 1]
    transcript = run_episode("Which?", Played((), line.strip(), at_limit))
    assert transcript == Transcript((), answer or None, halted)


def _label_constants(path):
    """The string constants of a module that spell a prompt label or the blank
    line between prompt blocks."""
    labels = ("Document:", "Question:", "Claim:", "Answer:", "Query:")
    return [node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value.startswith(labels) or node.value == "\n\n")]


def test_only_promptkit_spells_prompt_text():
    # mockllm writes the lines a model would write, so it spells them too
    owners = {"promptkit.py", "mockllm.py"}
    found = {path.name: _label_constants(path)
             for path in sorted(SRC.glob("*.py")) if path.name not in owners}
    assert {name: values for name, values in found.items() if values} == {}
    assert _label_constants(SRC / "promptkit.py")  # the scan sees the owner's labels
