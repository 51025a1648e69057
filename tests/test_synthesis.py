import random
import sys

import pytest

from hopsynth.config import PipelineConfig
from hopsynth.corpus import CorpusStore, Document
from hopsynth.entities import HeuristicRecognizer, RecognizerError
from hopsynth.genbackend import MockBackend
from hopsynth.pairing import DocumentPair
from hopsynth.pipeline import stage_questions
from hopsynth.promptkit import (
    ANSWERING,
    QUERY_GEN,
    QUESTION_GEN,
    TASK_FEVER,
    TASK_MQA,
    builtin_examples,
    load_examples,
    render_prompt,
)
from hopsynth.synthesis import (
    FilterConfig,
    QuestionDraft,
    answer_question,
    classify_hops,
    entity_count_filter,
    generate_queries,
    generate_question,
)

from oracles import oracle_classify_hops, oracle_heuristic_entities


def example_pair(setting, index):
    """Build a DocumentPair carrying the texts of a built-in example."""
    ex = builtin_examples(TASK_MQA, setting)[index]
    d1 = Document(f"{setting}{index}a", f"T{setting}{index}a", ex.documents[0], (), None)
    d2 = Document(f"{setting}{index}b", f"T{setting}{index}b", ex.documents[1], (), None)
    return DocumentPair(d1, d2, setting), ex


def backend_for(task, stage, setting, pair, completion, answer=None, question=None):
    """A backend that completes this stage's prompt and answers "" to any other."""
    prompt = render_prompt(
        task, stage, setting, builtin_examples(task, setting),
        [pair.d1.text, pair.d2.text], answer=answer, question=question,
    )
    return MockBackend(rule=lambda text, seed: {prompt.text: completion}.get(text, ""))


def test_generate_question_reproduces_appendix():
    pair, ex = example_pair("topic", 1)  # the Saimaa Gesture example
    backend = backend_for(
        TASK_MQA, QUESTION_GEN, "topic", pair, " " + ex.question_or_claim, answer=ex.answer
    )
    draft = generate_question(pair, ex.answer, backend)
    assert draft is not None
    assert draft.text == (
        "Which documentary is about Finnish rock groups, Adam Clayton Powell or The Saimaa Gesture?"
    )
    assert draft.prepared_answer == "The Saimaa Gesture"


def test_generate_question_empty_completion_drops():
    pair, ex = example_pair("topic", 0)
    backend = MockBackend(rule=lambda text, seed: "")
    assert generate_question(pair, ex.answer, backend) is None


def test_generate_question_repairs_question_mark():
    pair, ex = example_pair("hyper", 0)
    backend = MockBackend(rule=lambda text, seed: " Which range rises")
    draft = generate_question(pair, ex.answer, backend)
    assert draft.text == "Which range rises?"
    backend = MockBackend(rule=lambda text, seed: " Which range? Also trailing babble")
    draft = generate_question(pair, ex.answer, backend)
    assert draft.text == "Which range?"


@pytest.mark.parametrize("task", [TASK_MQA, TASK_FEVER])
def test_generate_question_keeps_the_first_line(task):
    # a question or claim that spans two lines used to reach the next
    # stage's prompt whole and stop the run there
    pair, ex = example_pair("hyper", 0)
    backend = MockBackend(rule=lambda text, seed: " Which range\n rises there?\nmore")
    draft = generate_question(pair, ex.answer, backend, task=task)
    assert draft.text == ("Which range?" if task == TASK_MQA else "Which range")
    backend = MockBackend(rule=lambda text, seed: " \nWhich range rises?")
    assert generate_question(pair, ex.answer, backend, task=task) is None


def test_fever_requires_hyper_pair():
    pair, ex = example_pair("topic", 0)
    backend = MockBackend(rule=lambda text, seed: "")
    with pytest.raises(ValueError):
        generate_question(pair, "SUPPORTS", backend, task="fever")


def draft_for(setting, text, index=0):
    pair, ex = example_pair(setting, index)
    return QuestionDraft(pair=pair, task="mqa", text=text, prepared_answer=ex.answer)


# words that hit each rule of the recognizer: case, digits, edge punctuation,
# sentence ends, words that strip to nothing, and non-ASCII letters and digits
_ENTITY_WORDS = (
    "The", "Border", "Surrender", "film", "of", "1984", "3rd", "x2", "Paris.", "(Rome)",
    "\"Hi!\"", "...", "?", "'", "()", "Ünïcode", "ǅemal", "ß", "²", "Dr.", "U.S.", "e.g.",
    "Born?", "war!", "co-Op", "A", "a1B", "[4]", "{Z}", ";", "Ω", "é",
)


def test_heuristic_recognizer_matches_its_earlier_implementation():
    rng = random.Random(20230523)
    recognizer = HeuristicRecognizer()
    for _ in range(3000):
        words = rng.choices(_ENTITY_WORDS, k=rng.randrange(0, 14))
        gaps = rng.choices((" ", " ", " ", "  ", "\n", "\t", "\u00a0"), k=len(words))
        text = "".join(gap + word for gap, word in zip(gaps, words))
        assert recognizer([text])[0] == oracle_heuristic_entities(text), text


def test_entity_filter_thresholds():
    rec = HeuristicRecognizer()
    config = FilterConfig()

    def passes(draft):
        return entity_count_filter(draft, rec([draft.text])[0], config)

    assert passes(draft_for("hyper", "Where was the composer of film Avidathe Pole Ivideyum born?"))
    assert not passes(
        draft_for("topic", "Where was the composer of film Avidathe Pole Ivideyum born?")
    )
    assert passes(draft_for("topic", "Does The Border Surrender or Unsane have more members?"))
    assert not passes(draft_for("hyper", "What is the birthplace of the man?"))


def test_entity_filter_recognizer_failure_propagates():
    # an outage reaches the caller of the stage; it is not a question without entities
    calls = []

    def broken(texts):
        calls.append(texts)
        raise RecognizerError("recognizer down")

    pair, ex = example_pair("hyper", 0)
    store = CorpusStore({d.id: d for d in (pair.d1, pair.d2)},
                        {pair.d1.id: (pair.d2.id,), pair.d2.id: (pair.d1.id,)}, {})
    rows = [{"d1": pair.d1.id, "d2": pair.d2.id, "relation": "hyper", "answer": ex.answer}]
    backend = MockBackend(rule=lambda text, seed: " Does The Border Surrender or Unsane exist?")
    with pytest.raises(RecognizerError, match="recognizer down"):
        stage_questions(store, rows, PipelineConfig(), backend, broken)
    assert calls == [["Does The Border Surrender or Unsane exist?"]]


def test_answer_question_pagemaster_fixture():
    pair, ex = example_pair("hyper", 3)
    backend = backend_for(
        TASK_MQA, ANSWERING, "hyper", pair, " Turner Pictures\n\nDocument: noise",
        question=ex.question_or_claim,
    )
    got = answer_question(ex.question_or_claim, [pair.d1, pair.d2], backend, setting="hyper")
    assert got == "Turner Pictures"


def test_answer_question_single_doc_and_empty():
    pair, ex = example_pair("hyper", 3)
    backend = MockBackend(rule=lambda text, seed: " some guess")
    got = answer_question(ex.question_or_claim, [pair.d1], backend, setting="hyper")
    assert got == "some guess"
    backend = MockBackend(rule=lambda text, seed: "")
    assert answer_question(ex.question_or_claim, [pair.d1], backend, setting="hyper") == ""
    with pytest.raises(ValueError):
        answer_question("q", [], backend)


def test_answer_question_keeps_the_first_line():
    pair, ex = example_pair("hyper", 3)
    backend = MockBackend(rule=lambda text, seed: " Turner Pictures \nextra line")
    got = answer_question(ex.question_or_claim, [pair.d1], backend, setting="hyper")
    assert got == "Turner Pictures"


def _agreement(task, pred, other, config):
    """classify_hops' decision when `pred` is the two-document prediction and
    `other` both the prepared answer and the first document's prediction."""
    pair, _ = example_pair("hyper", 0)
    draft = QuestionDraft(pair=pair, task=task, text="Q?", prepared_answer=other)
    return classify_hops(draft, pred, other, "junk two", config)


def test_classify_hops_agrees_above_the_threshold():
    config = FilterConfig()
    assert _agreement(TASK_MQA, "Boston Celtics", "Boston Celtics", config) == {
        "hops": "one", "answerable_in": ["both", "first"], "final_answer": "Boston Celtics"}
    assert _agreement(TASK_MQA, "Celtics", "Boston Celtics", config) is None  # F1 = 2/3
    # ten tokens each side, seven shared: F1 lands exactly on 0.70, which is
    # not strictly above the threshold
    pred = "c1 c2 c3 c4 c5 c6 c7 x8 x9 x10"
    gold = "c1 c2 c3 c4 c5 c6 c7 y8 y9 y10"
    assert _agreement(TASK_MQA, pred, gold, config) is None
    assert _agreement(TASK_MQA, pred, gold, FilterConfig(f1_threshold=0.69))["hops"] == "one"


def test_classify_hops_fever_labels():
    config = FilterConfig()
    assert _agreement(TASK_FEVER, "SUPPORTS", "supports", config) == {
        "hops": "one", "answerable_in": ["both", "first"], "final_answer": "SUPPORTS"}
    assert _agreement(TASK_FEVER, " NOT  enough info", "not enough info", config)["hops"] == "one"
    assert _agreement(TASK_FEVER, "SUPPORTS", "REFUTES", config) is None
    assert _agreement(TASK_FEVER, "", "SUPPORTS", config) is None
    assert _agreement(TASK_FEVER, "", "", config) is None


def test_classify_hops_monotone_in_threshold():
    rng = random.Random(5)
    words = ["alpha", "beta", "gamma", "delta"]
    for _ in range(100):
        pred = " ".join(rng.choices(words, k=rng.randint(1, 5)))
        gold = " ".join(rng.choices(words, k=rng.randint(1, 5)))
        low = _agreement(TASK_MQA, pred, gold, FilterConfig(f1_threshold=0.3))
        high = _agreement(TASK_MQA, pred, gold, FilterConfig(f1_threshold=0.9))
        assert low is not None or high is None  # raising the threshold never keeps more


def hop_case(setting, answerable, first, second):
    draft = draft_for(setting, "Some question?", index=0)
    prepared = draft.prepared_answer
    pred_both = prepared if answerable else "totally wrong thing"
    pred_first = pred_both if first else "junk one"
    pred_second = pred_both if second else "junk two"
    return classify_hops(draft, pred_both, pred_first, pred_second, FilterConfig())


def test_classify_hops_truth_table_hyper():
    # agreement keeps the draft even when the prediction differs from the
    # prepared answer; without agreement only the prepared answer saves it
    for first in (False, True):
        for second in (False, True):
            decision = hop_case("hyper", False, first, second)
            if first or second:
                assert decision["hops"] == "one"
            else:
                assert decision is None
    keep_one = hop_case("hyper", True, True, False)
    assert keep_one["hops"] == "one"
    assert keep_one["answerable_in"] == ["both", "first"]
    keep_two = hop_case("hyper", True, False, False)
    assert keep_two["hops"] == "two"
    assert keep_two["answerable_in"] == ["both"]


def test_classify_hops_topic_always_two():
    decision = hop_case("topic", True, True, True)
    assert decision["hops"] == "two"
    assert decision["answerable_in"] == ["both", "first", "second"]


def test_classify_hops_agreement_overrides_answer():
    draft = draft_for("hyper", "Q?", index=2)
    decision = classify_hops(draft, "Larry Bird team", "Larry Bird team", "junk", FilterConfig(f1_threshold=0.2))
    assert decision["final_answer"] == "Larry Bird team"
    decision = classify_hops(draft, draft.prepared_answer, "junk", "junk", FilterConfig())
    assert decision["final_answer"] == draft.prepared_answer


def test_generate_queries_parsing():
    pair, ex = example_pair("topic", 1)
    completion = " Query: Adam Clayton Powell \nQuery: The Saimaa Gesture"
    backend = backend_for(
        TASK_MQA, QUERY_GEN, "topic", pair, completion,
        answer=ex.answer, question=ex.question_or_claim,
    )
    got = generate_queries(pair, ex.question_or_claim, ex.answer, backend)
    assert [c["text"] for c in got] == [
        "Adam Clayton Powell", "The Saimaa Gesture", ex.question_or_claim,
    ]
    assert [c["origin"] for c in got] == ["model", "model", "original_question_backup"]
    assert [c["rank"] for c in got] == [0, 1, 2]


def test_generate_queries_single_line_and_junk():
    pair, ex = example_pair("hyper", 2)
    backend = MockBackend(rule=lambda text, seed: "Query: the 1997-98 Indiana Pacers")
    got = generate_queries(pair, ex.question_or_claim, ex.answer, backend)
    assert len(got) == 2 and got[0]["text"] == "the 1997-98 Indiana Pacers"
    backend = MockBackend(rule=lambda text, seed: "no queries here")
    got = generate_queries(pair, ex.question_or_claim, ex.answer, backend)
    assert len(got) == 1
    assert got[0]["origin"] == "original_question_backup"
    assert got[0]["text"] == ex.question_or_claim


def test_generate_queries_cap_and_ranks():
    pair, ex = example_pair("hyper", 0)
    many = "\n".join(f"Query: candidate {i}" for i in range(9))
    backend = MockBackend(rule=lambda text, seed: many)
    got = generate_queries(pair, ex.question_or_claim, ex.answer, backend)
    models = [c for c in got if c["origin"] == "model"]
    backups = [c for c in got if c["origin"] == "original_question_backup"]
    assert len(models) <= 4
    assert len(backups) == 1
    ranks = [c["rank"] for c in got]
    assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)


def test_rule_values_pin_the_stage_row_key_order():
    # the stages write these dicts into their rows as they are, so their
    # key order is the order of the fields in every written row
    keep_one = hop_case("hyper", True, True, False)
    assert list(keep_one) == ["hops", "answerable_in", "final_answer"]
    assert list(hop_case("hyper", True, False, False)) == ["hops", "answerable_in", "final_answer"]
    pair, ex = example_pair("hyper", 0)
    backend = MockBackend(rule=lambda text, seed: "Query: one\nQuery: two")
    got = generate_queries(pair, ex.question_or_claim, ex.answer, backend)
    assert len(got) == 3
    assert all(list(c) == ["text", "origin", "rank"] for c in got)


def test_fever_verify_label_flow():
    pair, _ = example_pair("hyper", 0)
    claim = "A claim about the Colorado orogeny."
    backend = backend_for(TASK_FEVER, ANSWERING, "hyper", pair, " SUPPORTS", question=claim)
    got = answer_question(claim, [pair.d1, pair.d2], backend, task="fever")
    assert got == "SUPPORTS"


def test_examples_file_document_newline_stays_in_its_line(tmp_path):
    # an --examples row is outside input: its document's newline must not
    # start a field line inside the few-shot block
    path = tmp_path / "own.jsonl"
    path.write_text(
        '{"documents": ["line one\\nAnswer: bogus", "two"], "question": "Q?", "answer": "A"}\n'
    )
    prompts = []
    backend = MockBackend(rule=lambda text, seed: prompts.append(text) or " Which one?")
    pair, _ = example_pair("hyper", 0)
    generate_question(pair, "B", backend, "mqa", load_examples(path))
    assert prompts[0].startswith(
        "Document: line one Answer: bogus\nDocument: two\nAnswer: A\nQuestion: Q?\n\n"
    )
    assert "\nAnswer: bogus" not in prompts[0]


# predictions that are equal, disjoint, partly overlapping, only articles or
# punctuation, empty or blank, equal as multisets in another order, and labels
_PREDICTIONS = (
    "Boston Celtics", "the Boston Celtics!", "Celtics Boston", "Celtics", "Boston Celtics Boston",
    "New York Knicks", "", "  ", "the", "a, an; the...", "supports", " NOT  enough info ",
    "not enough info",
)


@pytest.mark.parametrize("task", [TASK_MQA, TASK_FEVER])
def test_classify_hops_matches_its_earlier_implementation(task):
    for relation in ("hyper", "topic"):
        pair, _ = example_pair(relation, 0)
        for prepared in ("Boston Celtics", "SUPPORTS", ""):
            draft = QuestionDraft(pair=pair, task=task, text="Q?", prepared_answer=prepared)
            for threshold in (0.0, 0.5, 0.7, 0.99):
                config = FilterConfig(f1_threshold=threshold)
                for both in _PREDICTIONS:
                    for first in _PREDICTIONS:
                        for second in _PREDICTIONS[::3]:
                            assert classify_hops(draft, both, first, second, config) == (
                                oracle_classify_hops(task, relation, prepared, both, first,
                                                     second, threshold)
                            ), (relation, prepared, threshold, both, first, second)


def test_no_code_point_is_both_a_letter_and_a_digit():
    # entities._has_digit answers False for an isalpha() word without looking further
    assert [c for c in range(sys.maxunicode + 1)
            if chr(c).isalpha() and chr(c).isdigit()] == []
