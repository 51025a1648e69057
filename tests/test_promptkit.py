import random

import pytest

from hopsynth import promptkit
from hopsynth.promptkit import (
    FEVER_CLAIM_GEN,
    FEVER_QUERY_GEN,
    FEVER_VERIFY,
    MQA_ANSWER,
    MQA_QUERY_GEN,
    MQA_QUESTION_GEN,
    FewShotExample,
    PromptError,
    builtin_examples,
    load_examples,
    parse_prompt,
    render_prompt,
)


def test_builtin_topic_question_gen():
    examples = builtin_examples(MQA_QUESTION_GEN, "topic")
    assert len(examples) == 4
    assert examples[0].answer == "The Border Surrender"
    assert examples[0].question_or_claim == "Does The Border Surrender or Unsane have more members?"


def test_builtin_hyper_question_gen():
    examples = builtin_examples(MQA_QUESTION_GEN, "hyper")
    assert len(examples) == 4
    assert examples[0].answer == "1,800 to 7,000 ft"
    assert examples[3].answer == "Turner Pictures"
    # the third example carries a single query
    assert examples[2].queries == ("the 1997-98 Indiana Pacers",)


def test_builtin_fever_shared():
    examples = builtin_examples(FEVER_VERIFY, "hyper")
    assert len(examples) == 8
    labels = {e.answer for e in examples}
    assert labels == {"SUPPORTS", "REFUTES", "NOT ENOUGH INFO"}
    assert builtin_examples(FEVER_CLAIM_GEN, "hyper") == examples
    assert builtin_examples(FEVER_QUERY_GEN, "hyper") == examples


def test_builtin_examples_parsed_once(monkeypatch):
    promptkit._load_builtin.cache_clear()
    opened = []
    files = promptkit.resources.files

    def counting_files(package):
        opened.append(package)
        return files(package)

    monkeypatch.setattr(promptkit.resources, "files", counting_files)
    first = builtin_examples(MQA_ANSWER, "hyper")
    assert len(opened) == 1
    second = builtin_examples(MQA_QUERY_GEN, "hyper")
    assert len(opened) == 1
    assert second == first and second is not first
    second.clear()  # callers get a fresh list they may change
    assert builtin_examples(MQA_ANSWER, "hyper") == first


def test_builtin_seed_set_is_small():
    mqa = {
        (e.documents, e.question_or_claim, e.answer)
        for setting in ("hyper", "topic")
        for e in builtin_examples(MQA_QUESTION_GEN, setting)
    }
    assert len(mqa) <= 10
    fever = {
        (e.documents, e.question_or_claim, e.answer)
        for e in builtin_examples(FEVER_VERIFY, "hyper")
    }
    assert len(fever) <= 10


def test_fever_topic_rejected():
    with pytest.raises(PromptError):
        builtin_examples(FEVER_CLAIM_GEN, "topic")
    with pytest.raises(PromptError):
        render_prompt(FEVER_CLAIM_GEN, "topic", [], ["d"], answer="SUPPORTS")


def test_question_gen_block_layout():
    examples = builtin_examples(MQA_QUESTION_GEN, "hyper")
    prompt = render_prompt(
        MQA_QUESTION_GEN, "hyper", examples, ["doc one text", "doc two text"],
        answer="Turner Pictures",
    )
    assert "Answer: 1,800 to 7,000 ft\nQuestion:" in prompt.text
    assert prompt.text.endswith("Answer: Turner Pictures\nQuestion:")
    assert list(prompt.stop_sequences) == ["\n\n", "\nDocument:"]


def test_answer_task_field_order():
    examples = builtin_examples(MQA_ANSWER, "topic")
    prompt = render_prompt(
        MQA_ANSWER, "topic", examples, ["a", "b"], question="Who?"
    )
    first_block = prompt.text.split("\n\n")[0]
    lines = first_block.split("\n")
    assert lines[2].startswith("Question: ")
    assert lines[3].startswith("Answer: ")
    assert prompt.text.endswith("Question: Who?\nAnswer:")


def test_answer_task_single_document_target():
    prompt = render_prompt(MQA_ANSWER, "hyper", [], ["only doc"], question="Who?")
    assert prompt.text == "Document: only doc\nQuestion: Who?\nAnswer:"


def test_query_gen_single_query_example_renders_one_line():
    examples = builtin_examples(MQA_QUERY_GEN, "hyper")
    prompt = render_prompt(
        MQA_QUERY_GEN, "hyper", examples, ["x", "y"], answer="A", question="Q?"
    )
    pacers_block = prompt.text.split("\n\n")[2]
    assert pacers_block.count("Query:") == 1
    assert "Query: the 1997-98 Indiana Pacers" in pacers_block
    colorado_block = prompt.text.split("\n\n")[0]
    assert colorado_block.count("Query:") == 2
    assert prompt.text.endswith("Answer: A\nQuery:")


def test_zero_examples_degenerate():
    prompt = render_prompt(MQA_QUESTION_GEN, "hyper", [], ["d1", "d2"], answer="A")
    assert prompt.text == "Document: d1\nDocument: d2\nAnswer: A\nQuestion:"


def test_fever_layouts():
    examples = builtin_examples(FEVER_CLAIM_GEN, "hyper")[:1]
    gen = render_prompt(FEVER_CLAIM_GEN, "hyper", examples, ["x", "y"], answer="REFUTES")
    assert gen.text.endswith("Answer: REFUTES\nClaim:")
    assert "Answer: NOT ENOUGH INFO\nClaim: Peggy Sue Got Married" in gen.text
    verify = render_prompt(FEVER_VERIFY, "hyper", examples, ["x", "y"], question="C.")
    assert verify.text.endswith("Claim: C.\nAnswer:")
    qgen = render_prompt(
        FEVER_QUERY_GEN, "hyper", examples, ["x", "y"], question="C.", answer="SUPPORTS"
    )
    assert qgen.text.endswith("Answer: SUPPORTS\nQuery:")


def test_missing_required_field():
    with pytest.raises(PromptError):
        render_prompt(MQA_QUESTION_GEN, "hyper", [], ["d1", "d2"])
    with pytest.raises(PromptError):
        render_prompt(MQA_QUERY_GEN, "hyper", [], ["d1", "d2"], answer="A")


def test_no_stop_sequence_in_completable_content():
    # a model completing any example's generated fields must not run into a
    # stop sequence: after a block's document lines, neither stop may occur
    for task, setting in [
        (MQA_QUESTION_GEN, "hyper"), (MQA_QUESTION_GEN, "topic"),
        (MQA_ANSWER, "hyper"), (MQA_QUERY_GEN, "topic"),
        (FEVER_CLAIM_GEN, "hyper"), (FEVER_QUERY_GEN, "hyper"),
    ]:
        examples = builtin_examples(task, setting)
        prompt = render_prompt(
            task, setting, examples, ["t1", "t2"], answer="A", question="Q?"
        )
        for block in prompt.text.split("\n\n"):
            last_doc_line = block[block.rfind("Document: "):]
            generated = last_doc_line.split("\n", 1)[1] if "\n" in last_doc_line else ""
            for stop in prompt.stop_sequences:
                assert stop not in generated


def test_render_parse_roundtrip():
    rng = random.Random(0)
    words = ["alpha", "Beta", "gamma", "Delta", "1,800", "ft."]
    for _ in range(25):
        examples = [
            FewShotExample(
                documents=(
                    " ".join(rng.choices(words, k=rng.randint(2, 8))),
                    " ".join(rng.choices(words, k=rng.randint(2, 8))),
                ),
                question_or_claim=" ".join(rng.choices(words, k=rng.randint(2, 6))) + "?",
                answer=" ".join(rng.choices(words, k=rng.randint(1, 3))),
                queries=tuple(
                    " ".join(rng.choices(words, k=rng.randint(1, 4)))
                    for _ in range(rng.randint(0, 2))
                ),
            )
            for _ in range(rng.randint(0, 4))
        ]
        target_docs = [" ".join(rng.choices(words, k=4)), " ".join(rng.choices(words, k=5))]
        answer = " ".join(rng.choices(words, k=2))
        question = " ".join(rng.choices(words, k=3)) + "?"
        prompt = render_prompt(
            MQA_QUERY_GEN, "hyper", examples, target_docs, answer=answer, question=question
        )
        blocks = parse_prompt(MQA_QUERY_GEN, prompt.text)
        assert len(blocks) == len(examples) + 1
        for ex, parsed in zip(examples, blocks):
            assert tuple(parsed["documents"]) == ex.documents
            assert parsed["question"] == ex.question_or_claim
            assert parsed["answer"] == ex.answer
            assert tuple(parsed["queries"]) == ex.queries
        assert blocks[-1]["documents"] == target_docs
        assert blocks[-1]["question"] == question
        assert blocks[-1]["answer"] == answer


def test_load_examples_override(tmp_path):
    path = tmp_path / "own.jsonl"
    path.write_text(
        '{"documents": ["a", "b"], "question": "Q?", "answer": "A", "queries": ["q1"]}\n'
    )
    loaded = load_examples(path)
    assert loaded == [FewShotExample(("a", "b"), "Q?", "A", ("q1",))]
