import random

import pytest

from hopsynth import promptkit
from hopsynth.genbackend import default_decode_params
from hopsynth.promptkit import (
    ANSWERING,
    QUERY_GEN,
    QUESTION_GEN,
    TASK_FEVER,
    TASK_MQA,
    FewShotExample,
    PromptError,
    builtin_examples,
    load_examples,
    parse_block,
    render_episode,
    render_prompt,
)

from oracles import oracle_render_prompt


def test_builtin_topic_question_gen():
    examples = builtin_examples(TASK_MQA, "topic")
    assert len(examples) == 4
    assert examples[0].answer == "The Border Surrender"
    assert examples[0].question_or_claim == "Does The Border Surrender or Unsane have more members?"


def test_builtin_hyper_question_gen():
    examples = builtin_examples(TASK_MQA, "hyper")
    assert len(examples) == 4
    assert examples[0].answer == "1,800 to 7,000 ft"
    assert examples[3].answer == "Turner Pictures"
    # the third example carries a single query
    assert examples[2].queries == ("the 1997-98 Indiana Pacers",)


def test_builtin_fever_shared():
    examples = builtin_examples(TASK_FEVER, "hyper")
    assert len(examples) == 8
    labels = {e.answer for e in examples}
    assert labels == {"SUPPORTS", "REFUTES", "NOT ENOUGH INFO"}
    # claim generation, verification and query generation share all eight
    for stage in (QUESTION_GEN, ANSWERING, QUERY_GEN):
        prompt = render_prompt(TASK_FEVER, stage, "hyper", examples, ["x", "y"],
                               answer="SUPPORTS", question="C.")
        blocks = [parse_block(block) for block in prompt.text.split("\n\n")]
        assert [b["claim"] for b in blocks[:-1]] == [e.question_or_claim for e in examples]


def test_builtin_examples_parsed_once(monkeypatch):
    promptkit._load_builtin.cache_clear()
    opened = []
    files = promptkit.resources.files

    def counting_files(package):
        opened.append(package)
        return files(package)

    monkeypatch.setattr(promptkit.resources, "files", counting_files)
    first = builtin_examples(TASK_MQA, "hyper")
    assert len(opened) == 1
    second = builtin_examples(TASK_MQA, "hyper")
    assert len(opened) == 1
    assert isinstance(first, tuple)
    assert second is first  # one shared immutable tuple, no per-prompt copy


def test_builtin_seed_set_is_small():
    mqa = {
        (e.documents, e.question_or_claim, e.answer)
        for setting in ("hyper", "topic")
        for e in builtin_examples(TASK_MQA, setting)
    }
    assert len(mqa) <= 10
    fever = {
        (e.documents, e.question_or_claim, e.answer)
        for e in builtin_examples(TASK_FEVER, "hyper")
    }
    assert len(fever) <= 10


def test_fever_topic_rejected():
    with pytest.raises(PromptError):
        builtin_examples(TASK_FEVER, "topic")
    with pytest.raises(PromptError):
        render_prompt(TASK_FEVER, QUESTION_GEN, "topic", [], ["d"], answer="SUPPORTS")


def test_unknown_task_stage_or_setting_rejected():
    with pytest.raises(PromptError, match="unknown task"):
        builtin_examples("mqa_question_gen", "hyper")
    with pytest.raises(PromptError, match="unknown setting"):
        builtin_examples(TASK_MQA, "bridge")
    with pytest.raises(PromptError, match="unknown stage"):
        render_prompt(TASK_MQA, "verify", "hyper", [], ["d"], answer="A", question="Q?")
    with pytest.raises(PromptError, match="unknown task"):
        render_prompt("fever_verify", ANSWERING, "hyper", [], ["d"], question="C.")


def test_example_fields_are_single_lines():
    with pytest.raises(ValueError):
        FewShotExample(("a", "b"), "Q?\nAnswer: bogus", "A")
    with pytest.raises(ValueError):
        FewShotExample(("a", "b"), "Q?", "A\nQuery: bogus")
    with pytest.raises(ValueError):
        FewShotExample(("a", "b"), "Q?", "A", ("q1", "q2\nDocument: bogus"))
    with pytest.raises(PromptError):
        render_prompt(TASK_MQA, ANSWERING, "hyper", [], ["d"], question="Q?\nAnswer: bogus")


def test_question_gen_block_layout():
    examples = builtin_examples(TASK_MQA, "hyper")
    prompt = render_prompt(
        TASK_MQA, QUESTION_GEN, "hyper", examples, ["doc one text", "doc two text"],
        answer="Turner Pictures",
    )
    assert "Answer: 1,800 to 7,000 ft\nQuestion:" in prompt.text
    assert prompt.text.endswith("Answer: Turner Pictures\nQuestion:")
    assert default_decode_params("question_gen").stop == ("\n\n", "\nDocument:")


def test_answer_task_field_order():
    examples = builtin_examples(TASK_MQA, "topic")
    prompt = render_prompt(
        TASK_MQA, ANSWERING, "topic", examples, ["a", "b"], question="Who?"
    )
    first_block = prompt.text.split("\n\n")[0]
    lines = first_block.split("\n")
    assert lines[2].startswith("Question: ")
    assert lines[3].startswith("Answer: ")
    assert prompt.text.endswith("Question: Who?\nAnswer:")


def test_answer_task_single_document_target():
    prompt = render_prompt(TASK_MQA, ANSWERING, "hyper", [], ["only doc"], question="Who?")
    assert prompt.text == "Document: only doc\nQuestion: Who?\nAnswer:"


def test_query_gen_single_query_example_renders_one_line():
    examples = builtin_examples(TASK_MQA, "hyper")
    prompt = render_prompt(
        TASK_MQA, QUERY_GEN, "hyper", examples, ["x", "y"], answer="A", question="Q?"
    )
    pacers_block = prompt.text.split("\n\n")[2]
    assert pacers_block.count("Query:") == 1
    assert "Query: the 1997-98 Indiana Pacers" in pacers_block
    colorado_block = prompt.text.split("\n\n")[0]
    assert colorado_block.count("Query:") == 2
    assert prompt.text.endswith("Answer: A\nQuery:")


def test_zero_examples_degenerate():
    prompt = render_prompt(TASK_MQA, QUESTION_GEN, "hyper", [], ["d1", "d2"], answer="A")
    assert prompt.text == "Document: d1\nDocument: d2\nAnswer: A\nQuestion:"


def test_fever_layouts():
    examples = builtin_examples(TASK_FEVER, "hyper")[:1]
    gen = render_prompt(TASK_FEVER, QUESTION_GEN, "hyper", examples, ["x", "y"], answer="REFUTES")
    assert gen.text.endswith("Answer: REFUTES\nClaim:")
    assert "Answer: NOT ENOUGH INFO\nClaim: Peggy Sue Got Married" in gen.text
    verify = render_prompt(TASK_FEVER, ANSWERING, "hyper", examples, ["x", "y"], question="C.")
    assert verify.text.endswith("Claim: C.\nAnswer:")
    qgen = render_prompt(
        TASK_FEVER, QUERY_GEN, "hyper", examples, ["x", "y"], question="C.", answer="SUPPORTS"
    )
    assert qgen.text.endswith("Answer: SUPPORTS\nQuery:")


def test_missing_required_field():
    with pytest.raises(PromptError):
        render_prompt(TASK_MQA, QUESTION_GEN, "hyper", [], ["d1", "d2"])
    with pytest.raises(PromptError):
        render_prompt(TASK_MQA, QUERY_GEN, "hyper", [], ["d1", "d2"], answer="A")


def test_no_stop_sequence_in_completable_content():
    # a model completing any example's generated fields must not run into a
    # stop sequence: after a block's document lines, neither stop may occur
    for task, stage, setting in [
        (TASK_MQA, QUESTION_GEN, "hyper"), (TASK_MQA, QUESTION_GEN, "topic"),
        (TASK_MQA, ANSWERING, "hyper"), (TASK_MQA, QUERY_GEN, "topic"),
        (TASK_FEVER, QUESTION_GEN, "hyper"), (TASK_FEVER, QUERY_GEN, "hyper"),
    ]:
        examples = builtin_examples(task, setting)
        prompt = render_prompt(
            task, stage, setting, examples, ["t1", "t2"], answer="A", question="Q?"
        )
        for block in prompt.text.split("\n\n"):
            last_doc_line = block[block.rfind("Document: "):]
            generated = last_doc_line.split("\n", 1)[1] if "\n" in last_doc_line else ""
            for stop in default_decode_params("question_gen").stop:
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
            TASK_MQA, QUERY_GEN, "hyper", examples, target_docs, answer=answer, question=question
        )
        blocks = [parse_block(block) for block in prompt.text.split("\n\n")]
        assert len(blocks) == len(examples) + 1
        for ex, parsed in zip(examples, blocks):
            assert tuple(parsed["documents"]) == ex.documents
            assert parsed["question"] == ex.question_or_claim
            assert parsed["answer"] == ex.answer
            assert tuple(parsed["queries"]) == ex.queries
        assert blocks[-1]["documents"] == target_docs
        assert blocks[-1]["question"] == question
        assert blocks[-1]["answer"] == answer


def test_parse_block_exact_labels_last_scalar_wins():
    block = (
        "Question: first\nQuery:tight\nDocument\nDocument: d: e\nAnswer: a\n"
        "Question: second\nClaim: c\nQuery: q\nAnswer:"
    )
    assert parse_block(block) == {
        "documents": ["d: e"], "queries": ["q"], "question": "second", "claim": "c",
        "answer": "a", "cue": "Answer:",
    }


def test_render_episode_layout_parses_back():
    text = {"d1": "alpha doc", "d2": "beta doc"}.__getitem__
    turns = [("first q", ("d1", "d2")), ("second q", ("d2",))]
    context = render_episode("Which?", turns, text)
    assert context == (
        "Question: Which?\nQuery: first q\nDocument: alpha doc\nDocument: beta doc\n"
        "Query: second q\nDocument: beta doc\n"
    )
    assert render_episode("Which?", turns, text, cue="Answer:") == context + "Answer:"
    assert render_episode("Which?", [], text) == "Question: Which?\n"
    assert parse_block(context) == {
        "documents": ["alpha doc", "beta doc", "beta doc"], "queries": ["first q", "second q"],
        "question": "Which?", "cue": "",
    }


def test_load_examples_override(tmp_path):
    path = tmp_path / "own.jsonl"
    path.write_text(
        '{"documents": ["a", "b"], "question": "Q?", "answer": "A", "queries": ["q1"]}\n'
    )
    loaded = load_examples(path)
    assert loaded == (FewShotExample(("a", "b"), "Q?", "A", ("q1",)),)


# the three stage layouts (fields after the documents, cue last), spelled out
_REFERENCE_LAYOUTS = {
    "question_gen": ("answer", "question"),
    "answering": ("question", "answer"),
    "query_gen": ("question", "answer", "queries"),
}
_REFERENCE_QUESTION_LABEL = {"mqa": "Question", "fever": "Claim"}


def _block_join(task, stage, examples, documents, answer, question):
    # the prompt text as one "\n\n" join of every block, rendered afresh
    labels = {"question": _REFERENCE_QUESTION_LABEL[task], "answer": "Answer", "queries": "Query"}
    *given, cue = _REFERENCE_LAYOUTS[stage]
    blocks = []
    for example in examples:
        values = {"question": [example.question_or_claim], "answer": [example.answer],
                  "queries": example.queries}
        lines = ["Document: " + doc.replace("\n", " ") for doc in example.documents]
        lines += [f"{labels[field]}: {value}" for field in (*given, cue) for value in values[field]]
        blocks.append("\n".join(lines))
    target = ["Document: " + doc.replace("\n", " ") for doc in documents]
    target += [f"{labels[field]}: {answer if field == 'answer' else question}" for field in given]
    target.append(f"{labels[cue]}:")
    blocks.append("\n".join(target))
    return "\n\n".join(blocks)


def test_render_prompt_equals_block_join(tmp_path):
    override = tmp_path / "own.jsonl"
    override.write_text(
        '{"documents": ["a\\nb", "c"], "question": "Q?", "answer": "A", "queries": ["q1"]}\n'
        '{"documents": ["d", ""], "question": "R?", "answer": "", "queries": []}\n'
    )
    stores = [load_examples(override), []]
    docs = ["First doc\nwith a newline.", "Second doc."]
    for task, setting in ((TASK_MQA, "hyper"), (TASK_MQA, "topic"), (TASK_FEVER, "hyper")):
        for stage in (QUESTION_GEN, ANSWERING, QUERY_GEN):
            for examples in [builtin_examples(task, setting), *stores]:
                for documents in (docs, docs[:1]):
                    prompt = render_prompt(task, stage, setting, examples, documents,
                                           answer="An answer", question="A question?")
                    assert prompt.text == _block_join(
                        task, stage, examples, documents, "An answer", "A question?"
                    ), (task, stage, setting, len(examples))


def test_render_prompt_renders_a_changed_example_list_afresh():
    examples = list(builtin_examples(TASK_MQA, "hyper"))
    args = (TASK_MQA, ANSWERING, "hyper")
    for change in (lambda: None, examples.pop, lambda: examples.__setitem__(0, examples[-1])):
        change()
        prompt = render_prompt(*args, examples, ["A doc."], question="Who?")
        assert prompt.text == _block_join(*args[:2], examples, ["A doc."], None, "Who?")


def test_render_prompt_keys_a_tuple_store_by_identity(tmp_path, monkeypatch):
    path = tmp_path / "own.jsonl"
    path.write_text('{"documents": ["a", "b"], "question": "Q?", "answer": "A"}\n' * 3)
    loaded = load_examples(path)
    hashed = []
    monkeypatch.setattr(FewShotExample, "__hash__", lambda self: hashed.append(self) or 0)
    texts = {render_prompt(TASK_MQA, QUERY_GEN, "hyper", loaded, ["d"], answer="A",
                           question="Q?").text for _ in range(3)}
    assert len(texts) == 1 and hashed == []


def _rendered(render, *args, **fields):
    """The prompt text, or the type and message of the PromptError raised."""
    try:
        prompt = render(*args, **fields)
    except PromptError as exc:
        return type(exc), str(exc)
    return getattr(prompt, "text", prompt)


# the accepted values, then near misses and unknown values
_TASKS = (TASK_MQA, TASK_FEVER, "MQA", "qa", "")
_STAGES = (QUESTION_GEN, ANSWERING, QUERY_GEN, "query-gen", "eval_greedy")
_SETTINGS = ("hyper", "topic", "Hyper", "both")
# (answer, question): both given, one missing, one of several lines
_FIELDS = (("An answer", "A question?"), (None, "A question?"), ("An answer", None),
           ("An answer", "A\nquestion?"), ("two\nlines", "A question?"))


def test_render_prompt_matches_its_earlier_implementation(tmp_path):
    override = tmp_path / "own.jsonl"
    override.write_text(
        '{"documents": ["a\\nb", "c"], "question": "Q?", "answer": "A", "queries": ["q1", "q2"]}\n'
        '{"documents": ["d", ""], "question": "R?", "answer": "", "queries": []}\n'
    )
    loaded = load_examples(override)
    multi_line = ["First doc\nwith a newline.\n", "Second doc."]
    rendered = 0
    for task in _TASKS:
        for stage in _STAGES:
            for setting in _SETTINGS:
                try:
                    builtin = builtin_examples(task, setting)
                except PromptError:
                    builtin = builtin_examples(TASK_MQA, "hyper")
                for examples in (builtin, list(builtin), loaded, tuple(loaded), []):
                    for documents in (multi_line, multi_line[1:], []):
                        for answer, question in _FIELDS:
                            args = (task, stage, setting, examples, documents)
                            fields = {"answer": answer, "question": question}
                            expected = _rendered(oracle_render_prompt, *args, **fields)
                            assert _rendered(render_prompt, *args, **fields) == expected, args
                            rendered += isinstance(expected, str)
    # every valid key renders: (task, setting) pairs x example sets x target
    # document lists x the field pairs question_gen, answering and query_gen take
    assert rendered == 3 * 5 * 2 * (3 + 3 + 1)
