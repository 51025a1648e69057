"""Toy 16-document corpus that reproduces the built-in examples end to end.

Each built-in example becomes one document pair. Texts are trimmed variants
of the example documents, tuned so that under hash embeddings every example
query ranks its intended document first among all 16. For hyper pairs the
answer string is planted as the only anchor span (making the prepared
answer deterministic); topic answers come from the fixed title/yes/no set,
so reproducing them needs a seed where the sampler picks the right one.

The mock completions are rendered from this corpus with the real prompt
layouts, keyed by prompt text: question generation and both-documents
answering for every pair, a first-document answering entry only for the
single-hop example, and the example queries for query generation.
"""

from hopsynth.pairing import derive_rng
from hopsynth.promptkit import (
    ANSWERING,
    QUERY_GEN,
    QUESTION_GEN,
    TASK_MQA,
    builtin_examples,
    render_prompt,
)

# (id stem, d1 title, d1 text, d2 title, d2 text, answer anchor on d1?)
HYPER_DOCS = [
    (
        "h0",
        "Colorado orogeny",
        "The Colorado orogeny was a mountain building episode in Colorado and"
        " surrounding areas. Its eastern sector extends into another region.",
        "High Plains",
        "The High Plains are a subregion of the Great Plains. From east to west,"
        " the High Plains rise in elevation range from around 1,800 to 7,000 ft.",
        False,  # answer "1,800 to 7,000 ft" lives in d2
    ),
    (
        "h1",
        "Avidathe Pole Ivideyum",
        "Avidathe Pole Ivideyum is a 1985 Indian Malayalam drama film. The songs"
        " and score of the film were composed by Arjunan.",
        "M. K. Arjunan",
        "M. K. Arjunan (1 March 1936 - 6 April 2020) was an Indian film and"
        " theatre composer from the state of Kerala. The birthday of Arjunan"
        " falls in March.",
        False,  # answer "1 March 1936" lives in d2
    ),
    (
        "h2",
        "1997-98 Indiana Pacers season",
        "The 1997-98 NBA season was the Indiana Pacers 22nd season in the league."
        " The Pacers hired former Boston Celtics legend Larry Bird as head coach.",
        "1997-98 NBA season",
        "The 1997-98 NBA season was the 52nd season of the National Basketball"
        " Association. The Chicago Bulls won the championship that year.",
        True,  # answer "Boston Celtics" lives in d1
    ),
    (
        "h3",
        "The Pagemaster",
        "The Pagemaster is a 1994 American fantasy adventure film starring"
        " Macaulay Culkin and Frank Welker. The film was produced by Turner"
        " Pictures.",
        "Frank Welker",
        "Frank Welker is an American voice actor best known for voicing Fred"
        " Jones in the Scooby-Doo franchise since its inception in 1969.",
        True,  # answer "Turner Pictures" lives in d1
    ),
]

TOPIC_DOCS = [
    (
        "t0",
        "The Border Surrender",
        "The Border Surrender were an English rock band based in North London"
        " with four members playing guitars, keyboards and drums.",
        "Unsane",
        "Unsane is an American noise rock trio formed in New York City in 1988.",
        "bands",
    ),
    (
        "t1",
        "Adam Clayton Powell",
        "Adam Clayton Powell is a 1989 American documentary film about the civil"
        " rights leader, nominated for an Academy Award.",
        "The Saimaa Gesture",
        "The Saimaa Gesture is a 1981 documentary film about three Finnish rock"
        " groups aboard a steamboat touring Lake Saimaa.",
        "documentaries",
    ),
    (
        "t2",
        "Pavel Urysohn",
        "Pavel Samuilovich Urysohn was a Soviet mathematician known for"
        " contributions in dimension theory.",
        "Leonid Levin",
        "Leonid Anatolievich Levin is a Soviet-American mathematician and"
        " computer scientist.",
        "mathematicians",
    ),
    (
        "t3",
        "Steven Spielberg",
        "Steven Allan Spielberg is an American film maker. He is the director of"
        " Jaws, a 1975 shark thriller.",
        "Martin Campbell",
        "Martin Campbell is a New Zealand director of film and television. He"
        " directed the James Bond film Casino Royale.",
        "directors",
    ),
]


def corpus_records():
    records = []
    for stem, t1, x1, t2, x2, answer_on_d1 in HYPER_DOCS:
        example = _hyper_example(stem)
        answer = example.answer
        anchors1, anchors2 = [], []
        if answer_on_d1:
            assert answer in x1, (stem, answer)
            anchors1 = [{"span": answer, "target": t2}]
        else:
            assert answer in x2, (stem, answer)
            anchors2 = [{"span": answer, "target": t1}]
        records.append(
            {"id": f"{stem}a", "title": t1, "text": x1, "anchors": anchors1,
             "topic": f"solo-{stem}a"}
        )
        records.append(
            {"id": f"{stem}b", "title": t2, "text": x2, "anchors": anchors2,
             "topic": f"solo-{stem}b"}
        )
    for stem, t1, x1, t2, x2, topic in TOPIC_DOCS:
        records.append(
            {"id": f"{stem}a", "title": t1, "text": x1, "anchors": [], "topic": topic}
        )
        records.append(
            {"id": f"{stem}b", "title": t2, "text": x2, "anchors": [], "topic": topic}
        )
    return records


def _hyper_example(stem):
    return builtin_examples(TASK_MQA, "hyper")[int(stem[1])]


def _topic_example(stem):
    return builtin_examples(TASK_MQA, "topic")[int(stem[1])]


def expected_instances():
    """id stem -> (question, answer, expected hop count) per example."""
    expectations = {}
    for stem, *_ in HYPER_DOCS:
        ex = _hyper_example(stem)
        expectations[stem] = (ex.question_or_claim, ex.answer, len(ex.queries))
    for stem, *_ in TOPIC_DOCS:
        ex = _topic_example(stem)
        expectations[stem] = (ex.question_or_claim, ex.answer, len(ex.queries))
    return expectations


def entity_map():
    """Question -> entity list for the scripted recognizer; documents map to []."""
    entities = {
        _hyper_example("h0").question_or_claim: ["Colorado"],
        _hyper_example("h1").question_or_claim: ["Avidathe Pole Ivideyum"],
        _hyper_example("h2").question_or_claim: ["Indiana Pacers"],
        _hyper_example("h3").question_or_claim: ["Macaulay Culkin"],
    }
    for stem, t1, _, t2, _, _ in TOPIC_DOCS:
        ex = _topic_example(stem)
        entities[ex.question_or_claim] = [t1, t2]
    return entities


def mock_completions(store):
    """Prompt text -> completion covering every canonical-direction prompt."""
    completions = {}

    def put(prompt, completion):
        completions[prompt.text] = completion

    for kind, rows in (("hyper", HYPER_DOCS), ("topic", TOPIC_DOCS)):
        for row in rows:
            stem = row[0]
            example = _hyper_example(stem) if kind == "hyper" else _topic_example(stem)
            d1 = store.documents[f"{stem}a"]
            d2 = store.documents[f"{stem}b"]
            docs = [d1.text, d2.text]
            examples = builtin_examples(TASK_MQA, kind)
            put(
                render_prompt(TASK_MQA, QUESTION_GEN, kind, examples, docs,
                              answer=example.answer),
                " " + example.question_or_claim,
            )
            put(
                render_prompt(TASK_MQA, ANSWERING, kind, examples, docs,
                              question=example.question_or_claim),
                " " + example.answer,
            )
            if stem == "h2":  # the single-query example answers from d1 alone
                put(
                    render_prompt(TASK_MQA, ANSWERING, kind, examples, [d1.text],
                                  question=example.question_or_claim),
                    " " + example.answer,
                )
            put(
                render_prompt(TASK_MQA, QUERY_GEN, kind, examples, docs,
                              question=example.question_or_claim, answer=example.answer),
                " " + "\n".join(f"Query: {q}" for q in example.queries),
            )
    return completions


def find_topic_answer_seed(limit=20000):
    """Smallest seed whose per-pair answer draws hit every topic example answer."""
    for seed in range(limit):
        if all(
            derive_rng(seed, "answer", f"{stem}a", f"{stem}b").choice(
                [t1, t2, "yes", "no"]
            )
            == _topic_example(stem).answer
            for stem, t1, _, t2, _, _ in TOPIC_DOCS
        ):
            return seed
    raise AssertionError("no suitable seed found")
