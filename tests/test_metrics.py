import random
import string

import pytest

from hopsynth.metrics import ScorePair, f1_tokens, normalize_answer, score_pair, word_count

from oracles import oracle_f1_tokens, squad_exact_match, squad_f1
from synthcorpus import unicode_texts


def test_normalize_answer():
    assert normalize_answer("The Border Surrender") == "border surrender"
    assert normalize_answer("Turner Pictures") == "turner pictures"
    # frozen from the reference SQuAD v1 normalizer
    assert normalize_answer("1,800 to 7,000 ft") == "1800 to 7000 ft"


def test_normalize_idempotent():
    rng = random.Random(7)
    corpus = [
        "The Saimaa Gesture",
        "Boston  Celtics.",
        "a-b, C; d's",
        "An apple a day",
        "  spaced   out  ",
        "1,800 to 7,000 ft (550 to 2,130 m)",
    ]
    for _ in range(50):
        s = " ".join(rng.choices(corpus, k=rng.randint(1, 3)))
        once = normalize_answer(s)
        assert normalize_answer(once) == once


def test_score_pair_f1_values():
    assert score_pair("Turner Pictures", "Turner Pictures").f1 == 1.0
    assert score_pair("yes", "no").f1 == 0.0
    # precision 2/3, recall 1 -> 0.8 (hand overlap count)
    assert score_pair("the Turner Pictures company", "Turner Pictures").f1 == pytest.approx(0.8)
    # precision 1, recall 1/2 -> 2/3
    assert score_pair("Celtics", "Boston Celtics").f1 == pytest.approx(2 / 3)


def test_score_pair_empty_conventions():
    assert score_pair("", "") == ScorePair(em=True, f1=1.0)
    assert score_pair("the", "an") == ScorePair(em=True, f1=1.0)  # both normalize to empty
    assert score_pair("", "x") == ScorePair(em=False, f1=0.0)
    assert score_pair("x", "") == ScorePair(em=False, f1=0.0)


def test_score_pair_symmetric_and_bounded():
    rng = random.Random(3)
    words = ["alpha", "beta", "gamma", "delta", "the", "1,800", "ft"]
    for _ in range(200):
        a = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        b = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        score = score_pair(a, b)
        assert score.f1 == pytest.approx(score_pair(b, a).f1)
        assert score.em == score_pair(b, a).em
        assert 0.0 <= score.f1 <= 1.0
        assert score_pair(a, a) == ScorePair(em=True, f1=1.0)


def test_score_pair_exact_match():
    assert score_pair("The Saimaa Gesture", "Saimaa Gesture").em
    assert not score_pair("yes", "no").em
    assert score_pair("Boston  Celtics", "boston celtics.").em


def test_em_implies_f1_one():
    cases = [
        ("The Saimaa Gesture", "Saimaa Gesture"),
        ("Boston  Celtics", "boston celtics."),
        ("1,800 to 7,000 ft", "1800 to 7000 ft"),
    ]
    for pred, gold in cases:
        sp = score_pair(pred, gold)
        assert sp.em and sp.f1 == 1.0


def test_score_pair_equals_its_definition_on_unicode_texts():
    # on Unicode texts, their recased, article-wrapped and shuffled variants:
    # em compares the normalized texts, f1 counts their tokens' overlap
    texts = unicode_texts(12, 400)
    rng = random.Random(12)
    pairs = list(zip(texts, texts[1:]))
    for text in texts:
        words = text.split()
        rng.shuffle(words)
        pairs += [(text, text), (text, text.upper()), (f"The {text}.", text.lower()),
                  (" ".join(words), text), (text, " ".join(words[: len(words) // 2]))]
    scores = [score_pair(pred, gold) for pred, gold in pairs]
    normalized = [(normalize_answer(pred), normalize_answer(gold)) for pred, gold in pairs]
    assert scores == [ScorePair(em=pred == gold, f1=oracle_f1_tokens(pred.split(), gold.split()))
                      for pred, gold in normalized]
    assert sum(score.em for score in scores) > 400
    assert len({score.f1 for score in scores}) > 100


def test_agrees_with_reference_evaluator():
    # 50 non-degenerate cases; the reference divides by zero on empties.
    fixed = [
        ("Celtics", "Boston Celtics"),
        ("the Turner Pictures company", "Turner Pictures"),
        ("1,800 to 7,000 ft", "1800 to 7000 ft"),
        ("The Saimaa Gesture", "Saimaa Gesture"),
        ("Boston  Celtics", "boston celtics."),
        ("yes", "no"),
        ("1 March 1936", "March 1, 1936"),
        ("a yes", "yes"),
    ]
    rng = random.Random(11)
    vocab = [
        "Turner", "Pictures", "Boston", "Celtics", "the", "an", "1,800",
        "7,000", "ft", "Saimaa", "Gesture", "March", "1936", "company",
    ]
    cases = list(fixed)
    while len(cases) < 50:
        a = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        b = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        if normalize_answer(a) and normalize_answer(b):
            cases.append((a, b))
    for pred, gold in cases:
        score = score_pair(pred, gold)
        assert abs(score.f1 - squad_f1(pred, gold)) < 1e-9
        assert score.em == squad_exact_match(pred, gold)


def test_word_count():
    assert word_count("Does A or B have more members?") == 7
    assert word_count("") == 0


def _normalize_per_character(text):
    # the definition normalize_answer had before it used str.translate
    punct = set(string.punctuation)
    no_punct = "".join(ch for ch in text.lower() if ch not in punct)
    return " ".join(tok for tok in no_punct.split() if tok not in {"a", "an", "the"})


def test_normalize_answer_equals_per_character_definition():
    rng = random.Random(6)
    alphabet = string.printable + "—’éÉİıßΣ  "
    words = ["a", "An", "THE", "the,", "(the)", "1,800", "don't", "İstanbul", "café"]
    for _ in range(20_000):
        pieces = [
            rng.choice(words) if rng.random() < 0.3 else rng.choice(alphabet)
            for _ in range(rng.randint(0, 30))
        ]
        text = "".join(pieces) if rng.random() < 0.5 else " ".join(pieces)
        assert normalize_answer(text) == _normalize_per_character(text), repr(text)


def test_f1_tokens_equals_the_counter_definition():
    rng = random.Random(4242)
    vocabulary = ("a", "b", "c", "d", "e")
    for _ in range(5000):
        pred = rng.choices(vocabulary, k=rng.randrange(0, 7))
        gold = rng.choices(vocabulary, k=rng.randrange(0, 7))
        if rng.random() < 0.2:
            gold = rng.sample(pred, len(pred))  # the same multiset, in another order
        assert f1_tokens(pred, gold) == oracle_f1_tokens(pred, gold), (pred, gold)
