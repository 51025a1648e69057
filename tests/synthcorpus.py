"""Deterministic synthetic corpus generator for pipeline tests.

Documents carry unique leading tokens (so hash embeddings retrieve them
reliably), capitalized name spans (so the heuristic recognizer finds
entities), hyperlink anchors whose spans quote partner titles, and evenly
assigned topic labels.
"""

import json
import random

SYLLABLES = ["bar", "ken", "lor", "mi", "zu", "tal", "ver", "quo", "ri", "sa", "ne", "dol"]
CATEGORIES = ["settlement", "festival", "vessel", "treatise", "orchard", "fortress"]
REGIONS = ["Northmoor", "Eastvale", "Suncrest", "Willowfen", "Graymarch", "Opaline"]


def _word(rng):
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()


def make_corpus(n_docs=200, seed=0, n_topics=10, links_per_doc=(1, 3)):
    rng = random.Random(seed)
    titles = []
    seen = set()
    for i in range(n_docs):
        while True:
            title = f"{_word(rng)} {_word(rng)} {i:03d}"
            if title not in seen:
                seen.add(title)
                titles.append(title)
                break
    records = []
    for i in range(n_docs):
        partners = rng.sample(
            [j for j in range(n_docs) if j != i], rng.randint(*links_per_doc)
        )
        category = rng.choice(CATEGORIES)
        region = rng.choice(REGIONS)
        mentions = " ".join(
            f"It is connected with {titles[j]} in the archive." for j in partners
        )
        text = (
            f"{titles[i]} is a {category} from the {region} region. {mentions} "
            f"Records kept by {_word(rng)} {_word(rng)} describe it."
        )
        records.append(
            {
                "id": f"d{i:04d}",
                "title": titles[i],
                "text": text,
                "anchors": [{"span": titles[j], "target": titles[j]} for j in partners],
                "topic": f"cluster{i % n_topics}",
            }
        )
    return records


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


# Characters where `str.lower`, `\w` and `isalnum` part ways: underscores,
# capital dotted I (lowercases to two code points), a combining dot above (a
# mark, not `\w`), superscript two and a roman numeral (numeric, not
# decimal), a titlecase digraph, final sigma, a ligature, CJK, and
# punctuation and whitespace between words.
_ALPHABET = "aBz7_İ\u0307²Ⅻǅςσﬁé中文"
_SEPARATORS = [" ", " ", " ", "\t\n", "-", ",", ". ", "'", "_", "__", "\u0307", "…"]


def unicode_texts(seed, count):
    """`count` seeded texts of words over _ALPHABET and _SEPARATORS."""
    rng = random.Random(seed)
    texts = ["", "_ __ , .", "\u0307"]  # no token that holds an alphanumeric
    while len(texts) < count:
        words = ["".join(rng.choices(_ALPHABET, k=rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 60))]
        texts.append("".join(word + rng.choice(_SEPARATORS) for word in words))
    return texts
