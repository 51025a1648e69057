"""Seeded inputs for the benchmark workloads.

The corpus has the record layout of `tests/synthcorpus.py`: unique leading
title tokens (so hash embeddings retrieve each document), capitalized name
spans (so the heuristic recognizer finds entities), anchors that quote
partner titles, and round-robin topic labels. Unlike `make_corpus`, which
builds an O(n) partner list per document, partners are drawn by index, so
generation is linear in the number of documents.

The evaluation set is a list of two-hop questions plus the gold script that
`backend.mock_script` replays: each question's script queries its anchor
document, then a linked partner, then answers. Some scripted answers are
deliberately partial or wrong so the expected F1 is below 100.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SYLLABLES = ["bar", "ken", "lor", "mi", "zu", "tal", "ver", "quo", "ri", "sa", "ne", "dol"]
CATEGORIES = ["settlement", "festival", "vessel", "treatise", "orchard", "fortress"]
REGIONS = ["Northmoor", "Eastvale", "Suncrest", "Willowfen", "Graymarch", "Opaline"]

P_PARTIAL_ANSWER = 0.10
P_WRONG_ANSWER = 0.08


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()


def _partners(rng: random.Random, i: int, n_docs: int, count: int) -> list[int]:
    """`count` distinct indices other than i, drawn without an O(n) list."""
    chosen: list[int] = []
    while len(chosen) < min(count, n_docs - 1):
        j = rng.randrange(n_docs - 1)
        j += j >= i
        if j not in chosen:
            chosen.append(j)
    return chosen


def make_corpus(n_docs: int, seed: int, n_topics: int = 10, links_per_doc=(1, 3)) -> list[dict]:
    rng = random.Random(seed)
    titles = [f"{_word(rng)} {_word(rng)} {i:04d}" for i in range(n_docs)]
    records = []
    for i in range(n_docs):
        partners = _partners(rng, i, n_docs, rng.randint(*links_per_doc))
        category = rng.choice(CATEGORIES)
        region = rng.choice(REGIONS)
        mentions = " ".join(f"It is connected with {titles[j]} in the archive." for j in partners)
        text = (
            f"{titles[i]} is a {category} from the {region} region. {mentions} "
            f"Records kept by {_word(rng)} {_word(rng)} describe it."
        )
        records.append(
            {
                "id": f"d{i:05d}",
                "title": titles[i],
                "text": text,
                "anchors": [{"span": titles[j], "target": titles[j]} for j in partners],
                "topic": f"cluster{i % n_topics}",
            }
        )
    return records


def make_eval_set(records: list[dict], n_questions: int, seed: int) -> tuple[list[dict], dict]:
    """Two-hop questions over distinct anchor documents, and their gold script."""
    rng = random.Random(f"eval:{seed}")
    by_title = {record["title"]: record for record in records}
    anchors = rng.sample(range(len(records)), n_questions)
    items, script = [], {}
    for n, i in enumerate(anchors):
        first = records[i]
        second = by_title[rng.choice(first["anchors"])["target"]]
        question = f"Which record linked from {first['title']} was kept in the archive?"
        gold = second["title"]
        roll = rng.random()
        if roll < P_WRONG_ANSWER:
            answer = rng.choice(records)["title"]
        elif roll < P_WRONG_ANSWER + P_PARTIAL_ANSWER:
            answer = gold.split()[0]
        else:
            answer = gold
        items.append({"id": f"q{n:05d}", "question": question, "answer": gold})
        script[question] = {
            "queries": [first["title"], f"{second['title']} archive"],
            "answer": answer,
        }
    return items, script


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path
