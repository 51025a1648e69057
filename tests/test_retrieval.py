import hashlib
import json
import re
import sys
import threading
from contextlib import closing
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from hopsynth import retrieval
from hopsynth.retrieval import select_topk
from hopsynth.retrieval import (
    EMBED_BLOCK,
    EmbeddingError,
    FileEmbedder,
    HashEmbedder,
    HttpEmbedder,
    build_flat_index,
    embed,
    per_distinct_text,
    search,
)

from hopsynth.metrics import word_tokens

from oracles import _TOKEN, OracleHashEmbedder, brute_force_search
from synthcorpus import unicode_texts


def small_index():
    return build_flat_index(
        ["doc0", "doc1"],
        [np.array([1.0, 0.0], dtype=np.float32), np.array([0.0, 1.0], dtype=np.float32)],
    )


def test_search_identity():
    index = small_index()
    assert search(index, [np.array([1.0, 0.0], dtype=np.float32)], k=1) == [("doc0",)]


def test_search_ordering_and_k_truncation():
    index = small_index()
    query = np.array([1.0, 0.0], dtype=np.float32)
    assert search(index, [query], k=2) == [("doc0", "doc1")]
    assert search(index, [query], k=10) == [("doc0", "doc1")]
    assert search(index, [query, query[::-1]], k=10) == [("doc0", "doc1"), ("doc1", "doc0")]


def test_search_tie_break_by_doc_id():
    index = build_flat_index(
        ["zeta", "alpha", "mid"],
        [np.array([1.0], dtype=np.float32)] * 3,
    )
    query = np.array([1.0], dtype=np.float32)
    assert search(index, [query], k=3) == [("alpha", "mid", "zeta")]
    assert search(index, [query, query], k=2) == [("alpha", "mid")] * 2


def test_build_validations():
    v = np.zeros(2, dtype=np.float32)
    with pytest.raises(ValueError, match="inhomogeneous"):  # np.asarray's check
        build_flat_index(["a", "b"], [v, np.zeros(3, dtype=np.float32)])
    with pytest.raises(ValueError, match="duplicate"):
        build_flat_index(["a", "a"], [v, v])
    with pytest.raises(ValueError, match="ids but"):
        build_flat_index(["a"], [v, v])
    with pytest.raises(ValueError, match="finite"):
        build_flat_index(["a"], [np.array([np.nan, 0], dtype=np.float32)])
    assert len(build_flat_index(["a", "b"], [v, v])) == 2


def test_search_dim_mismatch():
    for block in (
        [np.zeros(3, dtype=np.float32)],
        np.zeros((64, 3), dtype=np.float32),
        np.zeros(2, dtype=np.float32),  # one vector, not a block of them
        np.zeros((0, 3), dtype=np.float32),  # no vectors, of the wrong dimension
    ):
        with pytest.raises(ValueError, match="dim"):
            search(small_index(), block, k=1)


def test_search_empty_block():
    assert search(small_index(), np.zeros((0, 2), dtype=np.float32), k=3) == []
    assert search(small_index(), np.zeros((0, 2)), k=1) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_search_rejects_non_finite_query(bad):
    for rows in (1, 2, 64):  # a bad entry in any row of a block
        block = np.full((rows, 2), 0.5, dtype=np.float32)
        block[rows // 2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            search(small_index(), block, k=1)


def test_search_matches_brute_force_oracle():
    rng = np.random.default_rng(1234)
    for trial in range(40):
        n = int(rng.integers(1, 1001))
        dim = int(rng.integers(1, 65))
        k = int(rng.integers(1, n + 4))
        ids = [f"doc{idx:04d}" for idx in range(n)]
        matrix = rng.standard_normal((n, dim)).astype(np.float32)
        query = rng.standard_normal(dim).astype(np.float32)
        index = build_flat_index(ids, list(matrix))
        got = search(index, [query], k)[0]
        expected = brute_force_search(list(index.doc_ids), index.matrix, query, k)
        assert list(got) == [e[0] for e in expected]


def _random_matrix(rng, kind, n, d):
    if kind == "quantized":  # exact score ties
        return rng.integers(-2, 3, size=(n, d)).astype(np.float32)
    matrix = rng.standard_normal((n, d)).astype(np.float32)
    if kind == "duplicated":
        matrix[rng.integers(0, n, size=n // 2)] = matrix[rng.integers(0, n, size=n // 2)]
    elif kind == "nudged":
        # copies of a few rows, each entry moved by at most one ulp: near
        # ties whose GEMM and mat-vec orders often differ
        matrix = matrix[rng.integers(0, max(1, n // 4), size=n)]
        step = np.where(rng.random((n, d)) < 0.5, np.inf, -np.inf).astype(np.float32)
        matrix = np.where(rng.random((n, d)) < 0.2, np.nextafter(matrix, step), matrix)
    elif kind == "tiny":  # products underflow to subnormals
        matrix *= np.float32(1e-22)
    elif kind == "huge":  # |q| * max|m| above the overflow guard's 2**126
        matrix *= np.float32(1e19) / np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix


def _random_query(rng, kind, matrix):
    n, d = matrix.shape
    if kind == "zero":
        return np.zeros(d, dtype=np.float32)
    if kind == "quantized":
        return rng.integers(-1, 2, size=d).astype(np.float32)
    if kind == "row":  # a near copy of one row: a clear winner, then near ties
        return matrix[rng.integers(0, n)] + rng.standard_normal(d).astype(np.float32)
    query = rng.standard_normal(d).astype(np.float32)
    return query * np.float32(1.5e19) / np.linalg.norm(query) if kind == "huge" else query


def test_block_search_equals_per_query_matvec(monkeypatch):
    """Block search returns exactly `select_topk(matrix @ q, k)` per query.

    Matrices include duplicated rows and quantized entries (exact ties) and
    rows one ulp apart (near ties), queries include zero and quantized
    vectors, and k may exceed n. Counting the fallbacks shows that both the
    certified GEMM order and the per-query mat-vec run on blocks of two or
    more.
    """
    fallbacks = []
    monkeypatch.setattr(
        retrieval, "select_topk", lambda scores, k: fallbacks.append(k) or select_topk(scores, k)
    )
    rng = np.random.default_rng(20)
    certified = fell_back = 0
    for trial in range(120):
        n, d = int(rng.integers(1, 300)), int(rng.integers(1, 48))
        k = int(rng.integers(1, min(n, 12) + 4))
        matrix_kind = ("gaussian", "quantized", "duplicated", "nudged", "tiny", "huge")[trial % 6]
        matrix = _random_matrix(rng, matrix_kind, n, d)
        index = build_flat_index([f"d{i:03d}" for i in range(n)], list(matrix))
        exact_norms = np.linalg.norm(index.matrix.astype(np.float64), axis=1)
        assert index.row_norm_bound >= exact_norms.max()
        rows = (1, 2, 64)[trial // 6 % 3]
        query_kinds = ("huge",) if matrix_kind == "huge" else (
            "gaussian", "quantized", "row", "zero")
        block = [_random_query(rng, query_kinds[int(rng.integers(0, len(query_kinds)))], matrix)
                 for _ in range(rows)]
        fallbacks.clear()
        got = search(index, block, k)
        expected = [tuple(index.doc_ids[i] for i in select_topk(index.matrix @ q, k))
                    for q in block]
        assert got == expected, (trial, matrix_kind, n, d, k)
        if rows > 1:
            fell_back += len(fallbacks)
            certified += rows - len(fallbacks)
    assert certified > 0 and fell_back > 0, (certified, fell_back)


def test_block_search_reuses_the_index_scratch_across_block_sizes(monkeypatch):
    # one index, blocks that grow and shrink: each block's ids stay the
    # mat-vec's, and a smaller block reuses the buffer of the largest so far
    rng = np.random.default_rng(21)
    matrix = _random_matrix(rng, "quantized", 150, 16)
    index = build_flat_index([f"d{i:03d}" for i in range(150)], list(matrix))
    largest, buffer = 0, None
    for rows in (3, 64, 2, 40, 65, 5):
        block = [_random_query(rng, ("gaussian", "row")[i % 2], matrix) for i in range(rows)]
        expected = [tuple(index.doc_ids[i] for i in select_topk(index.matrix @ q, 5))
                    for q in block]
        assert search(index, block, 5) == expected, rows
        if rows <= largest:
            assert index._scratch[0] is buffer
        largest, (buffer,) = max(largest, rows), index._scratch
        assert buffer.shape == (150 * largest,)

    # the block's scores are an (n, rows) view of the one buffer, at any index width
    for n in (2048, 2049, 8000):
        wide = build_flat_index([f"d{i:05d}" for i in range(n)],
                                np.zeros((n, 1), dtype=np.float32))
        assert wide._block_scratch(64).shape == (n, 64)
        assert wide._block_scratch(3).base is wide._scratch[0]
        assert [b.shape for b in wide._scratch] == [(n * 64,)], n
    # a fresh index over the same rows: the ids stay each query's own
    # mat-vec's, some queries keep the GEMM order, and one buffer grows
    narrow = build_flat_index(index.doc_ids, index.matrix)
    fallbacks = []
    monkeypatch.setattr(
        retrieval, "select_topk", lambda scores, k: fallbacks.append(k) or select_topk(scores, k)
    )
    largest = 0
    for rows in (2, 64, 7, 3, 65, 4):
        block = [_random_query(rng, ("gaussian", "row")[i % 2], matrix) for i in range(rows)]
        expected = [tuple(index.doc_ids[i] for i in select_topk(index.matrix @ q, 5))
                    for q in block]
        fallbacks.clear()
        assert search(narrow, block, 5) == expected, rows
        assert len(fallbacks) < rows  # some queries keep the GEMM order
        largest = max(largest, rows)
        (scores,) = narrow._scratch
        assert scores.shape == (150 * largest,)


def _class_sizes(k):
    """Index sizes just below, at and above multiples of `search`'s column
    class count for k, from 1 up to about 3,000."""
    classes = max(retrieval._CLASSES, k + 1)
    sizes = {1, 2, 3, k, k + 1, k + 2, 2_999, 3_001}
    for multiple in (1, 2, 3, 16, 23):
        sizes |= {multiple * classes - 1, multiple * classes, multiple * classes + 1}
    return sorted(n for n in sizes if 1 <= n <= 3_001)


@pytest.mark.parametrize("k", [1, 7, 150])
def test_block_search_equals_the_matvec_around_class_multiples(monkeypatch, k):
    """Block search equals `select_topk(matrix @ q, k)` per query at index
    sizes around multiples of the column class count, with k >= n at the
    smallest, on quantized and duplicated matrices whose exact ties fall on
    class maxima, in 2- and 64-row blocks."""
    fallbacks = []
    monkeypatch.setattr(
        retrieval, "select_topk", lambda scores, k: fallbacks.append(k) or select_topk(scores, k)
    )
    rng = np.random.default_rng(22 + k)
    queries = fell_back = 0
    for trial, n in enumerate(_class_sizes(k)):
        d = int(rng.integers(2, 12))
        matrix = _random_matrix(rng, ("quantized", "duplicated", "gaussian")[trial % 3], n, d)
        index = build_flat_index([f"d{i:04d}" for i in range(n)], matrix)
        for rows in (2, 64):
            kinds = ("gaussian", "quantized", "row")
            block = [_random_query(rng, kinds[i % 3], matrix) for i in range(rows)]
            fallbacks.clear()
            got = search(index, block, k)
            expected = [tuple(index.doc_ids[i] for i in select_topk(index.matrix @ q, k))
                        for q in block]
            assert got == expected, (n, d, k, rows)
            queries, fell_back = queries + rows, fell_back + len(fallbacks)
    assert 0 < fell_back < queries  # both the GEMM order and the mat-vec ran


def _near_tie_block(rng, n, d):
    """An index of n gaussian rows and n nudged near copies, 64 "row"
    queries, and one long row orthogonal to every query: it scores 0, but it
    widens `|q| * max|m|`, so the global margin rarely holds and the exact
    candidates decide."""
    matrix = np.vstack([_random_matrix(rng, "gaussian", n, d), _random_matrix(rng, "nudged", n, d)])
    block = np.array([_random_query(rng, "row", matrix) for _ in range(64)])
    long_row = np.zeros((1, d + 1), dtype=np.float32)
    long_row[0, d] = 1e5
    matrix = np.vstack([np.hstack([matrix, np.zeros((2 * n, 1), dtype=np.float32)]), long_row])
    return matrix, np.hstack([block, np.zeros((64, 1), dtype=np.float32)])


def test_exact_candidates_certify_near_ties_beyond_the_kth(monkeypatch):
    """On near-tie blocks the ids stay each query's own mat-vec's with K = k+1
    and K = k+5 candidates, and K = k+5 sends fewer queries to the mat-vec.
    More candidates only add conditions to rules (i) and (ii), so the
    queries it certifies in addition are the ones rule (iii), the bound on
    every row outside the candidates, decides."""
    fallbacks = []
    monkeypatch.setattr(
        retrieval, "select_topk", lambda scores, k: fallbacks.append(k) or select_topk(scores, k)
    )
    fell_back = {}
    for spare in (1, 5):
        monkeypatch.setattr(retrieval, "_SPARE", spare)
        rng = np.random.default_rng(26)
        fallbacks.clear()
        queries = 0
        for n, d, k in ((150, 8, 1), (150, 16, 3), (500, 16, 3), (500, 16, 7)):
            matrix, block = _near_tie_block(rng, n, d)
            index = build_flat_index([f"d{i:04d}" for i in range(len(matrix))], matrix)
            expected = [tuple(index.doc_ids[i] for i in select_topk(index.matrix @ q, k))
                        for q in block]
            queries += len(block)
            assert search(index, block, k) == expected, (spare, n, d, k)
        fell_back[spare] = len(fallbacks)
    assert 0 < fell_back[5] < fell_back[1] < queries, fell_back


def test_best_columns_rank_by_score_then_column():
    # tie-heavy rows, given to the selection in its (n, rows) layout: the
    # values are exactly the best scores of the whole row, and the columns
    # are a stable argsort's, ties included
    rng = np.random.default_rng(24)
    for trial in range(60):
        rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 1_200))
        ranked = min(n, int(rng.integers(1, 140)))
        scores = rng.integers(-4, 5, size=(rows, n)).astype(np.float32)
        if trial % 2:
            scores += rng.standard_normal((rows, n)).astype(np.float32)
        cols, top = retrieval._best_columns(np.ascontiguousarray(scores.T), ranked)
        stable = np.argsort(-scores, axis=1, kind="stable")[:, :ranked]
        assert np.array_equal(top, np.take_along_axis(scores, stable, axis=1)), trial
        assert np.array_equal(np.take_along_axis(scores, cols, axis=1), top), trial
        above = top > top[:, -1:]
        assert np.array_equal(cols[above], stable[above]), trial
        assert np.array_equal(cols, stable), trial
        assert all(len(set(row)) == ranked for row in cols.tolist())


def test_kernels_agree_including_ties():
    def reference(scores, k):
        return np.argsort(-scores, kind="stable")[:k]

    rng = np.random.default_rng(7)
    cases = []
    for _ in range(200):
        n = int(rng.integers(1, 400))
        # quantized scores force plenty of exact ties; k may exceed n
        cases.append((rng.integers(0, 5, size=n).astype(np.float32), int(rng.integers(1, n + 3))))
    for k in (1, 3):
        cases.append((np.array([0.25], dtype=np.float32), k))  # n == 1
        cases.append((np.full(9, 0.5, dtype=np.float32), k))  # all scores equal
        cases.append((np.array([0.0, -0.0, 0.0, -1.0, -0.0], dtype=np.float32), k))
    for n in (5, 8):
        cases.append((rng.standard_normal(n).astype(np.float32), n))  # k == n
    for scores, k in cases:
        assert np.array_equal(select_topk(scores, k), reference(scores, k)), (scores, k)


def test_scale_equivariant_ranking():
    rng = np.random.default_rng(99)
    matrix = rng.standard_normal((50, 8)).astype(np.float32)
    index = build_flat_index([f"d{i}" for i in range(50)], list(matrix))
    query = rng.standard_normal(8).astype(np.float32)
    base = search(index, [query], 10)[0]
    for c in (0.5, 3.0, 17.0):
        scaled = search(index, [(c * query).astype(np.float32)], 10)[0]
        assert scaled == base


def test_hash_embedder_deterministic_and_token_driven():
    provider = HashEmbedder(dim=64)
    first, second = embed(provider, ["same text"]), embed(provider, ["same text"])
    assert np.array_equal(first[0], second[0])
    vecs = embed(provider, ["alpha beta gamma", "alpha beta gamma", "unrelated words entirely"])
    assert np.array_equal(vecs[0], vecs[1])
    sim_same = float(vecs[0] @ vecs[1])
    sim_diff = float(vecs[0] @ vecs[2])
    assert sim_same == pytest.approx(1.0, abs=1e-5)
    assert sim_diff < 0.5


@pytest.mark.parametrize("dim", [8, 64, 256])
def test_hash_embedder_matches_the_reference_byte_for_byte(dim):
    texts = unicode_texts(dim, 2_000)
    got = HashEmbedder(dim)(texts)
    expected = OracleHashEmbedder(dim)(texts)
    assert all(v.dtype == np.float32 and v.shape == (dim,) for v in got)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in expected]
    assert not got[0].any()  # the empty text embeds as zeros
    assert embed(HashEmbedder(dim), texts).tobytes() == np.vstack(expected).tobytes()


def test_hash_embedder_block_of_mixed_shapes_matches_the_reference():
    wide = " ".join(f"w{i}" for i in range(200))  # 200 distinct tokens
    block = ["", wide, "one", "_ __", "", "Two two TWO", "x", "__ , …", wide.upper()]
    later = ["one new", "", "w7 W199 fresh tokens", "_"]  # new tokens on a warm table
    provider, reference = HashEmbedder(32), OracleHashEmbedder(32)
    for texts in (block, later):
        got = provider(texts)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in reference(texts)]
    assert not any(v.any() for v in provider(["", "_ __", "__ , …"]))
    assert HashEmbedder(32)([]) == []


def test_hash_embedder_vectors_do_not_depend_on_call_history():
    texts = unicode_texts(5, 300)
    fresh = [HashEmbedder(64)([text])[0].tobytes() for text in texts]
    assert [v.tobytes() for v in HashEmbedder(64)(texts)] == fresh
    assert [v.tobytes() for v in HashEmbedder(64)(texts[::-1])][::-1] == fresh
    primed = HashEmbedder(64)
    primed(unicode_texts(6, 300))
    assert [v.tobytes() for v in primed(texts)] == fresh
    assert [primed([text])[0].tobytes() for text in texts[::-1]][::-1] == fresh


def _sha_seed(token):
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


def test_derived_states_equal_numpy_pcg64_states():
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    drawn = np.random.default_rng(23).integers(0, 2**64, size=10_000, dtype=np.uint64)
    seeds = np.concatenate([np.array(edges, dtype=np.uint64), drawn])
    words = retrieval._seed_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for seed, seed_words in zip(seeds.tolist(), words.tolist()):
        assert retrieval._pcg64_state(seed_words) == np.random.PCG64(seed).state, seed


@pytest.mark.parametrize("dim", [1, 8, 256])
def test_token_vectors_are_default_rng_draws(dim):
    tokens = sorted({t.lower() for text in unicode_texts(dim, 200) for t in word_tokens(text)})
    provider = HashEmbedder(dim)
    provider._add_tokens(tokens)
    bits = np.random.PCG64()
    words = retrieval._seed_words(np.array([_sha_seed(t) for t in tokens], dtype=np.uint64))
    for token, token_words in zip(tokens, words):
        draw = np.random.default_rng(_sha_seed(token)).standard_normal(dim)
        bits.state = retrieval._pcg64_state(token_words.tolist())
        assert np.random.Generator(bits).standard_normal(dim).tobytes() == draw.tobytes()
        vector = draw.astype(np.float32)
        vector /= np.linalg.norm(vector)
        assert provider._table[provider._rows[token]].tobytes() == vector.tobytes(), token


@pytest.mark.parametrize("constant, wrong", [
    ("_SS_MIX_L", 0xCA01F9DC), ("_SS_MULT_B", 0x58F38DEF), ("_PCG_MULT", 3),
])
def test_hash_embedder_refuses_a_seeding_that_differs_from_numpy(monkeypatch, constant, wrong):
    provider = HashEmbedder(8)
    monkeypatch.setattr(retrieval, constant, wrong)
    with pytest.raises(RuntimeError, match="PCG64 seeding"):
        provider(["alpha beta"])
    assert not provider._rows and provider._table.shape == (0, 8)
    monkeypatch.undo()
    assert [v.tobytes() for v in provider(["alpha beta"])] == [
        v.tobytes() for v in OracleHashEmbedder(8)(["alpha beta"])]


def test_word_tokens_are_the_tokens_holding_an_alphanumeric():
    for text in unicode_texts(4, 500):
        assert word_tokens(text) == [t for t in _TOKEN.findall(text) if any(c.isalnum() for c in t)]


def test_word_class_is_exactly_alphanumeric_or_underscore():
    # word_tokens relies on this to filter with `strip("_")`
    word = re.compile(r"\w")
    assert [cp for cp in range(sys.maxunicode + 1)
            if bool(word.match(chr(cp))) != (chr(cp).isalnum() or cp == 0x5F)] == []


def test_embed_order_preserved_file_backend(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        json.dumps({"text": "x", "vector": [1.0, 0.0]}) + "\n"
        + json.dumps({"text": "b", "vector": [0.0, 1.0]}) + "\n"
        + json.dumps({"text": "a", "vector": [0.5, 0.5]}) + "\n"
    )
    provider = FileEmbedder(path)
    got = embed(provider, ["x"])
    assert got[0].tolist() == [1.0, 0.0]
    got = embed(provider, ["b", "a"])
    assert got[0].tolist() == [0.0, 1.0]
    assert got[1].tolist() == [0.5, 0.5]


class BlockRecorder:
    """HashEmbedder that records each call's texts; it can fail on one call or
    answer one call with vectors of another dimension."""

    def __init__(self, fail_call=None, odd_call=None, odd_dim=9):
        self.inner = HashEmbedder(dim=8)
        self.calls: list[list[str]] = []
        self.fail_call, self.odd_call, self.odd_dim = fail_call, odd_call, odd_dim

    def __call__(self, texts):
        self.calls.append(list(texts))
        if len(self.calls) == self.fail_call:
            raise EmbeddingError("endpoint down")
        if len(self.calls) == self.odd_call:
            return HashEmbedder(dim=self.odd_dim)(texts)
        return self.inner(texts)


def test_embed_fills_one_matrix_block_by_block():
    assert EMBED_BLOCK == 64
    texts = [f"text{i} shared{i % 5}" for i in range(2 * EMBED_BLOCK + 1)]
    provider = BlockRecorder()
    matrix = embed(provider, texts)
    assert [len(call) for call in provider.calls] == [64, 64, 1]
    assert [text for call in provider.calls for text in call] == texts
    reference = np.vstack([HashEmbedder(dim=8)([text])[0] for text in texts])
    assert matrix.dtype == np.float32 and matrix.shape == (len(texts), 8)
    assert matrix.tobytes() == reference.tobytes()


def test_embed_failure_in_a_later_block_raises():
    provider = BlockRecorder(fail_call=2)
    with pytest.raises(EmbeddingError, match="endpoint down"):
        embed(provider, [f"t{i}" for i in range(2 * EMBED_BLOCK + 1)])
    assert len(provider.calls) == 2  # no block after the failed one is asked for


def test_per_distinct_text_calls_the_client_once_per_distinct_text():
    calls = []

    def client(block):
        calls.append(block)
        return [text.upper() for text in block]

    # 320 texts, 129 distinct, first seen in neither sorted nor input-index order
    texts = [f"t{i % (2 * EMBED_BLOCK + 1)}" for i in reversed(range(5 * EMBED_BLOCK))]
    distinct = list(dict.fromkeys(texts))
    results = per_distinct_text(client, texts)
    assert list(results) == distinct != sorted(distinct)
    assert results == {text: text.upper() for text in distinct}
    assert [len(block) for block in calls] == [EMBED_BLOCK, EMBED_BLOCK, 1]
    assert [text for block in calls for text in block] == distinct
    calls.clear()
    assert per_distinct_text(client, []) == {} and calls == []


@pytest.mark.parametrize("wrong", [lambda block: block[1:], lambda block: block + ["extra"]],
                         ids=["too_few", "too_many"])
def test_per_distinct_text_rejects_a_wrong_result_count(wrong):
    with pytest.raises(ValueError):
        per_distinct_text(wrong, ["a", "b", "a"])


def _one_odd_vector(texts):
    return HashEmbedder(dim=8)(texts[:-1]) + [np.zeros(9, np.float32)]


def _matrices(texts):
    return [np.zeros((2, 4), np.float32) for _ in texts]


@pytest.mark.parametrize("make_provider,texts", [
    (lambda: BlockRecorder(odd_call=2), 2 * EMBED_BLOCK),
    (lambda: _one_odd_vector, 3),
    (lambda: _matrices, 2),
], ids=["across_blocks", "within_block", "not_vectors"])
def test_embed_rejects_mixed_dims(make_provider, texts):
    with pytest.raises(EmbeddingError, match="embedding dims") as raised:
        embed(make_provider(), [f"t{i}" for i in range(texts)])
    assert isinstance(raised.value, ValueError)


def test_embed_rejects_a_wrong_vector_count():
    with pytest.raises(EmbeddingError, match="wrong number"):
        embed(lambda texts: HashEmbedder(dim=8)(texts)[1:], ["a", "b"])


def test_build_flat_index_takes_the_matrix_as_it_is():
    matrix = embed(HashEmbedder(dim=8), ["alpha", "beta", "gamma"])
    index = build_flat_index(["a", "b", "c"], matrix)
    assert index.matrix is matrix and not matrix.flags.writeable
    assert index.doc_ids == ("a", "b", "c") and index.dim == 8
    shuffled = build_flat_index(["c", "a", "b"], matrix)
    assert shuffled.doc_ids == ("a", "b", "c")
    assert shuffled.matrix.tobytes() == matrix[[1, 2, 0]].tobytes()


def test_file_backend_refuses_a_bad_vector_at_load(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps({"text": "x", "vector": [1.0]}) + "\n\n"
                    + json.dumps({"text": "y", "vector": [1e39]}) + "\n")
    with pytest.raises(EmbeddingError, match=re.escape(f"{path}:3: vector [1e+39] is not a list")):
        FileEmbedder(path)


@pytest.mark.parametrize("line, message", [
    ("{bad", "invalid JSON (Expecting property name enclosed in double quotes at column 2)"),
    ('["y", [1.0]]', "not a JSON object"),
    ('{"text": "y"}', "missing field 'vector'"),
    ('{"vector": [1.0]}', "missing field 'text'"),
    ('{"text": ["y"], "vector": [1.0]}', "text ['y'] is not a string"),
], ids=["invalid-json", "not-an-object", "no-vector", "no-text", "text-list"])
def test_file_backend_every_bad_line_raises_embedding_error(tmp_path, line, message):
    # an invalid JSON line used to raise a bare ValueError
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps({"text": "x", "vector": [1.0]}) + "\n" + line + "\n")
    with pytest.raises(EmbeddingError) as raised:
        FileEmbedder(path)
    assert str(raised.value) == f"{path}:2: {message}"


def test_file_backend_missing_key(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps({"text": "x", "vector": [1.0]}) + "\n")
    with pytest.raises(EmbeddingError, match="no precomputed"):
        embed(FileEmbedder(path), ["y"])


class _EmbedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        assert self.path == "/v1/embeddings"
        vectors = [[float(len(t)), 1.0] for t in body["texts"]]
        data = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_http_embedder_wire_format():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True).start()
    try:
        with closing(HttpEmbedder(f"http://127.0.0.1:{server.server_port}")) as provider:
            got = embed(provider, ["abc", "de"])
        assert got[0].tolist() == [3.0, 1.0]
        assert got[1].tolist() == [2.0, 1.0]
    finally:
        server.shutdown()
        server.server_close()


class ReplySession:
    """A session whose endpoint answers every request with one payload."""

    def __init__(self, payload):
        self.payload = payload
        self.requests = 0

    def post(self, path, body):
        self.requests += 1
        return self.payload


@pytest.mark.parametrize("vectors", [
    [["x"]], [[None, 1.0]], [[[1.0], [2.0]]], [[1.0], [[1.0], [2.0, 3.0]]], [["1.5"]],
    [[True]], [[1.0, float("nan")]], [[float("inf")]], [[1e39]], [2.0], [{"v": 1.0}],
], ids=["string", "null", "nested", "ragged", "numeric_string", "bool", "nan", "inf",
        "float32_overflow", "not_a_list", "object"])
def test_http_embedder_rejects_entries_that_are_not_finite_numbers(vectors):
    session = ReplySession({"vectors": vectors})
    provider = HttpEmbedder("http://127.0.0.1:9", session=session)
    with pytest.raises(EmbeddingError, match="bad embedding payload"):
        provider([f"t{i}" for i in range(len(vectors))])
    assert session.requests == 1  # a bad payload is not retried


def test_http_embedder_reads_integers_and_floats():
    session = ReplySession({"vectors": [[1, -2.5, 0], [2 ** 40, 1e-3, 3]]})
    got = HttpEmbedder("http://127.0.0.1:9", session=session)(["a", "b"])
    assert [v.dtype for v in got] == [np.float32] * 2
    assert [v.tolist() for v in got] == [[1.0, -2.5, 0.0], [2.0 ** 40, float(np.float32(1e-3)), 3.0]]


def test_http_embedder_failure():
    provider = HttpEmbedder("http://127.0.0.1:1", timeout=0.2)
    with pytest.raises(EmbeddingError):
        embed(provider, ["x"])
