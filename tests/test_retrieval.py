import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from hopsynth._kernels import select_topk
from hopsynth.retrieval import (
    EmbeddingError,
    FileEmbedder,
    HashEmbedder,
    HttpEmbedder,
    ScoredDoc,
    build_flat_index,
    embed,
    search,
)

from oracles import brute_force_search


def small_index():
    return build_flat_index(
        ["doc0", "doc1"],
        [np.array([1.0, 0.0], dtype=np.float32), np.array([0.0, 1.0], dtype=np.float32)],
    )


def test_search_identity():
    index = small_index()
    got = search(index, np.array([1.0, 0.0], dtype=np.float32), k=1)
    assert got == [ScoredDoc("doc0", 1.0)]


def test_search_ordering_and_k_truncation():
    index = small_index()
    got = search(index, np.array([1.0, 0.0], dtype=np.float32), k=2)
    assert got == [ScoredDoc("doc0", 1.0), ScoredDoc("doc1", 0.0)]
    assert search(index, np.array([1.0, 0.0], dtype=np.float32), k=10) == got


def test_search_tie_break_by_doc_id():
    index = build_flat_index(
        ["zeta", "alpha", "mid"],
        [np.array([1.0], dtype=np.float32)] * 3,
    )
    got = search(index, np.array([1.0], dtype=np.float32), k=3)
    assert [s.doc_id for s in got] == ["alpha", "mid", "zeta"]


def test_build_validations():
    v = np.zeros(2, dtype=np.float32)
    with pytest.raises(ValueError, match="mixed embedding dims"):
        build_flat_index(["a", "b"], [v, np.zeros(3, dtype=np.float32)])
    with pytest.raises(ValueError, match="duplicate"):
        build_flat_index(["a", "a"], [v, v])
    with pytest.raises(ValueError, match="ids but"):
        build_flat_index(["a"], [v, v])
    with pytest.raises(ValueError, match="finite"):
        build_flat_index(["a"], [np.array([np.nan, 0], dtype=np.float32)])
    assert len(build_flat_index(["a", "b"], [v, v])) == 2


def test_search_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        search(small_index(), np.zeros(3, dtype=np.float32), k=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_search_rejects_non_finite_query(bad):
    with pytest.raises(ValueError, match="finite"):
        search(small_index(), np.array([0.5, bad], dtype=np.float32), k=1)


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
        got = search(index, query, k)
        expected = brute_force_search(list(index.doc_ids), index.matrix, query, k)
        assert [g.doc_id for g in got] == [e[0] for e in expected]
        for g, e in zip(got, expected):
            assert g.score == pytest.approx(e[1], rel=1e-5)


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
    base = [s.doc_id for s in search(index, query, 10)]
    for c in (0.5, 3.0, 17.0):
        scaled = [s.doc_id for s in search(index, (c * query).astype(np.float32), 10)]
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
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        provider = HttpEmbedder(f"http://127.0.0.1:{server.server_port}")
        got = embed(provider, ["abc", "de"])
        assert got[0].tolist() == [3.0, 1.0]
        assert got[1].tolist() == [2.0, 1.0]
    finally:
        server.shutdown()


def test_http_embedder_failure():
    provider = HttpEmbedder("http://127.0.0.1:1", timeout=0.2)
    with pytest.raises(EmbeddingError):
        embed(provider, ["x"])
