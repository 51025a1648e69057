"""`numba_enabled`, which perfbench/run.py imports and records. There is no
numba kernel, so it is always False; top-k selection is
`retrieval.select_topk`."""


def numba_enabled() -> bool:
    return False
