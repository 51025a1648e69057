import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def sleeps(monkeypatch):
    """Backoff sleeps taken by the retry loop, recorded instead of slept."""
    from hopsynth import httpjson

    taken = []
    monkeypatch.setattr(httpjson.time, "sleep", taken.append)
    return taken
