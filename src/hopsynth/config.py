"""Pipeline configuration: a flat key=value file plus flag overrides.

Example config file:

    corpus.max_doc_tokens = 100
    pairing.pairs_per_document = 4
    filter.f1_threshold = 0.70
    verify.k = 7
    backend.kind = mock
    embeddings.kind = mock
    recognizer.kind = heuristic

A key is a scalar field of `PipelineConfig` (`seed`) or `section.name` for a
scalar field of one of its dataclass sections (`verify.k`); any other key is
rejected so typos fail loudly, and every value is checked when it is set by
the `__post_init__` of the object that owns it. Command-line flags set the
same keys and override file values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

from .corpus import CorpusConfig, TopicsConfig
from .entities import HeuristicRecognizer, HttpRecognizer
from .evalharness import EvalConfig
from .genbackend import HttpBackend, MockBackend
from .httpjson import check_endpoint
from .jsonl import read_text
from .mockllm import GoldScriptRule, SyntheticPipelineRule
from .pairing import PairingConfig
from .promptkit import load_examples
from .retrieval import FileEmbedder, HashEmbedder, HttpEmbedder
from .synthesis import TASK_FEVER, TASK_MQA, FilterConfig
from .verification import VerifyConfig


class ConfigError(ValueError):
    pass


def _check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} {value!r} is not one of {', '.join(choices)}")


@dataclass
class BackendSpec:
    kind: str = "mock"  # mock | http
    endpoint: Optional[str] = None
    mock_script: Optional[str] = None  # JSON file for GoldScriptRule

    def __post_init__(self):
        _check_choice("kind", self.kind, ("mock", "http"))
        if self.endpoint:  # empty, as `key =` sets it, is unset
            check_endpoint(self.endpoint)


@dataclass
class EmbeddingsSpec:
    kind: str = "mock"  # mock | file | http
    endpoint: Optional[str] = None
    file: Optional[str] = None
    dim: int = 256

    def __post_init__(self):
        _check_choice("kind", self.kind, ("mock", "file", "http"))
        if self.endpoint:
            check_endpoint(self.endpoint)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass
class RecognizerSpec:
    kind: str = "heuristic"  # heuristic | http
    endpoint: Optional[str] = None

    def __post_init__(self):
        _check_choice("kind", self.kind, ("heuristic", "http"))
        if self.endpoint:
            check_endpoint(self.endpoint)


@dataclass
class PipelineConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    pairing: PairingConfig = field(default_factory=PairingConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    backend: BackendSpec = field(default_factory=BackendSpec)
    embeddings: EmbeddingsSpec = field(default_factory=EmbeddingsSpec)
    recognizer: RecognizerSpec = field(default_factory=RecognizerSpec)
    topics: TopicsConfig = field(default_factory=TopicsConfig)
    task: str = "mqa"
    seed: int = 0
    workers: int = 0  # ignored: stages run serially; kept so old configs load
    dev_size: int = 5000
    examples: Optional[str] = None  # few-shot example store (JSONL)

    def __post_init__(self):
        _check_choice("task", self.task, (TASK_MQA, TASK_FEVER))
        if self.dev_size < 0:
            raise ValueError("dev_size must be >= 0")


def _config_keys(config: PipelineConfig) -> dict[str, tuple[object, str]]:
    """Every key, mapped to the object that owns it and its field name."""
    keys: dict[str, tuple[object, str]] = {}
    for outer in fields(config):
        section = getattr(config, outer.name)
        if is_dataclass(section):  # sections hold only scalar fields
            keys.update({f"{outer.name}.{f.name}": (section, f.name) for f in fields(section)})
        else:
            keys[outer.name] = (config, outer.name)
    return keys


def _coerce(current, raw: str):
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw


def parse_config_file(path: str | Path, config: Optional[PipelineConfig] = None) -> PipelineConfig:
    config = config or PipelineConfig()
    for line_no, raw in enumerate(read_text(path, ConfigError).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        set_config_key(config, key, value, where=f"{path}:{line_no}")
    return config


def set_config_key(config: PipelineConfig, key: str, value: str, where: str = "override") -> None:
    """Set one key from its text value; `where` names the file line or flag.

    The key's owner (the config or one of its sections) is first rebuilt
    with `dataclasses.replace`, so its own checks run on the new value; a
    value that fails them (or does not parse) raises ConfigError.
    """
    keys = _config_keys(config)
    if key not in keys:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    owner, attr = keys[key]
    current = getattr(owner, attr)
    try:
        coerced = _coerce(current if current is not None else "", value)
        replace(owner, **{attr: coerced})
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    setattr(owner, attr, coerced)


def build_backend(config: PipelineConfig):
    spec = config.backend
    if spec.kind == "http":
        if not spec.endpoint:
            raise ConfigError("backend.kind=http requires backend.endpoint")
        return HttpBackend(spec.endpoint)
    if spec.mock_script:
        return MockBackend(rule=GoldScriptRule.from_file(spec.mock_script))
    return MockBackend(rule=SyntheticPipelineRule())


def build_examples(config: PipelineConfig):
    return load_examples(config.examples) if config.examples else None


def build_embedder(config: PipelineConfig):
    spec = config.embeddings
    if spec.kind == "mock":
        return HashEmbedder(dim=spec.dim)
    if spec.kind == "file":
        if not spec.file:
            raise ConfigError("embeddings.kind=file requires embeddings.file")
        return FileEmbedder(spec.file)
    if not spec.endpoint:
        raise ConfigError("embeddings.kind=http requires embeddings.endpoint")
    return HttpEmbedder(spec.endpoint)


def build_recognizer(config: PipelineConfig):
    spec = config.recognizer
    if spec.kind == "heuristic":
        return HeuristicRecognizer()
    if not spec.endpoint:
        raise ConfigError("recognizer.kind=http requires recognizer.endpoint")
    return HttpRecognizer(spec.endpoint)
