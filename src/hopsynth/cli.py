"""Command-line entry points.

Stage commands (ingest, pair, gen-questions, filter-answers, gen-queries,
verify, emit) read and write JSONL so a run can stop and resume anywhere;
run-all chains them. stats prints the dataset summary, eval runs the
retrieval-episode harness. Exit codes: 0 success; 1 usage error (an unknown
command or flag, or a missing argument); 2 a bad config key or value, from a
file line or a flag, a bad input file line (`jsonl.InputError`, reported as
one `error:` line), or a runtime failure (logged with its traceback). All
randomness hangs off --seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import ExitStack
from pathlib import Path

from . import pipeline
from .config import (
    ConfigError,
    PipelineConfig,
    build_backend,
    build_embedder,
    build_examples,
    build_recognizer,
    parse_config_file,
    set_config_key,
)
from .corpus import serialize_store
from .emitter import dataset_stats, format_stats_report, read_jsonl, write_jsonl
from .jsonl import InputError, read_numbered_rows, refuse_multiline, write_rows
from .pairing import HYPER
from .promptkit import TASK_FEVER, TASK_MQA

# Config flags: flag -> (the config keys it sets, help, the commands that take
# it; none means every command, with the flag before it). set_config_key
# parses and checks a flag's value as it does a config file line.
_CONFIG_FLAGS = {
    "--seed": (("seed",), "master random seed (an integer)", ()),
    "--workers": (("workers",), "ignored; kept so old command lines parse", ()),
    "--task": (("task",), "synthesis task: mqa or fever", ()),
    "--backend": (("backend.kind",), "completion backend: mock or http", ()),
    "--embeddings": (("embeddings.kind",), "embedding provider: mock, file or http", ()),
    "--examples": (("examples",), "few-shot example store (JSONL)", ()),
    "--k": (("verify.k", "eval.k"), "retrieval depth (>= 1)", ("verify", "eval", "run-all")),
    "--dev-size": (("dev_size",), "dev split size (>= 0)", ("emit", "run-all")),
}

_PATH_HELP = {"--store": "ingested store JSONL", "--corpus": "evaluation corpus JSONL"}

# stage name -> the clients the stage takes, each keyword with what builds it;
# fever's pair stage draws labels, not entities, so it builds no recognizer
_STAGE_CLIENTS = {
    "pair": {"recognizer": lambda config: build_recognizer(config) if config.task == TASK_MQA
             else None},
    "questions": {"backend": build_backend, "recognizer": build_recognizer,
                  "examples": build_examples},
    "filter_answers": {"backend": build_backend, "examples": build_examples},
    "queries": {"backend": build_backend, "examples": build_examples},
    "verify": {"provider": build_embedder},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="hopsynth", description=__doc__.split("\n")[0])
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command")
    commands = {}

    def add_command(name, help_text, *paths):
        commands[name] = sub.add_parser(name, help=help_text)
        for flag in paths:  # --in sets args.in_path, --store args.store_path, ...
            commands[name].add_argument(
                flag, dest=f"{flag[2:]}_path", required=True, help=_PATH_HELP.get(flag)
            )

    add_command("ingest", "parse a corpus file into a store", "--in", "--out")
    # a stage command reads --store and writes --out; one that reads rows takes --in
    for command, _, help_text, fields in pipeline.STAGES:
        add_command(command, help_text, "--store", *(() if fields is None else ("--in",)), "--out")
    commands["verify"].add_argument("--report", help="write drop counters to this JSON file")
    add_command("emit", "split train/dev", "--in", "--out")
    add_command("stats", "print dataset statistics", "--in")
    add_command("eval", "run the retrieval-episode evaluation", "--in", "--out", "--corpus")
    add_command("run-all", "full synthesis pipeline", "--in", "--out")
    for flag, (_, help_text, names) in _CONFIG_FLAGS.items():
        for target in [commands[name] for name in names] or [parser]:
            target.add_argument(flag, help=help_text)
    return parser


def _configure(args) -> PipelineConfig:
    config = PipelineConfig()
    if args.config:
        config = parse_config_file(args.config, config)
    for flag, (keys, _, _) in _CONFIG_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's dest
        if value is not None:
            for key in keys:
                set_config_key(config, key, value, where=flag)
    return config


def _stage_rows(args, name, fields, store, task) -> list[dict]:
    """The rows of --in, read with the checks of the `fields` stage `name`
    reads (its `pipeline.STAGES` entry) and of a d1 and d2 that name
    documents of the store; under fever, whose pairs are hyper only, a
    relation must be hyper. A row is refused as well, before the stage
    runs, when its question, answer or final_answer spans lines, as every
    prompt takes them on one line, or when it is a verify row that is
    single-hop but names no document that answers alone."""
    in_store = (lambda value: isinstance(value, str) and value in store.documents,
                f"a document of the store {args.store_path}")
    fields = {"d1": in_store, "d2": in_store, **fields}
    if task == TASK_FEVER:
        fields["relation"] = (lambda value: value == HYPER, f"{HYPER!r}, the one fever relation")
    rows = []
    for line_no, row in read_numbered_rows(args.in_path, fields=fields):
        where = f"{args.in_path}:{line_no}"
        refuse_multiline(row, [f for f in ("question", "answer", "final_answer") if f in fields],
                         where)
        if name == "verify" and row["hops"] == "one" and (
                set(row["answerable_in"]) <= {"both"}):
            raise InputError(f"{where}: hops 'one' but answerable_in "
                             f"{row['answerable_in']!r} names no document that answers alone")
        rows.append(row)
    return rows


def _write_json(value, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, indent=2) + "\n")


def run_command(args) -> int:
    config = _configure(args)
    command = args.command

    if command == "ingest":
        count = serialize_store(pipeline.build_store(args.in_path, config), args.out_path)
        print(f"ingested {count} documents -> {args.out_path}")
        return 0

    stages = {stage_command: rest for stage_command, *rest in pipeline.STAGES}
    if command in stages:
        name, _, fields = stages[command]
        # as in run-all, the clients (and the files the config names) are
        # built and checked before the inputs are read, and closed at the end
        with ExitStack() as built:
            clients = {key: pipeline.own(built, build(config))
                       for key, build in _STAGE_CLIENTS[name].items()}
            store = pipeline.build_store(args.store_path, config)
            inputs = () if fields is None else (
                _stage_rows(args, name, fields, store, config.task),)
            rows, counters = getattr(pipeline, f"stage_{name}")(store, *inputs, config, **clients)
        (write_jsonl if name == "verify" else write_rows)(rows, args.out_path)
        if name == "verify" and args.report:
            _write_json(counters, args.report)
        print(json.dumps({"counters": counters}), file=sys.stderr)
        return 0

    if command == "emit":
        train, dev = pipeline.write_splits(read_jsonl(args.in_path), args.out_path, config)
        print(f"train={len(train)} dev={len(dev)} -> {Path(args.out_path)}")
        return 0

    if command == "stats":
        instances = read_jsonl(args.in_path)
        print(format_stats_report(dataset_stats(instances)))
        return 0

    if command == "eval":
        report = pipeline.run_eval(args.in_path, args.corpus_path, config)
        _write_json(report, args.out_path)
        headline = {key: value for key, value in report.items() if key != "items"}
        print(json.dumps(headline))
        return 0

    if command == "run-all":
        report = pipeline.run_all(args.in_path, args.out_path, config)
        _write_json(report, Path(args.out_path, "report.json"))
        print(json.dumps({k: report[k] for k in ("task", "counters", "conserved")}))
        return 0

    raise _UsageError(f"missing or unknown subcommand: {command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    logging.basicConfig(level=logging.WARNING)
    try:
        return run_command(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, FileNotFoundError, InputError) as exc:  # no traceback for bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures exit 2 per contract
        logging.getLogger(__name__).exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
