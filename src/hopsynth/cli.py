"""Command-line entry points.

Stage commands (ingest, pair, gen-questions, filter-answers, gen-queries,
verify, emit) read and write JSONL so a run can stop and resume anywhere;
run-all chains them. stats prints the dataset summary, eval runs the
retrieval-episode harness. Exit codes: 0 success, 1 usage error, 2 runtime
failure. All randomness hangs off --seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import pipeline
from .config import ConfigError, PipelineConfig, parse_config_file, set_config_key
from .emitter import (
    dataset_stats,
    format_stats_report,
    read_jsonl,
    read_rows,
    write_jsonl,
    write_rows,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="hopsynth", description=__doc__.split("\n")[0])
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--workers", type=int, help="ignored; kept so old command lines parse")
    parser.add_argument("--task", choices=["mqa", "fever"], help="synthesis task")
    parser.add_argument("--backend", choices=["http", "mock"], help="completion backend")
    parser.add_argument(
        "--embeddings", choices=["http", "file", "mock"], help="embedding provider"
    )
    parser.add_argument("--examples", help="few-shot example store (JSONL)")
    sub = parser.add_subparsers(dest="command")

    def stage(name, help_text, needs_in=True, needs_out=True):
        cmd = sub.add_parser(name, help=help_text)
        if needs_in:
            cmd.add_argument("--in", dest="in_path", required=True)
        if needs_out:
            cmd.add_argument("--out", dest="out_path", required=True)
        return cmd

    stage("ingest", "parse a corpus file into a store")
    stage("pair", "sample document pairs with prepared answers", needs_in=False).add_argument(
        "--store", required=True, help="ingested store JSONL"
    )
    stage("gen-questions", "generate questions/claims and entity-filter them").add_argument(
        "--store", required=True
    )
    stage("filter-answers", "answerability and hop classification").add_argument(
        "--store", required=True
    )
    stage("gen-queries", "generate query candidates").add_argument("--store", required=True)
    verify = stage("verify", "verify queries and assemble instances")
    verify.add_argument("--store", required=True)
    verify.add_argument("--k", type=int, help="retrieval depth")
    verify.add_argument("--report", help="write drop counters to this JSON file")
    emit = stage("emit", "split train/dev")
    emit.add_argument("--dev-size", type=int, help="dev split size")
    stage("stats", "print dataset statistics", needs_out=False)
    ev = stage("eval", "run the retrieval-episode evaluation")
    ev.add_argument("--corpus", required=True, help="evaluation corpus JSONL")
    ev.add_argument("--k", type=int, help="retrieval depth")
    run = stage("run-all", "full synthesis pipeline")
    run.add_argument("--k", type=int, help="retrieval depth")
    run.add_argument("--dev-size", type=int, help="dev split size")
    return parser


def _configure(args) -> PipelineConfig:
    config = PipelineConfig()
    if args.config:
        config = parse_config_file(args.config, config)
    k, dev_size = getattr(args, "k", None), getattr(args, "dev_size", None)
    overrides = (
        ("--seed", "seed", args.seed),
        ("--task", "task", args.task),
        ("--backend", "backend.kind", args.backend),
        ("--embeddings", "embeddings.kind", args.embeddings),
        ("--examples", "examples", args.examples),
        ("--k", "verify.k", k),
        ("--k", "eval.k", k),
        ("--dev-size", "dev_size", dev_size),
    )
    for flag, key, value in overrides:
        if value is not None:
            set_config_key(config, key, str(value), where=flag)
    return config


def _print_counters(counters: dict) -> None:
    print(json.dumps({"counters": counters}), file=sys.stderr)


def run_command(args) -> int:
    config = _configure(args)
    command = args.command

    if command == "ingest":
        store = pipeline.build_store(args.in_path, config)
        from .corpus import serialize_store

        count = serialize_store(store, args.out_path)
        print(f"ingested {count} documents -> {args.out_path}")
        return 0

    if command in ("pair", "gen-questions", "filter-answers", "gen-queries", "verify"):
        store = pipeline.build_store(args.store, config)
        if command == "pair":
            rows, counters = pipeline.stage_pair(store, config)
            write_rows(rows, args.out_path)
        elif command == "gen-questions":
            rows, counters = pipeline.stage_questions(store, read_rows(args.in_path), config)
            write_rows(rows, args.out_path)
        elif command == "filter-answers":
            rows, counters = pipeline.stage_filter_answers(store, read_rows(args.in_path), config)
            write_rows(rows, args.out_path)
        elif command == "gen-queries":
            rows, counters = pipeline.stage_queries(store, read_rows(args.in_path), config)
            write_rows(rows, args.out_path)
        else:
            instances, counters = pipeline.stage_verify(store, read_rows(args.in_path), config)
            write_jsonl(instances, args.out_path)
            if args.report:
                Path(args.report).write_text(json.dumps(counters, indent=2) + "\n")
        _print_counters(counters)
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
        report = pipeline.run_eval(args.in_path, args.corpus, config)
        Path(args.out_path).write_text(json.dumps(report, indent=2) + "\n")
        headline = {key: value for key, value in report.items() if key != "items"}
        print(json.dumps(headline))
        return 0

    if command == "run-all":
        report = pipeline.run_all(args.in_path, args.out_path, config)
        Path(args.out_path, "report.json").write_text(json.dumps(report, indent=2) + "\n")
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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures exit 2 per contract
        logging.getLogger(__name__).exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
