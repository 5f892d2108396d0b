"""Command-line entry points: extract, answer, evaluate, eval-chain,
correlate, ground, report.

Each RunConfig field is set by one flag. A JSON file given via --config
overrides flags by flag or field name (dashes become underscores); each value
must have its field's JSON type. Exit code is nonzero when a question of the
run failed, unless --allow-partial is set.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import typing
from pathlib import Path

from . import corpus, pipeline
from .jsonl import row_fault, write_atomic
from .pipeline import RunConfig, UsageError

logger = logging.getLogger(__name__)


def _add_dataset_args(parser):
    parser.add_argument("--dataset", required=True, dest="dataset_path",
                        help="dataset JSON file")
    parser.add_argument("--format", default="hotpotqa", dest="dataset_format",
                        choices=corpus.FORMATS)


def _add_run_args(parser):
    _add_dataset_args(parser)
    parser.add_argument("--split", default="all", choices=("dev", "test", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dev-n", type=int, default=corpus.DEFAULT_DEV_SIZE)
    parser.add_argument("--test-n", type=int, default=corpus.DEFAULT_TEST_SIZE)
    parser.add_argument(
        "--variant", default="base", choices=[v.value for v in pipeline.PromptVariant]
    )
    parser.add_argument(
        "--setting", default="cot", choices=[s.value for s in pipeline.Setting]
    )
    parser.add_argument("--backend", default="replay", choices=("replay", "live"))
    parser.add_argument("--model", default="gpt-3.5-turbo-instruct", dest="model_id")
    parser.add_argument("--endpoint", default="", help="completions endpoint for --backend live")
    parser.add_argument("--replay-file", default="", help="fixture JSONL for --backend replay")
    parser.add_argument("--cache-dir", default=".sgqa-cache")
    parser.add_argument("--demos", default="", dest="demo_dir",
                        help="directory of <kind>.jsonl demo files (default: packaged)")
    parser.add_argument("--output-dir", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--allow-partial", action="store_true")
    parser.add_argument("--config", default="", help="JSON file whose keys override flags")


# Flag names that differ from their RunConfig field.
_CONFIG_ALIASES = {
    "dataset": "dataset_path",
    "format": "dataset_format",
    "model": "model_id",
    "demos": "demo_dir",
}


# The JSON type of each RunConfig field's value; the enum fields take strings.
_CONFIG_TYPES = {name: str if issubclass(kind, str) else kind
                 for name, kind in typing.get_type_hints(RunConfig).items()}


def _run_config(args: argparse.Namespace) -> RunConfig:
    kwargs = {name: getattr(args, name) for name in RunConfig.__dataclass_fields__}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except ValueError as exc:  # malformed JSON or UTF-8
                raise UsageError(f"{args.config}: {exc}") from exc
        if type(overrides) is not dict:
            raise UsageError(f"{args.config}: the top level must be a JSON object")
        for key, value in overrides.items():
            field = key.replace("-", "_")
            field = _CONFIG_ALIASES.get(field, field)
            if field not in RunConfig.__dataclass_fields__:
                raise UsageError(f"{args.config}: unknown config key {key!r}")
            fault = row_fault(overrides, {key: _CONFIG_TYPES[field]})
            if fault is not None:
                raise UsageError(f"{args.config}: {fault}")
            kwargs[field] = value
        try:
            return RunConfig(**kwargs)
        except ValueError as exc:  # a value the flags' choices would have refused
            raise UsageError(f"{args.config}: {exc}") from exc
    return RunConfig(**kwargs)


def _finish_run(config: RunConfig, manifest_path) -> int:
    manifest = pipeline.RunManifest(manifest_path)
    failed = manifest.failed()
    for qid, reason in failed:
        print(f"FAILED {qid}: {reason}", file=sys.stderr)
    if failed and not config.allow_partial:
        return 1
    return 0


def cmd_extract(args) -> int:
    config = _run_config(args)
    graphs_path = pipeline.run_extract(config)
    print(f"graphs written to {graphs_path}")
    return _finish_run(config, Path(config.output_dir) / "manifest.json")


def cmd_answer(args) -> int:
    config = _run_config(args)
    graphs = args.graphs or None
    predictions_path = pipeline.run_answer(config, graphs)
    print(f"predictions written to {predictions_path}")
    return _finish_run(config, Path(config.output_dir) / "manifest.json")


def cmd_evaluate(args) -> int:
    records = corpus.load_dataset(args.dataset_path, args.dataset_format)
    predictions = pipeline.read_predictions(args.predictions)
    labels = pipeline.read_labels(args.labels) if args.labels else None
    references = (
        pipeline.read_reference_chains(args.references) if args.references else None
    )
    pipeline.run_evaluate(predictions, records, args.output_dir,
                          human_labels=labels, reference_chains=references)
    print(f"metric files written to {args.output_dir}")
    return 0


def cmd_ground(args) -> int:
    records = corpus.load_dataset(args.dataset_path, args.dataset_format)
    out = Path(args.output_dir)
    html_dir = out / "html" if args.html else None
    count = pipeline.run_ground(args.graphs, records, out / "grounding.jsonl", html_dir)
    print(f"{count} grounding reports written to {out / 'grounding.jsonl'}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    sections = []
    for name, title in (
        ("answer_aggregate.md", "Answer metrics"),
        ("chain_aggregate.md", "Reasoning-chain ROUGE"),
        ("correlations.md", "Metric vs human-label correlations"),
    ):
        path = run_dir / name
        if path.exists():
            sections.append(f"## {title}\n\n{path.read_text(encoding='utf-8')}")
    if not sections:
        print(f"no metric files under {run_dir}", file=sys.stderr)
        return 1
    text = "# Run report\n\n" + "\n".join(sections)
    out_path = run_dir / "report.md"
    write_atomic(out_path, [text])
    print(text)
    print(f"report written to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgqa", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract semantic graphs for gold paragraphs")
    _add_run_args(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("answer", help="generate answers (and chains under cot)")
    _add_run_args(p)
    p.add_argument("--graphs", default="", help="graphs.jsonl (default: <output-dir>/graphs.jsonl)")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("evaluate", help="score predictions against gold answers")
    _add_dataset_args(p)
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--labels", default="", help="JSONL of {question_id, label}")
    p.add_argument("--references", default="", help="JSONL of {question_id, chain}")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("eval-chain", help="score reasoning chains with ROUGE")
    _add_dataset_args(p)
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_evaluate, labels="")

    p = sub.add_parser("correlate", help="correlate answer metrics with human labels")
    _add_dataset_args(p)
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_evaluate, references="")

    p = sub.add_parser("ground", help="verify graph elements against source paragraphs")
    _add_dataset_args(p)
    p.add_argument("--graphs", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--html", action="store_true", help="also write highlight HTML pages")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("report", help="combine metric tables into report.md")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
