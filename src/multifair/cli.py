"""Command line interface: detect / run / grid / weights subcommands.

Every subcommand reads a JSON experiment config.  Exit code is 0 on
success; failures print a stage-named diagnostic to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .errors import ConfigError, MultifairError, PipelineError
from .experiment import (
    ExperimentConfig,
    GridSearchConfig,
    GridWinnerError,
    emit_grid,
    export_training_weights,
    format_grid_table,
    format_report_table,
    grid_search,
    run_detection,
    run_experiment,
)


def _load_config(path, output=None) -> tuple[ExperimentConfig, GridSearchConfig]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer past the int() digit limit, or nesting too deep
        raise ConfigError(f"invalid JSON: {exc}") from None
    grid = payload.pop("grid", {}) if isinstance(payload, dict) else {}
    config = ExperimentConfig.from_dict(payload)
    if output is not None:
        config = replace(config, report_path=output)
    return config, GridSearchConfig.from_dict(grid)


def _cmd_run(args) -> int:
    config, _ = _load_config(args.config, args.output)
    report = run_experiment(config)
    print(format_report_table(report), end="")
    return 0


def _cmd_detect(args) -> int:
    config, _ = _load_config(args.config, args.output)
    if config.report_path is None:
        config = replace(config, report_path="detection_report")
    result = run_detection(config)
    print("detected sensitive attributes:", ", ".join(sorted(result.intersection)) or "(none)")
    if result.skipped:
        print("skipped columns:", ", ".join(name for name, _ in result.skipped))
    print(f"report written to {config.report_path}.json")
    return 0


def _cmd_grid(args) -> int:
    config, grid = _load_config(args.config)
    try:
        result = grid_search(config, grid)
    except GridWinnerError as exc:
        # the sweep table stands without the winner's report
        if args.output:
            emit_grid(exc.result, args.output)
        raise
    if args.output:
        emit_grid(result, args.output)
    print(format_grid_table(result), end="")
    print()
    print(format_report_table(result.report), end="")
    return 0


def _cmd_weights(args) -> int:
    config, _ = _load_config(args.config)
    weights = export_training_weights(config, args.output)
    print(f"wrote {len(weights)} training weights to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multifair",
        description="Detect biased tabular features and mitigate them by sample reweighting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment condition and print its report table")
    run_p.add_argument("--config", required=True, help="JSON experiment config")
    run_p.add_argument("--output", help="report path override (writes <base>.json and <base>.txt)")
    run_p.set_defaults(handler=_cmd_run)

    detect_p = sub.add_parser("detect", help="rank columns by unfairness and report the intersection")
    detect_p.add_argument("--config", required=True, help="JSON experiment config")
    detect_p.add_argument("--output", help="detection report path override")
    detect_p.set_defaults(handler=_cmd_detect)

    grid_p = sub.add_parser("grid", help="grid-search level weights and run the winning condition")
    grid_p.add_argument("--config", required=True, help="JSON experiment config (method m3fair)")
    grid_p.add_argument("--output", help="sweep table path (writes <base>.json and <base>.txt)")
    grid_p.set_defaults(handler=_cmd_grid)

    weights_p = sub.add_parser("weights", help="export the training-row weights as a CSV column")
    weights_p.add_argument("--config", required=True, help="JSON experiment config")
    weights_p.add_argument("--output", default="weights.csv", help="CSV output path")
    weights_p.set_defaults(handler=_cmd_weights)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PipelineError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except MultifairError as exc:
        print(f"error [config] {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [io] {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error [config] invalid UTF-8: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
