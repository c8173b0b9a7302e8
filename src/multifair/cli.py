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
    _report_paths,
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
    print(f"report written to {_report_paths(config.report_path)[0]}")
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


# Each subcommand: its handler, help line, --config help, --output help and
# --output default
_SUBCOMMANDS = {
    "run": (_cmd_run, "run one experiment condition and print its report table",
            "JSON experiment config", "report path override (writes <base>.json and <base>.txt)", None),
    "detect": (_cmd_detect, "rank columns by unfairness and report the intersection",
               "JSON experiment config", "detection report path override", None),
    "grid": (_cmd_grid, "grid-search level weights and run the winning condition",
             "JSON experiment config (method m3fair)",
             "sweep table path (writes <base>.json and <base>.txt)", None),
    "weights": (_cmd_weights, "export the training-row weights as a CSV column",
                "JSON experiment config", "CSV output path", "weights.csv"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given a subcommand's name, a parser that holds
    that subcommand alone."""
    parser = argparse.ArgumentParser(
        prog="multifair",
        description="Detect biased tabular features and mitigate them by sample reweighting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_line, config_help, output_help, output_default) in _SUBCOMMANDS.items():
        if command in (None, name):
            sub_p = sub.add_parser(name, help=help_line)
            sub_p.add_argument("--config", required=True, help=config_help)
            sub_p.add_argument("--output", default=output_default, help=output_help)
            sub_p.set_defaults(handler=handler)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``.  When ``argv`` starts with a
    subcommand, that subcommand's parser alone reads it, in half the time
    of building all four.  A subcommand's help and errors do not name the
    others, so they read the same; anything left over for the top level
    to report is parsed again by the full parser, as is every line that
    does not start with a subcommand (top-level help, an unknown command)."""
    if argv[:1] and argv[0] in _SUBCOMMANDS:
        args, extra = build_parser(argv[0]).parse_known_args(argv)
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
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
