"""Command-line driver.

The first argument names the experiment kind; the configuration
document decides everything else.  Exit codes: 0 success, 2 configuration
error, 3 guard exceeded, 4 internal invariant violation (a repro bundle
is dumped).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from .config import EXPERIMENT_KINDS, parse_config
from .errors import ConfigError, GuardExceeded, IoError
from .harness import render_report, run_experiment, write_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakform",
        description="Seeded, reproducible experiments over finite task spaces.",
    )
    parser.add_argument("subcommand", choices=EXPERIMENT_KINDS, help="the experiment kind")
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the seed list")
    parser.add_argument("--out", default=None, help="report path (default: from config)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="report format (default: from config)",
    )
    parser.add_argument(
        "--timing", action="store_true",
        help="fill the wall_ms column (breaks byte-identical reruns)",
    )
    return parser


def _dump_repro_bundle(
    argv: list[str], out: str | None, config_text: str | None, exc: BaseException,
) -> Path | None:
    """Write the repro bundle beside the report at ``out``, else in the
    cwd; None when neither write succeeds."""
    bundle = json.dumps({
        "argv": argv,
        "config": config_text,
        "error": repr(exc),
        "traceback": traceback.format_exc(),
    }, indent=2)
    for folder in (Path(out).parent if out else Path.cwd(), Path.cwd()):
        path = folder / "weakform-repro.json"
        try:
            path.write_text(bundle, encoding="utf-8")
            return path
        except OSError:
            pass
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    config_text: str | None = None
    out = args.out  # where the bundle goes: beside --out, or the config's report path
    try:
        config_path = Path(args.config)
        try:
            config_text = config_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        config = parse_config(
            config_text,
            base_dir=config_path.parent,
            default_experiment=args.subcommand,
        )
        config = replace(
            config,
            seeds=config.seeds if args.seed is None else (args.seed,),
            output_path=config.output_path if args.out is None else args.out,
            output_format=config.output_format if args.format is None else args.format,
        )
        out = config.output_path
        rows = run_experiment(config, timing=args.timing)
        if config.output_path:
            write_report(rows, config.output_path, config.output_format)
            print(f"wrote {len(rows)} rows to {config.output_path}")
        else:
            sys.stdout.write(render_report(rows, config.output_format))
        return EXIT_OK
    except (ConfigError, IoError) as exc:  # an unwritable report path is the caller's
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except Exception as exc:  # noqa: BLE001 - dump a bundle, report code 4
        path = _dump_repro_bundle(argv, out, config_text, exc)
        written = path if path else "none written (the write failed)"
        print(f"internal error: {exc}\nrepro bundle: {written}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
