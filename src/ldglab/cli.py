"""Command-line driver: `ldglab run|report|dump-field`.

run      executes an experiment config (flat key = value file) with
         --set key=value overrides and writes CSV/JSON artifacts; the exit status reflects
         the envelope's pass/fail when checks were requested.
report   tabulates one or more envelopes as markdown.
dump-field converts a stored .npz field artifact to the documented CSV.

The default output root is the LDGLAB_OUT environment variable (falling
back to ./results).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments
from .meridian3d import MeridianField


def _parse_set(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        out[key.strip()] = experiments._parse_value(val.strip())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ldglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--set", action="append", metavar="K=V", help="override a parameter")
    p_run.add_argument("--out", help="output directory")

    p_rep = sub.add_parser("report", help="summarize result envelopes")
    p_rep.add_argument("envelopes", nargs="+")

    p_dump = sub.add_parser("dump-field", help="convert an .npz field to CSV")
    p_dump.add_argument("result", help="path to a stored field .npz")
    p_dump.add_argument("--csv", required=True, help="output CSV path")

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            overrides = _parse_set(args.set)
            if args.out is not None:
                overrides["out"] = args.out
            config = experiments.parse_config_file(args.config, overrides)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            doc = experiments.run(config)
        except Exception as exc:  # solver failure -> nonzero with diagnostic
            print(f"solver failure: {exc}", file=sys.stderr)
            return 1
        checks = doc["summary"]["checks"]
        for chk in checks:
            state = "PASS" if chk["passed"] else "FAIL"
            print(f"{state} {chk['name']}: {experiments._fmt(chk['value'])} (target {chk['target']})")
        print(f"envelope: {Path(config.output_dir) / (config.kind + '.json')}")
        return 0 if doc["summary"]["all_passed"] else 1

    if args.command == "report":
        print(experiments.report(args.envelopes), end="")
        return 0

    if args.command == "dump-field":
        try:
            MeridianField.load(args.result).to_csv(args.csv)
        except ValueError as exc:  # the archive is unreadable or invalid
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:  # the CSV cannot be opened or written
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.csv}")
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
