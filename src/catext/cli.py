"""Command line entry point.

    catext <command> problem.yaml [--cap-p N] [--cap-q N] [--cap-n N]
                                  [--seed S] [--format table|structured]

Commands: validate, build-algebra, check-theorem-a, check-extension,
cohomology, ext, lhs-report.  Exit status: 0 clean, 1 mathematical violation,
2 input error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cliio
from .cliio import COMMANDS, InputError


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(prog="catext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd)
        sp.add_argument("input", help="problem description file (YAML)")
        sp.add_argument("--cap-p", type=int, default=None)
        sp.add_argument("--cap-q", type=int, default=None)
        sp.add_argument("--cap-n", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None,
                        help="seed for randomized element-level spot checks")
        sp.add_argument("--format", choices=("table", "structured"),
                        default="table")
    args = parser.parse_args(argv)

    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = cliio.parse(text)
    except InputError as exc:
        doc = {"command": args.command, "input_errors": exc.errors}
        sys.stdout.write(cliio.render(doc, args.format))
        return 2

    caps = {"p": args.cap_p, "q": args.cap_q, "n": args.cap_n}
    doc, code = cliio.run(spec, command=args.command, caps=caps, seed=args.seed)
    sys.stdout.write(cliio.render(doc, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
