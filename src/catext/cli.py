"""Command line entry point.

    catext <command> problem.yaml [--cap-p N] [--cap-q N] [--cap-n N]
                                  [--seed S] [--format table|structured]

Commands: validate, build-algebra, check-theorem-a, check-extension,
cohomology, ext, lhs-report.  Exit status: 0 clean, 1 mathematical violation,
2 input error.
"""
from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import cliio
from .cliio import COMMANDS, InputError


def _spot_checks(spec: cliio.ProblemSpec, seed: int, rounds: int = 25) -> dict:
    """Randomized element-level law checks, complementing the exhaustive
    basis-level validators: associativity and unit on random algebra elements,
    module compatibility on random vectors."""
    rng = random.Random(seed)
    built = cliio.build(spec)
    if built.precosheaf is None:
        return {"seed": seed, "rounds": 0, "failures": 0}
    k = built.field

    def rand_vec(dim):
        if k.is_prime_field:
            return k.array([rng.randrange(k.characteristic) for _ in range(dim)])
        return k.array([rng.randint(-9, 9) for _ in range(dim)])

    failures = 0
    for _ in range(rounds):
        x = rng.choice(built.category.objects)
        alg = built.precosheaf.at(x)
        u, v, w = (rand_vec(alg.dim) for _ in range(3))
        if not k.equal(alg.mul(alg.mul(u, v), w), alg.mul(u, alg.mul(v, w))):
            failures += 1
        if not k.equal(alg.mul(alg.unit, u), u):
            failures += 1
    return {"seed": seed, "rounds": rounds, "failures": failures}


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
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = cliio.parse(text)
    except InputError as exc:
        doc = {"command": args.command, "input_errors": exc.errors}
        sys.stdout.write(cliio.render(doc, args.format))
        return 2

    caps = {"p": args.cap_p, "q": args.cap_q, "n": args.cap_n}
    doc, code = cliio.run(spec, command=args.command, caps=caps)
    if args.command == "validate" and args.seed is not None and code == 0:
        spots = _spot_checks(spec, args.seed)
        doc["spot_checks"] = spots
        if spots["failures"]:
            code = 1
    sys.stdout.write(cliio.render(doc, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
