"""Command line interface.

Subcommands: reduce, diff, grade, closed, check. Exit codes: 0 success,
1 property failure, 2 parse error or a result with an integer too long to
print, 3 mode or configuration error. The QFORMS_OUTPUT environment
variable overrides --output when set.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterable

from .calculus import CalculusConfig
from .checks import SUITE_NAMES, run_suites
from .cyclotomic import Q, CycQ
from .differential import differential_power, is_closed
from .parser import MAX_DIGITS, MAX_EXPONENT, ParseError, parse, parse_scalar, render
from .polynomial import ModeMismatchError

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_MODE_ERROR = 3

MAX_SAMPLES = 10_000
"""Largest --samples; check's time grows linearly in it."""


class _ConfigError(Exception):
    pass


class _OutputError(Exception):
    pass


_TOO_LONG = 10**MAX_DIGITS  # the least integer of more than MAX_DIGITS digits
_SHORT_BITS = 14_284  # 2**14284 < 10**4300: an int of this many bits has at most 4300 digits


def _too_long(values: Iterable[CycQ]) -> bool:
    """Whether the text or JSON of any of these scalars would write an integer
    of more than MAX_DIGITS digits, which CPython refuses to convert to str.

    Lowest terms only shrink the stored ints, so ratios() and its gcds are
    needed only for a scalar with an int longer than _SHORT_BITS.
    """
    return any(
        value.max_bits() > _SHORT_BITS and any(abs(n) >= _TOO_LONG for n in value.ratios())
        for value in values
    )


# option defaults, shared by _fast_args and the argparse parser
_DEFAULTS = {
    "alpha": "q",
    "anyonic": False,
    "output": "text",
    "seed": 0,
    "samples": 200,
    "max_degree": 6,
}
_VALUE_OPTIONS = {
    "--alpha": "alpha",
    "--output": "output",
    "--seed": "seed",
    "--samples": "samples",
    "--max-degree": "max_degree",
    "-n": "times",
    "--times": "times",
}


def _fast_args(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace that _build_parser().parse_args(argv) returns, for the
    plain shapes scripts write, or None for every other argv.

    Accepted: reduce, diff, grade or closed, then one positional that does
    not start with '-' and, in any order, the full option names as separate
    tokens, each value not starting with '-' (-n and --times for diff only).
    Everything else, every error, --help, an abbreviation, --opt=value, '--'
    and check included, is left to argparse, which parses, refuses or
    explains it.
    """
    if not argv or argv[0] not in ("reduce", "diff", "grade", "closed"):
        return None
    command = argv[0]
    values = dict(_DEFAULTS, command=command)
    if command == "diff":
        values["times"] = 1
    expr = None
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if expr is not None:
                return None
            expr = token
        elif token == "--anyonic":
            values["anyonic"] = True
        else:
            dest = _VALUE_OPTIONS.get(token)
            value = next(tokens, "-")  # a missing value declines like a flag
            if dest is None or value.startswith("-") or dest == "times" and command != "diff":
                return None
            if dest == "output":
                if value not in ("text", "json"):
                    return None
            elif dest != "alpha":
                try:
                    value = int(value)  # argparse's type=int
                except ValueError:
                    return None
            values[dest] = value
    if expr is None:
        return None
    return argparse.Namespace(expr=expr, **values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    parse_args keeps no state between calls, so one parser serves every
    main() in the process; everything that depends on the environment is
    read per call in _configure.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--alpha",
        default=_DEFAULTS["alpha"],
        metavar="SCALAR",
        help="twist scalar, any constant expression such as 'q', '2' or '1+q' (default: q)",
    )
    common.add_argument(
        "--anyonic",
        action="store_true",
        help="work in the x^3 = 0 quotient; forces alpha = q",
    )
    common.add_argument("--output", choices=("text", "json"), default=_DEFAULTS["output"])
    common.add_argument(
        "--seed", type=int, default=_DEFAULTS["seed"], help="seed for randomized suites"
    )
    common.add_argument(
        "--samples", type=int, default=_DEFAULTS["samples"], help="samples per randomized suite"
    )
    common.add_argument(
        "--max-degree",
        type=int,
        default=_DEFAULTS["max_degree"],
        dest="max_degree",
        help="coefficient degree bound for random samples and homogeneity checks",
    )

    parser = argparse.ArgumentParser(
        prog="qforms",
        description="Reduce, differentiate and test differential forms on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common], help="reduce an expression to normal form")
    p.add_argument("expr")
    p = sub.add_parser("diff", parents=[common], help="apply the exterior differential")
    p.add_argument("-n", "--times", type=int, default=1, dest="times", help="how often to apply d")
    p.add_argument("expr")
    p = sub.add_parser("grade", parents=[common], help="print the grade decomposition")
    p.add_argument("expr")
    p = sub.add_parser("closed", parents=[common], help="test whether d of the expression vanishes")
    p.add_argument("expr")
    p = sub.add_parser("check", parents=[common], help="run a randomized verification suite")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    return parser


def _configure(args: argparse.Namespace) -> tuple[CalculusConfig, str]:
    output = args.output
    env = os.environ.get("QFORMS_OUTPUT")
    if env:
        if env not in ("text", "json"):
            raise _ConfigError(f"QFORMS_OUTPUT must be 'text' or 'json', not {env!r}")
        output = env  # the environment wins over the flag
    if args.alpha == "q":
        alpha = Q  # the default needs no parse, and its digits are few
    else:
        try:
            alpha = parse_scalar(args.alpha)
        except (ParseError, ValueError) as exc:
            raise _ConfigError(f"bad --alpha value: {exc}") from exc
        if _too_long((alpha, alpha - Q)):  # check prints alpha, and prop2 alpha - q
            raise _ConfigError(f"bad --alpha value: an integer has more than {MAX_DIGITS} digits")
    if args.seed < 0:
        raise _ConfigError("--seed must be nonnegative")
    if args.samples < 1:
        raise _ConfigError("--samples must be positive")
    if args.samples > MAX_SAMPLES:
        raise _ConfigError(f"--samples must be at most {MAX_SAMPLES}")
    if args.max_degree < 1:
        raise _ConfigError("--max-degree must be positive")
    if args.max_degree > MAX_EXPONENT:
        raise _ConfigError(f"--max-degree must be at most {MAX_EXPONENT}")
    if getattr(args, "times", 1) < 1:
        raise _ConfigError("-n must be positive")
    return CalculusConfig(alpha, anyonic=args.anyonic), output


def _print_json(value: object) -> None:
    import json  # only --output json pays for the import

    print(json.dumps(value))


def _emit_form(form, output: str) -> None:
    if output == "json":
        _print_json(form.to_dict())
    else:
        print(render(form))


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        # CalculusConfig raises ModeMismatchError for --anyonic off alpha = q
        cfg, output = _configure(args)
        if args.command == "check":
            return _run_check(args, cfg, output)
        form = parse(args.expr, cfg)
        if args.command == "closed":
            closed = is_closed(form, cfg)
            if output == "json":
                _print_json({"closed": closed})
            else:
                print("true" if closed else "false")
            return EXIT_OK
        if args.command == "diff":
            form = differential_power(form, args.times, cfg)
        # one check for text and JSON, before anything is printed
        if _too_long(c for _, poly in form.items() for _, c in poly.items()):
            raise _OutputError(f"the result has an integer of more than {MAX_DIGITS} digits")
        if args.command == "grade":
            components = form.decompose()
            if output == "json":
                _print_json({str(g): c.to_dict() for g, c in components.items()})
            else:
                for g, component in components.items():
                    print(f"{g}: {render(component)}")
        else:
            _emit_form(form, output)
        return EXIT_OK
    except (ParseError, _OutputError) as exc:
        print(f"qforms: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (_ConfigError, ModeMismatchError) as exc:
        print(f"qforms: {exc}", file=sys.stderr)
        return EXIT_MODE_ERROR


def _run_check(args: argparse.Namespace, cfg: CalculusConfig, output: str) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, cfg, args.seed, args.samples, args.max_degree)
    passed = all(r.passed for r in results)
    if output == "json":
        report = {
            "alpha": str(cfg.alpha),
            "anyonic": cfg.anyonic,
            "seed": args.seed,
            "samples": args.samples,
            "max_degree": args.max_degree,
            "suites": [
                {"name": r.name, "passed": r.passed, "detail": r.lines} for r in results
            ],
            "passed": passed,
        }
        _print_json(report)
    else:
        for result in results:
            print(f"{result.name}: {'PASS' if result.passed else 'FAIL'}")
            for line in result.lines:
                print(f"  {line}")
        print(f"summary: {sum(r.passed for r in results)}/{len(results)} suites passed")
    return EXIT_OK if passed else EXIT_PROPERTY_FAILURE
