"""Command line interface.

Subcommands: reduce, diff, grade, closed, check. Exit codes: 0 success,
1 property failure, 2 parse error or a result with an integer too long to
print, 3 mode or configuration error. The QFORMS_OUTPUT environment
variable overrides --output when set.

Every option and expression command is declared once, in the _OPTIONS and
_COMMANDS table; argparse (_build_parser), the fast path (_fast_args) and
the bound checks (_configure) all read it. Importing this module loads
neither argparse nor qforms.checks. _fast_args reads the plain argv shapes;
every other argv goes to _build_parser, which imports argparse. The check
command and that parser's suite names import qforms.checks.
"""

from __future__ import annotations

import functools
import os
import sys
from collections.abc import Callable, Iterable
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from .calculus import CalculusConfig
from .cyclotomic import Q, _ratios, _triple
from .differential import differential_power, is_closed
from .parser import MAX_DIGITS, MAX_EXPONENT, ParseError, _digit_limit, parse, parse_scalar, render
from .polynomial import ModeMismatchError

if TYPE_CHECKING:
    import argparse

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


_TOO_LONG = 10**MAX_DIGITS  # the least integer of more than MAX_DIGITS digits, built once: tens of microseconds

# CPython's lowest nonzero int/str digit limit, written out since 3.10 before 3.10.7 has no
# sys.int_info.str_digits_check_threshold; an int of at most _SHORT (2,126) bits is below 10**640
_LOWEST_LIMIT = 640
_SHORT = (10**_LOWEST_LIMIT).bit_length() - 1


def _too_long(scalars: Iterable[tuple[int, int, int]]) -> bool:
    """Whether the text or JSON of any of these (a, b, d) scalars would write
    an integer of more than _digit_limit() digits, which CPython refuses to
    print.

    Lowest terms only shrink the stored ints, so a scalar whose ints have
    at most 2,126 bits prints under every limit and costs one pass; the
    limit is read only at a longer int, and _ratios and its gcds are needed
    only for a scalar with an int at least as long as 10**limit.
    """
    least = 0
    for a, b, d in scalars:
        bits = max(a.bit_length(), b.bit_length(), d.bit_length())
        if bits > _SHORT:
            if not least:
                limit = _digit_limit()
                least = _TOO_LONG if limit == MAX_DIGITS else 10**limit
            if bits >= least.bit_length() and any(abs(n) >= least for n in _ratios(a, b, d)):
                return True
    return False


class _Option(NamedTuple):
    """An option as argparse's add_argument takes it, and for an int option
    the (low, high or None) bounds that _configure checks."""

    flags: tuple[str, ...]
    dest: str
    default: object
    help: str | None = None
    type: Callable[[str], int] | None = None
    choices: tuple[str, ...] | None = None
    action: str | None = None
    metavar: str | None = None
    bounds: tuple[int, int | None] | None = None

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        keywords = self._asdict()
        del keywords["flags"], keywords["bounds"]
        parser.add_argument(*self.flags, **{k: v for k, v in keywords.items() if v is not None})


# The only declaration of the options and the expression commands: argparse,
# _fast_args and _configure all read these rows.
_OPTIONS = (
    _Option(("--alpha",), "alpha", "q", metavar="SCALAR",
            help="twist scalar, any constant expression such as 'q', '2' or '1+q' (default: q)"),
    _Option(("--anyonic",), "anyonic", False, "work in the x^3 = 0 quotient; forces alpha = q", action="store_true"),
    _Option(("--output",), "output", "text", choices=("text", "json")),
    _Option(("--seed",), "seed", 0, "seed for randomized suites", int, bounds=(0, None)),
    _Option(("--samples",), "samples", 200, "samples per randomized suite", int, bounds=(1, MAX_SAMPLES)),
    _Option(("--max-degree",), "max_degree", 6, "coefficient degree bound for random samples and homogeneity checks",
            int, bounds=(1, MAX_EXPONENT)),
)
_TIMES = _Option(("-n", "--times"), "times", 1, "how often to apply d", int, bounds=(1, None))
_COMMANDS = {  # name: (help, options); each takes one expression
    "reduce": ("reduce an expression to normal form", _OPTIONS),
    "diff": ("apply the exterior differential", _OPTIONS + (_TIMES,)),
    "grade": ("print the grade decomposition", _OPTIONS),
    "closed": ("test whether d of the expression vanishes", _OPTIONS),
}

# built once from the rows, so that a request pays for none of it
_FLAGS = {name: {flag: o for o in options for flag in o.flags} for name, (_, options) in _COMMANDS.items()}
_DEFAULTS = {
    name: {"command": name, **{o.dest: o.default for o in options}} for name, (_, options) in _COMMANDS.items()
}
_BOUNDS = tuple((o.flags[0], o.dest, *o.bounds) for o in _OPTIONS + (_TIMES,) if o.bounds)
_GENERIC_Q, _ANYONIC_Q = CalculusConfig(Q), CalculusConfig(Q, anyonic=True)  # the default alpha's configurations


def _fast_args(argv: list[str]) -> SimpleNamespace | None:
    """The attributes of the Namespace that _build_parser().parse_args(argv)
    returns, for the plain shapes scripts write, or None for every other argv.

    Accepted: an expression command, then one positional that does not start
    with '-' and, in any order, its options' full flags as separate tokens,
    each value not starting with '-'. Everything else, every error, --help,
    an abbreviation, --opt=value, '--' and check included, is left to
    argparse, which parses, refuses or explains it.
    """
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    values = dict(_DEFAULTS[argv[0]])
    expr = None
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if expr is not None:
                return None
            expr = token
            continue
        option = flags.get(token)
        if option is None:
            return None
        if option.action:  # store_true
            values[option.dest] = True
            continue
        value = next(tokens, "-")  # a missing value declines like a flag
        if value.startswith("-") or option.choices and value not in option.choices:
            return None
        if option.type:
            try:
                value = option.type(value)
            except ValueError:
                return None
        values[option.dest] = value
    if expr is None:
        return None
    return SimpleNamespace(expr=expr, **values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    parse_args keeps no state between calls, so one parser serves every
    main() in the process; everything that depends on the environment is
    read per call in _configure.
    """
    import argparse

    from .checks import SUITE_NAMES

    parser = argparse.ArgumentParser(
        prog="qforms",
        description="Reduce, differentiate and test differential forms on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for option in options:
            option.add_to(p)
        p.add_argument("expr")
    p = sub.add_parser("check", help="run a randomized verification suite")
    for option in _OPTIONS:
        option.add_to(p)
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    return parser


# QFORMS_OUTPUT's key in the map that os.environ wraps and keeps in step (bytes on POSIX): a lookup
# there raises nothing when the variable is unset, where os.environ.get raises and catches a KeyError
_OUTPUT_KEY = os.environ.encodekey("QFORMS_OUTPUT")


def _configure(args: SimpleNamespace | argparse.Namespace) -> tuple[CalculusConfig, str]:
    output = args.output
    raw = os.environ._data.get(_OUTPUT_KEY)
    if raw:
        env = os.environ.decodevalue(raw)
        if env not in ("text", "json"):
            raise _ConfigError(f"QFORMS_OUTPUT must be 'text' or 'json', not {env!r}")
        output = env  # the environment wins over the flag
    if args.alpha == "q":
        alpha = Q  # the default needs no parse, its digits are few, and its configurations are built
    else:
        try:
            alpha = parse_scalar(args.alpha)
        except (ParseError, ValueError) as exc:
            raise _ConfigError(f"bad --alpha value: {exc}") from exc
        a, b, d = _triple(alpha)
        if _too_long(((a, b, d), (a, b - d, d))):  # check prints alpha, prop2 alpha - q, canonical as alpha is
            raise _ConfigError(f"bad --alpha value: an integer has more than {_digit_limit()} digits")
    for flag, dest, low, high in _BOUNDS:
        value = getattr(args, dest, low)  # only diff has -n
        if value < low:
            raise _ConfigError(f"{flag} must be {'nonnegative' if low == 0 else 'positive'}")
        if high is not None and value > high:
            raise _ConfigError(f"{flag} must be at most {high}")
    if alpha is Q:
        return _ANYONIC_Q if args.anyonic else _GENERIC_Q, output
    return CalculusConfig(alpha, anyonic=args.anyonic), output


def _print_json(value: object) -> None:
    import json  # only --output json pays for the import

    print(json.dumps(value))


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
        if _too_long(t for coeffs in form._terms.values() for t in coeffs.values()):
            raise _OutputError(f"the result has an integer of more than {_digit_limit()} digits")
        if args.command == "grade":
            components = form.decompose()
            if output == "json":
                _print_json({str(g): c.to_dict() for g, c in components.items()})
            else:
                for g, component in components.items():
                    print(f"{g}: {render(component)}")
        elif output == "json":
            _print_json(form.to_dict())
        else:
            print(render(form))
        return EXIT_OK
    except (ParseError, _OutputError) as exc:
        print(f"qforms: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (_ConfigError, ModeMismatchError) as exc:
        print(f"qforms: {exc}", file=sys.stderr)
        return EXIT_MODE_ERROR


def _run_check(args: argparse.Namespace, cfg: CalculusConfig, output: str) -> int:
    from .checks import SUITE_NAMES, run_suites

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
    if passed:
        return EXIT_OK
    from shlex import join  # quotes each argument; only a failed run pays for the import

    # the command that reruns each failed suite alone; --alpha=VALUE, since a value may start with '-'
    options = [f"--alpha={cfg.alpha}", *(["--anyonic"] if cfg.anyonic else []), "--seed", str(args.seed),
               "--samples", str(args.samples), "--max-degree", str(args.max_degree)]
    for name in (r.name for r in results if not r.passed):
        print(join(["qforms", "check", name, *options]), file=sys.stderr)
    return EXIT_PROPERTY_FAILURE


if __name__ == "__main__":
    sys.exit(main())
