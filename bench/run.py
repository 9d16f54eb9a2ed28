"""Benchmark for qforms: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout; it imports qforms from the checkout's src/ and needs
nothing beyond the standard library. Load is a closed loop with one client in
one process and one thread: each op starts when the previous one returns.

Workloads (an op is one unit of work, timed on its own):

  check_generic  one seeded sample of the assoc, leibniz or d3 suite (in
                 turn) through qforms.checks at alpha = 2, max-degree 6.
                 The q-bracket is nonzero, so the product kernel branches.
  check_anyonic  the same at alpha = q with x^3 = 0. The bracket is always
                 zero and coefficients are truncated polynomials.
  cli_requests   one in-process call of qforms.cli.main, stdout captured:
                 reduce, diff -n 1..3, grade and closed on seeded sums of
                 left-normal terms c*x^a*dx^k*d2x^m, text or JSON, several
                 alphas and some --anyonic calls, in the proportions of the
                 repo's own CLI examples, plus a part with long powers of x.

With --trace 0 the run measures for --seconds and prints the end-to-end
metrics. With --trace 1 it takes a fixed, seeded list of ops and alternates
an untraced pass and a traced pass over it until --seconds have passed; the
count metrics come from the first traced pass and repeat exactly for a seed,
times are medians over passes, and the spans of the first traced pass are
written to bench/out/. Every op's output is checked in both modes. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

The host is shared and its speed drifts by tens of percent over seconds to
minutes, so end-to-end times are scaled to a reference host speed: the loop
times a fixed stdlib workload (`calibrate`) every CALIBRATE_EVERY_S and
divides each op's latency by the host scale around it. The unscaled values
are printed too, under "raw".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import reference
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MAX_DEGREE = 6  # the CLI's default --max-degree
TAIL_PERCENTILE = 99
SETUP_SPAWNS = 15
CALIBRATION_S = 0.7e-3  # calibrate() on this host when it is not contended
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW = 9  # samples, about half a second
TRACE_POOL = {"check_generic": 150, "check_anyonic": 300, "cli_requests": 600}


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


# workloads --------------------------------------------------------------


class CheckWorkload:
    """Seeded samples of the randomized suites, one sample per op."""

    suites = ("assoc", "leibniz", "d3")

    def __init__(self, qforms, alpha_text: str, anyonic: bool) -> None:
        self.checks = qforms.checks
        self.cfg = qforms.CalculusConfig(qforms.parse_scalar(alpha_text), anyonic=anyonic)
        self.generic_alpha = self.cfg.alpha != qforms.Q

    def requests(self, seed: int):
        rng = random.Random(seed)
        for i in itertools.count():
            yield self.suites[i % len(self.suites)], rng.randrange(2**32)

    def run(self, request):
        suite, sample_seed = request
        (result,) = self.checks.run_suites((suite,), self.cfg, sample_seed, 1, MAX_DEGREE)
        return result.name, result.passed, tuple(result.lines)

    def check(self, request, output) -> bool:
        # the known answer: every suite passes at every alpha
        return output[0] == request[0] and output[1] is True

    def validate(self) -> list[str]:
        """Known answers for the suites the ops do not run."""
        problems = []
        for result in self.checks.run_suites(("prop2", "swap"), self.cfg, 0, 1, MAX_DEGREE):
            if not result.passed:
                problems.append(f"{result.name} failed: {result.lines}")
            elif result.name == "prop2" and self.generic_alpha != result.lines[0].startswith(
                "FAIL-as-expected"
            ):
                problems.append(f"prop2 at alpha {self.cfg.alpha}: {result.lines}")
        return problems


@dataclass(frozen=True)
class CliRequest:
    argv: tuple[str, ...]
    command: str
    times: int
    output: str
    terms: tuple  # (coeff, a, k, m) with coeff a reference scalar
    alpha: tuple
    anyonic: bool


F = Fraction
# The cli_requests mix. There is no record of real qforms traffic, so the mix
# copies the repo's own CLI examples: the six calls in README.md's "Command
# line" section and the sixteen successful reduce/diff/grade/closed calls in
# tests/test_cli.py, 22 in all. A weight written "n of 22" is counted there;
# every other number is marked as an assumption. bench/README.md lists them.
COMMAND_WEIGHTS = {"reduce": 8, "diff": 7, "grade": 3, "closed": 4}  # of 22
DIFF_TIMES_WEIGHTS = {1: 3, 2: 2, 3: 2}  # of the 7 diff calls
TERM_COUNT_WEIGHTS = {1: 16, 2: 4, 3: 2}  # of 22 expressions
JSON_SHARE = 4 / 22  # --output json
ANYONIC_SHARE = 1 / 22  # --anyonic
ALPHA_SHARE = 2 / 22  # --alpha, both times 1 in the examples
# Assumption: the examples only set --alpha 1; the other values widen that to
# a few generic alphas, drawn uniformly.
ALPHAS = (
    ("1", (F(1), F(0))),
    ("2", (F(2), F(0))),
    ("1+q", (F(1), F(1))),
    ("1/2", (F(1, 2), F(0))),
)
ALPHA_Q = ("q", (F(0), F(1)))
CONSTRUCTED_CLOSED_SHARE = 2 / 4  # "x*d2x + dx^2" in 2 of the 4 closed calls
# The examples' terms c*x^a*dx^k*d2x^m have a <= 3, k <= 2, m <= 1 (x^3,
# dx^2, x*d2x). Assumption: a, k and m are uniform over those ranges.
MAX_X, MAX_DX, MAX_D2X = 3, 2, 1
# 27 of the examples' 30 terms have coefficient 1; the rest are 5, q^2 and q.
# Assumption: the others are drawn uniformly from the coefficients that the
# examples and tests/test_parser.py write.
COEFF_ONE_SHARE = 27 / 30
ONE_COEFF = ("", (F(1), F(0)))  # 1 is typed by leaving the coefficient out
COEFFS = (
    ("2", (F(2), F(0))),
    ("5", (F(5), F(0))),
    ("1/2", (F(1, 2), F(0))),
    ("3/2", (F(3, 2), F(0))),
    ("q", (F(0), F(1))),
    ("q^2", (F(-1), F(-1))),
)
# The long-power part of the mix, kept apart from the typed examples: the
# parser runs x^a as `a` chained products (ROADMAP item 4), which no example
# with a <= 3 shows. Assumptions: one call in 20 raises the power of x in its
# first term to a uniform draw from 4..128. The top of that range is set so
# that p99 lands in this part (a >= ~85 at this commit) and measures the x^a
# loop rather than the host's hiccups; x^128 stays far below the x^1500 of
# ROADMAP item 3's RecursionError.
LONG_POWER_SHARE = 1 / 20
LONG_POWER_X = (4, 128)


def weighted(rng: random.Random, weights: dict):
    return rng.choices(tuple(weights), tuple(weights.values()))[0]


def typed_coeff(c) -> tuple[str, str]:
    """(sign, text) typing the scalar c as a coefficient prefix; '' for 1."""
    a, b = c
    if a and b:
        return "+", f"({reference.scalar_text(c)})"
    value = b or a
    mag = abs(value)
    if b:
        return ("+" if value > 0 else "-"), "q" if mag == 1 else f"{mag}*q"
    return ("+" if value > 0 else "-"), "" if mag == 1 else str(mag)


class CliWorkload:
    """In-process calls of the qforms command, checked against reference.py."""

    def __init__(self, qforms) -> None:
        self.cli = qforms.cli

    @staticmethod
    def term_text(coeff_text: str, a: int, k: int, m: int) -> str:
        parts = [coeff_text] if coeff_text else []
        if a:
            parts.append(reference.x_text(a))
        if k or m:
            parts.append(reference.word_text(k, m))
        return "*".join(parts) or "1"

    @staticmethod
    def _coeff(rng: random.Random):
        return ONE_COEFF if rng.random() < COEFF_ONE_SHARE else rng.choice(COEFFS)

    def _expression(self, rng: random.Random, alpha, closed: bool, first_x: int | None):
        """(terms, text) of a seeded sum; first_x, if given, is the first term's power of x."""
        terms, texts = [], []
        if closed:
            # f*d2x^m + derivative(f)*dx^2*d2x^(m-1) is closed by construction
            text, c = self._coeff(rng)
            a = rng.randint(0, MAX_X) if first_x is None else first_x
            m = rng.randint(1, MAX_D2X)
            terms.append((c, a, 0, m))
            texts.append(("+", self.term_text(text, a, 0, m)))
            dc = reference.s_mul(reference.q_integer(a, alpha), c)
            if dc != reference.ZERO:
                sign, text = typed_coeff(dc)
                terms.append((dc, a - 1, 2, m - 1))
                texts.append((sign, self.term_text(text, a - 1, 2, m - 1)))
        else:
            for i in range(weighted(rng, TERM_COUNT_WEIGHTS)):
                # every join in the examples is '+'; the first term is never negative,
                # which argparse would read as a flag
                text, c = self._coeff(rng)
                a = rng.randint(0, MAX_X) if i or first_x is None else first_x
                k, m = rng.randint(0, MAX_DX), rng.randint(0, MAX_D2X)
                terms.append((c, a, k, m))
                texts.append(("+", self.term_text(text, a, k, m)))
        expr = texts[0][1] + "".join(f" {sign} {text}" for sign, text in texts[1:])
        return tuple(terms), expr

    def requests(self, seed: int):
        rng = random.Random(seed)
        while True:
            command = weighted(rng, COMMAND_WEIGHTS)
            times = weighted(rng, DIFF_TIMES_WEIGHTS) if command == "diff" else 1
            draw = rng.random()
            anyonic = draw < ANYONIC_SHARE
            explicit_alpha = not anyonic and draw < ANYONIC_SHARE + ALPHA_SHARE
            alpha_text, alpha = rng.choice(ALPHAS) if explicit_alpha else ALPHA_Q
            output = "json" if rng.random() < JSON_SHARE else "text"
            closed = command == "closed" and rng.random() < CONSTRUCTED_CLOSED_SHARE
            first_x = rng.randint(*LONG_POWER_X) if rng.random() < LONG_POWER_SHARE else None
            terms, expr = self._expression(rng, alpha, closed, first_x)
            # laid out as in the examples: `diff -n 3 EXPR`, `reduce EXPR --alpha 1`
            argv = [command] + (["-n", str(times)] if times > 1 else []) + [expr]
            if anyonic:
                argv.append("--anyonic")
            if explicit_alpha:
                argv += ["--alpha", alpha_text]
            if output == "json":
                argv += ["--output", "json"]
            yield CliRequest(tuple(argv), command, times, output, terms, alpha, anyonic)

    def run(self, request: CliRequest):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(request.argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, request: CliRequest, output) -> bool:
        expected = reference.expected_output(
            request.command, request.times, request.output, request.terms, request.alpha, request.anyonic
        )
        return output == (0, expected, "")

    def validate(self) -> list[str]:
        return []


# workload -> (alpha, anyonic) of a check workload, None for cli_requests
WORKLOADS = {"check_generic": ("2", False), "check_anyonic": ("q", True), "cli_requests": None}


def make_workload(name: str, qforms):
    config = WORKLOADS[name]
    return CliWorkload(qforms) if config is None else CheckWorkload(qforms, *config)


# set-up ---------------------------------------------------------------

# The clock starts in the child, after interpreter start-up and `site`, so
# process spawn and teardown are not counted.
SETUP_CODE = """\
import time
start = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import qforms{extra}
configs = [qforms.CalculusConfig(qforms.parse_scalar(a), anyonic=n) for a, n in {configs!r}]
print(repr(time.perf_counter() - start))
"""


def setup_seconds(workload: str) -> tuple[float, float, float]:
    """Set-up time measured inside fresh interpreters: from their first statement
    until qforms is imported and the workload's configurations are built.

    Returns the median scaled by the host speed sampled right after each
    interpreter, the raw median, and the median wall time of a whole spawn.
    """
    config = WORKLOADS[workload]
    if config is None:
        configs = [(a, False) for a, _ in (ALPHA_Q,) + ALPHAS] + [("q", True)]
        code = SETUP_CODE.format(src=str(SRC), extra=", qforms.cli", configs=configs)
    else:
        code = SETUP_CODE.format(src=str(SRC), extra="", configs=[config])
    argv = [sys.executable, "-c", code]
    raw, scaled, spawn = [], [], []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise HarnessError(f"set-up interpreter failed:\n{done.stderr.decode()}")
        if i:  # the first spawn also compiles bytecode, which users pay once
            inside = float(done.stdout.decode().strip().splitlines()[-1])
            raw.append(inside)
            spawn.append(elapsed)
            scaled.append(inside / host_scale([calibrate() for _ in range(CALIBRATION_WINDOW)]))
    return statistics.median(scaled), statistics.median(raw), statistics.median(spawn)


def import_qforms():
    if not (SRC / "qforms" / "__init__.py").is_file():
        raise HarnessError(f"no qforms sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qforms
    import qforms.checks
    import qforms.cli

    if Path(qforms.__file__).resolve().parent != SRC / "qforms":
        raise HarnessError(f"imported qforms from {qforms.__file__}, not from {SRC}")
    modules = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "qforms"}
    return qforms, modules


# measuring ------------------------------------------------------------


def run_op(workload, request):
    """(output, seconds) of one op; a raised exception is its output."""
    start = time.perf_counter()
    try:
        output = workload.run(request)
    except (Exception, SystemExit) as exc:  # a failed op is counted, never fatal
        output = ("raised", type(exc).__name__, traceback.format_exc(limit=-3))
    return output, time.perf_counter() - start


class Tally:
    """Checks each op's output as it arrives, in constant memory."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digest = hashlib.sha256()

    def add(self, request, output) -> None:
        self.attempted += 1
        self._digest.update(repr(output).encode())
        if not self.workload.check(request, output):
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op failed: {request!r} -> {output!r}")

    def digest(self) -> str:
        return self._digest.hexdigest()


def percentile(sorted_values, p: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def calibrate() -> float:
    """Seconds for a fixed stdlib workload like the engine's: dicts of Fraction products."""
    start = time.perf_counter()
    a = {d: Fraction(d + 1, 7) for d in range(12)}
    b = {d: Fraction(5, d + 2) for d in range(12)}
    out: dict[int, Fraction] = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return time.perf_counter() - start


def host_scale(samples) -> float:
    """How much slower the host ran than the reference speed (>1 is slower)."""
    return statistics.median(samples) / CALIBRATION_S


def local_scales(samples) -> list[float]:
    """host_scale over a window of calibration samples centred on each one."""
    half = CALIBRATION_WINDOW // 2
    return [host_scale(samples[max(0, i - half):i + half + 1]) for i in range(len(samples))]


def summarize(latencies) -> dict:
    ordered = sorted(latencies)
    tail, beyond = percentile(ordered, TAIL_PERCENTILE)
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_samples_beyond": beyond,
    }


def measure(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Closed loop for `seconds`; throughput counts op time, not the output checks.

    Between ops, every CALIBRATE_EVERY_S, the host's speed is sampled; each op's
    latency is divided by the host scale around it.
    """
    # 8 + 4 bytes an op, so a faster program barely moves peak RSS
    latencies, near = array("d"), array("l")
    host = array("d")
    stream = workload.requests(seed)
    start = time.perf_counter()
    next_calibration = start
    while (now := time.perf_counter()) < start + seconds:
        if now >= next_calibration:
            host.append(calibrate())
            next_calibration = now + CALIBRATE_EVERY_S
        request = next(stream)
        output, elapsed = run_op(workload, request)
        latencies.append(elapsed)
        near.append(len(host) - 1)
        tally.add(request, output)
    rss = peak_rss_mb()
    scales = local_scales(host)
    raw = summarize(latencies)
    scaled = summarize(x / scales[j] for x, j in zip(latencies, near))
    metrics = {
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_tail_ms": (scaled["op_tail_ms"], "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }
    info = {"samples": len(latencies), "tail_percentile": TAIL_PERCENTILE,
            "tail_samples_beyond": scaled["tail_samples_beyond"], "calibrations": len(host),
            "host_scale": host_scale(host), "raw": raw}
    return metrics, info


def run_pass(workload, pool: list, tally: Tally, tracer=None) -> float:
    start = time.perf_counter()
    for op, request in enumerate(pool):
        if tracer is not None:
            tracer.op = op
        output, _ = run_op(workload, request)
        tally.add(request, output)
    return time.perf_counter() - start


def traced(workload, modules: dict, seed: int, seconds: float, workload_name: str, tally: Tally):
    """Alternate untraced and traced passes over a fixed op list until `seconds` pass."""
    pool = list(itertools.islice(workload.requests(seed), TRACE_POOL[workload_name]))
    plain_s, traced_s, self_s, total_s = [], [], [], []
    first = None
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        plain_s.append(run_pass(workload, pool, tally))
        tracer = tracing.Tracer()
        outputs = Tally(workload)
        tracer.install(modules)
        try:
            traced_s.append(run_pass(workload, pool, outputs, tracer))
        finally:
            tracer.uninstall()
        self_s.append(tracer.self_times())
        total_s.append(tracer.total_times())
        tally.problems += [f"traced {problem}" for problem in outputs.problems]
        tally.attempted += outputs.attempted
        tally.failed += outputs.failed
        if first is None:
            first = (tracer.counts, tracer.max_bits, outputs.digest(), len(tracer.spans))
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans_{workload_name}_seed{seed}.csv.gz")
            metrics = layer_metrics(tracer, modules)
        elif first[:3] != (tracer.counts, tracer.max_bits, outputs.digest()):
            tally.problems.append("traced passes over the same ops gave different counts or outputs")
        tracer.spans.clear()
    metrics.update(layer_seconds(self_s, total_s))
    metrics["trace.ops"] = (len(pool), "count")
    metrics["trace.spans"] = (first[3], "count")
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s), "s")
    info = {"passes": len(traced_s), "output_digest": first[2]}
    return metrics, info


def layer_metrics(tracer, modules: dict) -> dict:
    """Count metrics of one traced pass."""
    c = tracer.counts

    def ratio(x, y):
        return x / y if y else 0.0

    calculus = modules["qforms.calculus"]
    cache_entries = sum(
        fn.cache_info().currsize
        for fn in (getattr(calculus, "q_number", None), getattr(calculus, "_alpha_power", None))
        if hasattr(fn, "cache_info")
    )
    m = {
        "cyclotomic.mul_calls": (c["cyclotomic.mul"], "count"),
        "cyclotomic.add_calls": (c["cyclotomic.add"], "count"),
        "cyclotomic.max_bits": (tracer.max_bits, "bits"),
        "polynomial.mul_calls": (c["polynomial.mul"], "count"),
        "polynomial.mul_term_pairs": (c["polynomial.mul_term_pairs"], "count"),
        "calculus.twist_calls": (c["calculus.twist"], "count"),
        "calculus.q_bracket_calls": (c["calculus.q_bracket"], "count"),
        "calculus.derivative_calls": (c["calculus.derivative"], "count"),
        "calculus.q_bracket_zero_ratio": (ratio(c["calculus.q_bracket_zero"], c["calculus.q_bracket"]), "ratio"),
        "calculus.cache_entries": (cache_entries, "count"),
        "forms.mul_calls": (c["forms.mul"], "count"),
        "forms.word_pairs": (c["forms.word_pairs"], "count"),
        "forms.calculus_calls_per_pair": (ratio(c["forms.calculus_calls"], c["forms.word_pairs"]), "ratio"),
        "differential.calls": (c["differential.differential"], "count"),
        "differential.terms_in": (c["differential.terms_in"], "count"),
        "parser.parse_calls": (c["parser.parse"], "count"),
        "parser.parse_chars": (c["parser.parse_chars"], "count"),
        "parser.mul_calls_per_parse": (ratio(c["parser.mul_calls_in_parse"], c["parser.parse"]), "ratio"),
        "parser.render_calls": (c["parser.render"], "count"),
        "checks.samples": (c["checks.samples"], "count"),
        "cli.calls": (c["cli.main"], "count"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.errors"] = (c[f"{layer}.errors"], "count")
    return m


def layer_seconds(self_s: list[dict], total_s: list[dict]) -> dict:
    """Time metrics per layer: medians over traced passes of seconds per pass."""

    def seconds(table, prefix):
        return statistics.median(sum(v for k, v in t.items() if k.startswith(prefix)) for t in table), "s"

    return {
        "polynomial.self_s": seconds(self_s, "polynomial."),
        "calculus.self_s": seconds(self_s, "calculus."),
        "forms.mul_self_s": seconds(self_s, "forms.mul"),
        "differential.self_s": seconds(self_s, "differential."),
        "parser.parse_self_s": seconds(self_s, "parser.parse"),  # parse and parse_scalar
        "parser.render_s": seconds(total_s, "parser.render"),
        "checks.self_s": seconds(self_s, "checks."),
        "cli.self_s": seconds(self_s, "cli."),
    }


# provenance -----------------------------------------------------------


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qforms").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
    }


# main -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("QFORMS_OUTPUT", None)  # would override --output in every CLI op

    try:
        qforms, modules = import_qforms()
        setup = setup_seconds(args.workload) if not args.trace else None
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, qforms)
    tally = Tally(workload)
    tally.problems += workload.validate()
    if args.trace:
        metrics, info = traced(workload, modules, args.seed, args.seconds, args.workload, tally)
    else:
        metrics, info = measure(workload, args.seed, args.seconds, tally)
        metrics["setup_s"] = (setup[0], "s")
        info["raw"]["setup_s"] = setup[1]
        info["setup_spawn_s"] = setup[2]  # whole-process wall time, for comparison
        # failed_ratio is printed here; the result line carries it as failed / attempted
        metrics["failed_ratio"] = (tally.failed / tally.attempted, "ratio")

    for problem in tally.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(provenance(args)))
    print(json.dumps(info))
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k != "failed_ratio"},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
