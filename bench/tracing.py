"""Per-layer tracing of qforms from outside the package.

The tracer replaces the public entry points of each qforms module with
wrappers while it is installed, and restores the originals afterwards. A
wrapper is installed wherever a caller looks the name up: a module that did
`from .calculus import twist` holds its own reference, so every module
attribute that is the original function gets its own wrapper, which also
records which module made the call. Methods are patched on their class:
`CycQ.__rmul__` is a separate alias of `__mul__`, and `Poly.__rmul__` a method
of its own, so both are patched next to `__mul__`.

Scalar arithmetic (`CycQ`) is counted, not spanned, since it runs millions
of times; its time therefore lands in the self time of its caller's span.
Every other wrapper records a span [name, start, end, parent, op] in memory.
Self times are computed from those spans after the pass.
"""

from __future__ import annotations

import gzip
from collections import Counter
from time import perf_counter

# span name -> (module, attribute) of the original function
FUNCTIONS = {
    "calculus.twist": ("qforms.calculus", "twist"),
    "calculus.derivative": ("qforms.calculus", "derivative"),
    "calculus.q_bracket": ("qforms.calculus", "q_bracket"),
    "differential.differential": ("qforms.differential", "differential"),
    "differential.differential_power": ("qforms.differential", "differential_power"),
    "differential.is_closed": ("qforms.differential", "is_closed"),
    "parser.parse": ("qforms.parser", "parse"),
    "parser.parse_scalar": ("qforms.parser", "parse_scalar"),
    "parser.render": ("qforms.parser", "render"),
    "checks.run_suites": ("qforms.checks", "run_suites"),
    "cli.main": ("qforms.cli", "main"),
}
# span name -> (module, class, method names)
METHODS = {
    "forms.mul": ("qforms.forms", "Form", ("mul",)),
    "polynomial.mul": ("qforms.polynomial", "Poly", ("__mul__", "__rmul__")),
}
# counted name -> (module, class, method names)
COUNTED = {
    "cyclotomic.mul": ("qforms.cyclotomic", "CycQ", ("__mul__", "__rmul__")),
    "cyclotomic.add": ("qforms.cyclotomic", "CycQ", ("__add__", "__radd__")),
}
LAYERS = ("cyclotomic", "polynomial", "calculus", "forms", "differential", "parser", "checks", "cli")


def _term_count(value) -> int:
    return len(value.terms()) if hasattr(value, "terms") else 1


class Tracer:
    """Counters and spans for one traced pass; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.max_bits = 0
        self.op = -1
        self._stack: list[int] = []
        self._open: Counter = Counter()  # open spans per layer and per span name
        self._patches: list[tuple[object, str, object]] = []

    # hooks that count work at a span boundary -------------------------

    def _before(self, name: str, caller: str, args: tuple) -> None:
        counts = self.counts
        if name == "polynomial.mul":
            counts["polynomial.mul_term_pairs"] += _term_count(args[0]) * _term_count(args[1])
        elif name == "forms.mul":
            counts["forms.word_pairs"] += len(args[0].terms()) * len(args[1].terms())
            if self._open["parser.parse"]:
                counts["parser.mul_calls_in_parse"] += 1
        elif name in ("calculus.twist", "calculus.q_bracket") and caller == "qforms.forms":
            counts["forms.calculus_calls"] += 1
        elif name == "differential.differential":
            counts["differential.terms_in"] += len(args[0].terms())
        elif name == "parser.parse":
            counts["parser.parse_chars"] += len(args[0])
        elif name == "checks.run_suites":
            counts["checks.samples"] += len(args[0]) * args[3]

    def _after(self, name: str, result) -> None:
        if name == "calculus.q_bracket" and result.is_zero():
            self.counts["calculus.q_bracket_zero"] += 1

    # wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn, caller: str):
        layer = name.split(".", 1)[0]
        spans, stack, open_, counts = self.spans, self._stack, self._open, self.counts
        before, after = self._before, self._after

        def wrapper(*args, **kwargs):
            counts[name] += 1
            before(name, caller, args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            open_[layer] += 1
            open_[name] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if open_[layer] == 1:  # escaped the layer, not just one of its spans
                    counts[f"{layer}.errors"] += 1
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
                open_[layer] -= 1
                open_[name] -= 1
            after(name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        layer = name.split(".", 1)[0]
        counts = self.counts

        def wrapper(x, y):
            try:
                result = fn(x, y)
            except Exception:
                counts[f"{layer}.errors"] += 1
                raise
            if result is NotImplemented:
                return result
            counts[name] += 1
            a, b = result.a, result.b
            bits = max(
                a.numerator.bit_length(),
                a.denominator.bit_length(),
                b.numerator.bit_length(),
                b.denominator.bit_length(),
            )
            if bits > self.max_bits:
                self.max_bits = bits
            return result

        return wrapper

    # installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Patch every qforms module in `modules` (name -> module object)."""
        originals = {}
        for name, (module, attr) in FUNCTIONS.items():
            originals[id(getattr(modules[module], attr))] = name
        for module_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is not None:
                    self._patch(module, attr, self._spanned(name, value, module_name))
        for name, (module, cls_name, methods) in METHODS.items():
            cls = getattr(modules[module], cls_name)
            for method in methods:
                self._patch(cls, method, self._spanned(name, vars(cls)[method], module))
        for name, (module, cls_name, methods) in COUNTED.items():
            cls = getattr(modules[module], cls_name)
            for method in methods:
                self._patch(cls, method, self._counted(name, vars(cls)[method]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            out[name] += end - start - child[i]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        out: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def write_spans(self, path) -> None:
        """Spans as gzip'd CSV: name, start_us, end_us, parent index, op id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("name,start_us,end_us,parent,op\n")
            for name, start, end, parent, op in self.spans:
                out.write(
                    f"{name},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},{parent},{op}\n"
                )
