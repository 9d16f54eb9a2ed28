"""Text front end: parsing, and the canonical text of every value.

Grammar (whitespace insignificant):

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := 'x' | 'dx' | 'd2x' | 'q' | rational | '(' expr ')'
    rational := uint ('/' uint)?
    uint     := one or more of the ASCII digits 0123456789

A leading '-' reads as 0 - term. '^' binds tighter than '*', which binds
tighter than '+' and '-'; '*' evaluates left to right, and the product is
associative and exact, so re-associating a product cannot change the
parsed value. Values are a Form's own layout (forms.Value): a canonical,
zero-free map word (k, m) -> degree -> (a, b, d), reduced after every
operation by forms._reduced. A sum adds its terms into one unreduced map
(forms._add_value), and parse wraps its reduced result in the one Form it
builds. A right factor that is a constant times one word needs no rewriting
and is written down on those ints (_product): it shifts each left word, at
the swap scalar q**(2mj), and never reaches the scalar table. A power of one
term c*x**d on the empty word, or of a constant on any word, is one closed
formula (_power). Every other '*' is the product kernel forms._mul, and
every other 'base^N' takes O(log N) kernel products by repeated squaring;
either way the value is that of N left-to-right factors.

All canonical text is written here: render for forms, poly_text for
coefficient polynomials (Poly.__str__) and scalar_text for scalars
(CycQ.__str__). Each is built from one primitive, the sign and unsigned
text of coeff * tail, where an empty tail is a bare scalar, and one join:
' + '/' - ' between form terms, '+'/'-' inside a coefficient. Scalars are
written from cyclotomic._ratios, render's straight from a Form's ints.
Rendered text parses back to the same form under the same configuration.

Limits, each raising ParseError at the offending token: an integer literal
may have at most MAX_DIGITS significant digits, an exponent token may not
exceed MAX_EXPONENT, a power base^N whose x or d2x power could exceed
MAX_EXPONENT (N times the base's largest) or whose number of terms could
exceed MAX_POWER_TERMS (_power_terms) is refused at N before any product,
and parentheses may nest at most MAX_DEPTH levels deep.
"""

from __future__ import annotations

from math import comb

from .calculus import CalculusConfig
from .cyclotomic import _Q_TRIPLES, CycQ, Q, _int_power, _lowest, _ratios, _times
from .forms import Form, Sums, Value, _add_value, _by_word, _form, _mul, _reduced
from .polynomial import _scale


class ParseError(Exception):
    """Syntax error carrying the character offset where it was detected."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


MAX_EXPONENT = 10_000
"""Largest exponent token after '^', and largest x or d2x power a '^' may build."""

MAX_POWER_TERMS = 1_000
"""Most terms x^d * dx^k * d2x^m that _power_terms may predict for a power base^N."""

MAX_DEPTH = 100
"""Deepest parenthesis nesting accepted; each level costs four stack frames."""

MAX_DIGITS = 4_300
"""Most significant digits in an integer literal; CPython's default int/str limit."""

Token = tuple[str, str, int]  # kind, text, position


# Values are never mutated, so the atoms below are shared by every parse.
_ONE = _Q_TRIPLES[0]
_ATOMS: dict[str, Value] = {
    "x": {(0, 0): {1: _ONE}},
    "q": {(0, 0): {0: _Q_TRIPLES[1]}},
    "dx": {(1, 0): {0: _ONE}},
    "d2x": {(0, 1): {0: _ONE}},
}


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "+-*^/()":
            tokens.append(("op", ch, i))
            i += 1
        elif "0" <= ch <= "9":  # ASCII only; str.isdecimal takes every script's digits
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word not in _ATOMS:
                raise ParseError(f"unknown symbol {word!r}", i)
            tokens.append(("name", word, i))
            i = j
        elif ch.isspace():
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], cfg: CalculusConfig) -> None:
        self.tokens = tokens[::-1]  # the next token last: peek is [-1], advance is pop()
        self._cfg = cfg
        self._depth = 0

    def expr(self) -> Sums:
        """The signed sum of the terms as one _add_into sums map per word,
        unreduced: parse and a group reduce it once."""
        tokens = self.tokens
        sums: Sums = {}
        sign = 1
        kind, text, _ = tokens[-1]
        if kind == "op" and text == "-":
            tokens.pop()
            sign = -1
        while True:
            _add_value(sums, self.term(), sign)
            kind, text, _ = tokens[-1]
            if not (kind == "op" and text in "+-"):
                return sums
            tokens.pop()
            sign = 1 if text == "+" else -1

    def term(self) -> Value:
        tokens = self.tokens
        value = self.factor()
        while True:
            kind, text, _ = tokens[-1]
            if kind == "op" and text == "*":
                tokens.pop()
                value = _product(value, self.factor(), self._cfg)
            else:
                return value

    def factor(self) -> Value:
        tokens = self.tokens
        base = self.base()
        kind, text, _ = tokens[-1]
        if kind == "op" and text == "^":
            tokens.pop()
            kind, text, pos = tokens.pop()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            digits = text.lstrip("0") or "0"
            # the length test keeps int() off tokens too long for it to convert
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT}", pos)
            n = int(digits)
            # base^n has at most n times the base's top x and d2x powers
            top = 0
            for (_, m), poly in base.items():
                top = max(top, m, *poly)
            if n * top > MAX_EXPONENT:
                raise ParseError(f"power exceeds degree {MAX_EXPONENT} in x or d2x", pos)
            if n > 1 and _power_terms(base, n, self._cfg.anyonic) > MAX_POWER_TERMS:
                raise ParseError(f"power may exceed {MAX_POWER_TERMS} terms", pos)
            return _power(base, n, self._cfg)
        return base

    def base(self) -> Value:
        tokens = self.tokens
        kind, text, pos = tokens.pop()
        if kind == "int":
            numerator, denominator = _literal(text, pos), 1
            kind, slash, _ = tokens[-1]
            if kind == "op" and slash == "/":
                tokens.pop()
                kind, denom_text, denom_pos = tokens.pop()
                if kind != "int":
                    raise ParseError("expected a denominator", denom_pos)
                denominator = _literal(denom_text, denom_pos)
                if not denominator:
                    raise ParseError("zero denominator", denom_pos)
            if not numerator:
                return {}
            return {(0, 0): {0: _lowest(numerator, 0, denominator)}}
        if kind == "name":
            return _ATOMS[text]
        if kind == "op" and text == "(":
            if self._depth == MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than {MAX_DEPTH} levels", pos)
            self._depth += 1
            value = _reduced(self.expr())
            kind, text, pos = tokens.pop()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", pos)
            self._depth -= 1
            return value
        raise ParseError("expected 'x', 'dx', 'd2x', 'q', a rational, or '('", pos)


def _literal(text: str, pos: int) -> int:
    """The value of an integer token, checked against MAX_DIGITS before int() sees it."""
    digits = text.lstrip("0") or "0"
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"integer literal exceeds the limit of {MAX_DIGITS} digits", pos)
    return int(digits)


def _power_terms(base: Value, n: int, truncated: bool) -> int:
    """An upper bound on the number of terms x^d * dx^k * d2x^m of base^n,
    read off the base alone.

    The grade k + 2m and the weight d + k + m add up under the product,
    bracket words included, and together fix a term up to k in {0, 2}. So
    each of the C(n+t-1, n) multisets of n of the base's t terms leaves at
    most one term, or two once a d2x can push past a nonconstant coefficient.
    And base^n has at most one term per word and degree in range: m <= n*M
    and d <= n*A for the base's largest d2x and x powers, d <= 2 when
    truncated, and k in {0, 1, 2}, only {0, 2} without a dx in the base, and
    only 0 without brackets either. The bound is the smaller of the two.
    """
    t = sum(map(len, base.values()))
    if t < 2:
        return 2 * t  # one multiset, or none
    top_x = max(max(poly) for poly in base.values())
    top_d2x = max(m for _, m in base)
    per_multiset = 2 if top_x and top_d2x else 1
    dx_powers = 3 if any(k for k, _ in base) else per_multiset
    degrees = min(n * top_x, 2) if truncated else n * top_x
    words_times_degrees = dx_powers * (n * top_d2x + 1) * (degrees + 1)
    return min(per_multiset * comb(n + t - 1, n), words_times_degrees)


def _product(left: Value, right: Value, cfg: CalculusConfig) -> Value:
    """left * right in cfg's mode; equal to the form product.

    A right factor that is one constant c on one word dx**j d2x**n, which
    every twist fixes and whose derivative is zero, needs no rewriting: it
    moves each left term (f, k, m) to f * c * q**(2mj) on dx**(k+j)
    d2x**(m+n), dropped once k + j >= 3, and leaves no bracket term. Any
    other product is the kernel forms._mul.
    """
    if len(right) == 1:
        (((j, n), g),) = right.items()
        if len(g) == 1 and 0 in g:
            out = {}
            for (k, m), f in left.items():
                if k + j < 3:
                    out[k + j, m + n] = _scale(f, _times(g[0], _Q_TRIPLES[2 * m * j % 3]))
            return out
    return _mul(left, right, cfg.alpha, cfg.anyonic)


def _power(base: Value, n: int, cfg: CalculusConfig) -> Value:
    """base^n, in closed form or by square-and-multiply (at most 2*log2(n)
    kernel products).

    A one-term base c*x**d * dx**j d2x**m with d == 0 or j == m == 0 never
    pushes its coefficient past a word, so its power is c**n * x**(d*n) *
    dx**(j*n) d2x**(m*n) times q**(2mj) for each of the n(n-1)/2 swaps of a
    dx**j left past a d2x**m; zero once j*n >= 3, or d*n >= 3 when
    truncated. c**n is cyclotomic._int_power, as in CycQ.__pow__.
    """
    truncated = cfg.anyonic
    if len(base) == 1:
        (((j, m), poly),) = base.items()
        if len(poly) == 1:
            ((d, c),) = poly.items()
            if not d or not (j or m):
                if j * n >= 3 or truncated and d * n >= 3:
                    return {}
                swaps = _Q_TRIPLES[m * j * n * (n - 1) % 3]
                return {(j * n, m * n): {d * n: _times(_int_power(c, n), swaps)}}
    if not n:
        return {(0, 0): {0: _ONE}}
    out = None
    while True:
        if n & 1:
            out = base if out is None else _mul(out, base, cfg.alpha, truncated)
        n >>= 1
        if not n:
            return out
        base = _mul(base, base, cfg.alpha, truncated)


def parse(text: str, cfg: CalculusConfig) -> Form:
    """Parse an expression and reduce it to normal form under cfg."""
    parser = _Parser(_tokenize(text), cfg)
    sums = parser.expr()
    kind, _, pos = parser.tokens[-1]
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return _form(_reduced(sums), cfg.anyonic)


_SCALAR_CFG = CalculusConfig(Q)


def parse_scalar(text: str) -> CycQ:
    """Parse a constant scalar such as 'q', '2', '1/2', '1+q' or '-1-1*q'.

    Constant expressions reduce independently of the twist scalar, so this
    is safe to use while building a configuration.
    """
    form = parse(text, _SCALAR_CFG)
    constant = form.coefficient((0, 0)).coefficient(0)
    if form != Form.scalar(constant):
        raise ValueError(f"not a scalar: {text!r}")
    return constant


def render(u: Form) -> str:
    """Deterministic canonical text; parses back to u under u's own mode.

    Terms appear in canonical order (d2x power ascending, then dx power,
    then coefficient degree); multi-term coefficients are parenthesized.
    """
    pieces: list[tuple[str, str]] = []
    for (k, m), coeffs in _by_word(u._terms.items()):
        if (k or m) and len(coeffs) > 1:
            pieces.append(("+", f"({poly_text(coeffs)})*{_word(0, k, m)}"))
            continue
        for degree, scalar in sorted(coeffs.items()):
            ratios, tail = _ratios(*scalar), _word(degree, k, m)
            if tail:
                pieces.append(_piece(ratios, tail))
                continue
            # a constant at the empty word splits into its rational and q parts
            a_num, a_den, b_num, b_den = ratios
            if a_num:
                pieces.append(_signed(a_num, a_den, ""))
            if b_num:
                pieces.append(_signed(b_num, b_den, "q"))
    return _join(pieces, " ")


def poly_text(coeffs: dict[int, tuple[int, int, int]]) -> str:
    """Canonical text of a coefficient map degree -> (a, b, d), e.g. '1-1*q+x^2'."""
    return _join([_piece(_ratios(*t), _word(e)) for e, t in sorted(coeffs.items())], "")


def scalar_text(value: CycQ) -> str:
    """Canonical text of a scalar, e.g. '-1/2', 'q' or '1-1*q'."""
    return _join([_piece(value.ratios(), "")], "")


def _join(pieces: list[tuple[str, str]], gap: str) -> str:
    """Signed pieces as one sum; gap pads the signs after the first piece."""
    if not pieces:
        return "0"
    sign, text = pieces[0]
    out = ["-" + text if sign == "-" else text]
    out.extend(f"{gap}{sign}{gap}{text}" for sign, text in pieces[1:])
    return "".join(out)


def _piece(ratios: tuple[int, int, int, int], tail: str) -> tuple[str, str]:
    """Sign and unsigned text of coeff * tail from coeff.ratios(); tail '' is a bare scalar."""
    a_num, a_den, b_num, b_den = ratios
    if not b_num:
        return _signed(a_num, a_den, tail)
    if not a_num:
        return _signed(b_num, b_den, f"q*{tail}" if tail else "q")
    # a mixed scalar shows both magnitudes, 1 included, and is parenthesized
    # before a tail: 1-1*q, (1-1*q)*x
    a_sign, a_mag = _signed(a_num, a_den, "")
    b_sign, b_mag = _signed(b_num, b_den, "")
    text = f"{a_mag}{b_sign}{b_mag}*q"
    if tail:
        return "+", f"({'-' if a_sign == '-' else ''}{text})*{tail}"
    return a_sign, text


def _signed(num: int, den: int, tail: str) -> tuple[str, str]:
    """Sign and unsigned text of (num/den) * tail, for den > 0 in lowest terms."""
    sign = "-" if num < 0 else "+"
    num = abs(num)
    mag = str(num) if den == 1 else f"{num}/{den}"  # as str(Fraction) writes it
    if not tail:
        return sign, mag
    return sign, tail if num == den else f"{mag}*{tail}"


def _word(degree: int, dx: int = 0, d2x: int = 0) -> str:
    """Text of the word x^degree * dx^dx * d2x^d2x without its zero powers; '' if all are 0."""
    powers = (("x", degree), ("dx", dx), ("d2x", d2x))
    return "*".join(name if n == 1 else f"{name}^{n}" for name, n in powers if n)
