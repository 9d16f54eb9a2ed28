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
zero-free map word (k, m) -> degree -> (a, b, d), canonical as each step
builds it. A sum of two or more terms adds them into one unreduced map
(forms._add_value), which forms._reduced reduces once, and only where an add
was over d != 1 or cancelled; a sum of terms over d == 1 that never cancel,
like a single term, is taken as it is, negated word by word after a '-'.
parse wraps the value in the one Form it builds. A term typed in
left-normal order, such as 3/2*q*x^2*dx*d2x^2, is already its normal form
up to a power of q and the deaths dx**3 == 0 and, anyonic, x**3 == 0, so
term folds its generator powers and literals into four ints, c*x**e*dx**k*
d2x**m, and builds the term's value once. From the first step the fold does
not take, each '*' is one closed formula where no rewriting is needed
(_product), and otherwise the kernel product forms._mul. A power of a
literal or a group squares and multiplies through '*' (_power), in about
2*log2(N) closed or kernel steps. Either way a term's value is that of its
factors multiplied from left to right.

All canonical text is written here: render for forms, poly_text for
coefficient polynomials (Poly.__str__) and scalar_text for scalars
(CycQ.__str__). Each is built from one primitive, the sign and unsigned
text of coeff * tail, where an empty tail is a bare scalar, and one join:
' + '/' - ' between form terms, '+'/'-' inside a coefficient. Scalars are
written from cyclotomic._ratios, render's straight from a Form's ints;
words and degrees are sorted only where there are two or more.

Limits, each raising ParseError at the offending token, are the constants
below: literal digits, exponents and N times a base's largest x or d2x power
(checked before any product), nesting depth, and MAX_WORK, the budget each
kernel product, and each closed product by a constant longer than 64 bits,
is priced against (_price) before it runs: (1+x)^300 parses, (1+x)^999
does not. Rendered text parses back to the same form under the same
configuration only inside these limits: x^10000*x^5000 parses to x^15000,
whose text does not.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

from .calculus import CalculusConfig
from .cyclotomic import _Q_TRIPLES, CycQ, Q, _int_norm, _lowest, _of, _ratios, _times
from .forms import Form, Sums, Value, _add_value, _by_word, _form, _mul, _reduced
from .polynomial import _negated


class ParseError(Exception):
    """Syntax error carrying the character offset where it was detected."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


MAX_EXPONENT = 10_000
"""Largest exponent token after '^', and largest x or d2x power a '^' may build."""
_EXPONENT_DIGITS = len(str(MAX_EXPONENT))

MAX_WORK = 10_000_000
"""Most work one parse may price (_price), in units of about one 64-bit limb product: 0.6-13 ns each on a
Xeon core, 0.01-0.13 s in all. Ints past about 10^4 bits multiply by Karatsuba, below their schoolbook price,
so (1+10^50*x)^60 is refused although it runs in under 0.01 s. A closed product by a constant of at most 64
bits is not priced, so a chain of them scaling a large left factor runs past that: the 4 KB
(1+x)^500*q*q*...*q parses in 0.50 s, and the 4 KB (1+x+d2x)^20*2*2*...*2 at alpha 2 in 0.48 s (median of 5,
CPython 3.11 on a shared 2-core Xeon host)."""

MAX_DEPTH = 100
"""Deepest parenthesis nesting accepted; each level costs four stack frames."""

MAX_DIGITS = 4_300
"""Most significant digits in an integer literal, CPython's default int/str limit. The limit that applies
(_digit_limit) is the smaller of this and the interpreter's own, sys.get_int_max_str_digits(), when nonzero."""

Token = tuple[str, str, int]  # kind, text, position; no other kind has an operator's text


_ONE = _Q_TRIPLES[0]
_ATOMS = frozenset(("x", "q", "dx", "d2x"))  # the generators' names


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
        self._work = 0  # the priced work so far, at most MAX_WORK

    def _charge(self, price: int, pos: int) -> None:
        """Add a step's price to the work; refuse the step at pos past MAX_WORK."""
        if self._work + price > MAX_WORK:
            raise ParseError(f"work exceeds the limit of {MAX_WORK} units", pos)
        self._work += price

    def expr(self) -> Value:
        """The signed sum of the terms, canonical: one term is its value as it
        is, negated word by word after a leading '-'; two or more add into one
        _add_into map per word, which _reduced reduces when an add said it
        must (_add_value)."""
        tokens = self.tokens
        sign = -1 if tokens[-1][1] == "-" else 1
        if sign < 0:
            tokens.pop()
        value = self.term()
        kind, text, _ = tokens[-1]
        if not (kind == "op" and text in "+-"):
            return value if sign > 0 else {word: _negated(coeffs) for word, coeffs in value.items()}
        sums: Sums = {}
        reduce = False
        while True:
            reduce |= _add_value(sums, value, sign)
            kind, text, _ = tokens[-1]
            if not (kind == "op" and text in "+-"):
                return _reduced(sums) if reduce else sums
            tokens.pop()
            sign = 1 if text == "+" else -1
            value = self.term()

    def term(self, once: bool = False) -> Value:
        """The product of the factors, or of the next factor alone when once.
        While each '*' is a step _product takes closed on a one-term left,
        the product is one monomial c*x**e*dx**k*d2x**m, c an (a, b, d)
        triple: q^n and literals multiply c, x^n adds n to e while k == m ==
        0, dx^n multiplies c by q**(2mn) and adds n to k, and d2x^n adds n to
        m; dx**3 and, anyonic, x**3 are 0. Its value is built once. The first
        other factor (x after a dx or d2x, a group, a power of a literal, a
        right literal of 64 bits or more, a zero) and every later one go
        through _product, so errors and charges are the left-to-right
        product's."""
        tokens, anyonic = self.tokens, self._cfg.anyonic
        c, e, k, m = _ONE, 0, 0, 0
        pos = -1  # the '*' before the factor; -1 at the first
        while True:
            kind, text, _ = tokens[-1]
            if kind == "name":
                tokens.pop()
                n = self._exponent()[0] if tokens[-1][1] == "^" else 1
                if text == "x":
                    if n and (k or m):  # x past a dx or d2x: the kernel rewrites it
                        right = {(0, 0): {n: _ONE}} if n < 3 or not anyonic else {}
                        break
                    e += n
                elif text == "dx":
                    if m * n % 3:
                        c = _times(c, _Q_TRIPLES[2 * m * n % 3])
                    k += n
                elif text == "d2x":
                    m += n
                elif n % 3:
                    c = _times(c, _Q_TRIPLES[n % 3])
                if k > 2 or anyonic and e > 2:  # dx**3 == 0, and x**3 == 0 anyonic
                    right = {}
                    break
            elif kind == "int":
                t = self._rational()
                # a power, a zero, or a right literal long enough for _product to price
                if tokens[-1][1] == "^" or not t[0] or pos >= 0 and (abs(t[0]) | t[2]) >> 64:
                    right = self._raised({(0, 0): {0: t}} if t[0] else {})
                    break
                c = _times(c, t)
            else:
                right = self._raised(self.base())
                break
            if once or tokens[-1][1] != "*":
                return {(k, m): {e: c}}
            pos = tokens.pop()[2]
        cfg, charge = self._cfg, self._charge
        value = right if pos < 0 else _product({(k, m): {e: c}}, right, cfg, charge, pos)
        while not once and tokens[-1][1] == "*":
            pos = tokens.pop()[2]
            value = _product(value, self.term(True), cfg, charge, pos)
        return value

    def _exponent(self) -> tuple[int, int]:
        """Pop a '^' and its exponent token: the exponent, at most
        MAX_EXPONENT, and the token's position."""
        tokens = self.tokens
        tokens.pop()
        kind, text, pos = tokens.pop()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer", pos)
        digits = text.lstrip("0") or "0"
        # the length test keeps int() off tokens too long for it to convert
        if len(digits) > _EXPONENT_DIGITS or (n := int(digits)) > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT}", pos)
        return n, pos

    def _raised(self, base: Value) -> Value:
        """base, or base^n after a '^'."""
        if self.tokens[-1][1] != "^":
            return base
        n, pos = self._exponent()
        # base^n has at most n times the base's top x and d2x powers
        top = 0
        for (_, m), poly in base.items():
            top = max(top, m, *poly)
        if n * top > MAX_EXPONENT:
            raise ParseError(f"power exceeds degree {MAX_EXPONENT} in x or d2x", pos)
        return _power(base, n, self._cfg, self._charge, pos)

    def _rational(self) -> tuple[int, int, int]:
        """The canonical triple of the literal at the next token, a/b or a."""
        tokens = self.tokens
        _, text, pos = tokens.pop()
        numerator, denominator = _literal(text, pos), 1
        if tokens[-1][1] == "/":
            tokens.pop()
            kind, denom_text, denom_pos = tokens.pop()
            if kind != "int":
                raise ParseError("expected a denominator", denom_pos)
            denominator = _literal(denom_text, denom_pos)
            if not denominator:
                raise ParseError("zero denominator", denom_pos)
        return _lowest(numerator, 0, denominator)

    def base(self) -> Value:
        """A parenthesized group; term reads every other base."""
        tokens = self.tokens
        kind, text, pos = tokens.pop()
        if kind == "op" and text == "(":
            if self._depth == MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than {MAX_DEPTH} levels", pos)
            self._depth += 1
            value = self.expr()
            kind, text, pos = tokens.pop()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", pos)
            self._depth -= 1
            return value
        raise ParseError("expected 'x', 'dx', 'd2x', 'q', a rational, or '('", pos)


def _digit_limit() -> int:
    """MAX_DIGITS, or the interpreter's int/str digit limit where lower and nonzero (none before Python 3.10.7)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() == 0
    return min(limit, MAX_DIGITS) if limit else MAX_DIGITS


def _literal(text: str, pos: int) -> int:
    """The value of an integer token, checked against _digit_limit() before int() sees it."""
    digits = text.lstrip("0") or "0"
    if len(digits) > (limit := _digit_limit()):
        raise ParseError(f"integer literal exceeds the limit of {limit} digits", pos)
    return int(digits)


def _growth(s: tuple[int, int, int]) -> int:
    """Bits each factor adds to s**n: none at a root of unity, else those of s's longest int."""
    return 0 if s[2] == 1 and _int_norm(s[0], s[1]) == 1 else max(map(abs, s)).bit_length()


def _limbs(value: Value) -> int:
    """64-bit limbs of the longest int of a value; | keeps the longest bit length."""
    top = 0
    for coeffs in value.values():
        for a, b, d in coeffs.values():
            top |= abs(a) | abs(b) | d
    return 1 + top.bit_length() // 64


def _price(left: Value, right: Value, alpha: CycQ) -> int:
    """The price of the kernel product left * right, in units of about one
    64-bit limb product. Each live word of a pair (f on dx**k d2x**m, g on
    dx**j), the top word and, off alpha == q, the bracket word, which drops
    g's constants and so lives only on a g of positive degree, costs 256, and
    per term of g its twist scalar alpha**x, x = e*(m+k) for g's top degree
    e: 64 per bit of x plus the square of its limbs. Per term pair it costs
    64 plus twice the product of the limbs of f and of g times the scalar.
    """
    ints = (alpha._a, alpha._b, alpha._d)
    grow, brackets = _growth(ints), ints != _Q_TRIPLES[1]
    lf, lg, price = _limbs(left), _limbs(right), 0
    for (k, m), f in left.items():
        for (j, _), g in right.items():
            e = max(g)
            live = (k + j < 3) + (brackets and e > 0 and not k and not j and m > 0)  # the top and bracket words
            x = e * (m + k)
            ls = 1 + x * grow // 64
            price += live * (256 + len(g) * (64 * x.bit_length() + ls * ls + len(f) * (64 + 2 * lf * (lg + ls))))
    return price


def _product(left: Value, right: Value, cfg: CalculusConfig, charge: Callable[[int, int], None], pos: int) -> Value:
    """left * right in cfg's mode, equal to the form product, charged at the
    '*' or exponent token at pos. A right factor c*x**e on one word dx**j
    d2x**n needs no rewriting when e == 0, as every twist fixes c and its
    derivative is zero, or when the left is one term on the empty word, with
    nothing to pass. Each left term (f, k, m) then moves to f * c * x**e *
    q**(2mj) on dx**(k+j) d2x**(m+n), dropped once k + j >= 3; anyonic,
    degrees of 3 or more drop, and so does a word left empty. Any other
    product is the kernel forms._mul. Both are charged _price first, the
    first only for a c longer than 64 bits (see MAX_WORK). A zero operand
    gives zero, unpriced, as its price would be 0. term folds what it can
    first; the closed path serves the rest, such as many-term lefts."""
    if not left or not right:
        return {}
    if len(right) == 1:
        (((j, n), g),) = right.items()
        if len(g) == 1:
            ((e, c),) = g.items()
            if not e or len(left) == 1 and len(left.get((0, 0), ())) == 1:
                if (abs(c[0]) | abs(c[1]) | c[2]) >> 64:
                    charge(_price(left, right, cfg.alpha), pos)
                out, anyonic = {}, cfg.anyonic
                for (k, m), f in left.items():
                    if k + j < 3:
                        s = _times(c, _Q_TRIPLES[2 * m * j % 3]) if m * j % 3 else c
                        coeffs = {d + e: t if s == _ONE else _times(t, s)
                                  for d, t in f.items() if d + e < 3 or not anyonic}
                        if coeffs:
                            out[k + j, m + n] = coeffs
                return out
    charge(_price(left, right, cfg.alpha), pos)
    return _mul(left, right, cfg.alpha, cfg.anyonic)


def _power(base: Value, n: int, cfg: CalculusConfig, charge: Callable[[int, int], None], pos: int) -> Value:
    """base^n for a literal or a group (term folds the powers of a
    generator) by square-and-multiply from the top bit down: at most
    2*log2(n) steps, each through _product, so closed where it can be and
    charged at pos as it prices."""
    if not n:
        return {(0, 0): {0: _ONE}}
    out = base
    for bit in bin(n)[3:]:
        out = _product(out, out, cfg, charge, pos)
        if bit == "1":
            out = _product(out, base, cfg, charge, pos)
    return out


def parse(text: str, cfg: CalculusConfig) -> Form:
    """Parse an expression and reduce it to normal form under cfg."""
    parser = _Parser(_tokenize(text), cfg)
    value = parser.expr()
    kind, _, pos = parser.tokens[-1]
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return _form(value, cfg.anyonic)


_SCALAR_CFG = CalculusConfig(Q)


def parse_scalar(text: str) -> CycQ:
    """Parse a constant scalar such as 'q', '2', '1/2', '1+q' or '-1-1*q';
    constant expressions reduce independently of the twist scalar, so this
    is safe to use while building a configuration. The canonical value is
    a scalar when it holds no word but the empty one, and no degree there
    but 0: zero, or one (a, b, d), which is returned as it is."""
    value = parse(text, _SCALAR_CFG)._terms
    coeffs = value.get((0, 0), {})
    if len(value) > bool(coeffs) or max(coeffs, default=0) > 0:
        raise ValueError(f"not a scalar: {text!r}")
    return _of(coeffs.get(0, (0, 0, 1)))


def render(u: Form) -> str:
    """Deterministic canonical text; parses back to u under u's own mode
    while the text stays inside the parser's limits (see the module doc).

    Terms appear in canonical order (d2x power ascending, then dx power,
    then coefficient degree); multi-term coefficients are parenthesized.
    """
    pieces: list[tuple[str, str]] = []
    for (k, m), coeffs in _by_word(u._terms):
        if (k or m) and len(coeffs) > 1:
            pieces.append(("+", f"({poly_text(coeffs)})*{_word(0, k, m)}"))
            continue
        for degree, scalar in sorted(coeffs.items()) if len(coeffs) > 1 else coeffs.items():
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
    first = "-" + text if sign == "-" else text
    if len(pieces) == 1:
        return first
    out = [first]
    for sign, text in pieces[1:]:
        out.append(f"{gap}{sign}{gap}{text}")
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
    parts = []
    if degree:
        parts.append("x" if degree == 1 else f"x^{degree}")
    if dx:
        parts.append("dx" if dx == 1 else f"dx^{dx}")
    if d2x:
        parts.append("d2x" if d2x == 1 else f"d2x^{d2x}")
    return "*".join(parts)
