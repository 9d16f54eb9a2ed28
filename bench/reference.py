"""Independent reference answers for the cli_requests workload.

Computes, without importing qforms, what `qforms reduce|diff|grade|closed`
must print for a sum of left-normal terms c*x^a*dx^k*d2x^m. It follows the
termwise rules of the paper and the documented output formats:

* a left-normal term needs no rewriting, so reducing a sum only collects
  coefficients per word dx^k*d2x^m (dx^3 == 0; anyonic mode drops x^3 and up);
* the differential acts termwise on f at dx^k*d2x^m:
      k == 0:  derivative(f) * dx * d2x^m
      k == 1:  f * d2x^(m+1) + derivative(f) * dx^2 * d2x^m
      k == 2:  -f * dx * d2x^(m+1)
  with derivative(x^n) == [n]_alpha * x^(n-1), [n]_alpha = 1 + alpha + ...;
* text output lists terms by d2x power, then dx power, coefficient degrees
  ascending; JSON encodes coefficients as [a_num, a_den, b_num, b_den].

Scalars of Q(q) are pairs (a, b) of Fractions meaning a + b*q with q^2 = -1 - q.
A form is a dict {(k, m): {degree: scalar}} holding no zero entries.
"""

from __future__ import annotations

import json
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
Q = (Fraction(0), Fraction(1))


def s_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def s_mul(x, y):
    cross = x[1] * y[1]
    return (x[0] * y[0] - cross, x[0] * y[1] + x[1] * y[0] - cross)


def s_neg(x):
    return (-x[0], -x[1])


def q_integer(n, alpha):
    """[n]_alpha = 1 + alpha + ... + alpha^(n-1), by iteration."""
    total, power = ZERO, ONE
    for _ in range(n):
        total = s_add(total, power)
        power = s_mul(power, alpha)
    return total


# forms -----------------------------------------------------------------


def add_term(form, word, degree, coeff, anyonic):
    """Add coeff * x^degree at word (k, m) into form, in place."""
    k, m = word
    if k >= 3 or (anyonic and degree >= 3) or coeff == ZERO:
        return
    poly = form.setdefault(word, {})
    total = s_add(poly.get(degree, ZERO), coeff)
    if total == ZERO:
        poly.pop(degree, None)
        if not poly:
            del form[word]
    else:
        poly[degree] = total


def from_terms(terms, anyonic):
    """Normal form of a sum of left-normal terms (coeff, a, k, m)."""
    form = {}
    for coeff, a, k, m in terms:
        add_term(form, (k, m), a, coeff, anyonic)
    return form


def differential(form, alpha, anyonic):
    out = {}
    for (k, m), poly in form.items():
        for degree, c in poly.items():
            if degree >= 1:
                dc = s_mul(q_integer(degree, alpha), c)
            if k == 0:
                if degree >= 1:
                    add_term(out, (1, m), degree - 1, dc, anyonic)
            elif k == 1:
                add_term(out, (0, m + 1), degree, c, anyonic)
                if degree >= 1:
                    add_term(out, (2, m), degree - 1, dc, anyonic)
            else:
                add_term(out, (1, m + 1), degree, s_neg(c), anyonic)
    return out


def grades(form):
    """Homogeneous components keyed by grade k + 2m, ascending."""
    out = {}
    for (k, m), poly in form.items():
        out.setdefault(k + 2 * m, {})[(k, m)] = poly
    return dict(sorted(out.items()))


# text ------------------------------------------------------------------


def scalar_text(c):
    """Text of a + b*q as a standalone scalar: '0', '3/2', '-q', '2-1*q'."""
    a, b = c
    if not a and not b:
        return "0"
    if not b:
        return str(a)
    if not a:
        return "q" if b == 1 else "-q" if b == -1 else f"{b}*q"
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*q"


def signed_product(c, tail):
    """(sign, unsigned text) for c * tail, tail a nonempty word."""
    a, b = c
    if a and b:
        return "+", f"({scalar_text(c)})*{tail}"
    value = b if b else a
    sign = "+" if value > 0 else "-"
    mag = abs(value)
    head = ("q" if mag == 1 else f"{mag}*q") if b else ("" if mag == 1 else f"{mag}")
    return sign, f"{head}*{tail}" if head else tail


def x_text(degree):
    return "x" if degree == 1 else f"x^{degree}"


def word_text(k, m):
    parts = []
    if k:
        parts.append("dx" if k == 1 else f"dx^{k}")
    if m:
        parts.append("d2x" if m == 1 else f"d2x^{m}")
    return "*".join(parts)


def poly_text(poly):
    """A multi-term coefficient as written inside parentheses."""
    out = []
    for degree, c in sorted(poly.items()):
        if degree == 0:
            out.append(scalar_text(c))
            continue
        sign, text = signed_product(c, x_text(degree))
        if out:
            out.append(sign + text)
        else:
            out.append(text if sign == "+" else "-" + text)
    return "".join(out)


def render(form):
    pieces = []
    for (k, m), poly in sorted(form.items(), key=lambda item: (item[0][1], item[0][0])):
        items = sorted(poly.items())
        if (k, m) == (0, 0):
            for degree, c in items:
                if degree:
                    pieces.append(signed_product(c, x_text(degree)))
                    continue
                # a constant splits into its rational and q parts
                a, b = c
                if a:
                    pieces.append(("+" if a > 0 else "-", str(abs(a))))
                if b:
                    mag = abs(b)
                    pieces.append(("+" if b > 0 else "-", "q" if mag == 1 else f"{mag}*q"))
            continue
        word = word_text(k, m)
        if len(items) > 1:
            pieces.append(("+", f"({poly_text(poly)})*{word}"))
            continue
        degree, c = items[0]
        tail = f"{x_text(degree)}*{word}" if degree else word
        pieces.append(signed_product(c, tail))
    if not pieces:
        return "0"
    sign, text = pieces[0]
    out = ["-" + text if sign == "-" else text]
    out.extend(f" {sign} {text}" for sign, text in pieces[1:])
    return "".join(out)


def to_dict(form, anyonic):
    return {
        "mode": "anyonic" if anyonic else "generic",
        "terms": [
            {
                "dx": k,
                "d2x": m,
                "coeff": [
                    [d, [c[0].numerator, c[0].denominator, c[1].numerator, c[1].denominator]]
                    for d, c in sorted(poly.items())
                ],
            }
            for (k, m), poly in sorted(form.items(), key=lambda item: (item[0][1], item[0][0]))
        ],
    }


def expected_output(command, times, output, terms, alpha, anyonic):
    """Exact stdout of `qforms <command>` on the sum of the given terms."""
    form = from_terms(terms, anyonic)
    if command == "reduce" or command == "diff":
        for _ in range(times if command == "diff" else 0):
            form = differential(form, alpha, anyonic)
        if output == "json":
            return json.dumps(to_dict(form, anyonic)) + "\n"
        return render(form) + "\n"
    if command == "grade":
        parts = grades(form)
        if output == "json":
            return json.dumps({str(g): to_dict(c, anyonic) for g, c in parts.items()}) + "\n"
        return "".join(f"{g}: {render(c)}\n" for g, c in parts.items())
    if command == "closed":
        closed = not differential(form, alpha, anyonic)
        if output == "json":
            return json.dumps({"closed": closed}) + "\n"
        return ("true" if closed else "false") + "\n"
    raise ValueError(f"no reference for {command!r}")
