"""The reader of polynomial text, behind `poly.parse_poly`.

Text is parsed by `ast` as a Python expression and built bottom-up: int
literals, names, unary +/-, and the binary operators + - * / and powers
(`^` is read as `**`).  Division is only by a nonzero constant and an
exponent must be a non-negative integer constant.  Each operation is
refused before it is computed when it is above the caps on polynomial text,
and charged to a `ParseBudget`; the caps and the budget are in `poly`.

The module is loaded on the first `parse_poly` call, so a command that
reads no polynomial text (a family, a file of integer literals) never
compiles it or imports `ast`.
"""

from __future__ import annotations

import ast
import re
import sys
from math import comb

from .poly import (
    POWER_BITS_LIMIT,
    POWER_DEGREE_LIMIT,
    POWER_EXPONENT_LIMIT,
    TERM_LIMIT,
    ParseBudget,
    Polynomial,
    PolynomialError,
    parse_rational,
)

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _coefficient_bits(p: Polynomial) -> int:
    """Bits of the largest numerator or denominator of p's coefficients."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)


def _check_power(base: Polynomial, e: int) -> None:
    """Refuse base^e before computing it when it is above a cap.  A
    coefficient of base^e is a sum of at most t^e products of e
    coefficients of base (t its term count), so it has at most
    e * (b + bit_length(t)) bits, b the bits of base's largest coefficient."""
    if (e > POWER_EXPONENT_LIMIT
            or e * max(base.total_degree(), 0) > POWER_DEGREE_LIMIT
            or e * (_coefficient_bits(base) + len(base.terms).bit_length()) > POWER_BITS_LIMIT):
        raise PolynomialError(
            f"a power with exponent {e} is above the caps on polynomial text: "
            f"exponent {POWER_EXPONENT_LIMIT}, degree {POWER_DEGREE_LIMIT}, "
            f"coefficient bits {POWER_BITS_LIMIT}"
        )


def _check_terms(bound: int) -> None:
    if bound > TERM_LIMIT:
        raise PolynomialError(
            f"a product or power of up to {bound} terms is above the cap on "
            f"polynomial text: {TERM_LIMIT} terms"
        )


# an int literal as `ast` reads one: no leading zero, single underscores
# between digits, not part of a name, a float or another number
_INT_RUN = re.compile(r"(?<![\w.])[1-9](?:_?[0-9])*(?![\w.])")


def _long_literals(text: str) -> tuple:
    """(text with every int literal above the interpreter's limit on int
    text replaced by a fresh name, {name: its digits}): `ast` refuses such
    a literal, `parse_rational` reads it."""
    limit = sys.get_int_max_str_digits()
    prefix = "_digits"
    while prefix in text:  # no name in the text contains a fresh one
        prefix = "_" + prefix
    literals = {}

    def named(match) -> str:
        run = match[0]
        if not limit or len(run) - run.count("_") <= limit:
            return run
        name = f"{prefix}{len(literals)}"
        literals[name] = run
        return name

    return _INT_RUN.sub(named, text), literals


def _from_node(node, budget: ParseBudget, literals: dict) -> Polynomial:
    if isinstance(node, ast.Expression):
        return _from_node(node.body, budget, literals)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return Polynomial.constant(node.value)
        raise PolynomialError(f"non-integer literal {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in literals:  # a long literal, charged as a short one: not at all
            return Polynomial.constant(parse_rational(literals[node.id]))
        return Polynomial.variable(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _from_node(node.operand, budget, literals)
        budget.charge(len(inner.terms), len(inner.variables), _coefficient_bits(inner), 0)
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        left = _from_node(node.left, budget, literals)
        right = _from_node(node.right, budget, literals)
        if isinstance(node.op, ast.Pow):
            if not right.is_constant():
                raise PolynomialError("exponent must be a constant")
            e = right.constant_value()
            if e.denominator != 1 or e < 0:
                raise PolynomialError(f"exponent must be a non-negative integer, got {e}")
            e = int(e)
            _check_power(left, e)
            t = max(len(left.terms), 1)
            _check_terms(comb(t + e - 1, e))
            half = e // 2
            bits = half * (_coefficient_bits(left) + t.bit_length())
            budget.charge(comb(t + half - 1, half) ** 2, len(left.variables), bits, bits)
            return left ** e
        if isinstance(node.op, ast.Div) and not right.is_constant():
            raise PolynomialError("division only by constants in polynomial text")
        if isinstance(node.op, ast.Div) and not right:
            raise PolynomialError("division by zero in polynomial text")
        pairs = len(left.terms) + len(right.terms)
        if isinstance(node.op, ast.Mult):
            pairs = len(left.terms) * len(right.terms)
            _check_terms(pairs)
        budget.charge(pairs, len(set(left.variables) | set(right.variables)),
                      _coefficient_bits(left), _coefficient_bits(right))
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        return left / right.constant_value()
    raise PolynomialError(f"unsupported syntax: {ast.dump(node)}")


def parse_text(text: str, budget: ParseBudget) -> Polynomial:
    """The polynomial of `text`, its parse work charged to `budget`;
    `parse_poly` then fixes its variables."""
    source, literals = _long_literals(text.replace("^", "**").strip())
    try:  # text nested too deeply for the parser or `_from_node` recurses too far
        tree = ast.parse(source, mode="eval")
        return _from_node(tree, budget, literals)
    except (SyntaxError, RecursionError) as e:
        raise PolynomialError(f"cannot parse polynomial {text!r}: {e}") from None
