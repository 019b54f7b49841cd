"""Expression parsing and canonical printing for tower polynomials.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := atom (('^' | '**') nat)?
    atom    := nat | 'i' | 'sqrt' '(' expr ')' | 'z' | '(' expr ')' | '-' factor

Tokens come from one pass of a single pattern, whose last alternative
catches a stray character.  Values are sparse, {degree: nonzero
coefficient}; each parse builds one dense Polynomial, at the end.

A power multiplies its base out once per unit of the exponent, so both the
exponent and the degree of the power are capped at MAX_POWER (200): the
densest power the cap admits, (z + 1 + i + sqrt(2) + sqrt(3))^200, parses
in under a second, and a larger one raises ParseError instead of
running for minutes.  A constant base has degree 0, so the exponent times
the bits of the base's largest numerator or denominator is capped too, at
MAX_POWER_BITS: the size of the longest integer literal the parser reads.
No parsed coefficient may pass that literal, 10**MAX_DIGITS - 1, or it could
not be printed: a finished parse is checked, and so are the end
coefficients of a power of a non-constant base, before it is multiplied out.
A computed result can still pass it (a monic radical divides by the leading
coefficient), and the printer raises PrintLimitError for such a coefficient.

Division requires a nonzero constant divisor, so `3/4` is the rational
three-quarters and `i/2` is half of i.  `sqrt` takes anything evaluating to a
rational constant; negative radicands normalize through i (sqrt(-2) is
i*sqrt(2)) and square parts are extracted exactly (sqrt(8) is 2*sqrt(2)).
A value the tower cannot represent raises UnknownConstantError.

Printing is deterministic: descending powers of z, each coefficient as a sum
of basis terms ordered rational part first, then square roots by adjunction
order, then i.  parse(print(p)) == p for towers whose radicands are rational.
The generator names and the basis print order are built once per tower.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Iterable

from .errors import (
    NegativeExponentError,
    ParseError,
    PrintLimitError,
    UnknownConstantError,
)
from .field import FieldElement, FieldTower, muladd
from .poly import FactoredPoly, Polynomial

# Largest exponent, and largest degree of a power, that the parser accepts.
MAX_POWER = 200
# Python's int/str digit limit, which `_nat` enforces on literals.  No parsed
# coefficient may pass the largest literal, and its bits (14285) cap the
# exponent times the coefficient bits of a power's base.
MAX_DIGITS = 4300
_MAX_LITERAL = 10**MAX_DIGITS - 1
MAX_POWER_BITS = _MAX_LITERAL.bit_length()

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<pow>\*\*|\^)"
    r"|(?P<op>[-+*/(),;])"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _nat(text: str, pos: int) -> int:
    """A digit token's value; past Python's int/str digit limit, a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal too long ({len(text)} digits)", pos) from None


def _height(value: dict) -> int:
    """Bits of the largest numerator or denominator among the coefficients."""
    return max((max(max(map(abs, c._num)), c._den).bit_length() for c in value.values()), default=0)


def _check_printable(values: Iterable[FieldElement], pos: int | None = None) -> None:
    """ParseError unless each coordinate, reduced as the printer reduces it,
    has numerator and denominator within the largest literal."""
    for x in values:
        for n in x._num:
            top = max(abs(n), x._den)
            if top > _MAX_LITERAL and top // gcd(n, x._den) > _MAX_LITERAL:
                raise ParseError(f"coefficients are capped at {MAX_DIGITS} digits", pos)


def _tokenize(src: str):
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(src)))
    return tokens


# A parsed value is a sparse polynomial {degree: nonzero FieldElement}.
def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        c = out[k] + c if k in out else c
        if c:
            out[k] = c
        else:
            del out[k]
    return out


def _neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for j, x in a.items():
        for k, y in b.items():
            acc = out.get(j + k)
            out[j + k] = x * y if acc is None else muladd(acc, x, y)
    return {k: c for k, c in out.items() if c}


def _constant(value: dict, tower: FieldTower):
    """The value's constant, or None when it involves z."""
    if value.keys() - {0}:
        return None
    return value.get(0, tower.zero)


class _Parser:
    def __init__(self, src: str, tower: FieldTower):
        self.tokens = _tokenize(src)
        self.tower = tower
        self.k = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, text: str):
        kind, got, pos = self.peek()
        if got != text:
            raise ParseError(
                f"expected {text!r}, found {got or 'end of input'!r}",
                pos,
                expected=frozenset({text}),
            )
        return self.advance()

    def fail_atom(self):
        kind, got, pos = self.peek()
        raise ParseError(
            f"expected a number, symbol or '(', found {got or 'end of input'!r}",
            pos,
            expected=frozenset({"number", "i", "sqrt", "z", "(", "-"}),
        )

    # -- grammar -----------------------------------------------------------

    def expr(self) -> dict:
        acc = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            acc = _add(acc, rhs if op == "+" else _neg(rhs))
        return acc

    def term(self) -> dict:
        acc = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.advance()
            rhs = self.factor()
            if op == "*":
                acc = _mul(acc, rhs)
            else:
                if rhs.keys() != {0}:
                    raise ParseError("divisor must be a nonzero constant", pos)
                inv = rhs[0].inverse()
                acc = {k: c * inv for k, c in acc.items()}
        return acc

    def factor(self) -> dict:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind != "pow":
            return base
        self.advance()
        nkind, ntext, npos = self.peek()
        if ntext == "-":
            raise NegativeExponentError("exponents must be natural numbers", npos)
        if nkind != "num":
            raise ParseError(
                f"expected an integer exponent, found {ntext or 'end of input'!r}",
                npos,
                expected=frozenset({"number"}),
            )
        self.advance()
        digits = ntext.lstrip("0")
        n = int(digits or "0") if len(digits) <= 6 else MAX_POWER + 1
        if n > MAX_POWER or max(base, default=0) * n > MAX_POWER:
            raise ParseError(
                f"powers are capped at exponent and degree {MAX_POWER}", npos
            )
        if _height(base) * n > MAX_POWER_BITS:
            raise ParseError(f"powers are capped at {MAX_POWER_BITS}-bit coefficients", npos)
        if len(base) > 1:  # the power's end coefficients, before multiplying out
            _check_printable((base[min(base)] ** n, base[max(base)] ** n), npos)
        out = {0: self.tower.one}
        for _ in range(n):
            out = _mul(out, base)
        return out

    def atom(self) -> dict:
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            n = _nat(text, pos)
            return {0: self.tower.rational(n)} if n else {}
        if text == "-":
            self.advance()
            return _neg(self.factor())
        if text == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            self.advance()
            if text == "z":
                return {1: self.tower.one}
            if text == "i":
                root = self.tower.sqrt_of_rational(-1)
                if root is None:
                    raise UnknownConstantError("'i' is not in the tower", pos)
                return {0: root}
            if text == "sqrt":
                self.expect("(")
                q = _constant(self.expr(), self.tower)
                self.expect(")")
                if q is None or not q.is_rational():
                    raise ParseError(
                        "sqrt argument must be a rational constant", pos
                    )
                q = q.as_fraction()
                root = self.tower.sqrt_of_rational(q)
                if root is None:
                    raise UnknownConstantError(
                        f"sqrt({q}) is not representable in the tower", pos
                    )
                return {0: root} if root else {}
            raise UnknownConstantError(f"unknown symbol {text!r}", pos)
        self.fail_atom()

    # -- entry points ------------------------------------------------------

    def root_mult(self) -> tuple[FieldElement, int]:
        pos0 = self.peek()[2]
        self.expect("(")
        root = _constant(self.expr(), self.tower)
        if root is None:
            raise ParseError("roots must be constants", pos0)
        self.expect(",")
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        kind, text, pos = self.peek()
        if kind != "num":
            raise ParseError(
                f"expected an integer multiplicity, found {text or 'end of input'!r}",
                pos,
                expected=frozenset({"number"}),
            )
        self.advance()
        self.expect(")")
        return root, sign * _nat(text, pos)

    def factored(self) -> FactoredPoly:
        lead = _constant(self.expr(), self.tower)
        if lead is None:
            raise ParseError("leading coefficient must be a constant", 0)
        self.expect(";")
        entries = []
        if self.peek()[0] != "end":
            entries.append(self.root_mult())
            while self.peek()[1] == ",":
                self.advance()
                entries.append(self.root_mult())
        return FactoredPoly(lead, entries)


def _parse_all(src: str, tower: FieldTower, rule, values):
    """Apply one grammar rule to the whole of src; values(result) lists the
    coefficients that _check_printable then checks.

    Each nesting level ('(', sqrt or a unary minus) recurses, so input
    nested past the interpreter's recursion limit is refused as a
    ParseError at the token where parsing stopped.
    """
    p = _Parser(src, tower)
    try:
        out = rule(p)
    except RecursionError:
        raise ParseError("input nested too deeply", p.peek()[2]) from None
    kind, text, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", pos)
    _check_printable(values(out))
    return out


def parse_poly(src: str, tower: FieldTower) -> Polynomial:
    """Parse an expression into a polynomial over the tower."""
    value = _parse_all(src, tower, _Parser.expr, dict.values)
    zero = tower.zero
    return Polynomial(tower, [value.get(k, zero) for k in range(max(value, default=-1) + 1)])


def parse_constant(src: str, tower: FieldTower) -> FieldElement:
    """Parse an expression that must evaluate to a constant."""
    p = parse_poly(src, tower)
    if not p.is_constant():
        raise ParseError("expected a constant expression", 0)
    return p.constant_value()


def parse_factored(src: str, tower: FieldTower) -> FactoredPoly:
    """Parse `gamma ; (root, mult), (root, mult), ...` into factored form."""
    return _parse_all(src, tower, _Parser.factored, lambda f: (f.leading, *f.roots()))


def parse_root_mult(src: str, tower: FieldTower) -> tuple[FieldElement, int]:
    """Parse a single `(root, mult)` entry (divisor file lines)."""
    return _parse_all(src, tower, _Parser.root_mult, lambda entry: entry[:1])


def iter_objects(lines: Iterable[str]):
    """Strip comments and blanks from a line-oriented input file."""
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


# -- printing ---------------------------------------------------------------


def _print_memo(tower: FieldTower):
    """Generator names, e.g. ['i', 'sqrt(2)'], and the basis print order:
    (mask, symbols of its roots, real ones first), by (number of imaginary
    roots, mask).  Radicand idx lies in the subtower on roots 0..idx-1, so
    it prints with the names built so far and never asks for its own.
    """
    memo = tower._print_memo
    if memo is None:
        imag = sum(1 << idx for idx in range(tower.depth) if tower.gen_sign(idx) < 0)
        masks = sorted(range(tower.dim), key=lambda mask: (bin(mask & imag).count("1"), mask))

        def order(names):
            roots = sorted(range(len(names)), key=lambda idx: imag >> idx & 1)
            return [
                (mask, tuple([names[idx] for idx in roots if mask >> idx & 1]))
                for mask in masks
                if mask < 1 << len(names)
            ]

        names: list[str] = []
        for idx in range(tower.depth):
            rad = tower.gen_radicand(idx)
            if rad.is_rational():
                q = rad.as_fraction()
                names.append("i" if q == -1 else f"sqrt({q})")
            else:
                names.append(f"sqrt({_print_element(rad, order(names))})")
        memo = tower._print_memo = (names, order(names))
    return memo


def _basis_terms(x: FieldElement, order) -> list[tuple[int, tuple[str, ...]]]:
    """(sign, '*'-joined atoms) of each nonzero basis term, in print order;
    PrintLimitError for a reduced numerator or denominator past the largest
    literal, which str(int) cannot convert."""
    num, den = x._num, x._den
    terms = []
    for mask, syms in order:
        n = num[mask]
        if n:
            g = gcd(n, den)
            top, bottom = abs(n) // g, den // g
            if top > _MAX_LITERAL or bottom > _MAX_LITERAL:
                raise PrintLimitError(f"printed coefficients are capped at {MAX_DIGITS} digits")
            mag = f"{top}" if bottom == 1 else f"{top}/{bottom}"
            terms.append((-1 if n < 0 else 1, syms if mag == "1" and syms else (mag, *syms)))
    return terms


def print_element(x: FieldElement) -> str:
    """Canonical sum form of a tower element, e.g. `1/2 + sqrt(2)*i`."""
    return _print_element(x, _print_memo(x.tower)[1])


def _print_element(x: FieldElement, order) -> str:
    terms = _basis_terms(x, order)
    if not terms:
        return "0"
    parts = []
    for n, (sign, atoms) in enumerate(terms):
        chunk = "*".join(atoms)
        if n == 0:
            parts.append(chunk if sign > 0 else f"-{chunk}")
        else:
            parts.append(f"{'+' if sign > 0 else '-'} {chunk}")
    return " ".join(parts)


def _z_power(k: int) -> str:
    if k == 0:
        return ""
    return "z" if k == 1 else f"z^{k}"


def print_poly(p: Polynomial) -> str:
    """Deterministic descending-degree form, round-trips through parse_poly."""
    if p.is_zero():
        return "0"
    order = _print_memo(p.tower)[1]
    rendered: list[tuple[int, str]] = []  # (sign, body)
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c.is_zero():
            continue
        terms = _basis_terms(c, order)
        zpart = _z_power(k)
        if len(terms) == 1 or not zpart:
            # Flatten: a single basis term, or a constant (sum of plain terms).
            for sign, atoms in terms:
                if zpart:
                    atoms = (zpart,) if atoms == ("1",) else (*atoms, zpart)
                rendered.append((sign, "*".join(atoms)))
        else:
            inner = _print_element(c, order)
            rendered.append((1, f"({inner})*{zpart}"))
    first_sign, first_body = rendered[0]
    out = [first_body if first_sign > 0 else f"-{first_body}"]
    for sign, body in rendered[1:]:
        out.append(f"{'+' if sign > 0 else '-'} {body}")
    return " ".join(out)


def print_factored(f: FactoredPoly) -> str:
    """`gamma ; (root, mult), ...` form accepted by parse_factored."""
    head = print_element(f.leading)
    if not f.factors:
        return f"{head} ;"
    entries = ", ".join(f"({print_element(r)}, {m})" for r, m in f.factors)
    return f"{head} ; {entries}"
