"""Expression parsing and canonical printing for tower polynomials.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := atom (('^' | '**') nat)?
    atom    := nat | 'i' | 'sqrt' '(' expr ')' | 'z' | '(' expr ')' | '-' factor

A power multiplies its base out once per unit of the exponent, so both the
exponent and the degree of the power are capped at MAX_POWER (200): the
densest power the cap admits, (z + 1 + i + sqrt(2) + sqrt(3))^200, parses
in under a second, and a larger one raises ParseError instead of
running for minutes.

Division requires a nonzero constant divisor, so `3/4` is the rational
three-quarters and `i/2` is half of i.  `sqrt` takes anything evaluating to a
rational constant; negative radicands normalize through i (sqrt(-2) is
i*sqrt(2)) and square parts are extracted exactly (sqrt(8) is 2*sqrt(2)).
A value the tower cannot represent raises UnknownConstantError.

Printing is deterministic: descending powers of z, each coefficient as a sum
of basis terms ordered rational part first, then square roots by adjunction
order, then i.  parse(print(p)) == p for towers whose radicands are rational.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .errors import (
    NegativeExponentError,
    ParseError,
    UnknownConstantError,
)
from .field import FieldElement, FieldTower
from .poly import FactoredPoly, Polynomial

# Largest exponent, and largest degree of a power, that the parser accepts.
MAX_POWER = 200

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<dstar>\*\*)"
    r"|(?P<op>[-+*/^(),;])"
)


def _nat(text: str, pos: int) -> int:
    """A digit token's value; past Python's int/str digit limit, a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal too long ({len(text)} digits)", pos) from None


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = "pow" if m.lastgroup == "dstar" else m.lastgroup
            text = m.group()
            if kind == "op" and text == "^":
                kind = "pow"
            tokens.append((kind, text, m.start()))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


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

    def expr(self) -> Polynomial:
        acc = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.advance()
            rhs = self.factor()
            if op == "*":
                acc = acc * rhs
            else:
                if not rhs.is_constant() or rhs.is_zero():
                    raise ParseError("divisor must be a nonzero constant", pos)
                acc = acc.scale(rhs.constant_value().inverse())
        return acc

    def factor(self) -> Polynomial:
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
        if n > MAX_POWER or (n and base.degree * n > MAX_POWER):
            raise ParseError(
                f"powers are capped at exponent and degree {MAX_POWER}", npos
            )
        return base ** n

    def atom(self) -> Polynomial:
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Polynomial(self.tower, (Fraction(_nat(text, pos)),))
        if text == "-":
            self.advance()
            return -self.factor()
        if text == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            self.advance()
            if text == "z":
                return Polynomial.variable(self.tower)
            if text == "i":
                root = self.tower.sqrt_of_rational(-1)
                if root is None:
                    raise UnknownConstantError("'i' is not in the tower", pos)
                return Polynomial.constant(root)
            if text == "sqrt":
                self.expect("(")
                inner = self.expr()
                close = self.expect(")")
                if not inner.is_constant() or not inner.constant_value().is_rational():
                    raise ParseError(
                        "sqrt argument must be a rational constant", pos
                    )
                q = inner.constant_value()
                q = q.as_fraction()
                root = self.tower.sqrt_of_rational(q)
                if root is None:
                    raise UnknownConstantError(
                        f"sqrt({q}) is not representable in the tower", pos
                    )
                return Polynomial.constant(root)
            raise UnknownConstantError(f"unknown symbol {text!r}", pos)
        self.fail_atom()

    # -- entry points ------------------------------------------------------

    def root_mult(self) -> tuple[FieldElement, int]:
        pos0 = self.peek()[2]
        self.expect("(")
        root = self.expr()
        if not root.is_constant():
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
        return root.constant_value(), sign * _nat(text, pos)

    def factored(self) -> FactoredPoly:
        lead = self.expr()
        if not lead.is_constant():
            raise ParseError("leading coefficient must be a constant", 0)
        self.expect(";")
        entries = []
        if self.peek()[0] != "end":
            entries.append(self.root_mult())
            while self.peek()[1] == ",":
                self.advance()
                entries.append(self.root_mult())
        return FactoredPoly(lead.constant_value(), entries)


def _parse_all(src: str, tower: FieldTower, rule):
    """Apply one grammar rule to the whole of src.

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
    return out


def parse_poly(src: str, tower: FieldTower) -> Polynomial:
    """Parse an expression into a polynomial over the tower."""
    return _parse_all(src, tower, _Parser.expr)


def parse_constant(src: str, tower: FieldTower) -> FieldElement:
    """Parse an expression that must evaluate to a constant."""
    p = parse_poly(src, tower)
    if not p.is_constant():
        raise ParseError("expected a constant expression", 0)
    return p.constant_value()


def parse_factored(src: str, tower: FieldTower) -> FactoredPoly:
    """Parse `gamma ; (root, mult), (root, mult), ...` into factored form."""
    return _parse_all(src, tower, _Parser.factored)


def parse_root_mult(src: str, tower: FieldTower) -> tuple[FieldElement, int]:
    """Parse a single `(root, mult)` entry (divisor file lines)."""
    return _parse_all(src, tower, _Parser.root_mult)


def iter_objects(lines: Iterable[str]):
    """Strip comments and blanks from a line-oriented input file."""
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


# -- printing ---------------------------------------------------------------


def _gen_symbols(tower: FieldTower) -> list[str]:
    """Print names of the adjoined roots, e.g. ['i', 'sqrt(2)'].

    Radicand idx lies in the subtower on roots 0..idx-1, so it prints with
    the names built so far and never asks for its own.
    """
    names: list[str] = []
    for idx in range(tower.depth):
        rad = tower.gen_radicand(idx)
        if rad.is_rational():
            q = rad.as_fraction()
            names.append("i" if q == -1 else f"sqrt({q})")
        else:
            names.append(f"sqrt({_print_element(rad, names)})")
    return names


def _basis_terms(x: FieldElement) -> list[tuple[Fraction, int]]:
    """Nonzero (coordinate, basis mask) pairs in canonical print order."""
    tower = x.tower
    # Order: rational part first, then by (number of imaginary generators,
    # mask) so real square roots precede terms containing i.
    def key(mask: int):
        imag = sum(
            1 for idx in range(tower.depth)
            if mask >> idx & 1 and tower.gen_sign(idx) < 0
        )
        return (imag, mask)

    pairs = [(coord, mask) for mask, coord in enumerate(x.coords) if coord != 0]
    pairs.sort(key=lambda cm: key(cm[1]))
    return pairs


def _product_atoms(coord: Fraction, mask: int, tower: FieldTower, symbols) -> tuple[int, list[str]]:
    """Sign and the '*'-joined atoms of one basis term (no z part)."""
    sign = -1 if coord < 0 else 1
    mag = -coord if coord < 0 else coord
    syms = []
    real_syms = []
    imag_syms = []
    for idx in range(tower.depth):
        if mask >> idx & 1:
            (imag_syms if tower.gen_sign(idx) < 0 else real_syms).append(symbols[idx])
    syms = real_syms + imag_syms
    atoms = []
    if mag != 1 or not syms:
        atoms.append(str(mag))
    atoms.extend(syms)
    return sign, atoms


def print_element(x: FieldElement) -> str:
    """Canonical sum form of a tower element, e.g. `1/2 + sqrt(2)*i`."""
    return _print_element(x, _gen_symbols(x.tower))


def _print_element(x: FieldElement, symbols: list[str]) -> str:
    terms = _basis_terms(x)
    if not terms:
        return "0"
    parts = []
    for n, (coord, mask) in enumerate(terms):
        sign, atoms = _product_atoms(coord, mask, x.tower, symbols)
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
    symbols = _gen_symbols(p.tower)
    rendered: list[tuple[int, str]] = []  # (sign, body)
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c.is_zero():
            continue
        terms = _basis_terms(c)
        zpart = _z_power(k)
        if len(terms) == 1 or not zpart:
            # Flatten: a single basis term, or a constant (sum of plain terms).
            for coord, mask in terms:
                sign, atoms = _product_atoms(coord, mask, p.tower, symbols)
                if zpart:
                    if atoms == ["1"]:
                        atoms = []
                    atoms.append(zpart)
                rendered.append((sign, "*".join(atoms)))
        else:
            inner = _print_element(c, symbols)
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
