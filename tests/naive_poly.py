"""Schoolbook oracles for the differential tests.

Each polynomial oracle works on coefficient lists with plain FieldElement
`+`, `-`, `*` and `inverse()`, one operation at a time, and never calls the
fused kernels of `poly.py`, so a fault there cannot hide in its own
reference.  The sign oracles decide signs by refining interval boxes of
the complex embedding instead of the exact norm recursion of `field.py`,
and the independence oracle ranks the coefficient matrix instead of
reading the Casoratian.
The parser oracle evaluates the expression grammar on such dense lists,
after a tokenizer that matches one token at a time.
"""

import re
from math import lcm

from diffrad import FactoredPoly, Polynomial, field
from diffrad.errors import NegativeExponentError, ParseError, UnknownConstantError
from diffrad.parser import MAX_DIGITS, MAX_POWER, MAX_POWER_BITS


def basis_table(gens):
    """(table, den) of `field._basis_table`, every entry e_s r * e_t r of a
    new root r = sqrt(d) multiplied out as (e_s e_t) * d with `field._mul`
    and the table so far, whatever d is."""
    table, den = ((((0, 1),),),), 1
    for k, d in enumerate(gens):
        h = 1 << k
        rows = []
        for s in range(2 * h):
            row = []
            for t in range(2 * h):
                terms = table[s % h][t % h]
                if s >= h and t >= h:
                    base = [0] * h
                    for u, c in terms:
                        base[u] = c
                    num, vden = field._mul(tuple(base), den, *d, table, den)
                    row.append(([(u, c) for u, c in enumerate(num) if c], vden))
                else:
                    shift = h if s >= h or t >= h else 0
                    row.append(([(u + shift, c) for u, c in terms], den))
            rows.append(row)
        den = lcm(*(vden for row in rows for _, vden in row))
        table = tuple(
            tuple(tuple((u, c * (den // vden)) for u, c in terms) for terms, vden in row)
            for row in rows
        )
    return table, den


def _box_sign(x, part):
    """Sign of the real or imaginary part of x, by boxes of doubling precision."""
    if x.is_zero():
        return 0
    bits = 32
    while bits < field.MAX_ENCLOSURE_BITS:
        box = x.embed(bits)
        lo, hi = (box.re_lo, box.re_hi) if part == "re" else (box.im_lo, box.im_hi)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    raise AssertionError(f"boxes did not separate {x} from 0")


def sign_real(x) -> int:
    """Sign of a nonzero real element, or 0 for zero."""
    return _box_sign(x, "re")


def sign_imag(x) -> int:
    """Sign of the imaginary part of a purely imaginary element."""
    return _box_sign(x, "im")


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def mul(tower, a, b):
    if not a or not b:
        return []
    out = [tower.zero] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] = out[j + k] + x * y
    return _trim(out)


def add(tower, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, y in enumerate(b):
        out[k] = out[k] + y
    return _trim(out)


def divmod_(tower, a, d):
    """Long division, subtracting the whole divisor, leading term included."""
    rem = list(a)
    if len(rem) < len(d):
        return [], _trim(rem)
    lead_inv = d[-1].inverse()
    dd = len(d) - 1
    quot = [tower.zero] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        q = rem[k] * lead_inv
        quot[k - dd] = q
        for j, y in enumerate(d):
            rem[k - dd + j] = rem[k - dd + j] - q * y
    return _trim(quot), _trim(rem)


def monic(tower, a):
    inv = a[-1].inverse()
    return [c * inv for c in a]


def gcd(tower, a, b):
    while b:
        a, b = b, divmod_(tower, a, b)[1]
        if b:
            b = monic(tower, b)
    return monic(tower, a)


def taylor_shift(p: Polynomial, kappa) -> Polynomial:
    """p(z + kappa) by Horner: acc = acc * (z + kappa) + c."""
    tower = p.tower
    kappa = tower._coerce(kappa)
    acc = []
    for c in reversed(p.coeffs):
        acc = add(tower, mul(tower, acc, [kappa, tower.one]), [c])
    return Polynomial(tower, acc)


def expand(f) -> Polynomial:
    """gamma * prod (z - w)^m as a product of linear factors."""
    tower = f.tower
    out = [f.leading]
    for root, mult in f.factors:
        for _ in range(mult):
            out = mul(tower, out, [-root, tower.one])
    return Polynomial(tower, out)


def poly_divmod(p: Polynomial, d: Polynomial):
    quot, rem = divmod_(p.tower, list(p.coeffs), list(d.coeffs))
    return Polynomial(p.tower, quot), Polynomial(p.tower, rem)


def shift_gcd(p: Polynomial, kappa, m: int) -> Polynomial:
    """Monic gcd of the explicit shifts p(z + j*kappa), j = 0..m-1."""
    tower = p.tower
    kappa = tower._coerce(kappa)
    acc = list(p.coeffs)
    for j in range(1, m):
        shifted = list(taylor_shift(p, kappa * j).coeffs)
        acc = gcd(tower, acc, shifted)
    return Polynomial(tower, monic(tower, acc))


def eval_at(p: Polynomial, x):
    tower = p.tower
    x = tower._coerce(x)
    acc = tower.zero
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def shift_roots(f, shift) -> FactoredPoly:
    """f with every root moved by `shift`: the factored form of f(z - shift)."""
    shift = f.tower._coerce(shift)
    return FactoredPoly(f.leading, [(r + shift, m) for r, m in f.factors])


def det_cofactor(mat):
    """Determinant of a square matrix of polynomials by cofactor expansion
    along the first row; exponential, for small sizes only."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = Polynomial.zero(mat[0][0].tower)
    for j, entry in enumerate(mat[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = entry * det_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def casoratian(ps, kappa) -> Polynomial:
    """det of the matrix with entry (i, j) = p_j(z + i*kappa), by cofactors."""
    kappa = ps[0].tower._coerce(kappa)
    rows = [list(ps)] + [[p.taylor_shift(kappa * i) for p in ps] for i in range(1, len(ps))]
    return det_cofactor(rows)


def det_gauss(mat):
    """Determinant of a square matrix of tower elements by Gaussian
    elimination with plain FieldElement operations."""
    rows = [list(row) for row in mat]
    n = len(rows)
    det = rows[0][0].tower.one
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return rows[0][0].tower.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        lead = rows[col][col]
        det = det * lead
        inv = lead.inverse()
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if not factor.is_zero():
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def casoratian_value(ps, kappa, x):
    """The Casoratian's value at x: the scalar determinant of the entries
    p_j(x + i*kappa), each evaluated by Horner; polynomial in m."""
    tower = ps[0].tower
    kappa, x = tower._coerce(kappa), tower._coerce(x)
    return det_gauss([[eval_at(p, x + kappa * i) for p in ps] for i in range(len(ps))])


def linearly_independent(ps) -> bool:
    """Rank of the coefficient matrix by Gauss-Jordan elimination over the
    tower: the independence oracle of the Casoratian test."""
    if not ps:
        return True
    width = max(len(p.coeffs) for p in ps)
    if width == 0:
        return False  # some zero polynomial present
    rows = [[p.coeff(k) for k in range(width)] for p in ps]
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [rc - factor * pc for rc, pc in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank == len(ps)

# -- the parser oracle: one dense coefficient list per value -----------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<dstar>\*\*)"
    r"|(?P<op>[-+*/^(),;])"
)


def _nat(text, pos):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal too long ({len(text)} digits)", pos) from None


def _height(coeffs):
    """Bits of the largest numerator or denominator, each coefficient's
    coordinates written over their least common denominator."""
    bits = 0
    for c in coeffs:
        den = lcm(*(q.denominator for q in c.coords))
        nums = [abs(q.numerator) * (den // q.denominator) for q in c.coords]
        bits = max(bits, max(*nums, den).bit_length())
    return bits


def _check_printable(values, pos=None):
    """ParseError when a coordinate, as a reduced Fraction, has a numerator
    or denominator of more than MAX_DIGITS digits."""
    largest = 10**MAX_DIGITS - 1
    for c in values:
        for q in c.coords:
            if max(abs(q.numerator), q.denominator) > largest:
                raise ParseError(f"coefficients are capped at {MAX_DIGITS} digits", pos)


def tokenize(src):
    """Tokens one anchored match at a time, failing at the first stray character."""
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


class _DenseParser:
    """The grammar of `diffrad.parser`, every value a dense coefficient list
    combined with the schoolbook `add` and `mul` above."""

    def __init__(self, src, tower):
        self.tokens = tokenize(src)
        self.tower = tower
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, text):
        kind, got, pos = self.peek()
        if got != text:
            raise ParseError(
                f"expected {text!r}, found {got or 'end of input'!r}",
                pos,
                expected=frozenset({text}),
            )
        return self.advance()

    def constant(self, value):
        return value[0] if value else self.tower.zero

    def expr(self):
        acc = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            acc = add(self.tower, acc, rhs if op == "+" else [-c for c in rhs])
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.advance()
            rhs = self.factor()
            if op == "*":
                acc = mul(self.tower, acc, rhs)
            else:
                if len(rhs) != 1:
                    raise ParseError("divisor must be a nonzero constant", pos)
                inv = rhs[0].inverse()
                acc = [c * inv for c in acc]
        return acc

    def factor(self):
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
        if n > MAX_POWER or (n and (len(base) - 1) * n > MAX_POWER):
            raise ParseError(f"powers are capped at exponent and degree {MAX_POWER}", npos)
        if _height(base) * n > MAX_POWER_BITS:
            raise ParseError(f"powers are capped at {MAX_POWER_BITS}-bit coefficients", npos)
        ends = [c for c in base if c]
        if len(ends) > 1:
            powers = []
            for c in (ends[0], ends[-1]):
                acc = self.tower.one
                for _ in range(n):
                    acc = acc * c
                powers.append(acc)
            _check_printable(powers, npos)
        out = [self.tower.one]
        for _ in range(n):
            out = mul(self.tower, out, base)
        return out

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return _trim([self.tower.rational(_nat(text, pos))])
        if text == "-":
            self.advance()
            return [-c for c in self.factor()]
        if text == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            self.advance()
            if text == "z":
                return [self.tower.zero, self.tower.one]
            if text == "i":
                root = self.tower.sqrt_of_rational(-1)
                if root is None:
                    raise UnknownConstantError("'i' is not in the tower", pos)
                return [root]
            if text == "sqrt":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                if len(inner) > 1 or not self.constant(inner).is_rational():
                    raise ParseError("sqrt argument must be a rational constant", pos)
                q = self.constant(inner).as_fraction()
                root = self.tower.sqrt_of_rational(q)
                if root is None:
                    raise UnknownConstantError(
                        f"sqrt({q}) is not representable in the tower", pos
                    )
                return _trim([root])
            raise UnknownConstantError(f"unknown symbol {text!r}", pos)
        raise ParseError(
            f"expected a number, symbol or '(', found {text or 'end of input'!r}",
            pos,
            expected=frozenset({"number", "i", "sqrt", "z", "(", "-"}),
        )

    def root_mult(self):
        pos0 = self.peek()[2]
        self.expect("(")
        root = self.expr()
        if len(root) > 1:
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
        return self.constant(root), sign * _nat(text, pos)

    def factored(self):
        lead = self.expr()
        if len(lead) > 1:
            raise ParseError("leading coefficient must be a constant", 0)
        self.expect(";")
        entries = []
        if self.peek()[0] != "end":
            entries.append(self.root_mult())
            while self.peek()[1] == ",":
                self.advance()
                entries.append(self.root_mult())
        return FactoredPoly(self.constant(lead), entries)

    def whole(self, rule):
        try:
            out = rule()
        except RecursionError:
            raise ParseError("input nested too deeply", self.peek()[2]) from None
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return out


def parse_poly(src, tower) -> Polynomial:
    """Reference for `diffrad.parse_poly`."""
    p = _DenseParser(src, tower)
    coeffs = p.whole(p.expr)
    _check_printable(coeffs)
    return Polynomial(tower, coeffs)


def parse_factored(src, tower) -> FactoredPoly:
    """Reference for `diffrad.parse_factored`."""
    p = _DenseParser(src, tower)
    f = p.whole(p.factored)
    _check_printable([f.leading, *f.roots()])
    return f
