"""Exact arithmetic in iterated quadratic extensions of the rationals.

A tower starts at Q and grows one square root at a time: Q(i), Q(i, sqrt(2)),
Q(i, sqrt(2), sqrt(3)), ...  An element of a tower with k adjoined roots
carries 2**k rational coordinates over the product basis of those roots, so
equality, conjugation, inversion and squareness are all decidable exactly.
The coordinates are stored as integer numerators over one shared
denominator (the integral-basis layout of Cohen, A Course in Computational
Algebraic Number Theory, 4.2), and products run over the nonzero
coordinates only, so an element lifted from a subtower costs what it costs
there.  `FieldElement.coords` gives the coordinates back as Fractions.

Each radicand must be real (fixed by conjugation of the tower built so far);
positive radicands embed to the positive real root, negative ones to the
root with positive imaginary part.  Signs of real elements, and so branch
choices, are exact: a norm recursion over the roots (`_sign`).  Embeddings
enclose values (integrals, `complex()`).  An enclosure decides a comparison
only by strict separation, which is a proof (the counting kernel places
points among radii this way); an equality, or a value inside the bounds,
goes to the exact recursion.  Every root is real or i times a real, so each
basis element lies on an axis of the plane, and an embedding is a linear
form over per-precision integer bounds on the basis (`FieldTower._bounds`).
`scaled_box` is the one enclosure kernel: it refines that form until its
integer box at one scale is narrow enough, and `embed` only divides the
four ends by the scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Union

from .errors import (
    EnclosureWidthError,
    NonRealRadicandError,
    SquareRadicandError,
    TowerDepthError,
    ZeroRadicandError,
)

Scalar = Union[int, Fraction, "FieldElement"]

_F0 = Fraction(0)
_MISSING = object()

# Enclosures double their working precision up to this cap and then raise
# EnclosureWidthError: a dozen doublings from 53 bits.
MAX_ENCLOSURE_BITS = 1 << 16

# A tower of k roots has a basis table of 4**k products: about 0.3 s to
# build at depth 8 over rational radicands on a 2-core x86 box, and 4 to 5
# times that per root more.
MAX_DEPTH = 8


class ComplexInterval:
    """Axis-aligned rational rectangle containing a complex number."""

    __slots__ = ("re_lo", "re_hi", "im_lo", "im_hi")

    def __init__(self, re_lo, re_hi, im_lo, im_hi):
        self.re_lo = re_lo
        self.re_hi = re_hi
        self.im_lo = im_lo
        self.im_hi = im_hi

    @property
    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    @property
    def mid(self) -> complex:
        return complex((self.re_lo + self.re_hi) / 2, (self.im_lo + self.im_hi) / 2)

    def __repr__(self):
        return (
            f"ComplexInterval([{float(self.re_lo)}, {float(self.re_hi)}]"
            f" + [{float(self.im_lo)}, {float(self.im_hi)}]*i)"
        )


def _linear(num, bounds):
    """Integer [re_lo, re_hi, im_lo, im_hi] enclosing sum num[s] * e_s.

    bounds[s] = (k, lo, hi) says e_s = i**k * |e_s| with lo <= |e_s| <= hi
    at the table's scale, so each term lies on one axis and its bounds are
    integer products; zero coordinates are skipped.
    """
    out = [0, 0, 0, 0]
    for c, (k, lo, hi) in zip(num, bounds):
        if c:
            if k >= 2:
                c = -c
            axis = (k & 1) << 1
            out[axis] += c * (lo if c > 0 else hi)
            out[axis + 1] += c * (hi if c > 0 else lo)
    return out


# Coordinate kernels.  A vector is a tuple of integer numerators together
# with one positive denominator; every kernel returns a canonical pair, whose
# numerators and denominator share no factor, so equal values have equal
# pairs.  Index s of a vector holds the coordinate of the basis element
# e_s, the product of the roots whose bits are set in s; where a recursion
# needs it a vector splits over the last adjoined root, x = lo + hi*sqrt(d),
# into halves that are vectors of the subtower.  Zero numerators are skipped
# everywhere, so elements lifted from a subtower cost what they cost there.

def _canon(num, den):
    g = gcd(*num, den)
    if g == 1:
        return tuple(num), den
    return tuple([x // g for x in num]), den // g


def _add(a, da, b, db):
    if not any(b):
        return a, da
    if not any(a):
        return b, db
    if da == db:
        return _canon([x + y for x, y in zip(a, b)], da)
    den = lcm(da, db)
    fa, fb = den // da, den // db
    return _canon([x * fa + y * fb for x, y in zip(a, b)], den)


def _neg(a):
    return tuple([-x for x in a])


def _sub(a, da, b, db):
    return _add(a, da, _neg(b), db)


def _mul(a, da, b, db, table, tden):
    return _muladd((0,) * len(a), 1, a, da, b, db, table, tden)


def _muladd(a, da, x, dx, y, dy, table, tden):
    """a + x*y with one canonicalisation: a is scaled to the product's
    denominator and the basis-table products accumulate into it."""
    nzy = [(t, v) for t, v in enumerate(y) if v]
    if not nzy or not any(x):
        return a, da
    den = dx * dy * tden
    if any(a):
        g = gcd(da, den)
        fa, fp = den // g, da // g
        acc = [v * fa for v in a] if fa != 1 else list(a)
        den *= fp
    else:
        fp = 1
        acc = [0] * len(a)
    for s, u in enumerate(x):
        if u:
            row = table[s]
            u *= fp
            for t, v in nzy:
                uv = u * v
                for w, c in row[t]:
                    acc[w] += uv * c
    return _canon(acc, den)


def _join(lo, dlo, hi, dhi):
    """The vector lo + hi*sqrt(d) from its two halves."""
    if dlo == dhi:
        return _canon(lo + hi, dlo)
    den = lcm(dlo, dhi)
    flo, fhi = den // dlo, den // dhi
    return _canon([x * flo for x in lo] + [y * fhi for y in hi], den)


def _norm(lo, hi, den, d, tw):
    """lo^2 - hi^2 * d, the norm of (lo + hi*sqrt(d)) / den to the subtower."""
    table, tden = tw._table, tw._tden
    hi2 = _mul(hi, den, hi, den, table, tden)
    return _sub(*_mul(lo, den, lo, den, table, tden), *_mul(*hi2, *d, table, tden))


def _times_imag_root(a, tw):
    """Numerators of a * sqrt(d_j), for the last imaginary root d_j of a's subtower."""
    h = len(a)
    j = max(j for j in range(h.bit_length() - 1) if tw._signs[j] < 0)
    g = tuple([int(t == 1 << j) for t in range(h)])
    return _mul(a, 1, g, 1, tw._table, tw._tden)[0]


def _sign(a, tw):
    """-1, 0 or +1: the sign of the real element with numerators a.

    Split x = lo + b over the last root, b = hi*sqrt(d) real and nonzero.
    x has the sign of b when lo is 0 or shares it, and otherwise the sign of
    lo times that of the norm lo^2 - b^2 = lo^2 - hi^2 d.  For a real root
    b has the sign of hi; for an imaginary one hi is purely imaginary and b
    has the sign of the real hi*g, g an imaginary root below.  Depth k costs
    at most 3**k rational signs and no precision.
    """
    n = len(a)
    if n == 1:
        return (a[0] > 0) - (a[0] < 0)
    h = n >> 1
    lo, hi = a[:h], a[h:]
    if not any(hi):
        return _sign(lo, tw)
    k = h.bit_length() - 1
    sb = _sign(hi if tw._signs[k] > 0 else _times_imag_root(hi, tw), tw)
    sa = _sign(lo, tw)
    if sa == 0 or sa == sb:
        return sb
    return sa * _sign(_norm(lo, hi, 1, tw._gens[k], tw)[0], tw)


def _inv(a, da, tw):
    n = len(a)
    if n == 1:
        x = a[0]
        if x == 0:
            raise ZeroDivisionError("division by zero in the tower")
        return _canon((da,), x) if x > 0 else _canon((-da,), -x)
    h = n >> 1
    lo, hi = a[:h], a[h:]
    if not any(hi):
        num, den = _inv(lo, da, tw)
        return num + (0,) * h, den
    # 1/(x + y*sqrt(d)) = (x - y*sqrt(d)) / (x^2 - y^2 d); the norm vanishes
    # only for the zero element because d is a non-square by construction.
    ninv = _inv(*_norm(lo, hi, da, tw._gens[h.bit_length() - 1], tw), tw)
    x = _mul(lo, da, *ninv, tw._table, tw._tden)
    y = _mul(hi, da, *ninv, tw._table, tw._tden)
    return _join(x[0], x[1], _neg(y[0]), y[1])


def _try_sqrt(a, da, tw):
    """A square root of the vector in the tower, or None.  Either root may come back."""
    n = len(a)
    if n == 1:
        g = gcd(a[0], da)
        p, q = a[0] // g, da // g
        if p < 0:
            return None
        rp, rq = isqrt(p), isqrt(q)
        if rp * rp == p and rq * rq == q:
            return (rp,), rq
        return None
    h = n >> 1
    d = tw._gens[h.bit_length() - 1]
    table, tden = tw._table, tw._tden
    lo, hi = a[:h], a[h:]
    zeros = (0,) * h
    if not any(hi):
        r = _try_sqrt(lo, da, tw)
        if r is not None:
            return r[0] + zeros, r[1]
        e = _try_sqrt(*_mul(lo, da, *_inv(*d, tw), table, tden), tw)
        if e is not None:
            return zeros + e[0], e[1]
        return None
    # y = c + e*sqrt(d) with y^2 = a requires c^2 - e^2 d = +-sqrt(norm(a)).
    s = _try_sqrt(*_norm(lo, hi, da, d, tw), tw)
    if s is None:
        return None
    target = _canon(lo, da)
    for signed in (s[0], _neg(s[0])):
        csq_num, csq_den = _add(lo, da, signed, s[1])
        c = _try_sqrt(csq_num, csq_den * 2, tw)
        if c is None or not any(c[0]):
            continue
        cinv_num, cinv_den = _inv(*c, tw)
        e = _mul(hi, da, cinv_num, cinv_den * 2, table, tden)
        e2d = _mul(*_mul(*e, *e, table, tden), *d, table, tden)
        if _add(*_mul(*c, *c, table, tden), *e2d) == target:
            return _join(*c, *e)
    return None


def _basis_table(gens):
    """Structure constants of the product basis of the tower on `gens`.

    Returns (table, den): table[s][t] lists the (u, c) with c != 0 such that
    e_s * e_t is the sum of (c / den) * e_u.  A new root r = sqrt(d) doubles
    the basis: e_s r * e_t r = (e_s e_t) d.  A rational d = a / b only scales
    the old terms by a over den * b; any other d is multiplied in with the
    table so far.  Over rational radicands each entry is the single term
    e_(s xor t).
    """
    table, den = ((((0, 1),),),), 1
    for k, d in enumerate(gens):
        h = 1 << k
        rational = not any(d[0][1:])
        rows = []
        for s in range(2 * h):
            row = []
            for t in range(2 * h):
                terms = table[s & (h - 1)][t & (h - 1)]
                if s >= h and t >= h and rational:
                    num, vden = _canon([c * d[0][0] for _, c in terms], den * d[1])
                    row.append(([(u, c) for (u, _), c in zip(terms, num)], vden))
                elif s >= h and t >= h:
                    base = [0] * h
                    for u, c in terms:
                        base[u] = c
                    num, vden = _mul(tuple(base), den, *d, table, den)
                    row.append(([(u, c) for u, c in enumerate(num) if c], vden))
                elif s >= h or t >= h:
                    row.append(([(u + h, c) for u, c in terms], den))
                else:
                    row.append((terms, den))
            rows.append(row)
        new_den = lcm(*(vden for row in rows for _, vden in row))
        table = tuple(
            tuple(tuple((u, c * (new_den // vden)) for u, c in terms) for terms, vden in row)
            for row in rows
        )
        den = new_den
    return table, den


class FieldTower:
    """Q with a fixed chain of adjoined square roots.

    Towers are immutable; adjoining returns a tower whose generator list
    extends this one.  Arithmetic takes elements of one tower (the same
    generators) and raises ValueError on any other; `FieldElement.lift_to` is
    the only way into a larger tower, and only equality compares across them.
    rationals() is one shared Q and each tower builds its child for a
    radicand once, so a chain rebuilt from the same generators is the same
    object, memos included.  FieldTower(gens, signs) builds a fresh one.
    """

    __slots__ = (
        "_gens", "_signs", "_table", "_tden", "_table_norms", "_flips", "_pad", "_box_cache",
        "_sqrt_cache", "_fp_images", "_print_memo", "_children", "_hash",
    )

    def __init__(self, gens=(), signs=()):
        # Radicand k is a canonical (numerators, denominator) vector of the
        # tower on the first k roots.
        self._gens = tuple(gens)
        if len(self._gens) > MAX_DEPTH:
            raise TowerDepthError(
                f"a tower holds at most {MAX_DEPTH} square roots, got {len(self._gens)}"
            )
        self._signs = tuple(signs)
        self._table, self._tden = _basis_table(self._gens)
        # Largest sum of |c| over one product e_u * e_t, for each u: the
        # coefficient bound of FactoredPoly.expand.
        self._table_norms = tuple(
            [max([sum([abs(c) for _, c in terms]) for terms in row]) for row in self._table]
        )
        # Conjugation negates e_s when s holds an odd number of imaginary roots.
        imag = sum(1 << k for k, sign in enumerate(self._signs) if sign < 0)
        self._flips = tuple(bin(s & imag).count("1") & 1 for s in range(self.dim))
        self._pad = (0,) * (self.dim - 1)
        self._box_cache: dict = {}
        # Branch-selected roots by rational radicand, None where there is none.
        self._sqrt_cache: dict = {}
        # F_p images for the modular gcd and the next prime to try (modular.images).
        self._fp_images = None
        # Generator names and basis print order, built on first use (parser).
        self._print_memo = None
        # Towers adjoin_sqrt built on this one, by canonical radicand.
        self._children: dict = {}
        self._hash = hash(self._gens)

    @classmethod
    def rationals(cls) -> "FieldTower":
        return _RATIONALS

    @property
    def depth(self) -> int:
        return len(self._gens)

    @property
    def dim(self) -> int:
        return 1 << len(self._gens)

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self._gens == other._gens

    def __hash__(self):
        return self._hash

    def extends(self, other: "FieldTower") -> bool:
        """True when `other`'s generator chain is a prefix of this one's."""
        return self._gens[: len(other._gens)] == other._gens

    def element(self, coords) -> "FieldElement":
        return FieldElement(self, coords)

    def rational(self, q) -> "FieldElement":
        if type(q) is int:
            return _make(self, (q,) + self._pad, 1)
        q = Fraction(q)
        return _make(self, (q.numerator,) + self._pad, q.denominator)

    @property
    def zero(self) -> "FieldElement":
        return self.rational(0)

    @property
    def one(self) -> "FieldElement":
        return self.rational(1)

    def sqrt_gen(self, index: int) -> "FieldElement":
        """The adjoined root sqrt(d_index) as an element of this tower."""
        num = [0] * self.dim
        num[1 << index] = 1
        return _make(self, tuple(num), 1)

    def gen_radicand(self, index: int) -> "FieldElement":
        """The radicand d_index lifted into this tower."""
        num, den = self._gens[index]
        return _make(self, num + (0,) * (self.dim - len(num)), den)

    def gen_sign(self, index: int) -> int:
        """+1 when sqrt(d_index) embeds real, -1 when purely imaginary."""
        return self._signs[index]

    def adjoin_sqrt(self, d: Scalar) -> "FieldTower":
        """Extend the tower by a square root of `d`.

        `d` must be a nonzero non-square element of this tower, fixed by
        conjugation.  The embedding of the new root is the positive real root
        for positive `d` and the root with positive imaginary part otherwise.
        The tower is built on the first call for its radicand and returned
        again after; a radicand that raises is checked anew on every call.
        """
        elt = self._coerce(d)
        key = (elt._num, elt._den)
        child = self._children.get(key)
        if child is not None:
            return child
        if elt.is_zero():
            raise ZeroRadicandError("cannot adjoin sqrt(0)")
        if not elt.is_real():
            raise NonRealRadicandError(
                "radicand must be fixed by conjugation of the current tower"
            )
        root = _try_sqrt(elt._num, elt._den, self)
        if root is not None:
            raise SquareRadicandError(
                "radicand is already a square in the tower",
                root=_make(self, *root),
            )
        sign = _sign(elt._num, self)
        child = self._children[key] = FieldTower(self._gens + (key,), self._signs + (sign,))
        return child

    def try_sqrt(self, x: Scalar) -> Optional["FieldElement"]:
        """Some square root of `x` inside the tower, or None."""
        elt = self._coerce(x)
        root = _try_sqrt(elt._num, elt._den, self)
        return None if root is None else _make(self, *root)

    def sqrt_of_rational(self, q) -> Optional["FieldElement"]:
        """The branch-selected square root of a rational, when the tower has it.

        Positive q: the root embedding positive real.  Negative q: the root
        with positive imaginary part.  Returns None when no root exists.
        Answers are memoised per tower; towers and elements are immutable,
        so a remembered root is the element a fresh computation would build.
        """
        q = Fraction(q)
        root = self._sqrt_cache.get(q, _MISSING)
        if root is _MISSING:
            root = self._sqrt_cache[q] = self._branch_sqrt(q)
        return root

    def _branch_sqrt(self, q: Fraction) -> Optional["FieldElement"]:
        root = self.try_sqrt(self.rational(q))
        if root is None or root.is_zero():
            return root
        if q > 0:
            return root if _sign(root._num, self) > 0 else -root
        # Roots of a negative rational are purely imaginary: Im(root) > 0
        # exactly when root times an imaginary root g = i|g| is negative.
        return root if _sign(_times_imag_root(root._num, self), self) < 0 else -root

    def describe(self) -> str:
        if not self._gens:
            return "Q"
        from .parser import _print_memo  # local import, no cycle at load

        return "Q(" + ", ".join(_print_memo(self)[0]) + ")"

    def __repr__(self):
        return f"FieldTower({self.describe()})"

    def _coerce(self, value: Scalar) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.tower is self or value.tower == self:
                return value
            raise ValueError("element belongs to another tower; lift_to moves it")
        return self.rational(value)

    def _bounds(self, prec: int) -> tuple:
        """Basis bounds at the scale 2**prec, memoised per precision.

        Entry s is (k, lo, hi) with e_s = i**k * |e_s| and integers
        lo <= |e_s| * 2**prec <= hi.  Root j's real radicand is bounded by
        the linear form over the entries below it and its roots by isqrt;
        e_(s + 2**j) = e_s * root_j by integer products.  The table stops
        before the first root whose radicand's bounds do not clear 0.
        """
        table = self._box_cache.get(prec)
        if table is None:
            table = [(0, 1 << prec, 1 << prec)]
            for (num, den), sign in zip(self._gens, self._signs):
                lo, hi, _, _ = _linear(num, table)
                if sign < 0:
                    lo, hi = -hi, -lo
                lo, hi = lo // den, -(-hi // den)
                if lo <= 0:
                    break
                r_lo, r_hi, kr = isqrt(lo << prec), isqrt((hi << prec) - 1) + 1, sign < 0
                table += [
                    ((k + kr) & 3, (a * r_lo) >> prec, -((-b * r_hi) >> prec)) for k, a, b in table
                ]
            table = self._box_cache[prec] = tuple(table)
        return table


class FieldElement:
    """An exact element of a quadratic extension tower.

    `FieldElement(tower, coords)` takes 2**depth rational coordinates over
    the product basis; `coords` gives them back as Fractions.
    """

    __slots__ = ("tower", "_num", "_den", "_hash")

    def __init__(self, tower: FieldTower, coords):
        fracs = [c if isinstance(c, Fraction) else Fraction(c) for c in coords]
        if len(fracs) != tower.dim:
            raise ValueError(f"expected {tower.dim} coordinates, got {len(fracs)}")
        den = lcm(*[c.denominator for c in fracs])
        self.tower = tower
        self._num = tuple([c.numerator * (den // c.denominator) for c in fracs])
        self._den = den
        self._hash = None

    @property
    def coords(self) -> tuple:
        den = self._den
        if den == 1:
            return tuple([Fraction(x) for x in self._num])
        return tuple([Fraction(x, den) if x else _F0 for x in self._num])

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def __bool__(self) -> bool:
        return any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self._num[0], self._den)

    def lift_to(self, tower: FieldTower) -> "FieldElement":
        if not tower.extends(self.tower):
            raise ValueError("target tower does not extend this element's tower")
        pad = (0,) * (tower.dim - len(self._num))
        return _make(tower, self._num + pad, self._den)

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if isinstance(other, FieldElement):  # ValueError from another tower
            return self, other if other.tower is self.tower else self.tower._coerce(other)
        if isinstance(other, (int, Fraction)):
            return self, self.tower.rational(other)
        return self, NotImplemented

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return _make(a.tower, *_add(a._num, a._den, b._num, b._den))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return _make(a.tower, *_sub(a._num, a._den, b._num, b._den))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _make(self.tower, _neg(self._num), self._den)

    def __mul__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        tw = a.tower
        return _make(tw, *_mul(a._num, a._den, b._num, b._den, tw._table, tw._tden))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        tw = a.tower
        return _make(tw, *_mul(a._num, a._den, *_inv(b._num, b._den, tw), tw._table, tw._tden))

    def __rtruediv__(self, other):
        return self.tower.rational(other).__truediv__(self)

    def inverse(self) -> "FieldElement":
        return _make(self.tower, *_inv(self._num, self._den, self.tower))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self.inverse() if n < 0 else self
        result = self.tower.one
        for _ in range(abs(n)):
            result = result * base
        return result

    def __eq__(self, other):
        if type(other) is FieldElement and other.tower is self.tower:
            return self._den == other._den and self._num == other._num
        if isinstance(other, int):
            return self._den == 1 and self._num[0] == other and self.is_rational()
        if isinstance(other, Fraction):
            return (
                self._den == other.denominator
                and self._num[0] == other.numerator
                and self.is_rational()
            )
        if not isinstance(other, FieldElement):
            return NotImplemented
        # A value equals its lift into a tower that extends its own.
        a, b = (self, other) if self.tower.extends(other.tower) else (other, self)
        return a.tower.extends(b.tower) and a == b.lift_to(a.tower)

    def __hash__(self):
        h = self._hash
        if h is None:
            num = self._num
            end = len(num)
            while end > 1 and num[end - 1] == 0:
                end -= 1
            # Trailing zeros dropped, so lifts hash alike and a rational element
            # hashes as the number it equals.  Immutable: kept on first use.
            den = self._den
            key = (num[:end], den) if end > 1 else Fraction(num[0], den) if den > 1 else num[0]
            h = self._hash = hash(key)
        return h

    # -- conjugation and embedding ------------------------------------------

    def conj(self) -> "FieldElement":
        """Complex conjugate; generator-wise, a field automorphism."""
        num = tuple([-x if f else x for x, f in zip(self._num, self.tower._flips)])
        return _make(self.tower, num, self._den)

    def abs_squared(self) -> "FieldElement":
        """|x|^2 = x * conj(x), an exact element of the real subtower."""
        return self * self.conj()

    def is_real(self) -> bool:
        return not any([x for x, f in zip(self._num, self.tower._flips) if f])

    def embed(self, precision_bits: int = 53) -> ComplexInterval:
        """A rational rectangle containing the complex embedding: the integer
        box of `scaled_box`, whose contract it keeps, over its scale.
        Fractions are built only for the four endpoints."""
        box, scale = scaled_box(self, precision_bits)
        return ComplexInterval(*[Fraction(v, scale) for v in box])

    def __complex__(self) -> complex:
        return self.embed(53).mid

    def sign_real(self) -> int:
        if not self.is_real():
            raise ValueError("sign is defined only for real elements")
        return _sign(self._num, self.tower)

    def __repr__(self):
        from .parser import print_element

        return f"FieldElement({print_element(self)})"

    def __str__(self):
        from .parser import print_element

        return print_element(self)


def _make(tower: FieldTower, num: tuple, den: int) -> FieldElement:
    """An element from a canonical (numerators, denominator) pair."""
    x = object.__new__(FieldElement)
    x.tower = tower
    x._num = num
    x._den = den
    x._hash = None
    return x


def scaled_box(x: FieldElement, precision_bits: int) -> tuple[list, int]:
    """(box, scale): integers [re_lo, re_hi, im_lo, im_hi] with
    re_lo <= Re(x) * scale <= re_hi and im_lo <= Im(x) * scale <= im_hi,
    neither side wider than scale * 2**-precision_bits.

    The one enclosure kernel: the linear form over the tower's bounds table
    (`_bounds`) at a working precision P, with scale = den << P for x's
    denominator den.  P doubles from precision_bits + 4 until the box is
    narrow enough; a P whose table stops before a nonzero coordinate of x
    fails.  Raises EnclosureWidthError once P passes MAX_ENCLOSURE_BITS.
    precision_bits must be at least 8.
    """
    if precision_bits < 8:
        raise ValueError("precision_bits must be at least 8")
    num, tower = x._num, x.tower
    prec = precision_bits + 4
    while prec <= MAX_ENCLOSURE_BITS:
        bounds = tower._bounds(prec)
        if not any(num[len(bounds):]):
            box, scale = _linear(num, bounds), x._den << prec
            if max(box[1] - box[0], box[3] - box[2]) << precision_bits <= scale:
                return box, scale
        prec *= 2
    raise EnclosureWidthError(
        f"enclosure wider than 2**-{precision_bits} at {MAX_ENCLOSURE_BITS} bits"
    )


def muladd(acc: FieldElement, x: FieldElement, y: FieldElement) -> FieldElement:
    """acc + x*y for three elements of one tower, canonicalised once.

    The polynomial kernels run on this; it equals `acc + x * y` exactly
    but builds no intermediate product.
    """
    tw = acc.tower
    num, den = _muladd(acc._num, acc._den, x._num, x._den, y._num, y._den, tw._table, tw._tden)
    return _make(tw, num, den)


def compare_real(a: FieldElement, b: Scalar) -> int:
    """-1, 0 or +1 as the real element a is below, equal to or above b."""
    diff = a - b if isinstance(b, FieldElement) else a - a.tower.rational(b)
    return diff.sign_real()


_RATIONALS = FieldTower()


def default_tower() -> FieldTower:
    """The session default Q(i, sqrt(2), sqrt(3)), the same object on every call."""
    return FieldTower.rationals().adjoin_sqrt(-1).adjoin_sqrt(2).adjoin_sqrt(3)
