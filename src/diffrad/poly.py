"""Exact univariate polynomials over a quadratic tower field, dense and factored.

Divisor is the package's one point -> multiplicity map: a FactoredPoly is a
leading coefficient and the Divisor of its roots, and Divisor.window_excess,
the excess ord_w - min_{0<=j<m} ord_{w+j*kappa} of each point over its shift
window, serves the root-route radical and the truncated counts alike.  Points
are ordered by point_key, an integer key that sorts exactly as the Fraction
coordinates do.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from struct import unpack
from typing import Callable, Iterable, Mapping, Sequence, Union

from . import modular
from .errors import (
    NonPositiveMultiplicityError,
    NotDivisibleError,
    ZeroLeadingError,
    ZeroPolynomialError,
    ZeroShiftError,
)
from .field import FieldElement, FieldTower, _canon, _make, _product_into, muladd

NEG_INF = float("-inf")

CoeffLike = Union[int, Fraction, FieldElement]


# -- argument checks shared by every shift and order parameter ---------------


def require_shift(tower: FieldTower, kappa, what: str) -> FieldElement:
    """kappa coerced into the tower; a zero shift raises ZeroShiftError."""
    kappa = tower._coerce(kappa)
    if kappa.is_zero():
        raise ZeroShiftError(f"{what} needs a nonzero shift")
    return kappa


def require_order(value, low: int, what: str) -> None:
    """Raise ValueError unless value is an int >= low."""
    if not isinstance(value, int) or value < low:
        kind = "a positive integer" if low == 1 else f"an integer >= {low}"
        raise ValueError(f"{what} must be {kind}, got {value!r}")


class Polynomial:
    """Coefficients ascending by degree, trailing zeros trimmed."""

    # _image: the branch-0 residues of the coefficients under the tower's
    # first F_p image, set by ord_at on first use (None when ell divides a
    # denominator).
    __slots__ = ("tower", "coeffs", "_image")

    def __init__(self, tower: FieldTower, coeffs: Iterable[CoeffLike] = ()):
        elems = [
            c if type(c) is FieldElement and c.tower is tower else tower._coerce(c)
            for c in coeffs
        ]
        while elems and elems[-1].is_zero():
            elems.pop()
        self.tower = tower
        self.coeffs = tuple(elems)

    @classmethod
    def zero(cls, tower: FieldTower) -> "Polynomial":
        return cls(tower, ())

    @classmethod
    def constant(cls, value: FieldElement) -> "Polynomial":
        return cls(value.tower, (value,))

    @classmethod
    def variable(cls, tower: FieldTower) -> "Polynomial":
        return cls(tower, (0, 1))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lead(self) -> FieldElement:
        if not self.coeffs:
            raise ZeroPolynomialError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> FieldElement:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.tower.zero

    def constant_value(self) -> FieldElement:
        """The value of a constant polynomial (zero included)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else self.tower.zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return len(self.coeffs) <= 1 and self.constant_value() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # A constant equals its value (see __eq__), so it hashes as that value.
        return hash(self.coeffs if len(self.coeffs) > 1 else self.constant_value())

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations -----------------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, Polynomial):  # ValueError from another tower
            return other if other.tower is self.tower else Polynomial(self.tower, other.coeffs)
        if isinstance(other, (int, Fraction, FieldElement)):
            return Polynomial(self.tower, (other,))
        return None

    def __add__(self, other):
        q = self._coerce_operand(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Polynomial(self.tower, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.tower, (-c for c in self.coeffs))

    def __sub__(self, other):
        q = self._coerce_operand(other)
        if q is None:
            return NotImplemented
        return self.__add__(-q)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        q = self._coerce_operand(other)
        if q is None:
            return NotImplemented
        if self.is_zero() or q.is_zero():
            return Polynomial.zero(self.tower)
        out = [self.tower.zero] * (len(self.coeffs) + len(q.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a:
                for k, b in enumerate(q.coeffs, j):
                    out[k] = muladd(out[k], a, b)
        return Polynomial(self.tower, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        require_order(n, 0, "polynomial power")
        result = Polynomial(self.tower, (1,))
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c: CoeffLike) -> "Polynomial":
        return self * Polynomial(self.tower, (c,))

    # -- division ------------------------------------------------------------

    def __divmod__(self, other: "Polynomial"):
        d = self._coerce_operand(other)
        if d is None:
            return NotImplemented
        if d.is_zero():
            raise ZeroPolynomialError("division by the zero polynomial")
        if self.degree < d.degree:
            return Polynomial.zero(self.tower), self
        # The leading term of each step cancels by construction, so only the
        # lower coefficients of the divisor are subtracted; a monic divisor,
        # as in every Euclid step after the first, needs no scaling.
        lead_inv = None if d.lead == 1 else d.lead.inverse()
        low = d.coeffs[:-1]
        rem = list(self.coeffs)
        dd = len(low)
        quot = [self.tower.zero] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c if lead_inv is None else c * lead_inv
            quot[k - dd] = q
            neg_q = -q
            for j, dc in enumerate(low, k - dd):
                rem[j] = muladd(rem[j], neg_q, dc)
        return Polynomial(self.tower, quot), Polynomial(self.tower, rem[:dd])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def divide_exact(self, d: "Polynomial") -> "Polynomial":
        quot, rem = divmod(self, d)
        if not rem.is_zero():
            raise NotDivisibleError("exact division left a remainder")
        return quot

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ZeroPolynomialError("the zero polynomial cannot be made monic")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        inv = lead.inverse()
        coeffs = [c * inv for c in self.coeffs[:-1]]
        coeffs.append(self.tower.one)
        return Polynomial(self.tower, coeffs)

    # -- calculus on the kappa-lattice ---------------------------------------

    def eval_at(self, x: CoeffLike) -> FieldElement:
        x = self.tower._coerce(x)
        acc = self.tower.zero
        for c in reversed(self.coeffs):
            acc = muladd(c, acc, x)
        return acc

    def taylor_shift(self, kappa: CoeffLike) -> "Polynomial":
        """p(z + kappa), exactly.

        Horner's scheme in place on one coefficient list (von zur Gathen and
        Gerhard, Fast algorithms for Taylor shifts and certain difference
        equations, 1997): pass i adds kappa * c[j+1] to c[j] for j from the
        top down to i, n(n+1)/2 fused steps for degree n.
        """
        kappa = self.tower._coerce(kappa)
        c = list(self.coeffs)
        top = len(c) - 1
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                c[j] = muladd(c[j], kappa, c[j + 1])
        return Polynomial(self.tower, c)

    def delta(self, kappa: CoeffLike) -> "Polynomial":
        """Forward difference p(z + kappa) - p(z); kappa must be nonzero."""
        kappa = require_shift(self.tower, kappa, "difference operator")
        return self.taylor_shift(kappa) - self

    def derivative(self) -> "Polynomial":
        return Polynomial(
            self.tower, (c * k for k, c in enumerate(self.coeffs) if k)
        )

    def ord_at(self, w: CoeffLike) -> int:
        """Multiplicity of w as a root (0 when p(w) != 0).

        Most points asked are not roots, and an F_p image proves that
        without exact work.  phi, branch 0 of the tower's first image mod
        ell (`modular`), is a ring map from the ell-integral elements onto
        F_ell.  When ell divides no coefficient denominator of p and not
        that of w, p(w) is ell-integral and phi(p(w)) = phi(p)(phi(w)); if
        that is nonzero, so is p(w), and the order is 0.  This is the
        ring-map argument of `gcd`'s coprimality proof.  phi(p) is computed
        once per polynomial.  Where the image vanishes, or ell divides a
        denominator, Horner passes over the tower decide.
        """
        if self.is_zero():
            raise ZeroPolynomialError("order at a point is undefined for the zero polynomial")
        w = self.tower._coerce(w)
        image = next(modular.images(self.tower))
        try:
            residues = self._image
        except AttributeError:
            residues = self._image = modular._branch0(self.coeffs, image)
        x = None if residues is None else modular._branch0((w,), image)
        if x is not None and modular.eval_mod(residues, x[0], image.p):
            return 0
        coeffs = list(self.coeffs)
        order = 0
        while True:
            # Horner pass produces quotient by (z - w) and the remainder p(w).
            quot = []
            acc = self.tower.zero
            for c in reversed(coeffs):
                acc = muladd(c, acc, w)
                quot.append(acc)
            if not acc.is_zero():
                return order
            order += 1
            coeffs = list(reversed(quot[:-1]))
            if not coeffs:
                return order

    def __repr__(self):
        from .parser import print_poly

        return f"Polynomial({print_poly(self)})"

    def __str__(self):
        from .parser import print_poly

        return print_poly(self)


def gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor; gcd(p, 0) = monic(p).

    Modular, with the answer proved over the tower.  Write a, b for p, q and
    let phi be one of the ring maps of `modular` from the ell-integral tower
    elements onto F_ell, for a suitable prime ell.  Take a, b with
    ell-integral coefficients and leading coefficients that phi keeps
    nonzero.  Then deg gcd(a, b) = deg a + deg b - rank S(a, b) for the
    Sylvester matrix S, and S(phi a, phi b) = phi S(a, b).  A nonzero minor
    of phi S is the image of a nonzero minor of S, so the rank can only drop
    under phi:

        deg gcd(phi a, phi b) >= deg gcd(a, b).

    A constant image gcd therefore proves a and b coprime.  Otherwise the
    images under all sign branches of the roots give the coordinates of a
    candidate mod ell, which Chinese remaindering and rational
    reconstruction lift to the tower.  A monic candidate of the image degree
    d that divides both a and b exactly is the gcd: it divides gcd(a, b),
    whose degree is at most d.  That division is the proof; a candidate that
    fails it, from an unlucky prime or a premature reconstruction, is
    dropped and the next prime taken.  Constant and linear inputs need no
    prime; every other answer passed the division.

    The loop ends.  `modular.images` never runs out of primes: a prime that
    splits completely in the normal closure of the tower and Q(zeta_8), and
    divides no radicand norm or denominator, suits the tower, and such
    primes have positive density (Chebotarev), so infinitely many lie above
    2**29, where the scan starts and walks upward.  Its primality test is
    exact on every candidate it can reach (see `modular._is_prime`).  Only
    finitely many primes are unlucky for given a and b: those dividing a
    denominator, the norm of a leading coefficient or that of one nonzero
    maximal minor of S(a, b).  Each lucky prime gives the gcd mod ell, so
    once enough are taken, Chinese remaindering and rational reconstruction
    return the gcd itself.
    """
    p._coerce_operand(q)  # ValueError unless both share one tower
    if p.is_zero() or q.is_zero():
        if p.is_zero() and q.is_zero():
            raise ZeroPolynomialError("gcd(0, 0) is undefined")
        return (q if p.is_zero() else p).monic()
    tower = p.tower
    if p.is_constant() or q.is_constant():
        return Polynomial(tower, (1,))
    if p.degree == q.degree == 1:
        # Two lines share their root exactly when their monic forms agree.
        g = p.monic()
        return g if q.monic() == g else Polynomial(tower, (1,))
    for coeffs in modular.gcd_candidates(p.coeffs, q.coeffs, tower):
        g = Polynomial(tower, coeffs)
        if g.degree == 0 or ((p % g).is_zero() and (q % g).is_zero()):
            return g


def multi_gcd(ps: Sequence[Polynomial]) -> Polynomial:
    """Monic gcd of a nonempty list (zero entries ignored unless all are zero)."""
    if not ps:
        raise ValueError("multi_gcd of an empty list")
    acc = ps[0]
    for q in ps[1:]:
        if acc.is_zero():
            acc = q
        elif not q.is_zero():
            acc = gcd(acc, q)
        if not acc.is_zero() and acc.degree == 0:
            return acc.monic()
    if acc.is_zero():
        raise ZeroPolynomialError("multi_gcd of all-zero inputs")
    return acc.monic()


def shift_gcd_factor(p: Polynomial, kappa: CoeffLike, m: int) -> Polynomial:
    """Monic gcd G of p(z), p(z+kappa), ..., p(z+(m-1)kappa).

    Modular, with the answer proved over the tower, as `gcd` is.  Let phi
    be one of the ring maps of `modular` onto F_ell for a suitable prime ell
    that divides no coefficient denominator of monic p or kappa.  Such an
    ell divides no radicand norm and not the tower's structure denominator,
    so the order on the tower's basis is integrally closed at ell.  G is
    monic and divides p; its coefficients are symmetric functions of roots
    of p, which are integral over that local order, so they are
    ell-integral, and so are the monic cofactors p(z+i*kappa) / G.
    Therefore phi(G) divides every phi(p(z+i*kappa)) = phi(p)(z+i*phi(kappa)),
    and so their gcd in F_ell[z]:

        deg G <= deg gcd_i phi(p)(z + i*phi(kappa)).

    That gcd is the chain of `modular.shift_candidates`: H_1 = phi(p) and
    H_{k+1} = gcd(H_k, H_k(z+phi(kappa))), since a shift is a ring
    automorphism that keeps polynomials monic.  A constant image proves G = 1.
    Otherwise a monic candidate h of the image degree d, lifted from the
    images under every branch, is accepted only if h(z - i*kappa) divides p
    exactly for every i < m: then h divides each p(z+i*kappa), hence G, and
    deg G <= d = deg h makes h = G.  A candidate that fails is dropped and
    the next prime taken; the loop ends for the reasons given in `gcd`
    (the upward scan from 2**29 never runs out of suitable primes), with the
    image chain in place of the image gcd.  A linear p has no two
    roots kappa apart, so its answer is 1 with no prime taken; m = 1 or a
    zero shift gives monic p.
    """
    return _shift_gcd_split(p, kappa, m)[0]


def _shift_gcd_split(p: Polynomial, kappa: CoeffLike, m: int) -> tuple[Polynomial, Polynomial]:
    """(G, monic p / G) for G = shift_gcd_factor(p, kappa, m).

    The quotient is the one the proof's i = 0 division leaves, so the
    difference radical needs no second division; G = 1 gives monic p.
    """
    require_order(m, 1, "shift window")
    tower = p.tower
    kappa = tower._coerce(kappa)
    g = p.monic()
    one = Polynomial(tower, (1,))
    if m == 1 or g.degree == 0 or kappa.is_zero():
        return g, one
    if g.degree == 1:
        return one, g
    for coeffs in modular.shift_candidates(g.coeffs, kappa, m, tower):
        h = Polynomial(tower, coeffs)
        if h.degree == 0:
            return h, g
        quot = _divides_shifts(h, g, kappa, m)
        if quot is not None:
            return h, quot


def _divides_shifts(h: Polynomial, p: Polynomial, kappa: FieldElement, m: int):
    """p / h when h(z - i*kappa) divides p exactly for every i < m, else None."""
    quot, rem = divmod(p, h)
    if not rem.is_zero():
        return None
    back = -kappa
    for _ in range(1, m):
        h = h.taylor_shift(back)
        if not (p % h).is_zero():
            return None
    return quot


def shift_window_excess(order: Callable[[FieldElement], int], w, kappa, m: int) -> int:
    """order(w) - min of order over the m points w, w+kappa, ..., w+(m-1)kappa.

    The window is the one shift_gcd_factor(p, kappa, m) takes on dense input,
    so with order = ord_at of p this is the exponent of (z - w) in p / that
    gcd.  The walk steps by kappa and stops once the minimum reaches 0.
    """
    base = low = order(w)
    point = w
    for _ in range(1, m):
        if low == 0:
            break
        point = point + kappa
        low = min(low, order(point))
    return base - low


def point_key(points: Iterable[FieldElement]) -> Callable[[FieldElement], tuple]:
    """Sort key on points of one tower that orders them exactly as their
    Fraction coordinates do: each point's numerators scaled to the lcm of the
    points' denominators, a tuple of integers over one common denominator."""
    den = lcm(*[w._den for w in points])
    return lambda w: tuple([x * (den // w._den) for x in w._num])


class Divisor:
    """Finite map from points to positive multiplicities, sorted once by
    point_key into the (point, multiplicity) pairs that items() walks."""

    __slots__ = ("tower", "_support", "_items")

    def __init__(self, tower: FieldTower, entries: Mapping | Iterable = ()):
        object.__setattr__(self, "tower", tower)
        merged: dict[FieldElement, int] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for point, mult in pairs:
            point = tower._coerce(point)
            if not isinstance(mult, int) or mult < 1:
                raise NonPositiveMultiplicityError(
                    f"multiplicity must be a positive integer, got {mult!r}"
                )
            merged[point] = merged.get(point, 0) + mult
        object.__setattr__(self, "_support", merged)
        key = point_key(merged)
        items = tuple(sorted(merged.items(), key=lambda pc: key(pc[0])))
        object.__setattr__(self, "_items", items)

    def __setattr__(self, name, value):
        raise AttributeError("Divisor is immutable")

    @classmethod
    def empty(cls, tower: FieldTower) -> "Divisor":
        return cls(tower)

    def multiplicity(self, point) -> int:
        return self._support.get(self.tower._coerce(point), 0)

    def support(self) -> tuple[FieldElement, ...]:
        return tuple([point for point, _ in self._items])

    def items(self):
        return iter(self._items)

    def total(self) -> int:
        return sum(self._support.values())

    def translate(self, delta) -> "Divisor":
        delta = self.tower._coerce(delta)
        return Divisor(self.tower, [(w + delta, c) for w, c in self._support.items()])

    def window_excess(self, kappa: FieldElement, m: int) -> list:
        """(w, ord_w - min_{0<=j<m} ord_{w+j*kappa}) for each point w where that
        is positive: the exponents of the root-route difference radical and
        the weights of n_tilde_q (m = q + 1)."""
        support = self._support

        def order(w) -> int:
            return support.get(w, 0)

        excess = [(w, shift_window_excess(order, w, kappa, m)) for w, _ in self._items]
        return [(w, e) for w, e in excess if e]

    def __len__(self) -> int:
        return len(self._support)

    def __bool__(self) -> bool:
        return bool(self._support)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Divisor):
            return NotImplemented
        return self._support == other._support

    def __hash__(self) -> int:
        return hash(frozenset(self._support.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{w}: {c}" for w, c in self.items())
        return f"Divisor({{{body}}})"


class FactoredPoly:
    """gamma * prod (z - w_j)^{m_j}: a nonzero leading coefficient and the
    Divisor of the roots.

    The divisor merges duplicate roots and sorts them by point_key, so
    equal products compare equal; factors, ord_at, roots and degree read it.
    """

    __slots__ = ("leading", "divisor")

    def __init__(self, leading: FieldElement, factors: Iterable[tuple] = ()):
        if not isinstance(leading, FieldElement):
            raise TypeError("leading coefficient must be a field element")
        if leading.is_zero():
            raise ZeroLeadingError("factored polynomial with zero leading coefficient")
        self.leading = leading
        self.divisor = Divisor(leading.tower, factors)

    @property
    def tower(self) -> FieldTower:
        return self.leading.tower

    @property
    def factors(self) -> tuple:
        """(root, multiplicity) pairs, roots in point_key order."""
        return tuple(self.divisor.items())

    @property
    def degree(self) -> int:
        return self.divisor.total()

    def ord_at(self, w: CoeffLike) -> int:
        return self.divisor.multiplicity(w)

    def roots(self) -> tuple:
        return self.divisor.support()

    def expand(self) -> Polynomial:
        """The dense product, multiplied out one (z - root) at a time on packed integers.

        Column t holds coordinate t of every coefficient, as integer
        numerators over one running denominator den, packed into one integer
        by Kronecker substitution z -> 2**B (von zur Gathen and Gerhard,
        Modern Computer Algebra, 8.4): the column is its polynomial's value
        at 2**B.  For root = R / d_R and s = d_R * tden,

            c * (z - root) = (s*z*c - R*c) / (s*den),

        where R*c is the basis-table product (its denominator is tden).  So a
        step shifts and scales each column and subtracts R*c by
        `field._product_into`, on integers.

        The packed arithmetic is exact, so only the final coefficients must
        fit their B-bit digits.  A step multiplies the sum of the absolute
        values of all numerators by at most s + sum_u |R_u| * C_u, where C_u
        (`FieldTower._table_norms`) is the largest sum of |v| over one
        product e_u * e_t.  So every final numerator is at most ||lead||_1
        times those factors, one per linear factor: `digit_limbs` sizes B
        from that bound and `unpack_columns` reads the coefficients back.
        """
        tower = self.tower
        table, tden, norms = tower._table, tower._tden, tower._table_norms
        bound = sum([abs(x) for x in self.leading._num])
        factors = self.factors
        for root, mult in factors:
            grow = root._den * tden + sum([abs(r) * norms[u] for u, r in enumerate(root._num)])
            bound *= grow**mult
        limbs = digit_limbs(bound)
        shift = limbs << 6
        den = self.leading._den
        cols = list(self.leading._num)
        for root, mult in factors:
            scale = root._den * tden
            for _ in range(mult):
                out = [col * scale << shift for col in cols]
                _product_into(out, root._num, cols, table, -1)
                cols = out
                den *= scale
        return unpack_columns(tower, cols, self.degree + 1, limbs, den)

    def __eq__(self, other):
        if not isinstance(other, FactoredPoly):
            return NotImplemented
        return self.leading == other.leading and self.divisor == other.divisor

    def __hash__(self):
        return hash((self.leading, self.divisor))

    def __repr__(self):
        from .parser import print_factored

        return f"FactoredPoly({print_factored(self)})"

    def __str__(self):
        from .parser import print_factored

        return print_factored(self)


# -- Kronecker substitution, shared by FactoredPoly.expand and mason.casoratian --


def digit_limbs(bound: int) -> int:
    """64-bit words per digit for signed digits of absolute value at most
    bound: B = bit length of bound plus a sign bit, rounded up to whole words."""
    return (bound.bit_length() + 64) >> 6


def unpack_columns(tower: FieldTower, cols: list, n: int, limbs: int, den: int) -> Polynomial:
    """The polynomial whose coefficient k has coordinate t equal to
    (digit k of cols[t]) / den.

    cols[t] is an integer polynomial in z packed at z = 2**B, B = 64*limbs,
    with n signed digits, each of absolute value below 2**(B-1).  Adding
    2**(B-1) to every digit makes them all nonnegative, so int.to_bytes lays
    them out in B-bit fields, which are read back (one-word digits by
    struct) and shifted down by 2**(B-1).  Each coefficient is
    canonicalised once.
    """
    nbytes = limbs << 3
    size = n * nbytes
    half = 1 << ((nbytes << 3) - 1)
    offset = int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
    fmt = f"<{n}Q"
    zero = [0] * n
    digits = []
    for col in cols:
        if not col:
            digits.append(zero)
            continue
        raw = (col + offset).to_bytes(size, "little")
        if limbs == 1:
            digits.append([x - half for x in unpack(fmt, raw)])
        else:
            words = range(0, size, nbytes)
            digits.append([int.from_bytes(raw[i : i + nbytes], "little") - half for i in words])
    return Polynomial(tower, [_make(tower, *_canon(num, den)) for num in zip(*digits)])
