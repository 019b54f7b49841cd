"""Images of a quadratic tower in F_p: the modular route of `poly.gcd` and
`poly.shift_gcd_factor`.

A prime p suits a tower when p divides no radicand or structure denominator
and every radicand maps to a nonzero square mod p on every sign branch of
the earlier roots.  Then each choice of signs s = (s_0, ..., s_{k-1}) gives
a ring map phi_s from the p-integral elements of the tower onto F_p, sending
the j-th root to s_j times a fixed square root of the image of its radicand.
The 2**k maps act on a coordinate vector like a butterfly transform, one
generator at a time (x = lo + hi*sqrt(d) goes to phi(lo) +- r*phi(hi)), and
the transform inverts the same way, as `field._inv` splits an element.

Two kinds of gcd run on the images.  `gcd_candidates` takes the gcd of two
polynomials; `shift_candidates` runs the whole shift chain
G <- gcd(G, G(z+kappa)) of the difference radical, Taylor shifts included,
in F_p[z].  Both feed one lifting loop (`_lift`): branch 0 first, where a
constant image settles the answer, then every branch, the inverse transform
to coordinates mod p, Chinese remaindering over the primes and rational
reconstruction.  The gcd or chain runs once per distinct image: it depends
only on p and the residues, so branches whose residues coincide share it.
Input from a subfield makes whole groups of branches coincide.  Nothing
here proves a candidate; the callers in `poly` do, by exact division over
the tower.  `Polynomial.ord_at` reads branch 0 of the first image alone: a
nonzero value of the image there proves a nonzero value over the tower.

Everything here runs on raw integer coordinates and touches no FieldElement
arithmetic.  The suitable primes of a tower are found lazily, by a scan
upward from 2**29 that has no end (see `images`), and remembered on the
tower.  The first primes lie below 2**30, so every residue is one CPython
digit and every product of two residues at most two.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt, lcm

from .field import FieldTower, _make

_BOTTOM = (1 << 29) + 1  # the smallest p = 1 (mod 8) above 2**29
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases 2 to 37, exact for n < 3.18e23.

    That covers every candidate of `images`: the scan steps by 8 from 2**29,
    so passing 3.18e23 would take about 4e22 candidates.
    """
    if n < 2 or any(n % b == 0 for b in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for b in _BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1:
            for _ in range(s):
                if x == n - 1:
                    break
                x = x * x % n
            else:
                return False
    return True


class Image:
    """The 2**k ring maps of one tower into F_p.

    Branch b takes the sign - for root j when bit j of b is set.  `roots[j]`
    lists the chosen square root of the j-th radicand's image under each
    branch of the first j roots; `rho0[s]` is the image of basis element e_s
    under branch 0 (all signs +).
    """

    __slots__ = ("p", "roots", "rho0", "forward", "backward")

    def __init__(self, p: int, roots: list):
        self.p = p
        self.roots = roots
        rho0 = [1]
        for rj in roots:
            rho0 += [x * rj[0] % p for x in rho0]
        self.rho0 = rho0
        self.forward = _butterflies(roots, len(rho0))
        # The inverse undoes the last generator first: lo = (u + v) / 2 and
        # hi = (u - v) / (2r) for u = lo + r*hi, v = lo - r*hi.
        self.backward = [(t, u, pow(2 * r, -1, p)) for t, u, r in reversed(self.forward)]


def _butterflies(roots: list, n: int) -> list:
    """(t, u, r) steps taking coordinates to branch values on vectors of length n."""
    steps = []
    h = 1
    while h < n:
        rj = roots[h.bit_length() - 1]
        steps += [(t, t | h, rj[t & (h - 1)]) for t in range(n) if not t & h]
        h <<= 1
    return steps


def _transform(v: list, steps: list, p: int) -> list:
    """Coordinates to branch values, in place."""
    for t, u, r in steps:
        a, b = v[t], v[u] * r
        v[t], v[u] = (a + b) % p, (a - b) % p
    return v


def _untransform(v: list, steps: list, p: int) -> list:
    """Branch values back to coordinates, in place (steps from Image.backward)."""
    half = (p + 1) >> 1
    for t, u, w in steps:
        a, b = v[t], v[u]
        v[t], v[u] = (a + b) * half % p, (a - b) * w % p
    return v


def _sqrt_mod(v: int, p: int, s: int, c: int):
    """A square root of v mod p, or None unless v is a nonzero square.

    Tonelli-Shanks for p = q*2**s + 1 with q odd, given c = z**q for a
    non-square z.  r*r = t*v throughout, and each pass lowers the order of t,
    2**i, so the loops end; t of order 2**s means v is not a square.
    """
    if not v:
        return None
    x = pow(v, (p - 1) >> (s + 1), p)
    r = x * v % p
    t = x * r % p
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:
                return None
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _image(tower: FieldTower, p: int):
    """The tower's Image mod p, or None when p does not suit the tower."""
    if tower._tden % p == 0:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    half = (p - 1) >> 1
    z = next(z for z in range(2, p) if pow(z, half, p) == p - 1)
    c = pow(z, (p - 1) >> s, p)
    roots: list = []
    for num, den in tower._gens:
        if den % p == 0:
            return None
        dinv = pow(den, -1, p)
        values = _transform([x % p for x in num], _butterflies(roots, len(num)), p)
        level = [_sqrt_mod(v * dinv % p, p, s, c) for v in values]
        if None in level:
            return None
        roots.append(level)
    return Image(p, roots)


def images(tower: FieldTower):
    """The tower's images for the primes p = 1 (mod 8) that suit it, from
    2**29 up, without end (-1 and 2 are squares mod every such p).

    The scan starts just above 2**29 so that the primes used in practice are
    below 2**30, where millions of primes p = 1 (mod 8) lie and a lift takes
    a handful: every residue is one CPython digit.  Infinitely many suitable
    primes lie above any bound (see `poly.gcd`), so the scan never runs dry.

    The scan runs on the raw radicand coordinates and is memoised on the
    tower: a generator resumes it only past the images found so far.
    """
    memo = tower._fp_images
    if memo is None:
        memo = tower._fp_images = [[], _BOTTOM]  # found images, next candidate
    found = memo[0]
    for k in count():
        while len(found) == k:
            p, memo[1] = memo[1], memo[1] + 8
            image = _is_prime(p) and _image(tower, p)
            if image:
                found.append(image)
        yield found[k]


# -- polynomials mod p --------------------------------------------------------


def _den_factors(coeffs, p: int):
    """1/den mod p for each coefficient, from one inverse of the common
    denominator D; None when p divides D, that is, some denominator."""
    dens = [c._den for c in coeffs]
    common = lcm(*dens)
    if common == 1:
        return [1] * len(dens)
    if common % p == 0:
        return None
    dinv = pow(common, -1, p)
    return [common // d * dinv % p if d != 1 else 1 for d in dens]


def _branch0(coeffs, image: Image):
    """Residues of the coefficients under branch 0, or None if p divides a denominator."""
    p, rho = image.p, image.rho0
    factors = _den_factors(coeffs, p)
    if factors is None:
        return None
    return [sum([x * r for x, r in zip(c._num, rho) if x]) * f % p for c, f in zip(coeffs, factors)]


def _all_branches(coeffs, image: Image):
    """The polynomial's images under every branch, as one residue tuple per branch.

    Assumes no denominator vanishes (branch 0 was taken first).
    """
    p, steps = image.p, image.forward
    columns = []
    for c, f in zip(coeffs, _den_factors(coeffs, p)):
        v = _transform([x % p for x in c._num], steps, p)
        columns.append(v if f == 1 else [x * f % p for x in v])
    return list(zip(*columns))


def eval_mod(c: list, x: int, p: int) -> int:
    """c(x) in F_p, by Horner on a residue list (ascending)."""
    acc = 0
    for a in reversed(c):
        acc = (acc * x + a) % p
    return acc


def gcd_mod(a: list, b: list, p: int) -> list:
    """Monic gcd in F_p[z] of two residue lists (ascending) with nonzero leads."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        if b[-1] != 1:
            inv = pow(b[-1], -1, p)
            b = [x * inv % p for x in b]
        low = b[:-1]
        db = len(low)
        r = list(a)
        for k in range(len(r) - 1, db - 1, -1):
            c = r[k]
            if c:
                base = k - db
                r[base:k] = [(x - c * y) % p for x, y in zip(r[base:k], low)]
        del r[db:]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    return a


def shift_mod(c: list, k: int, p: int) -> list:
    """c(z + k) in F_p[z]: the Horner scheme of `Polynomial.taylor_shift`."""
    c = list(c)
    top = len(c) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            c[j] = (c[j] + k * c[j + 1]) % p
    return c


def _shift_chain(g: list, k: int, m: int, p: int) -> list:
    """Monic gcd in F_p[z] of g(z), g(z+k), ..., g(z+(m-1)k), for monic g.

    The chain of `poly.shift_gcd_factor`: G <- gcd(G, G(z+k)) m - 1 times,
    stopping early at a constant.
    """
    for _ in range(1, m):
        if len(g) == 1:
            break
        g = gcd_mod(g, shift_mod(g, k, p), p)
    return g


# -- rational reconstruction ----------------------------------------------------


def _rational(u: int, m: int, bound: int):
    """(n, d) with n = d*u (mod m), |n| <= bound, 0 < d <= bound, gcd 1; else None.

    Wang's half-extended Euclid on (m, u).
    """
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or gcd(r1, s1) != 1:
        return None
    return r1, s1


def _reconstruct(tower: FieldTower, residues: list, m: int):
    """Field elements whose coordinates reduce to the residues mod m, or None."""
    bound = isqrt(m >> 1)
    out = []
    for coords in residues:
        fracs = []
        for u in coords:
            f = _rational(u, m, bound) if u else (0, 1)
            if f is None:
                return None
            fracs.append(f)
        den = lcm(*[d for _, d in fracs])
        out.append(_make(tower, tuple([n * (den // d) for n, d in fracs]), den))
    return out


def _lift(tower: FieldTower, inputs: list, op):
    """The lifting loop shared by `gcd_candidates` and `shift_candidates`.

    inputs are coefficient lists of tower elements; op(p, *rows) takes their
    residue sequences (ascending) under one branch and returns the monic
    image there, or None when the prime does not suit the input.  A prime is
    also skipped when it divides a coefficient denominator.  Yields the
    coefficient lists (ascending, monic) that the images support, each to be
    proved or refuted by exact division; yields [one] only when an image
    proves the answer constant.  It has no end: the caller stops at a proof.

    Branch 0 runs first, so a constant there costs one branch.  Then op runs
    once per distinct tuple of rows: a function of (p, rows) alone gives
    equal rows an equal image, whatever the tower and however the branches
    came to agree.  Images whose degree differs between branches, or exceeds
    the lowest degree seen, are unlucky and dropped; a lower degree restarts
    the Chinese remaindering.
    """
    best = None  # the image degree the accumulated residues belong to
    acc = m = None
    for image in images(tower):
        p = image.p
        rows0 = [_branch0(c, image) for c in inputs]
        g0 = None if None in rows0 else op(p, *rows0)
        if g0 is None:
            continue
        if len(g0) == 1:
            yield [tower.one]
            return
        if best is not None and len(g0) > best:
            continue
        # Branches with equal rows share one op result; nothing mutates it.
        per_branch = zip(*[_all_branches(c, image) for c in inputs])
        memo = {next(per_branch): g0}
        branches = [g0]
        for rows in per_branch:
            if rows not in memo:
                memo[rows] = op(p, *rows)
            branches.append(memo[rows])
        if None in branches:
            continue
        sizes = {len(g) for g in branches}
        if min(sizes) == 1:
            yield [tower.one]
            return
        if len(sizes) > 1:
            continue
        size = sizes.pop()
        # Coordinates of each non-leading coefficient, back from its branch values.
        residues = [_untransform(list(col), image.backward, p) for col in zip(*branches)]
        del residues[-1]
        if best is None or size < best:
            best, acc, m = size, residues, p
        else:
            minv = pow(m, -1, p)
            acc = [
                [x + m * ((y - x) * minv % p) for x, y in zip(xs, ys)]
                for xs, ys in zip(acc, residues)
            ]
            m *= p
        coeffs = _reconstruct(tower, acc, m)
        if coeffs is not None:
            yield coeffs + [tower.one]


def gcd_candidates(a: list, b: list, tower: FieldTower):
    """Candidates (see `_lift`) for the monic gcd of two coefficient lists of degree >= 1.

    A prime is skipped when an input's leading coefficient vanishes under a
    branch.
    """

    def op(p: int, fa: list, fb: list):
        return gcd_mod(fa, fb, p) if fa[-1] and fb[-1] else None

    return _lift(tower, [a, b], op)


def shift_candidates(f: list, kappa, m: int, tower: FieldTower):
    """Candidates (see `_lift`) for the monic gcd of f(z), f(z+kappa), ..., f(z+(m-1)kappa).

    f is a monic coefficient list of degree >= 1; a shift keeps it monic
    under every branch.
    """

    def op(p: int, row: list, k: list):
        return _shift_chain(row, k[0], m, p)

    return _lift(tower, [f, [kappa]], op)
