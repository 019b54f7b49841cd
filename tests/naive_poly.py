"""Schoolbook oracles for the differential tests.

Each polynomial oracle works on coefficient lists with plain FieldElement
`+`, `-`, `*` and `inverse()`, one operation at a time, and never calls the
fused kernels of `poly.py`, so a fault there cannot hide in its own
reference.  The sign oracles decide signs by refining interval boxes of
the complex embedding instead of the exact norm recursion of `field.py`.
"""

from diffrad import FactoredPoly, Polynomial, field


def _box_sign(x, part):
    """Sign of the real or imaginary part of x, by boxes of doubling precision."""
    if x.is_zero():
        return 0
    for k in range(16):
        box = field._eval_box(x._num, x._den, x.tower, 32 << k)
        lo, hi = (box.re_lo, box.re_hi) if part == "re" else (box.im_lo, box.im_hi)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
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
