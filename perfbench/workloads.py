"""The three benchmark workloads: instance streams, the timed call, the check.

Each workload is a closed loop over instances drawn from a seeded stream.
``instances(seed)`` yields them forever in a fixed order, so instance k is
the same on every run with that seed. ``run`` is the only part that is
timed; it receives nothing but the generated inputs. ``check`` verifies the
outputs and returns their exact part, which goes into the output digest;
``input_key`` is what goes into the input digest.

Why these three: ``radical`` is exact gcd and Taylor-shift work whose gcds
find large common factors; ``certify`` is the CLI path (parsing, Casoratian
determinants, coprimality gcds that run down to a constant); ``counting``
is certified interval sign decisions and mpmath integrals with no gcd or
parser at all, the control that optimisations of the other two must leave
flat.

Input sizes are stratified by instance index (radical order, root count,
rational or imaginary shift, which lattice bases are irrational, truncation
parameters), so every seed draws the same mix of sizes and only the random
values differ: a run's figures then do not hinge on how many large
instances its seed happened to draw. Shifts come from the menu of
``generators.random_kappa``, with the imaginary quarter chosen by index.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import diffrad
import diffrad.cli
import diffrad.divisor
import diffrad.radical
from diffrad import generators as gen
from diffrad.fermat import Form


class CheckFailed(Exception):
    """An instance's output did not verify."""


def _elem(x) -> list[str]:
    return [str(Fraction(c)) for c in x.coords]


def _poly(p) -> list[list[str]]:
    return [_elem(c) for c in p.coeffs]


def _kappa(rng: random.Random, tower, imaginary: bool):
    """Shift from the random_kappa menu, times sqrt(-1) when asked."""
    picks = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
    kappa = tower.rational(rng.choice(picks))
    return kappa * tower.sqrt_gen(0) if imaginary else kappa


def _lattice(rng: random.Random, tower, kappa, count: int, k: int, spread: int = 3):
    """`count` roots base + j*kappa, |j| <= spread, on max(1, count // 2) bases.

    Every other base carries sqrt(2), or sqrt(3) on alternate periods of
    96 indices; one real square root per instance keeps the coefficient
    field at most Q(i, sqrt(d)). Which bases are irrational depends on the
    instance index k only; the values and the lattice offsets (so the
    collisions) are random.
    """
    root = tower.sqrt_gen(1 + (k // 96) % 2)
    bases = []
    for b in range(max(1, count // 2)):
        base = tower.rational(gen.random_fraction(rng))
        if (b + k) % 2:
            base = base + root * tower.rational(Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)))
        bases.append(base)
    return [bases[j % len(bases)] + kappa * rng.randint(-spread, spread) for j in range(count)]


def _exact(value):
    """The exact part of a JSON report: drop floats and free text."""
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in sorted(value.items()) if not isinstance(v, (float, str))}
    if isinstance(value, list):
        return [_exact(v) for v in value if not isinstance(v, (float, str))]
    return value


class Radical:
    """diff_radical_m on the dense form, then the root-route oracle."""

    name = "radical"
    max_roots = 8
    max_mult = 3
    orders = (2, 3, 4)
    sizes = {
        "m": "cycles 2, 3, 4",
        "roots": "1..8 lattice roots, the count stepping every 3 instances; "
        "multiplicities cycle 1..3; degree <= 24",
        "kappa": "rational from {1, -1, 2, 1/2, -3/2}; times sqrt(-1) on every fourth block of 24",
        "bases": "every other lattice base carries sqrt(2), or sqrt(3) on alternate blocks of 96",
        "tower": "default_tower() = Q(i, sqrt(2), sqrt(3)), depth 3",
    }

    def instances(self, seed: int):
        rng = random.Random(f"radical-{seed}")
        tower = diffrad.default_tower()
        k = 0
        while True:
            m = self.orders[k % 3]
            count = 1 + (k // 3) % self.max_roots
            kappa = _kappa(rng, tower, (k // 24) % 4 == 3)
            roots = _lattice(rng, tower, kappa, count, k)
            lead = tower.rational(rng.choice([1, -1, 2, Fraction(1, 2), 3]))
            f = diffrad.FactoredPoly(
                lead, [(r, 1 + (j + k) % self.max_mult) for j, r in enumerate(roots)]
            )
            yield f, kappa, m
            k += 1

    @staticmethod
    def input_key(inst):
        f, kappa, m = inst
        return [m, _elem(kappa), _elem(f.leading), [(_elem(r), e) for r, e in f.factors]]

    @staticmethod
    def run(inst):
        f, kappa, m = inst
        p = f.expand()
        gcd_route = diffrad.radical.diff_radical_m(p, kappa, m)
        root_route = diffrad.radical.diff_radical_from_roots(f, kappa, m)
        return p, gcd_route, root_route

    @staticmethod
    def check(inst, out):
        p, a, b = out
        if a.radical != b.radical or a.n_tilde != b.n_tilde:
            raise CheckFailed("gcd route and root route disagree")
        if a.reconstruct() != p:
            raise CheckFailed("cofactor * radical != p")
        return [a.n_tilde, _poly(a.radical)]


class Certify:
    """One textual request through the CLI entry point, run in-process."""

    name = "certify"
    kinds = (
        "mason", "mason-multi-2", "mason-multi-3", "mason-multi-4",
        "fermat-xyz", "fermat-xyz-n2", "fermat-sum", "fermat-sum1",
        "ord-2", "ord-3",
    )
    sizes = {
        "kinds": "cycle of " + ", ".join(kinds),
        "summands": "generators defaults: mason and fermat summands <= 2 roots of "
        "multiplicity <= 2, ord-inequality inputs <= 3 roots",
        "fermat": "xyz n=1 and the n=2 family; sum with m=3, sum1 with m=3; n=1",
        "ord": "random_ord_inputs with m=2, 3; radii 1,2,5,10",
        "kappa": "rational from {1, -1, 2, 1/2, -3/2}; times sqrt(-1) on every fourth cycle",
        "tower": "default_tower() = Q(i, sqrt(2), sqrt(3)), depth 3",
    }

    def instances(self, seed: int):
        rng = random.Random(f"certify-{seed}")
        tower = diffrad.default_tower()
        pp, pe, pf = diffrad.print_poly, diffrad.print_element, diffrad.print_factored
        k = 0
        while True:
            kind = self.kinds[k % len(self.kinds)]
            kappa = _kappa(rng, tower, (k // len(self.kinds)) % 4 == 3)
            if kind == "mason":
                argv = ["mason", *map(pp, gen.random_mason_triple(rng, tower, kappa))]
            elif kind.startswith("mason-multi"):
                m = int(kind[-1])
                ps = gen.random_mason_tuple(rng, tower, kappa, m)
                argv = ["mason", *map(pp, ps), "--multi"]
            elif kind.startswith("fermat"):
                form = {"xyz": Form.XYZ, "sum": Form.SUM_FACTORIAL, "sum1": Form.SUM_ONE}[
                    kind.split("-")[1]
                ]
                n = 2 if kind.endswith("n2") else None
                inst = gen.random_fermat_instance(rng, tower, form, m=3 if form != Form.XYZ else 2, n=n)
                kappa = inst.kappa
                argv = ["fermat", *map(pp, inst.ps), "--n", str(inst.n), "--form", form.value]
            else:
                m = int(kind[-1])
                gs = gen.random_ord_inputs(rng, tower, kappa, m)
                argv = ["divisor", "--ord-inequality", *map(pf, gs)]
            yield kind, argv + ["--kappa", pe(kappa)]
            k += 1

    @staticmethod
    def input_key(inst):
        return list(inst)

    @staticmethod
    def run(inst):
        _, argv = inst
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = diffrad.cli.main(argv + ["--json"])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    @staticmethod
    def check(inst, out):
        kind, _ = inst
        code, text = out
        if code != 0:
            raise CheckFailed(f"{kind}: exit code {code}")
        doc = json.loads(text)
        if doc["holds"] is not True:
            raise CheckFailed(f"{kind}: statement does not hold")
        art = doc["artifacts"]
        if kind.startswith("mason-multi") and art["casoratian_divisible_by_gcd_product"] is not True:
            raise CheckFailed(f"{kind}: Casoratian certificate missing")
        if kind.startswith("ord") and art["shift_gcd_divides_casoratian"] is not True:
            raise CheckFailed(f"{kind}: shift-gcd certificate missing")
        if Fraction(str(doc["lhs"])) > Fraction(str(doc["rhs"])):
            raise CheckFailed(f"{kind}: lhs exceeds rhs")
        return [code, doc["lhs"], doc["rhs"], _exact(art)]


class Counting:
    """check_truncation on a divisor, exact counts plus certified integrals."""

    name = "counting"
    max_points = 6
    radii_menu = [Fraction(x) for x in ("1/2", "1", "3/2", "2", "5/2", "3", "4", "5", "7", "10")]
    max_error = 1e-9
    sizes = {
        "q, n": "q cycles 1..3, n steps 1..3 every 3 instances",
        "points": "1..6 lattice points, the count stepping every 9 instances; "
        "multiplicities cycle 1..3",
        "radii": "5 distinct from 1/2, 1, 3/2, 2, 5/2, 3, 4, 5, 7, 10",
        "kappa": "rational from {1, -1, 2, 1/2, -3/2}; times sqrt(-1) on every fourth instance",
        "bases": "every other lattice base carries sqrt(2), or sqrt(3) on alternate blocks of 96",
    }

    def instances(self, seed: int):
        rng = random.Random(f"counting-{seed}")
        tower = diffrad.default_tower()
        k = 0
        while True:
            q, n = 1 + k % 3, 1 + (k // 3) % 3
            count = 1 + (k // 9) % self.max_points
            kappa = _kappa(rng, tower, k % 4 == 3)
            points = _lattice(rng, tower, kappa, count, k)
            D = diffrad.Divisor(tower, [(w, 1 + (j + k) % 3) for j, w in enumerate(points)])
            radii = sorted(rng.sample(self.radii_menu, 5))
            yield D, kappa, q, n, radii
            k += 1

    @staticmethod
    def input_key(inst):
        D, kappa, q, n, radii = inst
        return [_elem(kappa), q, n, [str(r) for r in radii], [(_elem(w), c) for w, c in D.items()]]

    @staticmethod
    def run(inst):
        D, kappa, q, n, radii = inst
        return diffrad.divisor.check_truncation(D, kappa, q, n, radii)

    @classmethod
    def check(cls, inst, report):
        if report.holds is not True:
            raise CheckFailed("truncation inequality does not hold")
        rows = report.artifacts["per_radius"]
        if any(not row["N_error"] <= cls.max_error for row in rows):
            raise CheckFailed("certified integral error above 1e-9")
        return [
            report.lhs,
            report.rhs,
            [[row["r"], row["n_lhs"], row["n_rhs"], row["n_holds"], row["N_holds"]] for row in rows],
        ]


WORKLOADS = {wl.name: wl for wl in (Radical(), Certify(), Counting())}
