"""Span tracer for the diffrad layers, patched in from outside the program.

``Tracer.install()`` wraps the public entry points of each ``diffrad``
module in a span and rebinds every name that refers to them in every
loaded ``diffrad`` module, so ``mason.gcd``, ``radical.multi_gcd`` and
``divisor.multi_gcd`` are traced as well as ``poly.gcd``. ``uninstall()``
puts the originals back.

Each wrapped function feeds one bucket (``layer.op``). A span's self time
is its duration minus the time its child spans cover; the tracer's own
bookkeeping for a child is counted as covered, so it lands in no bucket.
A bucket's total time sums its outermost spans, children included: a gcd
does its arithmetic in ``field.*`` spans, so its self time is small and its
total time is what the gcd stage costs.
A call is counted only when the enclosing span is of another bucket, so
``compare_real`` calling ``sign_real`` is one comparison. Spans record
only while ``active`` is set, so the benchmark's own input generation and
checks stay out of the figures.

The pipeline is one thread with no queues: no layer waits on another, so
the tracer records counts and busy time only.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from time import perf_counter

import diffrad
from diffrad.poly import Polynomial

# (module, attribute or Class.attribute, bucket)
SPANS = [
    ("field", "FieldElement.__mul__", "field.mul"),
    ("field", "FieldElement.__rmul__", "field.mul"),
    ("field", "FieldElement.__add__", "field.add"),
    ("field", "FieldElement.__radd__", "field.add"),
    ("field", "FieldElement.__sub__", "field.add"),
    ("field", "FieldElement.__rsub__", "field.add"),
    ("field", "FieldElement.inverse", "field.inv"),
    ("field", "FieldElement.__truediv__", "field.inv"),
    ("field", "FieldElement.__rtruediv__", "field.inv"),
    ("field", "FieldElement.embed", "field.embed"),
    ("field", "FieldElement.sign_real", "field.compare"),
    ("field", "compare_real", "field.compare"),
    ("poly", "Polynomial.__add__", "poly.add"),
    ("poly", "Polynomial.__radd__", "poly.add"),
    ("poly", "Polynomial.__sub__", "poly.add"),
    ("poly", "Polynomial.__rsub__", "poly.add"),
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("poly", "Polynomial.__rmul__", "poly.mul"),
    ("poly", "Polynomial.__divmod__", "poly.divmod"),
    ("poly", "Polynomial.monic", "poly.monic"),
    ("poly", "Polynomial.taylor_shift", "poly.taylor_shift"),
    ("poly", "Polynomial.ord_at", "poly.ord_at"),
    ("poly", "FactoredPoly.ord_at", "poly.ord_at"),
    ("poly", "FactoredPoly.expand", "poly.expand"),
    ("poly", "gcd", "poly.gcd"),
    ("poly", "multi_gcd", "poly.multi_gcd"),
    ("parser", "parse_poly", "parser.parse"),
    ("parser", "parse_constant", "parser.parse"),
    ("parser", "parse_factored", "parser.parse"),
    ("parser", "parse_root_mult", "parser.parse"),
    ("parser", "print_poly", "parser.print"),
    ("parser", "print_element", "parser.print"),
    ("parser", "print_factored", "parser.print"),
    ("radical", "diff_radical_m", "radical.gcd_route"),
    ("radical", "diff_radical_from_roots", "radical.root_route"),
    ("mason", "casoratian", "mason.casoratian"),
    ("mason", "linearly_independent", "mason.independence"),
    ("mason", "pairwise_coprime", "mason.coprime"),
    ("mason", "setwise_coprime", "mason.coprime"),
    ("mason", "check_mason_triple", "mason.check"),
    ("mason", "check_mason_multi", "mason.check"),
    ("fermat", "factorial_poly", "fermat.factorial"),
    ("fermat", "check_fermat_theorem", "fermat.check"),
    ("divisor", "n_count", "divisor.count"),
    ("divisor", "n_tilde_q", "divisor.count"),
    ("divisor", "N_integrated", "divisor.integrate"),
    ("divisor", "N_tilde_q_integrated", "divisor.integrate"),
    ("divisor", "check_truncation", "divisor.truncation"),
    ("divisor", "check_ord_inequality", "divisor.ord_inequality"),
    ("cli", "main", "cli.main"),
]

BUCKETS = sorted({bucket for _, _, bucket in SPANS})
_INDEX = {bucket: i for i, bucket in enumerate(BUCKETS)}
_ROOT = len(BUCKETS)  # the frame below every span
_GCD = _INDEX["poly.gcd"]
_DIVMOD = _INDEX["poly.divmod"]
_GCD_ROUTE = _INDEX["radical.gcd_route"]


def _coeff_bits(p: Polynomial) -> int:
    best = 0
    for c in p.coeffs:
        for x in c.coords:
            x = Fraction(x)
            best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = [0] * len(BUCKETS)
        self.self_s = [0.0] * len(BUCKETS)
        self.total_s = [0.0] * len(BUCKETS)  # outermost spans of the bucket only
        self.open = [0] * len(BUCKETS)
        self.stack = [[_ROOT, 0.0]]
        self.remainder_steps = 0
        self.radical_gcds = 0
        self.radical_gcds_nontrivial = 0
        self.coeff_bits_max = 0
        self._saved = []

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "diffrad" or name.startswith("diffrad."))]
        for mod_name, attr, bucket in SPANS:
            owner = getattr(diffrad, mod_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, bucket))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, bucket)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, bucket: str):
        b = _INDEX[bucket]
        tracer = self
        calls, self_s, total_s, open_, stack = (
            self.calls, self.self_s, self.total_s, self.open, self.stack
        )
        post = None
        if bucket.startswith("poly."):
            post = tracer._after_poly

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            parent = stack[-1]
            frame = [b, 0.0]
            stack.append(frame)
            open_[b] += 1
            if b == _DIVMOD and open_[_GCD]:
                tracer.remainder_steps += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                open_[b] -= 1
                self_s[b] += (t1 - t0) - frame[1]
                if parent[0] != b:
                    calls[b] += 1
                if not open_[b]:
                    total_s[b] += t1 - t0
            if post is not None:
                post(b, result)
            parent[1] += perf_counter() - t0
            return result

        return functools.wraps(fn)(span)

    def _after_poly(self, b: int, result) -> None:
        if b == _GCD and self.open[_GCD_ROUTE]:
            self.radical_gcds += 1
            if result.degree > 0:
                self.radical_gcds_nontrivial += 1
        outs = result if isinstance(result, tuple) else (result,)
        for p in outs:
            if isinstance(p, Polynomial):
                bits = _coeff_bits(p)
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        def calls(bucket):
            return self.calls[_INDEX[bucket]], "count"

        def self_s(bucket):
            return self.self_s[_INDEX[bucket]], "s"

        def total_s(bucket):
            return self.total_s[_INDEX[bucket]], "s"

        mul_calls = self.calls[_INDEX["field.mul"]]
        mul_us = self.self_s[_INDEX["field.mul"]] / mul_calls * 1e6 if mul_calls else 0.0
        ratio = self.radical_gcds_nontrivial / self.radical_gcds if self.radical_gcds else 0.0
        return {
            "field.mul_calls": calls("field.mul"),
            "field.mul_self_s": self_s("field.mul"),
            "field.mul_us": (mul_us, "us"),
            "field.add_self_s": self_s("field.add"),
            "field.inv_calls": calls("field.inv"),
            "field.inv_self_s": self_s("field.inv"),
            "field.compare_calls": calls("field.compare"),
            "field.compare_self_s": self_s("field.compare"),
            "field.embed_calls": calls("field.embed"),
            "field.embed_self_s": self_s("field.embed"),
            "poly.gcd_calls": calls("poly.gcd"),
            "poly.gcd_self_s": self_s("poly.gcd"),
            "poly.gcd_total_s": total_s("poly.gcd"),
            "poly.remainder_steps": (self.remainder_steps, "count"),
            "poly.gcd_nontrivial_ratio": (ratio, "ratio"),
            "poly.mul_calls": calls("poly.mul"),
            "poly.mul_self_s": self_s("poly.mul"),
            "poly.divmod_calls": calls("poly.divmod"),
            "poly.divmod_self_s": self_s("poly.divmod"),
            "poly.taylor_shift_calls": calls("poly.taylor_shift"),
            "poly.taylor_shift_self_s": self_s("poly.taylor_shift"),
            "poly.taylor_shift_total_s": total_s("poly.taylor_shift"),
            "poly.ord_at_self_s": self_s("poly.ord_at"),
            "poly.expand_self_s": self_s("poly.expand"),
            "poly.coeff_bits_max": (self.coeff_bits_max, "bits"),
            "radical.gcd_route_self_s": self_s("radical.gcd_route"),
            "radical.root_route_self_s": self_s("radical.root_route"),
            "mason.casoratian_calls": calls("mason.casoratian"),
            "mason.casoratian_self_s": self_s("mason.casoratian"),
            "mason.casoratian_total_s": total_s("mason.casoratian"),
            "mason.independence_self_s": self_s("mason.independence"),
            "mason.coprime_self_s": self_s("mason.coprime"),
            "fermat.factorial_self_s": self_s("fermat.factorial"),
            "divisor.count_self_s": self_s("divisor.count"),
            "divisor.integrate_self_s": self_s("divisor.integrate"),
            "divisor.truncation_self_s": self_s("divisor.truncation"),
            "divisor.ord_inequality_self_s": self_s("divisor.ord_inequality"),
            "parser.parse_calls": calls("parser.parse"),
            "parser.parse_self_s": self_s("parser.parse"),
            "parser.print_self_s": self_s("parser.print"),
            "cli.main_self_s": self_s("cli.main"),
        }
