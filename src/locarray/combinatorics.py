"""Exact counting: binomials, optimal column counts, and the binomial inequalities.

Everything here is exact arbitrary-precision integer arithmetic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "ALL_VARIANTS",
    "BoundParams",
    "VARIANT_11",
    "VARIANT_1_BAR1",
    "VARIANT_BAR1_1",
    "VARIANT_BAR1_BAR1",
    "VARIANT_LABELS",
    "Variant",
    "binomial",
    "bound_params",
    "inequality_failures",
    "max_columns",
]


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k < 0, n < 0, or k > n.

    The zero convention lets sums with loose index limits be written directly.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


class Variant(NamedTuple):
    """Which array flavour is meant, and the rule that follows from it.

    d_barred: at most one faulty (column, symbol) cell instead of exactly one.
    t_barred: interactions of strength at most 1 (so the empty interaction,
    which every row covers, takes part) instead of exactly 1.
    Everything the variants do differently follows from max_symbols,
    drops_zero_shape and, for d-barred arrays, BoundParams.dbar_recovers.
    """

    d_barred: bool
    t_barred: bool

    def max_symbols(self, n: int) -> int:
        """Largest v the variant admits on n rows (above it no array has a
        column): d-barred classes are nonempty, otherwise one may be empty."""
        return n if self.d_barred else n + 1

    def drops_zero_shape(self, v: int) -> bool:
        """Whether the balanced shape with an empty class is lost: d-barred arrays
        forbid the empty class, and at v = 2 its other class is the full row
        set, which t-barred arrays forbid."""
        return self.d_barred or (self.t_barred and v == 2)

    @property
    def label(self) -> str:
        if not self.d_barred and not self.t_barred:
            return "11"
        left = "bar1" if self.d_barred else "1"
        right = "bar1" if self.t_barred else "1"
        return f"{left}-{right}"


VARIANT_11 = Variant(d_barred=False, t_barred=False)
VARIANT_BAR1_1 = Variant(d_barred=True, t_barred=False)
VARIANT_1_BAR1 = Variant(d_barred=False, t_barred=True)
VARIANT_BAR1_BAR1 = Variant(d_barred=True, t_barred=True)
ALL_VARIANTS = (VARIANT_11, VARIANT_BAR1_1, VARIANT_1_BAR1, VARIANT_BAR1_BAR1)
VARIANT_LABELS = {v.label: v for v in ALL_VARIANTS}


class BoundParams(NamedTuple):
    """Derived quantities behind the optimal column count for a given n and v.

    f is the near-uniform block size floor((n+1)/v); d is the shortfall
    (f+1)*v - n, which equals v+1 exactly when n = v-1 (mod v); columns is
    the exact optimum for the base variant. dbar_recovers tells whether the
    d-barred optimum keeps that count (a top-level swap makes up for the
    shape with an empty class) rather than losing one column.
    """

    n: int
    v: int
    f: int
    d: int
    columns: int
    dbar_recovers: bool


def _binomial_prefix(n: int, lo: int, hi: int) -> tuple[int, int, int]:
    """(P, Q, T) with P/Q = C(n, hi)/C(n, lo) and T/Q the sum of C(n, i)/C(n, lo) over
    lo <= i < hi, by binary splitting: halves combine as (P1 P2, Q1 Q2, T1 Q2 + P1 T2)."""
    if hi - lo <= 24:  # short runs fold in one term ratio (n-i)/(i+1) at a time
        p, q, t = 1, 1, 0
        for i in range(lo, hi):
            p, q, t = p * (n - i), q * (i + 1), (t + p) * (i + 1)
        return p, q, t
    mid = (lo + hi) // 2
    (p1, q1, t1), (p2, q2, t2) = _binomial_prefix(n, lo, mid), _binomial_prefix(n, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def bound_params(n: int, v: int) -> BoundParams:
    """BoundParams from c_i = C(n, i) over levels i <= f. With m = max(0, f-d+2),
    columns is the sum of c_i over i < m plus floor(the sum of (f+1-i) c_i over
    m <= i <= f, over d); dbar_recovers asks d >= f+2 (so m = 0) and that second
    sum to leave a residue above f modulo d. One binary split gives the first sum
    and C(n, m), and the walk covers levels m to f, at most d-1 <= v of them.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if v < 2:
        raise ValueError(f"need v >= 2, got {v}")
    f = (n + 1) // v
    d = (f + 1) * v - n
    m = max(0, f - d + 2)
    p, q, t = _binomial_prefix(n, 0, m)
    c, tail = p // q, t // q  # C(n, i) at i = m, advanced by C(n, i+1) = C(n, i) * (n-i) / (i+1)
    head = 0
    for i in range(m, f + 1):
        head += (f + 1 - i) * c
        c = c * (n - i) // (i + 1)
    recovers = d >= f + 2 and head % d > f
    return BoundParams(n, v, f, d, head // d + tail, recovers)


def max_columns(n: int, v: int, variant: Variant = VARIANT_11) -> int:
    """Largest k for which an n x k array of the given variant exists.

    Exact for every n >= 1 and v >= 2; returns 0 when v exceeds
    variant.max_symbols(n). Otherwise it is the base optimum, one less when
    the variant drops the zero shape, and one more again when a d-barred
    array recovers it.
    """
    p = bound_params(n, v)  # raises ValueError for n < 1 or v < 2
    if v > variant.max_symbols(n):
        return 0
    return p.columns - variant.drops_zero_shape(v) + (variant.d_barred and p.dbar_recovers)


def inequality_failures(max_n: int = 200) -> list[str]:
    """Exact integer checks of the binomial bounds the constructions rely on.

    Covers the ratio identity, the two prefix-sum gaps at a = floor(n/v), and
    the two three-class step bounds. Returns one message per violation.
    """
    fails: list[str] = []
    for n in range(max_n + 1):
        row = [math.comb(n, i) for i in range(n + 1)]

        def c(i: int) -> int:
            return row[i] if 0 <= i <= n else 0

        for a in range(n + 1):
            if c(a - 1) * (n - a + 1) != a * c(a):
                fails.append(f"ratio identity fails at n={n}, a={a}")

        prefix = [0] * (n + 2)  # prefix[a] = sum of C(n, i) for i < a
        for i in range(n + 1):
            prefix[i + 1] = prefix[i] + row[i]

        for v in range(3, n):
            a = n // v
            if (v - 1) * prefix[a] >= c(a + 2):
                fails.append(f"prefix gap at a+2 fails for n={n}, v={v}")
            # doubled to compare (v-2)/2 * C(n,a) in integers
            if v >= 4 and (v - 2) * c(a) + 2 * (v - 1) * prefix[a] >= 2 * c(a + 1):
                fails.append(f"prefix gap at a+1 fails for n={n}, v={v}")

        if n >= 4:
            a = n // 3
            if n % 3 == 0 and c(a - 1) + 2 * c(a - 2) + c(a - 3) >= c(a + 1):
                fails.append(f"three-class step bound fails for n={n}")
            if n % 3 == 1 and c(a) + 4 * c(a - 1) + 2 * c(a - 2) >= 2 * c(a + 1):
                fails.append(f"three-class step bound fails for n={n}")
    return fails
