"""Exact counting: binomials, optimal column counts, and the binomial inequalities.

Everything here is exact arbitrary-precision integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Variant:
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


@dataclass(frozen=True)
class BoundParams:
    """Derived quantities behind the optimal column count for a given n and v.

    f is the near-uniform block size floor((n+1)/v); d is the shortfall
    (f+1)*v - n, which equals v+1 exactly when n = v-1 (mod v); s and s_prime
    are the correction sums used by the two branches of the optimal-type
    construction; columns is the exact optimum for the base variant.
    dbar_recovers tells whether the d-barred optimum keeps that count (a
    top-level swap makes up for the shape with an empty class) rather than
    losing one column.
    """

    n: int
    v: int
    f: int
    d: int
    s: int
    s_prime: int
    columns: int
    dbar_recovers: bool


def bound_params(n: int, v: int) -> BoundParams:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if v < 2:
        raise ValueError(f"need v >= 2, got {v}")
    f = (n + 1) // v
    d = (f + 1) * v - n
    s = s_prime = head = tail = weighted = 0
    c = 1  # C(n, i), advanced by C(n, i+1) = C(n, i) * (n-i) / (i+1)
    for i in range(f + 1):
        if i >= f - d + 2:
            head += (f + 1 - i) * c
            if i < f:
                s += (d - f - 1 + i) * c
        else:
            tail += c
        if f - v + 1 <= i < f - 1:
            s_prime += (v - f + i) * c
        weighted += (f + 1 - i) * c
        c = c * (n - i) // (i + 1)
    recovers = d >= f + 2 and weighted % d > f
    return BoundParams(n, v, f, d, s, s_prime, head // d + tail, recovers)


def max_columns(n: int, v: int, variant: Variant = VARIANT_11) -> int:
    """Largest k for which an n x k array of the given variant exists.

    Exact for every n >= 1 and v >= 2; returns 0 when v exceeds
    variant.max_symbols(n). Otherwise it is the base optimum, one less when
    the variant drops the zero shape, and one more again when a d-barred
    array recovers it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if v < 2:
        raise ValueError(f"need v >= 2, got {v}")
    if v > variant.max_symbols(n):
        return 0
    p = bound_params(n, v)
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
