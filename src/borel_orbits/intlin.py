"""Exact integer linear algebra: Smith form and nth roots."""

from __future__ import annotations

from fractions import Fraction


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a):
    """Return (u, d, v) with u*a*v == d diagonal and u, v unimodular."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    d = [list(row) for row in a]
    u = _identity(nrows)
    v = _identity(ncols)
    t = 0
    while True:
        piv = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = d[i][j]
                if x and (best is None or abs(x) < best):
                    piv, best = (i, j), abs(x)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            done = True
            for i in range(t + 1, nrows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    for c in range(ncols):
                        d[i][c] -= q * d[t][c]
                    for c in range(nrows):
                        u[i][c] -= q * u[t][c]
                    if d[i][t]:
                        d[t], d[i] = d[i], d[t]
                        u[t], u[i] = u[i], u[t]
                        done = False
            for j in range(t + 1, ncols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    for r in range(nrows):
                        d[r][j] -= q * d[r][t]
                    for r in range(ncols):
                        v[r][j] -= q * v[r][t]
                    if d[t][j]:
                        for row in d:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        done = False
            if done:
                break
        t += 1
    for i in range(min(nrows, ncols)):
        if d[i][i] < 0:
            for c in range(ncols):
                d[i][c] = -d[i][c]
            for c in range(nrows):
                u[i][c] = -u[i][c]
    return u, d, v


def integer_nth_root(m: int, k: int):
    """Exact k-th root of a nonnegative integer, or None."""
    if m < 0 or k < 1:
        raise ValueError("integer_nth_root needs m >= 0 and k >= 1")
    if m in (0, 1) or k == 1:
        return m
    lo, hi = 0, 1
    while hi ** k <= m:
        hi *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= m:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo ** k == m else None


def nth_root_fraction(x: Fraction, k: int):
    """Exact rational k-th root of a nonzero rational, or None."""
    if x == 0:
        raise ValueError("nth_root_fraction needs a nonzero argument")
    sign = 1
    if x < 0:
        if k % 2 == 0:
            return None
        sign = -1
        x = -x
    num = integer_nth_root(x.numerator, k)
    den = integer_nth_root(x.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(sign * num, den)
