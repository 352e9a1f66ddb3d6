"""A low-rank table of g2 for the steppers' memory term.

For a variable exponent the steppers' memory term takes g2 at about N^2
points, 24 transcendental nodes each (sonine.eval_g2).  g2(s, lam) depends
on the pair and the weight alone, and its numerical rank on [0, b]^2 is
small (2 for w = 1 + s t), so it is tabulated once per SonineData as
sum_k a_k(s) b_k(lam): a_k Chebyshev in s, b_k on a grid uniform in
v = ln(lam/b) + 4 lam/b, read by its 6-point Lagrange interpolant.  v is
ln(lam/b) for lam << b; a grid uniform in ln lam alone is 2 % wide at
lam ~ b, where the stencil then errs by 2.5e-10 for alpha = 0.3 + 0.4 t^2.
The build samples sonine.eval_g2, looked up on the module at each call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import sonine
from .errors import DomainError
from .sonine import SonineData

G2_TABLE_DECADES = 32        # lags below b 10^-32 go to eval_g2
G2_TABLE_STEPS = 48          # grid steps per unit of v
G2_TABLE_S_NODES = 33        # Chebyshev points in s
G2_TABLE_STRIDE = 32         # every 32nd lag in the rank-revealing sample
G2_TABLE_MAX_RANK = 8
G2_TABLE_PIVOT_TOL = 1e-14   # relative to the sample's max |g2|
G2_TABLE_CHECK_TOL = 1e-12   # relative to max(1, |g2|)
G2_TABLE_CHECK_POINTS = 512
G2_TABLE_CHUNK = 2048
_STENCIL = 6


# the lag grid: v_j = _V0 + j / _V_SCALE, j < _LAGS, from v(10^-32) to v(1)
_V0 = math.log(10.0 ** -G2_TABLE_DECADES) + 4.0 * 10.0 ** -G2_TABLE_DECADES
_LAGS = math.ceil((4.0 - _V0) * G2_TABLE_STEPS) + 1
_V_SCALE = (_LAGS - 1) / (4.0 - _V0)
# the lags of the rank-revealing sample: every G2_TABLE_STRIDE-th, and b
_SAMPLE = [*range(0, _LAGS - 1, G2_TABLE_STRIDE), _LAGS - 1]
# exact g2 points of the smallest (rank 1) build; a stepper whose memory
# term takes fewer does not build the table
G2_TABLE_MIN_POINTS = G2_TABLE_S_NODES * len(_SAMPLE) + _LAGS + G2_TABLE_CHECK_POINTS


@lru_cache(maxsize=1)
def _table_grid():
    """(y, x, dct, lagrange), made at the first build:
    y: the unit lags lam_j / b of the grid, exact at the ends;
    x: the Chebyshev points cos(k pi / (n - 1)), n = G2_TABLE_S_NODES;
    dct: the map from values at x to the interpolant's Chebyshev series;
    lagrange[m, c]: coefficient of (theta - 2.5)^c in the Lagrange basis
    polynomial of the node theta = m, m = 0..5.
    ln y = w solves w + 4 e^w = v by Newton from w = v: the left side is
    convex and above v there, so the iterates fall monotonically (about 1
    per step while e^w dominates, then quadratically)."""
    v = _V0 + np.arange(_LAGS) / _V_SCALE
    w = v.copy()
    for _ in range(40):
        e = 4.0 * np.exp(w)
        w -= (w + e - v) / (1.0 + e)
    y = np.exp(w)
    y[0], y[-1] = 10.0 ** -G2_TABLE_DECADES, 1.0
    n = G2_TABLE_S_NODES
    x = np.array([math.cos(math.pi * k / (n - 1)) for k in range(n)])
    dct = np.empty((n, n))            # T_j(x_k) by the three-term recurrence
    dct[0], dct[1] = 1.0, x
    for j in range(2, n):
        dct[j] = 2.0 * x * dct[j - 1] - dct[j - 2]
    dct *= 2.0 / (n - 1)
    dct[:, [0, -1]] *= 0.5
    dct[[0, -1]] *= 0.5
    nodes = np.arange(_STENCIL) - 2.5
    lagrange = np.empty((_STENCIL, _STENCIL))
    for m in range(_STENCIL):
        c = np.ones(1)
        for node in nodes[np.arange(_STENCIL) != m]:
            c = (np.append(0.0, c) - node * np.append(c, 0.0)) / (nodes[m] - node)
        lagrange[m] = c
    return y, x, dct, lagrange


@dataclass(frozen=True)
class G2Table:
    """g2(s, lam) ~ sum_k a_k(s) b_k(lam) on [0, b] x [b 10^-32, b], or the
    reason it could not be made (fallback; rank 0), when eval_g2 serves."""

    b: float
    rank: int
    coef: Optional[np.ndarray]   # (degree + 1, rank): a_k in Chebyshev T_j(2s/b - 1)
    poly: Optional[np.ndarray]   # (rank, 6, n - 5): b_k's quintic per stencil
    exact_points: int            # exact g2 points the build asked for
    build_s: float
    check_error: Optional[float]  # held-out max |table - g2| / max(1, |g2|)
    fallback: Optional[str] = None

    @property
    def lag_min(self) -> float:
        return self.b * 10.0 ** -G2_TABLE_DECADES

    @property
    def table_points(self) -> int:
        return 0 if self.fallback else self.coef.size + self.rank * _LAGS

    def summary(self) -> dict:
        return {"rank": self.rank, "table_points": self.table_points,
                "build_s": self.build_s, "check_error": self.check_error,
                "exact_points": self.exact_points, "fallback": self.fallback}

    def __call__(self, s, lam) -> np.ndarray:
        """The table at 1-D arrays s, lam of equal length; lags below lag_min
        read the table at lag_min."""
        out = np.empty(s.size)
        work = np.empty((2 + self.coef.shape[0], G2_TABLE_CHUNK))
        for a in range(0, s.size, G2_TABLE_CHUNK):
            chunk = slice(a, a + G2_TABLE_CHUNK)
            out[chunk] = self._chunk(s[chunk], lam[chunk], work)
        return out

    def _chunk(self, s, lam, work):
        n = len(s)
        p, theta, *cheb = work[:, :n]
        # a_k: the Chebyshev series by the three-term recurrence
        cheb[0].fill(1.0)
        if len(cheb) > 1:
            np.multiply(s, 2.0 / self.b, out=cheb[1])
            cheb[1] -= 1.0
        for d in range(2, len(cheb)):
            np.multiply(cheb[1], cheb[d - 1], out=cheb[d])
            cheb[d] *= 2.0
            cheb[d] -= cheb[d - 2]
        a = self.coef.T @ work[2:, :n]
        # b_k: the quintic of the stencil j..j+5 around the grid position p
        np.maximum(lam, self.lag_min, out=p)
        p /= self.b
        np.log(p, out=theta)
        p *= 4.0
        p += theta
        p -= _V0
        p *= _V_SCALE
        j = p.astype(np.intp)          # floor: p >= 0
        np.clip(j, 2, _LAGS - 4, out=j)
        np.subtract(p, j, out=theta)
        theta -= 0.5
        j -= 2
        for k in range(self.rank):
            quintic = np.take(self.poly[k], j, axis=1)
            acc = quintic[-1]
            for c in range(_STENCIL - 2, -1, -1):
                acc *= theta
                acc += quintic[c]
            a[k] *= acc
        return a.sum(axis=0)


class G2Kernel:
    """g2(s, x) for the memory term of one solve taking `points` g2 points:
    from the G2Table g2_table gives, else (constant exponent, no table yet,
    or a fallback) from exact(s, x), the caller's own eval_g2.  Lags below
    the table go to exact too, and are counted."""

    def __init__(self, data: SonineData, points: int, exact):
        had_table = "table" in data.g2_cache
        self.table = g2_table(data, points)
        self.exact = exact
        self.built = self.table is not None and not had_table
        self.below_points = 0

    def __call__(self, s, x):
        table = self.table
        if table is None or table.fallback is not None:
            return self.exact(s, x)
        s, x = np.broadcast_arrays(np.asarray(s, float), np.asarray(x, float))
        s, x = s.ravel(), x.ravel()
        out = table(s, x)
        below = x < table.lag_min
        if below.any():
            self.below_points += int(np.count_nonzero(below))
            out[below] = self.exact(s[below], x[below])
        return out

    def record(self) -> Optional[dict]:
        """The table's summary and the solve's below_points; None without
        a table."""
        if self.table is None:
            return None
        return {**self.table.summary(), "below_points": self.below_points}


def g2_table(data: SonineData, points: int) -> Optional[G2Table]:
    """The g2 table of data for a stepper whose memory term takes `points`
    exact g2 points: None for a constant exponent, or while no table exists
    and points <= G2_TABLE_MIN_POINTS; else the cached table, built on the
    first call that needs it (never by SonineData.make)."""
    if data.pair.exponent.is_constant:
        return None
    table = data.g2_cache.get("table")
    if table is None and points > G2_TABLE_MIN_POINTS:
        table = data.g2_cache["table"] = _build_table(data)
    return table


def _build_table(data: SonineData) -> G2Table:
    """Cross approximation of exact eval_g2 samples on [0, b]^2 in (s, lam):
    Gaussian elimination with complete pivoting on the Chebyshev-by-sampled-
    lag matrix gives the rank and the skeleton rows I and columns J, and
    g2 ~ g2(:, J) g2(I, J)^-1 g2(I, :) with g2(I, :) on the whole lag grid
    comes out of the same elimination, without a solve.  The square puts
    s + lam up to 2b, so the weight is evaluated there."""
    started = time.perf_counter()
    y, x, dct, lagrange = _table_grid()
    b = data.b
    square = replace(data, pair=replace(data.pair, b=2.0 * b))
    s = 0.5 * b * (1.0 + x)
    lam = b * y
    points = 0

    def exact(ss, ll):
        nonlocal points
        points += np.broadcast(ss, ll).size
        vals = sonine.eval_g2(square, ss, ll)
        if not np.all(np.isfinite(vals)):
            raise DomainError("non-finite g2")
        return vals

    def done(rank=0, coef=None, poly=None, check=None, fallback=None):
        return G2Table(b, rank, coef, poly, points, time.perf_counter() - started,
                       check, fallback)

    try:
        sample = exact(s[:, None], lam[None, _SAMPLE])
    except DomainError as exc:
        return done(fallback=f"weight not evaluable on [0, b]^2: {exc}")
    # Gaussian elimination with complete pivoting: step k takes the column
    # a_k = resid[:, j] / resid[i, j] and the row resid[i, :]
    resid = sample.copy()
    tol = G2_TABLE_PIVOT_TOL * np.max(np.abs(sample))
    rows, a = [], []
    while True:
        i, j = divmod(int(np.argmax(np.abs(resid))), resid.shape[1])
        if abs(resid[i, j]) <= tol:
            break
        if len(rows) == G2_TABLE_MAX_RANK:
            return done(fallback=f"rank above {G2_TABLE_MAX_RANK}")
        rows.append(i)
        a.append(resid[:, j] / resid[i, j])
        resid -= a[-1][:, None] * resid[i]
    rank = len(rows)
    try:
        lags = exact(s[rows][:, None], lam[None, :])
    except DomainError as exc:
        return done(rank, fallback=f"weight not evaluable on [0, b]^2: {exc}")
    # the same elimination on the whole lag grid gives b_k
    for k, i in enumerate(rows):
        for m in range(k):
            lags[k] -= a[m][i] * lags[m]
    # a_k's Chebyshev series, cut after the last coefficient above the
    # rounding of the samples
    coef = dct @ np.transpose(a)
    big = np.abs(coef) > G2_TABLE_PIVOT_TOL * np.max(np.abs(coef), axis=0)
    coef = coef[: np.flatnonzero(big.any(axis=1)).max() + 1]
    # poly[k, c, j]: coefficient c of b_k's quintic on the stencil j..j+5
    poly = np.zeros((rank, _STENCIL, _LAGS - _STENCIL + 1))
    for m in range(_STENCIL):
        poly += lagrange[m][:, None] * lags[:, None, m:m + poly.shape[2]]
    table = done(rank, coef, poly)
    # held-out check on the triangle: a Kronecker sequence in s, lags
    # uniform on [lag_min, b - s], log-uniform at every other point
    k = np.arange(1, G2_TABLE_CHECK_POINTS + 1)
    cs = k * 0.7548776662466927
    cs = b * (cs - np.floor(cs))
    q = k * 0.5698402909980532
    q -= np.floor(q)
    top = b - cs
    cl = np.maximum(top * q, table.lag_min)
    cl[1::2] = table.lag_min * (top[1::2] / table.lag_min) ** q[1::2]
    want = exact(cs, cl)
    check = float(np.max(np.abs(table(cs, cl) - want)
                         / np.maximum(1.0, np.abs(want))))
    fallback = None
    if not check <= G2_TABLE_CHECK_TOL:
        fallback = f"held-out error {check:.2e} above {G2_TABLE_CHECK_TOL:g}"
    return replace(table, exact_points=points, build_s=time.perf_counter() - started,
                   check_error=check, fallback=fallback)
