"""Variable-exponent Abel kernel pairs, weight functions and the LICM test.

The kernel family is k(t) = t^(-alpha(t)) with 0 < alpha(t) < 1 on [0, b],
paired with the associate K(t) = t^(alpha(0)-1) / kappa where
kappa = Gamma(alpha(0)) * Gamma(1 - alpha(0)).  A "normalized" pair divides
k by Gamma(1 - alpha(t)) and uses K(t) = t^(alpha(0)-1) / Gamma(alpha(0))
instead, which is the convention the subdiffusion model uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

from .errors import DomainError, ValidationError
from .expr import ExprAst, diff_expr, parse_expr

VALIDATION_GRID_SIZE = 1024


def gamma(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Gamma function for positive arguments."""
    if np.any(np.asarray(x) <= 0.0):
        raise DomainError("gamma requires a positive argument")
    out = special.gamma(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def kappa(alpha0: float) -> float:
    """Gamma(a0) * Gamma(1-a0); equals pi / sin(pi*a0) for a0 in (0,1)."""
    if not 0.0 < alpha0 < 1.0:
        raise DomainError(f"alpha(0) must lie in (0,1), got {alpha0}")
    return gamma(alpha0) * gamma(1.0 - alpha0)


def _power(base, expo):
    """x^y as exp(y ln x), the convention used throughout the kernel layer."""
    return np.exp(expo * np.log(base))


@dataclass(frozen=True)
class VarExponent:
    """alpha(t) with its symbolic derivative and sampled metadata."""

    alpha: ExprAst
    alpha_prime: ExprAst
    alpha0: float
    lipschitz_sample: float  # max |alpha'| on the validation grid
    b: float

    @classmethod
    def from_expr(cls, alpha, b: float) -> "VarExponent":
        ast = parse_expr(alpha) if isinstance(alpha, str) else alpha
        extra = ast.variables() - {"t"}
        if extra:
            raise ValidationError(f"alpha may only depend on t, found {sorted(extra)}")
        prime = diff_expr(ast, "t")
        grid = np.linspace(0.0, b, VALIDATION_GRID_SIZE)
        vals = np.broadcast_to(ast.eval({"t": grid}), grid.shape)
        if np.any(vals <= 0.0) or np.any(vals >= 1.0):
            bad = grid[(vals <= 0.0) | (vals >= 1.0)][0]
            raise ValidationError(
                f"alpha(t) leaves (0,1) near t={bad:.6g} on [0,{b}]")
        lip = float(np.max(np.abs(np.broadcast_to(prime.eval({"t": grid}), grid.shape))))
        return cls(ast, prime, float(ast.eval({"t": 0.0})), lip, b)

    @property
    def is_constant(self) -> bool:
        return self.lipschitz_sample <= 1e-14

    def __call__(self, t):
        return self.alpha.eval({"t": t})

    def prime(self, t):
        return self.alpha_prime.eval({"t": t})


@dataclass(frozen=True)
class KernelPair:
    """The kernel k(t) = t^(-alpha(t)) and its associate K."""

    exponent: VarExponent
    kappa: float
    b: float
    normalized: bool = False

    @classmethod
    def make(cls, alpha, b: float = 1.0, normalized: bool = False) -> "KernelPair":
        expo = alpha if isinstance(alpha, VarExponent) else VarExponent.from_expr(alpha, b)
        return cls(expo, kappa(expo.alpha0), b, normalized)

    @property
    def alpha0(self) -> float:
        return self.exponent.alpha0

    @property
    def assoc_norm(self) -> float:
        """Normalizing constant of K: kappa, or Gamma(alpha0) when normalized."""
        return gamma(self.alpha0) if self.normalized else self.kappa

    def k(self, t):
        t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
        if np.any(np.asarray(t) <= 0.0):
            raise DomainError("k(t) is unbounded at t <= 0")
        a = self.exponent(t)
        val = _power(t, -np.asarray(a))
        if self.normalized:
            val = val / gamma(1.0 - np.asarray(a))
        return val

    def K(self, t):
        if np.any(np.asarray(t) <= 0.0):
            raise DomainError("K(t) is unbounded at t <= 0")
        return _power(t, self.alpha0 - 1.0) / self.assoc_norm

    def smooth_factor(self, x):
        """x^(alpha(0)-alpha(x)), continuously extended by 1 at x = 0."""
        scalar = np.ndim(x) == 0
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise DomainError("smooth_factor requires x >= 0")
        out = np.ones_like(x)
        pos = x > 0.0
        if np.any(pos) and not self.exponent.is_constant:
            xp = x[pos]
            out[pos] = _power(xp, self.alpha0 - np.asarray(self.exponent(xp)))
        return float(out) if scalar else out

    def smooth_factor_dt(self, t, z):
        """d/dt of (t z)^(alpha(0)-alpha(t z)) for fixed z in (0, 1]."""
        tz = np.asarray(t, dtype=float) * np.asarray(z, dtype=float)
        if np.any(np.asarray(tz) <= 0.0):
            raise DomainError("smooth_factor_dt requires t*z > 0")
        if self.exponent.is_constant:
            val = np.zeros_like(tz)
            return float(val) if np.ndim(t) == 0 and np.ndim(z) == 0 else val
        a = np.asarray(self.exponent(tz))
        ap = np.asarray(self.exponent.prime(tz))
        ln_tz = np.log(tz)
        val = _power(tz, self.alpha0 - a) * np.asarray(z) * (
            -ap * ln_tz + (self.alpha0 - a) / tz)
        return float(val) if np.ndim(t) == 0 and np.ndim(z) == 0 else val

    def k_smooth_part(self, x):
        """The bounded factor in k(x) = x^(-alpha(0)) * k_smooth_part(x),
        continuously extended at x = 0."""
        val = self.smooth_factor(x) * self.gamma_ratio(x)
        if self.normalized:
            val = val / gamma(1.0 - self.alpha0)
        return val

    def gamma_ratio(self, x):
        """Gamma(1-alpha(0)) / Gamma(1-alpha(x)); identically 1 unless
        normalized with a variable exponent."""
        if not self.normalized or self.exponent.is_constant:
            return np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
        a = np.asarray(self.exponent(x))
        return gamma(1.0 - self.alpha0) / gamma(1.0 - a)

    def gamma_ratio_dx(self, x):
        """d/dx of gamma_ratio, via the digamma function."""
        if not self.normalized or self.exponent.is_constant:
            return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
        a = np.asarray(self.exponent(x))
        ap = np.asarray(self.exponent.prime(x))
        return self.gamma_ratio(x) * special.digamma(1.0 - a) * ap


@dataclass(frozen=True)
class Weight:
    """w(s,t) with its partial derivatives and the sampled condition-(i) bound."""

    w: ExprAst
    w2: ExprAst          # dw/dt
    w1: ExprAst          # dw/ds, needed by manufactured-forcing oracles
    mu_lower: float
    b: float

    @classmethod
    def from_expr(cls, w, b: float = 1.0) -> "Weight":
        ast = parse_expr(w) if isinstance(w, str) else w
        extra = ast.variables() - {"s", "t"}
        if extra:
            raise ValidationError(f"w may only depend on s,t, found {sorted(extra)}")
        w2 = diff_expr(ast, "t")
        w1 = diff_expr(ast, "s")
        grid = np.linspace(0.0, b, VALIDATION_GRID_SIZE)
        diag = np.abs(np.broadcast_to(ast.eval({"s": grid, "t": grid}), grid.shape))
        return cls(ast, w2, w1, float(np.min(diag)), b)

    @property
    def condition_i_ok(self) -> bool:
        return self.mu_lower > 1e-12

    def __call__(self, s, t):
        return self.w.eval({"s": s, "t": t})

    def dt(self, s, t):
        return self.w2.eval({"s": s, "t": t})

    def ds(self, s, t):
        return self.w1.eval({"s": s, "t": t})


# ---------------------------------------------------------------- presets

KERNEL_PRESETS = {
    "abel-const": "0.5",
    "abel-linear": "0.5 + 0.2*t",
    "abel-sin": "0.5 + 0.2*sin(t)",
}

WEIGHT_PRESETS = {
    "w-one": "1",
    "w-bilinear": "1 + s*t",
    "w-expdiff": "exp(-(t - s))",
}


def kernel_preset(name: str, b: float = 1.0, normalized: bool = False) -> KernelPair:
    try:
        alpha = KERNEL_PRESETS[name]
    except KeyError:
        raise ValidationError(f"unknown kernel preset '{name}'") from None
    return KernelPair.make(alpha, b, normalized)


def weight_preset(name: str, b: float = 1.0) -> Weight:
    try:
        w = WEIGHT_PRESETS[name]
    except KeyError:
        raise ValidationError(f"unknown weight preset '{name}'") from None
    return Weight.from_expr(w, b)


# ---------------------------------------------------------------- LICM test

# central finite-difference stencils on offsets -2..2
_FD_STENCILS = {
    0: (0.0, 0.0, 1.0, 0.0, 0.0),
    1: (0.0, -0.5, 0.0, 0.5, 0.0),
    2: (0.0, 1.0, -2.0, 1.0, 0.0),
    3: (-0.5, 1.0, 0.0, -1.0, 0.5),
    4: (1.0, -4.0, 6.0, -4.0, 1.0),
}


@dataclass(frozen=True)
class LicmReport:
    passed: bool
    first_violation: tuple = None  # (order, t) or None
    max_order: int = 4
    grid_size: int = 0


def licm_check(fn, order: int = 4, grid=None, b: float = 1.0,
               grid_size: int = 64, tol: float = 1e-8) -> LicmReport:
    """Sign test for (-1)^n f^(n)(t) >= 0, n = 0..order, by central differences.

    Orders above 4 are refused: higher finite differences of singular
    kernels carry no usable signal.
    """
    if order < 0 or order > 4:
        raise ValidationError("licm_check supports orders 0..4")
    if grid is None:
        grid = np.logspace(np.log10(b * 1e-4), np.log10(b * 0.999), grid_size)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(grid > b):
        raise ValidationError("licm grid must lie strictly inside (0, b]")
    eps = np.finfo(float).eps
    for t in grid:
        h = t / 16.0
        pts = np.array([fn(t + k * h) for k in (-2, -1, 0, 1, 2)])
        scale = max(float(np.max(np.abs(pts))), 1.0)
        for n in range(order + 1):
            d = sum(c * p for c, p in zip(_FD_STENCILS[n], pts)) / h**n
            # rounding floor: the stencil cancels ~16*eps*scale of noise
            noise = 16.0 * eps * scale / h**n
            if ((-1) ** n) * d < -(tol * scale + noise):
                return LicmReport(False, (n, float(t)), order, len(grid))
    return LicmReport(True, None, order, len(grid))
