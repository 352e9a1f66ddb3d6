"""Run configuration: a line-oriented "[section] / key = value" format.

Expressions are quoted strings ("0.5 + 0.2*t"); numbers and booleans are
bare.  "#" starts a comment outside quotes.  The typed RunConfig validates
ranges and builds the kernel pair, weight, and mesh objects on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, ExprError, ValidationError
from .expr import parse_expr
from .kernels import (KERNEL_PRESETS, WEIGHT_PRESETS, KernelPair, Weight)
from .quadrature import Mesh, default_grading

# the accepted keys of each section; any other section or key is an error
_KEYS = {
    "kernel": ("preset", "alpha", "b", "normalized"),
    "weight": ("preset", "w"),
    "forcing": ("f", "exact", "c", "manufactured"),
    "mesh": ("n", "r", "uniform"),
    "tolerances": ("identity",),
    "output": ("dir",),
    "pde": ("m", "initial"),
}


def _split_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            break
        out.append(ch)
    if quoted:
        raise ConfigError(f"unterminated quote in line: {line.strip()!r}")
    return "".join(out)


def parse_sections(text: str) -> dict:
    """Raw parse: {section: {key: value-string}}; quotes are stripped but
    quoted-ness is remembered by keeping the raw string contents verbatim."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in _KEYS[name]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{name}]; "
                              f"known: {', '.join(_KEYS[name])}")
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        current[key] = value
    return sections


def _get_float(sec, key, default, lo=None, hi=None):
    raw = sec.get(key)
    if raw is None:
        return default
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if (lo is not None and val < lo) or (hi is not None and val > hi):
        raise ConfigError(f"{key} = {val} outside allowed range")
    return val


def _get_int(sec, key, default, lo=None):
    raw = sec.get(key)
    if raw is None:
        return default
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    if lo is not None and val < lo:
        raise ConfigError(f"{key} = {val} below minimum {lo}")
    return val


def _get_bool(sec, key, default):
    raw = sec.get(key)
    if raw is None:
        return default
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be true or false, got {raw!r}")


@dataclass
class RunConfig:
    alpha_expr: str
    b: float
    normalized: bool
    weight_expr: str
    f_expr: Optional[str]
    exact_expr: Optional[str]
    c: float
    manufactured: bool
    n: int
    grading: Optional[float]     # None -> default_grading(alpha0); 1 if uniform
    identity_tol: float
    out_dir: str
    pde_m: int
    initial_expr: str

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        sec = parse_sections(text)
        kernel = sec.get("kernel", {})
        if "preset" in kernel:
            preset = kernel["preset"]
            if preset not in KERNEL_PRESETS:
                raise ConfigError(
                    f"unknown kernel preset {preset!r}; "
                    f"known: {', '.join(sorted(KERNEL_PRESETS))}")
            alpha_expr = KERNEL_PRESETS[preset]
        elif "alpha" in kernel:
            alpha_expr = kernel["alpha"]
        else:
            raise ConfigError("[kernel] needs 'preset' or 'alpha'")
        _check_expr(alpha_expr, "kernel alpha")

        weight = sec.get("weight", {})
        if "preset" in weight:
            wname = weight["preset"]
            if wname not in WEIGHT_PRESETS:
                raise ConfigError(
                    f"unknown weight preset {wname!r}; "
                    f"known: {', '.join(sorted(WEIGHT_PRESETS))}")
            weight_expr = WEIGHT_PRESETS[wname]
        else:
            weight_expr = weight.get("w", "1")
        _check_expr(weight_expr, "weight")

        forcing = sec.get("forcing", {})
        f_expr = forcing.get("f")
        exact_expr = forcing.get("exact")
        for name, e in (("forcing f", f_expr), ("exact", exact_expr)):
            if e is not None:
                _check_expr(e, name)

        mesh = sec.get("mesh", {})
        tol = sec.get("tolerances", {})
        out = sec.get("output", {})
        pde = sec.get("pde", {})
        initial_expr = pde.get("initial", "0")
        _check_expr(initial_expr, "pde initial")

        grading = _get_float(mesh, "r", None, lo=1.0)
        if _get_bool(mesh, "uniform", False):
            if grading is not None:
                raise ConfigError(f"[mesh] r = {grading:g} and uniform = true conflict: "
                                  "uniform means r = 1; give one of them")
            grading = 1.0
        return cls(
            alpha_expr=alpha_expr,
            b=_get_float(kernel, "b", 1.0, lo=1e-12),
            normalized=_get_bool(kernel, "normalized", False),
            weight_expr=weight_expr,
            f_expr=f_expr,
            exact_expr=exact_expr,
            c=_get_float(forcing, "c", 0.0),
            manufactured=_get_bool(forcing, "manufactured", False),
            n=_get_int(mesh, "n", 128, lo=1),
            grading=grading,
            identity_tol=_get_float(tol, "identity", 1e-8, lo=0.0),
            out_dir=out.get("dir", "."),
            pde_m=_get_int(pde, "m", 32, lo=1),
            initial_expr=initial_expr)

    @classmethod
    def from_path(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)

    # ------------------------------------------------------------ builders

    def make_pair(self) -> KernelPair:
        try:
            return KernelPair.make(self.alpha_expr, b=self.b,
                                   normalized=self.normalized)
        except (ExprError, ValidationError) as exc:
            raise ConfigError(f"bad kernel: {exc}") from exc

    def make_weight(self) -> Weight:
        try:
            return Weight.from_expr(self.weight_expr, b=self.b)
        except (ExprError, ValidationError) as exc:
            raise ConfigError(f"bad weight: {exc}") from exc

    def make_mesh(self, n: Optional[int] = None) -> Mesh:
        r = self.grading
        if r is None:
            r = default_grading(self.make_pair().alpha0)
        return Mesh(self.b, n if n is not None else self.n, r)


def _check_expr(text: str, what: str):
    try:
        parse_expr(text)
    except ExprError as exc:
        pos = getattr(exc, "pos", None)
        at = f" at position {pos}" if pos is not None else ""
        raise ConfigError(f"cannot parse {what} expression{at}: {exc}") from exc
