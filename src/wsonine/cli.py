"""Command-line front door: verify | solve | converge.

stdout carries exactly one JSON summary line; all human diagnostics go to
stderr.  Exit codes: 0 success, 2 configuration error, 3 verification
failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import vie
from .config import RunConfig
from .csvfile import write_csv
from .errors import (ConfigError, DomainError, ExprError, NumericalError,
                     UnsupportedConfigurationError, ValidationError)
from .expr import as_function
from .kernels import licm_check
from .quadrature import Mesh
from .sonine import (SonineData, csc_residual, wsc1_report, wsc2_report)
from .subdiffusion import PdeConfig, solve_subdiffusion

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_NUMERICAL = 4

_SOLVE_KINDS = ("vie1", "vie1k", "ode", "pde")
# [forcing] manufactured builds f of a first-kind equation from its solution
_MANUFACTURED_KINDS = ("vie1", "vie1k")


def _emit(summary: dict) -> None:
    sys.stdout.write(json.dumps(summary) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


# ----------------------------------------------------------------- verify

def cmd_verify(cfg: RunConfig, out_dir: str) -> int:
    pair = cfg.make_pair()
    data = SonineData.make(pair, cfg.make_weight())
    tol = cfg.identity_tol
    failures = []
    residuals = []
    checks = {"csc": "skipped", "wsc1": "skipped", "wsc2": "skipped",
              "licm": "skipped"}

    if pair.exponent.is_constant:
        ts = [0.1 * k * pair.b for k in range(1, 11)]
        rs = [csc_residual(data, t) for t in ts]
        write_csv(os.path.join(out_dir, "csc.csv"), ["t", "residual"],
                  zip(ts, rs))
        worst = max(rs)
        residuals.append(worst)
        checks["csc"] = "pass" if worst <= tol else "fail"
        _note(f"CSC residual: max {worst:.3e} over {len(ts)} points "
              f"({'pass' if worst <= tol else 'FAIL'})")
        if worst > tol:
            failures.append("csc")
    else:
        _note("CSC identity: skipped (holds for constant exponents only)")

    rep1 = wsc1_report(data, tolerance=tol)
    rep1.write_csv(os.path.join(out_dir, "wsc1.csv"))
    residuals.append(rep1.max_residual)
    checks["wsc1"] = "pass" if rep1.passed else "fail"
    _note(rep1.summary())
    failures.extend(rep1.failures)

    if pair.exponent.is_constant:
        rep2 = wsc2_report(data, tolerance=tol)
        rep2.write_csv(os.path.join(out_dir, "wsc2.csv"))
        residuals.append(rep2.max_residual)
        checks["wsc2"] = "pass" if rep2.passed else "fail"
        _note(rep2.summary())
        failures.extend(rep2.failures)
    else:
        _note("WSC2: skipped (supported for constant exponents only)")

    lic = licm_check(pair.k, b=pair.b)
    checks["licm"] = "pass" if lic.passed else "fail"
    _note(f"LICM screen of k up to order {lic.max_order}: "
          f"{'pass' if lic.passed else 'FAIL'}"
          + ("" if lic.passed else f" (first violation {lic.first_violation})"))
    if not lic.passed:
        failures.append("licm")

    ok = not failures
    _emit({"command": "verify",
           "status": "pass" if ok else "fail",
           "max_residual": max(residuals) if residuals else None,
           "failures": sorted(set(failures)),
           "checks": checks})
    return EXIT_OK if ok else EXIT_VERIFY


# ------------------------------------------------------------------ solve

def _build_forcing(cfg: RunConfig, pair, weight) -> vie.Forcing:
    if cfg.manufactured:
        if cfg.exact_expr is None:
            raise ConfigError("manufactured forcing needs an exact expression")
        return vie.manufactured_forcing(pair, weight, cfg.exact_expr)
    if cfg.f_expr is None:
        raise ConfigError("missing [forcing] f expression")
    return vie.Forcing.from_expr(cfg.f_expr)


def _solve_once(cfg: RunConfig, kind: str, mesh: Mesh):
    """Returns (report-like, error-vs-exact or None, max_residual or None)."""
    if cfg.manufactured and kind not in _MANUFACTURED_KINDS:
        raise ConfigError(f"manufactured = true builds a first-kind forcing, for "
                          f"--kind {' or '.join(_MANUFACTURED_KINDS)} only, not {kind}")
    pair = cfg.make_pair()
    weight = cfg.make_weight()

    if kind == "pde":
        if cfg.f_expr is None:
            raise ConfigError("missing [forcing] f expression")
        pcfg = PdeConfig(cfg.pde_m, mesh, pair, weight, cfg.f_expr,
                         cfg.initial_expr, exact=cfg.exact_expr)
        sol = solve_subdiffusion(pcfg)
        err = sol.final_l2_error(cfg.exact_expr) if cfg.exact_expr else None
        return sol, err, float(np.max(sol.solve_residuals))

    exact = None if cfg.exact_expr is None else as_function(cfg.exact_expr)
    forcing = _build_forcing(cfg, pair, weight)
    if kind == "ode":
        prob = vie.NonlocalOdeProblem(pair, weight, forcing, c=cfg.c)
        rep = vie.solve_nonlocal_ode(prob, mesh)
        max_res = None
    else:
        variant = "weighted-k" if kind == "vie1" else "K-kernel"
        prob = vie.FirstKindProblem(pair, weight, forcing, variant=variant)
        rep = vie.solve_first_kind(prob, mesh)
        pts, res = vie.residual_first_kind(
            prob, mesh, rep.u, [0.25 * cfg.b, 0.5 * cfg.b, cfg.b])
        rep.residual_points, rep.residuals = pts, res
        max_res = rep.max_residual
    err = None
    if exact is not None:
        try:
            err = vie.max_node_error(mesh, rep.u, exact)
        except (DomainError, ZeroDivisionError, FloatingPointError):
            err = None
        if err is None or not np.isfinite(err):
            err = vie.weighted_l1_error(mesh, rep.u, exact)
    return rep, err, max_res


def cmd_solve(cfg: RunConfig, kind: str, out_dir: str) -> int:
    mesh = cfg.make_mesh()
    rep, err, max_res = _solve_once(cfg, kind, mesh)
    if kind == "pde":
        rep.write_csv(os.path.join(out_dir, "solution.csv"))
    else:
        rep.write_solution_csv(os.path.join(out_dir, "solution.csv"))
        if rep.residuals is not None:
            write_csv(os.path.join(out_dir, "residuals.csv"), ["t", "residual"],
                      zip(rep.residual_points, rep.residuals))
    _note(f"solve kind={kind} N={mesh.n} done; outputs in {out_dir}")
    summary = {"command": "solve", "status": "ok", "kind": kind,
               "jacobi_nodes": rep.meta["jacobi_nodes"],
               "memory_skipped": rep.meta["memory_skipped"],
               "timings": rep.meta["timings"]}
    if max_res is not None:
        summary["max_residual"] = max_res
    if err is not None:
        summary["error"] = err
    _emit(summary)
    return EXIT_OK


# --------------------------------------------------------------- converge

def cmd_converge(cfg: RunConfig, kind: str, doublings: int, out_dir: str) -> int:
    if cfg.exact_expr is None:
        raise ConfigError("converge needs an exact expression in [forcing]")

    def solve(mesh):
        # pde refines space and time together: m doubles with N
        m = cfg.pde_m * mesh.n // cfg.n
        return _solve_once(dataclasses.replace(cfg, pde_m=m), kind, mesh)

    history, _ = vie.refinement_study(solve, cfg.make_mesh(), lambda out: out[1],
                                      doublings)
    errs = [err for _, err in history]
    orders = ["" if o is None else o if isinstance(o, str) else f"{o:.6g}"
              for o in vie.observed_orders(errs)]
    rows = [[n, err, order] for (n, err), order in zip(history, orders)]
    for n, err, order in rows:
        _note(f"converge kind={kind} N={n}: error {err:.6e}"
              + (f", order {order}" if order else ""))
    write_csv(os.path.join(out_dir, "convergence.csv"), ["N", "error", "order"],
              rows)
    _emit({"command": "converge", "status": "ok", "kind": kind,
           "error": errs[-1], "order": orders[-1] if len(rows) > 1 else None})
    return EXIT_OK


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wsonine",
        description="weighted Sonine kernels: verification and solvers")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to config file")
    common.add_argument("--out", default=None, help="output directory override")

    sub.add_parser("verify", parents=[common],
                   help="check the configured kernel/weight conditions")
    ps = sub.add_parser("solve", parents=[common], help="solve one problem")
    ps.add_argument("--kind", choices=_SOLVE_KINDS, default="vie1")
    pc = sub.add_parser("converge", parents=[common],
                        help="mesh-refinement study against the exact solution")
    pc.add_argument("--kind", choices=_SOLVE_KINDS, default="vie1")
    pc.add_argument("--doublings", type=int, default=3)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_path(args.config)
        out_dir = _ensure_out(args.out if args.out is not None else cfg.out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        if args.command == "solve":
            return cmd_solve(cfg, args.kind, out_dir)
        if args.command == "converge":
            if args.doublings < 0:
                raise ConfigError("doublings must be >= 0")
            return cmd_converge(cfg, args.kind, args.doublings, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ExprError, ValidationError,
            UnsupportedConfigurationError) as exc:
        _note(f"configuration error: {exc}")
        _emit({"command": args.command, "status": "config-error",
               "error": str(exc)})
        return EXIT_CONFIG
    except (NumericalError, DomainError) as exc:
        _note(f"numerical failure: {exc}")
        _emit({"command": args.command, "status": "numerical-failure",
               "error": str(exc)})
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
