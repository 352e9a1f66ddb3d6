#!/usr/bin/env python3
"""Mesh-refinement study for the weighted first-kind solve with a
manufactured solution; prints error and observed order per doubling."""

import argparse
import sys
import time

from wsonine.expr import as_function
from wsonine.kernels import KernelPair, Weight
from wsonine.quadrature import Mesh
from wsonine.sonine import SonineData
from wsonine.vie import (FirstKindProblem, manufactured_forcing,
                         max_node_error, observed_orders, refinement_study,
                         solve_first_kind)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--alpha", default="0.5 + 0.1*t", help="exponent expression")
    p.add_argument("--weight", default="1 + s*t", help="weight expression")
    p.add_argument("--exact", default="1 + t", help="manufactured solution")
    p.add_argument("--n", type=int, default=64, help="coarsest mesh size")
    p.add_argument("--grading", type=float, default=4.0)
    p.add_argument("--doublings", type=int, default=3)
    args = p.parse_args(argv)

    pair = KernelPair.make(args.alpha)
    weight = Weight.from_expr(args.weight)
    data = SonineData.make(pair, weight)
    forcing = manufactured_forcing(pair, weight, args.exact)
    problem = FirstKindProblem(pair, weight, forcing)
    exact = as_function(args.exact)

    print(f"alpha = {args.alpha!r}, w = {args.weight!r}, u = {args.exact!r}")
    start = time.perf_counter()
    history, _ = refinement_study(
        lambda mesh: solve_first_kind(problem, mesh, "second-kind", data),
        Mesh(pair.b, args.n, args.grading),
        lambda rep: max_node_error(rep.mesh, rep.u, exact), args.doublings)
    orders = observed_orders([err for _, err in history])
    for (n, err), order in zip(history, orders):
        shown = "  - " if order is None else (
            order if isinstance(order, str) else f"{order:.2f}")
        print(f"N = {n:5d}  error = {err:.3e}  order = {shown}")
    print(f"({time.perf_counter() - start:.2f} s in total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
