#!/usr/bin/env python3
"""wsonine benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload vie1-var --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The workload's run-config text is written to
``.bench_out/<workload>-seed<seed>.cfg`` so that ``wsonine solve`` can replay
it.  Solves run closed loop: each rung starts when the previous one returns,
and whole ladders repeat until ``--seconds`` is used up.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, all
measured untraced.  With ``--trace 1`` the run spends half its time on
untraced ladders and half on traced ones, and the last line carries the
per-layer metrics; the spans are saved to
``.bench_out/trace-<workload>-seed<seed>.npz``.  Human-readable tables go
to stderr.  The exit code is 0 only when every rung passed its checks.
"""

import os

# BLAS pinned to one thread before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUPS_PER_LADDER = 20  # setup_s is the median over all set-ups of a run
TRACED_SETUPS = 3


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _git_commit():
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    src_loc = sum(len(p.read_text().splitlines())
                  for p in sorted((SRC / "wsonine").glob("*.py")))
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS), "git_commit": _git_commit(),
            "src_loc": src_loc}


def n_exponent(ladders: list) -> float:
    """Least-squares slope of log(rung time) against log(N), rung times
    taken as medians over ladders."""
    import numpy as np

    ns = [r.n for r in ladders[0]]
    times = [statistics.median(lad[i].seconds for lad in ladders)
             for i in range(len(ns))]
    return float(np.polyfit(np.log(ns), np.log(times), 1)[0])


def run_ladder(st, wl, tracer=None) -> list:
    from workloads import run_rung

    rungs = []
    for n, ceiling in zip(wl.ladder, wl.ceilings):
        if tracer is not None:
            tracer.rung += 1
        rungs.append(run_rung(st, wl.kind, n, ceiling))
    return rungs


def run_ladders(text, wl, budget: float) -> tuple:
    """Whole ladders until the budget is used (at least one), each after a
    few timed set-ups, so that set-ups are sampled across the whole run
    rather than only while the process is new."""
    from workloads import setup

    ladders, setup_times = [], []
    t0 = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_LADDER):
            t1 = time.perf_counter()
            st = setup(text, wl.kind)
            setup_times.append(time.perf_counter() - t1)
        ladders.append(run_ladder(st, wl))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(ladders) > budget:
            return ladders, setup_times


def ladder_seconds(ladders) -> list:
    return [sum(r.seconds for r in lad) for lad in ladders]


def median_ladder(ladders) -> float:
    """Wall time of a whole ladder, as the sum over rungs of each rung's
    median; steadier than the median of ladder sums when a few rungs of a
    ladder run slow."""
    return sum(statistics.median(lad[i].seconds for lad in ladders)
               for i in range(len(ladders[0])))


def time_to_tol(ladders, target: float) -> float:
    """Median wall time of the smallest rung whose error meets the target."""
    per_ladder = []
    for lad in ladders:
        hit = next((r for r in lad if r.ok and r.error <= target), None)
        if hit is not None:
            per_ladder.append(hit.seconds)
    return statistics.median(per_ladder) if per_ladder else float("inf")


def report_rungs(title: str, ladders) -> None:
    _note(f"{title}: {len(ladders)} ladder(s) of "
          + ", ".join(f"{x:.3f}" for x in ladder_seconds(ladders)) + " s")
    _note(f"  {'N':>5} {'median_s':>9} {'error':>10} {'residual':>10}  status")
    for i, first in enumerate(ladders[0]):
        col = [lad[i] for lad in ladders]
        bad = [r for r in col if not r.ok]
        status = "ok" if not bad else f"FAIL x{len(bad)}: {bad[0].message}"
        _note(f"  {first.n:>5} {statistics.median(r.seconds for r in col):>9.4f}"
              f" {first.error:>10.3e} {first.residual:>10.3e}  {status}")


def end_to_end(wl, text, seconds) -> tuple:
    import workloads

    t0 = time.perf_counter()
    # the first ladder of a process runs up to 50 % slow (first-touch
    # memory, lazy imports); it is checked but not timed
    warm = run_ladder(workloads.setup(text, wl.kind), wl)
    ladders, setup_times = run_ladders(
        text, wl, seconds - (time.perf_counter() - t0))
    report_rungs("untraced", ladders)
    rungs = [r for lad in [warm] + ladders for r in lad]
    passed = sum(r.ok for r in rungs)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (median_ladder(ladders), "s"),
        "time_to_tol_s": (time_to_tol(ladders, wl.target), "s"),
        "error": (ladders[-1][-1].error, "1"),
        "pass_frac": (passed / len(rungs), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    _note(f"n_exponent {n_exponent(ladders):.3f} (diagnostic, not gated)")
    return metrics, rungs


def per_layer(wl, text, seconds, seed) -> tuple:
    import workloads
    from spans import LAYERS, Tracer

    t_start = time.perf_counter()
    st = workloads.setup(text, wl.kind)
    warm = run_ladder(st, wl)      # checked but not timed, as in end_to_end

    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(TRACED_SETUPS):
            traced_st = workloads.setup(text, wl.kind)
        if traced_st.cfg.manufactured:
            tracer.wrap_oracle(traced_st.forcing)
    finally:
        tracer.uninstall()

    # untraced and traced ladders alternate, so that drift in machine speed
    # shows in both halves alike
    plain, traced = [], []
    while True:
        plain.append(run_ladder(st, wl))
        tracer.install()
        try:
            traced.append(run_ladder(traced_st, wl, tracer))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / (len(plain) + 1) > seconds:
            break
    report_rungs("untraced", plain)
    report_rungs("traced", traced)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{wl.name}-seed{seed}.npz")

    n_lad = len(traced)
    run = tracer.totals(in_rungs=True)
    pre = tracer.totals(in_rungs=False)

    def get(table, name, field, per):
        calls, incl, own, work = table.get(name, (0, 0.0, 0.0, 0.0))
        return {"calls": calls, "s": incl, "self_s": own, "work": work}[field] / per

    def prefix(table, pfx, field, per):
        return sum(get(table, n, field, per) for n in table if n.startswith(pfx))

    def r(name, field):
        return get(run, name, field, n_lad)

    def s(name, field):
        return get(pre, name, field, TRACED_SETUPS)

    # span totals are per-ladder means, so the accounting uses the mean
    # traced ladder; the overhead compares medians
    traced_solve = statistics.fmean(ladder_seconds(traced))
    overhead = median_ladder(traced) / median_ladder(plain) - 1.0
    layer_self = {layer: prefix(run, layer + ".", "self_s", n_lad)
                  for layer in LAYERS}
    g2_s = r("sonine.eval_g2", "s")
    rungs = [x for lad in [warm] + plain + traced for x in lad]
    residuals = [x.residual for x in rungs if x.ok]
    is_pde = wl.kind == "pde"
    vie_steps = r("vie.step", "work")
    pde_steps = sum(wl.ladder) if is_pde else 0
    metrics = {
        "expr.eval.calls": (r("expr.eval", "calls"), "count"),
        "expr.eval.self_s": (r("expr.eval", "self_s"), "s"),
        "kernels.calls": (prefix(run, "kernels.", "calls", n_lad), "count"),
        "kernels.self_s": (layer_self["kernels"], "s"),
        "quadrature.jacobi_rule.calls": (s("quadrature.jacobi_rule", "calls"), "count"),
        "quadrature.jacobi_rule.s": (s("quadrature.jacobi_rule", "s"), "s"),
        "quadrature.jacobi_nodes": (st.data.rule.n, "count"),
        "quadrature.power_conv_weights.calls":
            (r("quadrature.power_conv_weights", "calls"), "count"),
        "quadrature.power_conv_weights.self_s":
            (r("quadrature.power_conv_weights", "self_s"), "s"),
        "quadrature.graded_panel_quad.calls":
            (r("quadrature.graded_panel_quad", "calls"), "count"),
        "quadrature.graded_panel_quad.points":
            (r("quadrature.graded_panel_quad", "work"), "count"),
        "quadrature.graded_panel_quad.self_s":
            (r("quadrature.graded_panel_quad", "self_s"), "s"),
        "sonine.make.s": (s("sonine.make", "s"), "s"),
        "sonine.eval_g2.calls": (r("sonine.eval_g2", "calls"), "count"),
        "sonine.eval_g2.points": (r("sonine.eval_g2", "work"), "count"),
        "sonine.eval_g2.s": (g2_s, "s"),
        "sonine.eval_g2.self_s": (r("sonine.eval_g2", "self_s"), "s"),
        "sonine.eval_g2.points_per_s":
            (r("sonine.eval_g2", "work") / g2_s if g2_s else 0.0, "1/s"),
        "sonine.eval_g.points": (r("sonine.eval_g", "work"), "count"),
        "sonine.wsc1_report.calls": (r("sonine.wsc1_report", "calls"), "count"),
        "sonine.wsc1_report.s": (r("sonine.wsc1_report", "s"), "s"),
        "vie.oracle.evals": (r("vie.oracle", "calls"), "count"),
        "vie.oracle.s": (r("vie.oracle", "s"), "s"),
        "vie.rhs.self_s": (r("vie.rhs", "self_s"), "s"),
        "vie.step.self_s": (r("vie.step", "self_s"), "s"),
        "vie.steps": (vie_steps, "count"),
        "vie.residual.s": (r("vie.residual", "s"), "s"),
        "vie.residual.max":
            (0.0 if is_pde else max(residuals, default=0.0), "1"),
        "subdiffusion.history.self_s": (r("subdiffusion.history", "self_s"), "s"),
        "subdiffusion.l1_weights.s": (r("subdiffusion.l1_weights", "s"), "s"),
        "subdiffusion.banded.calls": (r("subdiffusion.banded", "calls"), "count"),
        "subdiffusion.banded.s": (r("subdiffusion.banded", "s"), "s"),
        "subdiffusion.step_s":
            (r("subdiffusion.history", "s") / pde_steps if pde_steps else 0.0, "s"),
        "subdiffusion.max_solve_residual":
            (max(residuals, default=0.0) if is_pde else 0.0, "1"),
        "config.parse.s": (s("config.parse", "s"), "s"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
    metrics["traced_solve_s"] = (traced_solve, "s")
    metrics["unaccounted_s"] = (traced_solve - sum(layer_self.values()), "s")
    metrics["trace_overhead"] = (overhead, "1")
    metrics["n_exponent"] = (n_exponent(plain), "1")

    _note(f"traced ladder {traced_solve:.4f} s (mean), trace overhead "
          f"{overhead:+.1%} (median ladder, traced over untraced)")
    for layer, own in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        _note(f"  {layer:<13} self {own:9.4f} s  {own / traced_solve:6.1%}")
    _note(f"  {'unaccounted':<13} self {metrics['unaccounted_s'][0]:9.4f} s  "
          f"{metrics['unaccounted_s'][0] / traced_solve:6.1%}")
    top = sorted(((v[2], k) for k, v in run.items()), reverse=True)[:5]
    _note("  top spans by self time: " + ", ".join(
        f"{k} {own / n_lad / traced_solve:.1%}" for own, k in top))
    return metrics, rungs


def main(argv=None) -> int:
    from_here = Path(__file__).resolve().parent
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "wsonine" / "__init__.py").is_file():
        _note(f"no wsonine sources under {SRC}; run from a source checkout")
        return 2
    sys.path[:0] = [str(SRC), str(from_here)]
    import wsonine
    if Path(wsonine.__file__).resolve().parent != (SRC / "wsonine").resolve():
        _note(f"imported wsonine from {wsonine.__file__}, not from {SRC}")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _note(f"unknown workload {args.workload!r}; known: "
              + ", ".join(workloads.WORKLOADS))
        return 2
    wl = workloads.WORKLOADS[args.workload]
    text = workloads.config_text(wl, args.seed)
    OUT.mkdir(exist_ok=True)
    cfg_path = OUT / f"{wl.name}-seed{args.seed}.cfg"
    cfg_path.write_text(text)
    _note(f"workload {wl.name} seed {args.seed}: replay with "
          f"`wsonine solve --config {cfg_path} --kind {wl.kind}`")

    if args.trace:
        metrics, rungs = per_layer(wl, text, args.seconds, args.seed)
    else:
        metrics, rungs = end_to_end(wl, text, args.seconds)
    failed = sum(not r.ok for r in rungs)
    for r in rungs:
        if not r.ok:
            _note(f"rung N={r.n} failed: {r.message}")
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "env": environment(),
              "rungs": [[r.n, r.seconds, r.error, r.residual, r.ok]
                        for r in rungs]}
    print(json.dumps(record))
    for name, (value, unit) in metrics.items():
        _note(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(rungs), "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
