"""In-memory span tracer that wraps library functions from outside.

``install`` replaces public functions where the calling module has bound
them (``wsonine.vie.eval_g2``, ``wsonine.subdiffusion.solve_banded``, ...)
and methods on their classes (``ExprAst.eval``, ``KernelPair.k``, ...) with
timing wrappers; ``uninstall`` puts the originals back.  Nothing under
``src/`` is edited.

Each span records its name, start, end, parent span, rung id and a work
count (points evaluated, steps taken).  Spans live in flat arrays and are
written out once, at the end of a run.  A span's self time is its duration
less the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from wsonine import expr, kernels, sonine, subdiffusion, vie
from wsonine.config import RunConfig

SETUP = -1       # rung id of spans recorded outside any rung

LAYERS = ("expr", "kernels", "quadrature", "sonine", "vie", "subdiffusion",
          "config")


def _points(data, s, t):
    return np.broadcast(s, t).size


def _steps(problem, mesh, *args, **kwargs):
    return mesh.n


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.rung_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self.rung = SETUP
        self._undo: list = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, fn, count=None, integrand=False):
        """A timed stand-in for fn.  count(*args, **kwargs) gives the span's
        work; with integrand=True the work is the number of points at which
        the first argument (an integrand) is evaluated."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, rung_id = self.name_id, self.parent, self.rung_id
        start, end, work, stack = self.start, self.end, self.work, self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            rung_id.append(tracer.rung)
            work.append(count(*args, **kwargs) if count is not None else 0.0)
            start.append(0.0)
            end.append(0.0)
            if integrand:
                inner = args[0]

                def counted(z):
                    work[idx] += np.size(z)
                    return inner(z)

                args = (counted,) + args[1:]
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kw):
        """Replace owner.attr (a module global or a class attribute)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, **kw))
        else:
            new = self.wrap(name, raw, **kw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self):
        p = self.patch
        p(RunConfig, "from_text", "config.parse")
        p(expr.ExprAst, "eval", "expr.eval")
        # callables made by as_function inside vie (closed-form forcings and
        # the manufactured oracle's u) evaluate expressions without going
        # through ExprAst.eval, so the callables themselves are wrapped
        made = vie.as_function
        vie.as_function = lambda *a, **k: self.wrap("expr.eval", made(*a, **k))
        self._undo.append((vie, "as_function", made))
        for meth in ("smooth_factor", "smooth_factor_dt", "gamma_ratio",
                     "gamma_ratio_dx", "k", "K", "k_smooth_part"):
            p(kernels.KernelPair, meth, f"kernels.{meth}")
        p(sonine, "jacobi_rule", "quadrature.jacobi_rule")
        p(vie, "power_conv_weights", "quadrature.power_conv_weights")
        for mod in (vie, sonine):
            p(mod, "graded_panel_quad", "quadrature.graded_panel_quad",
              integrand=True)
        p(sonine.SonineData, "make", "sonine.make")
        for mod in (sonine, vie, subdiffusion):
            p(mod, "eval_g2", "sonine.eval_g2", count=_points)
        p(sonine, "eval_g", "sonine.eval_g", count=_points)
        for mod in (vie, subdiffusion):
            p(mod, "wsc1_report", "sonine.wsc1_report")
        p(vie, "transform_first_kind_weighted", "vie.rhs")
        p(vie, "transform_first_kind_K", "vie.rhs")
        p(vie, "solve_second_kind", "vie.step", count=_steps)
        p(vie, "residual_first_kind", "vie.residual")
        p(subdiffusion, "solve_subdiffusion", "subdiffusion.history")
        p(subdiffusion, "l1_weights", "subdiffusion.l1_weights")
        p(subdiffusion, "solve_banded", "subdiffusion.banded")

    def wrap_oracle(self, forcing):
        """Time the manufactured-forcing callables handed to the solver."""
        for attr in ("f", "f_prime", "prime_bulk"):
            fn = getattr(forcing, attr)
            if fn is not None:
                setattr(forcing, attr, self.wrap("vie.oracle", fn))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ----------------------------------------------------------- reporting

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "rung": np.frombuffer(self.rung_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "work": np.frombuffer(self.work, dtype=float).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def totals(self, in_rungs: bool) -> dict:
        """{name: (calls, inclusive_s, self_s, work)} over the spans recorded
        inside rungs (in_rungs=True) or outside them."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        keep = (a["rung"] != SETUP) if in_rungs else (a["rung"] == SETUP)
        ids = a["name_id"][keep]
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur[keep], minlength=k)
        slf = np.bincount(ids, weights=own[keep], minlength=k)
        work = np.bincount(ids, weights=a["work"][keep], minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(slf[i]), float(work[i]))
                for i, n in enumerate(self.names)}
