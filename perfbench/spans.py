"""In-memory spans around the calls into each layer of henon_annulus.

The tracer wraps public functions at the module attributes the program
looks them up under (for example `functional.weighted_force`, which
minimize reaches as `fn.weighted_force`), so the program itself is not
changed. SciPy's `splu`, as minimize reaches it through its `spla`
name, is wrapped too: the factorization is the `minimize.lu_factor`
span, and every `solve` on the factor it returns is a
`minimize.lu_solve` span.

A span is [name, start, end, thread, parent, iterations, cpu]: wall
clock start and end, the thread, the index of the enclosing span on the
same thread (or None), the iterations a solver or the mountain pass
reports, and the CPU time of the thread during the span, which leaves
out the time a thread waits for the interpreter lock. A layer's self
time is its spans' durations minus the parts their child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time

# (module, attribute, span name). Every attribute a layer is reached
# under is listed, so no call escapes the span of its layer.
WRAPPED = (
    ("functional", "weighted_force", "functional.weighted_force"),
    ("functional", "weighted_pnorm_p", "functional.weighted_pnorm_p"),
    ("functional", "weighted_linearized_matrix", "functional.weighted_linearized_matrix"),
    ("functional", "functional_gradient", "functional.functional_gradient"),
    ("functional", "normalize", "functional.normalize"),
    ("functional", "dirichlet_energy", "functional.energies"),
    ("functional", "halfspace_energies", "functional.energies"),
    ("functional", "stiffness_matrix", "functional.stiffness"),
    ("functional", "halfspace_stiffness", "functional.stiffness"),
    ("functional", "radial_rule", "weight.radial_rule"),
    ("functional", "theta_rule", "weight.theta_rule"),
    ("minimize", "solve_ground", "minimize.solve"),
    ("minimize", "solve_lambda", "minimize.solve"),
    ("minimize", "solve_sigma", "minimize.solve"),
    ("minimize", "solve_radial", "minimize.solve_radial"),
    ("minimize", "instanton", "profiles.instanton"),
    ("mountain_pass", "mountain_pass", "mountain_pass"),
    ("mountain_pass", "straight_path", "mountain_pass.straight_path"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("harness", "concentration_report", "diagnostics.concentration_report"),
    ("harness", "instanton", "profiles.instanton"),
    ("harness", "build_radial_grid", "geometry.build"),
    ("harness", "build_axi_grid", "geometry.build"),
    ("geometry", "build_radial_grid", "geometry.build"),
    ("geometry", "build_axi_grid", "geometry.build"),
    ("profiles", "instanton", "profiles.instanton"),
    ("diagnostics", "concentration_report", "diagnostics.concentration_report"),
)

# Spans whose result reports iterations, and how to read them off it.
ITERATIONS = {
    "minimize.solve": lambda out: out.report.iterations,
    "minimize.solve_radial": lambda out: out.report.iterations,
    "mountain_pass": lambda out: out.iterations,
}


class Tracer:
    """Collects spans while enabled; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, threading.get_ident(),
                    stack[-1] if stack else None, None, 0.0]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            cpu = time.thread_time()
            span[1] = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[6] = time.thread_time() - cpu
                stack.pop()
            if name in ITERATIONS:
                span[5] = ITERATIONS[name](out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for name, start, end, thread, parent, iterations, cpu in self.spans:
                sink.write(json.dumps({
                    "name": name, "start": start, "end": end, "thread": thread,
                    "parent": parent, "iterations": iterations, "cpu": cpu,
                }) + "\n")


class _TracedLU:
    """A SuperLU factor whose solve calls are minimize.lu_solve spans."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.wrap("minimize.lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedLinalg:
    """Stands in for scipy.sparse.linalg inside minimize."""

    def __init__(self, spla, tracer: Tracer):
        self._spla = spla
        factor = tracer.wrap("minimize.lu_factor", spla.splu)
        self.splu = lambda *args, **kwargs: _TracedLU(factor(*args, **kwargs), tracer)

    def __getattr__(self, name):
        return getattr(self._spla, name)


def install(package, tracer: Tracer) -> None:
    """Wrap every WRAPPED attribute and minimize's splu, for good.

    Factors cached by the program outlive any one phase, so the wrappers
    stay in place for the whole process; `tracer.enabled` decides whether
    they record.
    """
    for module_name, attribute, span_name in WRAPPED:
        module = getattr(package, module_name)
        setattr(module, attribute, tracer.wrap(span_name, getattr(module, attribute)))
    package.minimize.spla = _TracedLinalg(package.minimize.spla, tracer)


def layer_totals(spans: list[list], stop: int) -> dict[str, dict]:
    """Per span name over spans[:stop]: calls, total and self seconds,
    summed iterations."""
    child = [0.0] * stop
    for name, start, end, thread, parent, _, _ in spans[:stop]:
        if parent is not None:
            child[parent] += end - start
    totals: dict[str, dict] = {}
    for k, (name, start, end, _, _, iterations, _) in enumerate(spans[:stop]):
        t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "iterations": 0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - child[k]
        t["iterations"] += iterations or 0
    return totals
