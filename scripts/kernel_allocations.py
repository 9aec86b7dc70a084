"""Per-call cost of the weighted kernels, and the page faults of the bubble pass.

First it runs ROUNDS + 1 rounds of the 96x32 bubble pass (alpha = 1,
p = 5.5, eps = 1e-3, 12 segments, tol 1e-5), each followed by S_rad on a
2000-cell radial grid, and prints the pass's minor page faults and
seconds in every round after the first. How many faults a fresh
plane-sized temporary costs depends on the allocator's history, so the
pass runs first, in the company of solves a mountain-pass round of
perfbench/ keeps.

Then, for the 96x32 and 128x48 grids at alpha = 1, p = 5.5, it prints
each kernel's microseconds per call (the best of BATCHES batches), minor
faults per call and the tracemalloc peak of one warm call in planes. A
plane is one float64 value per quadrature point of the head rule, the
size of the interpolated field V. The field is the normalized midpoint
of the straight path between the two boundary bubbles. The last row,
newton_system, is one Newton-system assembly as a bordered Newton step
builds it: A(0.1), M(u) and the free block of A(0.1) - (p - 1) M(u).

    PYTHONPATH=src python scripts/kernel_allocations.py

Takes about 20 s on two cores.
"""

import resource
import statistics
import time
import tracemalloc

from henon_annulus import functional as fn
from henon_annulus import harness as hn
from henon_annulus import minimize as mz
from henon_annulus.geometry import ProblemParams, build_axi_grid, build_radial_grid
from henon_annulus.profiles import InstantonParams, instanton

ALPHA, P, EPS = 1.0, 5.5, 1e-3
GRIDS = ((96, 32), (128, 48))
BATCHES, CALLS = 5, 40
ROUNDS = 5
LAM = 0.1


def newton_system(u, alpha, p):
    a = fn.stiffness_matrix(u.grid, LAM)
    return fn.jacobian_block(u.grid, a, fn.weighted_linearized_matrix(u, alpha, p), p - 1.0)


KERNELS = (fn.weighted_pnorm_p, fn.weighted_force, fn.weighted_linearized_matrix,
           fn.functional_gradient, newton_system)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


grid = build_axi_grid(96, 32, "graded-polar")
radial = build_radial_grid(2000, "graded")
params = ProblemParams(ALPHA, P)
rounds = []
for _ in range(ROUNDS + 1):
    faults, start = minor_faults(), time.perf_counter()
    hn.bubble_pass(params, grid, EPS, tol=1e-5)
    rounds.append((minor_faults() - faults, time.perf_counter() - start))
    mz.solve_radial(params, radial)
rounds = rounds[1:]
print("96x32 bubble pass, faults and seconds per round: "
      + ", ".join(f"{f} ({s:.3f} s)" for f, s in rounds)
      + f"; median {statistics.median(f for f, _ in rounds):.0f} faults")

for nr, nt in GRIDS:
    grid = build_axi_grid(nr, nt, "graded-polar")
    u0, u1 = (instanton(InstantonParams(EPS, side), grid) for side in (0, 1))
    u = fn.normalize(u0.with_values(u0.values + u1.values), ALPHA, P)
    asm = fn._assembly(grid)
    plane = 8 * asm.radial(ALPHA).weight.size * asm.angular.weight.size
    print(f"{nr}x{nt}, alpha = {ALPHA:g}, p = {P:g}: plane {plane / 1024:.0f} KiB")
    for kernel in KERNELS:
        kernel(u, ALPHA, P)
        faults, batches = minor_faults(), []
        for _ in range(BATCHES):
            start = time.perf_counter()
            for _ in range(CALLS):
                kernel(u, ALPHA, P)
            batches.append(time.perf_counter() - start)
        faults = (minor_faults() - faults) / (BATCHES * CALLS)
        tracemalloc.start()
        kernel(u, ALPHA, P)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"  {kernel.__name__:28s} {1e6 * min(batches) / CALLS:8.1f} us/call "
              f"{faults:8.1f} faults/call {peak / plane:5.2f} planes peak")
