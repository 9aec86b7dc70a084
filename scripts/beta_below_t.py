"""Reproduce the coarse-grid failure of chain_check's beta >= T.

Every path between the two boundary bubbles crosses the balanced set, so
the pass level beta cannot lie below the balanced minimum. On coarse grids
at alpha >= 2 the sweep's T sits above beta all the same: the pass's argmax
node, rebalanced onto that set, has a quotient below T, so solve_sigma's
two-bump descent stops at a higher balanced critical point.

    PYTHONPATH=src python scripts/beta_below_t.py

Takes about 15 s on two cores; prints one line per point.
"""

from henon_annulus import functional as fn
from henon_annulus import harness as hn
from henon_annulus import minimize as mz
from henon_annulus.geometry import ProblemParams, build_axi_grid

P, EPS = 5.5, 1e-3
POINTS = (((48, 16), (1.0, 2.0, 4.0)), ((96, 32), (1.0, 2.0)))

for (nr, ntheta), alphas in POINTS:
    spec = hn.SweepSpec(axis="alpha", values=alphas, fixed=P, levels=("T", "beta"),
                        nr=nr, ntheta=ntheta, eps=EPS)
    grid = build_axi_grid(nr, ntheta, "graded-polar")
    for record in hn.run_sweep(spec):
        t, beta = record.levels["T"], record.levels["beta"]
        result = hn.bubble_pass(ProblemParams(record.alpha, P), grid, EPS)
        ep, em = fn.halfspace_energies(result.w)
        balanced = mz._rebalance(result.w, record.alpha, P)
        print(f"{nr}x{ntheta} alpha={record.alpha:g}: T={t['value']:.9f} "
              f"(converged {t['converged']}) beta={beta['value']:.9f} "
              f"(converged {beta['converged']}, {beta['iterations']} sweeps) "
              f"argmax imbalance={(ep - em) / (ep + em):+.3f} "
              f"rebalanced={fn.dirichlet_energy(balanced):.6f} "
              f"beta>=T: {hn.chain_check(record)['beta>=T']}")
