"""Why results never depend on scheduling.

Every replicate r of every grid cell (n, m) derives its own random stream
from (master seed, n, m, r) through a counter-based generator, so a
replicate can be regenerated in isolation and a grid can be farmed out to
any number of workers without changing a single bit of the output. This
script demonstrates both properties, and that a cell's row is the one
its replicates give when generated, fitted and tested one at a time.
"""

import numpy as np

from xenopower import (
    AnovaParams,
    DesignGrid,
    PowerJob,
    fit_lmm,
    gen_anova,
    replicate_stream,
    run_power_grid,
    wald_test_lmm,
)
from xenopower.io import power_csv_text

PARAMS = AnovaParams(beta0=0.07, beta=0.73, tau2=0.033, sigma2=0.39)


def main() -> None:
    # a single replicate, regenerated out of order and in isolation
    first = gen_anova(4, 3, PARAMS, replicate_stream(seed=1, n=4, m=3, r=250))
    again = gen_anova(4, 3, PARAMS, replicate_stream(seed=1, n=4, m=3, r=250))
    print("replicate 250 regenerated alone, bit-identical:",
          first.y.tobytes() == again.y.tobytes())

    neighbor = gen_anova(4, 3, PARAMS, replicate_stream(seed=1, n=4, m=3, r=251))
    print("neighboring replicate differs:",
          not np.array_equal(first.y, neighbor.y))

    # the same grid under three worker counts, compared byte for byte
    grid = DesignGrid(n_values=(3, 4), m_values=(2, 3), sim=120, alpha=0.05, seed=1)
    outputs = [
        power_csv_text(run_power_grid(PowerJob(grid=grid, model=PARAMS, worker_count=w)))
        for w in (1, 2, 4)
    ]
    print("grid CSV identical under 1, 2, and 4 workers:",
          outputs[0] == outputs[1] == outputs[2])
    print("\npower table:")
    print(outputs[0])

    # the engine tests a cell's replicates together; one at a time they give
    # the same row
    n, m, sim, alpha, seed = 3, 2, 600, 0.05, 1
    one_cell = DesignGrid(n_values=(n,), m_values=(m,), sim=sim, alpha=alpha, seed=seed)
    row = run_power_grid(PowerJob(grid=one_cell, model=PARAMS, worker_count=1)).rows[0]
    fits = [fit_lmm(gen_anova(n, m, PARAMS, replicate_stream(seed, n, m, r)))
            for r in range(sim)]
    converged = [fit for fit in fits if fit.converged]
    rejected = sum(wald_test_lmm(fit, alpha) for fit in converged)
    print(f"cell ({n},{m}) row equals its {sim} replicates fitted one by one:",
          row.convergence == 100.0 * len(converged) / sim
          and row.power == 100.0 * rejected / len(converged))


if __name__ == "__main__":
    main()
