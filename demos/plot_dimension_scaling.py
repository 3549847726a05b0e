"""
Accuracy loss as the number of variables grows
==============================================

The elimination route through a univariate polynomial loses digits
exponentially in the dimension even at sigma = 1/2, because the
univariate root is conditioned like sigma^(1 - 2^d). The operator
determinant route on the permutation family shows the same trend at
sigma = 0.01, more slowly: its subproblem conditioning grows like
sigma^-d, exponentially in the dimension, while the root itself is only
sigma^-1 conditioned.
"""

from dataclasses import replace

from polylab.bench import FIGURES, axis_label, emit_csv, emit_svg, run_sweep

for key, label in (("2", "gb elimination"), ("3", "operator determinants")):
    spec = replace(FIGURES[key], n_trials=25)
    records = run_sweep(spec)

    print(f"\n{label}, family {spec.family}, sigma={spec.sigma}")
    print(f"{'d':>4} {'median':>8} {'stable':>8}")
    for r in records:
        print(f"{int(r.x):>4} {r.median_digits:>8.2f} {r.stable_digits:>8.2f}")

    slug = key.replace(" ", "")
    emit_csv(records, f"demo_dimension_fig{slug}.csv")
    emit_svg(
        records,
        f"demo_dimension_fig{slug}.svg",
        title=f"{label}: digits vs dimension",
        xlabel=axis_label(spec),
        log_x=False,
    )
    print(f"wrote demo_dimension_fig{slug}.csv and demo_dimension_fig{slug}.svg")
