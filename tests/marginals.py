"""Marginals and posteriors of a joint, for tests: thin readers of ``group_counts``/``state_mass``."""

import itertools

from infogain.joint import background_mass, group_counts, state_mass


def marginal(joint, variables):
    """Probability of each realization of the named variables (state allowed),
    in lexicographic index order.  Under smoothing every realization of their
    (small) product space is listed."""
    cols = joint.columns(variables)
    reals, counts = group_counts(joint.keys, joint.domain_sizes, cols, joint.probs[None, :, None], 0, 1)
    absent, background = background_mass(joint, cols, len(reals), 1)
    mass = counts[0, :, 0] + background
    table = {tuple(int(v) for v in real): float(m) / joint.total for real, m in zip(reals, mass)}
    if absent:
        for real in itertools.product(*(range(joint.domain_sizes[c]) for c in cols)):
            table.setdefault(real, background / joint.total)
    return dict(sorted(table.items()))


def support(joint, variables):
    """Positive-probability realizations of the marginal, in lexicographic index order."""
    return [(real, p) for real, p in marginal(joint, variables).items() if p > 0.0]


def posterior(joint, assignment):
    """Posterior over the state given a realization of some variables (the
    prior for an empty one), or None when the realization has no mass."""
    cols = joint.columns(assignment, allow_state=False)
    values = tuple(assignment[joint.variables[c]] for c in cols)
    reals, mass, _, background_row = state_mass(joint, assignment)
    row = {tuple(int(v) for v in real): m for real, m in zip(reals, mass)}.get(values, background_row)
    total = row.sum()
    return row / total if total > 0 else None
