"""Marginals and posteriors of a joint, for tests.

They group the joint's tuples with numpy's row ``np.unique`` and a
mask-and-count, and share no code with the grouping in ``src/``
(``GroupIndexes``, ``_lattice``, ``state_mass``), so tests that compare that
grouping against them compare two independent computations.
"""

import itertools
import math

import numpy as np


def _background(joint, cols):
    """The smoothing weight of one realization of the key columns ``cols`` (the state counts as a column)."""
    if not joint.background:
        return 0.0
    return joint.background * math.prod(s for c, s in enumerate(joint.domain_sizes) if c not in cols)


def marginal(joint, variables):
    """Probability of each realization of the named variables (state allowed),
    in lexicographic index order.  Under smoothing every realization of their
    (small) product space is listed."""
    cols = list(joint.columns(variables))
    reals, inverse = np.unique(joint.keys[:, cols], axis=0, return_inverse=True)
    mass = np.bincount(inverse.ravel(), weights=joint.probs, minlength=len(reals))
    background = _background(joint, cols)
    table = {tuple(int(v) for v in real): float(m + background) / joint.total for real, m in zip(reals, mass)}
    if background:
        for real in itertools.product(*(range(joint.domain_sizes[c]) for c in cols)):
            table.setdefault(real, background / joint.total)
    return dict(sorted(table.items()))


def support(joint, variables):
    """Positive-probability realizations of the marginal, in lexicographic index order."""
    return [(real, p) for real, p in marginal(joint, variables).items() if p > 0.0]


def posterior(joint, assignment):
    """Posterior over the state given a realization of some variables (the
    prior for an empty one), or None when the realization has no mass."""
    cols = list(joint.columns(assignment, allow_state=False))
    values = [assignment[joint.variables[c]] for c in cols]
    mask = (joint.keys[:, cols] == values).all(axis=1)
    row = np.bincount(joint.keys[mask, 0], weights=joint.probs[mask], minlength=joint.states.size)
    row = row + _background(joint, [0] + cols)  # an empty mask counts in int64
    total = row.sum()
    return row / total if total > 0 else None
