"""The minuscule representation in its canonical weight basis.

A minuscule representation has all weights in one Weyl orbit, so its weight
spaces are lines indexed by W^P: the coset table (weyl.CosetReps) is the
basis, v_w = sigma_w, and every operator is read off its weights alone:
the root vector for beta sends v_mu to v_{mu + beta} exactly when <mu,
beta-vee> = -1, with coefficient 1.  That gives x_j (beta = alpha_j), y_j
(beta = -alpha_j) and x_theta (beta = theta).  In fw coordinates <mu,
alpha_j-vee> is the coordinate mu_j and alpha_j is row j of the Cartan
matrix, so y_j is read off mu_j alone.  Out of these the connection
f + q x_theta is assembled; its equivariant version adds the diagonal
-<mu-vee, h>, mu-vee the coweight dual to mu (integer rows over one
scale, lifted by qchev.lift_equivariant).  The mirror statement is that
these coincide, index for index, with the quantum Chevalley matrices.
"""

from __future__ import annotations

from itertools import chain
from operator import mul, sub

from .rootsys import (
    RootDatum,
    minuscule_nodes,
    simple_root,
)
from .weyl import CosetReps
from .qchev import ConnMatrix

__all__ = [
    "root_step",
    "fg_connection",
    "coweight_diagonal",
]


def root_step(mu, root, sign: int = 1):
    """The weight mu + beta, beta = sign * root, when the root vector for
    beta sends v_mu to v_{mu + beta} (exactly when <mu, beta-vee> = -1,
    with coefficient 1); None when it kills v_mu."""
    if sign * sum(map(mul, mu, root.coroot)) != -1:
        return None
    return tuple(x + sign * a for x, a in zip(mu, root.fw))


def coweight_diagonal(d: RootDatum, reps: CosetReps):
    """(scale, rows): rows[c] / scale is the coweight mu-vee dual to the
    weight mu of v_mu = basis vector c, in simple-coroot coordinates:
    with mu = sum_k m_k alpha_k (m = mu A^-1) and alpha_k = d_k
    alpha_k-vee, mu-vee = sum_k d_k m_k alpha_k-vee / d_node, so that
    varpi_node maps to varpi_node-vee.  A^-1 is integer over its den, and
    d_k / d_node = (alpha_k, alpha_k) / (alpha_node, alpha_node)."""
    den, inv = d.inverse_cartan
    norms = [simple_root(d, k).norm2 for k in range(1, d.rank + 1)]
    cols = [[e * x for x in col] for e, col in zip(norms, zip(*inv))]
    return den * norms[reps.parabolic.node - 1], [
        tuple(sum(map(mul, mu, col)) for col in cols)
        for mu in reps.weights]


def fg_connection(d: RootDatum, reps: CosetReps) -> ConnMatrix:
    """Connection-form matrix f + q x_theta on the coset basis `reps` of
    a minuscule node; under v_w = sigma_w this is the mirror counterpart
    of the quantum Chevalley matrix.  f = sum_j y_j steps each column's
    weight mu to mu - alpha_j (row j of the Cartan matrix) exactly where
    mu_j = 1; x_theta is walked with root_step.  Only the cells these
    steps reach are built."""
    node = reps.parabolic.node
    if node not in minuscule_nodes(d.cartan_type):
        raise ValueError(f"node {node} is not minuscule for {d.cartan_type}")
    if not set(chain.from_iterable(reps.weights)) <= {-1, 0, 1}:
        raise AssertionError(
            "weight pairing outside {-1,0,1}: not minuscule data")
    row_of, theta = reps.by_weight, d.highest_root
    cells = {}   # (row, col) -> {(q exp,): 1}
    for c, mu in enumerate(reps.weights):
        for x, alpha in zip(mu, d.cartan):
            if x == 1:
                cells[row_of[tuple(map(sub, mu, alpha))], c] = {(0,): 1}
        target = root_step(mu, theta)
        if target is not None:
            cells.setdefault((row_of[target], c), {})[(1,)] = 1
    return ConnMatrix(reps, ("q",), len(reps), cells)
