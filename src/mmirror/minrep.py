"""The minuscule representation in its canonical weight basis.

A minuscule representation has all weights in one Weyl orbit, so its weight
spaces are lines indexed by the coset representatives W^P, and every
operator is read off the weights alone: the root vector for beta sends
v_mu to v_{mu + beta} exactly when <mu, beta-vee> = -1, with coefficient 1.
That gives x_j (beta = alpha_j), y_j (beta = -alpha_j) and x_theta (beta =
theta), with h = [e, f] acting diagonally.  Out of these the connection
f + q x_theta is assembled; its equivariant version adds the diagonal
-<mu-vee, h>, mu-vee the coweight dual to mu (integer rows over one
scale).  The mirror statement is that these coincide, index for index,
with the quantum Chevalley matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .rootsys import (
    RootDatum,
    minuscule_nodes,
    simple_root,
)
from .weyl import CosetReps
from .qchev import ConnMatrix, lift_equivariant

__all__ = [
    "MinusculeRep",
    "build_rep",
    "root_step",
    "fg_connection",
    "coweight_diagonal",
    "equivariant_fg",
]


@dataclass(frozen=True)
class MinusculeRep:
    """The minuscule representation attached to (datum, node), with basis
    vectors and weights indexed by the rows of reps."""

    datum: RootDatum
    node: int
    reps: CosetReps

    @property
    def dim(self):
        return len(self.reps)


def build_rep(d: RootDatum, reps: CosetReps) -> MinusculeRep:
    """The representation on the coset basis `reps` of a minuscule node."""
    node = reps.parabolic.node
    if node not in minuscule_nodes(d.cartan_type):
        raise ValueError(f"node {node} is not minuscule for {d.cartan_type}")
    for mu in reps.weights:
        for j in range(d.rank):
            if mu[j] not in (-1, 0, 1):
                raise AssertionError(
                    "weight pairing outside {-1,0,1}: not minuscule data"
                )
    return MinusculeRep(datum=d, node=node, reps=reps)


def root_step(mu, root, sign: int = 1):
    """The weight mu + beta, beta = sign * root, when the root vector for
    beta sends v_mu to v_{mu + beta} (exactly when <mu, beta-vee> = -1,
    with coefficient 1); None when it kills v_mu."""
    if sign * sum(map(mul, mu, root.coroot)) != -1:
        return None
    return tuple(x + sign * a for x, a in zip(mu, root.fw))


def coweight_diagonal(rep: MinusculeRep):
    """(scale, rows): rows[c] / scale is the coweight mu-vee dual to the
    weight mu of v_mu = basis vector c, in simple-coroot coordinates:
    with mu = sum_k m_k alpha_k (m = mu A^-1) and alpha_k = d_k
    alpha_k-vee, mu-vee = sum_k d_k m_k alpha_k-vee / d_node, so that
    varpi_node maps to varpi_node-vee.  A^-1 is integer over its den, and
    d_k / d_node = (alpha_k, alpha_k) / (alpha_node, alpha_node)."""
    d = rep.datum
    den, inv = d.inverse_cartan
    norms = [simple_root(d, k).norm2 for k in range(1, d.rank + 1)]
    cols = [[e * x for x in col] for e, col in zip(norms, zip(*inv))]
    return den * norms[rep.node - 1], [
        tuple(sum(map(mul, mu, col)) for col in cols)
        for mu in rep.reps.weights]


def fg_connection(rep: MinusculeRep) -> ConnMatrix:
    """Connection-form matrix f + q x_theta on the canonical basis; under
    the index identification v_w = sigma_w this is the mirror counterpart
    of the quantum Chevalley matrix.  f = sum_j y_j and x_theta are walked
    from each column's weight with root_step, rank + 1 steps per column,
    and only the cells they reach are built."""
    d = rep.datum
    reps = rep.reps
    steps = [(simple_root(d, j), -1, (0,)) for j in range(1, d.rank + 1)]
    steps.append((d.highest_root, 1, (1,)))
    cells = {}   # (row, col) -> {(q exp,): 1}
    for c, mu in enumerate(reps.weights):
        for root, sign, exp in steps:
            target = root_step(mu, root, sign)
            if target is not None:
                r = reps.index_of_weight(target)
                cells.setdefault((r, c), {})[exp] = 1
    return ConnMatrix(reps, ("q",), len(reps), cells)


def equivariant_fg(rep: MinusculeRep, fg: ConnMatrix = None) -> ConnMatrix:
    """f + q x_theta shifted by the equivariant diagonal -<mu-vee, h>,
    in the same variables (q, h1..hr) as the equivariant Chevalley matrix;
    ``fg``, when given, is the already built fg_connection(rep)."""
    if fg is None:
        fg = fg_connection(rep)
    scale, rows = coweight_diagonal(rep)
    return lift_equivariant(fg, rows, scale)
