"""Minuscule coset representatives keyed by weight, and Bruhat covers.

A coset w W_P of a maximal parabolic is named by its weight mu =
w.varpi_node in fundamental-weight (fw) coordinates, and W^P is one table
keyed by that weight (CosetReps).  Its rows hold, for the minimal rep w
of each coset, the length and canonical reduced word of w, the coweight
w.varpi_node-vee, and the root images w.beta that coset moves read.  No
Weyl element and no matrix is built.

Each word is the canonical reduced word that rootsys.descent spells
from w.rho (s_j w < w exactly when <w.rho, alpha_j-vee> < 0), and from
w.varpi_node, whose stabiliser is W_P, for the minimal rep of w W_P.
W^P is grown once, up the left weak order from the identity
(minuscule_coset_reps), with no descent: each rep is grown once, from
its canonical parent, whose word it extends by one letter, with its
coweight w.varpi_node-vee and its root images w.beta, beta in R+ \\
R+_P, and their heights; the rows arrive one length at a time,
letter-major, in (length, word) order, with no sort.  A minuscule step
lowers the weight by one simple root (Proctor, "Bruhat lattices, plane
partition generating functions, and minuscule representations"): lengths
are heights there (CosetReps).  At a minuscule node (or the B_n quadric
node) the library moves between cosets on that table only, reading a
root beta by its slot s (its column in images, its index in roots) and
a coset by its weight (by_weight, the one index): w s_beta lies in the
coset of mu - <varpi_node, beta-vee> w.beta (reflect_coset, a dict
lookup), and that coset's length alone decides a Bruhat cover
(bruhat_covers_up) or a term of the Chevalley rule (qchev.fw_matrix),
with no descent and no Weyl length.  w lies in W(gamma) when its image
at gamma's slot is -theta (a node with no gamma is refused); the
Poincare dual of mu is w0.mu, whose coordinate at sigma(i) is -mu_i for
the diagram involution sigma = -w0, read off the dominant end -w0.(1,
2, .., r) of the descent of -(1, 2, .., r).
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul, sub

from .rootsys import RootDatum, descent, levi_data, minuscule_nodes

__all__ = [
    "CosetReps",
    "minuscule_coset_reps",
    "reflect_coset",
    "bruhat_covers_up",
    "w_gamma_set",
    "pd",
]


def _reflect_images(d: RootDatum, i: int, images, heights, memo) -> tuple:
    """s_i.v = v - v_i (row i of the Cartan matrix) of height ht(v) - v_i
    for each v of images, changed only along that row's nonzero entries;
    v itself when v_i = 0.  memo[v][i - 1] keeps s_i.v once formed: the
    images of roots are roots, so one that comes back costs a lookup."""
    col, out, hts = i - 1, list(images), list(heights)
    for s, v in enumerate(images):
        c = v[col]
        if c:
            m = memo.get(v)
            if m is None:
                memo[v] = m = [None] * len(v)
            w = m[col]
            if w is None:
                w = list(v)
                for k, a in d.cartan_rows[col]:
                    w[k] -= c * a
                m[col] = w = tuple(w)
            out[s] = w
            hts[s] -= c
    return tuple(out), tuple(hts)


def _reflect_coweight(d: RootDatum, j: int, cw) -> tuple:
    """s_j.cw for a coweight cw in simple-coroot coordinates: cw loses
    <alpha_j, cw> alpha_j-vee, so only coordinate j moves, by
    -sum_k a_jk cw_k over row j of the Cartan matrix."""
    cw = list(cw)
    cw[j - 1] -= sum(a * cw[k] for k, a in d.cartan_rows[j - 1])
    return tuple(cw)


class CosetReps(namedtuple("CosetReps", "parabolic weights lengths words "
                           "coweights images heights roots by_weight")):
    """W^P for a maximal parabolic as parallel tuples, one row per coset,
    ordered by (length, canonical word) of its minimal representative w:
    weights[i] = w . varpi_node, which keys the row; lengths[i] = ell(w)
    and words[i] its canonical reduced word; coweights[i] = w .
    varpi_node-vee in simple-coroot coordinates, integers over
    d.inverse_cartan[0].

    images[i][s] is w . beta in fw coordinates for beta = roots[s], the
    roots R+ \\ R+_P in positive-root order; s is beta's slot.  At a
    minuscule node heights[i][s] is the height of images[i][s]; as ell(w)
    = ht(varpi_node - mu) there, the coset of w s_beta, of weight mu -
    w.beta, has length ell(w) + ht(w.beta).
    At the B_n quadric node a step may lower mu by 2 alpha_n, lengths
    are not heights, and heights is None: no move is pruned.  by_weight
    maps each weight to its row.  A table equals only itself, and its
    len is the number of cosets."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __len__(self):
        return len(self.weights)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, counts the fields
        # with len(), and len counts the cosets
        table = tuple.__new__(cls, iterable)
        if (got := tuple.__len__(table)) != (n := len(cls._fields)):
            raise TypeError(f"Expected {n} arguments, got {got}")
        return table


def minuscule_coset_reps(d: RootDatum, node: int) -> CosetReps:
    """W^P by one walk up the left weak order from the identity.  For a
    rep w of weight mu = w.varpi_node and each j with c = mu_j > 0, s_j w
    is a rep one step longer (Deodhar's lemma) of weight nu = mu - c
    alpha_j.  nu is grown from its canonical parent w alone, when j is its
    first descent (nu_k >= 0 for k < j): its word is j then the word of
    w, its coweight that of w moved in coordinate j, and each of its
    images s_j.v for an image v of w (v itself when v_j = 0) with its
    height.  Length l + 1 is grown letter-major, j = 1..r each over the
    rows of length l in their (length, word) order, so the words j +
    word(w) arrive in that order too, appended where they are returned.
    Each new row must pair its weight with its coweight to <varpi_node,
    varpi_node-vee>, which W preserves, at a minuscule node have length
    ht(varpi_node - mu) (c = 1), and the count, which a rep grown twice
    or missed fails, must be the closed-form |W^P| of levi_data."""
    p = levi_data(d, node)
    minuscule = node in minuscule_nodes(d.cartan_type)
    roots = tuple(r for r in d.positive_roots if r.coeffs[node - 1])
    start = tuple(int(j == node - 1) for j in range(d.rank))
    cov = tuple(row[node - 1] for row in d.inverse_cartan[1])
    table = [(start, (), cov, tuple(r.fw for r in roots),
              tuple(r.height for r in roots))]
    memo, lo = {}, 0
    while lo < len(table):            # the rows of one length, in order
        level, lo = table[lo:], len(table)
        for j, row in enumerate(d.cartan_rows, 1):
            for mu, word, cw_mu, imgs, hts in level:
                c = mu[j - 1]
                if c <= 0:
                    continue
                nu = list(mu)
                for k, a in row:
                    nu[k] -= c * a
                if min(nu[:j - 1], default=0) < 0:
                    continue          # grown from its canonical parent
                cw = _reflect_coweight(d, j, cw_mu)
                if sum(map(mul, nu, cw)) != cov[node - 1]:
                    raise AssertionError("walk coweight does not pair with "
                                         "its weight to <varpi, varpi-vee>")
                if minuscule and c != 1:
                    raise AssertionError("walk length is not the depth "
                                         "ht(varpi - mu) at a minuscule node")
                table.append((tuple(nu), (j,) + word, cw,
                              *_reflect_images(d, j, imgs, hts, memo)))
    if len(table) != p.coset_size:
        raise AssertionError("walk does not reach |W^P| cosets")

    weights, words, coweights, images, heights = map(tuple, zip(*table))
    return CosetReps(
        parabolic=p,
        weights=weights,
        lengths=tuple(map(len, words)),
        words=words,
        coweights=coweights,
        images=images,
        heights=heights if minuscule else None,
        roots=roots,
        by_weight={mu: i for i, mu in enumerate(weights)},
    )


def reflect_coset(reps: CosetReps, c: int, s: int) -> int:
    """Index of the coset of w s_beta for w the rep at c and beta =
    reps.roots[s]: its weight w s_beta . varpi = mu - <varpi, beta-vee>
    w.beta, with w.beta = reps.images[c][s], found by a dict lookup."""
    w_beta = reps.images[c][s]
    k = reps.roots[s].coroot[reps.parabolic.node - 1]
    if k != 1:                        # only at the B_n quadric node
        w_beta = [k * b for b in w_beta]
    return reps.by_weight[tuple(map(sub, reps.weights[c], w_beta))]


def bruhat_covers_up(reps: CosetReps, c: int):
    """Covers of the rep w at c in W^P, read off the table alone: w s_beta
    for beta in R+ \\ R+_P whose coset r has length ell(w) + 1, which
    makes w s_beta r's minimal rep (Fulton-Woodward).  Returned as (beta,
    index) pairs in positive-root order.  r has length ell(w) +
    ht(w.beta) at a minuscule node, so only ht(w.beta) = 1 is looked up
    there."""
    up = reps.lengths[c] + 1
    hts = reps.heights[c] if reps.heights else None
    out = []
    for s, beta in enumerate(reps.roots):
        if hts and hts[s] != 1:
            continue
        r = reflect_coset(reps, c, s)
        if reps.lengths[r] == up:
            out.append((beta, r))
    return out


def _gamma_slot(d: RootDatum, reps: CosetReps) -> int:
    """The slot of gamma in reps.roots; a table with no gamma (a node that
    is not minuscule) is refused by name."""
    p = reps.parabolic
    if p.gamma is None:
        raise ValueError(f"{d.cartan_type} node {p.node} has no gamma: "
                         "W(gamma) needs a minuscule node")
    return reps.roots.index(p.gamma)


def w_gamma_set(d: RootDatum, reps: CosetReps):
    """The indices of {w in W^P : w(gamma) = -theta}, in rep order."""
    slot = _gamma_slot(d, reps)
    minus_theta = tuple(-x for x in d.highest_root.fw)
    return [i for i, img in enumerate(reps.images)
            if img[slot] == minus_theta]


def _diagram_involution(d: RootDatum) -> tuple:
    """sigma with -w0 . varpi_i = varpi_sigma(i), 0-based: the coordinate
    i + 1 of -w0.(1, 2, .., r) lies at sigma(i)."""
    n = d.rank
    top = descent(d.cartan_rows, [-i for i in range(1, n + 1)])[1]
    if sorted(top) != list(range(1, n + 1)):
        raise AssertionError("-w0 does not permute the fundamental weights")
    sigma = [0] * n
    for k, x in enumerate(top):
        sigma[x - 1] = k
    return tuple(sigma)


def pd(d: RootDatum, reps: CosetReps) -> tuple:
    """Poincare duality on W^P as indices: PD(w) = pi_P(w0 w w0P), whose
    weight is w0 . mu because w0P fixes varpi_node: -mu_sigma(k) at k."""
    sigma = _diagram_involution(d)
    return tuple(reps.by_weight[tuple(-mu[s] for s in sigma)]
                 for mu in reps.weights)
