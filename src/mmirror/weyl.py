"""Minuscule coset representatives keyed by weight, and Bruhat covers.

A coset w W_P of a maximal parabolic is named by its weight mu =
w.varpi_node in fundamental-weight (fw) coordinates, and W^P is one table
keyed by that weight (CosetReps).  Its rows hold, for the minimal rep w
of each coset, the length and canonical reduced word of w, the coweight
w.varpi_node-vee, and the images of w that coset moves read.  No Weyl
element and no matrix is built.

Words and lengths are read off weights by the one descent of
rootsys.descent: s_j w < w exactly when <w.rho, alpha_j-vee> < 0, so
repeatedly applying the smallest such s_j to w.rho spells the canonical
reduced word of w, and the length is the number of letters.  Applied to
w.lam, with lam dominant and stabiliser W_P, the same descent spells the
minimal representative of w W_P.

W^P is grown once, up the left weak order from the identity
(minuscule_coset_reps).  The walk carries, for each rep w, the fw
coordinates of w.rho and of w.beta for every beta in R+ \\ R+_P, in
positive-root order, with their heights, and w.varpi_node-vee in
simple-coroot coordinates.  The child s_j w moves an image v to s_j.v =
v - v_j (row j of the Cartan matrix) and its height to ht(v) - v_j,
keeping the parent's v where v_j = 0, and the coweight cw in coordinate
j alone: cw_j - sum_k a_jk cw_k.  A minuscule step lowers the weight by
one simple root (Proctor, "Bruhat lattices, plane partition generating
functions, and minuscule representations"): lengths are heights there
(CosetReps).  At a minuscule node (or the B_n quadric node) the library
moves between cosets on that table only: w s_beta lies in the coset of
mu - <varpi_node, beta-vee> w.beta (reflect_coset, a dict lookup), maps
rho to w.rho - <rho, beta-vee> w.beta (reflect_rho), and is the minimal
rep of that coset exactly when this image is the rep's own rho image,
as rho is regular.  That test gives the Bruhat covers and most terms of
the Chevalley rule with no descent; a term whose w s_beta is not
minimal needs its length, the descent of its rho image (reflect_length,
asked only when the coset's length can match).  w lies in W(gamma) when
its gamma image is -theta; the Poincare dual of mu is w0.mu, whose
coordinate at sigma(i) is -mu_i for the diagram involution sigma = -w0,
read off the dominant end -w0.(1, 2, .., r) of the descent of
-(1, 2, .., r).
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul, sub

from .rootsys import (
    Root,
    RootDatum,
    descent,
    levi_data,
    minuscule_nodes,
)

__all__ = [
    "CosetReps",
    "minuscule_coset_reps",
    "reflect_coset",
    "reflect_rho",
    "reflect_length",
    "bruhat_covers_up",
    "w_gamma_set",
    "pd",
]


def _reflect_images(d: RootDatum, i: int, images, heights, pool) -> tuple:
    """s_i.v = v - v_i (row i of the Cartan matrix) of height ht(v) - v_i
    for each v of images, changed only along that row's nonzero entries;
    v itself when v_i = 0.  A new image is stored once in pool: the
    images of roots are roots, so the reps share them."""
    row = d.cartan_rows[i - 1]
    out, hts = list(images), list(heights)
    for s, v in enumerate(images):
        c = v[i - 1]
        if c:
            v = list(v)
            for k, a in row:
                v[k] -= c * a
            v = tuple(v)
            out[s] = pool.setdefault(v, v)
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
                           "coweights images heights roots by_weight slots")):
    """W^P for a maximal parabolic as parallel tuples, one row per coset,
    ordered by (length, canonical word) of its minimal representative w:
    weights[i] = w . varpi_node, which keys the row; lengths[i] = ell(w)
    and words[i] its canonical reduced word; coweights[i] = w .
    varpi_node-vee in simple-coroot coordinates, integers over
    d.inverse_cartan[0].

    images[i][0] is w . rho and images[i][slot(beta)] is w . beta for
    beta in R+ \\ R+_P (roots, in slot order), all in fw coordinates.  At
    a minuscule node heights[i][s] is the height of images[i][s] (slot 0:
    ht(w.rho - rho)); as ell(w) = ht(varpi_node - mu) there, the coset
    of w s_beta, of weight mu - w.beta, has length ell(w) + ht(w.beta).
    At the B_n quadric node a step may lower mu by 2 alpha_n, lengths
    are not heights, and heights is None: no move is pruned.  by_weight
    maps each weight to its row and slots each root's coeffs to its slot.
    A table equals only itself, and its len is the number of cosets."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __len__(self):
        return len(self.weights)

    def index_of_weight(self, mu) -> int:
        return self.by_weight[tuple(mu)]

    def slot(self, beta: Root) -> int:
        """Position of w.beta in each images tuple; a Levi root has none."""
        try:
            return self.slots[beta.coeffs]
        except KeyError:
            raise ValueError(f"{beta} lies in the Levi of node "
                             f"{self.parabolic.node}: no coset move") from None


def minuscule_coset_reps(d: RootDatum, node: int) -> CosetReps:
    """W^P by one walk up the left weak order from the identity.  For a
    rep w of weight mu = w.varpi_node and each j with mu_j > 0, s_j w is a
    rep one step longer (Deodhar's lemma) of weight s_j.mu: its word is
    the descent word of s_j.mu, its coweight that of w moved in
    coordinate j, and each of its images s_j.v for an image v of w (v
    itself when v_j = 0) with its height.  Each new row must pair its
    weight with its coweight to <varpi_node, varpi_node-vee>, which W
    preserves, at a minuscule node have length ht(varpi_node - mu), and
    the count must be the closed-form |W^P| of levi_data."""
    p = levi_data(d, node)
    minuscule = node in minuscule_nodes(d.cartan_type)
    roots = tuple(r for r in d.positive_roots if r.coeffs[node - 1])
    start = tuple(int(j == node - 1) for j in range(d.rank))
    cov = tuple(row[node - 1] for row in d.inverse_cartan[1])
    words = {start: ()}
    coweights = {start: cov}
    images = {start: ((1,) * d.rank,) + tuple(r.fw for r in roots)}
    heights = {start: (0,) + tuple(r.height for r in roots)}
    pool = {}
    order = [start]
    for mu in order:                  # the walk appends to order
        for j, a in enumerate(d.cartan, 1):
            if mu[j - 1] <= 0:
                continue
            nu = tuple(x - mu[j - 1] * y for x, y in zip(mu, a))
            if nu in words:
                continue
            cw = _reflect_coweight(d, j, coweights[mu])
            if sum(map(mul, nu, cw)) != cov[node - 1]:
                raise AssertionError("walk coweight does not pair with its "
                                     "weight to <varpi, varpi-vee>")
            words[nu] = descent(d, nu)[0]
            if minuscule and len(words[nu]) != len(words[mu]) + mu[j - 1]:
                raise AssertionError("walk length is not the depth "
                                     "ht(varpi - mu) at a minuscule node")
            coweights[nu] = cw
            images[nu], heights[nu] = _reflect_images(
                d, j, images[mu], heights[mu], pool)
            order.append(nu)
    if len(order) != p.coset_size:
        raise AssertionError("walk does not reach |W^P| cosets")

    order.sort(key=lambda mu: (len(words[mu]), words[mu]))
    return CosetReps(
        parabolic=p,
        weights=tuple(order),
        lengths=tuple(len(words[mu]) for mu in order),
        words=tuple(words[mu] for mu in order),
        coweights=tuple(coweights[mu] for mu in order),
        images=tuple(images[mu] for mu in order),
        heights=tuple(heights[mu] for mu in order) if minuscule else None,
        roots=roots,
        by_weight={mu: i for i, mu in enumerate(order)},
        slots={r.coeffs: s for s, r in enumerate(roots, 1)},
    )


def reflect_coset(reps: CosetReps, c: int, beta: Root) -> int:
    """Index of the coset of w s_beta for w the rep at c and beta in
    R+ \\ R+_P: its weight w s_beta . varpi = mu - <varpi, beta-vee>
    w.beta, found by a dict lookup.  Since ell(w s_beta) is at least the
    length of that coset, a caller that needs w s_beta to have a given
    length compares the coset's length first and asks reflect_length only
    when it can match."""
    w_beta = reps.images[c][reps.slot(beta)]
    k = beta.coroot[reps.parabolic.node - 1]
    if k != 1:                        # only at the B_n quadric node
        w_beta = [k * b for b in w_beta]
    return reps.by_weight[tuple(map(sub, reps.weights[c], w_beta))]


def reflect_rho(reps: CosetReps, c: int, beta: Root) -> tuple:
    """w s_beta . rho = w.rho - <rho, beta-vee> w.beta in fw coordinates,
    for w the rep at c and beta in R+ \\ R+_P.  As rho is regular, w s_beta
    is the minimal rep of its coset r exactly when this equals
    reps.images[r][0], the rep's own rho image; no descent is needed."""
    img = reps.images[c]
    h = sum(beta.coroot)
    return tuple(r - h * b for r, b in zip(img[0], img[reps.slot(beta)]))


def reflect_length(d: RootDatum, reps: CosetReps, c: int, beta: Root) -> int:
    """ell(w s_beta) for w the rep at c and beta in R+ \\ R+_P: the
    descent length of w s_beta . rho (reflect_rho)."""
    return len(descent(d, reflect_rho(reps, c, beta))[0])


def bruhat_covers_up(reps: CosetReps, c: int):
    """Covers of the rep w at c in W^P, read off the table alone: w s_beta
    for beta in R+ \\ R+_P whose coset r has length ell(w) + 1 and whose
    rho image w s_beta . rho is that of r's rep (reflect_rho), so it is
    r's minimal rep.  Returned as (beta, index) pairs in positive-root
    order.  r has length ell(w) + ht(w.beta) at a minuscule node, so only
    ht(w.beta) = 1 is looked up there."""
    up = reps.lengths[c] + 1
    hts = reps.heights[c] if reps.heights else None
    out = []
    for s, beta in enumerate(reps.roots, 1):
        if hts and hts[s] != 1:
            continue
        r = reflect_coset(reps, c, beta)
        if (reps.lengths[r] == up
                and reflect_rho(reps, c, beta) == reps.images[r][0]):
            out.append((beta, r))
    return out


def w_gamma_set(d: RootDatum, reps: CosetReps):
    """The indices of {w in W^P : w(gamma) = -theta}, in rep order."""
    slot = reps.slot(reps.parabolic.gamma)
    minus_theta = tuple(-x for x in d.highest_root.fw)
    return [i for i, img in enumerate(reps.images)
            if img[slot] == minus_theta]


def _diagram_involution(d: RootDatum) -> tuple:
    """sigma with -w0 . varpi_i = varpi_sigma(i), 0-based: the coordinate
    i + 1 of -w0.(1, 2, .., r) lies at sigma(i)."""
    n = d.rank
    top = descent(d, [-i for i in range(1, n + 1)])[1]
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
    return tuple(reps.index_of_weight(tuple(-mu[s] for s in sigma))
                 for mu in reps.weights)
