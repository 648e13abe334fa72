"""Weyl group elements, minuscule coset representatives, Bruhat covers.

Elements act on weights in fundamental-weight coordinates; the action matrix
of s_i is the identity with column i replaced by e_i minus the i-th row of
the Cartan matrix.  Equality and hashing use the action matrix only.

Words, lengths and coset representatives are read off weights by one
descent rule: s_j w < w exactly when <w.rho, alpha_j-vee> < 0, so
repeatedly applying the smallest such s_j to w.rho (the row sums of the
action matrix) spells the canonical reduced word of w, and the length is
the number of letters.  Applied to w.lam, with lam dominant and stabiliser
W_P, the same descent spells the minimal representative of w W_P; right
descents are read the same way off w^{-1}.rho.

A coset w W_P of a maximal parabolic is its weight mu = w.varpi_node;
W^P is grown once, up the left weak order from the identity
(minuscule_coset_reps).  At a minuscule node (or the B_n quadric node)
the library moves between cosets on weights only: w s_beta lies in the
coset of mu - <varpi_node, beta-vee> w.beta (reflect_coset, a dict
lookup) and has the length of the descent of w.rho - <rho, beta-vee>
w.beta (reflect_length, asked only when the coset's length can match),
which gives Bruhat covers and the Chevalley rule; the Poincare dual of
mu is w0.mu, since w0P fixes varpi_node.  Products, inverses, pi_P and
the special elements stay as the element-level reference that the tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .rootsys import (
    ParabolicData,
    Root,
    RootDatum,
    Weight,
    is_cominuscule,
    levi_data,
    simple_root,
)

__all__ = [
    "WeylElt",
    "CosetReps",
    "SpecialElements",
    "identity_elt",
    "simple_reflection",
    "reflection",
    "from_word",
    "multiply",
    "inverse",
    "act_weight",
    "act_root",
    "act_coweight",
    "longest_element",
    "minuscule_coset_reps",
    "pi_P",
    "reflect_coset",
    "reflect_length",
    "bruhat_covers_up",
    "w_gamma_set",
    "special_elements",
    "pd",
]


@dataclass(frozen=True, eq=False)
class WeylElt:
    action: tuple        # rank x rank integer matrix, acts on fw coords
    inv_action: tuple
    length: int
    word: tuple          # canonical reduced word (greedy left descents)

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.action == other.action

    def __hash__(self):
        return hash(self.action)

    def __repr__(self):
        return f"W[{'.'.join(map(str, self.word)) or 'e'}]"


def _matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _matvec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def _identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _reflect_rows(d: RootDatum, i: int, m):
    """s_i . m: since (s_i lam)_j = lam_j - lam_i * a_ij, row j of m loses
    a_ij times row i, and only row i and its neighbours change."""
    a = d.cartan[i - 1]
    pivot = m[i - 1]
    return tuple(
        row if a[j] == 0 else tuple(x - a[j] * y for x, y in zip(row, pivot))
        for j, row in enumerate(m)
    )


def _reflect_cols(d: RootDatum, i: int, m):
    """m . s_i: column i of s_i is e_i minus row i of the Cartan matrix,
    so only entry i of each row of m changes."""
    a = d.cartan[i - 1]
    return tuple(row[:i - 1] + (row[i - 1] - sum(map(mul, a, row)),) + row[i:]
                 for row in m)


def _descent_word(d: RootDatum, mu):
    """Letters of the descent of mu to the dominant chamber: repeatedly
    apply the smallest s_j with mu_j < 0 and record j."""
    n = d.rank
    cur = list(mu)
    word = []
    while True:
        for j in range(n):
            if cur[j] < 0:
                c = cur[j]
                for k, a in enumerate(d.cartan[j]):
                    cur[k] -= c * a
                word.append(j + 1)
                break
        else:
            return tuple(word)


def _make_elt(d: RootDatum, action, inv_action) -> WeylElt:
    """The canonical (greedy left-descent) word of w is the descent word
    of w.rho, which in fw coordinates is the row sums of the action."""
    word = _descent_word(d, [sum(row) for row in action])
    return WeylElt(action=action, inv_action=inv_action, length=len(word),
                   word=word)


def identity_elt(d: RootDatum) -> WeylElt:
    eye = _identity_matrix(d.rank)
    return WeylElt(action=eye, inv_action=eye, length=0, word=())


def simple_reflection(d: RootDatum, i: int) -> WeylElt:
    return from_word(d, (i,))


@lru_cache(maxsize=None)
def reflection(d: RootDatum, beta: Root) -> WeylElt:
    """s_beta, built directly as 1 - beta tensor beta-vee on fw coords."""
    n = d.rank
    cv = beta.coroot.coeffs
    m = tuple(
        tuple(int(j == k) - beta.fw[j] * cv[k] for k in range(n))
        for j in range(n)
    )
    return _make_elt(d, m, m)


def from_word(d: RootDatum, word) -> WeylElt:
    act = inv = _identity_matrix(d.rank)
    for i in reversed(word):
        act = _reflect_rows(d, i, act)
    for i in word:
        inv = _reflect_rows(d, i, inv)
    return _make_elt(d, act, inv)


def multiply(d: RootDatum, u: WeylElt, v: WeylElt) -> WeylElt:
    return _make_elt(d, _matmul(u.action, v.action), _matmul(v.inv_action, u.inv_action))


def inverse(d: RootDatum, w: WeylElt) -> WeylElt:
    return _make_elt(d, w.inv_action, w.action)


def act_weight(w: WeylElt, lam) -> tuple:
    vec = lam.coeffs if isinstance(lam, Weight) else tuple(lam)
    return _matvec(w.action, vec)


def act_root(d: RootDatum, w: WeylElt, root: Root):
    """(sign, Root): the image w(root) as a signed positive root."""
    return d.signed_root_from_fw(_matvec(w.action, root.fw))


def act_coweight(w: WeylElt, covec) -> tuple:
    """Coweights transform by the transpose of the inverse action; the
    sums run in integers over the common denominator of covec, and each
    coordinate comes back as a Fraction."""
    cc = covec.coeffs if hasattr(covec, "coeffs") else tuple(covec)
    den = lcm(*(x.denominator for x in cc))
    nums = [x.numerator * (den // x.denominator) for x in cc]
    return tuple(Fraction(sum(map(mul, col, nums)), den)
                 for col in zip(*w.inv_action))


def longest_element(d: RootDatum, J=None) -> WeylElt:
    """Longest element of the standard parabolic W_J (J = all nodes when
    omitted): the descent word of w0_J.rho = rho - 2 rho_J, which for the
    whole group is -rho, so no Levi data is built."""
    if J is None:
        return from_word(d, _descent_word(d, [-1] * d.rank))
    rho_J = levi_data(d, subset=J).rho_P.coeffs
    return from_word(d, _descent_word(d, [int(1 - 2 * x) for x in rho_J]))


@dataclass(frozen=True)
class CosetReps:
    """Minimal-length representatives of W/W_P for a minuscule node,
    ordered by (length, canonical word); weights[i] = reps[i] . varpi_node."""

    parabolic: ParabolicData
    reps: tuple
    weights: tuple
    _index: dict = field(repr=False)
    _by_weight: dict = field(repr=False)

    def __len__(self):
        return len(self.reps)

    def index_of(self, w: WeylElt) -> int:
        return self._index[w.action]

    def index_of_weight(self, mu) -> int:
        return self._by_weight[tuple(mu)]


def minuscule_coset_reps(d: RootDatum, node: int) -> CosetReps:
    """W^P by one walk up the left weak order from the identity.  For a
    rep w of weight mu = w.varpi_node and each j with mu_j > 0, s_j w is a
    rep one step longer (Deodhar's lemma) of weight s_j.mu: its action is
    one row update of w's, its inverse one column update of w's, and its
    word the descent word of s_j.mu.  The count must be the closed-form
    |W^P| of levi_data."""
    p = levi_data(d, node=node)
    start = tuple(int(j == node - 1) for j in range(d.rank))
    elts = {start: identity_elt(d)}
    order = [start]
    for mu in order:                  # the walk appends to order
        w = elts[mu]
        for j, a in enumerate(d.cartan, 1):
            if mu[j - 1] <= 0:
                continue
            nu = tuple(x - mu[j - 1] * y for x, y in zip(mu, a))
            if nu in elts:
                continue
            action = _reflect_rows(d, j, w.action)
            if tuple(row[node - 1] for row in action) != nu:
                raise AssertionError("walk action misses its weight")
            word = _descent_word(d, nu)
            elts[nu] = WeylElt(action, _reflect_cols(d, j, w.inv_action),
                               len(word), word)
            order.append(nu)
    if len(order) != p.coset_size:
        raise AssertionError("walk does not reach |W^P| cosets")

    order.sort(key=lambda mu: (elts[mu].length, elts[mu].word))
    reps = tuple(elts[mu] for mu in order)
    return CosetReps(
        parabolic=p,
        reps=reps,
        weights=tuple(order),
        _index={w.action: i for i, w in enumerate(reps)},
        _by_weight={mu: i for i, mu in enumerate(order)},
    )


def pi_P(d: RootDatum, I_P, w: WeylElt) -> WeylElt:
    """Minimal-length representative of the coset w W_P: the element
    spelled by the descent word of w . lam, where lam = sum of varpi_j over
    j outside I_P has stabiliser W_P."""
    lam = [0 if j + 1 in I_P else 1 for j in range(d.rank)]
    return from_word(d, _descent_word(d, act_weight(w, lam)))


def reflect_coset(reps: CosetReps, c: int, beta: Root) -> int:
    """Index of the coset of w s_beta for w = reps.reps[c]: its weight
    w s_beta . varpi = mu - <varpi, beta-vee> w.beta, found by a dict
    lookup.  Since ell(w s_beta) is at least the length of that coset, a
    caller that needs w s_beta to have a given length compares the
    coset's length first and asks reflect_length only when it can match."""
    w_beta = _matvec(reps.reps[c].action, beta.fw)
    k = beta.coroot.coeffs[reps.parabolic.node - 1]
    return reps.index_of_weight(
        [m - k * b for m, b in zip(reps.weights[c], w_beta)])


def reflect_length(d: RootDatum, reps: CosetReps, c: int, beta: Root) -> int:
    """ell(w s_beta) for w = reps.reps[c]: the descent length of
    w s_beta . rho = w.rho - <rho, beta-vee> w.beta."""
    w = reps.reps[c]
    w_beta = _matvec(w.action, beta.fw)
    h = sum(beta.coroot.coeffs)
    return len(_descent_word(
        d, [sum(row) - h * b for row, b in zip(w.action, w_beta)]))


def bruhat_covers_up(d: RootDatum, reps: CosetReps, c: int):
    """Covers of w = reps.reps[c] in W^P: w s_beta with beta in R+ \\ R+_P,
    ell(w s_beta) = ell(w) + 1 and w s_beta the minimal rep of its coset,
    i.e. its coset has length ell(w) + 1.  Returned as (beta, index) pairs
    in positive-root order."""
    levi = {r.coeffs for r in reps.parabolic.levi_positive_roots}
    up = reps.reps[c].length + 1
    out = []
    for beta in d.positive_roots:
        if beta.coeffs in levi:
            continue
        r = reflect_coset(reps, c, beta)
        if (reps.reps[r].length == up
                and reflect_length(d, reps, c, beta) == up):
            out.append((beta, r))
    return out


def w_gamma_set(d: RootDatum, reps: CosetReps):
    """{w in W^P : w(gamma) = -theta}, in rep order."""
    gamma = reps.parabolic.gamma
    out = []
    for w in reps.reps:
        sign, img = act_root(d, w, gamma)
        if sign < 0 and img.coeffs == d.highest_root.coeffs:
            out.append(w)
    return out


@dataclass(frozen=True)
class SpecialElements:
    w0: WeylElt           # longest element of W
    w0P: WeylElt          # longest element of W_P
    wP: WeylElt           # w0P * w0
    wPQ: WeylElt          # w0P * w0Q  (longest minimal rep of W_P / W_Q)
    sgamma: WeylElt       # reflection at gamma


def special_elements(d: RootDatum, p: ParabolicData) -> SpecialElements:
    """Builds the distinguished elements and self-checks their defining
    identities: w_P(rho) = -rho + 2 rho_P always; Inv(w_{P/Q}) =
    R+_P \\ R+_Q when gamma exists; at a cominuscule node additionally
    w_P^{-1}(alpha_node) = -theta."""
    w0 = longest_element(d)
    w0P = longest_element(d, p.I_P)
    wP = multiply(d, w0P, w0)

    got = act_weight(wP, d.rho)
    if tuple(Fraction(x) for x in got) != tuple(
        -1 + 2 * x for x in p.rho_P.coeffs
    ):
        raise AssertionError("w_P(rho) != -rho + 2 rho_P")
    if p.node is not None and is_cominuscule(d, p.node):
        sign, img = act_root(d, inverse(d, wP), simple_root(d, p.node))
        if sign != -1 or img.coeffs != d.highest_root.coeffs:
            raise AssertionError("w_P^{-1}(alpha_node) != -theta")

    wPQ = None
    sgamma = None
    if p.gamma is not None:
        w0Q = longest_element(d, p.I_Q)
        wPQ = multiply(d, w0P, w0Q)
        sgamma = reflection(d, p.gamma)
        levi_minus_q = {
            r.coeffs for r in p.levi_positive_roots
        } - {
            r.coeffs
            for r in levi_data(d, subset=p.I_Q).levi_positive_roots
        }
        inv = {
            a.coeffs for a in d.positive_roots
            if act_root(d, wPQ, a)[0] < 0
        }
        if inv != levi_minus_q:
            raise AssertionError("Inv(w_{P/Q}) != R+_P \\ R+_Q")
    return SpecialElements(w0=w0, w0P=w0P, wP=wP, wPQ=wPQ, sgamma=sgamma)


def pd(d: RootDatum, reps: CosetReps) -> tuple:
    """Poincare duality on W^P as indices: PD(w) = pi_P(w0 w w0P), whose
    weight is w0 . mu because w0P fixes varpi_node."""
    w0 = longest_element(d).action
    return tuple(reps.index_of_weight(_matvec(w0, mu)) for mu in reps.weights)
