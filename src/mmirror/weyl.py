"""Weyl group elements, minuscule coset representatives, Bruhat covers.

Elements act on weights in fundamental-weight coordinates; the action matrix
of s_i is the identity with column i replaced by e_i minus the i-th row of
the Cartan matrix.  Equality and hashing use the action matrix only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from fractions import Fraction

from .rootsys import (
    ParabolicData,
    Root,
    RootDatum,
    Weight,
    is_cominuscule,
    levi_data,
    simple_root,
    weight_orbit,
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
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _matvec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _simple_matrix(d: RootDatum, i: int):
    # (s_i lam)_j = lam_j - lam_i * a_ij, so column i of the identity gets
    # the i-th Cartan row subtracted.
    n = d.rank
    return tuple(
        tuple(int(j == k) - (d.cartan[i - 1][j] if k == i - 1 else 0)
              for k in range(n))
        for j in range(n)
    )


def _root_sign(d: RootDatum, action, root: Root) -> int:
    """Sign of action(root): +1 positive, -1 negative."""
    return d.signed_root_from_fw(_matvec(action, root.fw))[0]


def _length_of(d: RootDatum, action) -> int:
    return sum(1 for a in d.positive_roots if _root_sign(d, action, a) < 0)


def _canonical_word(d: RootDatum, action, inv_action):
    """Greedy left-descent word: repeatedly strip the smallest s_j with
    ell(s_j w) < ell(w), i.e. with w^{-1}(alpha_j) negative."""
    n = d.rank
    word = []
    act, inv = action, inv_action
    while True:
        for j in range(1, n + 1):
            if _root_sign(d, inv, simple_root(d, j)) < 0:
                m = _simple_matrix(d, j)
                act = _matmul(m, act)
                inv = _matmul(inv, m)
                word.append(j)
                break
        else:
            return tuple(word)


def _make_elt(d: RootDatum, action, inv_action) -> WeylElt:
    return WeylElt(
        action=action,
        inv_action=inv_action,
        length=_length_of(d, action),
        word=_canonical_word(d, action, inv_action),
    )


def identity_elt(d: RootDatum) -> WeylElt:
    eye = _identity_matrix(d.rank)
    return WeylElt(action=eye, inv_action=eye, length=0, word=())


def simple_reflection(d: RootDatum, i: int) -> WeylElt:
    m = _simple_matrix(d, i)
    return WeylElt(action=m, inv_action=m, length=1, word=(i,))


def _reflection_matrix(d: RootDatum, beta: Root):
    n = d.rank
    cv = beta.coroot.coeffs
    return tuple(
        tuple(int(j == k) - beta.fw[j] * cv[k] for k in range(n))
        for j in range(n)
    )


def reflection(d: RootDatum, beta: Root) -> WeylElt:
    """s_beta, built directly as 1 - beta tensor beta-vee on fw coords."""
    m = _reflection_matrix(d, beta)
    return _make_elt(d, m, m)


def from_word(d: RootDatum, word) -> WeylElt:
    act = _identity_matrix(d.rank)
    inv = act
    for i in word:
        m = _simple_matrix(d, i)
        act = _matmul(act, m)
        inv = _matmul(m, inv)
    return _make_elt(d, act, inv)


def multiply(d: RootDatum, u: WeylElt, v: WeylElt) -> WeylElt:
    return _make_elt(d, _matmul(u.action, v.action), _matmul(v.inv_action, u.inv_action))


def inverse(d: RootDatum, w: WeylElt) -> WeylElt:
    return WeylElt(
        action=w.inv_action,
        inv_action=w.action,
        length=w.length,
        word=_canonical_word(d, w.inv_action, w.action),
    )


def act_weight(w: WeylElt, lam) -> tuple:
    vec = lam.coeffs if isinstance(lam, Weight) else tuple(lam)
    return _matvec(w.action, vec)


def act_root(d: RootDatum, w: WeylElt, root: Root):
    """(sign, Root): the image w(root) as a signed positive root."""
    return d.signed_root_from_fw(_matvec(w.action, root.fw))


def act_coweight(w: WeylElt, covec) -> tuple:
    """Coweights transform by the transpose of the inverse action."""
    cc = covec.coeffs if hasattr(covec, "coeffs") else tuple(covec)
    n = len(cc)
    return tuple(sum(w.inv_action[j][k] * cc[j] for j in range(n)) for k in range(n))


def longest_element(d: RootDatum, J=None) -> WeylElt:
    """Longest element of the standard parabolic W_J (J = all nodes when
    omitted), by greedy ascent from the J-regular dominant weight that is 1
    on J and 0 elsewhere."""
    n = d.rank
    if J is None:
        J = range(1, n + 1)
    J = sorted(set(J))
    mu = [1 if (j + 1) in set(J) else 0 for j in range(n)]
    collected = []
    while True:
        for j in J:
            if mu[j - 1] > 0:
                c = mu[j - 1]
                for k in range(n):
                    mu[k] -= c * d.cartan[j - 1][k]
                collected.append(j)
                break
        else:
            break
    return from_word(d, list(reversed(collected)))


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

    def rep_by_weight(self, mu) -> WeylElt:
        return self.reps[self._by_weight[tuple(mu)]]


def minuscule_coset_reps(d: RootDatum, node: int) -> CosetReps:
    """Walk the weight orbit W . varpi_node; each rep is recovered from
    its weight by greedy descent (smallest j with mu_j < 0 first)."""
    p = levi_data(d, node=node)
    n = d.rank
    start = tuple(1 if j == node - 1 else 0 for j in range(n))

    elts = []
    for mu in weight_orbit(d, start):
        word = []
        cur = list(mu)
        while tuple(cur) != start:
            for j in range(n):
                if cur[j] < 0:
                    c = cur[j]
                    for k in range(n):
                        cur[k] -= c * d.cartan[j][k]
                    word.append(j + 1)
                    break
            else:
                raise AssertionError("descent recovery stalled")
        elts.append((from_word(d, word), mu))

    elts.sort(key=lambda pair: (pair[0].length, pair[0].word))
    reps = tuple(e for e, _ in elts)
    weights = tuple(m for _, m in elts)
    index = {w.action: i for i, w in enumerate(reps)}
    if len(index) != len(reps) or len(reps) != p.coset_size:
        raise AssertionError("recovered reps are not the coset orbit")
    return CosetReps(
        parabolic=p,
        reps=reps,
        weights=weights,
        _index=index,
        _by_weight={m: i for i, m in enumerate(weights)},
    )


def pi_P(d: RootDatum, I_P, w: WeylElt) -> WeylElt:
    """Minimal-length representative of the coset w W_P.  Only
    w.action and w.inv_action are read; the result is built once."""
    ip = sorted(set(I_P))
    act, inv = w.action, w.inv_action
    while True:
        for j in ip:
            if _root_sign(d, act, simple_root(d, j)) < 0:
                m = _simple_matrix(d, j)
                act = _matmul(act, m)
                inv = _matmul(m, inv)
                break
        else:
            return _make_elt(d, act, inv)


def bruhat_covers_up(d: RootDatum, p: ParabolicData, w: WeylElt):
    """Elements of W^P covering w: w s_beta with beta in R+ \\ R+_P,
    ell(w s_beta) = ell(w) + 1 and w s_beta still a minimal rep.  Returned
    as (beta, element) pairs in positive-root order."""
    levi = {r.coeffs for r in p.levi_positive_roots}
    out = []
    for beta in d.positive_roots:
        if beta.coeffs in levi:
            continue
        refl = _reflection_matrix(d, beta)
        act = _matmul(w.action, refl)
        if _length_of(d, act) != w.length + 1:
            continue
        if any(_root_sign(d, act, simple_root(d, j)) < 0 for j in p.I_P):
            continue
        inv = _matmul(refl, w.inv_action)
        out.append((beta, _make_elt(d, act, inv)))
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
        sign, img = act_root(
            d,
            WeylElt(wP.inv_action, wP.action, wP.length, ()),
            simple_root(d, p.node),
        )
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


def pd(d: RootDatum, p: ParabolicData, spec: SpecialElements, w: WeylElt) -> WeylElt:
    """Poincare duality on W^P: pi_P(w0 w w0P)."""
    return pi_P(d, p.I_P, multiply(d, multiply(d, spec.w0, w), spec.w0P))
