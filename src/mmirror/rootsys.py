"""Root-system data for the simple types carrying minuscule nodes.

Supported families: A_n (n >= 1), B_n and C_n (n >= 2), D_n (n >= 4), E6, E7.
G2, F4 and E8 carry no minuscule node and are rejected.

Conventions
-----------
* Node numbering follows Bourbaki throughout.
* Roots, coroots and weights are plain tuples: a root's coordinates in
  the simple-root basis, a coroot's (or coweight's) in the simple-coroot
  basis, and a weight's in the fundamental-weight basis.  With these
  choices the pairing of a weight against a coroot is a plain dot
  product, since <varpi_i, alpha_j-vee> = delta_ij.
* Root lengths are normalised so long roots have squared length 2.  The
  coroot of beta is 2*beta/(beta,beta); its coordinates are integers by
  construction, and the one case that divides (a long root of B or C) is
  validated during construction.
* positive_roots are ordered by height, then lexicographically on the
  simple-root coordinates, so all downstream matrix layouts are reproducible.
* Every Weyl length and word is read off one descent of a weight to the
  dominant chamber (descent): the word of w from w.rho, ell(s_beta) from
  s_beta.rho (reflection_length).
* The only parabolic is the maximal one at a node (levi_data), with the
  closed-form |W^P|; its Levi roots are those with node coordinate 0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
import re
from typing import NamedTuple

__all__ = [
    "CartanType",
    "Root",
    "RootDatum",
    "ParabolicData",
    "build_root_datum",
    "gamma_root",
    "levi_data",
    "minuscule_nodes",
    "minuscule_dimension",
    "simple_root",
    "descent",
    "reflection_length",
    "datum_to_json",
]

_FAMILY_PATTERN = re.compile(r"^([A-Ea-e])\s*(\d+)$")


class CartanType(namedtuple("CartanType", "family rank")):
    """A simple Lie type, e.g. CartanType('A', 3); sorts by (family, rank).

    Rank bounds: A n>=1, B n>=2, C n>=2, D n>=4, E n in {6, 7}.
    """

    __slots__ = ()

    def __new__(cls, family, rank):
        ok = (
            (family == "A" and rank >= 1)
            or (family == "B" and rank >= 2)
            or (family == "C" and rank >= 2)
            or (family == "D" and rank >= 4)
            or (family == "E" and rank in (6, 7))
        )
        if not ok:
            raise ValueError(f"unsupported Cartan type {family}{rank}")
        return super().__new__(cls, family, rank)

    @staticmethod
    def parse(text: str) -> "CartanType":
        """Parse strings like 'A5', 'b4', 'E7' (case-insensitive)."""
        m = _FAMILY_PATTERN.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse Cartan type from {text!r}")
        return CartanType(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class Root(NamedTuple):
    """A root in simple-root coordinates, with cached derived data.

    coeffs : integer coordinates on alpha_1..alpha_r (all >= 0 here: the
             datum only stores positive roots).
    height : sum of coeffs.
    fw     : the same root written in fundamental-weight coordinates,
             fw_k = sum_j coeffs_j * a_jk.
    coroot : the coroot 2*beta/(beta,beta) in simple-coroot coordinates.
    norm2  : squared length (2 for long, 1 for short in types B/C).
    """

    coeffs: tuple
    height: int
    fw: tuple
    coroot: tuple
    norm2: int

    def __repr__(self):  # keep test output readable
        return f"Root{self.coeffs}"


def _cartan_matrix(ct: CartanType):
    """Bourbaki Cartan matrix a_ij = <alpha_i, alpha_j-vee>."""
    n = ct.rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def bond(i, j, left=-1, right=-1):
        # 1-based indices; a_ij = left, a_ji = right
        a[i - 1][j - 1] = left
        a[j - 1][i - 1] = right

    if ct.family in ("A", "B", "C"):
        for i in range(1, n):
            bond(i, i + 1)
        if ct.family == "B" and n >= 2:
            # alpha_n short: <alpha_{n-1}, alpha_n-vee> = -2
            a[n - 2][n - 1] = -2
        if ct.family == "C" and n >= 2:
            # alpha_n long: <alpha_n, alpha_{n-1}-vee> = -2
            a[n - 1][n - 2] = -2
    elif ct.family == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)  # the fork: node n hangs off n-2
    elif ct.family == "E":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if n == 7:
            edges.append((6, 7))
        for i, j in edges:
            bond(i, j)
    return tuple(tuple(row) for row in a)


def _simple_norms(ct: CartanType):
    """(alpha_i, alpha_i) in the long-roots-squared-2 normalisation: 2 for
    a long simple root, 1 for a short one."""
    n = ct.rank
    if ct.family == "B":
        return (2,) * (n - 1) + (1,)
    if ct.family == "C":
        return (1,) * (n - 1) + (2,)
    return (2,) * n


def _nonzero_rows(cartan):
    """Each row of a Cartan matrix as its nonzero (k, a_ik) pairs."""
    return tuple(tuple((k, a) for k, a in enumerate(row) if a)
                 for row in cartan)


class RootDatum(namedtuple("RootDatum", "cartan_type cartan positive_roots "
                           "highest_root two_rho_covec coxeter_number "
                           "exponents by_coeffs")):
    """Root data for one simple type, equal only to itself.

    Fields follow the obvious meanings; `positive_roots` is ordered by
    (height, lexicographic coeffs), and rho = (1, .., 1) is not stored.
    by_coeffs maps simple-root coordinates back to positive roots.  No
    __slots__: the cached properties live in the instance __dict__.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    def root_from_coeffs(self, coeffs):
        """Positive Root with the given simple-root coordinates, or None."""
        return self.by_coeffs.get(tuple(coeffs))

    @cached_property
    def cartan_rows(self):
        """Row i of the Cartan matrix as its nonzero (k, a_ik) pairs: the
        coordinates a simple reflection s_i changes on fw coordinates."""
        return _nonzero_rows(self.cartan)

    @cached_property
    def inverse_cartan(self):
        """(den, rows): the inverse of the Cartan matrix as integer rows
        over one common denominator, solved once per datum by
        fraction-free Gauss-Jordan elimination on [A | I]."""
        n = self.rank
        a = [list(row) + [int(i == j) for j in range(n)]
             for i, row in enumerate(self.cartan)]
        for col in range(n):
            piv = next(r for r in range(col, n) if a[r][col] != 0)
            a[col], a[piv] = a[piv], a[col]
            p = a[col]
            for r in range(n):
                f = a[r][col]
                if r != col and f != 0:
                    row = [p[col] * x - f * y for x, y in zip(a[r], p)]
                    g = gcd(*row)
                    a[r] = [x // g for x in row]
        # row r now reads a[r][r] * e_r | a[r][r] * (row r of A^-1)
        den = lcm(*(abs(a[r][r]) for r in range(n)))
        return den, tuple(
            tuple(x * (den // a[r][r]) for x in a[r][n:]) for r in range(n))


def build_root_datum(ct: CartanType) -> RootDatum:
    """Enumerate the root system by closure from the simple roots.

    The closure step uses simple reflections: for beta > 0 with fw_i =
    <beta, alpha_i-vee> < 0, s_i.beta = beta - fw_i alpha_i is a higher
    positive root, and every non-simple positive root is reached so; the
    step changes fw only at the nonzero entries of row i of the Cartan
    matrix.  The coroot 2 beta / (beta, beta) has coordinates c_i
    (alpha_i, alpha_i) / (beta, beta): c_i (alpha_i, alpha_i) for a short
    root, c_i for every root when all simple roots are long (A, D, E),
    and only a long root of B or C is tested for an odd c_i (alpha_i,
    alpha_i).
    """
    n = ct.rank
    cartan = _cartan_matrix(ct)
    rows = _nonzero_rows(cartan)
    norms = _simple_norms(ct)
    all_long = 1 not in norms

    # fw(s_i.beta) = fw(beta) - fw_i * (row i of cartan)
    allpos = {tuple(int(j == i) for j in range(n)): cartan[i] for i in range(n)}
    stack = list(allpos.items())
    while stack:
        beta, fw = stack.pop()
        for i, f in enumerate(fw):
            if f < 0:
                up = beta[:i] + (beta[i] - f,) + beta[i + 1:]
                if up not in allpos:
                    t = list(fw)
                    for k, a in rows[i]:
                        t[k] -= f * a
                    allpos[up] = t = tuple(t)
                    stack.append((up, t))

    ordered = sorted(allpos, key=lambda c: (sum(c), c))

    def make_root(coeffs, fw):
        # (beta, beta) = sum_i c_i (alpha_i, alpha_i) fw_i / 2
        weighted = tuple(map(mul, coeffs, norms))
        twice = sum(map(mul, weighted, fw))
        if twice not in (2, 4):
            raise AssertionError(
                f"unexpected root length {Fraction(twice, 2)} for {coeffs}")
        if twice == 2:
            coroot = weighted
        elif all_long:
            coroot = coeffs
        else:
            if any(x & 1 for x in weighted):
                raise AssertionError(f"non-integral coroot for {coeffs}")
            coroot = tuple(x >> 1 for x in weighted)
        return Root(
            coeffs=coeffs,
            height=sum(coeffs),
            fw=fw,
            coroot=coroot,
            norm2=twice // 2,
        )

    roots = tuple(make_root(c, allpos[c]) for c in ordered)
    by_coeffs = {r.coeffs: r for r in roots}

    theta = roots[-1]
    if any(x < 0 for x in theta.fw):
        raise AssertionError("highest root is not dominant")

    two_rho = tuple(map(sum, zip(*(r.coroot for r in roots))))
    cox = theta.height + 1
    if 2 * len(roots) != n * cox:
        raise AssertionError("|R| != rank * coxeter_number")

    # exponents: conjugate partition of the height distribution (Kostant)
    heights = {}
    for r in roots:
        heights[r.height] = heights.get(r.height, 0) + 1
    exps = []
    maxh = max(heights)
    for m in range(1, maxh + 1):
        mult = heights.get(m, 0) - heights.get(m + 1, 0)
        exps.extend([m] * mult)
    exps = tuple(sorted(exps))
    if len(exps) != n or sum(exps) * 2 != 2 * len(roots):
        raise AssertionError("exponent bookkeeping failed")

    return RootDatum(
        cartan_type=ct,
        cartan=cartan,
        positive_roots=roots,
        highest_root=theta,
        two_rho_covec=two_rho,
        coxeter_number=cox,
        exponents=exps,
        by_coeffs=by_coeffs,
    )


def simple_root(d: RootDatum, i: int) -> Root:
    """alpha_i (1-based Bourbaki index)."""
    coeffs = tuple(1 if j == i - 1 else 0 for j in range(d.rank))
    return d.root_from_coeffs(coeffs)


def descent(d: RootDatum, mu):
    """(word, dominant): the descent of the weight mu (fw coordinates) to
    the dominant chamber, repeatedly applying the smallest s_j with mu_j
    < 0 and recording j, and the dominant weight where it ends.  s_j with
    mu_j < 0 permutes the positive roots other than alpha_j, so each step
    lowers #{beta > 0 : <mu, beta-vee> < 0} by one: that count is the
    length of the word, which is the canonical reduced word of w when mu
    = w.rho.  A step changes only the nonzero entries of row j of the
    Cartan matrix, so the scan for the next letter resumes at the first
    of them."""
    rows = d.cartan_rows
    n = d.rank
    cur = list(mu)
    word = []
    j = 0
    while j < n:
        c = cur[j]
        if c < 0:
            for k, a in rows[j]:
                cur[k] -= c * a
            word.append(j + 1)
            j = rows[j][0][0]
        else:
            j += 1
    return tuple(word), tuple(cur)


def reflection_length(d: RootDatum, beta: Root) -> int:
    """ell(s_beta): the descent length of s_beta.rho = rho - <rho,
    beta-vee> beta, in fw coordinates 1 - <rho, beta-vee> beta.fw_k."""
    h = sum(beta.coroot)
    return len(descent(d, [1 - h * b for b in beta.fw])[0])


def minuscule_nodes(ct: CartanType):
    """Nodes whose fundamental representation has a single Weyl orbit of
    weights, per type: A_n all, B_n {n}, C_n {1}, D_n {1, n-1, n},
    E6 {1, 6}, E7 {7}."""
    n = ct.rank
    return {"A": tuple(range(1, n + 1)), "B": (n,), "C": (1,),
            "D": (1, n - 1, n), "E": (1, 6) if n == 6 else (7,)}[ct.family]


def minuscule_dimension(ct: CartanType, node: int) -> int:
    """dim of the minuscule representation attached to the node."""
    from math import comb

    n = ct.rank
    if ct.family == "A":
        return comb(n + 1, node)
    if ct.family == "B":
        return 2 ** n
    if ct.family == "C":
        return 2 * n
    if ct.family == "D":
        return 2 * n if node == 1 else 2 ** (n - 1)
    if ct.family == "E" and n == 6:
        return 27
    if ct.family == "E" and n == 7:
        return 56
    raise ValueError(f"no minuscule data for {ct} node {node}")


def gamma_root(d: RootDatum, node: int) -> Root:
    """The distinguished long quantum root attached to a minuscule node:
    alpha_node for simply-laced types, alpha_{n-1} + 2 alpha_n for B_n
    (node n), and the highest root for C_n (node 1).

    Self-checks the characterization: gamma is a quantum root and
    <alpha, gamma-vee> in {-1, 0} for every alpha in R+_P.
    """
    ct = d.cartan_type
    if node not in minuscule_nodes(ct):
        raise ValueError(f"node {node} is not minuscule for {ct}")
    n = ct.rank
    if ct.family == "B":
        coeffs = [0] * n
        coeffs[n - 2] = 1
        coeffs[n - 1] = 2
        gamma = d.root_from_coeffs(coeffs)
    elif ct.family == "C":
        gamma = d.highest_root
    else:
        gamma = simple_root(d, node)

    # characterization self-check
    target = 2 * sum(gamma.coroot) - 1
    if reflection_length(d, gamma) != target:
        raise AssertionError("gamma is not a quantum root")
    for alpha in d.positive_roots:
        if alpha.coeffs[node - 1] == 0:
            if sum(map(mul, alpha.fw, gamma.coroot)) not in (-1, 0):
                raise AssertionError("gamma fails the Levi pairing check")
    return gamma


class ParabolicData(NamedTuple):
    """Levi data for the maximal parabolic at node (I_P = I minus {node}).

    gamma and I_Q are populated only at a minuscule node, and are None
    elsewhere.  coset_size = |W^P|.
    """

    node: int
    I_P: tuple
    levi_positive_roots: tuple
    rho_P: tuple
    gamma: Root
    I_Q: tuple
    coset_size: int


def levi_data(d: RootDatum, node: int) -> ParabolicData:
    """ParabolicData for the maximal parabolic at `node`: R+_P holds the
    positive roots whose node coordinate is 0.

    At a minuscule node this also computes gamma and
    I_Q = {j in I_P : <alpha_j, gamma-vee> = 0} and asserts the
    Coxeter-number identity <2(rho - rho_P), alpha_node-vee> = c.

    coset_size = |W^P| is the height product over R+ \\ R+_P of
    (ht alpha + 1) / ht alpha (Macdonald, "The Poincare series of a
    Coxeter group", 1972), so no orbit is enumerated.
    """
    n = d.rank
    if not 1 <= node <= n:
        raise ValueError(f"node {node} out of range for {d.cartan_type}")
    I_P = tuple(j for j in range(1, n + 1) if j != node)
    levi = tuple(r for r in d.positive_roots if r.coeffs[node - 1] == 0)
    rho_P = tuple(Fraction(sum(r.fw[k] for r in levi), 2) for k in range(n))

    gamma = None
    I_Q = None
    if node in minuscule_nodes(d.cartan_type):
        gamma = gamma_root(d, node)
        I_Q = tuple(
            j for j in I_P
            if sum(map(mul, simple_root(d, j).fw, gamma.coroot)) == 0
        )
        # <2(rho-rho_P), alpha_node-vee>: alpha_node-vee is a unit vector in
        # simple-coroot coordinates, so this is just the node coordinate.
        if 2 * (1 - rho_P[node - 1]) != d.coxeter_number:
            raise AssertionError(
                f"Coxeter-number identity failed for {d.cartan_type} node {node}"
            )

    num = den = 1
    for r in d.positive_roots:
        if r.coeffs[node - 1]:
            num *= r.height + 1
            den *= r.height
    size, rem = divmod(num, den)
    if rem:
        raise AssertionError("height product for |W^P| is not an integer")

    return ParabolicData(
        node=node,
        I_P=I_P,
        levi_positive_roots=levi,
        rho_P=rho_P,
        gamma=gamma,
        I_Q=I_Q,
        coset_size=size,
    )


def datum_to_json(d: RootDatum, parabolic: ParabolicData = None) -> dict:
    """JSON-ready summary of the datum (and optionally one parabolic)."""
    out = {
        "schema": "mm/1",
        "type": str(d.cartan_type),
        "rank": d.rank,
        "cartan": [list(row) for row in d.cartan],
        "positive_roots": [list(r.coeffs) for r in d.positive_roots],
        "highest_root": list(d.highest_root.coeffs),
        "coxeter_number": d.coxeter_number,
        "exponents": list(d.exponents),
        "two_rho_covec": list(d.two_rho_covec),
    }
    if parabolic is not None:
        out["parabolic"] = {
            "node": parabolic.node,
            "I_P": list(parabolic.I_P),
            "levi_positive_roots": [list(r.coeffs) for r in parabolic.levi_positive_roots],
            "rho_P": [str(x) for x in parabolic.rho_P],
            "gamma": list(parabolic.gamma.coeffs) if parabolic.gamma else None,
            "I_Q": list(parabolic.I_Q) if parabolic.I_Q is not None else None,
            "coset_size": parabolic.coset_size,
        }
    return out
