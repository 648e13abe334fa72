"""Test-only references.

For the root datum: ``pairing`` is the generic weight-coroot pairing;
``signed_root_from_fw`` looks a signed root up by its
fundamental-weight coordinates; ``root_fw`` is the rank-squared product
of a root's simple-root coordinates with the Cartan matrix, the oracle
for the fundamental-weight coordinates that the closure carries up;
``fundamental_coweight`` is varpi_i-vee as Fractions;
``gauss_jordan_inverse_cartan`` is the dense elimination that the
inverse Cartan matrix is checked against;
``root_string_closure`` enumerates the positive roots by root strings,
the oracle for the closure by simple reflections.

For the Weyl layer: the element-level route that the coset table is
checked against.  ``WeylElt`` holds an element's rank x rank action on
fw coordinates and its inverse; ``from_word`` builds one from a word,
``rep_elements`` rebuilds every row of a coset table, each from the
shorter row its word drops the first letter to, and
``index_of`` finds the row whose rep is a given element;
``multiply``, ``inverse``, ``reflection``, ``pi_P``, ``longest_element``
(of any standard parabolic, whose positive roots ``levi_roots`` lists;
``pd_oracle`` reads Poincare duality off w0) and ``special_elements``
work on rank x rank action matrices;
``root_image`` is w.beta as the product of w's action with beta's fw
coordinates, and ``act_coweight`` is the Fraction action on coweights
that the integer equivariant diagonals are checked against.
``parabolic_cases`` lists the (type, node) pairs these oracles run over.
``unpruned_fw_matrix`` and ``unpruned_covers_up`` run the
Fulton-Woodward rule and the Bruhat covers on these elements, every
(column, root) pair as the product w s_beta with its length, the
oracles for the height-pruned rule and covers that read coset lengths
alone.

For the command line: ``battery`` is the check list of a ``verify`` case
as the branches on (type, node) once decided it, the oracle for the rule
that reads it off the case parameters.

For the minuscule representation: ``generator_matrices`` and
``xtheta_matrix`` build the Chevalley generators, the principal triple
and x_theta as dense matrices on a coset table, from its weights alone;
``pinned_minuscule_cases`` lists the minuscule (type, node) pairs of the
pinned ``verify`` list; ``space_dim`` is the dimension of G/P;
``zeta_rescaling_consistent`` checks the homogeneity of a connection
form.

For Laurent polynomials: ``LaurentPoly`` is the ring over the library's
output view of a terms dict, with exact Fraction coefficients normalised
on construction, the oracle that the terms-dict arithmetic is checked
against; ``subs`` evaluates one at rationals and ``weighted_degree``
reads its common weighted degree.

For the crystal-potential builder: ``reference_unipotent_vector`` is the
generic ``LaurentPoly`` walk that the integer builder is checked against;
``homogeneous_degree_one`` checks homogeneity by rescaling the whole f_q;
``potential_projective`` is the closed-form potential of P^n.

For the period layer: ``basis_trace`` reads the flat-section vectors of
a period as rationals; ``reference_cyclic_scalar_operator`` is the dense
fraction-free elimination that the sparse one is checked against, on
the dense polynomial helpers (``_pmul``, ``_pdivmod``, ...);
``reference_ratfunc`` reduces a quotient by Euclid's algorithm over
Q[q], and ``rf_add``, ``rf_mul``, ``rf_div``, ``rf_theta`` and the rest
are the rational-function arithmetic of the combination reference;
``hbar_rescale_consistent`` re-runs the period sweep over Laurent
polynomials in hbar; ``equivariant_bessel`` and
``bessel_operator_from_matrix`` give the rank-one equivariant series and
its operator; ``jacobian_pn_check`` is the Jacobian-ring check for P^n.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from operator import mul

from mmirror import qchev
from mmirror.cli import _load_case_list
from mmirror.crystal_potential import Potential
from mmirror.minrep import root_step
from mmirror.period_gw import (
    PeriodSeries,
    RatFunc,
    ScalarOperator,
    _check_nilpotent,
    cyclic_scalar_operator,
    quantum_period,
)
from mmirror.qchev import (
    ConnMatrix,
    fw_matrix,
    matrix_relation,
    mihalcea_equivariant,
)
from mmirror.rootsys import (
    CartanType,
    ParabolicData,
    build_root_datum,
    cartan_data,
    descent,
    minuscule_nodes,
    simple_root,
)
from mmirror.weyl import minuscule_coset_reps


def pairing(w, c):
    """Pairing <w, c> of a weight against a coroot: a dot product, valid
    because the bases are dual."""
    if len(w) != len(c):
        raise ValueError(f"rank mismatch: {len(w)} vs {len(c)}")
    total = sum(a * b for a, b in zip(w, c))
    if isinstance(total, Fraction) and total.denominator == 1:
        return int(total)
    return total


# id(datum) -> (datum, {fw coordinates: (sign, Root)}); keyed by identity
# so that a lookup hashes an int, not the datum, and each entry holds
# its datum, so the id cannot pass to another object
_FW_INDEX = {}


def _fw_index(d) -> dict:
    hit = _FW_INDEX.get(id(d))
    if hit is None:
        out = {}
        for r in d.positive_roots:
            out[r.fw] = (1, r)
            out[tuple(-x for x in r.fw)] = (-1, r)
        hit = _FW_INDEX[id(d)] = (d, out)
    return hit[1]


def signed_root_from_fw(d, fw):
    """(sign, Root) for the root with the given fundamental-weight
    coordinates; raises KeyError if the vector is not a root."""
    return _fw_index(d)[tuple(fw)]


def root_string_closure(ct) -> dict:
    """{simple-root coordinates: fw coordinates} of every positive root,
    closed up by root strings: beta + alpha_i is a root iff p -
    <beta, alpha_i-vee> >= 1, p the largest k with beta - k alpha_i a
    root."""
    n = ct.rank
    cartan = cartan_data(ct)[0]
    level = {tuple(int(j == i) for j in range(n)): cartan[i]
             for i in range(n)}
    allpos = dict(level)
    while level:
        nxt = {}
        for beta, fw in level.items():
            for i in range(n):
                p = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if tuple(cur) not in allpos:
                        break
                    p += 1
                if p - fw[i] >= 1:
                    up = list(beta)
                    up[i] += 1
                    nxt[tuple(up)] = tuple(x + y
                                           for x, y in zip(fw, cartan[i]))
        level = nxt
        allpos |= nxt
    return allpos


def gauss_jordan_inverse_cartan(cartan) -> tuple:
    """(den, rows): the inverse of a Cartan matrix as integer rows over
    one common denominator, by fraction-free Gauss-Jordan elimination on
    [A | I], each row reduced by its gcd; the dense oracle for the
    one-pass elimination over the Dynkin tree."""
    n = len(cartan)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(cartan)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col]
        for r in range(n):
            f = a[r][col]
            if r != col and f != 0:
                row = [p[col] * x - f * y for x, y in zip(a[r], p)]
                g = math.gcd(*row)
                a[r] = [x // g for x in row]
    # row r now reads a[r][r] * e_r | a[r][r] * (row r of A^-1)
    den = math.lcm(*(abs(a[r][r]) for r in range(n)))
    return den, tuple(
        tuple(x * (den // a[r][r]) for x in a[r][n:]) for r in range(n))


def root_fw(coeffs, cartan) -> tuple:
    """<beta, alpha_k-vee> for every k: sum_j c_j a_jk."""
    n = len(coeffs)
    return tuple(sum(coeffs[j] * cartan[j][k] for j in range(n))
                 for k in range(n))


# ------------------------------------------------------ Weyl layer

@dataclass(frozen=True, eq=False)
class WeylElt:
    """A Weyl group element by its action on fw coordinates: the action
    matrix of s_i is the identity with column i replaced by e_i minus
    row i of the Cartan matrix.  Equality and hashing use the action
    matrix only."""

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


def _spell(d, letters, start=None) -> tuple:
    """The action matrix of s_{l_k} .. s_{l_2} s_{l_1} for the letters
    l_1, .., l_k, times the matrix ``start`` (the identity by default):
    each letter i multiplies by s_i on the left, and since
    (s_i lam)_j = lam_j - lam_i * a_ij, that takes a_ij times row i from
    row j, for the nonzero a_ij of row i only."""
    m = list(start or ([int(i == j) for j in range(d.rank)]
                       for i in range(d.rank)))
    for i in letters:
        pivot = m[i - 1]
        for j, a in d.cartan_rows[i - 1]:
            m[j] = [x - a * y for x, y in zip(m[j], pivot)]
    return tuple(map(tuple, m))


def _matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _matvec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def fundamental_coweight(d, i: int) -> tuple:
    """varpi_i-vee in simple-coroot coordinates: column i of the inverse
    Cartan matrix (rational in general)."""
    den, inv = d.inverse_cartan
    return tuple(Fraction(row[i - 1], den) for row in inv)


def _make_elt(d, action, inv_action) -> WeylElt:
    """The canonical (greedy left-descent) word of w is the descent word
    of w.rho, which in fw coordinates is the row sums of the action."""
    word = descent(d.cartan_rows, [sum(row) for row in action])[0]
    return WeylElt(action=action, inv_action=inv_action, length=len(word),
                   word=word)


def from_word(d, word) -> WeylElt:
    return _make_elt(d, _spell(d, reversed(word)), _spell(d, word))


def act_coweight(w: WeylElt, covec) -> tuple:
    """Coweights transform by the transpose of the inverse action; the
    sums run in integers over the common denominator of covec, and each
    coordinate comes back as a Fraction."""
    den = math.lcm(*(x.denominator for x in covec))
    nums = [x.numerator * (den // x.denominator) for x in covec]
    return tuple(Fraction(sum(map(mul, col, nums)), den)
                 for col in zip(*w.inv_action))


def rep_elements(d, reps) -> list:
    """Each row of the coset table as an element.  A rep w's word
    without its first letter j is the word of the shorter rep u = s_j w,
    so w is built from u: its action is s_j times u's, one letter on the
    left, and its inverse u^-1 s_j differs from u's only in column j,
    which loses sum_k a_jk times column k.  A word whose tail is not in
    the table is spelled out with ``from_word``."""
    elts = {}
    for word in sorted(reps.words, key=len):
        u = elts.get(word[1:])
        if u is None:
            elts[word] = from_word(d, word)
            continue
        j = word[0] - 1
        inv = tuple(row[:j] + (row[j] - sum(a * row[k] for k, a
                                            in d.cartan_rows[j]),) + row[j + 1:]
                    for row in u.inv_action)
        elts[word] = _make_elt(d, _spell(d, word[:1], u.action), inv)
    return [elts[word] for word in reps.words]


def index_of(d, reps, w: WeylElt) -> int:
    """The row whose rep is w itself: looked up by the weight
    w . varpi_node, then the rep rebuilt from that row's word must equal
    w, not only lie in its coset (KeyError otherwise)."""
    node = reps.parabolic.node
    i = reps.by_weight[tuple(
        act_weight(w, [int(j == node - 1) for j in range(d.rank)]))]
    if from_word(d, reps.words[i]) != w:
        raise KeyError(f"{w!r} is not the minimal rep of its coset")
    return i


def simple_reflection(d, i: int) -> WeylElt:
    return from_word(d, (i,))


@lru_cache(maxsize=None)
def reflection(d, beta) -> WeylElt:
    """s_beta, built directly as 1 - beta tensor beta-vee on fw coords."""
    n = d.rank
    cv = beta.coroot
    m = tuple(
        tuple(int(j == k) - beta.fw[j] * cv[k] for k in range(n))
        for j in range(n)
    )
    return _make_elt(d, m, m)


def multiply(d, u: WeylElt, v: WeylElt) -> WeylElt:
    return _make_elt(d, _matmul(u.action, v.action),
                     _matmul(v.inv_action, u.inv_action))


def inverse(d, w: WeylElt) -> WeylElt:
    return _make_elt(d, w.inv_action, w.action)


def act_weight(w: WeylElt, lam) -> tuple:
    return _matvec(w.action, lam)


def act_root(d, w: WeylElt, root):
    """(sign, Root): the image w(root) as a signed positive root."""
    return signed_root_from_fw(d, _matvec(w.action, root.fw))


def root_image(w: WeylElt, beta) -> tuple:
    """w.beta in fw coordinates, by the action matrix."""
    return _matvec(w.action, beta.fw)


def levi_roots(d, J) -> tuple:
    """R+_J: the positive roots whose simple-root support lies in J
    (1-based nodes), in positive-root order."""
    return tuple(r for r in d.positive_roots
                 if all(c == 0 for j, c in enumerate(r.coeffs, 1)
                        if j not in J))


def longest_element(d, J=None) -> WeylElt:
    """Longest element of the standard parabolic W_J (J = all nodes when
    omitted): the descent word of w0_J.rho = rho - 2 rho_J, which is -rho
    for w0."""
    if J is None:
        return from_word(d, descent(d.cartan_rows, [-1] * d.rank)[0])
    levi = levi_roots(d, J)
    mu = [1 - sum(r.fw[k] for r in levi) for k in range(d.rank)]
    return from_word(d, descent(d.cartan_rows, mu)[0])


def pd_oracle(d, reps) -> tuple:
    """Poincare duality on W^P as indices, by w0 built from its word: the
    dual of the coset of weight mu has weight w0 . mu."""
    w0 = longest_element(d).action
    return tuple(reps.by_weight[tuple(_matvec(w0, mu))]
                 for mu in reps.weights)


@lru_cache(maxsize=1)
def _coset_moves(d, reps) -> tuple:
    """(c, w, beta, w s_beta, r) for every (column, root) pair, with w the
    rep at c as an element and r the row of the coset of w s_beta, read
    by its weight w s_beta . varpi_node.  Kept for the last table only,
    so the matrix and the covers of one table build its elements once."""
    node = [int(j == reps.parabolic.node - 1) for j in range(d.rank)]
    out = []
    for c, w in enumerate(rep_elements(d, reps)):
        for beta in reps.roots:
            elt = multiply(d, w, reflection(d, beta))
            out.append((c, w, beta, elt,
                        reps.by_weight[tuple(act_weight(elt, node))]))
    return tuple(out)


def unpruned_fw_matrix(d, reps, node) -> ConnMatrix:
    """The Fulton-Woodward rule on Weyl elements, every (column, root)
    pair looked up: k at the coset of w s_beta when ell(w s_beta) =
    ell(w) + 1 is that coset's length, and k q^k there when ell(w s_beta)
    = ell(w) - ell(s_beta) and the coset has length ell(w) + 1 -
    <2(rho - rho_P), beta-vee>, each length read off the element."""
    two_rho_diff = [2 - x for x in reps.parabolic.two_rho_P]
    lengths = reps.lengths
    cells = {}
    for c, w, beta, elt, r in _coset_moves(d, reps):
        k = beta.coroot[node - 1]
        drop = sum(map(mul, two_rho_diff, beta.coroot))
        if elt.length == w.length + 1 == lengths[r]:
            key = (0,)
        elif (elt.length == w.length - reflection(d, beta).length
              and lengths[r] == w.length + 1 - drop):
            key = (k,)
        else:
            continue
        entry = cells.setdefault((r, c), {})
        entry[key] = entry.get(key, 0) + k
    return ConnMatrix(reps, ("q",), len(reps), cells)


def unpruned_covers_up(d, reps) -> list:
    """bruhat_covers_up of every column, on Weyl elements with every root
    looked up: w s_beta of length ell(w) + 1 that is its coset's rep."""
    out = [[] for _ in reps.lengths]
    for c, w, beta, elt, r in _coset_moves(d, reps):
        if elt.length == w.length + 1 == reps.lengths[r]:
            out[c].append((beta, r))
    return out


def parabolic_cases() -> list:
    """(type, node) for every minuscule node of A1-A10, B2-B8, C2-C8,
    D4-D9, E6 and E7, and the odd quadrics B2-B8 node 1."""
    out = []
    for family, low, high in (("A", 1, 10), ("B", 2, 8), ("C", 2, 8),
                              ("D", 4, 9)):
        for n in range(low, high + 1):
            ct = CartanType(family, n)
            out.extend((str(ct), node) for node in minuscule_nodes(ct))
            if family == "B":
                out.append((str(ct), 1))
    return out + [("E6", 1), ("E6", 6), ("E7", 7)]


def battery(cartan: str, node: int, entry) -> list:
    """The checks ``verify`` runs on (cartan, node), in order, by the
    branches on (type, node) that decided them before the case list did;
    ``entry`` is the pinned case-list entry, or {} for an ad-hoc case."""
    family, rank = cartan[0], int(cartan[1:])
    if family == "B" and node == 1:                       # odd quadric
        names = ["fw_products", "homogeneous", "period_positive"]
        return names + (["x6_relation"] if rank == 3 else [])
    names = ["mirror", "equivariant", "homogeneous", "poincare", "period"]
    if (family == "A" and node in (1, rank)) or (family == "C" and node == 1):
        names.append("projective_period")
    # Gr(k, n) potentials with at most 12 variables k(n - k)
    if "ct_degree" in entry or (family == "A"
                                and node * (rank + 1 - node) <= 12):
        names.append("constant_term")
    if (cartan, node) in (("E6", 6), ("E7", 7), ("D4", 1)):
        names.append("wgamma")
    if (cartan, node) == ("A3", 2):
        names.append("gr24_products")
    if (cartan, node) == ("D4", 1):
        names += ["d4_kernel", "d4_scalar"]
    return names


def pi_P(d, I_P, w: WeylElt) -> WeylElt:
    """Minimal-length representative of the coset w W_P: the element
    spelled by the descent word of w . lam, where lam = sum of varpi_j over
    j outside I_P has stabiliser W_P."""
    lam = [0 if j + 1 in I_P else 1 for j in range(d.rank)]
    return from_word(d, descent(d.cartan_rows, act_weight(w, lam))[0])


@dataclass(frozen=True)
class SpecialElements:
    w0: WeylElt           # longest element of W
    w0P: WeylElt          # longest element of W_P
    wP: WeylElt           # w0P * w0
    wPQ: WeylElt          # w0P * w0Q  (longest minimal rep of W_P / W_Q)
    sgamma: WeylElt       # reflection at gamma


def special_elements(d, p: ParabolicData) -> SpecialElements:
    """Builds the distinguished elements and self-checks their defining
    identities: w_P(rho) = -rho + 2 rho_P always; Inv(w_{P/Q}) =
    R+_P \\ R+_Q when gamma exists; at a cominuscule node additionally
    w_P^{-1}(alpha_node) = -theta."""
    w0 = longest_element(d)
    w0P = longest_element(d, p.I_P)
    wP = multiply(d, w0P, w0)

    got = act_weight(wP, (1,) * d.rank)
    if tuple(got) != tuple(x - 1 for x in p.two_rho_P):
        raise AssertionError("w_P(rho) != -rho + 2 rho_P")
    if d.highest_root.coeffs[p.node - 1] == 1:
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
        } - {r.coeffs for r in levi_roots(d, p.I_Q)}
        inv = {
            a.coeffs for a in d.positive_roots
            if act_root(d, wPQ, a)[0] < 0
        }
        if inv != levi_minus_q:
            raise AssertionError("Inv(w_{P/Q}) != R+_P \\ R+_Q")
    return SpecialElements(w0=w0, w0P=w0P, wP=wP, wPQ=wPQ, sgamma=sgamma)


# ------------------------------------------- minuscule representation

@dataclass(frozen=True)
class RepOperator:
    label: str
    matrix: tuple  # dim x dim integer matrix, row = target index

    def nonzeros(self):
        return [
            (r, c, v)
            for r, row in enumerate(self.matrix)
            for c, v in enumerate(row)
            if v
        ]


def _root_operator(reps, label: str, root, sign: int) -> RepOperator:
    """The matrix of the root vector for beta = sign * root (root_step)."""
    n = len(reps)
    m = [[0] * n for _ in range(n)]
    for c, mu in enumerate(reps.weights):
        target = root_step(mu, root, sign)
        if target is not None:
            m[reps.by_weight[tuple(target)]][c] = 1
    return RepOperator(label=label, matrix=tuple(tuple(row) for row in m))


def generator_matrices(d, reps) -> dict:
    """All Chevalley generator matrices plus the principal triple on the
    coset basis reps: keys 'x1'..'xr', 'y1'..'yr', 'e', 'f', 'h'."""
    out = {}
    for j in range(1, d.rank + 1):
        alpha = simple_root(d, j)
        out[f"x{j}"] = _root_operator(reps, f"x{j}", alpha, 1)
        out[f"y{j}"] = _root_operator(reps, f"y{j}", alpha, -1)

    n = len(reps)
    c = d.two_rho_covec
    e = [[0] * n for _ in range(n)]
    f = [[0] * n for _ in range(n)]
    for j in range(1, d.rank + 1):
        for r, row in enumerate(out[f"x{j}"].matrix):
            for col, v in enumerate(row):
                e[r][col] += c[j - 1] * v
        for r, row in enumerate(out[f"y{j}"].matrix):
            for col, v in enumerate(row):
                f[r][col] += v
    h = [[0] * n for _ in range(n)]
    for i, mu in enumerate(reps.weights):
        h[i][i] = pairing(tuple(mu), d.two_rho_covec)
    out["e"] = RepOperator("e", tuple(tuple(r) for r in e))
    out["f"] = RepOperator("f", tuple(tuple(r) for r in f))
    out["h"] = RepOperator("h", tuple(tuple(r) for r in h))
    return out


def pinned_minuscule_cases() -> list:
    """(type, node) for every minuscule case of the pinned verify list."""
    return [(e["cartan"], e["node"]) for e in _load_case_list()
            if e["node"] in minuscule_nodes(CartanType.parse(e["cartan"]))]


def space_dim(reps) -> int:
    """Complex dimension of G/P, the top coset length."""
    return reps.lengths[-1]


def xtheta_matrix(d, reps) -> RepOperator:
    """Highest-root raising operator: v_mu maps to v_{mu + theta} precisely
    when <mu, theta-vee> = -1, with coefficient +1."""
    return _root_operator(reps, "xtheta", d.highest_root, 1)


def zeta_rescaling_consistent(d, reps, M: ConnMatrix) -> bool:
    """Homogeneity of the connection form: conjugating by diag(z^{l(w)})
    and substituting q -> z^c q multiplies every entry by z."""
    c = d.coxeter_number
    lengths = reps.lengths
    variables = ("q", "z")
    z = LaurentPoly.var(variables, "z")
    for (r, col), entry in M.cells.items():
        lifted = LaurentPoly(
            variables,
            {
                (k[0], lengths[r] - lengths[col] + c * k[0]): v
                for k, v in entry.items()
            },
        )
        want = z * LaurentPoly(
            variables, {(k[0], 0): v for k, v in entry.items()}
        )
        if lifted != want:
            return False
    return True


# ------------------------------------------------------ Laurent polynomials

class LaurentPoly(qchev.LaurentPoly):
    """Multivariate Laurent polynomial with exact rational coefficients:
    terms maps integer exponent tuples to nonzero Fractions.  Any
    qchev.LaurentPoly view is an operand."""

    __slots__ = ()

    def __init__(self, variables, terms=None):
        super().__init__(variables)
        clean = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(int(e) for e in exps)
            if len(key) != len(self.variables):
                raise ValueError("exponent arity mismatch")
            clean[key] = clean.get(key, Fraction(0)) + Fraction(coeff)
        self.terms = {k: v for k, v in clean.items() if v != 0}

    @classmethod
    def const(cls, variables, value):
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def var(cls, variables, name, power=1, coeff=1):
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = power
        return cls(variables, {tuple(exps): coeff})

    def _operand(self, other):
        """other as a LaurentPoly over self.variables: a constant, or a
        terms dict viewed over the same variables."""
        if not isinstance(other, qchev.LaurentPoly):
            return LaurentPoly.const(self.variables, other)
        if self.variables != other.variables:
            raise ValueError("variable mismatch")
        return LaurentPoly(other.variables, other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in self._operand(other).terms.items():
            out[k] = out.get(k, 0) + v
        return LaurentPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.variables,
                           {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __mul__(self, other):
        other = self._operand(other)
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0) + v1 * v2
        return LaurentPoly(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        """Square and multiply: one square per bit after the leading
        one and one product per set bit."""
        if n < 0:
            raise ValueError("negative power: invert explicitly")
        result = LaurentPoly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


def subs(p: LaurentPoly, assignments) -> Fraction:
    """Full evaluation of p; every variable must receive a value."""
    total = Fraction(0)
    vals = [Fraction(assignments[v]) for v in p.variables]
    for exps, coeff in p.terms.items():
        term = coeff
        for val, e in zip(vals, exps):
            term *= val ** e
        total += term
    return total


def weighted_degree(p: LaurentPoly, weights):
    """The common weighted degree of all terms of p, or None if p is
    inhomogeneous or zero; weights maps variable name -> integer weight."""
    wvec = [weights[v] for v in p.variables]
    degs = {sum(w * e for w, e in zip(wvec, exps)) for exps in p.terms}
    return degs.pop() if len(degs) == 1 else None


# ------------------------------------------------------ crystal potential

def mask_poly(variables, coord) -> LaurentPoly:
    """A coordinate of the integer walk (bitmask -> int, bit m for
    variable m) as a LaurentPoly over ``variables``."""
    return LaurentPoly(variables, {
        tuple(mask >> m & 1 for m in range(len(variables))): c
        for mask, c in coord.items()
    })


def reference_unipotent_vector(d, word, variables, low) -> dict:
    """u v_low as a map weight -> LaurentPoly, by generic LaurentPoly
    arithmetic: each letter x_j(a) = I + a E_j, rightmost first."""
    zero = LaurentPoly(variables)
    vec = {tuple(low): LaurentPoly.const(variables, 1)}
    for name, j in reversed(tuple(zip(variables, word))):
        a = LaurentPoly.var(variables, name)
        alpha = simple_root(d, j)
        for mu, coord in list(vec.items()):
            target = root_step(mu, alpha)
            if target is not None:
                vec[target] = vec.get(target, zero) + a * coord
    return vec


def potential_full(pot: Potential) -> LaurentPoly:
    """f_q as a Laurent polynomial over ("q",) + variables."""
    ext = ("q",) + pot.variables
    terms = {}
    for exps, coeff in pot.linear.items():
        terms[(0,) + exps] = coeff
    for exps, coeff in pot.quantum.items():
        key = (1,) + exps
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return LaurentPoly(ext, terms)


def homogeneous_degree_one(pot: Potential) -> bool:
    """Check that a_m -> z*a_m, q -> z^c * q rescales f_q by exactly z."""
    f = potential_full(pot)
    c = pot.coxeter
    ext = ("z",) + f.variables
    lifted = {}
    want = {}
    for exps, coeff in f.terms.items():
        zdeg = c * exps[0] + sum(exps[1:])
        lifted[(zdeg,) + exps] = coeff
        want[(1,) + exps] = coeff
    return LaurentPoly(ext, lifted) == LaurentPoly(ext, want)


def potential_projective(n: int) -> Potential:
    """x_1 + ... + x_n + q / (x_1 ... x_n), the potential for P^n."""
    if n < 1:
        raise ValueError("n must be positive")
    variables = tuple(f"x{m + 1}" for m in range(n))
    linear = {tuple(int(j == m) for j in range(n)): 1 for m in range(n)}
    return Potential(variables, linear, {(-1,) * n: 1}, n + 1)


# ------------------------------------------------------ period layer

def quantum_period_case(ct: str, node: int, D: int) -> PeriodSeries:
    """Convenience wrapper: the period of the named minuscule space."""
    d = build_root_datum(CartanType.parse(ct))
    reps = minuscule_coset_reps(d, node)
    return quantum_period(fw_matrix(d, reps, node), D)


def basis_trace(series: PeriodSeries):
    """The flat-section vectors S_0..S_D of a period as rationals, read
    off the integers (X, Q) of S_d = X / Q that ``quantum_period``
    keeps; None for a series without a trace."""
    if series.trace is None:
        return None
    return tuple(tuple(Fraction(x, Q) for x in X) for X, Q in series.trace)


def _exact_div(x: int, y: int) -> int:
    """x / y for ints that must divide exactly; divmod keeps it an int."""
    f, r = divmod(x, y)
    if r:
        raise ArithmeticError("inexact integer division")
    return f


def _sparse_matvec(rows, v):
    """The product of a matrix given as rows of (column, entry) pairs
    with the vector v."""
    return tuple(sum(a * v[c] for c, a in row) for row in rows)


def _peel_solve(d1, order, d: int, b):
    """Solve (d*Id - D1) x = b by one sweep in reverse peel order:
    x_r = (b_r + sum_c D1[r, c] x_c) / d, where every x_c on the right
    is already known."""
    x = list(b)
    inv_d = Fraction(1, d)
    for r in reversed(order):
        if d1[r]:
            x[r] = x[r] + sum(x[c] * a for c, a in d1[r])
        x[r] = x[r] * inv_d
    return tuple(x)


def hbar_rescale(series: PeriodSeries, c: int):
    """Period in the variable q/hbar^c: pairs (c_d, hbar exponent -c*d)."""
    return tuple((coeff, -c * d)
                 for d, coeff in enumerate(series.coefficients))


def hbar_rescale_consistent(M: ConnMatrix, c: int, D: int) -> bool:
    """Re-run the recursion with M replaced by M/hbar symbolically and
    compare against the closed-form rescaling of the plain period.  The
    re-run is the generic sweep over Laurent polynomials, not the integer
    one of quantum_period, so the two routes share only the peel order."""
    want = hbar_rescale(quantum_period(M, D), c)
    # M = D1 + q D2 over Q, split here; quantum_period has already
    # refused any other power of q
    d1, d2 = [[] for _ in range(M.size)], [[] for _ in range(M.size)]
    for (r, j), entry in sorted(M.cells.items()):
        for (e,), a in entry.items():
            (d1, d2)[e][r].append((j, a))
    order = _check_nilpotent(d1)
    V = ("hbar",)
    inv_h = LaurentPoly(V, {(-1,): Fraction(1)})
    # the same sweep with D1, D2 scaled by 1/hbar
    d1, d2 = ([[(j, a * inv_h) for j, a in row] for row in part]
              for part in (d1, d2))
    top = M.size - 1
    s = tuple(LaurentPoly.const(V, int(i == top)) for i in range(M.size))
    for d in range(1, D + 1):
        s = _peel_solve(d1, order, d, _sparse_matvec(d2, s))
        coeff, hexp = want[d]
        if s[top] != LaurentPoly(V, {(hexp,): coeff}):
            return False
    return True


def equivariant_bessel(h, D: int) -> PeriodSeries:
    """Coefficients prod_{j<=k} 1/(j(j+2h)) of the rank-one equivariant
    period, cross-checked against the 2x2 connection [[-h, q], [1, h]]
    order by order (with the q^h prefactor folded into the eigenvalue
    shift)."""
    h = Fraction(h)
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    two_h = 2 * h
    if two_h.denominator == 1 and two_h <= -1:
        raise ValueError("2h must not be a negative integer")
    coeffs = [Fraction(1)]
    for k in range(1, D + 1):
        coeffs.append(coeffs[-1] / (k * (k + two_h)))

    v = (Fraction(0), Fraction(1))
    for k in range(1, D + 1):
        rhs0 = v[1]  # D2 v = (v[1], 0)
        # ((h+k)I - D1) = [[2h+k, 0], [-1, k]] with D1 = [[-h,0],[1,h]]
        x0 = rhs0 / (two_h + k)
        x1 = x0 / k
        v = (x0, x1)
        if v[1] != coeffs[k]:
            raise AssertionError("matrix recursion disagrees with the "
                                 "product formula")
    return PeriodSeries(tuple(coeffs))


def _substitute_h(entry: dict, value: Fraction) -> dict:
    """Specialize the h1 variable of a (q, h1) terms dict to a rational."""
    out = {}
    for (eq, eh), coeff in entry.items():
        term = coeff * (Fraction(value) ** eh)
        out[(eq,)] = out.get((eq,), Fraction(0)) + term
    return {k: v for k, v in out.items() if v != 0}


def bessel_operator_from_matrix(h) -> ScalarOperator:
    """Scalar operator of the rank-one equivariant connection at a
    rational value of the equivariant parameter: theta^2 - (q + h^2)."""
    h = Fraction(h)
    d = build_root_datum(CartanType("A", 1))
    M = mihalcea_equivariant(d, fw_matrix(d, minuscule_coset_reps(d, 1), 1))
    cells = {rc: _substitute_h(e, 2 * h) for rc, e in M.cells.items()}
    m2 = ConnMatrix(None, ("q",), 2, {rc: e for rc, e in cells.items() if e})
    return cyclic_scalar_operator(m2, 1)


def jacobian_pn_check(n: int) -> bool:
    """Verify the projective-space Jacobian-ring statements.

    Three exact computations: (i) the critical-locus substitution turns
    each relation x_i + h_i - h_{n+1} - q/(x_1..x_n) into zero once
    x_j = x - h_j and q = prod_j (x - h_j); (ii) the equivariant
    connection satisfies prod_w (M - diag_w Id) = q Id; (iii) at h = 0
    the matrix relation X^{n+1} = q holds.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # (i) symbolic critical locus, variables x, h_1..h_{n+1}
    V = ("x",) + tuple(f"h{i}" for i in range(1, n + 2))
    nv = len(V)

    def factor(i):
        ex = [0] * nv
        ex[0] = 1
        eh = [0] * nv
        eh[i] = 1
        return LaurentPoly(V, {tuple(ex): Fraction(1),
                               tuple(eh): Fraction(-1)})

    q_poly = LaurentPoly.const(V, 1)
    for i in range(1, n + 2):
        q_poly = q_poly * factor(i)
    prod_first_n = LaurentPoly.const(V, 1)
    for i in range(1, n + 1):
        prod_first_n = prod_first_n * factor(i)
    # cleared relation, same for every i because x_i + h_i = x:
    # (x - h_{n+1}) * (x_1..x_n) - q
    lhs = factor(n + 1) * prod_first_n - q_poly
    if not lhs.is_zero():
        return False

    # (ii) equivariant matrix: product of (M - diag Id) equals q Id
    d = build_root_datum(CartanType("A", n))
    Mq = fw_matrix(d, minuscule_coset_reps(d, 1), 1)
    M = mihalcea_equivariant(d, Mq)
    Vm = M.variables
    size = M.size
    diag_sum = LaurentPoly(Vm)
    prod = None
    for i in range(size):
        diag = LaurentPoly(Vm, M.entry(i, i))
        diag_sum = diag_sum + diag
        cells = dict(M.cells)
        for r in range(size):
            cells[r, r] = (LaurentPoly(Vm, M.entry(r, r)) - diag).terms
        shifted = ConnMatrix(None, Vm, size,
                             {rc: e for rc, e in cells.items() if e})
        prod = shifted if prod is None else prod.mat_mul(shifted)
    if not diag_sum.is_zero():
        return False
    qv = LaurentPoly.var(Vm, "q")
    if prod.cells != {(r, r): qv.terms for r in range(size)}:
        return False

    # (iii) non-equivariant matrix relation X^{n+1} = q
    return matrix_relation(Mq, {(n + 1, 0): 1, (0, 1): -1})


# Dense polynomials in q: coefficient tuples, low degree first, trimmed
# of trailing zeros.

def _ptrim(t):
    t = list(t)
    while t and t[-1] == 0:
        t.pop()
    return tuple(t)


def _padd(a, b):
    return _ptrim(tuple(x + y for x, y in zip_longest(a, b, fillvalue=0)))


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _pderiv(a):
    return _ptrim(tuple(a[i] * i for i in range(1, len(a))))


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(len(a) - len(b) + 1, 0)
    rem = list(_ptrim(a))
    lead = b[-1]
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        f = quot[k] = rem[-1] / lead
        for i, y in enumerate(b):
            rem[k + i] -= f * y
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return _ptrim(quot), _ptrim(rem)


def reference_ratfunc(num, den=(1,)) -> RatFunc:
    """num / den in the canonical form of ``RatFunc.make``, reduced by
    Euclid's algorithm over Q[q] on dense tuples instead of a heuristic
    gcd over Z[q]."""
    num = _ptrim(tuple(map(Fraction, num)))
    den = _ptrim(tuple(map(Fraction, den)))
    if not den:
        raise ZeroDivisionError("zero denominator")
    g, r = num, den
    while r:
        g, r = r, _pdivmod(g, r)[1]
    num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    return RatFunc(tuple(x / den[-1] for x in num),
                   tuple(x / den[-1] for x in den))


# Rational-function arithmetic on ``RatFunc``, every result through
# ``RatFunc.make``.

def rf_add(x: RatFunc, y: RatFunc) -> RatFunc:
    if not x.num:
        return y
    if not y.num:
        return x
    if x.den == y.den:
        return RatFunc.make(_padd(x.num, y.num), x.den)
    return RatFunc.make(_padd(_pmul(x.num, y.den), _pmul(y.num, x.den)),
                        _pmul(x.den, y.den))


def rf_neg(x: RatFunc) -> RatFunc:
    return RatFunc(_pneg(x.num), x.den)


def rf_sub(x: RatFunc, y: RatFunc) -> RatFunc:
    return rf_add(x, rf_neg(y))


def rf_mul(x: RatFunc, y: RatFunc) -> RatFunc:
    return RatFunc.make(_pmul(x.num, y.num), _pmul(x.den, y.den))


def rf_div(x: RatFunc, y: RatFunc) -> RatFunc:
    if not y.num:
        raise ZeroDivisionError("division by zero rational function")
    return RatFunc.make(_pmul(x.num, y.den), _pmul(x.den, y.num))


def rf_theta(x: RatFunc) -> RatFunc:
    """q d/dq of the rational function."""
    diff = _padd(_pmul(_pderiv(x.num), x.den),
                 _pneg(_pmul(x.num, _pderiv(x.den))))
    return RatFunc.make((0,) + diff, _pmul(x.den, x.den))


def _pexact_div(a, b):
    """Quotient of integer polynomials that must divide exactly: dense
    long division from the top, every step an exact integer division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(_ptrim(a))
    quot = [0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        f = quot[k] = _exact_div(rem[-1], b[-1])
        for i, y in enumerate(b):
            rem[k + i] -= f * y
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(quot)


def reference_cyclic_scalar_operator(M: ConnMatrix,
                                     start: int) -> ScalarOperator:
    """The dense route to ``cyclic_scalar_operator``: the same
    fraction-free elimination on coefficient tuples, low degree first,
    walking every coefficient, zero or not.

    Rows r_0 = e_start, r_{k+1} = theta(r_k) + r_k M for a matrix
    polynomial M in q are reduced against the earlier ones until the
    first linear dependency, whose coefficients are the operator's.  The
    elimination is fraction-free (Bareiss) over Z[q]: with M' = s M
    integral, the rows r'_k = s^k r_k obey r'_{k+1} = s theta(r'_k) +
    r'_k M'.  Every reduced entry is a minor of the r'_k, so each step
    ends in one exact division; the dependency is unwound by one
    fraction-free back substitution, and each coefficient is reduced
    once, at the end.
    """
    n = M.size
    if not 0 <= start < n:
        raise ValueError(f"covector index {start} out of range for a "
                         f"matrix of size {n}")
    row = {start: (1,)}
    s = math.lcm(*(c.denominator
                   for p in M.cells.values() for c in p.values()))
    cells = [(i, j, tuple(int(p.get((e,), 0) * s)
                          for e in range(max(p)[0] + 1)))
             for (i, j), p in sorted(M.cells.items())]

    # basis[k] = (pivot column, b_k as {column: polynomial}, the nonzero
    # multipliers h_{k,i}: the entry at pivot i when b_i was reduced out);
    # values[k + 1] = p_k = b_k[pivot], and r'_k = p_k e_k +
    # sum_i h_{k,i} e_i with e_i = b_i / (p_{i-1} p_i)
    basis, values = [], [(1,)]
    for k in range(n + 1):
        # Bareiss steps w <- (p_i w - w[pivot_i] b_i) / p_{i-1}; a step with
        # w[pivot_i] = 0 only rescales w, so it waits for the next real one
        w, mults, last = dict(row), [], 0
        for i, (pivot, b, _) in enumerate(basis):
            f = w.get(pivot)
            if f is not None:
                p, d = values[i + 1], values[last]
                mults.append((i, f if last == i else
                              _pexact_div(_pmul(f, values[i]), d)))
                w = {j: _pexact_div(x, d) for j in w.keys() | b.keys()
                     if (x := _padd(_pmul(p, w.get(j, ())),
                                    _pneg(_pmul(f, b.get(j, ())))))}
                last = i + 1
        if not w:
            break
        if last != k:
            w = {j: _pexact_div(_pmul(values[-1], x), values[last])
                 for j, x in w.items()}
        basis.append((min(w), w, mults))
        values.append(w[min(w)])
        shifted = {j: _ptrim(tuple(s * e * c for e, c in enumerate(x)))
                   for j, x in row.items()}
        for i, j, a in cells:
            if i in row:
                shifted[j] = _padd(shifted.get(j, ()), _pmul(row[i], a))
        row = {j: x for j, x in shifted.items() if x}

    # r'_K = sum_i h_{K,i} e_i; x_i = p_{K-1} a_i in r'_K = sum_i a_i r'_i
    # is a minor and solves x_i p_i = p_{K-1} h_{K,i} - sum_{k>i} x_k h_{k,i}
    K, top = len(basis), values[-1]
    acc = {i: _pmul(top, h) for i, h in mults}
    coeffs = [RatFunc.make((1,))]
    for i in reversed(range(K)):
        x = _pexact_div(acc.pop(i, ()), values[i + 1])
        for k, h in basis[i][2]:
            acc[k] = _padd(acc.get(k, ()), _pneg(_pmul(x, h)))
        # theta^i pairs with r_i = r'_i / s^i; q^low cancels first
        den = tuple(c * s ** (K - i) for c in top)
        low = min(j for p in (x, den) for j, c in enumerate(p) if c)
        coeffs.append(RatFunc.make(_pneg(x[low:]), den[low:]))
    return ScalarOperator(tuple(reversed(coeffs)))
