"""Quantum Chevalley connection matrices, exact, as Laurent terms dicts.

The operator "multiply by the degree-one Schubert class" acting on the
cohomology of G/P is assembled by one rule, the quantum Chevalley formula
of Fulton-Woodward, column by column over the minimal coset
representatives (fw_matrix).  Each candidate w s_beta is read off the
table of images that the coset walk carries (w.rho and w.beta for every
beta outside the Levi): as a coset index (weyl.reflect_coset, a lookup)
and, only when that coset's length admits a term, either as the test
that w s_beta is the coset's minimal rep (its rho image is the rep's,
weyl.reflect_rho) or, for a quantum term whose w s_beta is not minimal,
as a length (weyl.reflect_length, the number of letters in the descent
of its rho image; ell(s_beta) likewise, rootsys.reflection_length).
No Weyl product or matrix is formed, each root's drop <2(rho - rho_P),
beta-vee> is an integer found once, and only the nonzero cells are
built.  The rule serves minuscule nodes and odd quadrics alike; the
classical (q^0) part and the torus-equivariant matrix, with a linear
form in h_1..h_r on the diagonal as in Mihalcea's formula, are derived
from it; that diagonal is integer rows over one denominator
(mihalcea_diagonal) until a lifted matrix is built.  The node is read
off the coset table (reps.parabolic), on which minrep.fg_connection
builds the mirror side too; fw_matrix alone takes it, and checks it.

Matrices use the column convention: column w holds the expansion of the
operator applied to the basis class sigma_w.  A ConnMatrix is held as its
nonzero cells only, about (rank + 1) per column, each the plain terms dict
of its entry; every consumer (equality, the invariants, products) walks
those dicts, and so does matrix_relation, which takes its polynomial
in (X, q) as a terms dict too.  LaurentPoly is no ring: it views a terms
dict over named variables for output (the dense table, the rendered
potentials) and has no arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import add, mul

from .rootsys import RootDatum, reflection_length
from .weyl import CosetReps, reflect_coset, reflect_length, reflect_rho

__all__ = [
    "LaurentPoly",
    "ConnMatrix",
    "quantum_chevalley_minuscule",
    "fw_matrix",
    "mihalcea_diagonal",
    "lift_equivariant",
    "mihalcea_equivariant",
    "matrix_relation",
    "check_homogeneous",
    "poincare_self_adjoint",
]


class LaurentPoly:
    """A terms dict over named variables, viewed for output.

    terms maps integer exponent tuples (one slot per variable, negatives
    allowed) to nonzero int or Fraction coefficients and is kept as
    given: the library computes on terms dicts themselves, and this view
    only renders and compares them.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        self.terms = {} if terms is None else terms

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly)
                and self.variables == other.variables
                and self.terms == other.terms)

    def is_zero(self):
        """True for the zero polynomial.  The benchmark tracer
        (perfbench/tracing.py) counts the nonzero entries of the dense
        table by it."""
        return not self.terms

    def render(self):
        """Canonical human/CSV form, terms in lexicographic exponent order."""
        out = ""
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            body = "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(self.variables, exps) if e)
            piece = (f"{coeff}" if not body else body if coeff == 1
                     else f"-{body}" if coeff == -1 else f"{coeff}*{body}")
            out += piece if not out or piece[0] == "-" else f"+{piece}"
        return out or "0"

    def termlist(self):
        """JSON form: [exponents, coefficient string] pairs, in
        lexicographic exponent order."""
        return [[list(e), str(c)] for e, c in sorted(self.terms.items())]

    def __repr__(self):
        return f"LaurentPoly({self.render()})"


class ConnMatrix(namedtuple("ConnMatrix", "basis variables size cells")):
    """Square matrix of Laurent polynomials indexed by a CosetReps basis
    (None for a matrix on another basis); column w is the operator
    applied to sigma_w.  cells maps (row, col) to the entry's terms,
    {exponent tuple: nonzero int or Fraction}, and is the only store:
    every other entry is zero.  Two matrices are equal when their
    variables, sizes and cells are."""

    __slots__ = ()

    def entry(self, r, c):
        return self.cells.get((r, c), {})

    @property
    def entries(self):
        """The dense n x n table of LaurentPoly, for output only."""
        zero = LaurentPoly(self.variables)
        n = self.size
        cells = {rc: LaurentPoly(self.variables, terms)
                 for rc, terms in self.cells.items()}
        return tuple(tuple(cells.get((r, c), zero) for c in range(n))
                     for r in range(n))

    def __eq__(self, other):
        return (
            isinstance(other, ConnMatrix)
            and self.variables == other.variables
            and self.size == other.size
            and self.cells == other.cells
        )

    __ne__ = object.__ne__

    def column(self, c):
        """The nonzero entries of column c as {row: terms}, by row."""
        return {r: self.cells[r, c] for r in range(self.size)
                if (r, c) in self.cells}

    def mat_mul(self, other):
        """The product, summed over pairs of nonzero cells and terms."""
        by_row = {}
        for (k, c), b in other.cells.items():
            by_row.setdefault(k, []).append((c, b))
        acc = {}
        for (r, k), a in self.cells.items():
            for c, b in by_row.get(k, ()):
                out = acc.setdefault((r, c), {})
                for ea, x in a.items():
                    for eb, y in b.items():
                        e = tuple(map(add, ea, eb))
                        out[e] = out.get(e, 0) + x * y
        cells = {}
        for rc, terms in acc.items():
            terms = {e: v for e, v in terms.items() if v}
            if terms:
                cells[rc] = terms
        return ConnMatrix(self.basis, self.variables, self.size, cells)


# --------------------------------------------------------------------------
# Chevalley rule
# --------------------------------------------------------------------------

def fw_matrix(d: RootDatum, reps: CosetReps, node: int) -> ConnMatrix:
    """Full multiplication matrix by the Fulton-Woodward rule; works at any
    maximal parabolic (e.g. odd quadrics), single q variable since only
    one node lies outside the Levi.

    Each positive root beta outside the Levi, with k the node coordinate
    of beta-vee, adds k to column w at the coset of w s_beta when
    ell(w s_beta) = ell(w) + 1 = the length of that coset (classical), and
    k q^k there when ell(w s_beta) = ell(w) - ell(s_beta) and the coset has
    length ell(w) + 1 - <2(rho - rho_P), beta-vee> (quantum).
    At a minuscule node that coset has length ell(w) + ht(w.beta)
    (CosetReps), so only ht(w.beta) = 1 or 1 - drop is looked up there.
    """
    p = reps.parabolic
    if node != p.node:
        raise ValueError(f"node {node} is not the node {p.node} of the "
                         "coset representatives")
    two_rho_diff = [int(2 - 2 * x) for x in p.rho_P]
    # (slot, beta, k, <2(rho - rho_P), beta-vee>)
    roots = [(s, beta, beta.coroot[node - 1],
              sum(map(mul, two_rho_diff, beta.coroot)))
             for s, beta in enumerate(reps.roots, 1)]

    # The coset of w s_beta has length at most ell(w s_beta), so a term is
    # possible only where that length is ell(w) + 1 (classical) or
    # ell(w) + 1 - drop (quantum, drop >= 2).  Where the wanted length is
    # the coset's, w s_beta must be its minimal rep, which the rho images
    # decide; only the other quantum candidates compute ell(w s_beta), and
    # ell(s_beta) (reflection_length) at a root's first quantum candidate.
    lengths, images, heights = reps.lengths, reps.images, reps.heights
    ell_s = {}   # slot -> ell(s_beta)
    cells = {}   # (row, col) -> {(q exp,): coeff}
    for c, ell in enumerate(lengths):
        hts = heights[c] if heights else None
        for s, beta, k, drop in roots:
            if hts and hts[s] != 1 and hts[s] != 1 - drop:
                continue
            r = reflect_coset(reps, c, beta)
            if lengths[r] == ell + 1:
                key, want = (0,), ell + 1
            elif lengths[r] == ell + 1 - drop:
                if s not in ell_s:
                    ell_s[s] = reflection_length(d, beta)
                key, want = (k,), ell - ell_s[s]
            else:
                continue
            if (reflect_rho(reps, c, beta) == images[r][0]
                    if want == lengths[r] else
                    reflect_length(d, reps, c, beta) == want):
                entry = cells.setdefault((r, c), {})
                entry[key] = entry.get(key, 0) + k
    return ConnMatrix(reps, ("q",), len(reps), cells)


# The paper's W(gamma) description of the q-part is checked by the
# verifier, not built a second time.
quantum_chevalley_minuscule = fw_matrix


def mihalcea_diagonal(d: RootDatum, reps: CosetReps):
    """(den, rows): rows[c] / den is w . varpi_node-vee in simple-coroot
    coordinates, for w the rep at c: the coweights that the coset walk
    carries up from column node of den * A^-1."""
    return d.inverse_cartan[0], reps.coweights


def lift_equivariant(M: ConnMatrix, rows, den=1) -> ConnMatrix:
    """M over ("q",) lifted to ("q", "h1", .., "hr") with -<rows[c] / den,
    h> added in column c, where rows[c] is a coweight in simple-coroot
    coordinates and h_j is the equivariant parameter on alpha_j-vee.
    Only the diagonal gains terms: every other cell is M's, re-keyed."""
    rank = len(rows[0])
    variables = ("q",) + tuple(f"h{j}" for j in range(1, rank + 1))
    pad = (0,) * rank
    units = [(0,) + pad[:j] + (1,) + pad[j + 1:] for j in range(rank)]
    cells = {rc: {k + pad: v for k, v in terms.items()}
             for rc, terms in M.cells.items()}
    for c, coweight in enumerate(rows):
        shift = {unit: Fraction(-x, den)
                 for unit, x in zip(units, coweight) if x != 0}
        if shift:
            cells.setdefault((c, c), {}).update(shift)
    return ConnMatrix(M.basis, variables, M.size, cells)


def mihalcea_equivariant(d: RootDatum, M: ConnMatrix) -> ConnMatrix:
    """Equivariant first-Chern-class action: the Chevalley matrix M (from
    fw_matrix) plus the diagonal linear form -<w . varpi_node-vee, h> in
    column w, over the variables ("q", "h1", .., "hr")."""
    den, rows = mihalcea_diagonal(d, M.basis)
    return lift_equivariant(M, rows, den)


def matrix_relation(M: ConnMatrix, relation: dict) -> bool:
    """Evaluate a polynomial in (X, q), given as terms {(a, b): coeff}
    for coeff X^a q^b, at X = M, q = the scalar variable, and report
    exact vanishing."""
    qm = M.variables.index("q")
    powers = {0: ConnMatrix(M.basis, M.variables, M.size,
                            {(i, i): {(0,) * len(M.variables): 1}
                             for i in range(M.size)})}

    def mat_power(k):
        if k not in powers:
            powers[k] = mat_power(k - 1).mat_mul(M)
        return powers[k]

    acc = {}   # (row, col, exponent) -> coefficient
    for (a, b), coeff in relation.items():
        if a < 0 or b < 0:
            raise ValueError("relation must be polynomial")
        for (r, c), terms in mat_power(a).cells.items():
            for e, v in terms.items():
                key = r, c, e[:qm] + (e[qm] + b,) + e[qm + 1:]
                acc[key] = acc.get(key, 0) + coeff * v
    return not any(acc.values())


# --------------------------------------------------------------------------
# Shared invariants
# --------------------------------------------------------------------------

def check_homogeneous(M: ConnMatrix) -> bool:
    """Degree homogeneity: with deg sigma_w = 2 ell(w), deg q =
    <4(rho - rho_P), alpha_node-vee> and deg h_j = 2, every nonzero entry
    at (row u, col w) has degree 2 ell(w) + 2 - 2 ell(u)."""
    p = M.basis.parabolic
    # alpha_node-vee is a unit vector in simple-coroot coordinates
    qdeg = int(4 * (1 - p.rho_P[p.node - 1]))
    weights = []
    for v in M.variables:
        if v == "q":
            weights.append(qdeg)
        elif v.startswith("h"):
            weights.append(2)
        else:
            raise ValueError(f"no degree rule for variable {v}")
    lengths = M.basis.lengths
    for (r, c), terms in M.cells.items():
        want = 2 * lengths[c] + 2 - 2 * lengths[r]
        if any(sum(map(mul, weights, e)) != want for e in terms):
            return False
    return True


def poincare_self_adjoint(M: ConnMatrix, dual) -> bool:
    """Self-adjointness for the Poincare pairing <sigma_u, sigma_v> =
    delta_{v, PD(u)}, with dual[i] the index of PD of basis class i (see
    weyl.pd): M[PD(v), c] == M[PD(c), v] for all c, v.  As PD is an
    involution, that is M[r, c] == M[PD(c), PD(r)] for every cell; a
    cell whose mirror is absent fails, so absent cells need no walk."""
    return all(M.entry(dual[c], dual[r]) == terms
               for (r, c), terms in M.cells.items())
