"""Mirror superpotentials and the constant-term Gromov-Witten oracle.

For a minuscule node of a simply-laced group the potential is the
Berenstein-Kazhdan geometric-crystal potential

    W = a_1 + ... + a_l + q <v_top, x_theta u v_low> / <v_top, u v_low>,

where u = x_{i_1}(a_1) ... x_{i_l}(a_l) runs over a reduced word of the
longest minimal coset representative w^P, and the matrix coefficients are
taken in the minuscule representation at the dual node.  There every
raising operator E_j squares to zero, so x_j(a) = I + a E_j, and u v_low is
l updates of a vector kept as a map weight -> coordinate: E_j sends v_mu
to v_{mu + alpha_j} exactly when <mu, alpha_j-vee> = mu_j is -1 (the rule
of :func:`mmirror.minrep.root_step`); no coset or basis is
enumerated.  Each letter is applied once, so every monomial of u v_low
is square-free: a coordinate is a map bitmask -> integer, bit m standing
for a_{m+1}, and ``LaurentPoly`` is built only for the result.  The
denominator must come out a monomial.  The type-A Grassmannian
potentials are the case A_{n-1}.

Constant terms of powers of the potential then compute genus-zero
Gromov-Witten invariants, which is the bridge tested against the
connection-matrix recursion in :mod:`mmirror.period_gw`.  A constant term
is found by a memoized walk over the quantum terms only (the linear part
is then forced), in integers: a state at remaining power r holds its
weight times B^(m-r), B the lcm of the quantum denominators.  Each state
solves its prune bounds once for an interval of counts; one unit of the
walk's ``budget`` is one candidate (state, count), all r + 1 of a state
charged before it is walked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Tuple

from .qchev import LaurentPoly
from .rootsys import (
    CartanType,
    RootDatum,
    build_root_datum,
    minuscule_nodes,
)
from .weyl import _descend, _descent_word

# Most variables (letters of the word of w^P) a Grassmannian potential
# may have.
MAX_POTENTIAL_VARS = 12


class BudgetExceeded(RuntimeError):
    """Raised when a constant-term walk tries more candidates than its
    budget allows."""


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Superpotential ``f_q = linear + q * quantum`` with deg q = coxeter."""

    variables: Tuple[str, ...]
    linear: LaurentPoly
    quantum: LaurentPoly
    coxeter: int

    def f_one(self) -> LaurentPoly:
        """The potential with q specialized to 1."""
        return self.linear + self.quantum


def top_coset_word(d: RootDatum, node: int) -> Tuple[tuple, tuple]:
    """(word, lowest): the lowest weight of W . varpi_node, which is
    -varpi_{node*}, and its descent word, which spells w^P, the longest
    minimal coset representative.  W . varpi_node is the negative of
    W . (-varpi_node), so the lowest weight is the negated dominant
    weight that -varpi_node descends to."""
    mu = [-int(j == node - 1) for j in range(d.rank)]
    _descend(d, mu)
    lowest = tuple(-x for x in mu)
    return _descent_word(d, lowest), lowest


def unipotent_vector(d: RootDatum, word, low) -> dict:
    """u v_low for u = x_{i_1}(a_1) ... x_{i_l}(a_l), as a map weight ->
    coordinate, in the minuscule representation with lowest weight
    ``low``.  Since E_j^2 = 0 there, x_j(a) = I + a E_j, and each letter,
    rightmost first, moves the coordinates at the weights E_j does not
    kill (no target of E_j is also a source); alpha_j is row j of the
    Cartan matrix in fw coordinates.  Each a_m enters once, so a
    coordinate is a map bitmask -> int over square-free monomials, bit m
    standing for a_{m+1}.  The terms letter m adds all have bit m, which
    no term already at the target has, so no two terms ever merge."""
    vec = {tuple(low): {0: 1}}
    for m in reversed(range(len(word))):
        j = word[m] - 1
        alpha = d.cartan[j]
        bit = 1 << m
        for mu, coord in list(vec.items()):
            if mu[j] == -1:
                vec.setdefault(tuple(map(add, mu, alpha)), {}).update(
                    {mask | bit: c for mask, c in coord.items()})
    return vec


def minuscule_potential(d: RootDatum, node: int) -> Potential:
    """Geometric-crystal potential of G/P for a minuscule node of a
    simply-laced datum, with variables a1..al in word order.

    The quantum part is <v_top, x_theta u v_low> / <v_top, u v_low> in the
    representation at the dual node node*, whose lowest weight is
    -varpi_node and highest varpi_{node*}; the denominator must be a
    monomial and every quantum coefficient positive.  The result must be
    homogeneous of degree one under a_m -> z a_m, q -> z^c q (c the
    Coxeter number): each a_m has degree one, so every quantum exponent
    e needs sum(e) + c = 1.
    """
    ct = d.cartan_type
    if ct.family not in "ADE":
        raise ValueError(f"{ct} is not simply laced: its potential needs "
                         "the highest short root")
    if node not in minuscule_nodes(ct):
        raise ValueError(f"node {node} is not minuscule for {ct}")
    word, lowest = top_coset_word(d, node)
    ell = len(word)
    low = tuple(-int(j == node - 1) for j in range(d.rank))
    vec = unipotent_vector(d, word, low)

    # x_theta sends v_{top - theta} to v_top: <top, theta-vee> = 1
    top = tuple(-x for x in lowest)
    source = tuple(x - a for x, a in zip(top, d.highest_root.fw))
    den = vec.get(top, {})
    if len(den) != 1:
        raise ArithmeticError("denominator <v_top, u v_low> is not a "
                              "monomial")
    (den_mask, den_coeff), = den.items()
    quantum = {}
    for mask, coeff in vec.get(source, {}).items():
        value = Fraction(coeff, den_coeff)
        if value <= 0:
            raise ArithmeticError("quantum part has a non-positive "
                                  "coefficient")
        exps = tuple((mask >> m & 1) - (den_mask >> m & 1)
                     for m in range(ell))
        if sum(exps) + d.coxeter_number != 1:
            raise AssertionError("potential is not homogeneous of degree "
                                 "one")
        quantum[exps] = value

    variables = tuple(f"a{m + 1}" for m in range(ell))
    linear = {tuple(int(j == m) for j in range(ell)): Fraction(1)
              for m in range(ell)}
    return Potential(variables, LaurentPoly._clean(variables, linear),
                     LaurentPoly._clean(variables, quantum),
                     d.coxeter_number)


def refuse_large_grassmannian(k: int, n: int) -> None:
    """Raise ValueError unless 1 <= k <= n-1 and the k(n-k) variables of
    the Gr(k, n) potential are at most MAX_POTENTIAL_VARS."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    ell = k * (n - k)
    if ell > MAX_POTENTIAL_VARS:
        raise ValueError(f"Gr({k},{n}) needs {ell} variables, above the "
                         f"bound {MAX_POTENTIAL_VARS}")


def potential_typeA(k: int, n: int) -> Potential:
    """Potential for Gr(k, n): the minuscule potential of A_{n-1} at node
    k, refused when its k(n-k) variables exceed MAX_POTENTIAL_VARS."""
    refuse_large_grassmannian(k, n)
    return minuscule_potential(build_root_datum(CartanType("A", n - 1)), k)


# --------------------------------------------------------------------------
# constant terms and Gromov-Witten numbers
# --------------------------------------------------------------------------

def constant_term_power(pot: Potential, m: int,
                        budget: int = 10_000_000) -> Fraction:
    """Constant term of ``f_1^m`` by a memoized walk over the quantum terms.

    The walk chooses how often each quantum term is used, one term at a
    time, and merges the paths that reach the same state (remaining
    power r, accumulated exponent).  The linear part sum b_i x_i then has
    forced counts v = -exponent, and a state adds
    ``r! / prod v_i! * prod b_i^{v_i}`` when v >= 0 and |v| = r.

    The arithmetic is in integers.  With B the lcm of the denominators of
    the quantum coefficients and c_t = B * coeff_t, every path into a
    state has used m - r quantum factors, so the state holds its weight
    times B^(m-r); using term t ``count`` times multiplies that by
    C(r, count) * c_t^count, an exact integer.  The surviving states are
    summed per r over integer linear coefficients, with one ``Fraction``
    per distinct r.

    A count is pruned by per-coordinate bounds on what the remaining
    quantum and linear terms can still contribute, and by the degree
    sum(exponent) + r, which must reach 0 and which only a quantum term t
    moves, by deg(t) - 1.  Both bounds are linear in the count, so each
    state solves them once for an interval [cmin, cmax] and builds keys
    only for the counts inside it.  Each state spends r + 1 units of
    ``budget``, one per candidate (state, count), before it is walked.
    Raises ValueError if the linear part is not one unit monomial per
    variable.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    nvar = len(pot.variables)
    units = [tuple(int(j == i) for j in range(nvar)) for i in range(nvar)]
    if set(pot.linear.terms) != set(units):
        raise ValueError("the linear part must be one unit monomial per "
                         "variable")
    quantum = sorted(pot.quantum.terms.items())
    scale = math.lcm(*(c.denominator for _, c in quantum))
    # Exponents extended by the degree coordinate: a state's last entry
    # is sum(exponent) + r, so quantum term t shifts it by deg(t) - 1.
    steps = [e + (sum(e) - 1,) for e, _ in quantum]
    linear = [u + (0,) for u in units]
    walk = []
    for t, ((_, coeff), step) in enumerate(zip(quantum, steps)):
        rest = steps[t + 1:] + linear
        # per coordinate (l, h, s - l, s - h): keep a count c iff
        # a + c s + (r - c) l <= 0 and a + c s + (r - c) h >= 0
        bounds = tuple((l, h, s - l, s - h) for s, l, h in
                       zip(step, map(min, zip(*rest)), map(max, zip(*rest))))
        walk.append((int(coeff * scale), step, bounds))

    candidates = 0
    states = {(m, (0,) * nvar + (m,)): 1}
    for c_t, step, bounds in walk:
        following: dict = {}
        for (r, acc), weight in states.items():
            candidates += r + 1
            if candidates > budget:
                raise BudgetExceeded(
                    f"constant-term walk needs more than its budget "
                    f"of {budget} candidates"
                )
            cmin, cmax = 0, r
            for a, (l, h, dl, dh) in zip(acc, bounds):
                low = a + r * l       # keep c with low + c * dl <= 0
                if dl > 0:
                    cmax = min(cmax, -low // dl)
                elif dl < 0:
                    cmin = max(cmin, -(low // dl))
                elif low > 0:
                    cmax = -1
                high = a + r * h      # and with high + c * dh >= 0
                if dh > 0:
                    cmin = max(cmin, -(high // dh))
                elif dh < 0:
                    cmax = min(cmax, high // -dh)
                elif high < 0:
                    cmax = -1
            if cmin > cmax:
                continue
            piece = weight * math.comb(r, cmin) * c_t ** cmin
            shifted = tuple(a + cmin * s for a, s in zip(acc, step))
            for count in range(cmin, cmax + 1):
                key = (r - count, shifted)
                following[key] = following.get(key, 0) + piece
                piece = piece * c_t * (r - count) // (count + 1)
                shifted = tuple(map(add, shifted, step))
        states = following

    lin_scale = math.lcm(*(b.denominator for b in pot.linear.terms.values()))
    b_scaled = [int(pot.linear.terms[u] * lin_scale) for u in units]
    sums: dict = {}
    for (r, acc), weight in states.items():
        v = [-a for a in acc[:nvar]]
        if min(v, default=0) < 0 or sum(v) != r:
            continue
        term = weight * math.factorial(r)
        for vi, b in zip(v, b_scaled):
            term = term * b ** vi // math.factorial(vi)
        sums[r] = sums.get(r, 0) + term
    # a state at r carries B^(m - r), and its linear factors lin_scale^r
    return sum((Fraction(s, scale ** (m - r) * lin_scale ** r)
                for r, s in sums.items()), Fraction(0))


def gw_from_constant_term(pot: Potential, d: int,
                          budget: int = 10_000_000) -> Fraction:
    """Degree-d quantum-period coefficient: CT(f_1^{cd}) / (cd)!."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    m = pot.coxeter * d
    return constant_term_power(pot, m, budget) / math.factorial(m)


def potential_to_json(pot: Potential) -> dict:
    """JSON-friendly Laurent term-list form of a potential."""
    return {
        "variables": list(pot.variables),
        "coxeter": pot.coxeter,
        "linear": pot.linear.termlist(),
        "quantum": pot.quantum.termlist(),
    }
