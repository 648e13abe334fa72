"""Mirror superpotentials and the constant-term Gromov-Witten oracle.

Two constructions are provided.  For projective space the potential is
written in closed form.  For a minuscule node of a simply-laced group it
is the Berenstein-Kazhdan geometric-crystal potential

    W = a_1 + ... + a_l + q <v_top, x_theta u v_low> / <v_top, u v_low>,

where u = x_{i_1}(a_1) ... x_{i_l}(a_l) runs over a reduced word of the
longest minimal coset representative w^P, and the matrix coefficients are
taken in the minuscule representation at the dual node.  There every
raising operator E_j squares to zero, so x_j(a) = I + a E_j, and u v_low is
l updates of a vector kept as a map weight -> coordinate, each moved by the
weight rule of :func:`mmirror.minrep.root_step`; no coset or basis is
enumerated.  The denominator must come out a monomial.  The type-A
Grassmannian potentials are the case A_{n-1}.

Constant terms of powers of the potential then compute genus-zero
Gromov-Witten invariants, which is the bridge tested against the
connection-matrix recursion in :mod:`mmirror.period_gw`.  A constant term
is found by a memoized walk over the quantum terms only (the linear part
is then forced); one unit of its ``budget`` is one candidate
(state, count) of that walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .minrep import root_step
from .qchev import LaurentPoly
from .rootsys import (
    CartanType,
    RootDatum,
    build_root_datum,
    fundamental_weight,
    minuscule_nodes,
    simple_root,
)
from .weyl import _descent_word, act_weight, longest_element

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

    def full(self) -> LaurentPoly:
        """f_q as a Laurent polynomial over ("q",) + variables."""
        ext = ("q",) + self.variables
        terms = {}
        for exps, coeff in self.linear.terms.items():
            terms[(0,) + exps] = coeff
        for exps, coeff in self.quantum.terms.items():
            key = (1,) + exps
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return LaurentPoly(ext, terms)


def homogeneous_degree_one(pot: Potential) -> bool:
    """Check that a_m -> z*a_m, q -> z^c * q rescales f_q by exactly z."""
    f = pot.full()
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
    linear = LaurentPoly(variables, {
        tuple(int(j == m) for j in range(n)): Fraction(1) for m in range(n)
    })
    quantum = LaurentPoly(variables, {tuple(-1 for _ in range(n)):
                                      Fraction(1)})
    return Potential(variables, linear, quantum, n + 1)


def top_coset_word(d: RootDatum, node: int) -> Tuple[tuple, tuple]:
    """(word, lowest): the lowest weight of W . varpi_node, which is
    -varpi_{node*}, and its descent word, which spells w^P, the longest
    minimal coset representative."""
    lowest = act_weight(longest_element(d), fundamental_weight(d, node))
    return _descent_word(d, lowest), lowest


def unipotent_vector(d: RootDatum, word, variables, low) -> dict:
    """u v_low for u = x_{i_1}(a_1) ... x_{i_l}(a_l), as a map weight ->
    coordinate, in the minuscule representation with lowest weight
    ``low``.  Since E_j^2 = 0 there, x_j(a) = I + a E_j, and each letter,
    rightmost first, moves the coordinates at the weights E_j does not
    kill (no target of E_j is also a source)."""
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


def minuscule_potential(d: RootDatum, node: int) -> Potential:
    """Geometric-crystal potential of G/P for a minuscule node of a
    simply-laced datum, with variables a1..al in word order.

    The quantum part is <v_top, x_theta u v_low> / <v_top, u v_low> in the
    representation at the dual node node*, whose lowest weight is
    -varpi_node and highest varpi_{node*}; the denominator must be a
    monomial and every quantum coefficient positive.
    """
    ct = d.cartan_type
    if ct.family not in "ADE":
        raise ValueError(f"{ct} is not simply laced: its potential needs "
                         "the highest short root")
    if node not in minuscule_nodes(ct):
        raise ValueError(f"node {node} is not minuscule for {ct}")
    word, lowest = top_coset_word(d, node)
    variables = tuple(f"a{m + 1}" for m in range(len(word)))
    low = tuple(-int(j == node - 1) for j in range(d.rank))
    vec = unipotent_vector(d, word, variables, low)

    # x_theta sends v_{top - theta} to v_top: <top, theta-vee> = 1
    top = tuple(-x for x in lowest)
    source = tuple(x - a for x, a in zip(top, d.highest_root.fw))
    zero = LaurentPoly(variables)
    num = vec.get(source, zero)
    den = vec.get(top, zero)
    if len(den.terms) != 1:
        raise ArithmeticError("denominator <v_top, u v_low> is not a "
                              "monomial")
    (den_exp, den_coeff), = den.terms.items()
    quantum_terms = {}
    for exps, coeff in num.terms.items():
        value = coeff / den_coeff
        if value <= 0:
            raise ArithmeticError("quantum part has a non-positive "
                                  "coefficient")
        quantum_terms[tuple(a - b for a, b in zip(exps, den_exp))] = value

    ell = len(word)
    linear = LaurentPoly(variables, {
        tuple(int(j == m) for j in range(ell)): Fraction(1)
        for m in range(ell)
    })
    pot = Potential(variables, linear, LaurentPoly(variables, quantum_terms),
                    d.coxeter_number)
    if not homogeneous_degree_one(pot):
        raise AssertionError("potential is not homogeneous of degree one")
    return pot


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
    ``r! / prod v_i! * prod b_i^{v_i}`` when v >= 0 and |v| = r.  Each
    candidate (state, count) spends one unit of ``budget`` before it is
    pruned: by per-coordinate bounds on what the remaining quantum and
    linear terms can still contribute, and by the degree sum(exponent) + r,
    which must reach 0 and which only a quantum term t moves, by
    deg(t) - 1.  Raises ValueError if the linear part is not one unit
    monomial per variable.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    nvar = len(pot.variables)
    units = [tuple(int(j == i) for j in range(nvar)) for i in range(nvar)]
    if set(pot.linear.terms) != set(units):
        raise ValueError("the linear part must be one unit monomial per "
                         "variable")
    quantum = sorted(pot.quantum.terms.items())
    # Exponents extended by the degree coordinate: a state's last entry
    # is sum(exponent) + r, so quantum term t shifts it by deg(t) - 1.
    steps = [e + (sum(e) - 1,) for e, _ in quantum]
    linear = [u + (0,) for u in units]
    bounds = []
    for t in range(len(steps)):
        rest = steps[t + 1:] + linear
        bounds.append((tuple(map(min, zip(*rest))),
                       tuple(map(max, zip(*rest)))))

    candidates = 0
    states = {(m, (0,) * nvar + (m,)): Fraction(1)}
    for (_, coeff), step, (lo, hi) in zip(quantum, steps, bounds):
        following: dict = {}
        for (r, acc), weight in states.items():
            piece = weight
            shifted = acc
            for count in range(r + 1):
                candidates += 1
                if candidates > budget:
                    raise BudgetExceeded(
                        f"constant-term walk needs more than its budget "
                        f"of {budget} candidates"
                    )
                if count:
                    piece = piece * coeff * (r - count + 1) / count
                    shifted = tuple(a + s for a, s in zip(shifted, step))
                rest = r - count
                if any(a + rest * l > 0 or a + rest * h < 0
                       for a, l, h in zip(shifted, lo, hi)):
                    continue
                key = (rest, shifted)
                following[key] = following.get(key, 0) + piece
        states = following

    total = Fraction(0)
    for (r, acc), weight in states.items():
        v = [-a for a in acc[:nvar]]
        if min(v, default=0) < 0 or sum(v) != r:
            continue
        term = weight * math.factorial(r)
        for vi, u in zip(v, units):
            term = term * pot.linear.terms[u] ** vi / math.factorial(vi)
        total += term
    return total


def gw_from_constant_term(pot: Potential, d: int,
                          budget: int = 10_000_000) -> Fraction:
    """Degree-d quantum-period coefficient: CT(f_1^{cd}) / (cd)!."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    m = pot.coxeter * d
    return constant_term_power(pot, m, budget) / math.factorial(m)


def potential_to_json(pot: Potential) -> dict:
    """JSON-friendly Laurent term-list form of a potential."""
    def termlist(p: LaurentPoly) -> list:
        return [[list(exps), str(coeff)]
                for exps, coeff in sorted(p.terms.items())]

    return {
        "variables": list(pot.variables),
        "coxeter": pot.coxeter,
        "linear": termlist(pot.linear),
        "quantum": termlist(pot.quantum),
    }
