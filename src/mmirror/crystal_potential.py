"""Mirror superpotentials and the constant-term Gromov-Witten oracle.

For a minuscule node of a simply-laced group the potential is the
Berenstein-Kazhdan geometric-crystal potential

    W = a_1 + ... + a_l + q <v_top, x_theta u v_low> / <v_top, u v_low>,

where u = x_{i_1}(a_1) ... x_{i_l}(a_l) runs over a reduced word of the
longest minimal coset representative w^P, and the matrix coefficients are
taken in the minuscule representation at the dual node, in integers
(:func:`unipotent_vector`).  The type-A Grassmannian potentials are the
case A_{n-1}.  A potential is held as two terms dicts with int
coefficients, the linear part and the quantum part, and is rendered
through the qchev.LaurentPoly view.

Constant terms of powers of the potential then compute genus-zero
Gromov-Witten invariants, CT(W^{hd}) / (hd)! = c_d
(:func:`gw_from_constant_term`), which is the bridge tested against the
connection-matrix recursion in :mod:`mmirror.period_gw`.  The constant
term is read off the powers Q^j of the quantum part for the j in a
degree window (:func:`constant_term_power`); on a minuscule potential
the window is the single power j = d.  The potential's dicts stay keyed
by exponent tuples; inside the route each monomial of Q^j is keyed by
one int of fixed-width fields, so a term product is one int add, and
only the keys of the window powers are decoded.  The budget counts term
products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul
from typing import NamedTuple, Tuple

from .qchev import LaurentPoly
from .rootsys import (
    CartanType,
    RootDatum,
    build_root_datum,
    descent,
    minuscule_nodes,
)

# Most variables (letters of the word of w^P) a Grassmannian potential
# may have.
MAX_POTENTIAL_VARS = 12

# Most term products a constant term may form unless told otherwise.
DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """Raised when forming the powers of the quantum part for a constant
    term needs more term products than its budget allows."""


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------

class Potential(NamedTuple):
    """Superpotential ``f_q = linear + q * quantum`` with deg q = coxeter.

    linear and quantum are terms dicts over ``variables``, {exponent
    tuple: nonzero coefficient}: ints on a minuscule potential, any
    rationals on a potential given by hand."""

    variables: Tuple[str, ...]
    linear: dict
    quantum: dict
    coxeter: int

    def f_one(self) -> LaurentPoly:
        """The potential with q specialized to 1, as a view for output."""
        terms = dict(self.linear)
        for e, c in self.quantum.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly(self.variables,
                           {e: c for e, c in terms.items() if c})


def top_coset_word(d: RootDatum, node: int) -> Tuple[tuple, tuple]:
    """(word, lowest): the lowest weight of W . varpi_node, which is
    -varpi_{node*}, and its descent word, which spells w^P, the longest
    minimal coset representative.  W . varpi_node is the negative of
    W . (-varpi_node), so the lowest weight is the negated dominant
    weight that -varpi_node descends to."""
    top = descent(d, [-int(j == node - 1) for j in range(d.rank)])[1]
    lowest = tuple(-x for x in top)
    return descent(d, lowest)[0], lowest


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
    monomial whose coefficient divides every numerator coefficient with
    a positive quotient, so every coefficient is an int.  The result must
    be homogeneous of degree one under a_m -> z a_m, q -> z^c q (c the
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
    den_exps = [-(den_mask >> m & 1) for m in range(ell)]
    quantum = {}
    for mask, coeff in vec.get(source, {}).items():
        value, rest = divmod(coeff, den_coeff)
        if rest:
            raise ArithmeticError("quantum part has a coefficient that "
                                  "is not an integer")
        if value <= 0:
            raise ArithmeticError("quantum part has a non-positive "
                                  "coefficient")
        exps = den_exps.copy()
        while mask:
            low = mask & -mask
            exps[low.bit_length() - 1] += 1
            mask ^= low
        if sum(exps) + d.coxeter_number != 1:
            raise AssertionError("potential is not homogeneous of degree "
                                 "one")
        quantum[tuple(exps)] = value

    variables = tuple(f"a{m + 1}" for m in range(ell))
    zero = (0,) * ell
    linear = {zero[:m] + (1,) + zero[m + 1:]: 1 for m in range(ell)}
    return Potential(variables, linear, quantum, d.coxeter_number)


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
                        budget: int = DEFAULT_BUDGET) -> Fraction:
    """Constant term of ``f_1^m`` over powers of the quantum part.

    With f_1 = L + Q, L = sum b_i x_i the linear part, the binomial
    theorem gives CT(f_1^m) = sum_j C(m, j) CT(Q^j L^(m-j)), and
    L^(m-j) holds x^v with coefficient (m-j)! / prod v_i! * prod b_i^v_i
    for v >= 0, |v| = m - j.  So an exponent e of Q^j adds
    ``[Q^j]_e (m-j)! prod b_i^(-e_i) / (-e_i)!`` when e <= 0 and
    sum(e) = j - m.  The exponent sums of Q^j lie between j min sigma
    and j max sigma, sigma_t the exponent sum of quantum term t, so only
    the degree window J = {j : j min sigma <= j - m <= j max sigma} can
    add.  For a potential homogeneous of degree one with deg q = h every
    sigma_t is 1 - h, and J = {m / h}, empty unless h divides m.

    Q^j = Q^(j-1) Q is a merged dict with integer coefficients: Q is
    scaled by B, the lcm of its denominators, and Q^j carries B^j.  A
    monomial e of Q^j is keyed by one int of fixed-width fields, field i
    holding e_i + j o, o >= 0 the largest negated exponent of Q, so a
    term product is one int add.  Every field of every power formed lies
    in [0, (max J)(o + p)], p >= 0 the largest exponent of Q, and a
    field is the fewest whole bytes that hold that bound below a spare
    top bit.  Only the keys of the powers in J are decoded: subtracting
    the key from fields of 2^(w-1) + j o (w the field's bits) leaves
    2^(w-1) + v_i in field i, v_i = j o - field_i = -e_i, with no borrow
    between fields, so e <= 0 exactly when every top bit stays set; then
    v is read off the key's bytes and must have sum(v) = m - j.
    Forming Q^j charges |Q^(j-1)| |Q| units of ``budget``, one per term
    product, before it is built; no power past max J is formed.
    Raises ValueError if the linear part is not one unit monomial per
    variable.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    nvar = len(pot.variables)
    # b_i by the position of the 1 in each unit key
    b = {e.index(1): c for e, c in pot.linear.items()
         if len(e) == nvar and e.count(0) == nvar - 1 and 1 in e}
    if len(b) != nvar or len(pot.linear) != nvar:
        raise ValueError("the linear part must be one unit monomial per "
                         "variable")
    quantum = pot.quantum
    sigma = [sum(e) for e in quantum]
    lo, hi = min(sigma, default=0), max(sigma, default=0)
    window = [j for j in range(m + 1) if j * lo <= j - m <= j * hi]
    top = max(window, default=0)

    o = max(0, -min(chain.from_iterable(quantum), default=0))
    p = max(0, max(chain.from_iterable(quantum), default=0))
    size = ((top * (o + p)).bit_length() + 8) // 8     # bytes per field
    width = 8 * size
    units = [1 << t for t in range(0, width * nvar, width)]
    ones = sum(units)
    guards = ones << (width - 1)
    scale = math.lcm(*(c.denominator for c in quantum.values()))
    offset = o * ones
    scaled = [(sum(map(mul, e, units), offset),
               c.numerator * (scale // c.denominator))
              for e, c in quantum.items()]

    lin_scale = math.lcm(*(c.denominator for c in b.values()))
    b_scaled = [c.numerator * (lin_scale // c.denominator)
                for c in map(b.get, range(nvar))]
    products = 0
    power = {0: 1}                       # Q^j times B^j
    total = Fraction(0)
    for j in range(top + 1):
        if j:
            products += len(power) * len(scaled)
            if products > budget:
                raise BudgetExceeded(
                    f"constant-term route needs more than its budget "
                    f"of {budget} term products"
                )
            following = {}
            get = following.get
            for e, c in power.items():
                for f, c_t in scaled:
                    key = e + f
                    following[key] = get(key, 0) + c * c_t
            power = following
        if j not in window:
            continue
        r = m - j
        base = j * o * ones + guards         # fields 2^(w-1) + j o
        r_fact = math.factorial(r)
        s = 0
        for key, c in power.items():
            v = base - key
            if v & guards != guards:          # some v_i < 0
                continue
            v = _fields((v ^ guards).to_bytes(nvar * size, "little"), size)
            if sum(v) != r:
                continue
            s += c * math.prod(map(pow, b_scaled, v)) * (
                r_fact // math.prod(map(math.factorial, v)))
        # Q^j carries B^j, and the linear factors lin_scale^r
        total += Fraction(math.comb(m, j) * s, scale ** j * lin_scale ** r)
    return total


def _fields(raw: bytes, size: int):
    """The little-endian fields of ``size`` bytes each in raw."""
    fields = raw[::size]
    for k in range(1, size):
        fields = list(map(add, fields, map(mul, raw[k::size],
                                           repeat(1 << 8 * k))))
    return fields


def gw_from_constant_term(pot: Potential, d: int,
                          budget: int = DEFAULT_BUDGET) -> Fraction:
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
        "linear": LaurentPoly(pot.variables, pot.linear).termlist(),
        "quantum": LaurentPoly(pot.variables, pot.quantum).termlist(),
    }
