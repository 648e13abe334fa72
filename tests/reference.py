"""Test-only references for the crystal-potential builder.

``reference_unipotent_vector`` is the generic ``LaurentPoly`` walk that
the integer builder is checked against; ``homogeneous_degree_one`` checks
homogeneity by rescaling the whole f_q; ``potential_projective`` is the
closed-form potential of P^n.
"""

from fractions import Fraction

from mmirror.crystal_potential import Potential
from mmirror.minrep import root_step
from mmirror.qchev import LaurentPoly
from mmirror.rootsys import simple_root


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
    for exps, coeff in pot.linear.terms.items():
        terms[(0,) + exps] = coeff
    for exps, coeff in pot.quantum.terms.items():
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
    linear = LaurentPoly(variables, {
        tuple(int(j == m) for j in range(n)): Fraction(1) for m in range(n)
    })
    quantum = LaurentPoly(variables, {tuple(-1 for _ in range(n)):
                                      Fraction(1)})
    return Potential(variables, linear, quantum, n + 1)
