"""Acceptance suite: one test per numbered criterion of the package
contract, each printing a single ``[criterion N] PASS/FAIL`` line (run
with ``pytest -s`` to see them; ``pytest -v`` gives the same one line per
criterion through the test names).

Everything is exact rational arithmetic except criterion 11, whose
Bessel-function quadrature is checked to 1e-8.
"""

import functools
import math
import time
from fractions import Fraction

import pytest

from mmirror.crystal_potential import (
    constant_term_power,
    gw_from_constant_term,
    potential_typeA,
)
from mmirror.minrep import coweight_diagonal, fg_connection
from mmirror.period_gw import (
    RatFunc,
    bessel_numeric_checks,
    bruhat_path_count,
    cyclic_scalar_operator,
    d4_split,
    operator_annihilates,
    quantum_period,
)
from mmirror.qchev import (
    check_homogeneous,
    fw_matrix,
    lift_equivariant,
    matrix_relation,
    mihalcea_equivariant,
    quantum_chevalley_minuscule,
)
from mmirror.rootsys import (
    CartanType,
    build_root_datum,
    minuscule_dimension,
    reflection_length,
    simple_root,
)
from mmirror.weyl import minuscule_coset_reps, w_gamma_set
from reference import (
    LaurentPoly,
    act_root,
    act_weight,
    bessel_operator_from_matrix,
    equivariant_bessel,
    generator_matrices,
    hbar_rescale_consistent,
    homogeneous_degree_one,
    inverse,
    levi_roots,
    multiply,
    pairing,
    pi_P,
    potential_projective,
    rep_elements,
    special_elements,
    zeta_rescaling_consistent,
)

# --------------------------------------------------------------- case lists

# Every minuscule (type, node) with rank <= 7.
ALL_MINUSCULE = (
    [(f"A{n}", i) for n in range(1, 8) for i in range(1, n + 1)]
    + [(f"B{n}", n) for n in range(2, 8)]
    + [(f"C{n}", 1) for n in range(2, 8)]
    + [(f"D{n}", i) for n in range(4, 8) for i in (1, n - 1, n)]
    + [("E6", 1), ("E6", 6), ("E7", 7)]
)

# The mirror-identity scope: all of A, low-rank B/C/D, both E cases.
MIRROR_CASES = (
    [(f"A{n}", i) for n in range(1, 8) for i in range(1, n + 1)]
    + [(f"B{n}", n) for n in (2, 3, 4)]
    + [(f"C{n}", 1) for n in (2, 3, 4)]
    + [(f"D{n}", i) for n in (4, 5) for i in (1, n - 1, n)]
    + [("E6", 1), ("E6", 6), ("E7", 7)]
)

EQUIVARIANT_CASES = [("A1", 1), ("A3", 2), ("A4", 2), ("D4", 1), ("B3", 3)]

# Grassmannians Gr(k, n) small enough for the exact pipeline.
GRASSMANNIANS = [
    (k, n) for n in range(2, 14) for k in range(1, n) if k * (n - k) <= 12
]


@functools.lru_cache(maxsize=None)
def datum(ct):
    return build_root_datum(CartanType.parse(ct))


@functools.lru_cache(maxsize=None)
def coset(ct, node):
    return minuscule_coset_reps(datum(ct), node)


@functools.lru_cache(maxsize=None)
def qc_matrix(ct, node):
    return quantum_chevalley_minuscule(datum(ct), coset(ct, node), node)


@functools.lru_cache(maxsize=None)
def fg_matrix(ct, node):
    return fg_connection(datum(ct), coset(ct, node))


def criterion(num, label):
    """Print one PASS/FAIL line per criterion, then defer to pytest."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {label}")
                raise
            print(f"[criterion {num:2d}] PASS  {label}")

        return run

    return wrap


# ----------------------------------------------------------- the criteria


@criterion(1, "mirror identity: quantum Chevalley == canonical-basis "
              "connection, all cases")
def test_criterion_01_mirror_identity():
    assert len(MIRROR_CASES) == 43
    for ct, node in MIRROR_CASES:
        assert qc_matrix(ct, node) == fg_matrix(ct, node), (ct, node)
    # the largest case really is the 56-dimensional one
    assert qc_matrix("E7", 7).size == 56


@criterion(2, "equivariant mirror identity over Q[q, h_1..h_r]")
def test_criterion_02_equivariant_identity():
    for ct, node in EQUIVARIANT_CASES:
        M = mihalcea_equivariant(datum(ct), qc_matrix(ct, node))
        scale, rows = coweight_diagonal(datum(ct), coset(ct, node))
        F = lift_equivariant(fg_matrix(ct, node), rows, scale)
        assert M == F, (ct, node)
        assert len(M.variables) == datum(ct).rank + 1  # q plus all h_j


@criterion(3, "Gr(2,4) golden products")
def test_criterion_03_gr24_products():
    m = qc_matrix("A3", 2)
    q, one = {(1,): 1}, {(0,): 1}
    # basis order: 0 empty, 1 s1, 2 s11, 3 s2, 4 s21, 5 s22
    assert m.column(1) == {2: one, 3: one}   # s1*s1  = s11 + s2
    assert m.column(2) == {4: one}           # s1*s11 = s21
    assert m.column(3) == {4: one}           # s1*s2  = s21
    assert m.column(4) == {5: one, 0: q}     # s1*s21 = s22 + q
    # s1*s22 = q*s1: pinned by the degree grading (deg q = 4) and by
    # self-adjointness against the previous product
    assert m.column(5) == {1: q}


@criterion(4, "six-dimensional quadric: 8x8 matrix, kernel line, scalar "
              "operator")
def test_criterion_04_d4_quadric():
    m = qc_matrix("D4", 1)
    q, one = {(1,): 1}, {(0,): 1}
    # Columns of the 8x8 matrix; the two degree-3 classes (indices 3, 4)
    # are interchangeable and the data below is invariant under the swap.
    expected = {
        0: {1: one},
        1: {2: one},
        2: {3: one, 4: one},
        3: {5: one},
        4: {5: one},
        5: {6: one},
        6: {7: one, 0: q},
        7: {1: q},
    }
    for c in range(8):
        assert m.column(c) == expected[c], f"column {c}"

    split = d4_split(m)
    # kernel line: difference of the two degree-3 classes
    assert split.kernel == (0, 0, 0, 1, -1, 0, 0, 0)

    # cyclic-vector reduction of the rank-7 invariant block: the scalar
    # operator theta^7 - 4q*theta - 2q.  The theta-coefficient signs are
    # forced by the requirement that the operator annihilate the quantum
    # period, whose coefficients obey c_d = (4d - 2) c_{d-1} / d^7 > 0.
    op = cyclic_scalar_operator(split.restricted, 6)
    want = (RatFunc.make((0, -2)), RatFunc.make((0, -4)))
    want += (RatFunc.make(()),) * 5 + (RatFunc.make((1,)),)
    assert op.order == 7
    assert op.coefficients == want
    series = quantum_period(split.restricted, 10)
    assert operator_annihilates(op, series)
    for d in range(1, 11):
        assert series.coefficients[d] == (
            Fraction(4 * d - 2, d**7) * series.coefficients[d - 1]
        )


@criterion(5, "odd quadrics: doubled product, quantum corrections, "
              "matrix relation")
def test_criterion_05_odd_quadrics():
    q, one, two = {(1,): 1}, {(0,): 1}, {(0,): 2}
    for n in (2, 3, 4):
        d = datum(f"B{n}")
        reps = minuscule_coset_reps(d, 1)
        m = fw_matrix(d, reps, 1)
        assert m.size == 2 * n
        for c in range(2 * n):
            if c == n - 1:
                want = {n: two}                   # s1 * s_{n-1} = 2 s_n
            elif c == 2 * n - 2:
                want = {2 * n - 1: one, 0: q}     # s1 s_{2n-2} = s_{2n-1}+q
            elif c == 2 * n - 1:
                want = {1: q}                     # s1 s_{2n-1} = q s1
            else:
                want = {c + 1: one}
            assert m.column(c) == want, (n, c)
    # B3: the matrix satisfies X^6 - 4qX = 0
    d = datum("B3")
    m = fw_matrix(d, minuscule_coset_reps(d, 1), 1)
    assert matrix_relation(m, {(6, 0): 1, (1, 1): -4})
    assert not matrix_relation(m, {(6, 0): 1, (1, 1): -3})
    with pytest.raises(ValueError, match="relation must be polynomial"):
        matrix_relation(m, {(6, 0): 1, (1, -1): -4})


@criterion(6, "quantum periods: projective closed form and Grassmannian "
              "degree-one coefficient")
def test_criterion_06_quantum_periods():
    for n in range(1, 5):
        series = quantum_period(qc_matrix(f"A{n}", 1), 4)
        for d in range(5):
            assert series.coefficients[d] == Fraction(
                1, math.factorial(d) ** (n + 1)
            ), (n, d)
    assert len(GRASSMANNIANS) == 35
    for k, n in GRASSMANNIANS:
        ct = f"A{n - 1}"
        c1 = quantum_period(qc_matrix(ct, k), 1).coefficients[1]
        assert c1 == math.comb(n - 2, k - 1), (k, n)
        # the same number counted directly as chains in the Bruhat order
        assert c1 == bruhat_path_count(datum(ct), coset(ct, k), k), (k, n)


@criterion(7, "constant-term formula reproduces the period coefficients")
def test_criterion_07_constant_term_oracle():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        pot = potential_projective(n)
        series = quantum_period(qc_matrix(f"A{n}", 1), 3)
        for d in range(4):
            assert gw_from_constant_term(pot, d) == series.coefficients[d]
    for (k, n), ct, node in [((2, 4), "A3", 2), ((2, 5), "A4", 2)]:
        pot = potential_typeA(k, n)
        series = quantum_period(qc_matrix(ct, node), 2)
        for d in range(3):
            assert gw_from_constant_term(pot, d) == series.coefficients[d]
    pot = potential_typeA(2, 5)
    assert constant_term_power(pot, 5) == 360
    assert gw_from_constant_term(pot, 1) == 3
    assert time.monotonic() - t0 < 60.0


@criterion(8, "superpotentials: Gr(2,5) golden, positivity, homogeneity")
def test_criterion_08_superpotentials():
    pot = potential_typeA(2, 5)
    V = pot.variables
    assert V == tuple(f"a{j}" for j in range(1, 7))
    # quantum part (a1 a2 + a1 a6 + a5 a6) / (a1 a2 a3 a4 a5 a6)
    assert pot.quantum == LaurentPoly(V, {
        (0, 0, -1, -1, -1, -1): Fraction(1),
        (0, -1, -1, -1, -1, 0): Fraction(1),
        (-1, -1, -1, -1, 0, 0): Fraction(1),
    }).terms
    assert pot.linear == LaurentPoly(V, {
        tuple(int(i == j) for i in range(6)): Fraction(1) for j in range(6)
    }).terms
    assert pot.coxeter == 5

    # every constructible case: the constructor itself rejects a
    # non-monomial denominator minor or a non-positive coefficient
    for k, n in GRASSMANNIANS:
        p = potential_typeA(k, n)
        assert all(c > 0 for c in p.quantum.values()), (k, n)
        assert all(c == 1 for c in p.linear.values()), (k, n)
        assert len(p.linear) == k * (n - k), (k, n)
        assert homogeneous_degree_one(p), (k, n)


@criterion(9, "Weyl-combinatorics: distinguished root, reflection set, "
              "special elements")
def test_criterion_09_combinatorics():
    assert len(ALL_MINUSCULE) == 55
    cominuscule_seen = 0
    for ct, node in ALL_MINUSCULE:
        d = datum(ct)
        reps = coset(ct, node)
        p = reps.parabolic
        se = special_elements(d, p)
        gamma = p.gamma
        levi = {r.coeffs for r in p.levi_positive_roots}
        outside = [b for b in d.positive_roots if b.coeffs not in levi]

        # gamma is the unique root outside the Levi that is quantum with
        # Levi pairings in {-1, 0} ...
        quantum = {b.coeffs for b in d.positive_roots
                   if reflection_length(d, b) == 2 * sum(b.coroot) - 1}
        char_pairing = {
            b.coeffs
            for b in outside
            if b.coeffs in quantum
            and all(
                pairing(a.fw, b.coroot) in (-1, 0)
                for a in p.levi_positive_roots
            )
        }
        assert char_pairing == {gamma.coeffs}, (ct, node)
        # ... and the unique positive root sent to -theta by some minimal
        # representative
        elts = rep_elements(d, reps)
        char_orbit = set()
        for w in elts:
            sign, img = act_root(d, inverse(d, w), d.highest_root)
            if sign < 0:
                char_orbit.add(img.coeffs)
        assert char_orbit == {gamma.coeffs}, (ct, node)

        # the reflection set W(gamma) and its length identities
        wg = set(w_gamma_set(d, reps))
        sg = se.sgamma
        sgp = multiply(d, sg, inverse(d, se.wPQ))
        assert sgp.length == sg.length + se.wPQ.length, (ct, node)
        for i, w in enumerate(elts):
            member = i in wg
            ws = multiply(d, w, sg)
            wsp = multiply(d, w, sgp)
            drop_s = ws.length == w.length - sg.length
            drop_sp = wsp.length == w.length - sg.length - se.wPQ.length
            if member:
                assert drop_s and drop_sp, (ct, node, w.word)
                assert wsp.length == w.length - sgp.length
                assert wsp == pi_P(d, p.I_P, ws), (ct, node, w.word)
            else:
                # the two length drops characterize membership
                assert not (drop_s and drop_sp), (ct, node, w.word)

        # inversion set of the longest minimal P/Q representative
        q_levi = {r.coeffs for r in levi_roots(d, p.I_Q)}
        inv = {
            a.coeffs
            for a in d.positive_roots
            if act_root(d, se.wPQ, a)[0] < 0
        }
        assert inv == levi - q_levi, (ct, node)

        # length of w_{P/Q} s_gamma against the pairing formula
        two_rho_out = tuple(2 - 2 * x for x in p.rho_P)
        val = sum(a * b for a, b in zip(two_rho_out, gamma.coroot))
        assert multiply(d, se.wPQ, sg).length == val - 1, (ct, node)

        # w_P sends rho to -rho + 2 rho_P
        got = act_weight(se.wP, (1,) * d.rank)
        want = tuple(-1 + 2 * x for x in p.rho_P)
        assert tuple(Fraction(x) for x in got) == want, (ct, node)

        # at a cominuscule node, w_P^{-1} carries the node root to -theta
        if d.highest_root.coeffs[node - 1] == 1:
            cominuscule_seen += 1
            sign, img = act_root(
                d, inverse(d, se.wP), simple_root(d, node)
            )
            assert sign == -1, (ct, node)
            assert img.coeffs == d.highest_root.coeffs, (ct, node)

        # anticanonical pairing at the node equals the Coxeter number,
        # and the coset really has the closed-form dimension
        node_coroot = simple_root(d, node).coroot
        chern = sum(a * b for a, b in zip(two_rho_out, node_coroot))
        assert chern == d.coxeter_number, (ct, node)
        assert p.coset_size == minuscule_dimension(d.cartan_type, node)
        assert len(reps) == p.coset_size

        # pinned sizes of W(gamma)
        if ct == "E6" and node == 6:
            assert len(wg) == 6
        if ct == "E7" and node == 7:
            assert len(wg) == 12
        if ct.startswith("C") and node == 1:
            assert len(wg) == 1
    # all A/D/E cases are cominuscule, B/C minuscule nodes are not
    assert cominuscule_seen == 43


@criterion(10, "sl2 relations in every minuscule representation; grading "
               "and rescaling invariants")
def test_criterion_10_sl2_and_grading():
    def nonzero(A):
        return {(r, c): x for r, row in enumerate(A)
                for c, x in enumerate(row) if x}

    def matmul(A, B):
        # over nonzero entries only: A[r, k] B[k, c] summed into (r, c)
        rows = {}
        for (k, c), b in B.items():
            rows.setdefault(k, []).append((c, b))
        out = {}
        for (r, k), a in A.items():
            for c, b in rows.get(k, ()):
                out[r, c] = out.get((r, c), 0) + a * b
        return out

    def commutator_is(A, B, scale, C):
        diff = matmul(A, B)
        for rc, x in matmul(B, A).items():
            diff[rc] = diff.get(rc, 0) - x
        return ({rc: x for rc, x in diff.items() if x}
                == {rc: scale * x for rc, x in C.items()})

    for ct, node in ALL_MINUSCULE:
        g = generator_matrices(datum(ct), coset(ct, node))
        e, f, h = (nonzero(g[k].matrix) for k in "efh")
        assert commutator_is(e, f, 1, h), (ct, node)
        assert commutator_is(h, e, 2, e), (ct, node)
        assert commutator_is(h, f, 2, {rc: -x for rc, x in f.items()}), \
            (ct, node)

    # degree homogeneity of every connection matrix the suite builds
    for ct, node in MIRROR_CASES:
        assert check_homogeneous(qc_matrix(ct, node)), (ct, node)
        assert zeta_rescaling_consistent(datum(ct), coset(ct, node),
                                         fg_matrix(ct, node))
    for ct, node in EQUIVARIANT_CASES:
        M = mihalcea_equivariant(datum(ct), qc_matrix(ct, node))
        assert check_homogeneous(M), (ct, node)
    for n in (2, 3, 4):
        d = datum(f"B{n}")
        m = fw_matrix(d, minuscule_coset_reps(d, 1), 1)
        assert check_homogeneous(m), n

    # the period recursion commutes with q -> q / hbar^c, c = deg q
    for ct, node in [("A2", 1), ("A3", 2), ("B3", 3), ("C3", 1), ("D4", 1)]:
        c = datum(ct).coxeter_number
        assert hbar_rescale_consistent(qc_matrix(ct, node), c, 3), (ct, node)


@criterion(11, "Bessel numerics: Wronskian to 1e-8, equivariant series "
               "annihilated exactly")
def test_criterion_11_bessel():
    for y in (1.0, 2.0, 10.0):
        for nu in (0.0, 0.5, 1.3):
            report = bessel_numeric_checks(y, nu)
            assert report["wronskian_error"] < 1e-8, (y, nu)
    for h in (Fraction(0), Fraction(1, 2), Fraction(2, 3)):
        series = equivariant_bessel(h, 20)
        assert len(series.coefficients) == 21
        op = bessel_operator_from_matrix(h)
        # theta^2 - (q + h^2), acting on q^{h+m}
        assert op.coefficients == (
            RatFunc.make((-h * h, -1)),
            RatFunc.make(()),
            RatFunc.make((1,)),
        )
        assert operator_annihilates(op, series, shift=h)
