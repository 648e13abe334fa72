from fractions import Fraction

import pytest

from mmirror import rootsys
from mmirror.rootsys import (
    CartanType,
    _simple_norms,
    build_root_datum,
    gamma_root,
    levi_data,
    minuscule_dimension,
    minuscule_length,
    minuscule_nodes,
    reflection_length,
    simple_root,
)
from mmirror.weyl import minuscule_coset_reps
from reference import (
    fundamental_coweight,
    gauss_jordan_inverse_cartan,
    pairing,
    root_fw,
    root_string_closure,
)


# ---------------------------------------------------------------- parsing

def test_parse_roundtrip():
    assert CartanType.parse("A5") == CartanType("A", 5)
    assert CartanType.parse("b4") == CartanType("B", 4)
    assert CartanType.parse(" e7 ") == CartanType("E", 7)


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D3", "E5", "E8", "F4", "G2", "X3", ""])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        CartanType.parse(bad)


# ------------------------------------------------------- small systems, by hand

def test_a1():
    d = build_root_datum(CartanType("A", 1))
    assert [r.coeffs for r in d.positive_roots] == [(1,)]
    assert d.coxeter_number == 2
    assert d.exponents == (1,)


def test_a3_full_enumeration():
    # A3 positives, written in simple-root coordinates and ordered by
    # height then lexicographic on the coordinate tuples.
    d = build_root_datum(CartanType("A", 3))
    expect = [
        (0, 0, 1), (0, 1, 0), (1, 0, 0),
        (0, 1, 1), (1, 1, 0),
        (1, 1, 1),
    ]
    assert [r.coeffs for r in d.positive_roots] == expect
    assert d.highest_root.coeffs == (1, 1, 1)
    assert d.coxeter_number == 4
    assert d.exponents == (1, 2, 3)
    assert pairing((1,) * d.rank, d.highest_root.coroot) == 3
    # theta in fw coordinates is varpi_1 + varpi_3
    assert d.highest_root.fw == (1, 0, 1)


def test_b2():
    d = build_root_datum(CartanType("B", 2))
    expect = [(0, 1), (1, 0), (1, 1), (1, 2)]
    assert [r.coeffs for r in d.positive_roots] == expect
    # alpha_2 short, theta = alpha_1 + 2 alpha_2 long
    assert simple_root(d, 2).coeffs == (0, 1)
    assert simple_root(d, 2).norm2 == 1
    assert d.highest_root.norm2 == 2
    assert d.highest_root.coroot == (1, 1)
    assert d.coxeter_number == 4
    assert d.exponents == (1, 3)


def test_b3():
    d = build_root_datum(CartanType("B", 3))
    assert len(d.positive_roots) == 9
    assert d.highest_root.coeffs == (1, 2, 2)
    assert d.exponents == (1, 3, 5)
    assert d.coxeter_number == 6
    # theta-vee is the coroot of a long root: (1, 2, 1) in coroot coords
    assert d.highest_root.coroot == (1, 2, 1)
    assert pairing(simple_root(d, 1).fw, d.highest_root.coroot) == 0


def test_c3():
    d = build_root_datum(CartanType("C", 3))
    assert len(d.positive_roots) == 9
    assert d.highest_root.coeffs == (2, 2, 1)
    assert d.highest_root.norm2 == 2
    assert d.highest_root.coroot == (1, 1, 1)
    assert d.coxeter_number == 6


def test_d4():
    d = build_root_datum(CartanType("D", 4))
    assert len(d.positive_roots) == 12
    assert d.highest_root.coeffs == (1, 2, 1, 1)
    assert d.coxeter_number == 6
    assert d.exponents == (1, 3, 3, 5)


def test_e6_e7_counts():
    d6 = build_root_datum(CartanType("E", 6))
    assert len(d6.positive_roots) == 36
    assert d6.coxeter_number == 12
    assert d6.exponents == (1, 4, 5, 7, 8, 11)
    d7 = build_root_datum(CartanType("E", 7))
    assert len(d7.positive_roots) == 63
    assert d7.coxeter_number == 18
    assert d7.exponents == (1, 5, 7, 9, 11, 13, 17)


def test_two_rho_covec():
    # <2rho-vee, alpha_i> = sum over positive coroots; in A2 this is
    # 2*(coroot sum) = (2,2) since the positives are a1, a2, a1+a2.
    d = build_root_datum(CartanType("A", 2))
    assert d.two_rho_covec == (2, 2)


def test_pairing_rank_mismatch():
    with pytest.raises(ValueError):
        pairing((1, 0), (1, 0, 0))


# ------------------------------------------------------------ quantum roots

def test_quantum_roots_simply_laced_all():
    for ct in [CartanType("A", 3), CartanType("D", 4)]:
        d = build_root_datum(ct)
        assert all(reflection_length(d, b) == 2 * sum(b.coroot) - 1
                   for b in d.positive_roots)


def test_quantum_roots_b3():
    # longs plus the short simple alpha_n
    d = build_root_datum(CartanType("B", 3))
    q = {b.coeffs for b in d.positive_roots
         if reflection_length(d, b) == 2 * sum(b.coroot) - 1}
    longs = {r.coeffs for r in d.positive_roots if r.norm2 == 2}
    assert q == longs | {(0, 0, 1)}
    assert len(q) == 7


def test_quantum_roots_c3():
    d = build_root_datum(CartanType("C", 3))
    q = {b.coeffs for b in d.positive_roots
         if reflection_length(d, b) == 2 * sum(b.coroot) - 1}
    assert q == {
        (1, 0, 0), (0, 1, 0), (1, 1, 0),
        (0, 0, 1), (0, 2, 1), (2, 2, 1),
    }


def test_reflection_length_longest_b2():
    d = build_root_datum(CartanType("B", 2))
    # s_theta in B2 has length 3 = <2rho, theta-vee> - 1 (theta quantum)
    assert reflection_length(d, d.highest_root) == 3


# ------------------------------------------------------------- minuscule data

def test_minuscule_tables():
    assert minuscule_nodes(CartanType("A", 4)) == (1, 2, 3, 4)
    assert minuscule_nodes(CartanType("B", 3)) == (3,)
    assert minuscule_nodes(CartanType("C", 3)) == (1,)
    assert minuscule_nodes(CartanType("D", 5)) == (1, 4, 5)
    assert minuscule_nodes(CartanType("E", 6)) == (1, 6)
    assert minuscule_nodes(CartanType("E", 7)) == (7,)

    assert minuscule_dimension(CartanType("A", 4), 2) == 10
    assert minuscule_dimension(CartanType("B", 4), 4) == 16
    assert minuscule_dimension(CartanType("C", 3), 1) == 6
    assert minuscule_dimension(CartanType("D", 4), 1) == 8
    assert minuscule_dimension(CartanType("D", 5), 5) == 16
    assert minuscule_dimension(CartanType("E", 6), 1) == 27
    assert minuscule_dimension(CartanType("E", 7), 7) == 56


@pytest.mark.parametrize("family,rank,node", [
    ("B", 3, 1), ("C", 3, 3), ("D", 5, 2), ("E", 6, 2), ("E", 7, 1),
])
def test_minuscule_dimension_refuses_other_nodes(family, rank, node):
    ct = CartanType(family, rank)
    with pytest.raises(ValueError, match=f"no minuscule data for {ct} "
                                         f"node {node}"):
        minuscule_dimension(ct, node)


@pytest.mark.parametrize("family,ranks", [
    ("A", range(1, 8)), ("B", range(2, 7)), ("C", range(2, 7)),
    ("D", range(4, 8)), ("E", (6, 7)),
])
def test_minuscule_length_counts_the_roots_off_the_levi(family, ranks):
    # dim G/P = |R+| - |R+_L|: the positive roots with a nonzero
    # coordinate at the node; every other node is refused
    for rank in ranks:
        ct = CartanType(family, rank)
        d = build_root_datum(ct)
        for node in range(1, rank + 1):
            if node in minuscule_nodes(ct):
                assert minuscule_length(ct, node) == sum(
                    1 for r in d.positive_roots if r.coeffs[node - 1])
            else:
                with pytest.raises(ValueError, match=f"^node {node} is not "
                                                     f"minuscule for {ct}$"):
                    minuscule_length(ct, node)


def test_gamma_simply_laced():
    d = build_root_datum(CartanType("A", 4))
    for i in (1, 2, 3, 4):
        assert gamma_root(d, i).coeffs == simple_root(d, i).coeffs


def test_gamma_b_and_c():
    db = build_root_datum(CartanType("B", 3))
    assert gamma_root(db, 3).coeffs == (0, 1, 2)
    dc = build_root_datum(CartanType("C", 3))
    assert gamma_root(dc, 1).coeffs == (2, 2, 1)


def test_gamma_rejects_non_minuscule():
    d = build_root_datum(CartanType("B", 3))
    with pytest.raises(ValueError):
        gamma_root(d, 1)


def test_simple_roots_and_gamma_match_closed_forms():
    # simple_root reads alpha_i by position; gamma, the lowest long root
    # off the Levi, is alpha_node (ADE), alpha_{n-1} + 2 alpha_n (B_n) or
    # theta (C_n), at each of the 109 minuscule nodes of rank <= 11
    pairs = 0
    for ct in ([CartanType("A", n) for n in range(1, 12)]
               + [CartanType(f, n) for f in "BC" for n in range(2, 10)]
               + [CartanType("D", n) for n in range(4, 12)]
               + [CartanType("E", 6), CartanType("E", 7)]):
        d = build_root_datum(ct)
        n = d.rank
        for i in range(1, n + 1):
            assert simple_root(d, i).coeffs == tuple(
                int(j == i) for j in range(1, n + 1)), (ct, i)
        for i in (0, n + 1):
            with pytest.raises(ValueError, match=f"^node {i} out of range "
                               f"for {ct}$"):
                simple_root(d, i)
        for node in minuscule_nodes(ct):
            want = {"B": (0,) * (n - 2) + (1, 2),
                    "C": d.highest_root.coeffs}.get(
                        ct.family, simple_root(d, node).coeffs)
            assert gamma_root(d, node).coeffs == want, (ct, node)
            pairs += 1
    assert pairs == 109


@pytest.mark.parametrize("name,node", [("A3", 2), ("C3", 1)])
def test_gamma_refuses_a_datum_with_no_long_root_off_the_levi(name, node):
    # every root read as short: the rule finds no gamma and says so
    d = build_root_datum(CartanType.parse(name))
    short = tuple(r._replace(norm2=1) for r in d.positive_roots)
    with pytest.raises(AssertionError, match=(
            f"^gamma: no long root outside the Levi of {name} node {node}$")):
        gamma_root(d._replace(positive_roots=short), node)


# --------------------------------------------------------------- parabolics

def test_levi_a3_node2():
    d = build_root_datum(CartanType("A", 3))
    p = levi_data(d, node=2)
    assert p.I_P == (1, 3)
    assert {r.coeffs for r in p.levi_positive_roots} == {(1, 0, 0), (0, 0, 1)}
    assert p.two_rho_P == (2, -2, 2)
    assert all(type(x) is int for x in p.two_rho_P)
    assert p.coset_size == 6  # Gr(2,4)
    assert p.gamma.coeffs == (0, 1, 0)
    assert p.I_Q == ()


def test_levi_b3_node3():
    d = build_root_datum(CartanType("B", 3))
    p = levi_data(d, node=3)
    assert p.I_P == (1, 2)
    assert p.coset_size == 8  # 2^3 spinor orbit
    assert p.gamma.coeffs == (0, 1, 2)
    # gamma-vee = (0, 1, 1) in coroot coords; alpha_1 pairs to -1 with it,
    # alpha_2 to 0, so the gamma-orthogonal Levi part is {2}
    assert p.I_Q == (2,)


def test_levi_b4_node4_iq():
    d = build_root_datum(CartanType("B", 4))
    p = levi_data(d, node=4)
    assert p.I_Q == (1, 3)
    assert p.coset_size == 16


def test_levi_c3_node1():
    d = build_root_datum(CartanType("C", 3))
    p = levi_data(d, node=1)
    assert p.coset_size == 6  # P^5
    assert p.gamma.coeffs == (2, 2, 1)
    # gamma = theta is orthogonal to all of R_P here
    assert p.I_Q == (2, 3)


def test_levi_d4_node1():
    d = build_root_datum(CartanType("D", 4))
    p = levi_data(d, node=1)
    assert p.coset_size == 8  # six-dimensional quadric
    assert p.I_Q == (3, 4)


def test_levi_e7():
    d = build_root_datum(CartanType("E", 7))
    p = levi_data(d, node=7)
    assert p.coset_size == 56
    assert len(p.levi_positive_roots) == 36  # E6 inside E7


def test_levi_coxeter_chern_all_minuscule():
    # <2(rho - rho_P), alpha_node-vee> = coxeter number, for every
    # minuscule node in the supported range (checked inside levi_data).
    for ct in [
        CartanType("A", 5), CartanType("B", 4), CartanType("C", 4),
        CartanType("D", 5), CartanType("E", 6), CartanType("E", 7),
    ]:
        d = build_root_datum(ct)
        for node in minuscule_nodes(ct):
            p = levi_data(d, node=node)
            assert p.coset_size == minuscule_dimension(ct, node)


# Every supported type up to rank 6, plus E7.
SMALL_TYPES = (
    [CartanType("A", n) for n in range(1, 7)]
    + [CartanType(f, n) for f in "BC" for n in range(2, 7)]
    + [CartanType("D", n) for n in range(4, 7)]
    + [CartanType("E", 6), CartanType("E", 7)]
)


@pytest.mark.parametrize("ct", SMALL_TYPES, ids=str)
def test_coset_size_equals_orbit_walk(ct):
    # the height product |W^P| against the weak-order walk over W^P
    d = build_root_datum(ct)
    for node in range(1, ct.rank + 1):
        assert levi_data(d, node=node).coset_size == len(
            minuscule_coset_reps(d, node)), node


def test_levi_argument_validation():
    d = build_root_datum(CartanType("A", 3))
    for node in (0, 4, -2):
        with pytest.raises(ValueError, match="out of range"):
            levi_data(d, node=node)


# ------------------------------------------------------------ coweights

def test_fundamental_coweight_a2():
    d = build_root_datum(CartanType("A", 2))
    cw = fundamental_coweight(d, 1)
    assert cw == (Fraction(2, 3), Fraction(1, 3))
    # <varpi_1-vee, alpha_j> = delta_1j, i.e. pairing against rows of A
    for j in (1, 2):
        val = sum(
            Fraction(d.cartan[j - 1][k]) * cw[k] for k in range(2)
        )
        assert val == (1 if j == 1 else 0)


def all_types(max_rank=8):
    out = [CartanType("E", 6), CartanType("E", 7)]
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4)):
        out.extend(CartanType(family, n) for n in range(low, max_rank + 1))
    return out


def test_inverse_cartan_is_exact():
    # integer rows over one denominator: A . rows = den . I, and the
    # fundamental coweights are its columns over den
    for ct in all_types():
        d = build_root_datum(ct)
        den, rows = d.inverse_cartan
        n = d.rank
        assert den > 0 and all(type(x) is int for row in rows for x in row)
        for i in range(n):
            for j in range(n):
                got = sum(d.cartan[i][k] * rows[k][j] for k in range(n))
                assert got == den * (i == j), (ct, i, j)
        for node in range(1, n + 1):
            assert fundamental_coweight(d, node) == tuple(
                Fraction(rows[k][node - 1], den) for k in range(n))
        assert d.inverse_cartan is d.inverse_cartan   # solved once


def test_inverse_cartan_matches_gauss_jordan():
    # the one pass over the Dynkin tree gives the dense elimination's
    # rows over its least denominator, on every type up to rank 24
    types = ([CartanType("A", n) for n in range(1, 25)]
             + [CartanType(f, n) for f in "BC" for n in range(2, 20)]
             + [CartanType("D", n) for n in range(4, 20)]
             + [CartanType("E", 6), CartanType("E", 7)])
    assert len(types) == 78
    for ct in types:
        d = build_root_datum(ct)
        assert d.inverse_cartan == gauss_jordan_inverse_cartan(d.cartan), ct


def test_root_lengths_and_coroots_match_fraction_formula():
    # make_root works in integers; against (beta, beta) = sum c_i d_i fw_i
    # and beta-vee = 2 beta / (beta, beta) with Fraction symmetrizers
    for ct in all_types(7):
        d = build_root_datum(ct)
        n = d.rank
        one, half = Fraction(1), Fraction(1, 2)
        dsym = {"B": [one] * (n - 1) + [half],
                "C": [half] * (n - 1) + [one]}.get(ct.family, [one] * n)
        for r in d.positive_roots:
            norm2 = sum(c * s * f for c, s, f in zip(r.coeffs, dsym, r.fw))
            assert r.norm2 == norm2 and type(r.norm2) is int, (ct, r)
            assert r.coroot == tuple(
                2 * c * s / norm2 for c, s in zip(r.coeffs, dsym)), (ct, r)


@pytest.mark.parametrize("name,norms,message", [
    ("B3", "C", "unexpected root length 1/2 for (0, 1, 1)"),
    ("B4", "C", "unexpected root length 1/2 for (0, 0, 1, 1)"),
    ("B3", "long", "unexpected root length 4 for (0, 1, 2)"),
])
def test_datum_refuses_wrong_root_lengths(monkeypatch, name, norms,
                                          message):
    # the coroot rule trusts the length check: with C's simple norms on
    # B, or every simple root long, some root gets a length outside
    # {1, 2}, and the build names it
    ct = CartanType.parse(name)
    wrong = (_simple_norms(CartanType("C", ct.rank)) if norms == "C"
             else (2,) * ct.rank)
    monkeypatch.setattr(rootsys, "_simple_norms", lambda _: wrong)
    with pytest.raises(AssertionError) as err:
        build_root_datum(ct)
    assert str(err.value) == message


def test_closure_fw_matches_cartan_product():
    # the closure adds a Cartan row per step; against the full product
    for ct in all_types(12):
        d = build_root_datum(ct)
        for r in d.positive_roots:
            assert r.fw == root_fw(r.coeffs, d.cartan), (ct, r.coeffs)
            assert type(r.fw) is tuple, (ct, r.coeffs)


def test_fundamental_weight_pairing():
    d = build_root_datum(CartanType("B", 3))
    w = (0, 0, 1)    # varpi_3
    for j in (1, 2, 3):
        assert pairing(w, simple_root(d, j).coroot) == (1 if j == 3 else 0)


# ------------------------------------- closure by simple reflections

CLOSURE_TYPES = ([f"A{n}" for n in range(1, 13)]
                 + [f"B{n}" for n in range(2, 11)]
                 + [f"C{n}" for n in range(2, 11)]
                 + [f"D{n}" for n in range(4, 11)] + ["E6", "E7"])


def _classical_exponents(ct):
    n = ct.rank
    if ct.family == "A":
        return tuple(range(1, n + 1))
    if ct.family in "BC":
        return tuple(range(1, 2 * n, 2))
    if ct.family == "D":
        return tuple(sorted([*range(1, 2 * n - 2, 2), n - 1]))
    return {6: (1, 4, 5, 7, 8, 11), 7: (1, 5, 7, 9, 11, 13, 17)}[n]


@pytest.mark.parametrize("name", CLOSURE_TYPES)
def test_closure_by_simple_reflections_matches_root_strings(name):
    ct = CartanType.parse(name)
    d = build_root_datum(ct)
    ref = root_string_closure(ct)
    order = sorted(ref, key=lambda c: (sum(c), c))
    assert [r.coeffs for r in d.positive_roots] == order
    assert [r.fw for r in d.positive_roots] == [ref[c] for c in order]
    # (alpha_i, alpha_j) = a_ij (alpha_j, alpha_j) / 2, so (beta, beta) and
    # beta-vee = 2 beta / (beta, beta) follow from the coefficients alone
    norms = _simple_norms(ct)
    a = d.cartan
    for beta, c in zip(d.positive_roots, order):
        twice = sum(c[i] * c[j] * a[i][j] * norms[j]
                    for i in range(ct.rank) for j in range(ct.rank))
        assert beta.norm2 * 2 == twice
        assert beta.coroot == tuple(x * e * 2 // twice
                                    for x, e in zip(c, norms))
    assert d.exponents == _classical_exponents(ct)


@pytest.mark.parametrize("name", ["A5", "B5", "C5", "D6", "E6", "E7"])
def test_reflection_length_counts_inversions(name):
    # every positive alpha with s_beta(alpha) = alpha - <alpha, beta-vee>
    # beta negative, image built coordinate by coordinate
    d = build_root_datum(CartanType.parse(name))
    for beta in d.positive_roots:
        count = 0
        for alpha in d.positive_roots:
            k = pairing(alpha.fw, beta.coroot)
            image = [x - k * b for x, b in zip(alpha.coeffs, beta.coeffs)]
            count += all(x <= 0 for x in image)
        assert reflection_length(d, beta) == count, beta
