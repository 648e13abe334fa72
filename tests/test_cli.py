import argparse
import hashlib
import inspect
import json
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import mmirror.cli as cli
from mmirror import (crystal_potential, json_text, minrep, period_gw, qchev,
                     rootsys, weyl)
from mmirror.cli import _load_case_list, main
from mmirror.crystal_potential import DEFAULT_BUDGET
from mmirror.qchev import ConnMatrix
from mmirror.rootsys import CartanType, minuscule_dimension, minuscule_nodes

from reference import LaurentPoly, battery, rep_elements


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# ------------------------------------------------------------------- dumps

def test_roots_dump(capsys):
    code, doc = run_json(capsys, "roots", "A3", "--node", "2")
    assert code == 0
    assert doc["schema"] == "mm/1"
    assert doc["case"] == "A3"
    assert doc["coxeter_number"] == 4
    assert len(doc["positive_roots"]) == 6
    assert doc["parabolic"]["gamma"] == [0, 1, 0]
    assert doc["parabolic"]["coset_size"] == 6


@pytest.mark.parametrize("argv,digest", [
    (("E7", "--node", "7"),
     "896bc0ec9fc32f3d87c8acb0861f7f885fe173c6c5fd9cf136466cf2a84fd99a"),
    # half-integer rho_P; gamma and I_Q are null off the minuscule node
    (("B4", "--node", "1"),
     "796ee06cdcecca58421131da0ef2e10064399c6d2a87e5b4c953951aaa7ffa34"),
    (("C5",),
     "cc66b436c792d0c2d97ea32f3f5448c2cb1078881cf3749ddccc48fb29bc238b"),
    # a minuscule node with a nonempty I_Q
    (("E6", "--node", "1"),
     "a9e6fe470f42fc125b437e6901687b572dd0b8cecf7dc941b62c86c7276a6c52"),
    # an interior node: gamma and I_Q null, |W^P| = 80
    (("D5", "--node", "3"),
     "fbede698975e7e325a5f9dba2ed6de2dbf055683c55fc8d0a1db527ce80f5b6b"),
])
def test_roots_golden(capsys, argv, digest):
    code, out, err = run(capsys, "roots", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_roots_without_node(capsys):
    code, doc = run_json(capsys, "roots", "B2")
    assert code == 0
    assert "parabolic" not in doc


@pytest.mark.parametrize("node", ["9", "-2", "0"])
def test_roots_node_out_of_range(capsys, node):
    code, out, err = run(capsys, "roots", "A3", "--node", node)
    assert code == 1
    assert out == ""
    assert "out of range" in err


def test_chevalley_p1(capsys):
    code, doc = run_json(capsys, "chevalley", "A1", "--node", "1")
    assert code == 0
    assert doc["size"] == 2
    assert doc["variables"] == ["q"]
    assert doc["entries"][0][1] == [[[1], "1"]]   # q in the corner
    assert doc["entries"][1][0] == [[[0], "1"]]
    assert doc["entries"][0][0] == []
    assert doc["basis"][1] == {"word": [1], "length": 1}


def test_chevalley_equivariant_p1(capsys):
    code, doc = run_json(capsys, "chevalley", "A1", "--node", "1",
                         "--equivariant")
    assert code == 0
    assert doc["variables"] == ["q", "h1"]
    assert doc["entries"][0][0] == [[[0, 1], "-1/2"]]
    assert doc["entries"][1][1] == [[[0, 1], "1/2"]]
    assert doc["equivariant"] is True


@pytest.mark.parametrize("ct,node,digest", [
    ("E7", "7",
     "ba2a78b4cf3cf16189a17a75e2491a319d34f2afad3434857eb299cabb125e9c"),
    ("E6", "1",
     "ec7802d8b46aa9070f90e67ae4d9fb3e5212f46b7aea06440cd130438d0db1b8"),
    ("B4", "4",
     "e902f48c6787805553f1298d670028e9b1a900c9f11fcecc85cec6adad0d113e"),
])
def test_chevalley_equivariant_golden(capsys, ct, node, digest):
    code, out, err = run(capsys, "chevalley", ct, "--node", node,
                         "--equivariant")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_chevalley_csv_quadric(capsys):
    code, out, err = run(capsys, "chevalley", "B3", "--node", "1",
                         "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "0,0,0,0,q,0",
        "1,0,0,0,0,q",
        "0,1,0,0,0,0",
        "0,0,2,0,0,0",
        "0,0,0,1,0,0",
        "0,0,0,0,1,0",
    ]


def test_chevalley_csv_refuses_equivariant(capsys):
    code, out, err = run(capsys, "chevalley", "A2", "--node", "1",
                         "--equivariant", "--format", "csv")
    assert code == 1
    assert "csv" in err


def test_unsupported_case_is_an_error(capsys):
    code, out, err = run(capsys, "chevalley", "C3", "--node", "2")
    assert code == 1
    assert "unsupported case" in err


# ------------------------------------------------------------------ series

def test_period_projective(capsys):
    code, doc = run_json(capsys, "period", "A2", "--node", "1",
                         "--max-degree", "3")
    assert code == 0
    assert doc["coefficients"] == ["1", "1", "1/8", "1/216"]


def test_series_json(capsys):
    code, doc = run_json(capsys, "period", "A1", "--node", "1",
                         "--max-degree", "2")
    assert code == 0
    assert doc["coefficients"] == ["1", "1", "1/4"]


def test_gw_golden(capsys):
    code, doc = run_json(capsys, "gw", "2", "4", "1")
    assert code == 0
    assert doc["power"] == 4
    assert doc["constant_term"] == "48"
    assert doc["value"] == "2"


def test_gw_golden_gr37_degree_two(capsys):
    code, doc = run_json(capsys, "gw", "3", "7", "2")
    assert code == 0
    assert doc["power"] == 14
    assert doc["constant_term"] == "382767184800"
    assert doc["value"] == "281/64"


def test_gw_budget_exceeded(capsys):
    code, out, err = run(capsys, "gw", "2", "5", "1", "--budget", "2")
    assert code == 1
    assert out == ""
    assert "budget" in err


def test_gw_too_many_variables(capsys):
    # one bound on the word of w^P: Gr(7,14) has 49 letters, Gr(3,8) 15
    assert run(capsys, "gw", "7", "14", "1") == (
        1, "", "error: A13 node 7: the word of w^P has 49 letters, above "
               "the bound 36\n")
    code, doc = run_json(capsys, "gw", "3", "8", "1")
    assert code == 0 and doc["value"] == "15"


def test_potential_gr25(capsys):
    code, doc = run_json(capsys, "potential", "2", "5")
    assert code == 0
    assert doc["variables"] == ["a1", "a2", "a3", "a4", "a5", "a6"]
    assert doc["coxeter"] == 5
    got = {tuple(exps) for exps, _ in doc["quantum"]}
    assert got == {
        (0, 0, -1, -1, -1, -1),
        (0, -1, -1, -1, -1, 0),
        (-1, -1, -1, -1, 0, 0),
    }
    assert all(coeff == "1" for _, coeff in doc["quantum"])


def test_scalar_ode_d4(capsys):
    code, doc = run_json(capsys, "scalar-ode", "D4", "--node", "1")
    assert code == 0
    assert doc["block"] == "rank-7 invariant complement"
    assert doc["size"] == 7
    assert doc["order"] == 7
    coeffs = doc["coefficients"]
    assert coeffs[0] == {"num": ["0", "-2"], "den": ["1"]}
    assert coeffs[1] == {"num": ["0", "-4"], "den": ["1"]}
    assert coeffs[7] == {"num": ["1"], "den": ["1"]}
    assert all(c == {"num": [], "den": ["1"]} for c in coeffs[2:7])


def test_scalar_ode_projective(capsys):
    code, doc = run_json(capsys, "scalar-ode", "A3", "--node", "1")
    assert code == 0
    assert doc["block"] == "full matrix"
    assert doc["order"] == 4
    assert doc["coefficients"][0] == {"num": ["0", "-1"], "den": ["1"]}
    assert doc["coefficients"][4] == {"num": ["1"], "den": ["1"]}


def test_scalar_ode_b5_spinor_golden(capsys):
    # the one case here whose operator has non-constant denominators
    code, out, err = run(capsys, "scalar-ode", "B5", "--node", "5")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["order"] == 32
    assert [len(c["den"]) for c in doc["coefficients"]] == [4] * 32 + [1]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0776ea7bc9a686bdf35e28bd443bfea6f7dd1291c2aec00633a364e6785c20f8")


@pytest.mark.parametrize("ct,node,order,digest", [
    ("E7", "7", 56,
     "4c136b01437f53a21f6aab1252ce23dd24c34198f49357d848c792c641ba0d97"),
    ("A7", "4", 42,
     "05a553136564e7c7377f7be3a36be3e8fa14bb81230fea2ca250784ccd4c8842"),
    ("E6", "1", 26,
     "2136b1f6f108e45c1c70404732b6d731ce65f5241ff93b9cc9afb11ab296997b"),
    ("D5", "5", 16,
     "28b5ba28d81fb3a039908221020c2666ec3dd1c438a1079b55e22444cc00b2f1"),
    ("A5", "3", 14,
     "58242a95d21a04d15a73bebac6534e47617c9f40aa39e701143307c6e3d74b89"),
])
def test_scalar_ode_golden(capsys, ct, node, order, digest):
    code, out, err = run(capsys, "scalar-ode", ct, "--node", node)
    assert code == 0 and err == ""
    assert json.loads(out)["order"] == order
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bessel_report(capsys):
    code, doc = run_json(capsys, "bessel", "2.0", "0.0")
    assert code == 0
    assert doc["pass"] is True
    assert doc["wronskian_error"] < 1e-8
    assert abs(doc["wronskian"] - 0.5) < 1e-8


@pytest.mark.parametrize("y,nu", [("0.01", "2.0"), ("25", "0")])
def test_bessel_report_small_and_large_y(capsys, y, nu):
    code, doc = run_json(capsys, "bessel", y, nu)
    assert code == 0
    assert doc["pass"] is True


@pytest.mark.parametrize("y,nu", [("1e-7", "10"), ("1e-8", "0"),
                                  ("1", "-0.5")])
def test_bessel_report_tiny_y_and_negative_nu(capsys, y, nu):
    # the Wronskian is judged relative to 1/y, which is 1e8 at y = 1e-8
    code, doc = run_json(capsys, "bessel", y, nu)
    assert code == 0
    assert doc["pass"] is True


@pytest.mark.parametrize("y,nu", [("0.5", "100"), ("0.562", "100"),
                                  ("50", "170.5"), ("30", "171"),
                                  ("10", "171"), ("50", "300")])
def test_bessel_report_large_nu(capsys, y, nu):
    # K_nu's trapezoid step shrinks with its integrand's peak; with a
    # fixed step of 0.1 the Wronskian error at nu = 100 was 1.7e-8.  At
    # nu = 170.5 and 171 Gamma(nu + 2) overflows, and the I series starts
    # from its logarithm.  At (10, 171) and (50, 300) cosh(nu t) overflows
    # inside K's integrand while K is finite
    code, doc = run_json(capsys, "bessel", y, nu)
    assert code == 0
    assert doc["pass"] is True
    assert doc["wronskian_error"] < 1e-12


@pytest.mark.parametrize("y,nu,names", [
    ("2", "nan", ("nu = nan",)),
    ("2", "inf", ("nu = inf",)),
    ("1", "-1", ("nu = -1.0",)),
    ("1", "-1.5", ("nu = -1.5",)),
    ("0.01", "200", ("y = 0.01", "nu = 200.0", "beyond float range")),
    ("1", "200", ("y = 1.0", "nu = 200.0", "beyond float range")),
    # argparse would read -inf as an option flag
    ("2", "-inf", ("nu = -inf must be finite and > -1\n",)),
    # K_300(0.1) itself is beyond float range
    ("0.1", "300", ("y = 0.1", "nu = 300.0", "beyond float range")),
    # K_2 at a tiny y: the trapezoid sum reaches inf without raising,
    # which once printed a bare Infinity with "pass": false
    ("1e-154", "1", ("y = 1e-154", "nu = 1.0", "beyond float range")),
    ("1e-300", "1", ("y = 1e-300", "nu = 1.0", "beyond float range")),
])
def test_bessel_refusals_name_nu(capsys, y, nu, names):
    code, out, err = run(capsys, "bessel", y, nu)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in names), err


@pytest.mark.parametrize("nu", ["-1e-3", "-5E-1", "-.5e0"])
def test_bessel_takes_negative_nu_with_exponent(capsys, tmp_path, nu):
    # argparse would read these as option flags on some Python versions
    code, out, err = run(capsys, "bessel", "1", nu)
    assert code == 0 and err == ""
    assert (code, out, err) == run(capsys, "bessel", "1", "--", nu)
    path = tmp_path / "bessel.json"
    assert run(capsys, "bessel", "1", nu, "--output", str(path)) == (0, "",
                                                                      "")
    assert path.read_text() == out


def test_bessel_output_value_is_not_a_number(capsys):
    # a negative number after --output stays its value, refused as before
    with pytest.raises(SystemExit) as exit_:
        main(["bessel", "1", "--output", "-1e-3", "2"])
    assert exit_.value.code == 2
    assert "--output: expected one argument" in capsys.readouterr().err


# ------------------------------------------------------------------ verify

def test_verify_single_case(capsys):
    code, doc = run_json(capsys, "verify", "A4", "--node", "2",
                         "--max-degree", "2")
    assert code == 0
    assert doc["pass"] is True
    case = doc["cases"][0]
    names = [c["name"] for c in case["checks"]]
    assert names == ["mirror", "equivariant", "homogeneous", "poincare",
                     "period", "constant_term"]
    ct = case["checks"][-1]
    assert ct["pass"] is True
    assert "3" in ct["detail"]


def test_verify_quadric_case(capsys):
    code, doc = run_json(capsys, "verify", "B3", "--node", "1")
    assert code == 0
    names = [c["name"] for c in doc["cases"][0]["checks"]]
    assert names == ["fw_products", "homogeneous", "period_positive",
                     "x6_relation"]


def test_verify_d4_case(capsys):
    code, doc = run_json(capsys, "verify", "D4", "--node", "1")
    assert code == 0
    names = [c["name"] for c in doc["cases"][0]["checks"]]
    assert "wgamma" in names
    assert "d4_kernel" in names
    assert "d4_scalar" in names
    scalar = next(c for c in doc["cases"][0]["checks"]
                  if c["name"] == "d4_scalar")
    assert "theta^7 - 4q*theta - 2q" in scalar["detail"]


def test_verify_adhoc_case_not_in_list(capsys):
    # B5 node 1 is a supported quadric even though --all does not pin it
    code, doc = run_json(capsys, "verify", "B5", "--node", "1")
    assert code == 0
    assert doc["cases"][0]["dim"] == 10


def test_verify_bad_node_fails(capsys):
    code, doc = run_json(capsys, "verify", "A3", "--node", "9")
    assert code == 1
    assert doc["pass"] is False


def test_verify_needs_case_or_all(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 1
    assert "case or --all" in err


@pytest.mark.parametrize("argv", [
    ("verify", "A3", "--node", "2", "--all"),
    ("verify", "--all", "--node", "3"),
    ("verify", "A3", "--all"),
])
def test_verify_refuses_case_with_all(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_run_case", _never)
    assert run(capsys, *argv) == (
        1, "", "error: verify takes a case or --all, not both\n")


@pytest.mark.parametrize("argv", [
    ("verify", "A3", "--node", "2", "--budget", "-3"),
    ("verify", "--all", "--budget", "0"),
    ("gw", "2", "5", "1", "--budget", "0"),
])
def test_budget_below_one_refused(capsys, monkeypatch, argv):
    # bad input is an input error, not a failed constant-term check
    for name in ("_run_case", "potential_typeA"):
        monkeypatch.setattr(cli, name, _never)
    budget = argv[-1]
    assert run(capsys, *argv) == (
        1, "", f"error: --budget {budget} is below 1\n")


def test_gw_refuses_a_negative_degree_by_name(capsys, monkeypatch):
    # the degree the user typed, not the power h * d it would become
    monkeypatch.setattr(cli, "potential_typeA", _never)
    assert run(capsys, "gw", "2", "5", "-1") == (
        1, "", "error: degree -1 is below 0\n")


def test_budget_of_one_is_a_budget(capsys):
    # the smallest admitted budget reaches the route and is exceeded there
    code, out, err = run(capsys, "gw", "2", "5", "1", "--budget", "1")
    assert code == 1 and out == ""
    assert "budget" in err and "below 1" not in err


def test_verify_budget_exhaustion_fails_constant_term_alone(capsys):
    # the run's budget reaches the constant-term check and only it fails
    code, doc = run_json(capsys, "verify", "A3", "--node", "2",
                         "--budget", "1")
    assert code == 1
    assert doc["counts"] == {"cases": 1, "checks": 7, "failed": 1}
    failed = [ch for ch in doc["cases"][0]["checks"] if not ch["pass"]]
    assert failed == [{
        "name": "constant_term", "pass": False,
        "detail": "enumeration budget exceeded: constant-term route needs "
                  "more than its budget of 1 term products"}]


def test_default_budget_stops_a_deep_constant_term_fast(capsys):
    # --max-degree 100 deepens the constant term of Gr(3,6) too; the
    # default budget, set from the largest route the tests and pinned
    # commands form, fails it by name within a second or so (10^7 term
    # products ran 35 s)
    start = time.monotonic()
    code, doc = run_json(capsys, "verify", "A5", "--node", "3",
                         "--max-degree", "100")
    assert time.monotonic() - start < 10
    assert code == 1 and doc["counts"]["failed"] == 1
    failed = [ch for ch in doc["cases"][0]["checks"] if not ch["pass"]]
    assert failed == [{
        "name": "constant_term", "pass": False,
        "detail": "enumeration budget exceeded: constant-term route needs "
                  f"more than its budget of {DEFAULT_BUDGET} term products"}]


# ------------------------------------------------------- failure details

def _mirror_check(report):
    return next(c for c in report["checks"] if c["name"] == "mirror")


def test_mirror_failure_names_first_difference(monkeypatch):
    original = cli.fg_connection

    def corrupted(d, reps):
        F = original(d, reps)
        cells = dict(F.cells)
        cells[2, 0] = (LaurentPoly(F.variables, F.entry(2, 0)) + 5).terms
        return ConnMatrix(F.basis, F.variables, F.size, cells)

    monkeypatch.setattr(cli, "fg_connection", corrupted)
    check = _mirror_check(cli._run_case({"cartan": "A2", "node": 1},
                                        None, 10_000))
    assert not check["pass"]
    assert "(2, 0)" in check["detail"]
    assert "0 vs 5" in check["detail"]


def test_mirror_failure_names_missing_cell(monkeypatch):
    # a cell the Chevalley side has and f + q x_theta lacks is named too
    original = cli.fg_connection

    def dropped(d, reps):
        F = original(d, reps)
        cells = dict(F.cells)
        del cells[1, 0]
        return ConnMatrix(F.basis, F.variables, F.size, cells)

    monkeypatch.setattr(cli, "fg_connection", dropped)
    check = _mirror_check(cli._run_case({"cartan": "A2", "node": 1},
                                        None, 10_000))
    assert not check["pass"]
    assert check["detail"].endswith(" at (1, 0): 1 vs 0")


def test_wgamma_position_failure_names_column(monkeypatch):
    # with W(gamma) emptied, the q entry of P^2 at (0, 2) is unexplained
    monkeypatch.setattr(cli, "w_gamma_set", lambda d, reps: [])
    case = cli.Case("A2", 1)
    check = _mirror_check(cli._run_case({"cartan": "A2", "node": 1},
                                        None, 10_000))
    assert not check["pass"]
    assert "(0, 2)" in check["detail"]
    assert repr(rep_elements(case.d, case.reps)[2]) in check["detail"]


@pytest.mark.parametrize("cartan,node,cell,change,detail", [
    # a q-cell of the six-dimensional quadric doubled
    ("D4", 1, (0, 6), lambda e, q: e * 2,
     "q-part at (0, 6) is 2*q but W(gamma) gives q "
     "(column w = W[2.3.4.2.1])"),
    # a q where the identity's column has none
    ("A1", 1, (1, 0), lambda e, q: e + q,
     "q-part at (1, 0) is q but W(gamma) gives 0 (column w = W[e])"),
], ids=["D4-doubled", "A1-identity-column"])
def test_wgamma_position_failure_detail(cartan, node, cell, change, detail):
    case = cli.Case(cartan, node)
    M = case.matrix
    cells = dict(M.cells)
    cells[cell] = change(LaurentPoly(M.variables, M.entry(*cell)),
                         LaurentPoly.var(M.variables, "q")).terms
    case.matrix = ConnMatrix(M.basis, M.variables, M.size, cells)
    with pytest.raises(cli.CheckFailure) as failure:
        cli._check_wgamma_positions(case)
    assert str(failure.value) == detail


def _q_moved(build, cell, row):
    """build, with the q term of ``cell`` moved to ``row`` of its column."""
    def mutated(*args):
        M = build(*args)
        cells = {rc: dict(terms) for rc, terms in M.cells.items()}
        del cells[cell][(1,)]
        if not cells[cell]:
            del cells[cell]
        cells.setdefault((row, cell[1]), {})[(1,)] = 1
        return ConnMatrix(M.basis, M.variables, M.size, cells)
    return mutated


@pytest.mark.parametrize("cell,row,detail", [
    # moved down: the emptied W(gamma) position is the first bad cell
    ((2, 23), 4, "q-part at (2, 23) is 0 but W(gamma) gives q "
                 "(column w = W[2.3.1.4.3.5.4.2.6.5.4.3.1])"),
    # moved up: the q off W(gamma) comes first
    ((3, 24), 0, "q-part at (0, 24) is q but W(gamma) gives 0 "
                 "(column w = W[4.2.3.1.4.3.5.4.2.6.5.4.3.1])"),
], ids=["moved-down", "moved-up"])
def test_moved_q_cell_named_in_mirror_detail(monkeypatch, cell, row, detail):
    # both sides moved alike, so the matrices agree and the q-part check
    # alone fails the mirror check of the pinned E6 n1 case
    for name in ("fw_matrix", "fg_connection"):
        monkeypatch.setattr(cli, name, _q_moved(getattr(cli, name), cell,
                                                row))
    entry, = [e for e in _load_case_list()
              if (e["cartan"], e["node"]) == ("E6", 1)]
    check = _mirror_check(cli._run_case(entry, None, 10_000))
    assert check == {"name": "mirror", "pass": False, "detail": detail}


def _equivariant_check(report):
    return next(c for c in report["checks"] if c["name"] == "equivariant")


def _corrupted_diagonal_check(monkeypatch, side):
    """The equivariant check of P^2 with one integer coordinate of column
    1 moved on one side (the cli name ``side``)."""
    original = getattr(cli, side)

    def corrupted(*args):
        den, rows = original(*args)
        rows = list(rows)
        rows[1] = (rows[1][0] + 1,) + rows[1][1:]
        return den, rows

    monkeypatch.setattr(cli, side, corrupted)
    return _equivariant_check(cli._run_case({"cartan": "A2", "node": 1},
                                            None, 10_000))


def test_equivariant_failure_names_first_difference(monkeypatch):
    check = _corrupted_diagonal_check(monkeypatch, "mihalcea_diagonal")
    assert not check["pass"]
    assert "(1, 1)" in check["detail"]


def test_equivariant_rep_side_failure_names_first_difference(monkeypatch):
    check = _corrupted_diagonal_check(monkeypatch, "coweight_diagonal")
    assert not check["pass"]
    assert check["detail"] == ("equivariant matrices differ at (1, 1): "
                               "-1/3*h2+1/3*h1 vs -1/3*h2+1/6*h1")


def test_equivariant_fails_on_q_cell_alone():
    # a q-cell of f + q x_theta doubled fails the equivariant check on its
    # own, with the mirror check never run
    case = cli.Case("A2", 1)
    F = case.fg
    cells = dict(F.cells)
    cells[0, 2] = {k: 2 * v for k, v in F.entry(0, 2).items()}
    case.fg = ConnMatrix(F.basis, F.variables, F.size, cells)
    with pytest.raises(cli.CheckFailure) as failure:
        cli._CHECKS["equivariant"][0](case)
    assert str(failure.value) == ("equivariant matrices differ at (0, 2): "
                                  "q vs 2*q")


# ------------------------------------------------------------ size guards

@pytest.mark.parametrize("argv,size", [
    (("chevalley", "A20", "--node", "10"), comb(21, 10)),
])
def test_oversized_orbit_refused(capsys, monkeypatch, argv, size):
    def never(*args, **kwargs):
        raise AssertionError("enumeration started before the size guard")

    for name in ("build_root_datum", "levi_data", "minuscule_coset_reps"):
        monkeypatch.setattr(cli, name, never)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert str(size) in err
    assert str(cli.MAX_ORBIT_SIZE) in err


def _never(*args, **kwargs):
    raise AssertionError("this enumeration must not run")


@pytest.mark.parametrize("argv", [
    ("chevalley", "A20000", "--node", "10000"),
    ("period", "A20000", "--node", "10000"),
    ("scalar-ode", "D20000", "--node", "20000"),
    ("roots", "A1000000", "--node", "500000"),
    ("roots", "A4000000", "--node", "2"),
    ("verify", "D20000", "--node", "20000"),
    ("verify", "A100000", "--node", "50000"),
])
def test_huge_case_refused_by_its_root_count(capsys, monkeypatch, argv):
    # the root guard runs first: nothing of size rank is formed, neither
    # the node tuple, nor the orbit size, nor the datum, and one line
    # names the case and the root limit
    for name in ("minuscule_nodes", "minuscule_dimension",
                 "build_root_datum"):
        monkeypatch.setattr(cli, name, _never)
    code, out, err = run(capsys, *argv)
    assert code == 1
    if argv[0] == "verify":
        assert err == ""
        check, = json.loads(out)["cases"][0]["checks"]
        assert check["name"] == "setup" and not check["pass"]
        message = check["detail"]
    else:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1
        message = err
    assert f"{argv[1]} has " in message
    assert f"limit of {cli.MAX_POSITIVE_ROOTS}" in message
    assert cli.MAX_POSITIVE_ROOTS == 1000
    assert "set_int_max_str_digits" not in message


def test_every_orbit_size_within_the_root_limit_prints_in_full(capsys,
                                                               monkeypatch):
    # past the root guard the rank is bounded, so at each family's largest
    # admitted rank every minuscule node's exact size is formed, and a
    # refusal prints it whole (A44 n22, B31 n31, D32 n32 among them); an
    # admitted case passes the orbit guard and reaches build_root_datum
    monkeypatch.setattr(cli, "build_root_datum", _never)
    limit = cli.MAX_POSITIVE_ROOTS
    roots = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
             "C": lambda n: n * n, "D": lambda n: n * (n - 1)}
    sizes = {"A": lambda n, k: comb(n + 1, k), "B": lambda n, k: 2 ** n,
             "C": lambda n, k: 2 * n,
             "D": lambda n, k: 2 * n if k == 1 else 2 ** (n - 1)}
    cases = [(CartanType("E", 6), {1: 27, 6: 27}),
             (CartanType("E", 7), {7: 56})]
    for family, count in roots.items():
        rank = max(n for n in range(1, limit + 1) if count(n) <= limit)
        code, out, err = run(capsys, "roots", f"{family}{rank + 1}")
        assert code == 1 and " positive roots, more than " in err
        ct = CartanType(family, rank)
        cases.append((ct, {k: sizes[family](rank, k)
                           for k in minuscule_nodes(ct)}))
    assert {str(ct) for ct, _ in cases} >= {"A44", "B31", "C31", "D32"}
    refused = set()
    for ct, node_sizes in cases:
        for node, size in node_sizes.items():
            assert minuscule_dimension(ct, node) == size
            argv = ("chevalley", str(ct), "--node", str(node))
            if size <= cli.MAX_ORBIT_SIZE:
                with pytest.raises(AssertionError, match="must not run"):
                    main(list(argv))
                continue
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == (f"error: {ct} node {node} has {size} Schubert "
                           f"classes, more than the limit of "
                           f"{cli.MAX_ORBIT_SIZE}\n")
            refused.add((str(ct), node))
    assert {("A44", 22), ("B31", 31), ("D32", 32)} <= refused


_REFUSED_UNBUILT = {
    ("roots", "A400"):
        "A400 has 80200 positive roots, more than the limit of 1000",
    ("chevalley", "A400", "--node", "1"):
        "A400 has 80200 positive roots, more than the limit of 1000",
    ("scalar-ode", "A30", "--node", "2"):
        "A30 node 2 has 465 Schubert classes, more than the scalar-ode "
        "limit of 72",
    ("chevalley", "B3", "--node", "1", "--equivariant"):
        "equivariant matrix needs a minuscule node",
    ("chevalley", "A3", "--node", "2", "--equivariant", "--format", "csv"):
        "csv output is limited to the single-variable matrix; use json for "
        "the equivariant one",
    ("period", "A3", "--node", "2", "--max-degree", "-1"):
        "period depth -1 is below 0",
}


@pytest.mark.parametrize("argv", _REFUSED_UNBUILT, ids=" ".join)
def test_refused_before_any_datum_is_built(capsys, monkeypatch, argv):
    # a case builds nothing until it is read, so each refusal, of the
    # case or of its command, is one line and no datum is built
    monkeypatch.setattr(cli, "build_root_datum", _never)
    assert run(capsys, *argv) == (1, "", f"error: {_REFUSED_UNBUILT[argv]}\n")


@pytest.mark.parametrize("argv", [
    ("period", "A3", "--node", "2"),
    ("verify", "A3", "--node", "2"),
    ("verify", "--all"),
])
def test_deep_period_refused(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "quantum_period", _never)
    depth = str(cli.MAX_PERIOD_DEGREE + 1)
    code, out, err = run(capsys, *argv, "--max-degree", depth)
    assert code == 1
    assert out == ""
    assert f"period depth {depth}" in err
    assert str(cli.MAX_PERIOD_DEGREE) in err


@pytest.mark.parametrize("argv", [
    ("verify", "A3", "--node", "2"),
    ("verify", "--all"),
])
def test_verify_depth_zero_refused(capsys, monkeypatch, argv):
    # the period checks read c_1, so depth 0 cannot be verified
    monkeypatch.setattr(cli, "quantum_period", _never)
    code, out, err = run(capsys, *argv, "--max-degree", "0")
    assert code == 1
    assert out == ""
    assert "verify depth 0 is below 1" in err


def test_verify_node_zero_reported_out_of_range(capsys):
    # node 0 is a node, not a missing --node
    code, doc = run_json(capsys, "verify", "A3", "--node", "0")
    assert code == 1
    check, = doc["cases"][0]["checks"]
    assert check["name"] == "setup"
    assert check["detail"] == "node 0 out of range for A3"


def test_period_depth_zero_is_a_depth(capsys):
    code, doc = run_json(capsys, "period", "A3", "--node", "2",
                         "--max-degree", "0")
    assert code == 0
    assert doc["max_degree"] == 0
    assert doc["coefficients"] == ["1"]


@pytest.mark.parametrize("argv,size", [
    (("scalar-ode", "B7", "--node", "7"), 128),
    (("scalar-ode", "A8", "--node", "3"), 84),
    (("scalar-ode", "A12", "--node", "2"), 78),
])
def test_large_scalar_ode_refused(capsys, monkeypatch, argv, size):
    for name in ("cyclic_scalar_operator", "fw_matrix"):
        monkeypatch.setattr(cli, name, _never)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"{size} Schubert classes" in err
    assert str(cli.MAX_SCALAR_ODE_SIZE) in err


def test_scalar_ode_limit_is_inclusive(capsys, monkeypatch):
    # A5 n3 has 20 classes; A6 n3 has 35
    monkeypatch.setattr(cli, "MAX_SCALAR_ODE_SIZE", 20)
    code, doc = run_json(capsys, "scalar-ode", "A5", "--node", "3")
    assert code == 0 and doc["size"] == 20
    monkeypatch.setattr(cli, "cyclic_scalar_operator", _never)
    code, out, err = run(capsys, "scalar-ode", "A6", "--node", "3")
    assert code == 1 and "35 Schubert classes" in err


def test_unprintable_period_names_case(capsys):
    # c_100 of P^4 is 1/(100!)^5, 790 digits: above a lowered print limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "period", "A4", "--node", "1",
                             "--max-degree", "100")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    assert out == ""
    assert "A4 node 1 to depth 100" in err
    assert "640 digits" in err
    code, out, _ = run(capsys, "period", "A4", "--node", "1",
                       "--max-degree", "100")
    assert code == 0
    assert len(json.loads(out)["coefficients"]) == 101


def test_unprintable_gw_names_case(capsys):
    # CT(W^400) of P^1 is C(400, 200), 120 digits, and 400! has 869:
    # the value is above a lowered print limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "gw", "1", "2", "200")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Gr(1,2) degree 200" in err
    assert "640 digits" in err
    code, out, _ = run(capsys, "gw", "1", "2", "200")
    assert code == 0
    assert json.loads(out)["power"] == 400


def test_roots_coset_size_without_orbit_walk(capsys, monkeypatch):
    # roots has no orbit guard, as it walks no orbit: its |W^P| is the
    # closed-form height product at any node, minuscule ones past the
    # orbit limit of the other commands included
    for module in (cli, weyl):
        monkeypatch.setattr(module, "minuscule_coset_reps", _never)
    for cartan, node, size in (("B20", 10, 2 ** 10 * comb(20, 10)),
                               ("A20", 10, comb(21, 10)),
                               ("A44", 22, 4116715363800)):
        assert size > cli.MAX_ORBIT_SIZE
        code, doc = run_json(capsys, "roots", cartan, "--node", str(node))
        assert code == 0
        assert doc["parabolic"]["coset_size"] == size
    assert 2 ** 10 * comb(20, 10) == 189190144


@pytest.mark.parametrize("cartan,node", [("A3", 2), ("D4", 1)])
def test_verify_builds_case_objects_once(capsys, monkeypatch, cartan, node):
    calls = Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    # wrap every module-level binding, so that no route escapes the count
    for module in (cli, rootsys, weyl, qchev, minrep, period_gw,
                   crystal_potential):
        for name in ("build_root_datum", "levi_data",
                     "minuscule_coset_reps", "fw_matrix", "d4_split"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    code, doc = run_json(capsys, "verify", cartan, "--node", str(node))
    assert code == 0 and doc["pass"]
    want = {"build_root_datum": 1, "levi_data": 1,
            "minuscule_coset_reps": 1, "fw_matrix": 1}
    if (cartan, node) == ("D4", 1):
        want["d4_split"] = 1          # d4_kernel and d4_scalar share it
    assert calls == want


@pytest.mark.parametrize("cartan,node", [("A3", 2), ("D4", 1)])
def test_verify_builds_fg_connection_once(capsys, monkeypatch, cartan, node):
    # mirror and equivariant both read the case's one f + q x_theta
    calls = []
    original = minrep.fg_connection

    def counted(d, reps):
        calls.append(reps)
        return original(d, reps)

    for module in (cli, minrep):
        monkeypatch.setattr(module, "fg_connection", counted)
    code, doc = run_json(capsys, "verify", cartan, "--node", str(node))
    assert code == 0 and doc["pass"]
    assert len(calls) == 1


@pytest.mark.parametrize("cartan,node", [("A3", 2), ("D4", 1), ("A4", 2),
                                         ("A5", 3)])
def test_verify_computes_period_once(capsys, monkeypatch, cartan, node):
    # period, constant_term and d4_kernel all read one series of the matrix,
    # also where constant_term is shallower (ct_degree 2 on A4 n2 and 1 on
    # A5 n3, against the period's depth 3)
    built, expanded = [], []
    fw_matrix, quantum_period = cli.fw_matrix, cli.quantum_period

    def building(*args):
        built.append(fw_matrix(*args))
        return built[-1]

    def expanding(M, depth):
        expanded.append(M)
        return quantum_period(M, depth)

    monkeypatch.setattr(cli, "fw_matrix", building)
    monkeypatch.setattr(cli, "quantum_period", expanding)
    code, doc = run_json(capsys, "verify", cartan, "--node", str(node))
    assert code == 0 and doc["pass"]
    assert len(built) == 1
    assert sum(M is built[0] for M in expanded) == 1


def test_case_period_truncates_the_deepest_series(monkeypatch):
    # a shallower depth is the deepest series cut short, field for field;
    # a deeper one runs the recursion again and is then the one kept
    case = cli.Case("A4", 2)
    depths = []
    quantum_period = cli.quantum_period

    def expanding(M, depth):
        depths.append(depth)
        return quantum_period(M, depth)

    monkeypatch.setattr(cli, "quantum_period", expanding)
    assert case.period(2) == quantum_period(case.matrix, 2)
    for depth in (0, 1, 2, 5, 3, 4, 5):
        assert case.period(depth) == quantum_period(case.matrix, depth)
    assert depths == [2, 5]


@pytest.mark.parametrize("cartan,node", [
    ("A3", 2), ("D4", 1), ("E6", 1), ("B3", 1),
])
def test_verify_makes_no_weyl_products(capsys, monkeypatch, cartan, node):
    # every coset move on a check path is read off coset weights; the
    # element-level products stay a reference for the tests only
    def forbidden(*args, **kwargs):
        raise AssertionError("Weyl product on a verify path")

    modules = [m for name, m in sys.modules.items()
               if name == "mmirror" or name.startswith("mmirror.")]
    for module in modules:
        for name in ("multiply", "inverse", "pi_P", "special_elements",
                     "reflection"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    code, doc = run_json(capsys, "verify", cartan, "--node", str(node))
    assert code == 0 and doc["pass"]


# ----------------------------------------------------------- infrastructure

def test_benchmark_names_exported_by_cli():
    # the benchmark drives the library only through these cli names
    names = [
        "main", "quantum_chevalley_minuscule", "fw_matrix",
        "bruhat_path_count", "minuscule_coset_reps", "minuscule_nodes",
        "build_root_datum", "CartanType", "levi_data", "d4_split",
        "quantum_period", "cyclic_scalar_operator", "operator_annihilates",
        "RatFunc", "potential_typeA", "gw_from_constant_term",
    ]
    for name in names:
        obj = getattr(cli, name)
        assert inspect.isfunction(obj) or inspect.isclass(obj), name


def test_pinned_case_list():
    cases = _load_case_list()
    seen = {(c["cartan"], c["node"]) for c in cases}
    assert len(seen) == len(cases) == 58
    assert ("E7", 7) in seen
    assert ("B7", 7) in seen
    assert ("B3", 1) in seen
    assert ("D4", 1) in seen and ("D4", 3) in seen and ("D4", 4) in seen
    # every A-node appears
    for n in range(1, 8):
        for node in range(1, n + 1):
            assert (f"A{n}", node) in seen
    assert set().union(*cases) == {"cartan", "node", "ct_degree", "wgamma",
                                   "golden"}
    pinned = {(c["cartan"], c["node"]): c for c in cases}
    assert {k: c["wgamma"] for k, c in pinned.items() if "wgamma" in c} == {
        ("E6", 6): 6, ("E7", 7): 12, ("D4", 1): 2}
    assert {k: c["golden"] for k, c in pinned.items() if "golden" in c} == {
        ("A3", 2): ("gr24_products",),
        ("D4", 1): ("d4_kernel", "d4_scalar"),
        ("B3", 1): ("x6_relation",),
    }
    # ct_degree is pinned where, and as, the per-(type, node) default has it
    for c in cases:
        case = cli.Case(c["cartan"], c["node"])
        default = cli._default_params(case.ct, case.node)
        assert c.get("ct_degree") == default.get("ct_degree"), c
    assert sum("ct_degree" in c for c in cases) == 25


# (family, lowest rank, highest rank) of every case the root limit admits
_ALL_RANKS = (("A", 1, 44), ("B", 2, 31), ("C", 2, 31), ("D", 4, 32),
              ("E", 6, 7))


def _adhoc_cases(ranks=(("A", 1, 12), ("B", 2, 10), ("C", 2, 10),
                        ("D", 4, 10), ("E", 6, 7))):
    """Every (type, node) an ad-hoc ``verify`` admits among the minuscule
    nodes and the odd quadrics (B_n node 1) of the ``ranks``; by default
    A1-A12, B2-B10, C2-C10, D4-D10, E6 and E7."""
    out = []
    for family, low, high in ranks:
        for n in range(low, high + 1):
            ct = CartanType(family, n)
            sizes = {node: minuscule_dimension(ct, node)
                     for node in minuscule_nodes(ct)}
            if family == "B":
                sizes[1] = 2 * n
            out += [(str(ct), node) for node, size in sizes.items()
                    if size <= cli.MAX_ORBIT_SIZE]
    return out


def _case_params(entry):
    return {k: v for k, v in entry.items() if k not in ("cartan", "node")}


def test_battery_matches_oracle_on_pinned_cases():
    for entry in _load_case_list():
        cartan, node = entry["cartan"], entry["node"]
        case = cli.Case(cartan, node, _case_params(entry))
        assert case.check_names() == battery(cartan, node, entry), entry


def _refuse_builds(monkeypatch):
    for name in ("build_root_datum", "minuscule_coset_reps", "fw_matrix"):
        monkeypatch.setattr(cli, name, _never)


@pytest.mark.parametrize("cartan,node", _adhoc_cases(_ALL_RANKS))
def test_battery_matches_oracle_on_adhoc_cases(monkeypatch, cartan, node):
    # verify runs the pinned entry of a pinned case, else a bare one;
    # selection reads the check table and the case's kind alone, so it
    # builds no datum, coset table or matrix
    _refuse_builds(monkeypatch)
    pinned = {(e["cartan"], e["node"]): e for e in _load_case_list()}
    entry = pinned.get((cartan, node), {})
    case = cli.Case(cartan, node, _case_params(entry))
    assert case.check_names() == battery(cartan, node, entry)


def test_adhoc_battery_sweep_size():
    cases = _adhoc_cases()
    assert len(cases) == len(set(cases)) == 119
    assert {("B10", 1), ("D10", 10), ("A12", 3)} <= set(cases)
    assert ("A12", 4) not in cases and ("B10", 10) not in cases


def test_admissible_sweep_is_every_admitted_case(monkeypatch):
    cases = _adhoc_cases(_ALL_RANKS)
    assert len(cases) == len(set(cases)) == 289
    assert {("A44", 1), ("A44", 44), ("B31", 1), ("B9", 9), ("C31", 1),
            ("D32", 1), ("D10", 10), ("E7", 7)} <= set(cases)
    # one step past each edge, Case refuses before it builds anything
    _refuse_builds(monkeypatch)
    for cartan, node in (("A45", 1), ("A44", 2), ("B32", 1), ("B10", 10),
                         ("C32", 1), ("D33", 1), ("D11", 11), ("E7", 1),
                         ("E8", 1)):
        with pytest.raises(ValueError):
            cli.Case(cartan, node)


def test_unknown_golden_name_fails_by_name():
    # a golden name the check table lacks still runs, last, and fails
    report = cli._run_case({"cartan": "A3", "node": 2, "golden": ["nope"]},
                           None, DEFAULT_BUDGET)
    assert not report["pass"]
    assert report["checks"][-1] == {"name": "nope", "pass": False,
                                    "detail": "KeyError: 'nope'"}
    assert all(ch["pass"] for ch in report["checks"][:-1])


def test_output_flag_writes_same_bytes(capsys, tmp_path):
    target = tmp_path / "dump.json"
    code, out, _ = run(capsys, "chevalley", "D4", "--node", "1")
    assert code == 0
    code = main(["chevalley", "D4", "--node", "1",
                 "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == out


@pytest.mark.parametrize("argv", [("roots", "A1"),
                                  ("verify", "A3", "--node", "2")])
def test_unwritable_output_is_refused(capsys, tmp_path, argv):
    # the work is done first; the write fails with one error line
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 1 and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_verify_all_golden(tmp_path):
    # the whole verdict, byte for byte
    target = tmp_path / "verify.json"
    assert main(["verify", "--all", "--output", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "a3f814c0cc9481e43fa98b65b7147d6f5ddd6b635422d713fdd7f3446b71925b"
    )


_CI_RUN = re.compile(r'^\s*mmirror (.+) --output "\$RUNNER_TEMP/([^"]+)"$')
_CI_PIN = re.compile(r'^\s*echo "([0-9a-f]{64})  \$RUNNER_TEMP/([^"]+)" '
                     r'\| sha256sum --check$')


def test_ci_byte_pins(tmp_path):
    # every output the CI workflow pins by SHA-256, made in process: each
    # `mmirror ... --output` line paired with the check of its file
    workflow = Path(__file__).parents[1] / ".github/workflows/tests.yml"
    runs, pins = {}, {}
    for line in workflow.read_text().splitlines():
        if m := _CI_RUN.match(line):
            runs[m[2]] = shlex.split(m[1])
        elif m := _CI_PIN.match(line):
            pins[m[2]] = m[1]
    assert runs.keys() == pins.keys()
    assert len(pins) == 35
    wrong = []
    for name, argv in runs.items():
        target = tmp_path / name
        assert main([*argv, "--output", str(target)]) == 0, argv
        if hashlib.sha256(target.read_bytes()).hexdigest() != pins[name]:
            wrong.append(" ".join(argv))
    assert wrong == []


def _coroots_are_coefficients(ct):
    # a shared-datum bug that hits B and C only: every coroot read as the
    # root's own simple-root coefficients
    d = rootsys.build_root_datum(ct)
    roots = tuple(r._replace(coroot=r.coeffs) for r in d.positive_roots)
    return d._replace(positive_roots=roots, highest_root=roots[-1])


def _theta_highest_short(ct):
    d = rootsys.build_root_datum(ct)
    short = [r for r in d.positive_roots if r.norm2 == 1]
    return d._replace(highest_root=short[-1]) if short else d


def _lengths_swapped(ct):
    # long roots read as short and short as long, on B and C data only
    d = rootsys.build_root_datum(ct)
    if ct.family not in "BC":
        return d
    roots = tuple(r._replace(norm2=3 - r.norm2) for r in d.positive_roots)
    return d._replace(positive_roots=roots, highest_root=roots[-1])


@pytest.mark.parametrize("mutation,error", [
    pytest.param(_coroots_are_coefficients, "KeyError: ",
                 id="coroots_are_coefficients"),
    pytest.param(_theta_highest_short,
                 "quantum Chevalley matrix != canonical-basis connection",
                 id="theta_highest_short"),
    pytest.param(_lengths_swapped, "AssertionError: gamma ",
                 id="lengths_swapped"),
])
def test_verify_all_names_a_defect_instead_of_crashing(capsys, monkeypatch,
                                                        mutation, error):
    # an internal error in one case fails that case's check by name; the
    # other checks and cases still run and the verdict is whole JSON
    monkeypatch.setattr(cli, "build_root_datum", mutation)
    code, doc = run_json(capsys, "verify", "--all")
    assert code == 1 and doc["pass"] is False
    assert doc["counts"]["cases"] == 58
    failed = [(c["cartan"], ch) for c in doc["cases"]
              for ch in c["checks"] if not ch["pass"]]
    assert doc["counts"]["failed"] == len(failed) > 0
    assert any(ch["detail"].startswith(error) for _, ch in failed)
    # the mutations change only the non-simply-laced types
    assert {cartan[0] for cartan, _ in failed} == {"B", "C"}
    assert all(c["pass"] for c in doc["cases"] if c["cartan"][0] in "ADE")


def _first_quantum_doubled(build):
    def mutated(*args):
        M = build(*args)
        rc = next(rc for rc, t in M.cells.items() if any(e[0] for e in t))
        cells = dict(M.cells)
        cells[rc] = {e: 2 * v if e[0] else v for e, v in cells[rc].items()}
        return ConnMatrix(M.basis, M.variables, M.size, cells)
    return mutated


def _first_theta_dropped(build):
    def mutated(*args):
        M = build(*args)
        rc = next(rc for rc, t in M.cells.items() if (1,) in t)
        cells = dict(M.cells)
        cells[rc] = {e: v for e, v in cells[rc].items() if e != (1,)}
        if not cells[rc]:
            del cells[rc]
        return ConnMatrix(M.basis, M.variables, M.size, cells)
    return mutated


def _shifted_by_one(build):
    def mutated(d, reps):
        return tuple((i + 1) % len(reps) for i in build(d, reps))
    return mutated


def _first_linear_dropped(build):
    def mutated(*args):
        pot = build(*args)
        terms = dict(pot.linear)
        del terms[max(terms)]
        return pot._replace(linear=terms)
    return mutated


def _quantum_doubled(build):
    def mutated(*args):
        pot = build(*args)
        return pot._replace(
            quantum={e: 2 * c for e, c in pot.quantum.items()})
    return mutated


@pytest.mark.parametrize("name,mutate,cases,killed", [
    # the Chevalley side: the first quantum cell's q-term doubled
    ("fw_matrix", _first_quantum_doubled, 58, {
        "mirror": 55, "equivariant": 55, "poincare": 35, "period": 20,
        "projective_period": 19, "constant_term": 16, "fw_products": 3,
        "gr24_products": 1, "x6_relation": 1, "d4_scalar": 1}),
    # the representation side: the first x_theta (q) term dropped
    ("fg_connection", _first_theta_dropped, 55,
     {"mirror": 55, "equivariant": 55}),
    # Poincare duality off by one index
    ("pd", _shifted_by_one, 55, {"poincare": 55}),
    # the crystal side: the linear term of a1 dropped, which the constant
    # term refuses, and the quantum part doubled, which scales c_d by 2^d
    ("minuscule_potential", _first_linear_dropped, 25, {"constant_term": 25}),
    ("minuscule_potential", _quantum_doubled, 25, {"constant_term": 25}),
], ids=["chevalley", "rep", "poincare", "potential-linear",
        "potential-quantum"])
def test_verify_all_kills_each_mutation(capsys, monkeypatch, name, mutate,
                                        cases, killed):
    # one wrong term or index in one layer fails exactly these checks,
    # by name, and the verdict is still whole JSON
    monkeypatch.setattr(cli, name, mutate(getattr(cli, name)))
    code, doc = run_json(capsys, "verify", "--all")
    assert code == 1 and doc["pass"] is False
    assert doc["counts"]["cases"] == len(doc["cases"]) == 58
    assert sum(not c["pass"] for c in doc["cases"]) == cases
    failed = Counter(ch["name"] for c in doc["cases"]
                     for ch in c["checks"] if not ch["pass"])
    assert failed == killed
    assert doc["counts"]["failed"] == sum(killed.values())


def test_failed_lazy_build_fails_each_check_alike(capsys, monkeypatch):
    # the quadrics B_n n1 get past set-up and fail in fw_matrix; each of
    # the case's checks that reads the matrix builds it again and fails
    # with the same detail, and the failed checks are the same 22
    monkeypatch.setattr(cli, "build_root_datum", _coroots_are_coefficients)
    code, doc = run_json(capsys, "verify", "--all")
    assert code == 1 and doc["counts"]["failed"] == 22
    quadrics = [c for c in doc["cases"]
                if c["cartan"][0] == "B" and c["node"] == 1]
    assert len(quadrics) == 3
    for case in quadrics:
        details = {ch["detail"] for ch in case["checks"] if not ch["pass"]}
        zero = tuple([0] * int(case["cartan"][1:]))
        assert details == {f"KeyError: {zero}"}


@pytest.mark.parametrize("where", ["setup", "check"])
def test_verify_exception_fails_its_check_by_name(capsys, monkeypatch,
                                                  where):
    def broken(*args):
        raise RuntimeError("patched defect")

    if where == "setup":
        monkeypatch.setattr(cli, "minuscule_coset_reps", broken)
    else:
        monkeypatch.setattr(cli, "_CHECKS",
                            {**cli._CHECKS, "homogeneous": (broken, "every")})
    code, doc = run_json(capsys, "verify", "A3", "--node", "2")
    assert code == 1 and doc["counts"]["failed"] == 1
    failed = [ch for ch in doc["cases"][0]["checks"] if not ch["pass"]]
    assert failed == [{"name": "setup" if where == "setup" else
                       "homogeneous", "pass": False,
                       "detail": "RuntimeError: patched defect"}]
    if where == "check":
        # the checks after the broken one still ran, and passed
        names = [ch["name"] for ch in doc["cases"][0]["checks"]]
        assert names[:5] == ["mirror", "equivariant", "homogeneous",
                             "poincare", "period"]


def test_repeat_runs_byte_identical(capsys):
    _, out1, _ = run(capsys, "chevalley", "E6", "--node", "1")
    _, out2, _ = run(capsys, "chevalley", "E6", "--node", "1")
    assert out1 == out2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mmirror.cli", "gw", "1", "2", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"] == "1"


# ------------------------------------------------- one parser per process

def test_parser_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    counts = []
    for _ in range(5):
        assert run(capsys, "roots", "A2")[0] == 0
        counts.append(len(built))
    assert counts[0] > 0
    assert counts == [counts[0]] * 5


def _parse_outcome(capsys, parse):
    """(exit code, stdout, stderr, namespace) of one parse."""
    try:
        args = vars(parse())
        code = None
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    return code, out, err, args


@pytest.mark.parametrize("argv", [
    *([name, "-h"] for name in cli._COMMANDS),
    *([name] for name in cli._COMMANDS),
    ["verify", "A3", "--node", "x"],
    ["verify", "A3", "--node", "2", "--budget", "7"],
    ["chevalley", "A3", "--node", "2", "--format", "xml"],
    ["roots", "A1", "--bogus"],
    ["gw", "1", "2", "3", "4"],
    ["bessel", "1", " -2", "--output", "-"],
], ids=" ".join)
def test_command_parser_reads_as_the_full_parser(capsys, argv):
    # the command's own parser gives the bytes, exit code and arguments
    # of the full parser's sub-parser, on this Python's argparse
    def own():
        command, args = cli._parse(argv)
        return argparse.Namespace(command=command, **vars(args))

    full = _parse_outcome(capsys, lambda: cli._build_parser().parse_args(argv))
    assert _parse_outcome(capsys, own) == full


def test_one_command_builds_one_parser(capsys):
    cli._build_parser.cache_clear()
    assert run(capsys, "roots", "A2")[0] == 0
    assert run(capsys, "gw", "1", "2", "1")[0] == 0
    # the two commands' parsers; the full one only for -h or a bad command
    assert cli._build_parser.cache_info().currsize == 2
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert cli._build_parser.cache_info().currsize == 3
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_equivariant_flag_does_not_carry_over(capsys):
    cli._build_parser.cache_clear()
    argv = ("chevalley", "A3", "--node", "2")
    _, first, _ = run(capsys, *argv)
    code, doc = run_json(capsys, *argv, "--equivariant")
    assert code == 0 and doc["equivariant"] is True
    code, again, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(again)["equivariant"] is False
    assert again == first


def test_verify_depth_does_not_carry_over(capsys):
    cli._build_parser.cache_clear()
    argv = ("verify", "A3", "--node", "2")
    _, first, _ = run(capsys, *argv)
    code, deep = run_json(capsys, *argv, "--max-degree", "4")
    assert code == 0
    details = {c["name"]: c["detail"] for c in deep["cases"][0]["checks"]}
    assert details["period"].endswith("c_0..c_4 nonnegative")
    assert details["constant_term"].startswith("Gr(2,4) degrees 1..4: ")
    code, again, _ = run(capsys, *argv)
    assert code == 0 and again == first
    details = {c["name"]: c["detail"]
               for c in json.loads(again)["cases"][0]["checks"]}
    assert details["period"].endswith("c_0..c_3 nonnegative")
    assert details["constant_term"].startswith("Gr(2,4) degrees 1..3: ")


def test_parse_error_then_good_call(capsys):
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "A3", "--node", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    code, doc = run_json(capsys, "verify", "A3", "--node", "2")
    assert code == 0 and doc["pass"] is True


def test_patch_after_first_call_is_honoured(capsys, monkeypatch):
    argv = ("period", "A2", "--node", "1", "--max-degree", "2")
    assert run(capsys, *argv)[0] == 0

    def refused(*args, **kwargs):
        raise ValueError("patched period")

    monkeypatch.setattr(cli, "quantum_period", refused)
    assert run(capsys, *argv) == (1, "", "error: patched period\n")


def test_command_patched_after_first_call_runs(capsys, monkeypatch):
    # the parser is built once, but the command is looked up at call time
    argv = ("roots", "A1", "--node", "1")
    code, out, err = run(capsys, *argv)
    assert code == 0 and json.loads(out) and err == ""
    seen = []

    def patched(args):
        seen.append(args.case)
        return 7

    monkeypatch.setattr(cli, "cmd_roots", patched)
    assert run(capsys, *argv) == (7, "", "")
    assert seen == ["A1"]
    monkeypatch.undo()
    assert run(capsys, *argv) == (code, out, err)


def test_case_list_is_read_only():
    cases = _load_case_list()
    assert cases is _load_case_list()
    with pytest.raises(TypeError):
        cases[0]["node"] = 2
    with pytest.raises(TypeError):
        cases[0] = {"cartan": "A1", "node": 1}
    assert (cases[0]["cartan"], cases[0]["node"]) == ("A1", 1)
    # a list in the JSON is a tuple in the entry
    values = [v for c in cases for v in c.values()]
    assert not any(isinstance(v, (list, dict)) for v in values)
    assert ("d4_kernel", "d4_scalar") in values


# ----------------------------------------------------------- report writer

@pytest.mark.parametrize("argv", [
    ("roots", "E7"),
    ("roots", "B4", "--node", "1"),
    ("chevalley", "B3", "--node", "3"),
    ("chevalley", "C3", "--node", "1", "--equivariant"),
    ("verify", "D4", "--node", "1"),
    ("verify", "--all"),
    ("potential", "2", "5"),
    ("period", "E6", "--node", "1", "--max-degree", "4"),
    ("gw", "3", "7", "2"),
    ("scalar-ode", "B4", "--node", "1"),
    ("bessel", "1e-8", "0"),
    ("bessel", "50", "300"),
], ids=" ".join)
def test_report_writer_is_json_dumps(capsys, monkeypatch, argv):
    # every report reads byte for byte as json.dumps(indent=2,
    # sort_keys=True) spells its payload
    payloads = []
    emit = cli._emit_json
    monkeypatch.setattr(cli, "_emit_json",
                        lambda p, out: (payloads.append(p), emit(p, out)))
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    payload, = payloads
    assert out == json.dumps({**payload, "schema": "mm/1"}, indent=2,
                             sort_keys=True) + "\n"


def test_report_writer_edge_values():
    for v in [{}, [], (), "", 0, {"": {}, "a": [], "b": ()},
              {"t": (1, (2, ()), [3.5])}, ["é", "€\n\t\"\\", "\U0001f600"],
              {"é": None, "z": True, "y": False, "x": -3, "w": 2 ** 70},
              [-0.0, 1e-300, 0.1, 1.7976931348623157e308],
              {"k": [[[]], [{}]]}, [True, 1, False, 0, None], "a\x00b"]:
        assert json_text(v) == json.dumps(v, indent=2, sort_keys=True), v


def test_report_writer_refuses_non_finite_floats():
    # as json.dumps(allow_nan=False) does: no report can carry a bare
    # Infinity or NaN, which strict JSON parsers reject
    nan, inf = float("nan"), float("inf")
    for v in [nan, inf, -inf, [0.5, inf], {"wronskian": inf},
              {"a": [{"b": nan}]}]:
        with pytest.raises(ValueError, match="not JSON compliant"):
            json_text(v)
        with pytest.raises(ValueError):
            json.dumps(v, allow_nan=False)
