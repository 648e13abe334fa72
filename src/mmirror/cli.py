"""Command line for the package: matrix dumps, series, potentials, and a
one-shot verification runner.

Every command prints JSON carrying a top-level ``"schema": "mm/1"`` key,
stamped by ``_emit_json`` alone; rationals are rendered canonically as
``num/den`` strings (integers drop the denominator).  Output is
deterministic: identical invocations produce byte-identical bytes.
``verify`` exits nonzero when any check fails, so it can gate a release.

Cases are named by Cartan type plus marked node, e.g. ``A3 --node 2``.
Supported cases are the minuscule (type, node) pairs and the odd quadrics
``B_n --node 1``; the list driven by ``verify --all`` is pinned in
``data/verify_cases.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache, cached_property
from importlib import resources
from math import factorial
from types import MappingProxyType

from . import json_text
from .crystal_potential import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    constant_term_power,
    gw_from_constant_term,
    minuscule_potential,
    potential_to_json,
    potential_typeA,
)
from .minrep import coweight_diagonal, fg_connection
from .period_gw import (
    RatFunc,
    bruhat_path_count,
    cyclic_scalar_operator,
    d4_split,
    operator_annihilates,
    quantum_period,
)
from .qchev import (
    LaurentPoly,
    check_homogeneous,
    fw_matrix,
    lift_equivariant,
    matrix_relation,
    mihalcea_diagonal,
    mihalcea_equivariant,
    poincare_self_adjoint,
    quantum_chevalley_minuscule,  # noqa: F401  (re-exported alias)
)
from .rootsys import (
    CartanType,
    build_root_datum,
    datum_to_json,
    levi_data,
    minuscule_dimension,
    minuscule_nodes,
)
from .weyl import minuscule_coset_reps, pd, w_gamma_set

WRONSKIAN_TOL = 1e-8

# Largest coset orbit (number of Schubert classes) a case may have.  The
# connection matrices are built, stored, compared and checked as their
# nonzero cells, about (rank + 1) per column; only the dense `chevalley`
# output is n x n (~2.6e5 cells at this size).  Larger orbits are refused
# before anything is enumerated.
MAX_ORBIT_SIZE = 512

# Largest root datum (number of positive roots) a case may build; refused
# from the closed-form count before build_root_datum runs and before any
# other guard, so that a case past it never forms a tuple of its nodes and
# the orbit guard only ever forms sizes up to rank 44 (A), 31 (B, C) or
# 32 (D): at most C(45, 22), 13 digits, always cheap to form and print.
MAX_POSITIVE_ROOTS = 1000

# Largest orbit `scalar-ode` reduces; its cost grows far faster than the
# orbit (A11 n2, 66 classes: 2.1 s; A12 n2, 78: 13 s; see the README).
MAX_SCALAR_ODE_SIZE = 72

# Deepest period `period` and `verify` may compute; at this depth every
# coefficient of the pinned cases still prints within Python's default
# 4300-digit limit on integer-to-string conversion.
MAX_PERIOD_DEGREE = 100


class CheckFailure(Exception):
    """A verification check found a wrong value."""


# --------------------------------------------------------------------------
# case plumbing
# --------------------------------------------------------------------------

def _default_params(ct: CartanType, node: int) -> dict:
    """The parameters every (type, node) gets, pinned or ad hoc: period
    depth 3; the constant-term depth of a type-A potential, graded by its
    number of variables k(n-k): 3 up to 4, 2 up to 6, 1 up to 12 (the
    battery's rule, not the potential's bound)."""
    params = {"max_degree": 3}
    if ct.family == "A":
        v = node * (ct.rank + 1 - node)
        if v <= 4:
            params["ct_degree"] = 3
        elif v <= 6:
            params["ct_degree"] = 2
        elif v <= 12:
            params["ct_degree"] = 1
    return params


def _refuse_large_datum(ct: CartanType) -> None:
    """Raise ValueError when the root datum of ct would have more than
    MAX_POSITIVE_ROOTS positive roots, counted in closed form."""
    n = ct.rank
    count = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n,
             "D": n * (n - 1), "E": 36 if n == 6 else 63}[ct.family]
    if count > MAX_POSITIVE_ROOTS:
        raise ValueError(
            f"{ct} has {count} positive roots, more than the limit of "
            f"{MAX_POSITIVE_ROOTS}"
        )


def _refuse_bad_budget(budget: int) -> None:
    """Raise ValueError for a constant-term budget below 1."""
    if budget < 1:
        raise ValueError(f"--budget {budget} is below 1")


def _refuse_deep_period(depth) -> None:
    """Raise ValueError for a period depth above MAX_PERIOD_DEGREE."""
    if depth is not None and depth > MAX_PERIOD_DEGREE:
        raise ValueError(
            f"period depth {depth} is above the limit of {MAX_PERIOD_DEGREE}"
        )


class Case:
    """One (cartan, node) context with the shared objects the checks
    need.  ``__init__`` runs the guards and sets the parameters, and
    builds nothing: the datum, cosets and matrices are built when first
    read, then kept, so every refusal comes before any build.  A failed
    build fails again, alike, in each check that reads it.  ``size``,
    the number of Schubert classes, is read off a closed form (2n at the
    B_n quadric node) and refused past MAX_ORBIT_SIZE."""

    def __init__(self, cartan: str, node: int, params=None):
        self.ct = CartanType.parse(cartan)
        self.cartan = str(self.ct)
        self.node = int(node)
        _refuse_large_datum(self.ct)
        if not 1 <= self.node <= self.ct.rank:
            raise ValueError(f"node {node} out of range for {self.cartan}")
        self.minuscule = self.node in minuscule_nodes(self.ct)
        if self.minuscule:
            self.size = minuscule_dimension(self.ct, self.node)
        elif self.ct.family == "B" and self.node == 1:
            self.size = 2 * self.ct.rank
        else:
            raise ValueError(
                f"unsupported case {self.cartan} node {self.node}: "
                "need a minuscule node or an odd quadric B_n node 1"
            )
        if self.size > MAX_ORBIT_SIZE:
            raise ValueError(
                f"{self.cartan} node {self.node} has {self.size} Schubert "
                f"classes, more than the limit of {MAX_ORBIT_SIZE}"
            )
        self.params = _default_params(self.ct, self.node)
        self.params.update(params or {})
        self._period = None

    @cached_property
    def d(self):
        return build_root_datum(self.ct)

    @cached_property
    def reps(self):
        return minuscule_coset_reps(self.d, self.node)

    @cached_property
    def matrix(self):
        return fw_matrix(self.d, self.reps, self.node)

    @cached_property
    def fg(self):
        return fg_connection(self.d, self.reps)

    @cached_property
    def d4(self):
        return d4_split(self.matrix)

    def period(self, depth: int):
        """The quantum period of ``matrix`` to ``depth``.  Only the deepest
        series asked for is kept: degrees 0..depth do not depend on how
        deep the sweep went, so a shallower one is its truncation."""
        if self._period is None or len(self._period.coefficients) <= depth:
            self._period = quantum_period(self.matrix, depth)
        return self._period.upto(depth)

    def check_names(self):
        """The rows of _CHECKS whose tag the case carries, in table order,
        then the checks its golden list names, in list order."""
        ct = self.ct
        tags = {"every", "minuscule" if self.minuscule else "quadric",
                *self.params}
        if (ct.family, self.node) in (("A", 1), ("A", ct.rank), ("C", 1)):
            tags.add("projective")  # G/P = P^N
        names = [name for name, (_, tag) in _CHECKS.items() if tag in tags]
        return names + list(self.params.get("golden", ()))


# --------------------------------------------------------------------------
# verification checks: each returns a detail string or raises CheckFailure
# --------------------------------------------------------------------------

def _render(M, terms) -> str:
    """A cell's terms dict over the variables of M, as text."""
    return LaurentPoly(M.variables, terms).render()


def _first_difference(A, B) -> str:
    """Where two matrices over the same basis first differ, as text."""
    for r, c in sorted(A.cells.keys() | B.cells.keys()):
        a, b = A.entry(r, c), B.entry(r, c)
        if a != b:
            return f" at ({r}, {c}): {_render(A, a)} vs {_render(B, b)}"
    return ""


def _wgamma_positions(d, reps) -> set:
    """The positions (coset of w s_gamma, w) for w in W(gamma).  As
    w.gamma = -theta, the coset of w s_gamma has weight
    mu + <varpi_node, gamma-vee> theta."""
    p = reps.parabolic
    k = p.gamma.coroot[p.node - 1]
    theta = d.highest_root.fw
    out = set()
    for c in w_gamma_set(d, reps):
        target = [m + k * t for m, t in zip(reps.weights[c], theta)]
        out.add((reps.by_weight[tuple(target)], c))
    return out


def _check_wgamma_positions(case) -> None:
    """The q-part of the Chevalley matrix is exactly q at the positions
    _wgamma_positions, and zero elsewhere."""
    M, reps = case.matrix, case.reps
    want = _wgamma_positions(case.d, reps)
    for r, c in sorted(M.cells.keys() | want):
        qterms = {e: v for e, v in M.entry(r, c).items() if any(e)}
        expect = {(1,): 1} if (r, c) in want else {}
        if qterms != expect:
            raise CheckFailure(
                f"q-part at ({r}, {c}) is {_render(M, qterms)} but W(gamma) "
                f"gives {_render(M, expect)} (column w = "
                f"W[{'.'.join(map(str, reps.words[c])) or 'e'}])"
            )


def _check_mirror(case):
    F = case.fg
    if case.matrix != F:
        raise CheckFailure("quantum Chevalley matrix != canonical-basis "
                           "connection" + _first_difference(case.matrix, F))
    _check_wgamma_positions(case)
    return f"{case.matrix.size}x{case.matrix.size} matrices equal"


def _check_equivariant(case):
    """The lifts agree when the q-matrices and the integer diagonals, over
    their two denominators, do; only a failure builds the lifts."""
    dm, mrows = mihalcea_diagonal(case.d, case.reps)
    df, frows = coweight_diagonal(case.d, case.reps)
    if case.matrix != case.fg or any(
            a * df != b * dm for u, v in zip(mrows, frows)
            for a, b in zip(u, v)):
        M = lift_equivariant(case.matrix, mrows, dm)
        F = lift_equivariant(case.fg, frows, df)
        raise CheckFailure("equivariant matrices differ"
                           + _first_difference(M, F))
    return f"equal over {case.d.rank + 1} variables"


def _check_homogeneous(case):
    if not check_homogeneous(case.matrix):
        raise CheckFailure("matrix entries are not degree-homogeneous")
    return "degree-homogeneous"


def _check_poincare(case):
    if not poincare_self_adjoint(case.matrix, pd(case.d, case.reps)):
        raise CheckFailure("matrix is not self-adjoint for the Poincare "
                           "pairing")
    return "self-adjoint"


def _check_period(case):
    D = case.params["max_degree"]
    c1 = case.period(D).coefficients[1]
    paths = bruhat_path_count(case.d, case.reps, case.node)
    if c1 != paths:
        raise CheckFailure(f"c1 = {c1} but saturated-chain count = {paths}")
    if c1 <= 0:
        raise CheckFailure(f"c1 = {c1} is not positive")
    return f"c1 = {c1} = chain count; c_0..c_{D} nonnegative"


def _check_period_positive(case):
    D = case.params["max_degree"]
    c1 = case.period(D).coefficients[1]
    if c1 != 2:
        raise CheckFailure(f"quadric c1 = {c1}, expected 2")
    return f"c1 = 2; c_0..c_{D} nonnegative"


def _check_projective_period(case):
    D = case.params["max_degree"]
    for d, c in enumerate(case.period(D).coefficients):
        if c != Fraction(1, factorial(d) ** case.size):
            raise CheckFailure(f"c_{d} = {c}, expected 1/(d!)^{case.size}")
    return f"c_d = 1/(d!)^{case.size} up to degree {D}"


def _check_constant_term(case):
    k, n = case.node, case.ct.rank + 1
    depth = case.params["ct_degree"]
    pot = minuscule_potential(case.ct, case.node)
    series = case.period(depth)
    values = []
    for d in range(1, depth + 1):
        got = gw_from_constant_term(pot, d, case.params["budget"])
        want = series.coefficients[d]
        if got != want:
            raise CheckFailure(
                f"degree {d}: constant-term value {got} != period {want}"
            )
        values.append(str(got))
    return f"Gr({k},{n}) degrees 1..{depth}: " + ", ".join(values)


def _check_wgamma(case):
    want = case.params["wgamma"]
    got = len(w_gamma_set(case.d, case.reps))
    if got != want:
        raise CheckFailure(f"|W(gamma)| = {got}, expected {want}")
    return f"|W(gamma)| = {want}"


def _check_gr24_products(case):
    m = case.matrix
    one, q = {(0,): 1}, {(1,): 1}
    golden = {
        1: {2: one, 3: one},   # s1*s1 = s11 + s2
        2: {4: one},           # s1*s11 = s21
        3: {4: one},           # s1*s2 = s21
        4: {5: one, 0: q},     # s1*s21 = s22 + q
        5: {1: q},             # s1*s22 = q s1
    }
    for c, want in golden.items():
        if m.column(c) != want:
            raise CheckFailure(f"column {c} differs from the golden product")
    return "five golden columns match"


def _check_d4_kernel(case):
    split = case.d4
    full = case.period(3)
    restricted = quantum_period(split.restricted, 3)
    if full.coefficients != restricted.coefficients:
        raise CheckFailure("period changes under restriction to the "
                           "invariant block")
    return "one-line kernel; rank-7 block carries the period"


def _check_d4_scalar(case):
    split = case.d4
    op = cyclic_scalar_operator(split.restricted, 6)
    want = (RatFunc.make((0, -2)), RatFunc.make((0, -4)))
    want += (RatFunc.make(()),) * 5 + (RatFunc.make((1,)),)
    if op.coefficients != want:
        raise CheckFailure("operator differs from theta^7 - 4q theta - 2q")
    if not operator_annihilates(op, quantum_period(split.restricted, 8)):
        raise CheckFailure("operator does not annihilate the period")
    return "theta^7 - 4q*theta - 2q; annihilates the period to degree 8"


def _check_fw_products(case):
    m = case.matrix
    n = case.ct.rank
    one, q = {(0,): 1}, {(1,): 1}
    if m.entry(n, n - 1) != {(0,): 2}:
        raise CheckFailure("middle product is not doubled")
    if m.column(2 * n - 2) != {2 * n - 1: one, 0: q}:
        raise CheckFailure("penultimate column misses sigma_top + q")
    if m.column(2 * n - 1) != {1: q}:
        raise CheckFailure("top column is not q sigma_1")
    return "doubling, +q, and wrap products match"


def _check_x6_relation(case):
    if not matrix_relation(case.matrix, {(6, 0): 1, (1, 1): -4}):
        raise CheckFailure("X^6 - 4qX does not annihilate the matrix")
    return "X^6 - 4qX = 0"


# The one check table, in run order: name -> (check, the tag that selects
# it).  A tag is a case kind ("every", "minuscule", "quadric", or
# "projective" for G/P = P^N) or the pinned input the check reads; a
# golden check has none and runs when the case's golden list names it
# (see Case.check_names).
_CHECKS = {
    "mirror": (_check_mirror, "minuscule"),
    "equivariant": (_check_equivariant, "minuscule"),
    "fw_products": (_check_fw_products, "quadric"),
    "homogeneous": (_check_homogeneous, "every"),
    "poincare": (_check_poincare, "minuscule"),
    "period": (_check_period, "minuscule"),
    "period_positive": (_check_period_positive, "quadric"),
    "projective_period": (_check_projective_period, "projective"),
    "constant_term": (_check_constant_term, "ct_degree"),
    "wgamma": (_check_wgamma, "wgamma"),
    "gr24_products": (_check_gr24_products, None),
    "d4_kernel": (_check_d4_kernel, None),
    "d4_scalar": (_check_d4_scalar, None),
    "x6_relation": (_check_x6_relation, None),
}


def _run_case(entry, max_degree, budget):
    """One case's report; an unexpected exception fails its check by name."""
    cartan, node = entry["cartan"], entry["node"]
    params = {k: v for k, v in entry.items() if k not in ("cartan", "node")}
    try:
        case = Case(cartan, node, params)
        dim = len(case.reps)
    except Exception as exc:
        detail = (str(exc) if isinstance(exc, ValueError)
                  else f"{type(exc).__name__}: {exc}")
        return {
            "cartan": cartan, "node": node, "pass": False,
            "checks": [{"name": "setup", "pass": False, "detail": detail}],
        }
    if max_degree is not None:  # one depth for every series of the case
        for key in ("max_degree", "ct_degree"):
            if key in case.params:
                case.params[key] = max_degree
    case.params["budget"] = budget
    checks = []
    for name in case.check_names():
        try:
            detail, ok = _CHECKS[name][0](case), True
        except CheckFailure as exc:
            detail, ok = str(exc), False
        except BudgetExceeded as exc:
            detail, ok = f"enumeration budget exceeded: {exc}", False
        except Exception as exc:
            detail, ok = f"{type(exc).__name__}: {exc}", False
        checks.append({"name": name, "pass": ok, "detail": detail})
    return {
        "cartan": case.cartan,
        "node": case.node,
        "dim": dim,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


@cache
def _load_case_list():
    text = (resources.files("mmirror.data") / "verify_cases.json").read_text()
    return tuple(MappingProxyType({k: tuple(v) if isinstance(v, list) else v
                                   for k, v in e.items()})
                 for e in json.loads(text)["cases"])


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------

def _matrix_payload(case: Case, M) -> dict:
    return {
        "case": case.cartan,
        "node": case.node,
        "size": M.size,
        "variables": list(M.variables),
        "basis": [
            {"word": list(word), "length": length}
            for word, length in zip(case.reps.words, case.reps.lengths)
        ],
        "entries": [[e.termlist() for e in row] for row in M.entries],
    }


def _matrix_csv(M) -> str:
    lines = [",".join(e.render() for e in row) for row in M.entries]
    return "\n".join(lines) + "\n"


def _ratfunc_payload(rf: RatFunc) -> dict:
    return {"num": [str(c) for c in rf.num], "den": [str(c) for c in rf.den]}


def _printed(numbers, what: str, remedy: str) -> list:
    """The numbers as strings, or a ValueError saying that ``what`` has
    more digits than Python prints, and ``remedy``."""
    try:
        return list(map(str, numbers))
    except ValueError:
        raise ValueError(
            f"{what} of more than {sys.get_int_max_str_digits()} digits, "
            f"the most Python prints; {remedy}") from None


def _emit(text: str, output) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(
                f"cannot write {output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_json(payload, output) -> None:
    _emit(json_text({**payload, "schema": "mm/1"}) + "\n", output)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_roots(args) -> int:
    ct = CartanType.parse(args.case)
    _refuse_large_datum(ct)
    d = build_root_datum(ct)
    parabolic = None if args.node is None else levi_data(d, node=args.node)
    payload = datum_to_json(d, parabolic)
    payload["case"] = str(ct)
    _emit_json(payload, args.output)
    return 0


def cmd_chevalley(args) -> int:
    case = Case(args.case, args.node)
    if args.equivariant:
        if not case.minuscule:
            raise ValueError("equivariant matrix needs a minuscule node")
        if args.format == "csv":
            raise ValueError("csv output is limited to the single-variable "
                             "matrix; use json for the equivariant one")
        M = mihalcea_equivariant(case.d, case.matrix)
    else:
        M = case.matrix
    if args.format == "csv":
        _emit(_matrix_csv(M), args.output)
    else:
        payload = _matrix_payload(case, M)
        payload["equivariant"] = bool(args.equivariant)
        _emit_json(payload, args.output)
    return 0


def cmd_verify(args) -> int:
    _refuse_deep_period(args.max_degree)
    if args.max_degree is not None and args.max_degree < 1:
        raise ValueError(f"verify depth {args.max_degree} is below 1: the "
                         "period checks read c_1")
    _refuse_bad_budget(args.budget)
    if args.all:
        if args.case or args.node is not None:
            raise ValueError("verify takes a case or --all, not both")
        entries = _load_case_list()
    elif args.case:
        if args.node is None:
            raise ValueError("single-case verify needs --node")
        # the pinned entry of the case, else a bare one
        bare = {"cartan": str(CartanType.parse(args.case)), "node": args.node}
        entries = [e for e in _load_case_list() if (e["cartan"], e["node"])
                   == (bare["cartan"], args.node)] or [bare]
    else:
        raise ValueError("verify needs a case or --all")

    reports = [_run_case(e, args.max_degree, args.budget) for e in entries]

    total = sum(len(r["checks"]) for r in reports)
    failed = sum(1 for r in reports for c in r["checks"] if not c["pass"])
    payload = {
        "command": "verify",
        "cases": reports,
        "counts": {"cases": len(reports), "checks": total, "failed": failed},
        "pass": failed == 0,
    }
    _emit_json(payload, args.output)
    return 0 if failed == 0 else 1


def cmd_potential(args) -> int:
    pot = potential_typeA(args.k, args.n)
    payload = potential_to_json(pot)
    payload["k"] = args.k
    payload["n"] = args.n
    _emit_json(payload, args.output)
    return 0


def cmd_period(args) -> int:
    D = 6 if args.max_degree is None else args.max_degree
    _refuse_deep_period(D)
    if D < 0:
        raise ValueError(f"period depth {D} is below 0")
    case = Case(args.case, args.node)
    coefficients = _printed(
        case.period(D).coefficients, f"period of {case.cartan} node "
        f"{case.node} to depth {D} has a coefficient", "lower --max-degree")
    payload = {
        "case": case.cartan,
        "node": case.node,
        "max_degree": D,
        "coefficients": coefficients,
    }
    _emit_json(payload, args.output)
    return 0


def cmd_gw(args) -> int:
    _refuse_bad_budget(args.budget)
    if args.d < 0:
        raise ValueError(f"degree {args.d} is below 0")
    pot = potential_typeA(args.k, args.n)
    m = pot.coxeter * args.d
    ct = constant_term_power(pot, m, args.budget)
    constant_term, value = _printed(
        (ct, ct / factorial(m)), f"Gr({args.k},{args.n}) degree {args.d} "
        "has a constant term or value", "lower the degree")
    payload = {
        "k": args.k,
        "n": args.n,
        "degree": args.d,
        "power": m,
        "constant_term": constant_term,
        "value": value,
    }
    _emit_json(payload, args.output)
    return 0


def cmd_scalar_ode(args) -> int:
    case = Case(args.case, args.node)
    if case.size > MAX_SCALAR_ODE_SIZE:
        raise ValueError(f"{case.cartan} node {case.node} has {case.size} "
                         "Schubert classes, more than the scalar-ode limit "
                         f"of {MAX_SCALAR_ODE_SIZE}")
    M = case.matrix
    block = "full matrix"
    if (case.cartan, case.node) == ("D4", 1):
        M = case.d4.restricted
        block = "rank-7 invariant complement"
    op = cyclic_scalar_operator(M, M.size - 1)
    payload = {
        "case": case.cartan,
        "node": case.node,
        "block": block,
        "size": M.size,
        "order": op.order,
        "coefficients": [_ratfunc_payload(c) for c in op.coefficients],
    }
    _emit_json(payload, args.output)
    return 0


def cmd_bessel(args) -> int:
    # the one floating-point command, so its module is read here alone
    from .bessel import bessel_numeric_checks
    report = bessel_numeric_checks(args.y, args.nu)
    ok = report["wronskian_error"] < WRONSKIAN_TOL
    payload = {
        "y": args.y,
        "nu": args.nu,
        "tolerance": WRONSKIAN_TOL,
        "pass": ok,
    }
    payload.update(report)
    _emit_json(payload, args.output)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

_CASE, _NODE = ("case", {}), ("--node", {"type": int, "required": True})
_BUDGET_HELP = "the most term products the powers of the quantum part may form"

# command -> (help, arguments as (name, add_argument keywords)); every
# command also takes --output
_COMMANDS = {
    "roots": ("dump the root datum and parabolic",
              (_CASE, ("--node", {"type": int}))),
    "chevalley": ("dump a connection matrix", (
        _CASE, _NODE, ("--equivariant", {"action": "store_true"}),
        ("--format", {"choices": ("json", "csv"), "default": "json"}))),
    "verify": ("run the verification suite", (
        ("case", {"nargs": "?"}), ("--node", {"type": int}),
        ("--all", {"action": "store_true", "help": "run every pinned case"}),
        ("--max-degree", {"type": int, "help": "override the per-case "
                          f"series depth (at most {MAX_PERIOD_DEGREE})"}),
        ("--budget", {"type": int, "default": DEFAULT_BUDGET,
                      "help": "constant-term budget: " + _BUDGET_HELP}))),
    "potential": ("dump a Grassmannian potential",
                  (("k", {"type": int}), ("n", {"type": int}))),
    "period": ("quantum period coefficients", (
        _CASE, _NODE,
        ("--max-degree", {"type": int, "help": "series depth, default 6, "
                          f"at most {MAX_PERIOD_DEGREE}"}))),
    "gw": ("Gromov-Witten number from the constant-term formula", (
        ("k", {"type": int}), ("n", {"type": int}), ("d", {"type": int}),
        ("--budget", {"type": int, "default": DEFAULT_BUDGET,
                      "help": _BUDGET_HELP}))),
    "scalar-ode": ("cyclic-vector scalar operator", (_CASE, _NODE)),
    "bessel": ("Wronskian check for the rank-one equivariant periods",
               (("y", {"type": float}), ("nu", {"type": float}))),
}


def _add_arguments(p, command: str) -> argparse.ArgumentParser:
    for name, keywords in _COMMANDS[command][1]:
        p.add_argument(name, **keywords)
    p.add_argument("--output", metavar="FILE",
                   help="write the payload to FILE instead of stdout")
    return p


@cache
def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of one command, named as its sub-parser would be; with
    no command, the full parser, which answers -h and a missing or
    unknown command."""
    if command is not None:
        return _add_arguments(
            argparse.ArgumentParser(prog=f"mmirror {command}"), command)
    parser = argparse.ArgumentParser(
        prog="mmirror",
        description="Exact mirror-identity computations for minuscule "
                    "flag varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return parser


def _parse(argv: list):
    """(command, args).  A known command in argv[0] is parsed by its own
    parser; anything else, or arguments that parser does not know, by
    the full parser, so every usage and error reads as it would there."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _build_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return argv[0], args
    args = _build_parser().parse_args(argv)
    return args.command, args


def _bessel_numbers(argv: list) -> list:
    """argv with a space put before each negative number that is not the
    value of --output, such as -1e-3 or -inf: argparse takes a token that
    does not start with "-" for a positional, whatever its Python
    version's negative-number rule, and float() drops the space."""
    out = []
    for prev, arg in zip(["bessel", *argv], argv):
        if arg.startswith("-") and not (len(prev) > 2
                                        and "--output".startswith(prev)):
            try:
                float(arg)
                arg = " " + arg
            except ValueError:
                pass
        out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one command, return its exit code.  Repeated calls in one
    process build each command's parser and the pinned list once, each
    case afresh; the command's cmd_* function is looked up by name at
    call time."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["bessel"]:
        argv = _bessel_numbers(argv)
    name, args = _parse(argv)
    command = globals()["cmd_" + name.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, ArithmeticError, BudgetExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
