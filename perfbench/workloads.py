"""The benchmark's three workloads.

Each workload builds its inputs and reference values in ``setup`` (timed
as set-up), runs one item at a time in ``run`` (timed), and checks an
item's output in ``check`` (not timed).  ``check`` raises ``Mismatch``
when an output is wrong.  The library is reached only through the
``mmirror.cli`` module: ``main`` and the names it imports from the layer
modules.  Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from importlib import resources


class Mismatch(Exception):
    """An output disagreed with its independently computed reference."""


# Pinned totals of `mmirror verify --all`; the battery rule below must
# reproduce them over the whole case list.
PINNED_CASES, PINNED_CHECKS = 58, 335


def expected_battery(entry) -> list:
    """Names of the checks `verify` runs on a pinned case, in order.

    Restated here from the documented battery so that a case which
    silently drops or renames a check is caught.
    """
    cartan, node = entry["cartan"], entry["node"]
    family, rank = cartan[0], int(cartan[1:])
    if family == "B" and node == 1:          # odd quadric
        names = ["fw_products", "homogeneous", "period_positive"]
        return names + (["x6_relation"] if rank == 3 else [])
    names = ["mirror", "equivariant", "homogeneous", "poincare", "period"]
    if (family == "A" and node in (1, rank)) or (family == "C" and node == 1):
        names.append("projective_period")
    if "ct_degree" in entry:
        names.append("constant_term")
    if (cartan, node) in (("E6", 6), ("E7", 7), ("D4", 1)):
        names.append("wgamma")
    if (cartan, node) == ("A3", 2):
        names.append("gr24_products")
    if (cartan, node) == ("D4", 1):
        names += ["d4_kernel", "d4_scalar"]
    return names


# Orbit-dimension bands: every twin group up to LIGHT_MAX_DIM runs; each
# band above it contributes one twin group.
LIGHT_MAX_DIM = 20
HEAVY_BANDS = ((21, 35), (36, 10**9))
HEAVY_MIN_DIM = 56


def draw_subset(cases, rng: random.Random) -> list:
    """Seed-drawn subset of the pinned cases, stratified by orbit dimension.

    Cases of one Cartan type with equal orbit dimension and the same check
    battery form a twin group (Gr(k,n) and Gr(n-k,n), the two spinor
    nodes of D_n): they run the same checks on isomorphic orbits, so the
    seed picks one case from each chosen group and the work of a pass
    does not depend on the seed.  All twin groups of dimension <=
    LIGHT_MAX_DIM are chosen.  Each band above contributes the groups of
    one (Cartan type, dimension): the smallest dimension of a family not
    yet chosen, or else the smallest dimension.  That keeps every family,
    every battery variant and one case of dimension >= 56 while one pass
    stays near an eighth of a full `verify --all`.
    """
    groups = {}
    for case in cases:
        key = (case["cartan"], case["dim"], tuple(case["battery"]))
        groups.setdefault(key, []).append(case)
    chosen = [key for key in groups if key[1] <= LIGHT_MAX_DIM]
    for low, high in HEAVY_BANDS:
        families = {key[0][0] for key in chosen}
        band = sorted({key[:2] for key in groups if low <= key[1] <= high},
                      key=lambda pair: (pair[1], pair[0]))
        fresh = [pair for pair in band if pair[0][0] not in families]
        pick = (fresh or band)[0]
        chosen += [key for key in groups if key[:2] == pick]
    subset = [rng.choice(sorted(groups[key], key=lambda c: c["node"]))
              for key in sorted(chosen)]
    if max(c["dim"] for c in subset) < HEAVY_MIN_DIM:
        raise AssertionError("subset has no case of dimension >= 56")
    if {c["cartan"][0] for c in subset} != {c["cartan"][0] for c in cases}:
        raise AssertionError("subset misses a family")
    return subset


class Workload:
    """Defaults shared by the workloads.

    Each workload sets ``name`` and ``nominal_pass_s``, a typical pass
    time, which sets the pass count.  ``case_percentiles`` marks a
    sample of many cases whose latency percentiles are reported; the other
    workloads have a few fixed items.  ``item_span`` names the traced
    span around one item.  ``out_dir`` is a scratch directory inside the
    checkout for output files.
    """

    case_percentiles = False
    item_span = "bench.item"

    def __init__(self, out_dir: str):
        self.out_dir = out_dir


class VerifyPinned(Workload):
    """`mmirror verify <cartan> --node <n>` over a subset of pinned cases."""

    name = "verify_pinned"
    nominal_pass_s = 12
    case_percentiles = True
    item_span = "cli.case"

    def setup(self, cli, rng: random.Random) -> list:
        text = resources.files("mmirror.data").joinpath(
            "verify_cases.json").read_text()
        entries = json.loads(text)["cases"]
        batteries = [expected_battery(e) for e in entries]
        total = sum(len(b) for b in batteries)
        if (len(entries), total) != (PINNED_CASES, PINNED_CHECKS):
            raise Mismatch(f"pinned list has {len(entries)} cases / {total} "
                           f"checks, expected {PINNED_CASES} / "
                           f"{PINNED_CHECKS}")
        cases = []
        for entry, battery in zip(entries, batteries):
            datum = cli.build_root_datum(cli.CartanType.parse(entry["cartan"]))
            dim = cli.levi_data(datum, entry["node"]).coset_size
            cases.append({"cartan": entry["cartan"], "node": entry["node"],
                          "dim": dim, "battery": battery})
        return draw_subset(cases, rng)

    @staticmethod
    def item_id(case) -> str:
        return f"{case['cartan']}n{case['node']}"

    def run(self, cli, case):
        path = os.path.join(self.out_dir, self.item_id(case) + ".json")
        code = cli.main(["verify", case["cartan"], "--node", str(case["node"]),
                         "--output", path])
        return code, path

    def check(self, cli, case, output) -> None:
        code, path = output
        try:            # removed once read, so a later pass cannot reuse it
            with open(path) as fh:
                doc = json.load(fh)
            os.remove(path)
            report, = doc["cases"]
        except (OSError, ValueError, KeyError) as exc:
            raise Mismatch(f"exit {code}, no readable report: {exc}")
        names = [c["name"] for c in report["checks"]]
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        if code != 0 or not doc["pass"] or not report["pass"] or failed:
            raise Mismatch(f"exit {code}, failed checks {failed}")
        if names != case["battery"]:
            raise Mismatch(f"checks {names}, expected {case['battery']}")
        if report["dim"] != case["dim"]:
            raise Mismatch(f"dim {report['dim']}, expected {case['dim']}")


class SeriesOde(Workload):
    """Deep quantum periods and cyclic-vector operators on mid-size cases."""

    name = "series_ode"
    nominal_pass_s = 15
    CASES = (("A4", 2), ("A5", 3), ("D5", 5), ("E6", 1), ("B5", 5),
             ("B4", 1), ("D4", 1))

    def setup(self, cli, rng: random.Random) -> list:
        items = []
        for cartan, node in self.CASES:
            datum = cli.build_root_datum(cli.CartanType.parse(cartan))
            reps = cli.minuscule_coset_reps(datum, node)
            if node in cli.minuscule_nodes(datum.cartan_type):
                matrix = cli.quantum_chevalley_minuscule(datum, reps, node)
                c1 = cli.bruhat_path_count(datum, reps, node)
            else:                             # odd quadric B_n node 1
                matrix = cli.fw_matrix(datum, reps, node)
                c1 = 2
            items.append({"cartan": cartan, "node": node, "matrix": matrix,
                          "c1": c1})
        return items

    @staticmethod
    def item_id(item) -> str:
        return f"{item['cartan']}n{item['node']}"

    def run(self, cli, item):
        m = item["matrix"]
        if (item["cartan"], item["node"]) == ("D4", 1):
            m = cli.d4_split(m).restricted
        series = cli.quantum_period(m, 2 * m.size)
        op = cli.cyclic_scalar_operator(m, m.size - 1)
        return series, op, cli.operator_annihilates(op, series)

    def check(self, cli, item, output) -> None:
        series, op, annihilates = output
        if not annihilates:
            raise Mismatch("operator does not annihilate the period")
        if series.coefficients[1] != item["c1"]:
            raise Mismatch(f"c1 = {series.coefficients[1]}, chain count "
                           f"{item['c1']}")
        if (item["cartan"], item["node"]) == ("D4", 1):
            R = cli.RatFunc.make
            want = (R((0, -2)), R((0, -4))) + (R(()),) * 5 + (R((1,)),)
            if op.coefficients != want:
                raise Mismatch("D4 n1 operator is not theta^7 - 4q theta - 2q")


class GwConstantTerm(Workload):
    """Gromov-Witten numbers of Grassmannians from constant terms."""

    name = "gw_constant_term"
    nominal_pass_s = 7
    CASES = ((2, 5, 3), (2, 6, 3), (2, 7, 2), (3, 6, 2), (3, 7, 2))

    def setup(self, cli, rng: random.Random) -> list:
        items = []
        for k, n, d in self.CASES:
            datum = cli.build_root_datum(cli.CartanType.parse(f"A{n - 1}"))
            reps = cli.minuscule_coset_reps(datum, k)
            matrix = cli.quantum_chevalley_minuscule(datum, reps, k)
            want = cli.quantum_period(matrix, d).coefficients[d]
            items.append({"k": k, "n": n, "d": d, "want": want})
        return items

    @staticmethod
    def item_id(item) -> str:
        return f"Gr({item['k']},{item['n']})d{item['d']}"

    def run(self, cli, item) -> Fraction:
        pot = cli.potential_typeA(item["k"], item["n"])
        return cli.gw_from_constant_term(pot, item["d"])

    def check(self, cli, item, output) -> None:
        if output != item["want"]:
            raise Mismatch(f"constant term gives {output}, period "
                           f"{item['want']}")


WORKLOADS = {w.name: w for w in (VerifyPinned, SeriesOde, GwConstantTerm)}
