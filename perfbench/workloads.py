"""The workloads: seeded inputs, timed bodies and output checks.

Each workload has three functions:

* ``prepare(seed, size)`` builds the inputs from the seed alone, without
  calling pdgenus, so the library only ever sees generated inputs;
* ``run(inputs)`` is the timed section.  It calls only the public entry
  points (``check_4T``, ``dim_quotient``, ``express_modulo_4T``,
  ``verify_golden_table``, ``pd_genus_polynomial``, ``ChordDiagram``),
  looked up at call time so that the hooks of
  ``hooks.py`` see every call, and returns the outputs as plain data;
* ``check(inputs, outputs)`` runs after the timed section and returns the
  number of operations attempted and one message per operation whose
  output is wrong.

``size`` is ``"bench"`` for measurements and ``"tiny"`` for the smoke tests.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import pdgenus
import pdgenus.golden

RECORD_PATH = Path(__file__).resolve().parent / "data" / "seed_record.json"

FOURTERM_ORDER = {"bench": 6, "tiny": 4}
QUADRUPLES = {4: 45, 5: 420, 6: 4724}
# dim_quotient(6) takes 20-30 s, too long to take several samples within
# one run, so the measured order is 5.
QUOTIENT_ORDER = {"bench": 5, "tiny": 4}
DIMENSION = {4: 6, 5: 10, 6: 19}  # Bar-Natan, Topology 1995
# Express targets per sample, order 4.  An order-5 expression takes 1.5-3 s
# and slows by up to 1.8x when other tenants load the machine; short samples
# give a steadier fastest sample.
RELATIONS_TARGETS = {"bench": 3, "tiny": 1}


@functools.cache
def seed_record() -> dict:
    """Expected outputs of the relations workload, written by record.py."""
    return json.loads(RECORD_PATH.read_text())


# -- fourterm: the exhaustive four-term check ------------------------------


def fourterm_prepare(seed: int, size: str) -> int:
    return FOURTERM_ORDER[size]


def fourterm_run(n: int):
    report = pdgenus.check_4T(n, threads=1)
    keys = ("n", "quadruples", "violations", "violations_list")
    return {k: report[k] for k in keys}


def fourterm_check(n: int, out: dict) -> tuple[int, list[str]]:
    expected = {"n": n, "quadruples": QUADRUPLES[n], "violations": 0, "violations_list": []}
    if out != expected:
        return 1, [
            f"check_4T({n}): {out.get('quadruples')} quadruples and "
            f"{out.get('violations')} violations, expected {QUADRUPLES[n]} and 0"
        ]
    return 1, []


# -- quotient: the dimension of the four-term quotient ----------------------


def quotient_prepare(seed: int, size: str) -> int:
    return QUOTIENT_ORDER[size]


def quotient_run(n: int):
    return pdgenus.dim_quotient(n)


def quotient_check(n: int, out: int) -> tuple[int, list[str]]:
    if out != DIMENSION[n]:
        return 1, [f"dim_quotient({n}) = {out}, expected {DIMENSION[n]}"]
    return 1, []


# -- relations: the golden table, then express over a basis ----------------


def relations_prepare(seed: int, size: str) -> list[tuple[int, ...]]:
    rng = random.Random(f"relations:{seed}")
    targets = sorted(seed_record()["express"]["coefficients"])
    return [tuple(map(int, w.split())) for w in rng.sample(targets, RELATIONS_TARGETS[size])]


def relations_run(targets):
    rows, errata = pdgenus.golden.verify_golden_table()
    diagram = pdgenus.ChordDiagram
    basis = [diagram(map(int, w.split())) for w in seed_record()["express"]["basis"]]
    coefficients = [pdgenus.express_modulo_4T(diagram(w), basis) for w in targets]
    table = [
        {
            "row": r.row,
            "gamma": list(r.computed_gamma.coeffs),
            "expected_gamma": list(r.expected_gamma.coeffs),
            "relation": r.computed_relation,
        }
        for r in rows
    ]
    return {"rows": table, "errata": errata, "coefficients": coefficients}


def relations_check(targets, out: dict) -> tuple[int, list[str]]:
    failures = []
    golden = seed_record()["golden"]
    rows = {str(r["row"]): r for r in out["rows"]}
    if rows.keys() != golden["rows"].keys() or out["errata"] != golden["errata"]:
        failures.append("verify_golden_table: rows or errata differ from the shipped diagnosis")
    else:
        bad = [
            k
            for k, r in rows.items()
            if not r["gamma"] == r["expected_gamma"] == golden["rows"][k]["gamma"]
            or r["relation"] != golden["rows"][k]["relation"]
        ]
        if bad:
            failures.append(f"verify_golden_table: rows {bad} differ from the expected values")

    record = seed_record()["express"]
    basis = [tuple(map(int, w.split())) for w in record["basis"]]
    got = list(out["coefficients"]) + [None] * (len(targets) - len(out["coefficients"]))
    for word, coeffs in zip(targets, got):
        key = " ".join(map(str, word))
        expected = [Fraction(c) for c in record["coefficients"][key]]
        if coeffs != expected:
            failures.append(f"express_modulo_4T({key}) = {coeffs}, recorded {expected}")
        elif not _weight_identity(word, basis, coeffs):
            failures.append(f"express_modulo_4T({key}): gamma(d) != sum c_i gamma(b_i)")
    return 1 + len(targets), failures


def _gamma(word) -> list[Fraction]:
    return [Fraction(c) for c in pdgenus.pd_genus_polynomial(pdgenus.ChordDiagram(word)).coeffs]


def _weight_identity(word, basis, coeffs) -> bool:
    """gamma(d) == sum c_i gamma(b_i), exactly, for the weight system gamma."""
    total: list[Fraction] = []
    for c, b in zip(coeffs, basis):
        for i, g in enumerate(_gamma(b)):
            if i == len(total):
                total.append(Fraction(0))
            total[i] += c * g
    while total and total[-1] == 0:
        total.pop()
    return _gamma(word) == total


class Workload(NamedTuple):
    prepare: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    "fourterm": Workload(fourterm_prepare, fourterm_run, fourterm_check),
    "quotient": Workload(quotient_prepare, quotient_run, quotient_check),
    "relations": Workload(relations_prepare, relations_run, relations_check),
}
