import copy

import pytest

from pdgenus import golden
from pdgenus.cli import main
from pdgenus.diagrams import ChordDiagram, enumerate_diagrams
from pdgenus.golden import (
    _parse_published_sum,
    load_errata_notes,
    load_golden_table,
    verify_golden_table,
)
from pdgenus.polynomials import IntPolynomial
from pdgenus.weight_system import pd_genus_polynomial


def test_small_values_match_computation():
    for entry in load_golden_table()["small"]:
        expected = IntPolynomial(entry["gamma"])
        assert pd_genus_polynomial(ChordDiagram.parse(entry["word"])) == expected, entry["word"]


def test_small_list_covers_all_diagrams_up_to_order_three():
    small = load_golden_table()["small"]
    listed = {ChordDiagram.parse(entry["word"]).canonical().word for entry in small}
    everything = {
        d.word for n in (1, 2, 3) for d in enumerate_diagrams(n)
    }
    assert listed == everything


def test_table_words_are_exactly_the_order_four_diagrams():
    data = load_golden_table()
    words = {tuple(map(int, row["word"].split())) for row in data["order4"]}
    assert words == {d.word for d in enumerate_diagrams(4)}
    assert [row["row"] for row in data["order4"]] == list(range(1, 19))


def test_all_rows_verify():
    rows, _ = verify_golden_table()
    assert len(rows) == 18
    for row in rows:
        assert row.gamma_matches, row.label
        assert row.computed_interlace == row.interlace, row.label
        assert row.computed_gamma.coeff_sum() == 16


def test_computed_relations_match_published_column():
    rows, _ = verify_golden_table()
    for row in rows:
        if row.basis:
            assert row.computed_relation is None
        else:
            assert row.computed_relation == row.published_relation, row.label


def test_basis_is_the_published_choice():
    rows, _ = verify_golden_table()
    basis_rows = [row.row for row in rows if row.basis]
    assert basis_rows == [3, 6, 7, 15, 17, 18]


def test_known_issues_are_flagged():
    rows, errata = verify_golden_table()
    flagged = {row.row for row in rows if row.issues}
    assert flagged == {8, 9, 10, 14, 15, 17}
    kinds = {e["kind"] for e in errata}
    assert kinds == {"value-misprint", "label-typo", "relation-check"}
    # the verification itself found nothing beyond the shipped diagnosis
    assert not any(e["kind"] == "verification-failure" for e in errata)


def test_every_verification_branch_reports_in_order(monkeypatch):
    # row 2's published values all disagree with computation, and row 1's gamma is
    # computed wrong (it sums to 17) against a wrong interlace sequence, so every
    # check fires, and row 1 fails all three errata checks
    data = copy.deepcopy(load_golden_table())
    data["order4"][0]["interlace"] = "(2,3,3,3)"
    data["order4"][1].update(
        gamma=[2, 10, 5],
        interlace="(1,1,1,1)",
        relation={"d4_3": 2},
        published_label="d4_5",
        published_gamma="2+10z+3z^2",
    )
    monkeypatch.setattr(golden, "load_golden_table", lambda: data)
    first = ChordDiagram.parse(data["order4"][0]["word"])
    real = golden.pd_genus_polynomial
    monkeypatch.setattr(
        golden,
        "pd_genus_polynomial",
        lambda d: IntPolynomial([0, 8, 9]) if d == first else real(d),
    )

    rows, errata = verify_golden_table()

    def failure(row, note):
        return {"rows": [row], "kind": "verification-failure", "note": note}

    assert errata == load_errata_notes() + [
        failure(1, "computed gamma 8z + 9z^2 differs from expected 8z + 8z^2"),
        failure(1, "computed gamma breaks the coefficient-sum law"),
        failure(1, "computed interlace sequence (3,3,3,3) differs from (2,3,3,3)"),
        failure(2, "computed gamma 2 + 10z + 4z^2 differs from expected 2 + 10z + 5z^2"),
        failure(2, "computed interlace sequence (2,2,2,2) differs from (1,1,1,1)"),
    ]
    assert rows[1].issues == [
        "published subscript d4_5 contradicts row position 2",
        "published value 2+10z+3z^2 sums to 15, not 2^4 = 16",
        "published relation {'d4_3': 2} replaced by computed relation "
        "{'d4_3': 1, 'd4_6': -1, 'd4_7': 1}",
    ]
    assert rows[0].issues == []
    assert [row.row for row in rows if not row.gamma_matches] == [1, 2]
    assert main(["table"]) == 2


def test_rows_are_values():
    first, _ = verify_golden_table()
    second, _ = verify_golden_table()
    assert first == second
    with pytest.raises(AttributeError):
        first[0].computed_gamma = IntPolynomial([16])


def test_misprinted_rows_fail_the_coefficient_sum_law():
    rows, _ = verify_golden_table()
    for row in rows:
        if row.row in (9, 10, 14, 17):
            assert row.published_gamma == "4(2+z)"
            assert any("sums to 12" in issue for issue in row.issues)


def test_subscript_typos_recorded():
    notes = load_errata_notes()
    typos = {
        (e["rows"][0], e["published"]) for e in notes if e["kind"] == "label-typo"
    }
    assert typos == {(8, "d4_2"), (15, "d4_11")}


def test_published_sums_of_every_order_four_row():
    for entry in load_golden_table()["order4"]:
        text = entry["published_gamma"]
        assert _parse_published_sum(text) == (12 if text == "4(2+z)" else 16), text


@pytest.mark.parametrize(
    "text", ["__import__('os')", "os.system", "().__class__", "len(z)", "True", "2-z", "1/2", "2+"]
)
def test_published_sum_rejects_anything_but_sums_products_and_powers(text):
    with pytest.raises(ValueError):
        _parse_published_sum(text)
