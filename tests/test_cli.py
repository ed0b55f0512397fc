import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pdgenus import cli, diagrams, golden, weight_system
from pdgenus.cli import main
from pdgenus.diagrams import ChordDiagram
from pdgenus.maps import CombinatorialMap, format_cycles
from pdgenus.polynomials import IntPolynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    def test_interlaced_pair(self, capsys):
        code, out, _ = run(capsys, "poly", "1 2 1 2")
        assert code == 0
        assert out.strip() == "2 + 2z"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "poly", "--json", "1 2 1 2")
        payload = json.loads(out)
        assert payload["polynomial"] == {"coeffs": [2, 2]}
        assert payload["subset_count"] == 4

    def test_json_reports_the_canonical_diagram(self, capsys):
        code, out, _ = run(capsys, "poly", "--json", "2 1 2 1")
        assert code == 0
        payload = json.loads(out)
        assert payload["diagram"] == [1, 2, 1, 2]
        assert payload["subset_count"] == 4
        assert payload["polynomial"] == {"coeffs": [2, 2]}

    @pytest.mark.parametrize("flag", ["--oracle", "--fast"])
    def test_genus_path_flags_removed(self, capsys, flag):
        code, out, err = run(capsys, "poly", flag, "1 2 1 3 2 3")
        assert code == 1
        assert out == ""
        assert flag in err
        code, out, _ = run(capsys, "poly", "--help")
        assert code == 0
        assert "--oracle" not in out and "--fast" not in out

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, "poly", "1 2 1")
        assert code == 1
        assert "error" in err


class TestChecks:
    def test_check4t_clean_run(self, capsys):
        code, out, _ = run(capsys, "check4t", "3", "--json")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary == {"n": 3, "quadruples": 6, "violations": 0}

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_check4t_below_order_two_is_empty(self, capsys, n):
        code, out, err = run(capsys, "check4t", n)
        assert code == 0
        assert (out, err) == (f"n={n}: 0 quadruples, 0 violations\n", "")

    def test_check4t_threads_flag_removed(self, capsys):
        code, out, err = run(capsys, "check4t", "3", "--threads", "2")
        assert code == 1
        assert out == ""
        assert "--threads" in err
        code, out, _ = run(capsys, "check4t", "--help")
        assert code == 0
        assert "--threads" not in out

    # the two quadruples of order 3 that hold class 4, 1 2 3 1 2 3, with opposite signs
    WITNESSES = [
        {
            "quadruple": ["1 1 2 3 2 3", "1 2 1 3 2 3", "1 2 3 1 2 3", "1 2 1 3 2 3"],
            "residual": {"coeffs": [0, 1]},
        },
        {
            "quadruple": ["1 2 1 3 2 3", "1 1 2 3 2 3", "1 2 1 3 2 3", "1 2 3 1 2 3"],
            "residual": {"coeffs": [0, -1]},
        },
    ]

    @pytest.fixture
    def wrong_polynomial(self, monkeypatch):
        # class 4 of order 3 reads 9z instead of 8z
        table = weight_system._gamma_table

        def wrong_table(n):
            polys = list(table(n))
            polys[4] += IntPolynomial([0, 1])
            return tuple(polys)

        monkeypatch.setattr(weight_system, "_gamma_table", wrong_table)

    def test_check4t_violation_exits_two_with_witnesses(self, capsys, wrong_polynomial):
        code, out, err = run(capsys, "check4t", "3")
        assert (code, err) == (2, "")
        lines = [f"violation: {witness}" for witness in self.WITNESSES]
        assert out.splitlines() == lines + ["n=3: 6 quadruples, 2 violations"]
        assert out.splitlines()[0] == (
            "violation: {'quadruple': ['1 1 2 3 2 3', '1 2 1 3 2 3', '1 2 3 1 2 3', "
            "'1 2 1 3 2 3'], 'residual': {'coeffs': [0, 1]}}"
        )

    def test_check4t_violation_json_puts_witnesses_before_the_summary(
        self, capsys, wrong_polynomial
    ):
        code, out, err = run(capsys, "check4t", "3", "--json")
        assert (code, err) == (2, "")
        assert [json.loads(line) for line in out.splitlines()] == self.WITNESSES + [
            {"n": 3, "quadruples": 6, "violations": 2}
        ]
        assert out.splitlines()[-1] == '{"n": 3, "quadruples": 6, "violations": 2}'

    def test_dims(self, capsys):
        code, out, _ = run(capsys, "dims", "4")
        assert code == 0
        assert out.strip() == "6"

    def test_dims_json(self, capsys):
        _, out, _ = run(capsys, "dims", "--json", "3")
        assert json.loads(out) == {"n": 3, "dim": 3, "diagrams": 5}


class TestOrderLimit:
    @pytest.mark.parametrize("command", ["enum", "check4t", "dims"])
    def test_above_limit_exits_one_before_any_work(self, capsys, monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("work started above the order limit")

        for name in ("enumerate_diagrams", "check_4T", "dim_quotient"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run(capsys, command, str(cli.MAX_ORDER + 1), "--json")
        assert code == 1
        assert out == ""
        assert f"above the limit of {cli.MAX_ORDER}" in err and "--force" in err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ("enum 3", '{"count": 5'),
            ("check4t 3", '{"n": 3, "quadruples": 6, "violations": 0}'),
            ("dims 3", '{"diagrams": 5, "dim": 3, "n": 3}'),
        ],
    )
    def test_force_runs_above_limit(self, capsys, monkeypatch, argv, expected):
        monkeypatch.setattr(cli, "MAX_ORDER", 2)
        assert run(capsys, "--json", *argv.split())[0] == 1
        code, out, _ = run(capsys, "--json", *argv.split(), "--force")
        assert code == 0
        assert out.startswith(expected)


    @pytest.mark.slow
    def test_order_eight_has_no_violations_within_200_mb(self):
        # the child prints its own peak RSS (KiB on Linux) after the report
        script = (
            "import resource, sys\n"
            "from pdgenus.cli import main\n"
            "code = main(['check4t', '8', '--force', '--json'])\n"
            "sys.stdout.flush()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=1200,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout == '{"n": 8, "quadruples": 945943, "violations": 0}\n'
        assert int(child.stderr.split()[-1]) < 200 * 1024


class TestPolyFactorLimit:
    @staticmethod
    def _no_walk(m):
        raise AssertionError("walk started above the subset limit")

    def test_prime_factor_above_limit_exits_one_before_any_walk(self, capsys, monkeypatch):
        weight_system._gamma.cache_clear()
        monkeypatch.setattr(cli, "MAX_POLY_SUBSETS", 4)
        monkeypatch.setattr(weight_system, "_genus_distribution", self._no_walk)
        code, out, err = run(capsys, "poly", "--json", "1 2 3 1 2 3")
        assert code == 1
        assert out == ""
        assert "would walk 8 subsets, above the limit of 4" in err

    def test_distinct_factors_together_above_limit_exit_one_before_any_walk(
        self, capsys, monkeypatch
    ):
        # an interlaced pair (4 subsets) and a 3-chord triangle (8): each fits alone
        weight_system._gamma.cache_clear()
        monkeypatch.setattr(cli, "MAX_POLY_SUBSETS", 8)
        monkeypatch.setattr(weight_system, "_genus_distribution", self._no_walk)
        code, out, err = run(capsys, "poly", "1 2 1 2 3 4 5 3 4 5")
        assert code == 1
        assert out == ""
        assert "would walk 12 subsets, above the limit of 8" in err

    def test_sum_of_small_factors_above_limit_runs(self, capsys, monkeypatch):
        # three equal factors: one walk of 4 subsets
        monkeypatch.setattr(cli, "MAX_POLY_SUBSETS", 4)
        code, out, _ = run(capsys, "poly", "1 2 1 2 3 4 3 4 5 6 5 6")
        assert code == 0
        pair = IntPolynomial([2, 2])  # the interlaced pair
        assert out.strip() == str(pair * pair * pair)


class TestWordLimit:
    WORD_COMMANDS = [
        ["poly"],
        ["interlace"],
        ["genus"],
        ["dual", "--chords", "1"],
        ["slide", "--move", "0", "--along", "2"],
    ]

    @pytest.mark.parametrize("command", WORD_COMMANDS, ids=lambda c: c[0])
    def test_word_above_limit_exits_one_before_any_work(self, capsys, monkeypatch, command):
        def no_canonical(word):
            raise AssertionError("canonicalization started above the word limit")

        monkeypatch.setattr(cli, "MAX_WORD_CHORDS", 3)
        monkeypatch.setattr(diagrams, "_least_rotation", no_canonical)
        code, out, err = run(capsys, command[0], "--json", "1 2 3 4 1 2 3 4", *command[1:])
        assert (code, out) == (1, "")
        assert err.startswith("pdgenus: error: ")
        assert "4 chords are above the limit of 3" in err

    @pytest.mark.parametrize("command", WORD_COMMANDS, ids=lambda c: c[0])
    def test_word_at_limit_runs(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "MAX_WORD_CHORDS", 3)
        assert run(capsys, command[0], "1 2 3 1 2 3", *command[1:])[0] == 0

    def test_product_counts_the_chords_of_both_words(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_WORD_CHORDS", 3)
        code, out, err = run(capsys, "product", "1 2 1 2", "1 2 1 2")
        assert (code, out) == (1, "")
        assert "4 chords are above the limit of 3" in err
        assert run(capsys, "product", "1 2 1 2", "1 1")[0] == 0


class TestEnum:
    def test_count_line(self, capsys):
        code, out, _ = run(capsys, "enum", "3")
        assert code == 0
        assert out.strip().endswith("count: 5")
        assert len(out.strip().splitlines()) == 6

    def test_limit(self, capsys):
        _, out, _ = run(capsys, "enum", "3", "--limit", "2")
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[-1] == "count: 5"

    def test_negative_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "enum", "3", "--limit", "-1")
        assert code == 1
        assert out == ""
        assert "--limit" in err

    def test_limit_zero_prints_only_the_count(self, capsys):
        code, out, _ = run(capsys, "enum", "2", "--limit", "0")
        assert (code, out) == (0, "count: 2\n")

    def test_json_round_trips_through_parse(self, capsys):
        _, out, _ = run(capsys, "enum", "2", "--json")
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["diagrams"] == [[1, 1, 2, 2], [1, 2, 1, 2]]


class TestGenus:
    def test_diagram_word(self, capsys):
        code, out, _ = run(capsys, "genus", "1 2 1 2")
        assert (code, out.strip()) == (0, "1")

    def test_map_file(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("sigma: (0 1 2 3)\nalpha: (0 2)(1 3)\n")
        code, out, _ = run(capsys, "genus", "--json", "--map", str(path))
        assert code == 0
        assert json.loads(out) == {"genus": 1, "v": 1, "e": 2, "f": 1, "c": 1}

    @pytest.mark.parametrize(
        "text",
        [
            "sigma: (0 1 2 3)\nalpha: (0 2)(1 3)\nsigma: (0 1)(2 3)\n",
            "sigma: (0 1)\nalpha: (0 1)\nbeta: x\n",
        ],
    )
    def test_map_file_with_a_repeated_or_unknown_line_exits_one(self, capsys, tmp_path, text):
        path = tmp_path / "map.txt"
        path.write_text(text)
        code, out, err = run(capsys, "genus", "--map", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("pdgenus: error: map text line 3 is ")

    def test_directory_exits_one(self, capsys, tmp_path):
        code, out, err = run(capsys, "genus", "--map", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("pdgenus: error:")

    def test_missing_map_file_is_reported_as_missing(self, capsys, tmp_path):
        code, out, err = run(capsys, "genus", "--map", str(tmp_path / "abab.txt"))
        assert (code, out) == (1, "")
        assert "No such file" in err

    def test_bare_argument_is_a_word_even_when_a_file_has_its_name(
        self, capsys, tmp_path, monkeypatch
    ):
        (tmp_path / "abab").write_text("sigma: (0 1)\nalpha: (0 1)\n")  # genus 0
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "genus", "abab")
        assert (code, out.strip()) == (0, "1")

    def test_huge_half_edge_id_fails_before_allocating(self, tmp_path):
        # Run in a child whose address space is capped at 1 GiB, so that a
        # parser that allocates up to the largest id fails with MemoryError
        # instead of exhausting the machine.
        path = tmp_path / "map.txt"
        path.write_text("sigma: (0 1)\nalpha: (0 1000000000000)\n")
        script = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from pdgenus.cli import main
from pdgenus.maps import CombinatorialMap, FixedPointError
text = open(sys.argv[1]).read()
try:
    CombinatorialMap.from_text(text)
    raised = None
except FixedPointError:
    raised = "FixedPointError"
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(["genus", "--map", sys.argv[1]])
print(json.dumps([raised, code, out.getvalue(), err.getvalue()]))
"""
        child = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert child.returncode == 0, child.stderr
        raised, code, out, err = json.loads(child.stdout)
        assert (raised, code, out) == ("FixedPointError", 1, "")
        assert err.startswith("pdgenus: error:")

    @staticmethod
    def _padded_map(path, size):
        """The interlaced pair's map file, padded by a comment to ``size`` bytes."""
        text = "sigma: (0 1 2 3)\nalpha: (0 2)(1 3)\n#"
        path.write_text(text + "x" * (size - len(text)))

    def test_map_file_at_the_size_limit_runs(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        self._padded_map(path, cli.MAX_MAP_BYTES)
        assert run(capsys, "genus", "--map", str(path))[:2] == (0, "1\n")

    def test_map_file_over_the_size_limit_is_refused_before_parsing(
        self, capsys, tmp_path, monkeypatch
    ):
        def fail(*args):
            raise AssertionError("a map was parsed or built")

        monkeypatch.setattr(CombinatorialMap, "__init__", fail)
        monkeypatch.setattr(CombinatorialMap, "from_text", fail)
        path = tmp_path / "map.txt"
        self._padded_map(path, cli.MAX_MAP_BYTES + 1)
        code, out, err = run(capsys, "genus", "--map", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"pdgenus: error: map file of {cli.MAX_MAP_BYTES + 1} bytes is above the limit "
            f"of {cli.MAX_MAP_BYTES}\n"
        )

    def test_map_of_1600_edges_runs(self, capsys, tmp_path):
        # 800 interlaced pairs in a row on one vertex: genus 800
        m = ChordDiagram([c for k in range(800) for c in (2 * k, 2 * k + 1) * 2]).to_map()
        path = tmp_path / "map.txt"
        path.write_text(f"sigma: {format_cycles(m.sigma)}\nalpha: {format_cycles(m.alpha)}\n")
        code, out, _ = run(capsys, "genus", "--json", "--map", str(path))
        assert code == 0
        assert json.loads(out) == {"genus": 800, "v": 1, "e": 1600, "f": 1, "c": 1}

    def test_word_and_map_are_exclusive(self, capsys, tmp_path):
        code, out, _ = run(capsys, "genus", "1 1", "--map", str(tmp_path / "m.txt"))
        assert (code, out) == (1, "")
        assert run(capsys, "genus")[0] == 1


class TestDual:
    def test_middle_loop_of_chain(self, capsys):
        code, out, _ = run(capsys, "dual", "1 2 1 3 2 3", "--chords", "2")
        assert code == 0
        assert "genus: 0" in out

    def test_json_schema(self, capsys):
        _, out, _ = run(capsys, "dual", "--json", "1 2 1 2", "--chords", "1")
        payload = json.loads(out)
        assert set(payload) == {"circles", "pairing", "side", "genus", "counts"}
        assert payload["counts"]["v"] == 2

    def test_json_reads_the_dual_map(self, capsys):
        # the dual's vertices are the circles, its edges the chords of labels() in order
        code, out, _ = run(capsys, "dual", "--json", "1 2 1 3 2 3", "--chords", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["circles"] == [[0, 3, 4, 5], [1, 2]]
        assert payload["pairing"] == [[0, 2], [1, 4], [3, 5]]
        assert payload["side"] == ["out", "in", "in"]
        assert (payload["genus"], payload["counts"]) == (1, {"v": 2, "e": 3, "f": 1, "c": 1})

    @pytest.mark.parametrize("chords", ["a", "1,x", "1.5"])
    def test_chords_that_are_not_integers_exit_one(self, capsys, chords):
        code, out, err = run(capsys, "dual", "1 2 1 2", "--chords", chords)
        assert (code, out) == (1, "")
        assert err == "pdgenus: error: --chords expects comma-separated integer labels\n"


def test_dual_and_slide_outputs_are_pinned(capsys):
    """``dual`` over every chord subset and ``slide`` over every ``--move``/``--along``
    pair, in text and JSON, over every diagram of orders 0-3: stdout and exit codes."""
    digest = hashlib.sha256()
    for n in range(4):
        for d in diagrams.enumerate_diagrams(n):
            word, labels = str(d), d.labels()
            calls = [
                ("dual", word, "--chords", ",".join(str(labels[i]) for i in range(n) if s >> i & 1))
                for s in range(1 << n)
            ]
            calls += [
                ("slide", word, "--move", str(move), "--along", str(along))
                for move in range(2 * n) for along in labels
            ]
            for argv in calls:
                for as_json in ((), ("--json",)):
                    code, out, _ = run(capsys, *as_json, *argv)
                    digest.update(f"{argv} {as_json} {code}\n{out}".encode())
    assert digest.hexdigest() == "0de780326cafc66953090cb8a003f9e4e6c72d0c465a6e9eb46374ef2a41073b"


class TestProductSlideInterlace:
    def test_product(self, capsys):
        code, out, _ = run(capsys, "product", "1 2 1 2", "1 2 1 2")
        assert code == 0
        assert out.strip() == "3 4 3 4 1 2 1 2"

    def test_product_bad_cuts(self, capsys):
        code, _, err = run(capsys, "product", "1 1", "2 2", "--cuts", "x,y")
        assert code == 1

    def test_slide_chain_to_triangle(self, capsys):
        code, out, _ = run(
            capsys, "slide", "1 2 1 3 2 3", "--move", "0", "--along", "2"
        )
        assert (code, out.strip()) == (0, "1 2 3 1 2 3")

    def test_slide_unknown_chord(self, capsys):
        code, _, err = run(capsys, "slide", "1 1", "--move", "0", "--along", "7")
        assert code == 1

    def test_interlace(self, capsys):
        code, out, _ = run(capsys, "interlace", "1 2 1 3 2 3")
        assert code == 0
        assert out.strip().splitlines()[-1] == "sequence: (1,1,2)"


class TestTable:
    def test_exits_clean_and_is_byte_stable(self, capsys):
        code1, out1, _ = run(capsys, "table")
        code2, out2, _ = run(capsys, "table")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "d4_18" in out1
        assert "errata:" in out1

    def test_text_stdout_is_pinned(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        digest = "90dd5a8f8bdbff57f932cff39a89e5eb9c5a62b2ed742d3c7f60d8ab88107304"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_has_all_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--json")
        payload = json.loads(out)
        assert len(payload["rows"]) == 18
        assert payload["rows"][0]["gamma"] == [0, 8, 8]

    @pytest.mark.parametrize("argv", [["table"], ["table", "--json"]])
    def test_wrong_expected_gamma_exits_two(self, capsys, monkeypatch, argv):
        # row 1, d4_1, expects a polynomial that its diagram does not have
        load = golden.load_golden_table

        def wrong_table():
            data = load()
            data["order4"][0]["gamma"] = [0, 8, 7, 1]
            return data

        monkeypatch.setattr(golden, "load_golden_table", wrong_table)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (2, "")
        note = "computed gamma 8z + 8z^2 differs from expected 8z + 7z^2 + z^3"
        if argv[-1] == "--json":
            payload = json.loads(out)
            assert payload["rows"][0]["expected_gamma"] == [0, 8, 7, 1]
            assert {"rows": [1], "kind": "verification-failure", "note": note} in payload["errata"]
        else:
            assert "  1  d4_1   (3,3,3,3)            8z + 8z^2          errata = " in out
            assert out.endswith(f"  rows [1] (verification-failure): {note}\n")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            "enum three",
            "poly 1_2_3_1_2_3",
            "check4t 8",
            "enum 3 --limit -1",
            "product 1_1 2_2 --cuts x,y",
            "slide 1_1 --move 0 --along 7",
        ],
        ids=["parser", "poly-subsets", "order", "enum-limit", "product-cuts", "slide-chord"],
    )
    def test_every_error_prints_one_prefix(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "MAX_POLY_SUBSETS", 4)
        argv = [arg.replace("_", " ") for arg in argv.split()]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith("pdgenus: error:")

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_argument(self, capsys):
        assert run(capsys, "poly")[0] == 1


class TestReportDigests:
    """The JSON reports stay byte-identical to the ones recorded for them."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("check4t 2", "e62148fb6a17389d8178b64111514ae1fcf42be7eed037aaef759d82a45b61c2"),
            ("check4t 3", "debf245f208d7fec3a55189de732ff053bd72803e85b046d73decc93283bdc3f"),
            ("check4t 4", "9433cff5184f557ffa3bf5d971137b69329ab2d24f58b8b74daf5ada705eabfc"),
            ("check4t 5", "5d18589ee7e7fa3b0d44544b47abd06eeb3e960328c8b675573b08d32b194238"),
            ("check4t 6", "3c251f1510d85365ad3641ccbb96b9e5600f9ef8d8230aed0bde98a0c22c86de"),
            ("enum 6", "53918a47aa4ab4c4478826594f9e62bc26acb570caee966c62dfa9790a535705"),
            ("dims 4", "750f2ebe9adcf735af1af807d02da3d074e85fe1d5e3910b72c698e3f7caf731"),
            ("dims 5", "183a88b2bcc261705791461184d2eb1ad9ccf1c2b1b2cc114c97cf0a43c77044"),
            ("dims 6", "1efeb6b75a1209fb33882386ebcf582a48634124a0c6c79233916c3e316d3bf7"),
            ("table", "7e791abea2a52e9b1b5b3c682cbfb699156411774fe222140111cc359b9b9ae3"),
            pytest.param(
                "check4t 7", "43db6fd1ee39520eda26cf1bb38282ceecd881e58f5684f5bfd3f3cc5742cf2c",
                marks=pytest.mark.slow,
            ),
            pytest.param(
                "enum 7", "ec7ed42f649ce4c75de530052702c63101013367d2639e26eb82a68835d5dd4e",
                marks=pytest.mark.slow,
            ),
            pytest.param(
                "dims 7", "ba574c63de87eb48376f6f9e7f7da715447ee4a549bb343139793aecf91f68d6",
                marks=pytest.mark.slow,
            ),
        ],
    )
    def test_json_stdout(self, capsys, argv, digest):
        code, out, _ = run(capsys, "--json", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_module_runs_as_a_script():
    child = subprocess.run(
        [sys.executable, "-m", "pdgenus.cli", "poly", "1 2 1 2"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "2 + 2z\n", "")


class TestReadmeCommands:
    """Every ``pdgenus`` example of the README's command-line block runs through ``main``."""

    MAP_PLACEHOLDER = ("genus", "--map", "path/to/map.txt")
    # the examples whose comment is their whole stdout; the other comments describe it
    WHOLE_STDOUT = {("poly", "1 2 1 2"), ("genus", "1 2 3 1 2 3"), ("dims", "4")}

    @staticmethod
    def examples():
        """``(argv, comment)`` for each ``pdgenus`` line of the block, in order."""
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
        block = block.split("```text\n", 1)[1].split("```", 1)[0]
        examples = []
        for line in block.splitlines():
            if line.startswith("pdgenus "):
                command, _, comment = line.partition("#")
                examples.append((tuple(shlex.split(command)[1:]), comment.strip()))
        return examples

    def runs_here(self, argv):
        """Not the placeholder map path, nor an order above 6 (dims 7 takes 2-3 s)."""
        above_six = argv[0] in ("enum", "check4t", "dims") and int(argv[1]) > 6
        return argv != self.MAP_PLACEHOLDER and not above_six

    def test_every_line_exits_zero(self, capsys):
        examples = self.examples()
        assert {self.MAP_PLACEHOLDER} | self.WHOLE_STDOUT <= {argv for argv, _ in examples}
        ran = 0
        for argv, comment in examples:
            if not self.runs_here(argv):
                continue
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            if argv in self.WHOLE_STDOUT:
                assert out == comment + "\n", argv
            else:
                assert out.strip(), argv
            ran += 1
        assert ran >= 10
