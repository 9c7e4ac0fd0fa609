import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from braidhfk.braidword import DEFAULT_BUDGET, MAX_STRANDS
from braidhfk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "info", "1 1 1")
        assert code == 0
        assert "components = 1" in out
        assert "genus = 1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "info", "1 1 2 3 3", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["prime_count"] == 2
        assert payload["fibered"] is True

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "info", "0 1")
        assert code == 2
        assert "error" in err


class TestAlexander:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "alexander", "1 1 1", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["agree"] is True
        assert payload["euler"]["skein"] == payload["euler"]["burau"]

    def test_skein_deeper_than_the_recursion_limit(self, capsys):
        code, out, _ = run(capsys, "alexander", "--method", "skein", "1^2100", "--json")
        assert code == 0
        code, burau, _ = run(capsys, "alexander", "--method", "burau", "1^2100", "--json")
        assert json.loads(out)["euler"]["skein"] == json.loads(burau)["euler"]["burau"]

    def test_kauffman_only_on_knots(self, capsys):
        code, _, err = run(capsys, "alexander", "1 1", "--method", "kauffman")
        assert code == 2
        assert "knot" in err

    def test_all_keeps_the_engines_that_succeed(self, capsys):
        # at budget 10 the Kauffman table of T(4,3) overflows, skein and
        # Burau do not; on a link the skein sweep fails at budget 1
        code, out, err = run(capsys, "alexander", "1 2 3 1 2 3 1 2 3", "--budget", "10", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["euler"]["kauffman"] is None
        assert payload["euler"]["skein"] == payload["euler"]["burau"] is not None
        assert payload["agree"] is True
        assert err.startswith("kauffman engine: state table reached 14 masks")
        code, out, err = run(capsys, "alexander", "1 1 2 2", "--budget", "1")
        assert code == 0
        assert out.splitlines() == [
            "skein: n/a",
            "burau: t^2 - 4 t + 6 - 4 t^-1 + t^-2",
            "kauffman: n/a (knots only)",
            "agree: True",
        ]
        assert err.startswith("skein engine: Hecke sweep")

    def test_a_single_failing_engine_exits_2(self, capsys):
        for method, budget in (("kauffman", "10"), ("skein", "1")):
            code, out, err = run(capsys, "alexander", "1 2 3 1 2 3 1 2 3", "--budget", budget, "--method", method)
            assert (code, out) == (2, "")
            assert err.startswith("error: ")

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "alexander", "1 1", "--method", "burau")
        assert code == 0
        assert "t - 2 + t^-1" in out


class TestHfk:
    def test_match_reported(self, capsys):
        code, out, _ = run(capsys, "hfk", "1^2 2^3 1 2^4")
        assert code == 0
        assert "match: True" in out


class TestStates:
    def test_histogram(self, capsys):
        code, out, _ = run(capsys, "states", "1 1 1", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["histogram"] == {"-2,-1": 1, "-1,0": 1, "0,1": 1}

    def test_long_two_strand_histogram(self, capsys):
        code, out, _ = run(capsys, "states", "1^901", "--json")
        assert code == 0
        assert sum(json.loads(out)["histogram"].values()) == 901

    def test_listing(self, capsys):
        code, out, _ = run(capsys, "states", "1 1 1")
        assert code == 0
        assert out == (
            "c1:(inner,LEFT) c2:(c1.0,IN) c3:(c1.1,IN) | M=-2, A=-1\n"
            "c1:(c1.0,OUT) c2:(inner,LEFT) c3:(c1.1,IN) | M=-1, A=0\n"
            "c1:(c1.0,OUT) c2:(c1.1,OUT) c3:(inner,LEFT) | M=0, A=1\n"
            "3 states; histogram {'-2,-1': 1, '-1,0': 1, '0,1': 1}\n"
        )

    def test_budget_caps_the_state_listing(self, capsys):
        # 901 states, but the backtracking would take minutes to list them
        start = time.perf_counter()
        code, out, err = run(capsys, "states", "1^901")
        assert time.perf_counter() - start < 10
        assert code == 2
        assert out == ""
        assert err.startswith("kauffman engine:") and f"budget {DEFAULT_BUDGET}" in err

    def test_listing_longer_than_the_recursion_limit(self, capsys):
        code, out, err = run(capsys, "states", "1^1501")
        assert code == 2
        assert out == ""
        assert err.startswith("kauffman engine:")

    def test_budget_caps_the_state_table(self, capsys):
        code, _, err = run(capsys, "states", "1 2 3 1 2 3 1 2 3", "--json", "--budget", "2")
        assert code == 2
        assert "budget 2" in err


class TestVerify:
    def test_pass_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", "1 1 1")
        assert code == 0
        assert "PASS" in out

    def test_file_input(self, tmp_path, capsys):
        corpus = tmp_path / "words.txt"
        corpus.write_text("# demo corpus\n1 1\nstrands=3: 1 1 2\n")
        code, out, _ = run(capsys, "verify", "--file", str(corpus))
        assert code == 0
        assert out.count("=> PASS") == 2

    def test_bad_line_is_located(self, tmp_path, capsys):
        corpus = tmp_path / "words.txt"
        corpus.write_text("1 1\n1 x\n1 1 1\n")
        code, out, err = run(capsys, "verify", "--file", str(corpus))
        assert code == 2
        assert out == ""
        assert err == "error: line 2: bad token 'x'\n"

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        for path in (tmp_path / "missing.txt", tmp_path):
            code, out, err = run(capsys, "verify", "--file", str(path))
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_a_file_with_no_words_exits_2(self, tmp_path, capsys, form):
        # verifying nothing is not a pass
        for text in ("", "# only comments\n\n  # and blanks\n"):
            corpus = tmp_path / "words.txt"
            corpus.write_text(text)
            code, out, err = run(capsys, "verify", "--file", str(corpus), *form)
            assert code == 2
            assert out == ""
            assert err == f"error: no words in {corpus}\n"

    def test_oversized_word_rejected_before_building(self, capsys):
        code, _, err = run(capsys, "verify", "1^100000000")
        assert code == 2
        assert "letters" in err
        code, _, err = run(capsys, "verify", "strands=100000: 1")
        assert code == 2
        assert "strands" in err

    def test_runs_as_a_module(self):
        # ``python -m braidhfk`` needs only the source tree on the path
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "braidhfk", "verify", "1 1 1"],
            cwd=root, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "=> PASS" in done.stdout


class TestCorpus:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "corpus", "--strands", "2", "--len", "3")
        assert code == 0
        assert out.splitlines() == [
            "strands=2:",
            "strands=2: 1",
            "strands=2: 1 1",
            "strands=2: 1 1 1",
        ]

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "corpus", "--strands", "2", "--len", "3", "--json")
        assert code == 0
        assert json.loads(out) == [{"strands": 2, "letters": [1] * k} for k in range(4)]

    def test_verified_run(self, capsys):
        code, out, _ = run(capsys, "corpus", "--strands", "3", "--len", "4", "--verify")
        assert code == 0
        assert "0 failures" in out


class TestFamilyAndRings:
    def test_family(self, capsys):
        code, out, _ = run(capsys, "family", "torus", "3", "4")
        assert code == 0
        assert out.strip() == "strands=3: 1 2 1 2 1 2 1 2"

    def test_family_size_bounds(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "family", "torus", "2", "100000000")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == "" and "10000 letters" in err
        code, out, _ = run(capsys, "family", "torus", "2", "10000")
        assert code == 0
        assert len(out.split()) == 1 + 10000

    def test_combined_family_size_bounds(self, capsys):
        for params in [("connected_sum", "1^6000", "1^6000"),
                       ("disjoint_union", "strands=900: 1", "strands=900: 1")]:
            code, out, err = run(capsys, "family", *params)
            assert code == 2
            assert out == "" and err.startswith("error:")
        code, out, _ = run(capsys, "family", "connected_sum", "1 1", "1 1 1")
        assert code == 0
        assert out.strip() == "strands=3: 1 1 2 2 2"

    @pytest.mark.parametrize("argv", [("info", "1 1"), ("family", "torus", "2", "3"), ("rn", "5")])
    def test_budget_only_where_it_is_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--budget", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12, MAX_STRANDS])
    def test_rn(self, capsys, n):
        code, out, _ = run(capsys, "rn", str(n), "--json")
        assert code == 0
        assert out == f'{{"n": {n}, "next_to_top": [[-1, {n - 1}, {n}]]}}\n'
        code, out, _ = run(capsys, "rn", str(n))
        assert code == 0
        assert out == f"ring of {n} unknots, next-to-top: F^{n}[-1,{n - 1}]\n"

    def test_rn_out_of_range(self, capsys):
        code, _, err = run(capsys, "rn", "2")
        assert code == 2
        assert "n >= 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("info", "1 x"),
        ("info", "strands=1001: 1"),
        ("alexander", "0"),
        ("hfk", "1^0"),
        ("states", "strands=2: 2"),
        ("states", "1 1"),
        ("verify", "1^10001"),
        ("family", "torus", "x", "2"),
        ("rn", "2"),
        ("corpus", "--strands", "1", "--len", "2"),
        ("corpus", "--strands", "1001", "--len", "1"),
        ("corpus", "--strands", "4", "--len", "40"),  # 3^40 words to walk
        ("corpus", "--strands", "3", "--len", "-1"),
    ],
)
def test_malformed_input_exits_2(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
