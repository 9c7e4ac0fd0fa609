"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that the oracle agrees with itself where two of its routes apply,
that one corrupted expected value makes a pass count exactly that word
as failed, that a run prints every metric ``BENCHMARK.json`` names, and
that a directory without the program's sources gets an error, not a
result.  Takes about a minute; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import oracle
import run

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def oracle_routes_agree() -> None:
    for p, q in ((3, 10), (7, 2), (5, 3), (2, 41)):
        letters = tuple(range(1, p)) * q
        check(oracle.torus_alexander(p, q) == oracle.burau_alexander(p, letters),
              f"torus closed form equals the sympy determinant on T({p},{q})")
    exps = (3, 5, 7)
    check(oracle.connected_sum_alexander(exps) == oracle.burau_alexander(*run._word(("sum",) + exps, None)),
          "connected-sum product equals the sympy determinant on T(2,3)#T(2,5)#T(2,7)")


def corruption_is_counted() -> None:
    entries = [(("torus", 2, 3), None), (None, "strands=3: 1^2 2^3 1 2^4"), (("sum", 3, 5), None)]
    keys = [run._key(*run._word(f, t)) for f, t in entries]
    families = {k: f for k, (f, _) in zip(keys, entries)}
    checker = run.Checker(keys, families)
    result = run.run_pass({"src": run.SRC, "workload": "ladder", "seed": 0, "words": keys,
                           "slice": 1, "trace": True})
    check(checker.failures(result) == (0, True), "an honest pass has no failed word")
    exp = checker.expected[keys[1]]
    exp["alexander"] = [[e, c + (i == 0)] for i, (e, c) in enumerate(exp["alexander"])]
    check(checker.failures(result) == (1, True), "one corrupted polynomial fails exactly one word")
    checker.expected[keys[2]]["states"] += 1
    check(checker.failures(result) == (2, True), "a corrupted state count fails one more word")


def metrics_are_printed() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                               "states", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                              capture_output=True, text=True, cwd=run.ROOT, timeout=170)
        result = json.loads(proc.stdout.splitlines()[-1])
        check(proc.returncode == 0 and sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"--trace {trace} exits 0 and ends with the result object")
        names = {m["name"]: m["unit"] for m in bench[group]}
        check({k: v["unit"] for k, v in result["metrics"].items()} == names,
              f"--trace {trace} prints exactly the {group} metrics of BENCHMARK.json, with their units")
        check(result["correct"] and result["failed"] == 0, f"--trace {trace} run is correct")


def bare_directory_fails() -> None:
    bare = os.path.join(run.HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=170)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program's sources the run exits non-zero and prints no result")


if __name__ == "__main__":
    oracle_routes_agree()
    corruption_is_counted()
    metrics_are_printed()
    bare_directory_fails()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
