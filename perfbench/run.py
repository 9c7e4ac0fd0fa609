"""Benchmark of ``braidhfk`` ``verify`` on three workloads.

    python3 perfbench/run.py --workload corpus|ladder|states --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; ``src/braidhfk`` is imported from there.
Each pass is a fresh interpreter (``worker.py``) that builds the words,
verifies them all from cold memo tables with ``harness.verify_all`` and
reports speed-adjusted times.  Passes are repeated, one at a time, until
``--seconds`` would be exceeded (at least ``MIN_PASSES``), and medians
are reported.  Every report of every pass is checked against
``oracle.py``, which does not use ``braidhfk``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass, then traced passes, checks that both give byte-identical
reports, and prints the per-layer metrics.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Pass
details (raw seconds, probe times, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from statistics import mean, median

import oracle
from worker import LAYERS, MEMOS, PROBE_ELASTICITY, PROBE_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
# rotation/commutation classes on 4 strands up to 10 crossings: the
# corpus workload is meaningless if the program enumerates another set
CORPUS_CLASSES = 2749

# Large words that each pass and none of which dominates the total: the
# speed adjustment works per slice, and one slice of several seconds
# between two probes defeats it.
LADDER = [
    (("torus", 2, 41), None),  # cubic memo_key on a long 2-strand word
    (("torus", 2, 61), None),
    (None, "strands=3: 1^2 2^3 1 2^4"),  # 10_139
    (("torus", 3, 8), None),  # decompose exhausts whole orbits
    (("torus", 3, 9), None),
    (None, "strands=3: 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1"),
    (None, "strands=3: 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 2"),
    (None, "strands=3: 1 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 2"),
    (("torus", 4, 4), None),
    (None, "strands=4: 1 2 3 1 2 3 1 2 3 1 2 3 1"),
    (None, "strands=4: 1 2 3 1 2 3 1 2 3 1 2 3 1 3"),
    (None, "strands=4: 1 2 3 2 1 2 3 1 2 3 1 2 3 1"),
    (("torus", 5, 3), None),
    (("torus", 6, 3), None),  # find_adjacent_square BFS on 6 strands
    (("torus", 7, 2), None),  # ... and on 7
]

# The states pool is drawn once from this seed and verified in a fixed
# order.  Redrawing per --seed would change the work (Kauffman enumeration
# time moves 4x with the order of a sum's summands), and reordering moves
# the peak memory by up to 18% through allocator fragmentation.
STATES_SEED = 2504
STATES_SUMS = 10
STATES_THREE_STRAND = 2


def _torus_letters(p: int, q: int) -> tuple[int, ...]:
    return tuple(range(1, p)) * q


def states_pool() -> list[tuple]:
    """Knots whose Kauffman state count is large but whose decomposition
    and skein steps are cheap: connected sums of ``T(2, e)`` on 6 to 9
    strands (states = product of the ``e``), and 3-strand knots
    ``1^a 2^b 1^c 2^d``."""
    rng = random.Random(STATES_SEED)
    pool = []
    while len(pool) < STATES_SUMS:
        exps = tuple(rng.choice((3, 5, 7)) for _ in range(rng.randint(5, 8)))
        states = 1
        for e in exps:
            states *= e
        if 3000 <= states <= 12000:
            pool.append((("sum",) + exps, None))
    while len(pool) < STATES_SUMS + STATES_THREE_STRAND:
        a, b, c, d = (rng.randrange(5, 12, 2) for _ in range(4))
        letters = (1,) * a + (2,) * b + (1,) * c + (2,) * d
        if oracle.components(3, letters) == 1 and a + b + c + d <= 32:
            pool.append((None, f"strands=3: 1^{a} 2^{b} 1^{c} 2^{d}"))
    return pool


def _word(family, text) -> tuple[int, tuple[int, ...]]:
    if family is None:
        strands, body = text.split(":")
        letters = []
        for token in body.split():
            gen, _, power = token.partition("^")
            letters += [int(gen)] * int(power or 1)
        return int(strands.split("=")[1]), tuple(letters)
    if family[0] == "torus":
        return family[1], _torus_letters(family[1], family[2])
    exps = family[1:]
    return len(exps) + 1, tuple(i + 1 for i, e in enumerate(exps) for _ in range(e))


def _key(strands: int, letters) -> str:
    return f"strands={strands}:" + "".join(f" {x}" for x in letters)


def workload(name: str, seed: int):
    """``(words in verification order, family by word)`` for one workload
    and seed.  The corpus words are built by the worker, so they are None
    here; the seed orders the ladder here and the corpus in the worker."""
    families = {}
    if name == "corpus":
        for k in range(1, 13):
            families[_key(2, _torus_letters(2, k))] = ("torus", 2, k)
        for k in range(1, 9):
            families[_key(3, _torus_letters(3, k))] = ("torus", 3, k)
        return None, families
    entries = LADDER if name == "ladder" else states_pool()
    keys = []
    for family, text in entries:
        key = _key(*_word(family, text))
        families[key] = family
        keys.append(key)
    if name == "ladder":
        random.Random(seed).shuffle(keys)
    return keys, families


class Checker:
    """Checks reports against the oracle; expectations are computed once
    per word and reused across passes."""

    def __init__(self, order, families: dict):
        self.order = order
        self.families = families
        self.expected: dict[str, dict] = {}
        self.shown = 0

    def expectation(self, word: dict) -> dict:
        key = _key(word["strands"], word["letters"])
        if key not in self.expected:
            self.expected[key] = oracle.expected(
                word["strands"], word["letters"], self.families.get(key))
        return self.expected[key]

    def failures(self, result: dict) -> tuple[int, bool]:
        """``(words failing a check, whether the pass covered the workload)``."""
        reports = result["reports"]
        keys = [_key(r["word"]["strands"], r["word"]["letters"]) for r in reports]
        if self.order is not None:
            whole = keys == self.order
        else:
            whole = len(set(keys)) == len(keys) == CORPUS_CLASSES + len(self.families) + 1
        states = result.get("states_by_word", {})
        failed = 0
        for key, report in zip(keys, reports):
            bad = oracle.problems(report, self.expectation(report["word"]), states.get(key))
            if bad:
                failed += 1
                if self.shown < 5:
                    self.shown += 1
                    print(f"FAILED {key}: {'; '.join(bad)}", file=sys.stderr)
        return failed, whole


def run_pass(request: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(request), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _slice_medians(passes: list[dict], key: str) -> float:
    """Sum over slices of the slice's median across passes.  Every pass
    runs the same slices in the same order, so a burst of machine noise
    that hits one slice of one pass is outvoted by the other passes."""
    return sum(median(column) for column in zip(*(p[key] for p in passes)))


def end_to_end(passes: list[dict]) -> dict:
    probe_ms = 1000 * median([mean(p["probes_s"]) for p in passes])
    verify = _slice_medians(passes, "slices_s")
    setup = median([p["setup_s"] for p in passes])
    rss = median([p["peak_rss_mb"] for p in passes])
    print(f"verify_s    {verify:10.4f} s adjusted   raw {_slice_medians(passes, 'slices_raw_s'):.4f} s"
          f"   probe {probe_ms:.3f} ms (ref {1000 * PROBE_REF_S:.3f} ms, elasticity {PROBE_ELASTICITY})"
          f"   per pass {[round(sum(p['slices_s']), 4) for p in passes]}")
    print(f"setup_s     {setup:10.4f} s adjusted   raw {median([p['setup_raw_s'] for p in passes]):.4f} s"
          f"   per pass {[round(p['setup_s'], 4) for p in passes]}")
    print(f"peak_rss_mb {rss:10.4f} MB   per pass {[round(p['peak_rss_mb'], 1) for p in passes]}")
    return {"verify_s": {"value": verify, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}}


def per_layer(passes: list[dict]) -> dict:
    spans = {name: median([p["spans"][name] for p in passes])
             for name in list(LAYERS) + ["harness.verify_self_s"]}
    traced = sum(spans.values())
    print(f"traced verify time {traced:.4f} s (adjusted, median of {len(passes)} passes)")
    for name, seconds in spans.items():
        print(f"  {name:<24} {seconds:10.4f} s  {100 * seconds / traced:5.1f}%")
    states = sum(passes[0]["states_by_word"].values())
    metrics = {name: {"value": s, "unit": "s"} for name, s in spans.items()}
    metrics["harness.corpus_s"] = {"value": median([p["words_s"] for p in passes]), "unit": "s"}
    metrics["kauffman.states"] = {"value": states, "unit": "count"}
    ks = spans["kauffman.states_s"]
    metrics["kauffman.states_per_s"] = {"value": states / ks if ks else 0.0, "unit": "1/s"}
    for name in MEMOS:
        metrics[name] = {"value": passes[0]["memos"][name], "unit": "count"}
    print("  " + "  ".join(f"{k}={metrics[k]['value']}" for k in
                          ["kauffman.states", "harness.corpus_s", *MEMOS]))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "ladder", "states"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "braidhfk", "harness.py")):
        print(f"no braidhfk sources under {SRC}", file=sys.stderr)
        return 2

    words, families = workload(args.workload, args.seed)
    checker = Checker(words, families)
    request = {"src": SRC, "workload": args.workload, "seed": args.seed, "words": words,
               "slice": 32 if args.workload == "corpus" else 1, "trace": False}
    trace = bool(args.trace)
    attempted = failed = 0
    correct = True
    passes: list[dict] = []
    digests = set()
    deadline = time.perf_counter() + args.seconds
    while True:
        # a traced run starts with one untraced pass to compare reports with
        request["trace"] = trace and bool(digests)
        t0 = time.perf_counter()
        result = run_pass(request)
        wall = time.perf_counter() - t0
        bad, whole = checker.failures(result)
        attempted += len(result["reports"])
        failed += bad
        correct &= whole
        digests.add(result["digest"])
        del result["reports"]
        if request["trace"] or not trace:
            passes.append(result)
        if len(passes) >= (1 if trace else MIN_PASSES) and time.perf_counter() + wall > deadline:
            break
    if len(digests) != 1:
        print("reports differ between passes" + (" (traced vs untraced)" if trace else ""),
              file=sys.stderr)
        correct = False

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  words/pass {attempted // (len(passes) + trace)}  failed {failed}")
    metrics = per_layer(passes) if trace else end_to_end(passes)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
