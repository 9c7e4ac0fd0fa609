"""One cold pass of a workload through ``harness.verify_all``.

Started by ``run.py`` as a fresh interpreter, so every module-level memo
table of ``braidhfk`` starts empty, as it does for one ``braidhfk verify``
invocation.  Reads one JSON request on stdin and writes one JSON result
on stdout:

    {"src": "<dir holding braidhfk>", "workload": "corpus|ladder|states",
     "seed": 3, "words": ["strands=3: 1 1 2 ...", ...] or null,
     "slice": 32, "trace": false}

Timing is speed-adjusted.  A fixed integer-only loop (the probe) runs
before set-up, after set-up and after every slice of ``slice`` words.  A
span's raw seconds are scaled by ``(PROBE_REF_S / mean(probe before,
probe after)) ** PROBE_ELASTICITY``, so a pass that ran while the CPU was
slower is not read as slower code.  The probe allocates nothing the
garbage collector tracks, so the program's heap does not slow it.

With ``"trace": true`` the functions ``harness.verify`` calls are wrapped
by timers, and the result carries per-layer spans and memo counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time

PROBE_ITERS = 100_000
# median probe time on the 2-core Linux VM the reference figures come from
PROBE_REF_S = 0.0096
# When that VM slows down, verify slows more than the probe: over 35
# runs of the three workloads the log-log slope of raw verify seconds
# against probe time was 1.34-1.67.  Scaling by the plain ratio (1.0)
# left 8-11% run-to-run spreads; 1.5 left 2-4% on the same runs.
PROBE_ELASTICITY = 1.5

# span name -> the names ``harness`` imports that it covers
LAYERS = {
    "braidword.decompose_s": ("decompose",),
    "alexander.skein_s": ("hfk_euler",),
    "alexander.burau_s": ("alexander_burau",),
    "hfk.skein_ntt_s": ("next_to_top_via_skein",),
    "kauffman.states_s": ("build_diagram", "enumerate_states", "bigraded_counts"),
    "seifert.graph_s": ("from_braid", "euler_and_genus", "fibered_positive"),
}

# module -> memo tables counted after the pass (read with getattr, so a
# table that a later design removes reads as absent, not as a crash)
MEMOS = {
    "braidword.reduce_memo": ("braidword", "_reduce_cache"),
    "braidword.key_memo": ("braidword", "_key_cache"),
    "alexander.conway_memo": ("alexander", "_conway_cache"),
    "hfk.profile_memo": ("hfk", "_profile_cache"),
}


def probe() -> float:
    t0 = time.perf_counter()
    x = 1
    for i in range(PROBE_ITERS):
        x = (x * 5 + i) & 0xFFFF
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Scale for a span between two probes; 1.0 at the reference speed."""
    return (PROBE_REF_S * 2 / (before + after)) ** PROBE_ELASTICITY


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  ``ru_maxrss`` is not
    used: Linux carries it over ``exec`` from the parent that forked us,
    so a large ``run.py`` would show in every pass."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _import_braidhfk(src: str):
    sys.path.insert(0, src)
    import braidhfk
    from braidhfk import harness

    if not os.path.abspath(braidhfk.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"braidhfk imported from {braidhfk.__file__}, not from {src}")
    return harness


def _build_words(harness, req: dict) -> list:
    if req["workload"] == "corpus":
        words = harness.corpus(4, 10)
        words += [harness.torus(2, k) for k in range(1, 13)]
        words += [harness.torus(3, k) for k in range(1, 9)]
        words.append(harness.figure3())
        random.Random(req["seed"]).shuffle(words)
        return words
    return harness.read_corpus_lines(req["words"])


class Tracer:
    """Wraps the layer functions that ``harness`` calls.

    Spans are accumulated per slice and scaled with that slice's probe
    factor when the slice closes, like the untraced timing.
    """

    def __init__(self, harness):
        self.slice_spans = dict.fromkeys(LAYERS, 0.0)
        self.spans = dict.fromkeys(LAYERS, 0.0)
        self.states_by_word: dict[str, int] = {}
        for span, names in LAYERS.items():
            for name in names:
                setattr(harness, name, self._wrap(span, getattr(harness, name)))
        enumerate_states = harness.enumerate_states

        def counting(d, *args, **kwargs):
            states = enumerate_states(d, *args, **kwargs)
            self.states_by_word[str(d.word)] = len(states)
            return states

        harness.enumerate_states = counting

    def _wrap(self, span: str, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.slice_spans[span] += time.perf_counter() - t0

        return timed

    def close_slice(self, factor: float) -> float:
        """Fold the slice's spans into the totals; return their raw sum."""
        raw = sum(self.slice_spans.values())
        for span, seconds in self.slice_spans.items():
            self.spans[span] += seconds * factor
            self.slice_spans[span] = 0.0
        return raw


def run(req: dict) -> dict:
    probes = [probe()]
    t0 = time.perf_counter()
    harness = _import_braidhfk(req["src"])
    t_words = time.perf_counter()
    words = _build_words(harness, req)
    t1 = time.perf_counter()
    probes.append(probe())
    setup_factor = speed_factor(probes[0], probes[1])
    out = {
        "setup_raw_s": t1 - t0,
        "setup_s": (t1 - t0) * setup_factor,
        "words_s": (t1 - t_words) * setup_factor,
    }

    tracer = Tracer(harness) if req["trace"] else None
    reports = []
    slices_raw, slices_adj = [], []
    self_adj = 0.0
    size = req["slice"]
    for start in range(0, len(words), size):
        t0 = time.perf_counter()
        reports += harness.verify_all(words[start:start + size])
        raw = time.perf_counter() - t0
        probes.append(probe())
        factor = speed_factor(probes[-2], probes[-1])
        slices_raw.append(raw)
        slices_adj.append(raw * factor)
        if tracer is not None:
            self_adj += (raw - tracer.close_slice(factor)) * factor
    out["peak_rss_mb"] = peak_rss_mb()
    out.update(slices_raw_s=slices_raw, slices_s=slices_adj, probes_s=probes)

    if tracer is not None:
        out["spans"] = dict(tracer.spans, **{"harness.verify_self_s": self_adj})
        out["states_by_word"] = tracer.states_by_word
        modules = {"braidword": sys.modules["braidhfk.braidword"],
                   "alexander": sys.modules["braidhfk.alexander"],
                   "hfk": sys.modules["braidhfk.hfk"]}
        out["memos"] = {name: len(getattr(modules[mod], attr, ()))
                        for name, (mod, attr) in MEMOS.items()}
    canonical = harness.reports_to_json(reports)
    out["digest"] = hashlib.sha256(canonical.encode()).hexdigest()
    out["reports"] = [r.to_json() for r in reports]
    return out


if __name__ == "__main__":
    result = run(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")
