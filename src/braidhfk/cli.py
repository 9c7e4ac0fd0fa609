"""Command line interface.

Words are given as ``"1 1 2"`` (carets allowed, ``"1^2 2^3"``), optionally
with an explicit strand count: ``"strands=4: 1 1 2"``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Optional

from . import harness
from .alexander import alexander_burau, hfk_euler
from .braidword import BudgetError, DEFAULT_BUDGET, closure_genus, decompose, parse_serialized
from .hfk import next_to_top_via_skein, predicted_next_to_top, predicted_top, rn_next_to_top
from .kauffman import (
    MultiComponentError,
    SplitDiagramError,
    bigraded_counts,
    build_diagram,
    counts_to_json,
    enumerate_states,
    euler_and_top_slice,
    state_line,
)
from .polynomials import HalfLaurent
from .seifert import euler_and_genus, fibered_positive, from_braid


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_info(args) -> int:
    w = parse_serialized(args.word)
    lc = decompose(w)
    graph = from_braid(w)
    chi, g = euler_and_genus(graph, lc.components)
    fib = fibered_positive(graph)
    payload = {
        "word": w.to_json(),
        "components": lc.components,
        "split_count": lc.split_count,
        "prime_count": lc.prime_count,
        "verified": lc.verified,
        "chi": chi,
        "genus": g,
        "fibered": fib,
        "prime_words": [str(f) for f in lc.prime_words],
        "seifert_graph": str(graph),
    }
    text = "\n".join(
        [
            str(w),
            f"components = {lc.components}",
            f"split factors s = {lc.split_count}",
            f"prime factors p = {lc.prime_count}  ({', '.join(map(str, lc.prime_words)) or 'none'})",
            f"chi = {chi}   genus = {g}   fibered = {fib}",
            f"decomposition verified = {lc.verified}",
        ]
    )
    _emit(payload, args.json, text)
    return 0


#: The engine failures ``verify`` records as notes.
_ENGINE_FAILURES = {"skein": BudgetError, "burau": ArithmeticError, "kauffman": BudgetError}


def _cmd_alexander(args) -> int:
    """One engine, or all three side by side.  Under ``all`` an engine that
    fails as ``verify`` notes, or Kauffman on a link, shows no value, and
    ``agree`` compares the values shown; a single engine that fails exits 2."""
    w = parse_serialized(args.word)
    methods = list(_ENGINE_FAILURES) if args.method == "all" else [args.method]
    values: dict[str, Optional[HalfLaurent]] = {}
    lines = []
    for method in methods:
        values[method] = None
        try:
            if method == "skein":
                values[method] = hfk_euler(w, args.budget)
            elif method == "burau":
                values[method] = alexander_burau(w)
            else:
                values[method] = euler_and_top_slice(build_diagram(w), args.budget)[0]
            lines.append(f"{method}: {values[method]}")
        except (MultiComponentError, SplitDiagramError):
            if args.method != "all":
                raise
            lines.append(f"{method}: n/a (knots only)")
        except _ENGINE_FAILURES[method] as exc:
            if args.method != "all":
                raise
            print(f"{method} engine: {exc}", file=sys.stderr)
            lines.append(f"{method}: n/a")
    payload = {
        "word": w.to_json(),
        "euler": {k: (None if v is None else v.to_pairs()) for k, v in values.items()},
    }
    if len(values) > 1:
        present = [v for v in values.values() if v is not None]
        agree = all(v == present[0] for v in present)
        payload["agree"] = agree
        lines.append(f"agree: {agree}")
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_hfk(args) -> int:
    w = parse_serialized(args.word)
    lc = decompose(w)
    g = closure_genus(w)
    top = predicted_top(lc.split_count, g)
    formula = predicted_next_to_top(lc.prime_count, lc.split_count, lc.components, g)
    recursion = next_to_top_via_skein(w, args.budget)
    payload = {
        "word": w.to_json(),
        "genus": g,
        "top": top.to_triples(),
        "next_to_top_formula": formula.to_triples(),
        "next_to_top_recursion": recursion.to_triples(),
        "match": formula == recursion,
    }
    text = "\n".join(
        [
            f"genus = {g}",
            f"top:                     {top}",
            f"next-to-top (formula):   {formula}",
            f"next-to-top (recursion): {recursion}",
            f"match: {formula == recursion}",
        ]
    )
    _emit(payload, args.json, text)
    return 0


def _cmd_states(args) -> int:
    w = parse_serialized(args.word)
    d = build_diagram(w)
    if args.json:
        counts = bigraded_counts(d, args.budget)
        print(json.dumps({"word": w.to_json(), "histogram": counts_to_json(counts)}, sort_keys=True))
        return 0
    try:
        states = enumerate_states(d, args.budget)
    except BudgetError as exc:
        print(f"kauffman engine: {exc}", file=sys.stderr)
        return 2
    for s in states:
        print(state_line(d, s))
    counts = Counter((s.maslov, s.alexander) for s in states)
    print(f"{len(states)} states; histogram {counts_to_json(counts)}")
    return 0


def _cmd_verify(args) -> int:
    if args.file:
        with open(args.file) as fh:
            words = harness.read_corpus_lines(fh)
        if not words:
            print(f"error: no words in {args.file}", file=sys.stderr)
            return 2
    else:
        if not args.word:
            print("error: give a word or --file", file=sys.stderr)
            return 2
        words = [parse_serialized(args.word)]
    reports = harness.verify_all(words, args.budget)
    if args.json:
        print(harness.reports_to_json(reports))
    else:
        for r in reports:
            print(r.render_text())
    return 0 if all(r.overall_pass for r in reports) else 1


def _cmd_corpus(args) -> int:
    words = harness.corpus(args.strands, args.len)
    if not args.verify:
        if args.json:
            print(json.dumps([w.to_json() for w in words], sort_keys=True))
        else:
            for w in words:
                print(w)
        return 0
    reports = harness.verify_all(words, args.budget)
    failures = [r for r in reports if not r.overall_pass]
    if args.json:
        print(harness.reports_to_json(reports))
    else:
        for r in failures:
            print(r.render_text())
        print(f"{len(reports)} words verified, {len(failures)} failures")
    return 0 if not failures else 1


def _cmd_family(args) -> int:
    w = harness.family(args.name, *args.params)
    _emit({"word": w.to_json()}, args.json, str(w))
    return 0


def _cmd_rn(args) -> int:
    ranks = rn_next_to_top(args.n)
    _emit(
        {"n": args.n, "next_to_top": ranks.to_triples()},
        args.json,
        f"ring of {args.n} unknots, next-to-top: {ranks}",
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidhfk",
        description="Exact invariants of positive braid links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, budget: bool = True) -> None:
        p.add_argument("--json", action="store_true", help="emit JSON")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="doubled-crossing search budget (visited simple conjugates); "
                                "also caps each table of the skein Conway sweep, "
                                "the Kauffman sweep (live masks) "
                                "and the states listing (backtracking nodes)")

    p = sub.add_parser("info", help="components, split/prime factors, genus")
    p.add_argument("word")
    common(p, budget=False)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("alexander", help="graded Euler characteristic per engine")
    p.add_argument("word")
    p.add_argument("--method", choices=["skein", "burau", "kauffman", "all"], default="all")
    common(p)
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("hfk", help="top and next-to-top groups, formula and recursion")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=_cmd_hfk)

    p = sub.add_parser("states", help="Kauffman states of a knot word")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=_cmd_states)

    p = sub.add_parser("verify", help="cross-check every engine; exit 0 iff all pass")
    p.add_argument("word", nargs="?")
    p.add_argument("--file", help="corpus file: one word per line, # comments")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus", help="enumerate (and optionally verify) all small words")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("family", help="construct a named word family")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    common(p, budget=False)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("rn", help="next-to-top group of the ring of n unknots")
    p.add_argument("n", type=int)
    common(p, budget=False)
    p.set_defaults(func=_cmd_rn)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
