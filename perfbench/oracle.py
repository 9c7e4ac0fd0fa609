"""Expected outputs of ``verify``, computed without ``braidhfk``.

Every function here works from the braid word alone (strand count and
letters) with sympy and plain integer arithmetic, so a check against it
is a check against an independent route:

* the Alexander polynomial from a sympy determinant of the reduced
  Burau matrix, ``det(I - B(t)) / (1 + t + ... + t^(n-1))``;
* for torus knots, the closed form ``(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))``;
* for connected sums of ``T(2, e)``, the product of the summands' forms;
* components, split count and genus from the word's own permutation.

Polynomials are returned in the report's JSON form: ``[[doubled exponent,
coefficient], ...]`` descending, multiplied by ``(t^1/2 - t^-1/2)^(|L|-1)``,
centred and with a positive top coefficient.  Nothing is stored: every
expectation is computed afresh in each run.
"""

from __future__ import annotations

from math import gcd, prod

from sympy import ZZ, symbols
from sympy.polys.matrices import DomainMatrix

_t = symbols("t")
_RING = ZZ[_t]
_T = _RING.from_sympy(_t)
_ONE, _ZERO = _RING.one, _RING.zero


# --------------------------------------------------------------------------
# Permutation data
# --------------------------------------------------------------------------

def components(strands: int, letters) -> int:
    """Cycles of the word's strand permutation."""
    perm = list(range(strands))
    for i in letters:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    seen = [False] * strands
    cycles = 0
    for start in range(strands):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def split_count(strands: int, letters) -> int:
    """Split pieces of the closure: each unused generator separates two."""
    return strands - len(set(letters))


def top_grading(strands: int, letters) -> int:
    """``(|L| - chi) / 2`` with ``chi = strands - crossings``: the genus of a
    knot, and the top Alexander grading of any non-split closure."""
    return (components(strands, letters) - strands + len(letters)) // 2


# --------------------------------------------------------------------------
# Polynomials
# --------------------------------------------------------------------------

def _normalized(poly, n_components: int) -> list[list[int]]:
    """Report form of ``poly(t) * (t^1/2 - t^-1/2)^(n_components - 1)``."""
    coeffs = {2 * k: int(c) for (k,), c in poly.terms() if c}
    if not coeffs:
        return []
    for _ in range(n_components - 1):
        out: dict[int, int] = {}
        for e, c in coeffs.items():
            out[e + 1] = out.get(e + 1, 0) + c
            out[e - 1] = out.get(e - 1, 0) - c
        coeffs = {e: c for e, c in out.items() if c}
    top, bottom = max(coeffs), min(coeffs)
    centre = (top + bottom) // 2
    sign = 1 if coeffs[top] > 0 else -1
    return [[e - centre, sign * coeffs[e]] for e in sorted(coeffs, reverse=True)]


def _cyclotomic_like(n: int):
    return _RING.from_sympy(sum(_t**k for k in range(n)))


def burau_alexander(strands: int, letters) -> list[list[int]]:
    """Alexander polynomial (report form) from a sympy determinant."""
    n = strands
    if n == 1:
        return [[0, 1]]
    # right-multiply by the reduced Burau matrix of each generator, which
    # differs from the identity only in row i-1: (t, -t, 1) at columns i-2..i
    m = [[_ONE if r == c else _ZERO for c in range(n - 1)] for r in range(n - 1)]
    for i in letters:
        c = i - 1
        for row in m:
            x = row[c]
            if c > 0:
                row[c - 1] = row[c - 1] + x * _T
            row[c] = -x * _T
            if c < n - 2:
                row[c + 1] = row[c + 1] + x
    a = DomainMatrix(
        [[(_ONE if r == c else _ZERO) - m[r][c] for c in range(n - 1)] for r in range(n - 1)],
        (n - 1, n - 1),
        _RING,
    )
    q, rem = _RING.div(a.det(), _cyclotomic_like(n))
    if rem != _ZERO:
        raise ArithmeticError(f"Burau determinant of {letters} on {n} strands is not divisible")
    return _normalized(q, components(n, letters))


def _torus_form(p: int, q: int):
    num = (_RING.from_sympy(_t ** (p * q)) - _ONE) * (_T - _ONE)
    den = (_RING.from_sympy(_t**p) - _ONE) * (_RING.from_sympy(_t**q) - _ONE)
    quot, rem = _RING.div(num, den)
    if rem != _ZERO:
        raise ArithmeticError(f"torus form T({p},{q}) is not a polynomial")
    return quot


def torus_alexander(p: int, q: int) -> list[list[int]]:
    """Closed form for the torus knot ``T(p, q)``, ``gcd(p, q) = 1``."""
    if gcd(p, q) != 1:
        raise ValueError(f"T({p},{q}) is not a knot")
    return _normalized(_torus_form(p, q), 1)


def connected_sum_alexander(exponents) -> list[list[int]]:
    """Product of the closed forms of ``T(2, e)`` over the summands."""
    prod = _ONE
    for e in exponents:
        prod = prod * _torus_form(2, e)
    return _normalized(prod, 1)


# --------------------------------------------------------------------------
# Expectations per word
# --------------------------------------------------------------------------

def expected(strands: int, letters, family=None) -> dict:
    """Expected report fields for one word.

    ``family`` names how the word was built: ``("torus", p, q)``,
    ``("sum", e1, e2, ...)`` for a connected sum of ``T(2, e_i)``, or None
    for a sympy determinant.
    """
    letters = tuple(letters)
    out = {
        "components": components(strands, letters),
        "split_count": split_count(strands, letters),
        "chi": strands - len(letters),
        "genus": top_grading(strands, letters),
    }
    if family and family[0] == "torus" and gcd(family[1], family[2]) == 1:
        out["alexander"] = torus_alexander(family[1], family[2])
        out["prime_count"] = 1 if min(family[1:]) >= 2 else 0
    elif family and family[0] == "sum":
        out["alexander"] = connected_sum_alexander(family[1:])
        out["prime_count"] = sum(1 for e in family[1:] if e >= 3)
        out["states"] = prod(family[1:])
    else:
        out["alexander"] = burau_alexander(strands, letters)
    return out


def problems(report: dict, exp: dict, states: int | None = None) -> list[str]:
    """Every way ``report`` (one ``VerificationReport.to_json()``) disagrees
    with ``exp`` (from :func:`expected`) or with the paper's properties."""
    bad = []
    if report.get("pass") is not True:
        failing = sorted(k for k, v in report.get("checks", {}).items() if not v)
        bad.append(f"report fails {failing}")
    for field in ("components", "split_count", "chi", "genus", "prime_count"):
        if field in exp and report.get(field) != exp[field]:
            bad.append(f"{field} {report.get(field)} != {exp[field]}")
    alex = report.get("alexander", {})
    poly = exp["alexander"]
    for engine in ("skein", "burau"):
        if alex.get(engine) != poly:
            bad.append(f"{engine} polynomial {alex.get(engine)} != {poly}")
    knot = exp["components"] == 1
    if alex.get("kauffman") != (poly if knot else None):
        bad.append(f"kauffman polynomial {alex.get('kauffman')} != {poly if knot else None}")
    g = exp["genus"]
    if exp["split_count"] == 1:
        # positive braid closures are fibred: monic, with top degree g
        if not poly or poly[0] != [2 * g, 1]:
            bad.append(f"polynomial top {poly[:1]} is not t^{g}")
        # the paper: next-to-top is F^r at (M, A) = (-1, g - 1) with
        # r = p + |L| - 1 = -(coefficient of t^(g-1)); rank one for prime knots
        second = dict(map(tuple, poly)).get(2 * g - 2, 0)
        ntt = [[-1, g - 1, -second]] if second else []
        hfk = report.get("hfk", {})
        for route in ("predicted_next_to_top", "skein_next_to_top"):
            if hfk.get(route) != ntt:
                bad.append(f"{route} {hfk.get(route)} != {ntt}")
    if states is not None and "states" in exp and states != exp["states"]:
        bad.append(f"{states} Kauffman states != {exp['states']}")
    return bad
