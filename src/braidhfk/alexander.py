"""Two independent Alexander polynomial engines for positive braid closures.

``conway`` cuts the word into its prime connected-sum factors with the
destabilisations and cuts of ``immediate_reduction`` (``prime_factors``)
and multiplies their Conway polynomials, so ``skein_equals_burau`` checks
those cuts through Burau's matrix of the whole word.  Each factor's
polynomial is the trace of the word in the Hecke algebra, whose
generators satisfy ``T_i^2 = 1 + z T_i``.  That is the oriented skein
relation ``nabla(L+) = nabla(L-) + z * nabla(L0)`` read on braids, as
Jones (Ann. Math. 126, 1987) and Morton-Short (J. Algorithms 11, 1990)
read it: ``T_i - T_i^(-1) = z``.  A left-to-right sweep writes the word
in the basis ``T_pi`` of permutations.  At a letter ``i`` each term moves
to ``pi s_i``, and when the two strands it crosses have crossed before,
``z`` times the term also stays where it was.  The trace destabilises the
vector one strand at a time, by conjugation and positive Markov moves,
down to one strand (see ``_sweep``).  Every coefficient is a sum of
non-negative terms.  Sending each ``T_pi`` to ``phi^length(pi)``, with
``phi`` the golden ratio and ``z = 1``, is a ring map, since ``phi^2 = 1 +
phi``; it takes the image of a word of ``len`` letters to ``phi^len``,
and a destabilisation divides a term's image by ``phi``.  So every
coefficient is at most ``phi^len``, and with ``bits = ceil(len *
log2(phi)) + 2`` each ``Z[z]`` value is kept as one integer, its value at
``z = 2**bits``, with no borrows.  The width depends on the length alone,
not on the strand count.
``alexander_burau`` is the classical matrix route: the determinant of
``reduced_burau(word) - I`` times ``(t - 1) / (t^n - 1)``, that is,
divided by ``1 + t + ... + t^(n-1)``.  It packs each entry of ``Z[t]``
into one integer, its value at ``t = 2**bits``, updates one column of
the matrix per letter, and takes the determinant by fraction-free
Bareiss elimination over ``Z``.  A word in which some generator does not
occur gives 0 before anything is built, read from its letters.  Otherwise
a pass over the letters bounds the entries' l1 norms, and Hadamard's
bound on the determinant's coefficients, taken from those norms, gives a
decode width.  Up to ``_DIRECT_BITS`` bits the matrix is built at that
width and eliminated as built; past it, it is built at the norms' own
width and each entry is unpacked and repacked at the width its exact
norms ask for (see ``alexander_burau``).  It costs polynomial time in the
strand count and never consults the skein route or ``decompose``.

The same small prime factors, and the same polynomials, recur across the
words of a corpus, so each engine keeps tables of its own results,
beside the functions they serve.  The skein route keeps two:
``_conway_cache`` holds the polynomial of each prime factor swept, keyed
by ``(budget, strands, letters)``, and ``_euler_cache`` the result of
``hfk_euler`` for each shifted Conway polynomial, keyed by its
coefficients.  Burau keeps one: ``_burau_cache`` holds the result of
``alexander_burau`` for each word, keyed by ``(strands, letters)``.
There is at most one entry per distinct factor, polynomial or word, so
the tables grow linearly in the input; ``clear_caches`` empties all
three.  No table of one engine reads the other's, and none keeps a
failure, so whether a call raises ``BudgetError`` never depends on what
ran before it.

Both are normalised to the same graded Euler characteristic: the result
of ``hfk_euler`` equals ``sum_(m,a) (-1)^m rank_m(L, a) t^a`` over the
knot Floer homology of the closure, in the convention where Maslov
gradings of positive braid links are integers and non-positive.  For the
single-variable Alexander polynomial this amounts to multiplying by
``(t^(1/2) - t^(-1/2))^(components - 1)`` and fixing the unit so the
outcome is palindromic with positive top coefficient; the positive Hopf
link calibrates the convention to ``t - 2 + t^-1``.  The two engines
reach it separately: the skein route shifts the Conway coefficients,
and Burau multiplies by ``(t - 1)^(components - 1)`` and centres.
"""

from __future__ import annotations

from math import ceil, isqrt, log2, prod, sqrt
from operator import itemgetter

from .braidword import (
    BraidWord,
    BudgetError,
    DEFAULT_BUDGET,
    closure_components,
    prime_factors,
    require_budget,
)
from .polynomials import ConwayPoly, HalfLaurent, InexactDivisionError, _pack, _unpack


# --------------------------------------------------------------------------
# Hecke-algebra skein engine
# --------------------------------------------------------------------------

#: ``log2`` of the golden ratio, the root of ``x^2 = 1 + x``.
_LOG2_PHI = log2((1 + sqrt(5)) / 2)


def _times_t(table: dict[tuple[int, ...], int], i: int, n: int, bits: int) -> dict[tuple[int, ...], int]:
    """``table`` times ``T_i`` on the right, where each key, a tuple of
    length ``n``, is the strand at each position.

    ``T_pi T_i`` is ``T_(pi s_i)``, the key with entries ``i-1`` and ``i``
    swapped, when the two strands meet for the first time, and
    ``T_(pi s_i) + z T_pi`` when they have crossed already
    (``key[i-1] > key[i]``), since ``T_i^2 = 1 + z T_i``.  Swapping is an
    involution, so each key of the result is assigned once.
    """
    out = {}
    order = list(range(n))
    order[i - 1], order[i] = i, i - 1
    swap = itemgetter(*order)
    for key, c in table.items():
        swapped = swap(key)
        if key[i - 1] > key[i]:
            out[swapped] = c
            out[key] = table.get(swapped, 0) + (c << bits)
        elif swapped not in table:
            out[swapped] = c
    return out


def _over_budget(u: BraidWord, w: BraidWord, budget: int, where: str) -> BudgetError:
    name = str(u) if u == w else f"{u}, a factor of {w},"
    return BudgetError(f"Hecke sweep of {name} passed the budget of {budget} entries {where}")


def _sweep(u: BraidWord, budget: int, w: BraidWord) -> ConwayPoly:
    """Conway polynomial of a connected word's closure, as the trace of
    the word in the Hecke algebra.

    The sweep reads the letters left to right and keeps the word's image
    in the basis ``T_pi`` of permutations: a dict from strand arrangements
    (the strand at each position) to packed ``Z[z]`` coefficients, updated
    by ``_times_t``.

    The trace then removes one strand per level.  On ``m`` strands, a key
    whose top position holds strand ``k`` is ``T_(k+1) ... T_(m-1)
    T_pi'``, with ``pi'`` the arrangement of the other strands.
    Conjugation and positive Markov destabilisation turn it into ``T_pi'
    T_(k+1) ... T_(m-2)`` on ``m-1`` strands.  A key that ends in ``m-1``
    is a split closure and is dropped.  The others, grouped by their last
    entry ``k`` with it removed and the entries above it lowered, form
    vectors ``W_k``, and the vector on ``m-1`` strands is ``(...(W_0 T_1
    + W_1) T_2 + ... ) T_(m-2) + W_(m-2)``, one ``_times_t`` per product.
    At one strand the one coefficient is the polynomial.

    ``budget`` caps the entries of every table, the sweep's after each
    letter and the trace's after each product; ``BudgetError`` names
    the letter or the strand where one first held more, and ``w``, the
    word ``u`` is a prime factor of, when it is not ``u`` itself.  Each
    arrangement holds one number per strand, so a table of many strands
    takes memory in proportion.
    """
    n = u.strands
    bits = ceil(len(u.letters) * _LOG2_PHI) + 2
    table = {tuple(range(n)): 1}
    for k, i in enumerate(u.letters, 1):
        table = _times_t(table, i, n, bits)
        if len(table) > budget:
            raise _over_budget(u, w, budget, f"after letter {k}")
    for m in range(n, 1, -1):
        top = m - 1
        groups: list[dict[tuple[int, ...], int]] = [{} for _ in range(top)]
        for key, c in table.items():
            k = key[top]
            if k < top:
                groups[k][tuple(x - (x > k) for x in key[:top])] = c
        table = groups[0]
        for j in range(1, top):
            table = _times_t(table, j, top, bits)
            for key, c in groups[j].items():
                table[key] = table.get(key, 0) + c
            if len(table) > budget:
                raise _over_budget(u, w, budget, f"destabilising strand {m}")
    return ConwayPoly(_unpack(table.get((0,), 0), bits))


#: Conway polynomial of each prime factor swept, by ``(budget, strands, letters)``.
_conway_cache: dict[tuple[int, int, tuple[int, ...]], ConwayPoly] = {}


def conway(w: BraidWord, budget: int = DEFAULT_BUDGET) -> ConwayPoly:
    """Conway polynomial of the closure: 0 for a split word, and otherwise
    the product over the ``prime_factors`` of the word of their Hecke
    traces (see ``_sweep``).

    ``budget`` caps the entries of every table of each factor's sweep;
    past it ``BudgetError`` names the factor, and the word when the
    factor is a proper piece of it.

    Each factor's polynomial is kept in ``_conway_cache``, so a factor met
    again in another word is not swept again.  The table holds one entry
    per distinct factor, so its memory grows linearly with the words seen.
    Only successful sweeps are kept, and the budget is part of the key.
    """
    require_budget(budget)
    if not w.is_connected:
        return ConwayPoly.zero()
    result = ConwayPoly.one()
    for u in prime_factors(w):
        key = (budget, u.strands, u.letters)
        if key not in _conway_cache:
            _conway_cache[key] = _sweep(u, budget, w)
        result = result * _conway_cache[key]
    return result


#: ``hfk_euler``'s substitution of each shifted Conway polynomial, by its coefficients.
_euler_cache: dict[tuple[int, ...], HalfLaurent] = {}


def hfk_euler(w: BraidWord, budget: int = DEFAULT_BUDGET) -> HalfLaurent:
    """Graded Euler characteristic of the closure's knot Floer homology.

    ``(t^(1/2) - t^(-1/2))^(|L|-1)`` times the Conway polynomial under
    ``z -> t^(1/2) - t^(-1/2)``; integer exponents only, palindromic, and
    with coefficient +1 at ``t^genus`` for non-split closures.  The factor
    is ``z^(|L|-1)`` before the substitution, so it is a shift of the
    Conway coefficients.

    Many words share one shifted polynomial, so the substitution of each
    is kept in ``_euler_cache``, keyed by the shifted coefficients, and
    equal results are one object.  A ``conway`` failure raises before the
    table is read, so the table holds only successes.
    """
    shifted = (0,) * (closure_components(w) - 1) + conway(w, budget).coefficients
    if shifted not in _euler_cache:
        _euler_cache[shifted] = ConwayPoly(shifted).to_half_laurent()
    return _euler_cache[shifted]


# --------------------------------------------------------------------------
# Reduced Burau engine
# --------------------------------------------------------------------------

def _bareiss_det(a: list[list[int]]) -> int:
    """Determinant by fraction-free elimination (Bareiss 1968), in place.

    Every update divides exactly by the previous pivot; a zero pivot is
    replaced by a later row with a nonzero entry in its column, and a
    column with none gives determinant 0.  The last pivot is the
    determinant, and the empty matrix has determinant 1.
    """
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size):
        if not a[k][k]:
            for r in range(k + 1, size):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, pivot_row = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                q, r = divmod(row[j] * pivot - lead * pivot_row[j], prev)
                if r:
                    raise InexactDivisionError("Bareiss step left a remainder")
                row[j] = q
        prev = pivot
    return sign * prev


#: Widest decode, in bits per digit, at which ``_burau_euler`` builds the
#: matrix at the decode width instead of unpacking and repacking it.
_DIRECT_BITS = 64

#: Graded Euler characteristic of each word evaluated, by ``(strands, letters)``.
_burau_cache: dict[tuple[int, tuple[int, ...]], HalfLaurent] = {}


def clear_caches() -> None:
    _conway_cache.clear()
    _euler_cache.clear()
    _burau_cache.clear()


def alexander_burau(w: BraidWord) -> HalfLaurent:
    """Graded Euler characteristic via the reduced Burau representation.

    ``det(burau(word) - I) / (1 + t + ... + t^(n-1))`` is the Alexander
    polynomial of the closure up to a unit; split inputs give 0.  The
    product with ``(t - 1)^(|L|-1)`` is centred and signed to be
    palindromic with positive top coefficient, matching ``hfk_euler``.
    Since ``(1 + t + ... + t^(n-1)) (t - 1) = t^n - 1``, the determinant
    times ``(t - 1)^|L|``, call it ``b``, is divided once by ``t^n - 1``:
    ``q_k = q_(k-n) - b_k`` for every ``k``, and the last ``n`` must vanish.

    Entries of a positive word's matrix lie in ``Z[t]``, and each is kept
    packed as one integer, its value at ``t = 2**bits`` (Kronecker
    substitution), in ``n + 1`` columns whose first and last stay zero.
    Right-multiplying by generator ``i`` changes only column ``i``, to
    ``t*M[:,i-1] - t*M[:,i] + M[:,i+1]``, so each letter costs ``O(n)``
    integer updates.

    A generator ``i`` that does not occur never writes column ``i``, so
    that column of ``M - I`` is zero and the determinant is 0: such a word
    returns zero before the matrix is built.

    Evaluation at ``2**bits`` is a ring map, so at any width the build
    gives the matrix's value there exactly, and Bareiss elimination over
    ``Z`` on the transpose, whose rows are the stored columns, divides
    exactly (Sylvester's identity) and returns the determinant's value at
    ``2**bits``, however large its intermediate entries.  The width only
    has to decode that value: its balanced base-``2**bits`` digits are the
    determinant's coefficients once each lies below ``2**(bits-1)``.  A
    pass over the letters bounds the l1 norm ``v_c`` of every entry of
    column ``c``, since the update adds the norms of the three columns it
    reads.  On ``|t| = 1`` an entry is at most its l1 norm, and no
    coefficient of a polynomial exceeds its maximum there, so Hadamard's
    bound ``prod_c sqrt((n-2) v_c^2 + (v_c+1)^2)`` bounds every
    coefficient; the diagonal entry gains 1 from ``- I``.

    When that bound needs at most ``_DIRECT_BITS`` bits, the matrix is
    built at that width and eliminated as built.  Past it the bound
    overshoots wherever entries cancel, and every Bareiss product pays for
    the width, so the matrix is built at the norms' own width instead:
    every coefficient is at most ``v_c`` (plus 1 on the diagonal), below
    ``2**(bits-1)`` when ``bits`` is ``max_c v_c``'s bit length plus 2.
    Its entries are unpacked once and repacked at the width Hadamard's
    bound on their exact norms, ``prod_c sqrt(sum_r |M_rc|_1^2)``, asks for.
    Timed per word (``BENCH_burau_direct.json``: best of 15, Python 3.11
    on a 2-core Linux VM), the direct decode was faster at every
    norm-bound width from 4 to 68 bits (an 8-strand word at 68 bits: 424
    against 585 us repacked; T(7,2) at 40 bits: 98 against 157 us) and the
    repack from 77 bits on (``s_1 ... s_9 s_9 ... s_1``: 347 against 367
    us direct; T(12,13) at 395 bits: 1.5 against 154 ms).  The selector
    sits at 64 bits, below that crossover.

    Results are kept in ``_burau_cache``, whether the word is checked whole
    or as a prime factor of another.  The table holds one entry per
    distinct word, so its memory grows linearly with the words seen.  An
    ``ArithmeticError`` is never kept.
    """
    key = (w.strands, w.letters)
    if key not in _burau_cache:
        _burau_cache[key] = _burau_euler(w)
    return _burau_cache[key]


def _burau_euler(w: BraidWord) -> HalfLaurent:
    """``alexander_burau`` of ``w``, computed afresh."""
    n = w.strands
    if not w.is_connected:
        return HalfLaurent.zero()  # an unused generator leaves a zero column in M - I
    norms = [0] + [1] * (n - 1) + [0]
    for i in w.letters:
        norms[i] += norms[i - 1] + norms[i + 1]
    hadamard_sq = prod((n - 2) * v * v + (v + 1) ** 2 for v in norms[1:n])
    decode_bits = (isqrt(hadamard_sq) + 1).bit_length() + 2
    bits = decode_bits if decode_bits <= _DIRECT_BITS else max(norms).bit_length() + 2
    cols = [[int(r == c) for r in range(n - 1)] for c in range(-1, n)]  # I with a zero column either side
    for i in w.letters:
        cols[i] = [((a - b) << bits) + c for a, b, c in zip(cols[i - 1], cols[i], cols[i + 1])]
    for c in range(1, n):
        cols[c][c - 1] -= 1
    rows = cols[1:n]
    if bits < decode_bits:
        entries = [[_unpack(v, bits) for v in col] for col in rows]
        hadamard_sq = prod(sum(sum(map(abs, e)) ** 2 for e in col) for col in entries)
        bits = (isqrt(hadamard_sq) + 1).bit_length() + 2
        rows = [[_pack(e, bits) for e in col] for col in entries]
    det = _bareiss_det(rows)
    if not det:
        return HalfLaurent.zero()
    b = _unpack(det, bits)
    for _ in range(closure_components(w)):
        b = [x - y for x, y in zip([0] + b, b + [0])]
    q = [0] * n  # q[n + k] is q_k, after n zeros for q_(-n) .. q_(-1)
    for k, v in enumerate(b):
        q.append(q[k] - v)
    if any(q[-n:]):
        raise InexactDivisionError("nonzero remainder")
    quotient = q[n:-n]
    lo = next(k for k, v in enumerate(quotient) if v)
    hi = len(quotient) - 1
    body = quotient[lo:]
    if body != body[::-1]:
        raise InexactDivisionError("normalized polynomial is not palindromic")
    sign = 1 if quotient[hi] > 0 else -1
    return HalfLaurent({2 * k - lo - hi: sign * v for k, v in enumerate(quotient) if v})
