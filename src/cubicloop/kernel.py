"""Batched chord composition of fixed points over Z3[theta] mod 3^k.

An element a + b*theta is held as a pair of integer arrays of residues in
[0, 3^k).  This is the capped-absolute precision model of p-adic libraries:
the modulus is the precision.  Since 3 = unit * pi^2, a residue pair fixes
the element mod pi^(2k), so any valuation below 2k is read exactly and a
residue pair of zeros means "valuation at least 2k".

`lift_pairs` runs `lift_representative` or `random_lift` on many classes
at once, taking the exact path's Newton step on the Hensel coordinate.
`chord_codes` runs `chord` followed by `normalize(r, 3, margin=3)` on many
pairs of points at once and returns the code (`form_code`) of each
canonical form.  A lift or cell whose result the residues cannot certify,
or that the exact path would reject, is refused; `moufang.compose_cells`
composes a refused cell again, by its retry rule, at
max(n, MAX_LIFT_PRECISION) = max(n, 38).

Both stages' moduli follow the precision n, in the narrowest dtype where
4(3^k - 1)^2 < max + 1 - 3^k (`residue_dtype`): int16 for k <= 4, int32
for k <= 9 and int64 above.  The lift works mod 3^k for
k = min(K, max(n - 3, 3)) (`lift_exponent`), where its residues are exact
mod 3^(k-1) (see `lift_pairs`); the chord reads them mod 3^k for
k = min(K, n - 4) (`chord_exponent`).  At the default n = 12 both run in
int32.  The chord kernel accepts a cell exactly when vmin <= k - 2, so
dividing by pi^vmin still leaves the residue mod 9.  This one rule implies
the exact path's two guards: an accepted vmin < 2k is read exactly, and
R = B*p - A*q has integral p and q, so min(nu(A), nu(B)) <= vmin <= k - 2
<= prec - 6, which passes the chord guard (< prec - 3) and normalize's
margin rule (prec - vmin >= 3 + 3).  So every code and every refusal is the
one the computation mod 3^K gives.

A batch of more than one block at k is decided in two passes of the same
`_block_codes` by the same rule: every cell mod 3^k0, k0 = min(k, 4), in
int16, then the cells refused there mod 3^k.  Residues exact mod 3^k are
exact mod 3^k0, and R mod 3^k0 is the true R's.  A cell accepted at k0 has
vmin <= k0 - 2, read exactly along with its pivot, and R / pi^vmin known
mod 9; it passes vmin <= k - 2 as well, so it gets the code the pass at k
gives.  Every other cell is computed at k.  So no code and no refusal
changes.  Of the 29,403 cells of distinct classes at n = 12, the 972 whose
classes agree mod pi^2 need the second pass.  A smaller batch keeps one
pass, which costs less than a second pass's fixed calls.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .eisenstein import ONE, PI, DigitVector, RingElt, to_digits
from .surface import (
    FREE_INDICES,
    HENSEL_CRITERION,
    HENSEL_INDEX,
    PI3,
    CanonicalForm,
    ProjPoint,
    all_params,
    lift_digits,
    residue_tuple,
)

K = 19
MOD = 3**K


# A product of two residues in [0, 3^k) has both components within
# (3^k - 1)^2 of 0: 0 <= ac, bd <= (3^k - 1)^2, and ad + b(c - d) lies in
# [0, (3^k - 1)c] when c >= d and in [-b(d - c), ad] when c < d.
# `_block_codes` sums four such products (A, B), or takes the difference of
# two (R), before it reduces, and `_reduce` needs its argument above the
# dtype's minimum + 3^k.  The lift reduces every product before it adds:
# its largest unreduced intermediates are single products, at most
# (3^k - 1)^2 from 0, such as N * y and y(2 - Ny) in `_unit_inverse` (2 - Ny
# is reduced first, and y < 3^9 as the table gives it) and the norm N = a^2
# - ab + b^2 <= max(a, b)^2, whose partial sum a(a - b) is at least
# -(3^k - 1)^2 / 4; x^2 * x + rest adds two reduced residues, rest
# 1 + y^3 + theta*w^3 three, and a bumped coordinate a residue and the sum
# of four products of a digit in -1..1 and a residue, at most 4(3^k - 1)
# from 0.  So 4(3^k - 1)^2 bounds both stages.  At k = 20 a single product
# would overflow int64.  `_INT16_K` below calls `residue_dtype` for every k
# the kernel uses, so the module refuses to load if one has no dtype.
@lru_cache(maxsize=None)
def residue_dtype(k: int) -> type[np.signedinteger]:
    """The dtype of residues mod 3^k: the narrowest of int16 (k <= 4), int32
    (k <= 9) and int64 (k <= 19) where every sum of the kernel fits.  Cached:
    a batch reads it a few times, and `np.iinfo` costs microseconds."""
    for dtype in (np.int16, np.int32, np.int64):
        if 4 * (3**k - 1) ** 2 < np.iinfo(dtype).max + 1 - 3**k:
            return dtype
    raise AssertionError(f"sums of residue products mod 3^{k} overflow int64")


# Bytes of one residue row of a block: 1,024 int64, 2,048 int32 or 4,096
# int16 cells, which keeps the temporaries of one block near 1 MB.
BLOCK_BYTES = 8192

# The largest k whose residues are int16 (4): `chord_codes` decides a batch
# of more than one block mod 3^min(k, _INT16_K) first.
_INT16_K = max(k for k in range(2, K + 1) if residue_dtype(k) == np.int16)

# The digits of each coordinate in a canonical form mod pi^3.
_DIGITS = 3


def _reduce(x, mod: int):
    """x mod `mod`, as `x % mod`, for x above its dtype's minimum + mod.
    numpy divides an integer array by a scalar with a multiply and a shift,
    but runs `%` as a hardware division, about five times slower."""
    return x - x // mod * mod


def _prod(x, y):
    """(a + b*theta)(c + d*theta) = (ac - bd) + (ad + bc - bd)*theta,
    unreduced."""
    (a, b), (c, d) = x, y
    bd = b * d
    return a * c - bd, a * d + b * c - bd


def _mul(x, y, mod: int):
    ra, rb = _prod(x, y)
    return _reduce(ra, mod), _reduce(rb, mod)


def _add(x, y, mod: int):
    return _reduce(x[0] + y[0], mod), _reduce(x[1] + y[1], mod)


def _times_theta(x, mod: int):
    a, b = x
    return _reduce(-b, mod), _reduce(a - b, mod)


# `_unit_inverse` reads 1/N mod 3^min(k, _TABLE_DIGITS) from a table and
# reaches k from there.  3^9 int32 entries take 77 KB and serve the default
# n = 12 (k = 9) with no step; 3^10 int64 entries would take 472 KB to save
# one step at k = 10 and k = 19 only.
_TABLE_DIGITS = 9


@lru_cache(maxsize=None)
def _norm_inverses(j: int) -> np.ndarray:
    """1/N mod 3^j for N in [0, 3^j), in int32, and 0 where N = 0 mod 3: the
    integer Newton step y <- y(2 - N*y), which doubles the correct digits of
    y, (j - 1).bit_length() times from y = N mod 3 (N = +-1 mod 3 is its own
    inverse mod 3, and y = 0 stays 0)."""
    mod = 3**j
    norm = np.arange(mod, dtype=np.int64)
    y = _reduce(norm, 3)
    for _ in range((j - 1).bit_length()):
        y = _reduce(y * _reduce(2 - norm * y, mod), mod)
    return y.astype(np.int32)


def _unit_inverse(x, k: int):
    """Inverse mod 3^k of units a + b*theta, in their dtype: conj(x) / N(x),
    with 1/N read mod 3^j, j = min(k, _TABLE_DIGITS), from
    `_norm_inverses(j)` and taken on to 3^k by Newton steps y <- y(2 - N*y):
    one for k <= 18, two at k = 19.  The inverse mod 3^k is unique, so every
    route gives the same residues."""
    mod = 3**k
    a, b = x
    norm = _reduce(a * a - a * b + b * b, mod)
    j = min(k, _TABLE_DIGITS)
    y = _norm_inverses(j).take(norm if j == k else _reduce(norm, 3**j))
    y = y.astype(norm.dtype, copy=False)
    while j < k:
        y = _reduce(y * _reduce(2 - norm * y, mod), mod)
        j *= 2
    return _reduce((a - b) * y, mod), _reduce(-b * y, mod)


# Residues below 3^K <= 3^(2 * _LOW) split into a low and a high part of
# _LOW ternary digits each.
_LOW = 10
if K > 2 * _LOW:
    raise AssertionError(f"residues mod 3^{K} have more than {2 * _LOW} ternary digits")


def _low_v3_table() -> np.ndarray:
    """nu_3(x) for x in [0, 3^_LOW), with nu_3(0) read as _LOW."""
    v = np.zeros(3**_LOW, dtype=np.int8)
    for k in range(1, _LOW + 1):
        v[:: 3**k] += 1
    return v


_LOW_V3 = _low_v3_table()


def _v3(x: np.ndarray, k: int) -> np.ndarray:
    """nu_3 of residues in [0, 3^k), read as at least k for 0."""
    if k <= _LOW:
        return _LOW_V3.take(x)
    low = _LOW_V3.take(_reduce(x, 3**_LOW))
    return np.where(low == _LOW, _LOW + _LOW_V3.take(x // 3**_LOW), low)


def _nu(x, k: int) -> np.ndarray:
    """pi-adic valuation of residue pairs mod 3^k, capped at 2k.

    With t = min(nu_3(a), nu_3(b), k), nu = 2t, plus 1 when a/3^t + b/3^t
    = 0 mod 3, that is a + b = 0 mod 3^(t+1) (the pair is then divisible by
    pi but not by 3), read as nu_3(a + b mod 3^k) > t for t < k (at t = k
    the cap hides it)."""
    a, b = x
    t = np.minimum(np.minimum(_v3(a, k), _v3(b, k)), k)
    odd = _v3(_reduce(a + b, 3**k), k) > t
    return np.minimum(2 * t + odd, 2 * k)


def _digit_code(d: DigitVector) -> int:
    return sum((digit + 1) * 3**k for k, digit in enumerate(d))


def form_code(form: CanonicalForm) -> int:
    """Integer code of a canonical form mod pi^3: four digit codes in base
    27, then the pivot."""
    code = sum(_digit_code(d) * 27**k for k, d in enumerate(form.coords))
    return code + 27**4 * form.pivot


@lru_cache(maxsize=1)
def _quotient_digits() -> np.ndarray:
    """Indexed by 81(9a + b) + 9c + d for x = a + b*theta and a unit w = c +
    d*theta mod 9 (= mod pi^4): the code of the first three digits of x / w.
    Flat, so that a block reads it with one `take`."""
    x = np.arange(81, dtype=np.int16)  # keeps the 81 x 81 temporaries in int16
    inv = _unit_inverse((x // 9, x % 9), 2)  # 0 at the non-units
    qa, qb = _mul((x[:, None] // 9, x[:, None] % 9), inv, 9)
    digits = [_digit_code(to_digits(RingElt(a, b), _DIGITS)) for a in range(9) for b in range(9)]
    return np.array(digits, dtype=np.int16)[9 * qa + qb].ravel()  # int16 holds every code


@lru_cache(maxsize=None)
def _pi_shifts(k: int) -> tuple[np.ndarray, np.ndarray]:
    """s_v = (2 + theta)^v * 3^(k-2-v) mod 3^k for v = 0..k-2.  Since pi *
    (2 + theta) = 3, x * s_v = 3^(k-2) * (x / pi^v) for x divisible by
    pi^v, so (x * s_v mod 3^k) / 3^(k-2) is x / pi^v mod 9."""
    mod, shifts, power = 3**k, [], (1, 0)
    for v in range(k - 1):
        shifts.append(_mul(power, (3 ** (k - 2 - v), 0), mod))
        power = _mul(power, (2, 1), mod)
    return tuple(np.array(c, dtype=residue_dtype(k)) for c in zip(*shifts))


# The digit codes of the four coordinates go in base 27 (`form_code`).
_CODE_WEIGHTS = 27 ** np.arange(4, dtype=np.int64)[:, None]


def to_pairs(points: Sequence[ProjPoint]) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the points as (a, b) residue arrays of shape (n, 4)."""
    a = np.array([[c.a % MOD for c in p.coords] for p in points], dtype=np.int64)
    b = np.array([[c.b % MOD for c in p.coords] for p in points], dtype=np.int64)
    return a, b


# The lift guard reads nu(F) on residues mod 3^k, k = `lift_exponent(n)`,
# which fix F mod pi^(2k): below 2k exactly, and as "at least 2k" from a pair
# of zeros.  Since 2k >= min(n, 2K), it certifies nu(F) >= min(n, 2K).
MAX_LIFT_PRECISION = 2 * K
# The class's own tuple has nu(F) >= HENSEL_CRITERION = 5, and a Newton
# step takes nu(F) = v to at least min(2v - 2, 2k): 5, 8, 14, 26, 50.  Four
# steps reach 2K.
_NEWTON_STEPS = 4


@lru_cache(maxsize=1)
def _class_data():
    """Per class: the residues of its tuple mod pi^3, its Hensel and free
    coordinate indices; and the residues of pi^3 and pi^4.  Raises
    AssertionError unless, in every family, the coordinate that is neither
    the Hensel one nor free is 1 and the second free one is t_3, as
    `lift_pairs` takes it."""
    params = all_params()
    tuples = [residue_tuple(lp) for lp in params]
    for lp, coords in zip(params, tuples):
        (y, w), h = FREE_INDICES[lp.family], HENSEL_INDEX[lp.family]
        # y, h are two of 0, 1, 2, so 3 - y - h is the third
        if w != 3 or coords[3 - y - h] != ONE:
            raise AssertionError(f"class {lp}: {coords} is not 1 beside t_{h}, t_{y} and t_3")
    a, b = to_pairs([ProjPoint(t) for t in tuples])
    hensel = np.array([HENSEL_INDEX[lp.family] for lp in params])
    free = np.array([FREE_INDICES[lp.family] for lp in params])
    bumps = tuple((x.a % MOD, x.b % MOD) for x in (PI3, PI3 * PI))
    return a, b, hensel, free, bumps


@lru_cache(maxsize=None)
def _bump_coefficients(k: int, bumps) -> tuple[np.ndarray, np.ndarray]:
    """The a and the b residues mod 3^k of pi^3, theta*pi^3, pi^4 and
    theta*pi^4, from the residue pairs `bumps` of pi^3 and pi^4: the bump
    (d0 + d1*theta)pi^3 + (d2 + d3*theta)pi^4 of a free coordinate has the
    components d @ a and d @ b, unreduced."""
    mod = 3**k
    coeffs = [c for x in bumps for c in (x, _times_theta(x, mod))]
    return tuple(np.array([c[i] % mod for c in coeffs], dtype=residue_dtype(k)) for i in (0, 1))


def lift_exponent(n: int) -> int:
    """The k of the modulus 3^k that `lift_pairs` works mod at precision
    `n`: min(K, max(n - 3, 3))."""
    return min(K, max(n - 3, 3))


def lift_pairs(
    classes: Sequence[int], seeds: Sequence[int] | None, n: int
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Residue pairs (a, b) mod 3^k, k = `lift_exponent(n)`, each of shape
    (m, 4) and dtype `residue_dtype(k)`, of `random_lift(lp, n, seed)` for
    each class and seed, or of `lift_representative(lp, n)` when `seeds` is
    None; and the mask of the lifts the residues certify.

    The free coordinates are the exact path's mod 3^k, from the same digits.
    With t = min(n, MAX_LIFT_PRECISION), the Hensel coordinate x agrees with
    the exact path's mod pi^(t - 2), where the root is unique.  A lift is
    refused when the class tuple fails the Hensel criterion, or when Newton's
    method leaves nu(F) < t.

    Working mod 3^k rather than 3^K changes no chord code and no refusal:
    - The iterates agree mod 3^(k-1) with those of the same steps mod 3^K.
      Two iterates that differ by e = 0 mod 3^(k-1) give values of F that
      differ by 3x^2 e + 3x e^2 + e^3 = 0 mod 3^k, so F / 3, the Newton
      correction and the next iterate agree mod 3^(k-1).  The start points
      agree, since the class tuple and the bumps reduce exactly.
    - The chord at n reads coordinates mod 3^min(K, n - 4)
      (`chord_exponent`).  Below n = 22, k - 1 = max(n - 4, 2), so it reads
      the same integers; from n = 22 on, k = K and the lift is the one mod
      3^K.
    - F agrees mod 3^k, so nu(F) agrees below 2k.  The guard nu(F) >= t is
      read since 2k >= t (2k = 2n - 6 >= n from n = 6; below, 2k = 6), and
      the Hensel criterion nu(F) >= 5 since 2k >= 6.  So the mask is the
      same."""
    base_a, base_b, hensel, free, bumps = _class_data()
    k = lift_exponent(n)
    mod, dtype = 3**k, residue_dtype(k)
    classes = np.asarray(classes, dtype=np.int64)
    m = len(classes)
    # the 243 class rows reduced, then gathered; nothing derived from
    # `_class_data` is cached, so a replaced `_class_data` takes effect
    a, b = (_reduce(x, mod).astype(dtype)[classes] for x in (base_a, base_b))
    t = min(n, MAX_LIFT_PRECISION)
    rows = np.arange(m)
    at = rows[:, None], free[classes]
    y = a[at], b[at]  # the free coordinates, shape (m, 2)
    if seeds is not None:
        # the pi^3 and pi^4 bumps of both free coordinates at once
        d = lift_digits(classes, n, seeds).astype(dtype).reshape(m, 2, 4)
        y = tuple(_reduce(c + d @ w, mod) for c, w in zip(y, _bump_coefficients(k, bumps)))
        a[at], b[at] = y
    # F = x^3 + rest with x the Hensel coordinate (index 1 or 2, whose form
    # coefficient is 1) and rest = 1 + y^3 + theta*w^3: the pivot 1 and the
    # free coordinates y and w = t_3 (`_class_data`).
    h = hensel[classes]
    ca, cb = _mul(_mul(y, y, mod), y, mod)
    rest = _reduce(1 + ca[:, 0] - cb[:, 1], mod), _reduce(cb[:, 0] + ca[:, 1] - cb[:, 1], mod)
    x = a[rows, h], b[rows, h]
    for step in range(_NEWTON_STEPS + 1):
        x2 = _mul(x, x, mod)
        f = _add(_mul(x2, x, mod), rest, mod)
        v = _nu(f, k)
        if step == 0:
            criterion = v >= HENSEL_CRITERION
        if step == _NEWTON_STEPS or np.all(v >= t):
            break
        # x <- x - F / (3 x^2); nu(F) >= 2 makes F / 3 exact, known mod 3^(k-1).
        dx = _mul((f[0] // 3, f[1] // 3), _unit_inverse(x2, k), mod)
        x = _reduce(x[0] - dx[0], mod), _reduce(x[1] - dx[1], mod)
    a[rows, h], b[rows, h] = x
    return (a, b), criterion & (v >= t)


def chord_exponent(prec: int) -> int:
    """The k of the modulus 3^k that `chord_codes` works mod at precision
    `prec`: min(K, prec - 4)."""
    return min(K, prec - 4)


def chord_codes(
    pairs: tuple[np.ndarray, np.ndarray], i: np.ndarray, j: np.ndarray, prec: int
) -> np.ndarray:
    """`form_code` of normalize(chord(p_i, p_j), 3, margin=3) for every cell
    (i[k], j[k]) of points of precision `prec`, or -1 where the cell is
    refused: where vmin > k - 2 for k = `chord_exponent(prec)`, which is
    exactly where the exact path's guards refuse it or dividing by pi^vmin
    would leave less than the mod-pi^4 residue (see the module docstring).
    The residues, exact mod 3^k at least (as `lift_pairs` gives them at
    `prec`), are reduced mod 3^k in `residue_dtype(k)`.  For k > 4, a batch
    of more than one block of that dtype is decided mod 3^4 in int16 first,
    and only the cells refused there are computed mod 3^k; the codes are the
    same (see the module docstring)."""
    i, j = np.asarray(i), np.asarray(j)
    k = chord_exponent(prec)
    if k < 2:  # below precision 6 no vmin <= k - 2 exists
        return np.full(len(i), -1, dtype=np.int64)
    if k <= _INT16_K or len(i) <= BLOCK_BYTES // np.dtype(residue_dtype(k)).itemsize:
        return _pass_codes(pairs, i, j, k)
    out = _pass_codes(pairs, i, j, _INT16_K)
    todo = np.flatnonzero(out < 0)
    out[todo] = _pass_codes(pairs, i[todo], j[todo], k)
    return out


def _pass_codes(pairs, i: np.ndarray, j: np.ndarray, k: int) -> np.ndarray:
    """`_block_codes` of every cell, block by block, on the residues
    reduced mod 3^k in `residue_dtype(k)`."""
    # coordinate-major, so that sums and minima over the four coordinates
    # run over rows
    coords = tuple(
        np.ascontiguousarray(_reduce(x, 3**k).T, dtype=residue_dtype(k)) for x in pairs
    )
    block = BLOCK_BYTES // coords[0].itemsize
    out = np.empty(len(i), dtype=np.int64)
    for start in range(0, len(i), block):
        sl = slice(start, start + block)
        out[sl] = _block_codes(coords, i[sl], j[sl], k)
    return out


def _min_first(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """vmin and its first coordinate, the pivot, per column of valuations (4, m)."""
    # one min of 4 * vals + coordinate, in int16 since 4 * 38 + 3 exceeds int8
    key = (4 * vals.astype(np.int16) + np.arange(4, dtype=np.int16)[:, None]).min(axis=0)
    return key >> 2, (key & 3).astype(np.intp)


def _block_codes(coords, i, j, k: int) -> np.ndarray:
    """`chord_codes` of one block, on residues mod 3^k of shape (4, m)."""
    mod = 3**k
    p = coords[0].take(i, axis=1), coords[1].take(i, axis=1)
    q = coords[0].take(j, axis=1), coords[1].take(j, axis=1)
    # A = sum c_k p_k^2 q_k, B = sum c_k p_k q_k^2 with c = (1, 1, 1, theta):
    # the four products of c*p*q (reduced) with p or q, summed, then reduced.
    cpq = _mul(p, q, mod)
    cpq[0][3], cpq[1][3] = _times_theta((cpq[0][3], cpq[1][3]), mod)
    A = tuple(_reduce(x.sum(axis=0, dtype=x.dtype), mod) for x in _prod(cpq, p))
    B = tuple(_reduce(x.sum(axis=0, dtype=x.dtype), mod) for x in _prod(cpq, q))
    # R = B*p - A*q
    bp, aq = _prod(B, p), _prod(A, q)
    r = _reduce(bp[0] - aq[0], mod), _reduce(bp[1] - aq[1], mod)
    vals = _nu(r, k)
    vmin, pivot = _min_first(vals)
    ok = vmin <= k - 2
    v = np.where(ok, vmin, 0)
    # Every coordinate divided by pi^v, mod 9: known mod pi^(2k - v), and
    # 2k - v >= k + 2 >= 4.
    shift_a, shift_b = _pi_shifts(k)
    ca, cb = (_reduce(x, mod) // 3 ** (k - 2) for x in _prod(r, (shift_a[v], shift_b[v])))
    c = 9 * ca + cb
    # three digits of each coordinate over the pivot, a unit after the division
    w = c[pivot, np.arange(len(i))]
    codes = (_quotient_digits().take(81 * c + w) * _CODE_WEIGHTS).sum(axis=0)
    return np.where(ok, codes + 27**4 * pivot, -1)
