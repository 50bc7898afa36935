"""Points on the cubic surface F = T0^3 + T1^3 + T2^3 + theta*T3^3 = 0.

Chord geometry, Hensel lifting of the 243 canonical residue
classes mod pi^3, and enumeration of the residue classes mod pi^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .eisenstein import (
    INFINITE,
    ONE,
    PI,
    THETA,
    ZERO,
    DigitVector,
    PrecisionExhausted,
    RingElt,
    div_exact,
    divide_by_pi,
    from_digits,
    invert,
    nu,
    to_digits,
)

DEFAULT_PRECISION = 12

FORM_COEFFS = (ONE, ONE, ONE, THETA)

PI2 = PI * PI
PI3 = PI2 * PI


class PointsCoincide(Exception):
    """Chord requested through two projectively equal points."""


class DegenerateLine(Exception):
    """Both chord coefficients vanish for distinct points: a k-line on V.

    The surface has no k-lines, so this signals a bug and is fatal."""


class HenselCriterionFailed(Exception):
    pass


@dataclass(frozen=True)
class ProjPoint:
    """Projective 4-tuple on (or near) V; prec is the working precision,
    i.e. the tuple agrees with a true surface point to about pi^prec
    (None: exactly).  The coordinates themselves are exact; this is the
    only place where precision is tracked."""

    coords: tuple[RingElt, RingElt, RingElt, RingElt]
    prec: int | None = None


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical residue tuple: pivot coordinate is exactly 1 and every
    earlier coordinate has positive valuation."""

    coords: tuple[DigitVector, DigitVector, DigitVector, DigitVector]
    pivot: int

    @property
    def depth(self) -> int:
        return len(self.coords[0])

    def truncate(self, n: int) -> "CanonicalForm":
        if n > self.depth:
            raise PrecisionExhausted(f"canonical form has only {self.depth} digits")
        return CanonicalForm(tuple(d[:n] for d in self.coords), self.pivot)

    def as_point(self) -> ProjPoint:
        return ProjPoint(tuple(from_digits(d) for d in self.coords), self.depth)


@dataclass(frozen=True)
class CompositionTrace:
    chord_a: RingElt
    chord_b: RingElt
    margin: int | float


@dataclass(frozen=True)
class LambdaParams:
    """Label of one of the 243 canonical classes mod pi^3.

    digits are (y, z, u) for family P, (y1, z1, u1) for family Q and
    (x, z2, u2) for family R."""

    family: str
    exp: int
    digits: tuple[int, int, int]

    def __post_init__(self):
        if self.family not in ("P", "Q", "R"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.exp not in (0, 1, 2):
            raise ValueError(f"theta exponent must be 0..2, got {self.exp}")
        if len(self.digits) != 3 or any(d not in (-1, 0, 1) for d in self.digits):
            raise ValueError(f"digits must be three of -1,0,1, got {self.digits}")


def eval_form(p: ProjPoint) -> RingElt:
    t0, t1, t2, t3 = p.coords
    return t0**3 + t1**3 + t2**3 + THETA * t3**3


def _capped_nu(x: RingElt, prec: int | None) -> int | float:
    raw = nu(x)
    if prec is not None and raw > prec:
        return prec
    return raw


def normalize(p: ProjPoint, n: int = 3, margin: int = 0) -> CanonicalForm:
    prec = p.prec
    vals = [_capped_nu(c, prec) for c in p.coords]
    vmin = min(vals)
    if vmin == INFINITE or (prec is not None and vmin >= prec):
        raise PrecisionExhausted("no coordinate with valuation below precision")
    coords = list(p.coords)
    for _ in range(int(vmin)):
        coords = [divide_by_pi(c) for c in coords]
    rem = None if prec is None else prec - int(vmin)
    if rem is not None and rem < n + margin:
        raise PrecisionExhausted(
            f"normalized precision {rem} below requested {n}+{margin}"
        )
    pivot = next(i for i, v in enumerate(vals) if v == vmin)
    w = invert(coords[pivot], n)
    digits = tuple(to_digits(c * w, n) for c in coords)
    return CanonicalForm(digits, pivot)


def _proportional(p: ProjPoint, q: ProjPoint, threshold: int | float) -> bool:
    for i in range(4):
        for j in range(i + 1, 4):
            minor = p.coords[i] * q.coords[j] - p.coords[j] * q.coords[i]
            if nu(minor) < threshold:
                return False
    return True


def chord(p: ProjPoint, q: ProjPoint) -> tuple[ProjPoint, CompositionTrace]:
    """Third intersection point of the line through p and q with V.

    Uses the homogeneous Vieta form R = B*p - A*q with A = sum c_i p_i^2 q_i
    and B = sum c_i p_i q_i^2 (the common factor 3 dropped projectively)."""
    prec = min((x for x in (p.prec, q.prec) if x is not None), default=None)
    work = prec if prec is not None else DEFAULT_PRECISION
    a = sum((c * pc * pc * qc for c, pc, qc in zip(FORM_COEFFS, p.coords, q.coords)), ZERO)
    b = sum((c * pc * qc * qc for c, pc, qc in zip(FORM_COEFFS, p.coords, q.coords)), ZERO)
    threshold = work - 3
    if min(nu(a), nu(b)) >= threshold:
        if _proportional(p, q, threshold):
            raise PointsCoincide("chord through projectively equal points")
        if _proportional(p, q, 1):
            # near-tangent chord through points of the same reduction class:
            # the coefficients are genuinely small, retry at higher precision
            raise PrecisionExhausted(
                f"chord coefficients have valuation >= {threshold} for nearby points"
            )
        raise DegenerateLine(
            "chord coefficients vanish for points distinct mod pi: a k-line on V"
        )
    coords = tuple(b * pc - a * qc for pc, qc in zip(p.coords, q.coords))
    out = ProjPoint(coords, prec)
    vmin = min(_capped_nu(c, prec) for c in coords)
    margin = INFINITE if prec is None else prec - vmin - 3
    return out, CompositionTrace(a, b, margin)


def _clamp(x: RingElt, n: int) -> RingElt:
    """Centered coefficient reduction mod 3^m with 2m >= n: preserves x mod pi^n."""
    m = n // 2 + 1
    mod = 3**m
    a = x.a % mod
    b = x.b % mod
    if a > mod // 2:
        a -= mod
    if b > mod // 2:
        b -= mod
    return RingElt(a, b)


def residue_tuple(lp: LambdaParams) -> tuple[RingElt, RingElt, RingElt, RingElt]:
    """Exact representative of the class tuple mod pi^3."""
    base = -(THETA**lp.exp)
    if lp.family == "P":
        y, z, u = lp.digits
        return (
            ONE,
            base + PI2 * y,
            PI * y + PI2 * z,
            -(PI * y) + PI2 * u,
        )
    if lp.family == "Q":
        y1, z1, u1 = lp.digits
        return (
            ONE,
            PI * z1 + PI2 * y1,
            base + PI2 * z1,
            -(PI * z1) + PI2 * u1,
        )
    x, z2, u2 = lp.digits
    return (
        PI * z2 + PI2 * x,
        ONE,
        base + PI2 * z2,
        -(PI * z2) + PI2 * u2,
    )


HENSEL_INDEX = {"P": 1, "Q": 2, "R": 2}
FREE_INDICES = {"P": (2, 3), "Q": (1, 3), "R": (0, 3)}
HENSEL_CRITERION = 5  # nu(F) > 2*nu(3x^2) at the class tuple: Hensel's lemma


def canonical_form(lp: LambdaParams) -> CanonicalForm:
    coords = residue_tuple(lp)
    pivot = 0 if lp.family in ("P", "Q") else 1
    return CanonicalForm(tuple(to_digits(c, 3) for c in coords), pivot)


def _lift(lp: LambdaParams, n: int, digits) -> ProjPoint:
    """The point on V in the class of lp whose free coordinates carry
    `digits` (as `lift_digits` draws them) at levels pi^3 and pi^4.  Newton's
    method x <- x - F/(3x^2) runs on the Hensel coordinate x (form
    coefficient 1) until nu(F) >= n; the root is unique mod pi^(n - 2)."""
    coords = list(residue_tuple(lp))
    for k, i in enumerate(FREE_INDICES[lp.family]):
        a3, b3, a4, b4 = digits[4 * k : 4 * k + 4]
        coords[i] = coords[i] + RingElt(a3, b3) * PI3 + RingElt(a4, b4) * PI3 * PI
    idx = HENSEL_INDEX[lp.family]
    x = coords[idx]
    f = eval_form(ProjPoint(tuple(coords)))
    rest, v = f - x**3, nu(f)
    if v < HENSEL_CRITERION:
        raise HenselCriterionFailed(f"nu(F) = {v} < {HENSEL_CRITERION} at the class tuple")
    while v < n:
        x = _clamp(x - div_exact(f, 3 * x * x, n), n + 2)
        f = x**3 + rest
        if nu(f) <= v:
            raise PrecisionExhausted(f"a Newton step left nu(F) at {nu(f)}")
        v = nu(f)
    coords[idx] = x
    return ProjPoint(tuple(coords), n)


def lift_representative(lp: LambdaParams, n: int = DEFAULT_PRECISION) -> ProjPoint:
    return _lift(lp, n, [0] * 8)


def _draw(bound: int, *keys) -> np.ndarray:
    """Integers in [0, bound), one per element of the broadcast integer keys
    (ints or arrays; the result is at least 1-d): a splitmix64 hash (Steele
    et al., OOPSLA 2014) of the keys mod 2^64, in order.  Every seeded sample
    comes from here, and each call site passes its own constant first."""
    h = np.zeros(1, dtype=np.uint64)  # an array, so overflow wraps silently
    for key in map(np.asarray, keys):
        if key.dtype == object:  # Python ints beyond 64 bits
            key = np.asarray(key % (1 << 64))
        z = h + key.astype(np.uint64) + 0x9E3779B97F4A7C15
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        h = z ^ (z >> 31)
    # h mod bound as `kernel._reduce` takes it: numpy runs a uint64 `%` as a
    # hardware division, and `//` by a scalar as a multiply and a shift
    return (h - h // bound * bound).astype(np.int64)


def lift_digits(classes, n: int, seeds) -> np.ndarray:
    """The digits, in -1..1, that `random_lift` draws for each class id and
    seed, shape (m, 8): for each free coordinate in turn, a, b of the bump
    (a + b*theta)*pi^3, then a, b of the pi^4 bump."""
    rows = (np.asarray(classes)[:, None], n, np.asarray(seeds)[:, None])
    return _draw(3, 0, *rows, np.arange(8)) - 1


def random_lift(lp: LambdaParams, n: int, seed: int) -> ProjPoint:
    """A point on V in the class of lp whose free coordinates carry
    seed-dependent digits at levels pi^3 and pi^4."""
    return _lift(lp, n, lift_digits([_CLASS_IDS[lp]], n, [seed])[0].tolist())


@lru_cache(maxsize=1)
def all_params() -> tuple[LambdaParams, ...]:
    """The 243 class labels in the fixed lexicographic order (family
    P < Q < R, then exponent, then digits); a label's position is its id."""
    return tuple(LambdaParams(*t) for t in product("PQR", (0, 1, 2), product((-1, 0, 1), repeat=3)))


_CLASS_IDS = {lp: k for k, lp in enumerate(all_params())}


def enumerate_classes(n: int) -> list[CanonicalForm]:
    """The classes mod pi^n for n = 1, 2, 3: the distinct truncations of the
    243 canonical forms, in first-seen order.  A truncated canonical form is
    canonical, and every class mod pi^n is the image of one mod pi^3."""
    if n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2 or 3, got {n}")
    return list(dict.fromkeys(canonical_form(lp).truncate(n) for lp in all_params()))


def compose_parametric(lp_p: LambdaParams, lp_q: LambdaParams) -> CanonicalForm:
    """Closed-form mod-pi^3 composition of a family-P and a family-Q class."""
    if lp_p.family != "P" or lp_q.family != "Q":
        raise ValueError("closed formula applies to (family P, family Q) pairs")
    i, (y, z, u) = lp_p.exp, lp_p.digits
    j, (y1, z1, u1) = lp_q.exp, lp_q.digits
    th_i = THETA**i
    th_2i = THETA ** (2 * i)
    th_j = THETA**j
    th_2j = THETA ** (2 * j)
    tau = PI * (th_2i * z1 - th_2j * y) + PI2 * (y1 - z - y * y + y * z1)
    r0 = tau
    r1 = (-th_i + PI2 * y) * tau + PI * z1 + PI2 * y1 + th_i - PI2 * y
    r2 = (PI * y + PI2 * z) * tau - th_j + PI2 * z1 - PI * y - PI2 * z
    r3 = (-(PI * y) + PI2 * u) * tau - PI * z1 + PI2 * u1 + PI * y - PI2 * u
    return normalize(ProjPoint((r0, r1, r2, r3), 3), 3)
