"""Independent brute-force oracles for the residue-class enumeration,
reference versions of fast lookups, of the seeded draws and of the batched
lift mod 3^19, and the tangent-line geometry and Eckhardt lift samples that
the acceptance tests check.

A canonical tuple mod pi^n (pivot coordinate exactly 1, earlier coordinates
divisible by pi) is realized by a surface point iff some extension of its
digits to level pi^3 satisfies nu(F) >= 5: a perturbation at level pi^3
then moves F by a term with valuation exactly 5 in the pivot coordinate,
so Newton iteration kills F entirely.  This reimplements the count from
scratch -- no shared code with the enumeration under test beyond the raw
ring arithmetic.
"""

from itertools import product

import numpy as np

import cubicloop.moufang as M
from cubicloop import kernel
from cubicloop.eisenstein import PI, THETA, ZERO, DigitVector, RingElt, div_exact, from_digits, nu
from cubicloop.surface import (
    DEFAULT_PRECISION,
    FORM_COEFFS,
    HENSEL_CRITERION,
    CanonicalForm,
    ProjPoint,
    _draw,
    lift_digits,
)


def canonical_tuples(n: int):
    """All canonical 4-tuples of balanced digit vectors of length n."""
    vecs = list(product((-1, 0, 1), repeat=n))
    small = [v for v in vecs if v[0] == 0]
    pivot_vec = (1,) + (0,) * (n - 1)
    for pivot in range(4):
        for before in product(small, repeat=pivot):
            for after in product(vecs, repeat=3 - pivot):
                coords = (*before, pivot_vec, *after)
                yield CanonicalForm(tuple(DigitVector(v) for v in coords), pivot)


def _variants(base: RingElt, n: int) -> list[tuple[int, int]]:
    """Cubes (as integer pairs) of base + all digit extensions at levels n..2."""
    out = []
    for ext in product((-1, 0, 1), repeat=3 - n):
        c = base
        for k, digit in enumerate(ext):
            c = c + digit * PI ** (n + k)
        cube = c * c * c
        out.append((cube.a, cube.b))
    return out


def _v3(m: int) -> int:
    v = 0
    while m % 3 == 0:
        m //= 3
        v += 1
    return v


def is_liftable(cf: CanonicalForm, n: int) -> bool:
    """True iff some pi^3-level completion of cf has nu(F) >= 5."""
    bases = [RingElt(e.a, e.b) for e in (from_digits(d) for d in cf.coords)]
    cubes = [_variants(b, n) for b in bases]
    # fold theta into the fourth coordinate's cubes
    cubes[3] = [
        ((THETA * RingElt(a, b)).a, (THETA * RingElt(a, b)).b) for a, b in cubes[3]
    ]
    for c0 in cubes[0]:
        for c1 in cubes[1]:
            s01 = (c0[0] + c1[0], c0[1] + c1[1])
            for c2 in cubes[2]:
                s012 = (s01[0] + c2[0], s01[1] + c2[1])
                for c3 in cubes[3]:
                    a = s012[0] + c3[0]
                    b = s012[1] + c3[1]
                    norm = a * a - a * b + b * b
                    if norm == 0 or _v3(norm) >= 5:
                        return True
    return False


def liftable_tuples(n: int) -> set:
    """Keys (pivot, digit tuples) of all liftable canonical tuples mod pi^n."""
    return {key(cf) for cf in canonical_tuples(n) if is_liftable(cf, n)}


def key(cf: CanonicalForm):
    return (cf.pivot, cf.coords)


def tangent_direction(p, rng):
    """A random direction in the tangent plane at p.

    Fills three coordinates with small random elements and solves the
    tangent-plane equation sum c_i p_i^2 d_i = 0 for a coordinate whose
    plane coefficient is a unit."""
    plane = [c * pc * pc for c, pc in zip(FORM_COEFFS, p.coords)]
    piv = next(i for i in range(4) if nu(plane[i]) == 0)
    d = [RingElt(rng.randrange(-1, 2), rng.randrange(-1, 2)) for _ in range(4)]
    d[(piv + 1) % 4] = RingElt(1)
    rest = ZERO
    for i in range(4):
        if i != piv:
            rest = rest + plane[i] * d[i]
    work = p.prec if p.prec is not None else 12
    d[piv] = -div_exact(rest, plane[piv], work)
    return tuple(d)


class NotTangentDirection(Exception):
    pass


def tangent_section_point(p: ProjPoint, d: tuple[RingElt, ...]) -> ProjPoint:
    """Third intersection of the tangent line at p in direction d."""
    prec = p.prec
    work = prec if prec is not None else DEFAULT_PRECISION
    l1 = sum((c * pc * pc * di for c, pc, di in zip(FORM_COEFFS, p.coords, d)), ZERO)
    if nu(l1) < work:
        raise NotTangentDirection(f"nu(sum c_i p_i^2 d_i) = {nu(l1)} < {work}")
    l2 = sum((c * pc * di * di for c, pc, di in zip(FORM_COEFFS, p.coords, d)), ZERO)
    l3 = sum((c * di**3 for c, di in zip(FORM_COEFFS, d)), ZERO)
    # t = 0 is a double root; the third root gives p' = l3*p - 3*l2*d.
    if min(nu(l3), nu(l2) + 2) >= work - 3:
        # line inside the tangent cone (Eckhardt degeneracy)
        return p
    coords = tuple(l3 * pc - 3 * l2 * di for pc, di in zip(p.coords, d))
    return ProjPoint(coords, prec)


def check_on_surface(coords, min_valuation: int) -> bool:
    t0, t1, t2, t3 = coords
    f = t0**3 + t1**3 + t2**3 + THETA * t3**3
    return nu(f) >= min_valuation


def classes_by_search(codes: np.ndarray) -> np.ndarray:
    """`moufang.classes_of_codes` by binary search in the sorted class codes:
    class ids of `kernel.form_code`s, -1 for a negative code; KeyError names
    the first other code that is no class's."""
    codes_of_classes = np.array([kernel.form_code(f) for f in M.class_forms()])
    order = np.argsort(codes_of_classes)
    sorted_codes = codes_of_classes[order]
    pos = np.minimum(np.searchsorted(sorted_codes, codes), M.N_CLASSES - 1)
    missing = (sorted_codes[pos] != codes) & (codes >= 0)
    if missing.any():
        raise KeyError(f"form code not on the surface: {codes[np.argmax(missing)]}")
    return np.where(codes >= 0, order[pos], -1)


def eckhardt_lift_samples(samples: int, seed: int, n: int = DEFAULT_PRECISION):
    """The Eckhardt swaps on random lifts: for each unit class U0, U1, U2
    and `samples` other classes c, random lifts of U and of c compose into
    c with two coordinates swapped, mod pi^3.  The classes and seed pairs
    are drawn with key 3.  Returns the 3 * `samples` classes composed in
    one `compose_cells` call from n, and the classes `eckhardt_swaps` gives."""
    unit = np.array([M.named_class(lp) for lp in (M.U0, M.U1, M.U2)]).repeat(samples)
    k = np.tile(np.arange(samples), 3)
    # every class but the unit, as an offset from it
    classes = (unit + 1 + _draw(M.N_CLASSES - 1, 3, seed, unit, k, 0)) % M.N_CLASSES
    seed_pairs = _draw(1 << 30, 3, seed, unit[:, None], k[:, None], [1, 2])
    want = M.eckhardt_swaps()[np.arange(3).repeat(samples), classes]
    return M.compose_cells(unit, classes, n, seed_pairs), want


def splitmix_draw(bound: int, *keys: int) -> int:
    """`surface._draw` for Python int keys, in Python ints: the splitmix64
    hash (Steele et al., OOPSLA 2014) of the keys mod 2^64, in order, mod
    `bound`."""
    mask = (1 << 64) - 1
    h = 0
    for key in keys:
        z = (h + key + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        h = z ^ (z >> 31)
    return h % bound


def newton_unit_inverse(x, k: int):
    """`kernel._unit_inverse` without its table: the inverse mod 3^k of
    units a + b*theta, conj(x) / N(x), with 1/N by the integer Newton step
    y <- y(2 - N*y), which doubles the correct digits of y: from one digit,
    (k - 1).bit_length() steps reach k."""
    mod = 3**k
    a, b = x
    norm = kernel._reduce(a * a - a * b + b * b, mod)
    y = kernel._reduce(norm, 3)  # N = +-1 mod 3 is its own inverse mod 3
    for _ in range((k - 1).bit_length()):
        y = kernel._reduce(y * kernel._reduce(2 - norm * y, mod), mod)
    return kernel._reduce((a - b) * y, mod), kernel._reduce(-b * y, mod)


def oracle_lift_pairs(classes, seeds, n):
    """`kernel.lift_pairs` with every step mod 3^K = 3^19 in int64, at
    every n: the residue pairs and the mask.  It cubes all four coordinates
    of the bumped class tuple and takes the same Newton steps on the Hensel
    coordinate, inverting 3x^2 by `newton_unit_inverse`, five integer Newton
    steps and no table."""
    mod = kernel.MOD
    base_a, base_b, hensel, free, (pi3, pi4) = kernel._class_data()
    classes = np.asarray(classes, dtype=np.int64)
    m = len(classes)
    a, b = base_a[classes], base_b[classes]
    t = min(n, kernel.MAX_LIFT_PRECISION)
    rows = np.arange(m)
    if seeds is not None:
        digits = lift_digits(classes, n, seeds).reshape(m, 2, 4)
        for k in range(2):
            d = digits[:, k]
            bump = kernel._add(
                kernel._mul((d[:, 0], d[:, 1]), pi3, mod),
                kernel._mul((d[:, 2], d[:, 3]), pi4, mod),
                mod,
            )
            cols = free[classes, k]
            a[rows, cols], b[rows, cols] = kernel._add((a[rows, cols], b[rows, cols]), bump, mod)
    h = hensel[classes]
    ca, cb = kernel._mul(kernel._mul((a, b), (a, b), mod), (a, b), mod)
    ca[:, 3], cb[:, 3] = kernel._times_theta((ca[:, 3], cb[:, 3]), mod)
    ca[rows, h] = cb[rows, h] = 0
    rest = kernel._reduce(ca.sum(axis=1), mod), kernel._reduce(cb.sum(axis=1), mod)
    x = a[rows, h], b[rows, h]
    for step in range(kernel._NEWTON_STEPS + 1):
        x2 = kernel._mul(x, x, mod)
        f = kernel._add(kernel._mul(x2, x, mod), rest, mod)
        v = kernel._nu(f, kernel.K)
        if step == 0:
            criterion = v >= HENSEL_CRITERION
        if step == kernel._NEWTON_STEPS or np.all(v >= t):
            break
        dx = kernel._mul((f[0] // 3, f[1] // 3), newton_unit_inverse(x2, kernel.K), mod)
        x = kernel._reduce(x[0] - dx[0], mod), kernel._reduce(x[1] - dx[1], mod)
    a[rows, h], b[rows, h] = x
    return (a, b), criterion & (v >= t)
