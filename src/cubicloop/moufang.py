"""The 243-class composition table and commutative-Moufang-loop checks."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernel
from .eisenstein import PrecisionExhausted
from .surface import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    CanonicalForm,
    LambdaParams,
    PointsCoincide,
    ProjPoint,
    all_params,
    canonical_form,
    chord,
    lift_representative,
    normalize,
    random_lift,
)

N_CLASSES = 243


class AdmissibilityViolation(Exception):
    """Two representative pairs of the same classes composed to different
    classes.  Fatal: it would falsify the admissibility of the mod-pi^3
    relation, so it always signals a bug."""


@lru_cache(maxsize=1)
def class_params() -> tuple[LambdaParams, ...]:
    return tuple(all_params())


@lru_cache(maxsize=1)
def class_forms() -> tuple[CanonicalForm, ...]:
    return tuple(canonical_form(lp) for lp in class_params())


@lru_cache(maxsize=1)
def _form_index() -> dict[CanonicalForm, int]:
    index = {form: k for k, form in enumerate(class_forms())}
    if len(index) != N_CLASSES:
        raise AssertionError("canonical forms of the 243 classes collide")
    return index


def class_of_form(form: CanonicalForm) -> int:
    try:
        return _form_index()[form]
    except KeyError:
        raise KeyError(f"canonical form not on the surface: {form}") from None


def class_of_point(p: ProjPoint) -> int:
    return class_of_form(normalize(p, 3))


@lru_cache(maxsize=1)
def _code_index() -> tuple[np.ndarray, np.ndarray]:
    """Sorted `kernel.form_code`s of the 243 forms, and their class ids."""
    codes = np.array([kernel.form_code(form) for form in class_forms()], dtype=np.int64)
    order = np.argsort(codes)
    return codes[order], order


def classes_of_codes(codes: np.ndarray) -> np.ndarray:
    """Class ids of an array of `kernel.form_code`s, -1 for the kernel's
    refusals (-1); KeyError names the first other code that is no class's,
    as `class_of_form` does for a form."""
    sorted_codes, order = _code_index()
    pos = np.minimum(np.searchsorted(sorted_codes, codes), N_CLASSES - 1)
    missing = (sorted_codes[pos] != codes) & (codes >= 0)
    if missing.any():
        raise KeyError(f"form code not on the surface: {codes[np.argmax(missing)]}")
    return np.where(codes >= 0, order[pos], -1)


@dataclass
class ClassTable:
    """243x243 table of the symmetric composition S1 o S2.

    exact_cells counts the cells composed on the exact path
    (`compose_classes`) rather than by the batched kernel."""

    circ: np.ndarray
    precision: int
    seed: int
    exact_cells: int = 0


@dataclass
class LoopTable:
    """Loop law x*y = unit o (x o y) derived from a class table."""

    mul: np.ndarray
    unit: int
    inv: np.ndarray


@dataclass
class CheckReport:
    name: str
    passed: bool
    checks: int
    counterexample: tuple | None = None
    detail: str = ""


def _seeds(seed_pair: tuple[int, int], attempt: int) -> tuple[int, int]:
    """Seeds of the two random lifts in attempt `attempt` of `compose_classes`."""
    s0, s1 = seed_pair
    return s0 + attempt, s1 + 1000003 * (attempt + 1)


def compose_classes(
    i: int,
    j: int,
    n: int = DEFAULT_PRECISION,
    seed_pair: tuple[int, int] | None = None,
) -> int:
    """Class of the chord through representatives of classes i and j.

    Equal classes (or an explicit seed pair) use two random lifts; retries
    at doubled precision, bounded by MAX_PRECISION, on precision exhaustion
    or coincident points (which also redraw the random lifts)."""
    params = class_params()
    if seed_pair is None and i == j:
        seed_pair = (0, 1)
    work = n
    bump = 0
    while True:
        try:
            if seed_pair is not None:
                s0, s1 = _seeds(seed_pair, bump)
                p, q = random_lift(params[i], work, s0), random_lift(params[j], work, s1)
            else:
                p = lift_representative(params[i], work)
                q = lift_representative(params[j], work)
            r, _trace = chord(p, q)
            return class_of_form(normalize(r, 3, margin=3))
        except PointsCoincide:
            # The points agree to the working precision.  Fixed
            # representatives of distinct classes, and any two points of one
            # class at low precision, only separate at a higher one; two
            # random lifts that drew the same digits need a redraw.
            bump += 1
            if bump > 16:
                raise
            work = min(2 * work, MAX_PRECISION)
        except PrecisionExhausted:
            if work >= MAX_PRECISION:
                raise
            work = min(2 * work, MAX_PRECISION)


def compose_cells(
    i: np.ndarray, j: np.ndarray, n: int, seed_pairs: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Per cell k, the class `compose_classes(i[k], j[k], n, seed_pairs[k])`
    (fixed representatives when `seed_pairs` is None), and how many cells
    went to `compose_classes`.

    The kernel lifts the points and composes every cell.  As
    `compose_classes` does on PrecisionExhausted, the cells it refuses are
    retried at doubled precision with the same seeds, while the kernel can
    certify lifts there; the cells still refused go to `compose_classes` at
    the last precision tried."""
    i, j = np.asarray(i), np.asarray(j)
    if seed_pairs is None:
        # indexed by class id; the kernel works at min(n, 2K) anyway
        lift_n = min(n, kernel.MAX_LIFT_PRECISION)
        pairs, lifted = kernel.lift_pairs(np.arange(N_CLASSES), None, lift_n)
        p, q = i, j
    else:
        s0, s1 = _seeds(seed_pairs.T, 0)
        pairs, lifted = kernel.lift_pairs(
            np.concatenate([i, j]), np.concatenate([s0, s1]), n
        )
        p, q = np.arange(len(i)), np.arange(len(i), 2 * len(i))
    codes = classes_of_codes(kernel.chord_codes(pairs, p, q, n))
    cells = np.where(lifted[p] & lifted[q], codes, -1)
    todo = np.flatnonzero(cells < 0)
    if len(todo) and 2 * n <= kernel.MAX_LIFT_PRECISION:
        rest = None if seed_pairs is None else seed_pairs[todo]
        cells[todo], exact = compose_cells(i[todo], j[todo], 2 * n, rest)
        return cells, exact
    for k in todo.tolist():
        pair = None if seed_pairs is None else tuple(seed_pairs[k].tolist())
        cells[k] = compose_classes(int(i[k]), int(j[k]), n, pair)
    return cells, len(todo)


def build_class_table(
    n: int = DEFAULT_PRECISION,
    lift_samples: int = 20,
    seed: int = 0,
    admissibility_cells: int = 500,
) -> ClassTable:
    """Build the full o-table and spot-check admissibility.

    The cells of distinct classes are composed on fixed representatives at
    n, the diagonal on two random lifts at doubled precision, where two
    lifts of one class separate (at n = 12 every diagonal cell fails at n).
    For `admissibility_cells` random cells, `lift_samples` extra random
    representative pairs are composed and must land in the same class."""
    iu, ju = np.triu_indices(N_CLASSES, k=1)
    cells, exact = compose_cells(iu, ju, n)
    ids = np.arange(N_CLASSES)
    seed_pairs = np.tile((2 * seed, 2 * seed + 1), (N_CLASSES, 1))
    diag, exact_diag = compose_cells(ids, ids, min(2 * n, MAX_PRECISION), seed_pairs)
    circ = np.empty((N_CLASSES, N_CLASSES), dtype=np.int16)
    circ[iu, ju] = cells
    circ[ju, iu] = cells
    circ[ids, ids] = diag
    table = ClassTable(circ, n, seed, exact_cells=exact + exact_diag)
    if admissibility_cells > 0:
        check_admissibility(table, admissibility_cells, lift_samples, seed)
    return table


def check_admissibility(
    table: ClassTable, cells: int, samples_per_cell: int, seed: int
) -> tuple[int, int]:
    """Re-derive sampled cells from independent random lifts, all composed
    at once.  The first mismatch, in the order the samples are drawn,
    raises AdmissibilityViolation; returns (passes, fails)."""
    rng = random.Random(f"admissibility:{seed}")
    draws = []
    for _ in range(cells):
        i = rng.randrange(N_CLASSES)
        j = rng.randrange(N_CLASSES)
        for _ in range(samples_per_cell):
            draws.append((i, j, rng.randrange(1 << 30), rng.randrange(1 << 30)))
    draws = np.array(draws, dtype=np.int64).reshape(-1, 4)
    i, j = draws[:, 0], draws[:, 1]
    got, _ = compose_cells(i, j, table.precision, draws[:, 2:])
    expected = table.circ[i, j]
    bad = np.flatnonzero(got != expected)
    if len(bad):
        k = int(bad[0])
        raise AdmissibilityViolation(
            f"cell ({i[k]},{j[k]}) sample {k % samples_per_cell}: "
            f"got class {got[k]}, table says {expected[k]}"
        )
    return len(draws), 0


def verify_quasigroup(t: ClassTable) -> CheckReport:
    """Exhaustive check of x o y = y o x and x o (x o y) = y."""
    circ = t.circ
    if not np.array_equal(circ, circ.T):
        i, j = np.argwhere(circ != circ.T)[0]
        return CheckReport("symmetric", False, N_CLASSES**2, (int(i), int(j)))
    ids = np.arange(N_CLASSES)
    for x in range(N_CLASSES):
        back = circ[x, circ[x]]
        if not np.array_equal(back, ids):
            y = int(np.argwhere(back != ids)[0][0])
            return CheckReport("involution", False, N_CLASSES**2, (x, y))
    return CheckReport("symmetric quasigroup", True, 2 * N_CLASSES**2)


def loop_from(t: ClassTable, unit: int) -> LoopTable:
    mul = t.circ[unit][t.circ]
    hits = mul == unit
    if not np.all(hits.sum(axis=1) == 1):
        raise AssertionError("row without a unique inverse; not a quasigroup")
    inv = np.argmax(hits, axis=1)
    return LoopTable(mul, unit, inv)


def verify_cml(l: LoopTable) -> list[CheckReport]:
    """Commutativity, unit, inverses and the three weak-associativity laws."""
    mul, unit = l.mul, l.unit
    n = N_CLASSES
    ids = np.arange(n)
    reports = [
        CheckReport("commutativity", bool(np.array_equal(mul, mul.T)), n * n),
        CheckReport("unit", bool(np.array_equal(mul[unit], ids)), n),
        CheckReport(
            "inverses", bool(np.array_equal(mul[ids, l.inv], np.full(n, unit))), n
        ),
    ]
    sq = mul[ids, ids]
    ok3 = all(np.array_equal(mul[x, mul[x]], mul[sq[x]]) for x in range(n))
    reports.append(CheckReport("x(xy) = x^2 y", ok3, n * n))
    ok4a = True
    ok4b = True
    for x in range(n):
        row = mul[x]
        if ok4a and not np.array_equal(mul[np.ix_(row, row)], mul[sq[x]][mul]):
            ok4a = False
        if ok4b and not np.array_equal(mul[x][mul[:, row]], mul[mul[sq[x]], :]):
            ok4b = False
    reports.append(CheckReport("(xy)(xz) = x^2(yz)", ok4a, n**3))
    reports.append(CheckReport("x(y(xz)) = (x^2 y)z", ok4b, n**3))
    return reports


def element_orders(l: LoopTable) -> list[int]:
    """Order of every element; asserted to be at most 6."""
    orders = []
    for x in range(N_CLASSES):
        y = x
        order = 1
        while y != l.unit:
            y = int(l.mul[y, x])
            order += 1
            if order > 6:
                raise AssertionError(f"element {x} has order above 6")
        orders.append(order)
    return orders


def exponent(l: LoopTable) -> int:
    """Least e with x^e = unit for all x; asserted to divide 6."""
    e = math.lcm(*element_orders(l))
    if 6 % e != 0:
        raise AssertionError(f"exponent {e} does not divide 6")
    return e


def nucleus(l: LoopTable) -> set[int]:
    """Associative center: a with (a x) y = a (x y) for all x, y."""
    mul = l.mul
    members = set()
    for a in range(N_CLASSES):
        if np.array_equal(mul[mul[a]], mul[a][mul]):
            members.add(a)
    # a subloop: closed under mul and inverses, contains the unit
    ids = sorted(members)
    sub = mul[np.ix_(ids, ids)]
    if l.unit not in members or not set(sub.ravel()) <= members:
        raise AssertionError("nucleus is not closed under multiplication")
    if not {int(l.inv[a]) for a in members} <= members:
        raise AssertionError("nucleus is not closed under inverses")
    return members


def associator_mask(l: LoopTable) -> np.ndarray:
    """Boolean (x,y,z) mask where (xy)z != x(yz)."""
    mul = l.mul
    mask = np.empty((N_CLASSES, N_CLASSES, N_CLASSES), dtype=bool)
    for x in range(N_CLASSES):
        mask[x] = mul[mul[x], :] != mul[x][mul]
    return mask


def find_nonassoc(l: LoopTable, limit: int = 10) -> list[tuple[int, int, int]]:
    """First `limit` non-associative triples in lexicographic order."""
    mul = l.mul
    out: list[tuple[int, int, int]] = []
    for x in range(N_CLASSES):
        bad = np.argwhere(mul[mul[x], :] != mul[x][mul])
        for y, z in bad:
            out.append((x, int(y), int(z)))
            if len(out) >= limit:
                return out
    return out


def circ_closure(t: ClassTable, gens: set[int]) -> set[int]:
    """Closure of gens under the symmetric composition."""
    closed = set(gens)
    frontier = np.array(sorted(closed))
    while True:
        new = set(np.unique(t.circ[np.ix_(frontier, frontier)]).tolist()) - closed
        if not new:
            return closed
        closed |= new
        frontier = np.array(sorted(closed))


def ch_check(
    t: ClassTable, samples: int = 200, seed: int = 0, exhaustive: bool = False
) -> CheckReport:
    """Any three elements must generate an Abelian subquasigroup: the law
    a *' b = u' o (a o b) on the o-closure is an Abelian group law."""
    rng = random.Random(f"ch:{seed}")
    if exhaustive:
        triples = [
            (x, y, z)
            for x in range(N_CLASSES)
            for y in range(x, N_CLASSES)
            for z in range(y, N_CLASSES)
        ]
    else:
        triples = [
            tuple(rng.randrange(N_CLASSES) for _ in range(3)) for _ in range(samples)
        ]
    checks = 0
    for triple in triples:
        closed = sorted(circ_closure(t, set(triple)))
        index = {c: k for k, c in enumerate(closed)}
        sub = np.array([[index[t.circ[a, b]] for b in closed] for a in closed])
        uprime = 0  # any fixed element of the closure
        m = sub[uprime][sub]
        if not np.array_equal(m, m.T):
            return CheckReport("ch-closure abelian", False, checks, triple, "not commutative")
        for a in range(len(closed)):
            if not np.array_equal(m[m[a], :], m[a][m]):
                return CheckReport(
                    "ch-closure abelian", False, checks, triple, "not associative"
                )
        checks += 1
    return CheckReport("ch-closure abelian", True, checks)


def eckhardt_check(samples: int, seed: int, n: int = DEFAULT_PRECISION) -> CheckReport:
    """For each family's unit class U0, U1, U2 (lifted at n), the chord
    through it and a random lift of another class equals that lift with two
    coordinates swapped, mod pi^3; `samples` random lifts per family.  The
    counterexample is (family, class, lift seed)."""
    rng = random.Random(f"eckhardt:{seed}")
    params = class_params()
    checks = 0
    for unit_lp, perm in ((U0, (1, 0, 2, 3)), (U1, (2, 1, 0, 3)), (U2, (0, 2, 1, 3))):
        unit, u = named_class(unit_lp), lift_representative(unit_lp, n)
        stop = checks + samples
        while checks < stop:
            c, s = rng.randrange(N_CLASSES), rng.randrange(1 << 30)
            if c == unit:
                continue
            pt = random_lift(params[c], n, s)
            swapped = ProjPoint(tuple(pt.coords[k] for k in perm), pt.prec)
            if normalize(chord(u, pt)[0], 3) != normalize(swapped, 3):
                failure = (unit_lp.family, c, s)
                return CheckReport("eckhardt swaps", False, checks, failure)
            checks += 1
    return CheckReport("eckhardt swaps", True, checks)


def subloop(l: LoopTable, gens: set[int]) -> set[int]:
    """Closure of gens and the unit under mul and inversion."""
    closed = set(gens) | {l.unit}
    closed |= {int(l.inv[g]) for g in closed}
    while True:
        ids = np.array(sorted(closed))
        new = set(np.unique(l.mul[np.ix_(ids, ids)]).tolist()) - closed
        if not new:
            break
        closed |= new
        closed |= {int(l.inv[g]) for g in new}
    size = len(closed)
    while size % 3 == 0:
        size //= 3
    if size != 1:
        raise AssertionError(f"subloop size {len(closed)} is not a power of 3")
    return closed


# Named classes from the explicit non-associativity computation.
U0 = LambdaParams("P", 0, (0, 0, 0))  # (1,-1,0,0)
U1 = LambdaParams("Q", 0, (0, 0, 0))  # (1,0,-1,0)
U2 = LambdaParams("R", 0, (0, 0, 0))  # (0,1,-1,0)
Q0 = LambdaParams("P", 0, (1, 0, 0))  # lift of (1,-1+p^2,p,-p)
Q1 = U1
Q2 = LambdaParams("R", 1, (0, 0, 0))  # (0,1,-theta,0)


def named_class(lp: LambdaParams) -> int:
    return class_of_form(canonical_form(lp))


def witness_sides(t: ClassTable, l: LoopTable) -> tuple[tuple[int, int, int], int, int]:
    """The explicit triple and the classes of (XY) o Z vs X o (YZ).

    The loop products (XY)Z and X(YZ) are unit o these two; since
    composing with a fixed class is a bijection, the sides differ iff the
    loop products differ."""
    x, y, z = named_class(Q0), named_class(Q1), named_class(Q2)
    unit = l.unit
    xy = int(t.circ[unit, t.circ[x, y]])
    yz = int(t.circ[unit, t.circ[y, z]])
    left = int(t.circ[xy, z])
    right = int(t.circ[x, yz])
    if (int(t.circ[unit, left]), int(t.circ[unit, right])) != (
        int(l.mul[l.mul[x, y], z]),
        int(l.mul[x, l.mul[y, z]]),
    ):
        raise AssertionError("association sides inconsistent with the loop table")
    return (x, y, z), left, right
