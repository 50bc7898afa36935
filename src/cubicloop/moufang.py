"""The 243-class composition table and commutative-Moufang-loop checks."""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernel
from .eisenstein import PrecisionExhausted
from .surface import (
    DEFAULT_PRECISION,
    _CLASS_IDS,
    CanonicalForm,
    LambdaParams,
    PointsCoincide,
    ProjPoint,
    _draw,
    all_params,
    canonical_form,
    chord,
    lift_representative,
    normalize,
    random_lift,
)

N_CLASSES = 243
_SLOTS = 1975  # the least modulus at which the class codes and the refusal -1 differ
# Random lift pairs per sampled cell of an admissibility check.
LIFT_SAMPLES = 20


class_params = all_params  # the 243 labels, indexed by class id


@lru_cache(maxsize=1)
def class_forms() -> tuple[CanonicalForm, ...]:
    return tuple(canonical_form(lp) for lp in class_params())


@lru_cache(maxsize=1)
def _form_index() -> np.ndarray:
    """Per slot code mod _SLOTS, the class's `kernel.form_code` and id, or -1 and -1."""
    codes = [kernel.form_code(form) for form in class_forms()] + [-1]
    slots = np.array(codes) % _SLOTS
    if np.bincount(slots).max() != 1:
        raise AssertionError(f"class codes and the refusal -1 collide mod {_SLOTS}")
    index = np.full((2, _SLOTS), -1)
    index[:, slots] = codes, [*range(N_CLASSES), -1]
    return index


def classes_of_codes(codes: np.ndarray) -> np.ndarray:
    """Class ids of an array of `kernel.form_code`s, -1 for the kernel's
    refusals (-1); KeyError names the first other code that is no class's."""
    slot_codes, slot_ids = _form_index()
    slots = kernel._reduce(codes, _SLOTS)
    missing = slot_codes.take(slots) != codes
    if missing.any():
        raise KeyError(f"form code not on the surface: {codes[np.argmax(missing)]}")
    return slot_ids.take(slots)


def class_of_form(form: CanonicalForm) -> int:
    """KeyError for a form of no class, and for one whose depth is not 3,
    whose code may equal a class's."""
    if form.depth == 3:
        with suppress(KeyError):
            return int(classes_of_codes(np.array([kernel.form_code(form)]))[0])
    raise KeyError(f"canonical form not on the surface: {form}")


def class_of_point(p: ProjPoint) -> int:
    return class_of_form(normalize(p, 3))


@dataclass
class ClassTable:
    """243x243 table of the symmetric composition S1 o S2, every cell
    composed by the batched kernel (`compose_cells`)."""

    circ: np.ndarray
    precision: int
    seed: int


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


def _seeds(seed_pair, attempt):
    """Seeds of the two random lifts of attempt `attempt` (an int) from
    `seed_pair`, in its dtype if `seed_pair` is an array."""
    s0, s1 = seed_pair
    return s0 + attempt, s1 + 1000003 * (attempt + 1)


# Every composition composes at n.  A refused cell (the kernel's -1,
# PrecisionExhausted, PointsCoincide) is composed again at max(n, 38)
# (kernel.MAX_LIFT_PRECISION) on the next attempt's lifts: random lifts
# from `_seeds(seed_pair, a)` for a = 1 .. _REDRAWS, and fixed
# representatives, which have no other lifts, once if the starting n is
# below 38.  The last refusal is raised.  By admissibility neither the
# precision nor the lifts change a class, only the work.
_REDRAWS = 16


def compose_classes(
    i: int, j: int, n: int = DEFAULT_PRECISION, seed_pair: tuple[int, int] | None = None
) -> int:
    """Class of the chord through representatives of classes i and j, on
    the exact RingElt path at n, retried by the rule above: the tests'
    reference for `compose_cells`."""
    params = class_params()
    last = _REDRAWS if seed_pair is not None else int(n < kernel.MAX_LIFT_PRECISION)
    for a in range(last + 1):
        try:
            if seed_pair is None:
                p, q = lift_representative(params[i], n), lift_representative(params[j], n)
            else:
                s0, s1 = _seeds(seed_pair, a)
                p, q = random_lift(params[i], n, s0), random_lift(params[j], n, s1)
            return class_of_form(normalize(chord(p, q)[0], 3, margin=3))
        except (PrecisionExhausted, PointsCoincide):
            if a == last:
                raise
            n = max(n, kernel.MAX_LIFT_PRECISION)


def compose_cells(
    i: np.ndarray, j: np.ndarray, n: int, seed_pairs: np.ndarray | None = None
) -> np.ndarray:
    """Per cell k, the class `compose_classes(i[k], j[k], n, seed_pairs[k])`
    (fixed representatives when `seed_pairs` is None), composed by the
    batched kernel by the same rule, the cells of one attempt in one batch.
    A cell still refused at the last attempt raises PrecisionExhausted,
    which names the first such cell."""
    start, i, j = n, np.asarray(i), np.asarray(j)
    seeds = None if seed_pairs is None else np.asarray(seed_pairs)
    # fixed representatives: all cells, as a slice that copies no index array
    todo = np.s_[:] if seeds is None else np.arange(len(i))
    cells = np.full(len(i), -1)
    last = _REDRAWS if seeds is not None else int(n < kernel.MAX_LIFT_PRECISION)
    for a in range(last + 1):
        if seeds is None:  # lifts indexed by class id
            classes, draws, p, q = np.arange(N_CLASSES), None, i[todo], j[todo]
        else:
            classes = np.concatenate([i[todo], j[todo]])
            draws = np.concatenate(_seeds(seeds[todo].T, a))
            p, q = np.arange(len(classes)).reshape(2, -1)
        pairs, lifted = kernel.lift_pairs(classes, draws, n)
        codes = np.where(lifted[p] & lifted[q], kernel.chord_codes(pairs, p, q, n), -1)
        cells[todo] = classes_of_codes(codes)  # masked first: a refused lift's code is no class's
        todo = np.flatnonzero(cells < 0)
        if not len(todo):
            return cells
        n = max(n, kernel.MAX_LIFT_PRECISION)
    k = todo[0]
    pair = None if seeds is None else tuple(seeds[k].tolist())
    raise PrecisionExhausted(
        f"cell ({i[k]}, {j[k]}) at n = {start} with seed pair {pair}: "
        f"refused by the kernel up to precision {kernel.MAX_LIFT_PRECISION}"
    )


@lru_cache(maxsize=1)
def _triangle() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells i < j of the table: their rows and columns, and the flat
    indices of (i, j) and of (j, i), shape (2, 29403); all read-only, and in
    int16 and int32, which keep the cache at 353 KB."""
    iu, ju = np.triu_indices(N_CLASSES, k=1)
    flat = np.stack([iu * N_CLASSES + ju, ju * N_CLASSES + iu], dtype=np.int32)
    iu, ju = iu.astype(np.int16), ju.astype(np.int16)
    for x in (iu, ju, flat):
        x.flags.writeable = False
    return iu, ju, flat


def build_class_table(
    n: int = DEFAULT_PRECISION, seed: int = 0, admissibility_cells: int = 500
) -> ClassTable:
    """Build the full o-table and spot-check admissibility.

    The cells of distinct classes are composed on fixed representatives at
    n, the diagonal on two random lifts at max(n, 38), where two lifts of
    one class separate.  For `admissibility_cells` random cells,
    LIFT_SAMPLES extra random representative pairs are composed and must
    land in the same class; AssertionError names the first that does not,
    as `check_admissibility` reports it."""
    iu, ju, flat = _triangle()
    cells = compose_cells(iu, ju, n)
    ids = np.arange(N_CLASSES)
    seed_pairs = np.tile((2 * seed, 2 * seed + 1), (N_CLASSES, 1))
    diag = compose_cells(ids, ids, max(n, kernel.MAX_LIFT_PRECISION), seed_pairs)
    circ = np.empty(N_CLASSES**2, dtype=np.int16)
    circ[flat] = cells
    circ[:: N_CLASSES + 1] = diag
    table = ClassTable(circ.reshape(N_CLASSES, N_CLASSES), n, seed)
    if admissibility_cells > 0:
        _, cx = check_admissibility(table, admissibility_cells, LIFT_SAMPLES, seed)
        if cx is not None:
            raise AssertionError(f"admissibility fails at (i, j, sample, class composed) {cx}")
    return table


# With this key seed 0 samples cell (181, 102) first, as the string-seeded
# draw before it did; perfbench/test_run.py corrupts that cell.
_ADMISSIBILITY_KEY = 116123


def check_admissibility(
    table: ClassTable, cells: int, samples_per_cell: int, seed: int
) -> tuple[int, tuple[int, int, int, int] | None]:
    """Re-derive sampled cells from independent random lifts, all composed
    at once.  Returns (passes, counterexample): the samples that matched
    before the first mismatch, in the order they are drawn, and that
    mismatch as (i, j, sample, class composed); or all samples and None.
    The benchmark reads passes."""
    cell = np.arange(cells).repeat(samples_per_cell)[:, None]
    i, j = _draw(N_CLASSES, _ADMISSIBILITY_KEY, seed, cell, [0, 1]).T
    seed_pairs = _draw(1 << 30, _ADMISSIBILITY_KEY, seed, np.arange(len(cell))[:, None], [2, 3])
    got = compose_cells(i, j, table.precision, seed_pairs)
    bad = np.flatnonzero(got != table.circ[i, j])
    if not len(bad):
        return len(cell), None
    k = int(bad[0])
    return k, (int(i[k]), int(j[k]), k % samples_per_cell, int(got[k]))


def _mismatch(left: np.ndarray, right: np.ndarray, *x: int) -> tuple | None:
    """`x` and the first index where `left` and `right` differ, searched only
    once they do; None where they are equal."""
    if np.array_equal(left, right):
        return None
    return (*x, *(int(v) for v in np.argwhere(left != right)[0]))


def _stray_cell(table: np.ndarray) -> tuple[int, int] | None:
    """The first cell, in row order, that holds no class id, or None."""
    stray = (table < 0) | (table >= N_CLASSES)
    return tuple(int(v) for v in np.argwhere(stray)[0]) if stray.any() else None


def verify_quasigroup(t: ClassTable) -> CheckReport:
    """Exhaustive check of class ids, x o y = y o x and x o (x o y) = y."""
    circ = t.circ
    ids = np.arange(N_CLASSES)
    if (cell := _stray_cell(circ)) is not None:
        return CheckReport("class ids", False, N_CLASSES**2, cell, f"value {circ[cell]}")
    if (bad := _mismatch(circ, circ.T)) is not None:
        return CheckReport("symmetric", False, N_CLASSES**2, bad)
    if (bad := _mismatch(circ[ids[:, None], circ], np.broadcast_to(ids, circ.shape))) is not None:
        return CheckReport("involution", False, N_CLASSES**2, bad)
    return CheckReport("symmetric quasigroup", True, 2 * N_CLASSES**2)


def loop_from(t: ClassTable, unit: int) -> LoopTable:
    """The loop x*y = unit o (x o y).  In a symmetric quasigroup the inverse
    of x is x o (unit o unit), read off the table; nothing is checked here,
    `verify_quasigroup` and `verify_cml`'s "inverses" report judge it."""
    return LoopTable(t.circ[unit][t.circ], unit, t.circ[:, t.circ[unit, unit]])


def _gather_views(mul: np.ndarray) -> tuple[np.ndarray, np.ndarray, bytearray]:
    """`mul` as uint8 values, as intp indices and as the bytes of its values.
    The row gathers `take` rows or columns of the uint8 values through the
    intp indices, so that they move bytes and convert no index; the value
    lookups apply one row to every cell with `_lookup` on the bytes.
    ValueError names the first cell that is no class id: a negative one
    would index from the end, one above 242 would read the padding of
    `_lookup`'s table, and one above 255 would wrap in the cast."""
    if (cell := _stray_cell(mul)) is not None:
        raise ValueError(f"loop table cell {cell} is {mul[cell]}, not a class id")
    v = mul.astype(np.uint8)
    return v, mul.astype(np.intp), bytearray(v)


# A class id fits in a byte, so a row of a loop table padded to 256 bytes
# is a translation table.  `bytearray.translate` copies through it about
# twice as fast as `take` gathers through intp indices; `bytes.translate`
# is not faster than `take`, as it also tracks whether any byte changed.
# The padding is no class id, so that a cell that escaped `_gather_views`
# could not be read as one.
_PAD = bytes([255]) * (256 - N_CLASSES)


def _translate(row: np.ndarray, cells: bytearray) -> bytearray:
    """The bytes of `_lookup(row, cells)`."""
    return cells.translate(row.tobytes() + _PAD)


def _lookup(row: np.ndarray, cells: bytearray) -> np.ndarray:
    """The 243x243 uint8 array row[cells]: the uint8 row of a loop table
    applied to each class id of `cells`, in row order."""
    return np.frombuffer(_translate(row, cells), np.uint8).reshape(N_CLASSES, N_CLASSES)


def verify_cml(l: LoopTable) -> list[CheckReport]:
    """Commutativity, unit, inverses and the three weak-associativity laws.
    A failed report's counterexample is the law's first failing (x, y, z),
    cut to the variables the law has.

    The two n^3 laws run in one loop over x in ascending order.  A computed
    x gathers F = M[:, L_x] (F[a, z] = a(xz), L_x the row of x; a row gather
    of the transposed M, transposed back) and T = L_{x^2}(M) (T[y, z] =
    x^2(yz), by `_translate`): law 5 reads F[L_x] = T, one memcmp.  Two exact
    equivalences (Bruck, 1958), true in any table, decide the rest.  Where
    x^2(xa) = a for all a (`lip`, one gather for all x), law 6 fails at
    (x, y, z) exactly when law 5 fails at (x, x^2 y, z); elsewhere, or where
    law 5 fails, law 6 is compared as written.  Where p = x^2 < x, p^2 = x
    and lip[p], (y, z) -> (py, pz) turns law 5 at x into law 5 at p, so x
    is skipped when law 5 held at p (lip[x], and so law 6, hold too).  Every
    first counterexample is thus the x-by-x sweep's; squaring pairs the
    non-units of a CML of exponent 3, so 122 of its 243 x are computed.
    No law assumes commutativity."""
    m, unit, n = l.mul, l.unit, N_CLASSES
    v, ix, cells = _gather_views(m)
    v_t = np.ascontiguousarray(v.T)
    ids, sq = np.arange(n), ix.diagonal()
    lip = (v.ravel().take(n * sq[:, None] + ix) == ids).all(axis=1)  # [x, a]: x^2(xa)
    held = np.zeros(n, dtype=bool)  # law 5 holds at x
    left_bytes = bytearray(n * n)
    left = np.frombuffer(left_bytes, np.uint8).reshape(n, n)
    law5 = law6 = None  # the first failing (x, y, z) of each n^3 law
    for x, p in enumerate(sq):
        if p < x and sq[p] == x and lip[p] and held[p]:
            held[x] = True
            continue
        f = np.ascontiguousarray(v_t.take(ix[x], 0).T)
        # `_gather_views` checked every id; take buffers `out` under mode="raise"
        f.take(ix[x], 0, out=left, mode="clip")
        right = _translate(v[p], cells)
        held[x] = left_bytes == right
        if law5 is None and not held[x]:
            law5 = _mismatch(left, np.frombuffer(right, np.uint8).reshape(n, n), x)
        if law6 is None and not (held[x] and lip[x]):
            law6 = _mismatch(_lookup(v[x], bytearray(f)), v.take(ix[p], 0), x)
        if law5 is not None and law6 is not None:
            break
    laws = [
        ("commutativity", n * n, _mismatch(m, m.T)),
        ("unit", n, _mismatch(m[unit], ids)),
        ("inverses", n, _mismatch(m[ids, l.inv], np.full(n, unit))),
        ("x(xy) = x^2 y", n * n, _mismatch(v[ids[:, None], ix], v.take(sq, 0))),
        ("(xy)(xz) = x^2(yz)", n**3, law5),
        ("x(y(xz)) = (x^2 y)z", n**3, law6),
    ]
    return [CheckReport(name, cx is None, checks, cx) for name, checks, cx in laws]


def exponent(l: LoopTable) -> int:
    """Least e <= 243 with x^e = unit for all x, or 0 if there is none; the
    powers x^e = x^(e-1) x of all x are stepped together."""
    power = ids = np.arange(N_CLASSES)
    for e in range(1, N_CLASSES + 1):
        if (power == l.unit).all():
            return e
        power = l.mul[power, ids]
    return 0


def _associator_sides(l: LoopTable):
    """((xy)z, x(yz)) as 243x243 arrays indexed [y, z], for each x in turn:
    a gather of the rows L_x of M, and the row of x applied to every cell
    of M by `_lookup`."""
    v, ix, cells = _gather_views(l.mul)
    for x in range(N_CLASSES):
        yield v.take(ix[x], 0), _lookup(v[x], cells)


# Rows x at which `nucleus` screens its candidates.  Each keeps the
# candidates a with (a x) y = a (x y) for all y; in the loop of every unit
# these three leave just the nine members of the nucleus.  A row that is
# itself a nucleus member keeps every candidate.
_SCREEN_ROWS = range(40, N_CLASSES, 81)


def nucleus(l: LoopTable) -> set[int]:
    """Associative center: a with (a x) y = a (x y) for all x, y.  The
    candidates that fail at one of the `_SCREEN_ROWS` x are dropped first,
    all a at once in one gather per row, and every survivor is checked at
    all x and y, its row gather L_a of M against its row applied to M by
    `_lookup`, so the set is exact whatever the screen keeps.  In a loop
    it is a subgroup (Bruck, 1958), which is not checked here."""
    v, ix, cells = _gather_views(l.mul)
    keep = np.ones(N_CLASSES, dtype=bool)
    for x in _SCREEN_ROWS:
        # [a, y] holds (a x) y on the left and a (x y) on the right
        keep &= (v.take(ix[:, x], 0) == v.take(ix[x], 1)).all(axis=1)
    return {
        int(a)
        for a in np.flatnonzero(keep)
        if np.array_equal(v.take(ix[a], 0), _lookup(v[a], cells))
    }


def associator_mask(l: LoopTable) -> np.ndarray:
    """Boolean (x,y,z) mask where (xy)z != x(yz)."""
    mask = np.empty((N_CLASSES, N_CLASSES, N_CLASSES), dtype=bool)
    for x, (left, right) in enumerate(_associator_sides(l)):
        np.not_equal(left, right, out=mask[x])
    return mask


def find_nonassoc(l: LoopTable) -> list[tuple[int, int, int]]:
    """First ten non-associative triples in lexicographic order, read from
    `_associator_sides` one x at a time until ten are found."""
    found = []
    for x, (left, right) in enumerate(_associator_sides(l)):
        # flatnonzero: argwhere is ten times slower on a row's ~35,000 triples
        diff = np.flatnonzero(left != right)[: 10 - len(found)]
        found += [(x, *map(int, divmod(c, N_CLASSES))) for c in diff]
        if len(found) == 10:
            break
    return found


# Elements of the largest temporary array that `ch_check` (s^3 a draw, the
# two sides of a law on class ids) and `_closures` (s^2 a draw) build for
# one run of samples, s the largest closure; a run holds one sample at least.
_CHUNK_ELEMENTS = 1 << 16


def _runs(member: np.ndarray, power: int):
    """Consecutive slices of the membership rows, each of
    max(1, `_CHUNK_ELEMENTS` // s**power) rows, s the largest closure."""
    n = len(member)
    step = max(1, _CHUNK_ELEMENTS // int(member.sum(axis=1).max(initial=1)) ** power)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _member_lists(member: np.ndarray) -> np.ndarray:
    """Each membership row's classes in ascending order, padded to the
    longest with the row's first class."""
    size = member.sum(axis=1)
    ids = np.argsort(~member, axis=1, kind="stable")[:, : size.max()]
    return np.where(np.arange(ids.shape[1]) < size[:, None], ids, ids[:, :1])


def _closures(op: np.ndarray, gens) -> np.ndarray:
    """Membership rows of the closures under the operation table `op` of
    the rows of `gens`, all grown together.  The padding of
    `_member_lists` only repeats products already taken."""
    member = np.zeros((len(gens), N_CLASSES), dtype=bool)
    member[np.arange(len(gens))[:, None], gens] = True
    while True:
        grown = member.copy()
        for run in _runs(member, 2):
            ids = _member_lists(member[run])
            rows = np.arange(len(ids))[:, None, None]
            grown[run][rows, op[ids[:, :, None], ids[:, None, :]]] = True
        if np.array_equal(grown, member):
            return member
        member = grown


def ch_check(t: ClassTable, samples: int = 200, seed: int = 0) -> CheckReport:
    """Any three elements must generate an Abelian subquasigroup: the law
    a *' b = u' o (a o b) on the o-closure, u' its least class, is
    commutative and associative.  The closures of all samples grow together
    (`_closures`); their laws are tested on class ids, in equal runs of
    draws sized by the largest closure (`_runs`), up to the run that holds
    the first failing triple in draw order.  A member that `_member_lists`
    pads with is u', so it only repeats checks."""
    triples = _draw(N_CLASSES, 2, seed, np.arange(samples)[:, None], range(3))
    member = _closures(t.circ, triples)
    flat = t.circ.ravel()
    for run in _runs(member, 3):
        ids = _member_lists(member[run])
        a, x = ids[:, :, None], ids[:, None, :]
        ax = flat.take(N_CLASSES * a + x)  # [g, a, x] = a o x
        m = t.circ[ids[:, :1, None], ax].astype(np.intp)  # a *' x
        commutative = (m == m.transpose(0, 2, 1)).all(axis=(1, 2))
        # [g, a, x, y] holds (a *' x) *' y and a *' (x *' y)
        u = N_CLASSES * ids[:, :1, None, None]
        left = flat.take(u + flat.take(N_CLASSES * m[..., None] + x[..., None, :]))
        right = flat.take(u + flat.take(N_CLASSES * a[..., None] + m[:, None]))
        associative = (left == right).all(axis=(1, 2, 3))
        if not (commutative & associative).all():
            k = int(np.argmin(commutative & associative))
            detail = "not associative" if commutative[k] else "not commutative"
            cx = tuple(triples[run][k].tolist())
            return CheckReport("ch-closure abelian", False, run.start + k, cx, detail)
    return CheckReport("ch-closure abelian", True, samples)


@lru_cache(maxsize=1)
def eckhardt_swaps() -> np.ndarray:
    """Rows for U0, U1 and U2: the class of each class's tuple with T0 and
    T1, T0 and T2, or T1 and T2 swapped, read off the exact tuples of
    `class_forms` with no lifting, on first use."""
    points = [form.as_point() for form in class_forms()]
    return np.array([
        [class_of_point(ProjPoint(tuple(p.coords[k] for k in perm), p.prec)) for p in points]
        for perm in ((1, 0, 2, 3), (2, 1, 0, 3), (0, 2, 1, 3))
    ])


def eckhardt_check(t: ClassTable) -> CheckReport:
    """Rows U0, U1 and U2 of the table equal `eckhardt_swaps` on all
    3 * 243 cells: for an Eckhardt point U, x -> U o x swaps two
    coordinates.  The counterexample is (family, class) of the first
    failing cell in row order."""
    units = (U0, U1, U2)
    rows = t.circ[[named_class(lp) for lp in units]]
    bad = _mismatch(rows, eckhardt_swaps())
    cx = None if bad is None else (units[bad[0]].family, bad[1])
    return CheckReport("eckhardt swaps", bad is None, rows.size, cx)


# Named classes from the explicit non-associativity computation.
U0 = LambdaParams("P", 0, (0, 0, 0))  # (1,-1,0,0)
U1 = LambdaParams("Q", 0, (0, 0, 0))  # (1,0,-1,0)
U2 = LambdaParams("R", 0, (0, 0, 0))  # (0,1,-1,0)
Q0 = LambdaParams("P", 0, (1, 0, 0))  # lift of (1,-1+p^2,p,-p)
Q1 = U1
Q2 = LambdaParams("R", 1, (0, 0, 0))  # (0,1,-theta,0)


def named_class(lp: LambdaParams) -> int:
    return _CLASS_IDS[lp]


def witness_sides(t: ClassTable, l: LoopTable) -> tuple[tuple[int, int, int], int, int]:
    """The explicit triple and the classes of (XY) o Z vs X o (YZ), with
    the loop products XY and YZ read off `t` at `l.unit`.

    The loop products (XY)Z and X(YZ) are unit o these two; since
    composing with a fixed class is a bijection, the sides differ iff the
    loop products differ."""
    x, y, z = named_class(Q0), named_class(Q1), named_class(Q2)
    unit = l.unit
    xy = int(t.circ[unit, t.circ[x, y]])
    yz = int(t.circ[unit, t.circ[y, z]])
    return (x, y, z), int(t.circ[xy, z]), int(t.circ[x, yz])


def verify_suites(t: ClassTable, unit: int, seed: int) -> list[CheckReport]:
    """The reports of every check, in order, up to the first failed one: the
    quasigroup, the CML laws of the loop with `unit`, admissibility (50 cells),
    the named witness, CH (200 triples), the Eckhardt swaps (the unit rows),
    and the paper's exponent 3 and nucleus of order 9, whose detail gives
    `exponent=.. |nucleus|=.. witnesses=..` (non-associative triples)."""
    reports = []
    for report in _suite_reports(t, unit, seed):
        reports.append(report)
        if not report.passed:
            break
    return reports


def _suite_reports(t: ClassTable, unit: int, seed: int):
    """The reports in order; each step assumes that the ones before it passed."""
    yield verify_quasigroup(t)
    l = loop_from(t, unit)  # reached only once t is a quasigroup
    yield from verify_cml(l)
    passes, cx = check_admissibility(t, 50, LIFT_SAMPLES, seed)
    if cx is not None:
        i, j, sample, got = cx
        detail = f"got class {got}, table says {t.circ[i, j]}"
        yield CheckReport("admissibility", False, passes, (i, j, sample), detail)
        return
    yield CheckReport("admissibility", True, passes)
    triple, left, right = witness_sides(t, l)
    yield CheckReport("non-associative witness", left != right, 1, triple)
    yield ch_check(t, 200, seed)
    yield eckhardt_check(t)
    e, order = exponent(l), len(nucleus(l))
    # counted one x at a time: the whole associator_mask is 14 MB
    witnesses = sum(int(np.count_nonzero(left != right)) for left, right in _associator_sides(l))
    figures = f"exponent={e} |nucleus|={order} witnesses={witnesses}"
    yield CheckReport("exponent 3", e == 3, N_CLASSES, detail=figures)
    yield CheckReport("nucleus of order 9", order == 9, N_CLASSES, detail=figures)
