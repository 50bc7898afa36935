"""The batched lift and chord kernels, each mod 3^k for its own k, against
the exact RingElt path and the lift mod 3^K."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicloop.moufang as M
import oracles
from cubicloop import kernel
from cubicloop.eisenstein import PI, PrecisionExhausted, RingElt, nu
from cubicloop.surface import (
    HENSEL_INDEX,
    PI3,
    DegenerateLine,
    PointsCoincide,
    ProjPoint,
    _draw,
    canonical_form,
    chord,
    eval_form,
    lift_representative,
    normalize,
    random_lift,
)


def to_points(pairs, prec):
    """Points of precision `prec` whose coordinates are the residues."""
    return [
        ProjPoint(tuple(RingElt(int(a), int(b)) for a, b in zip(ra, rb)), prec)
        for ra, rb in zip(*pairs)
    ]


def exact_class(p, q):
    """Class of the chord on the exact path, or None where it refuses."""
    try:
        return M.class_of_form(normalize(chord(p, q)[0], 3, margin=3))
    except PrecisionExhausted:
        return None


def kernel_classes(points, i, j, prec):
    """Kernel class of each cell, -1 where a guard refuses it."""
    return M.classes_of_codes(kernel.chord_codes(kernel.to_pairs(points), i, j, prec))


def check_lifts(classes, seeds, n):
    """The batched lifts certify every point, carry the exact path's free
    coordinates mod 3^k, k = `lift_exponent(n)`, and, with t = min(n, 2K),
    agree with its Hensel coordinate mod pi^(t - 2), where the root is
    unique, and have nu(F) >= t on the exact path."""
    pairs, ok = kernel.lift_pairs(classes, seeds, n)
    assert ok.all()
    params = M.class_params()
    if seeds is None:
        exact = [lift_representative(params[c], n) for c in classes]
    else:
        exact = [random_lift(params[c], n, s) for c, s in zip(classes, seeds)]
    want = kernel.to_pairs(exact)
    mod = 3 ** kernel.lift_exponent(n)
    t = min(n, kernel.MAX_LIFT_PRECISION)
    for k, (c, p, e) in enumerate(zip(classes, to_points(pairs, n), exact)):
        h = HENSEL_INDEX[params[c].family]
        for x in (0, 1):
            assert np.delete(pairs[x][k], h).tolist() == (np.delete(want[x][k], h) % mod).tolist()
        assert nu(p.coords[h] - e.coords[h]) >= t - 2
        assert nu(eval_form(p)) >= t


@pytest.mark.parametrize("n", [6, 7, 12, 24, 38, 48])
def test_lifts_match_the_exact_path(n):
    classes = list(range(M.N_CLASSES))
    check_lifts(classes, None, n)
    for seed in (0, 1, 977):
        check_lifts(classes, [seed * 1000 + c for c in classes], n)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, M.N_CLASSES - 1), min_size=1, max_size=8),
    # any Python int seed, as `--seed` takes: negative, or 2^64 and above
    st.integers(-(1 << 70), 1 << 70),
    st.integers(6, 60),
)
def test_random_lifts_match_the_exact_path(classes, seed, n):
    check_lifts(classes, [seed + k for k in range(len(classes))], n)


def test_lifts_above_the_bound_are_certified_to_it():
    # Newton runs to min(n, 2K); a fixed representative has no digits to draw
    n = kernel.MAX_LIFT_PRECISION
    top, _ = kernel.lift_pairs([0, 100, 200], None, n)
    for above in (n + 1, 60):
        pairs, lifted = kernel.lift_pairs([0, 100, 200], None, above)
        assert lifted.all()
        assert all(np.array_equal(x, y) for x, y in zip(pairs, top))
        assert kernel.lift_pairs([0, 100, 200], [1, 2, 3], above)[1].all()


@pytest.mark.parametrize("n", range(6, 49))
def test_lifts_give_the_codes_of_the_lift_mod_3_19(n):
    # the 243 representatives and three seed sets: the residues agree mod
    # 3^(k-1) with the lift mod 3^K, the masks are equal, and the chord
    # codes are equal in all 243 x 243 cells
    classes = np.arange(M.N_CLASSES)
    mod = 3 ** (kernel.lift_exponent(n) - 1)
    i, j = (x.ravel() for x in np.indices((M.N_CLASSES, M.N_CLASSES)))
    for seeds in (None, *(classes + 1000 * seed for seed in (0, 1, 977))):
        pairs, ok = kernel.lift_pairs(classes, seeds, n)
        want, want_ok = oracles.oracle_lift_pairs(classes, seeds, n)
        assert all(np.array_equal(x % mod, y % mod) for x, y in zip(pairs, want))
        assert np.array_equal(ok, want_ok)
        codes = kernel.chord_codes(pairs, i, j, n)
        assert np.array_equal(codes, kernel.chord_codes(want, i, j, n))


@pytest.fixture
def kernel_only(monkeypatch):
    """The exact path's lifts and chord raise, so whatever passes composed
    every cell in the kernel."""

    def exact_path(*args):
        raise AssertionError(f"exact path called with {args}")

    for name in ("chord", "random_lift", "lift_representative"):
        monkeypatch.setattr(M, name, exact_path)


def test_samples_above_the_lift_bound_stay_in_the_kernel(table, monkeypatch, kernel_only):
    n = kernel.MAX_LIFT_PRECISION + 1
    assert M.check_admissibility(M.ClassTable(table.circ, n, 0), 50, 20, 0) == (1000, None)
    # A tuple of class 1 off the surface (nu(F) = 0) fails the Hensel
    # criterion: its lift is refused, and chords to a code of no class, so
    # the sample is refused, not a KeyError, only if the code is masked first.
    a, b, hensel, free, bumps = kernel._class_data()
    a = a.copy()
    a[1, hensel[1]] += 1
    monkeypatch.setattr(kernel, "_class_data", lambda: (a, b, hensel, free, bumps))
    pairs, lifted = kernel.lift_pairs([1, 3], [0, 1], n)
    assert lifted.tolist() == [False, True]
    with pytest.raises(KeyError):
        M.classes_of_codes(kernel.chord_codes(pairs, [0], [1], n))
    with pytest.raises(PrecisionExhausted) as err:
        M.compose_cells(np.array([1]), np.array([3]), n, np.array([[0, 1]]))
    assert str(err.value).startswith("cell (1, 3) at n = 39 with seed pair (0, 1):")


def test_tuple_failing_the_hensel_criterion_is_refused(monkeypatch):
    a, b, hensel, free, bumps = kernel._class_data()
    a = a.copy()
    # nu(F) of the tuple drops to 4; Newton would still converge, to a root
    # that differs from the class's at pi^2
    a[5, hensel[5]] += 3
    monkeypatch.setattr(kernel, "_class_data", lambda: (a, b, hensel, free, bumps))
    assert kernel.lift_pairs([4, 5, 6], None, 12)[1].tolist() == [True, False, True]
    assert kernel.lift_pairs([5], [7], 12)[1].tolist() == [False]


def test_lifts_short_of_n_after_newton_are_refused(monkeypatch):
    # one Newton step reaches nu(F) >= 8 but rarely 24
    monkeypatch.setattr(kernel, "_NEWTON_STEPS", 1)
    pairs, ok = kernel.lift_pairs(range(M.N_CLASSES), None, 24)
    assert 0 < ok.sum() < M.N_CLASSES
    assert [nu(eval_form(p)) >= 24 for p in to_points(pairs, 24)] == ok.tolist()


def test_unit_inverse():
    # every modulus the lift uses, in its dtype (int16 up to k = 4, int32 up
    # to k = 9), on random units and on the residues nearest 3^k, where
    # products are largest
    rng = np.random.default_rng(0)
    for k in range(3, kernel.K + 1):
        mod, dtype = 3**k, kernel.residue_dtype(k)
        top = mod - np.arange(1, 7)
        a = np.concatenate([rng.integers(0, mod, 1000), top, top])
        b = np.concatenate([rng.integers(0, mod, 1000), top, np.roll(top, 1)])
        units = (a + b) % 3 != 0
        x = a[units].astype(dtype), b[units].astype(dtype)
        inverse = kernel._unit_inverse(x, k)
        assert all(y.dtype == dtype and (0 <= y).all() and (y < mod).all() for y in inverse)
        for xa, xb, ya, yb in zip(*x, *inverse):
            one = RingElt(int(xa), int(xb)) * RingElt(int(ya), int(yb))
            assert (one.a % mod, one.b % mod) == (1, 0)


def test_norm_inverse_table():
    # every unit mod 3^9 times its entry is 1; a non-unit reads 0
    mod = 3**9
    table = kernel._norm_inverses(9)
    units = np.arange(mod) % 3 != 0
    assert table.dtype == np.int32 and len(table) == mod
    assert (np.arange(mod, dtype=np.int64)[units] * table[units] % mod == 1).all()
    assert not table[~units].any()


@pytest.mark.parametrize("k", [3, 8, 9, 10, 19])
def test_bump_coefficients_give_the_ring_bump(k):
    # (d0 + d1 theta) pi^3 + (d2 + d3 theta) pi^4 for all 81 digit vectors
    mod = 3**k
    ca, cb = kernel._bump_coefficients(k, kernel._class_data()[4])
    assert ca.dtype == cb.dtype == kernel.residue_dtype(k)
    for d in itertools.product((-1, 0, 1), repeat=4):
        bump = RingElt(d[0], d[1]) * PI3 + RingElt(d[2], d[3]) * PI3 * PI
        assert (int(np.dot(d, ca)) % mod, int(np.dot(d, cb)) % mod) == (bump.a % mod, bump.b % mod)


@pytest.mark.parametrize(("c", "pivot"), [(0, 0), (100, 0), (200, 1)])
def test_class_tuple_without_pivot_one_is_refused(monkeypatch, c, pivot):
    # classes 0, 100 and 200 are of families P, Q and R; the lift takes the
    # coordinate beside the Hensel and the free ones as 1, and a tuple equal
    # to 1 only mod pi^3 there is refused when the class data are built
    real = kernel.residue_tuple

    def moved(lp):
        coords = list(real(lp))
        if lp == M.class_params()[c]:
            coords[pivot] = coords[pivot] + PI3
        return tuple(coords)

    monkeypatch.setattr(kernel, "residue_tuple", moved)
    with pytest.raises(AssertionError, match=re.escape(f"class {M.class_params()[c]}:")):
        kernel._class_data.__wrapped__()


def residues(k):
    """Residues in [0, 3^k): any, or a multiple of 3^e for some e <= k."""
    mod = 3**k
    return st.integers(0, mod - 1) | st.builds(
        lambda e, m: 3**e * m % mod, st.integers(0, k), st.integers(0, mod - 1)
    )


def edge_pairs(k):
    """(0, 0), 3^e on either side, and b = -a, for every e <= k."""
    return [(0, 0)] + [
        pair for e in range(k + 1) for pair in ((3**e, 0), (0, 3**e), (3**e, -(3**e)))
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nu_is_the_exact_valuation_capped_at_2k(data):
    # 2 and K bound the chord kernel's exponents, 3 and K the lift kernel's;
    # int32 holds k = 8 and 9, the largest, and int64 k = 10 and up; k = 10
    # and 11 read nu_3 on either side of the split at _LOW = 10 digits
    for k in (2, 3, 8, 9, 10, 11, kernel.K):
        draws = data.draw(st.lists(st.tuples(residues(k), residues(k), st.booleans()), max_size=40))
        # the flag turns (a, b) into the odd case (a, -a): a + b*theta = a(1 - theta)
        pairs = edge_pairs(k) + [(a, -a if odd else b) for a, b, odd in draws]
        dtype = kernel.residue_dtype(k)
        a, b = (np.array([x[c] % 3**k for x in pairs], dtype=dtype) for c in (0, 1))
        exact = [nu(RingElt(int(x), int(y))) for x, y in zip(a, b)]
        assert kernel._nu((a, b), k).tolist() == [min(v, 2 * k) for v in exact]


def test_every_chord_exponent_fits_its_dtype(monkeypatch):
    # every exponent the rules pick, the chord's from precision 6 up and the
    # lift's from 1, with its overflow bound: four products of residues
    # summed, above the dtype's minimum + 3^k
    precisions = range(1, 3 * kernel.MAX_LIFT_PRECISION)
    exponents = {kernel.chord_exponent(prec) for prec in precisions if prec >= 6}
    assert exponents == set(range(2, kernel.K + 1))
    assert {kernel.lift_exponent(n) for n in precisions} == set(range(3, kernel.K + 1))
    for k in exponents:
        dtype = kernel.residue_dtype(k)
        assert 4 * (3**k - 1) ** 2 < np.iinfo(dtype).max + 1 - 3**k
        assert dtype == (np.int16 if k <= 4 else np.int32 if k <= 9 else np.int64)
    # int16 up to precision 8 (k = 4), int32 up to 13 (k = 9), int64 from 14
    block_codes, seen = kernel._block_codes, []

    def recorded(coords, i, j, k):
        codes = block_codes(coords, i, j, k)
        seen.append((k, coords[0].dtype, i, j, codes))
        return codes

    monkeypatch.setattr(kernel, "_block_codes", recorded)
    # the lift at precision 7 works mod 3^4, in int16; at the default
    # precision 12 mod 3^9, in int32
    assert {x.dtype for x in kernel.lift_pairs([0, 100], [1, 2], 7)[0]} == {np.dtype(np.int16)}
    pairs, _ = kernel.lift_pairs(range(M.N_CLASSES), None, 12)
    assert pairs[0].dtype == pairs[1].dtype == np.int32
    # a single cell is one block at every precision
    for prec in (6, 8, 9, 12, 13, 14, 24, 60):
        kernel.chord_codes(pairs, [0], [100], prec)
    assert [block[:2] for block in seen] == [
        (2, np.int16), (4, np.int16), (5, np.int32), (8, np.int32), (9, np.int32),
        (10, np.int64), (kernel.K, np.int64), (kernel.K, np.int64),
    ]
    # below precision 6 (k < 2) no vmin <= k - 2 exists: every cell is
    # refused, uncomputed
    assert kernel.chord_codes(pairs, [0, 1], [1, 0], 5).tolist() == [-1, -1]
    assert len(seen) == 8
    # More than one block of k = 8 (2,048 int32 cells) at precision 12: every
    # cell in int16 blocks of 4,096 at k = 4, then in int32 at k = 8 exactly
    # the 972 cells refused there, the pairs of classes that agree mod pi^2.
    seen.clear()
    i, j = np.triu_indices(M.N_CLASSES, k=1)
    codes = kernel.chord_codes(pairs, i, j, 12)
    first = [block for block in seen if block[0] == 4]
    assert [block[:2] for block in seen] == [(4, np.int16)] * 8 + [(8, np.int32)]
    assert [len(block[2]) for block in first] == [4096] * 7 + [731]
    for x, want in ((2, i), (3, j)):
        assert np.array_equal(np.concatenate([block[x] for block in first]), want)
    refused = np.flatnonzero(np.concatenate([block[4] for block in first]) < 0)
    assert len(refused) == 972
    (_, _, i8, j8, codes8), = seen[8:]
    assert np.array_equal(i8, i[refused]) and np.array_equal(j8, j[refused])
    assert np.array_equal(codes[refused], codes8)
    assert np.array_equal(codes, kernel._pass_codes(pairs, i, j, 8))


def admissibility_draws(cells, samples, seed):
    """(i, j, sample, seed pair) in the order `check_admissibility` draws
    them, one cell and one sample at a time."""
    for c in range(cells):
        i, j = _draw(M.N_CLASSES, M._ADMISSIBILITY_KEY, seed, c, [0, 1]).tolist()
        for s in range(samples):
            pair = _draw(1 << 30, M._ADMISSIBILITY_KEY, seed, c * samples + s, [2, 3])
            yield i, j, s, tuple(pair.tolist())


def serial_admissibility(table, cells, samples, seed):
    """(matched, counterexample) of `check_admissibility`, composing one
    sample at a time on the exact path."""
    for matched, (i, j, s, pair) in enumerate(admissibility_draws(cells, samples, seed)):
        got = M.compose_classes(i, j, table.precision, seed_pair=pair)
        if got != table.circ[i, j]:
            return matched, (i, j, s, got)
    return cells * samples, None


def test_refused_lift_raises_naming_its_cell(table, monkeypatch):
    lift_pairs = kernel.lift_pairs
    rungs = []
    draws = list(admissibility_draws(10, 7, 3))
    # the first class of the second and fifth sampled cells
    refused = {draws[7][0], draws[28][0]}

    def refuse_some(classes, seeds, n):
        rungs.append(n)
        pairs, ok = lift_pairs(classes, seeds, n)
        ok[np.isin(classes, list(refused))] = False
        return pairs, ok

    monkeypatch.setattr(kernel, "lift_pairs", refuse_some)
    with pytest.raises(PrecisionExhausted) as err:
        M.check_admissibility(table, 10, 7, 3)
    # refused at 12, then on the lifts of each next attempt at 38; the first
    # such sample is named
    i, j, _, pair = next(d for d in draws if {d[0], d[1]} & refused)
    assert str(err.value) == (
        f"cell ({i}, {j}) at n = 12 with seed pair {pair}: "
        f"refused by the kernel up to precision 38"
    )
    assert rungs == [12] + [38] * M._REDRAWS


def test_same_class_samples_stay_in_the_kernel(table, monkeypatch, kernel_only):
    # seed 0 draws the cell (216, 216), whose samples are near-tangent at 12
    assert (216, 216, 0) in [(i, j, s) for i, j, s, _ in admissibility_draws(50, 20, 0)]
    lift_pairs, rungs = kernel.lift_pairs, []

    def counted(classes, seeds, n):
        rungs.append(n)
        return lift_pairs(classes, seeds, n)

    monkeypatch.setattr(kernel, "lift_pairs", counted)
    assert M.check_admissibility(table, 50, 20, 0) == (1000, None)
    # the refused samples are retried once, at 38
    assert rungs == [12, 38]


def test_corrupted_table_fails_on_the_serial_first_sample(table):
    draws = list(admissibility_draws(6, 4, 2))
    circ = table.circ.copy()
    i, j, _, _ = draws[4 * 3]
    circ[i, j] = circ[j, i] = (circ[i, j] + 1) % M.N_CLASSES
    bad = M.ClassTable(circ, table.precision, table.seed)
    matched, cx = serial_admissibility(bad, 6, 4, 2)
    assert (matched, cx[:3]) == (4 * 3, (i, j, 0))
    assert M.check_admissibility(bad, 6, 4, 2) == (matched, cx)


def test_build_names_the_admissibility_mismatch(monkeypatch):
    cx = (3, 5, 7, 11)
    monkeypatch.setattr(M, "check_admissibility", lambda *args: (140, cx))
    with pytest.raises(AssertionError, match=re.escape(str(cx))):
        M.build_class_table(12, admissibility_cells=1)


@pytest.fixture(scope="module")
def reps12():
    return [lift_representative(lp, 12) for lp in M.class_params()]


def test_every_off_diagonal_cell_matches_the_exact_path(reps12):
    iu, ju = np.triu_indices(M.N_CLASSES, k=1)
    got = kernel_classes(reps12, iu, ju, 12)
    want = [exact_class(reps12[i], reps12[j]) for i, j in zip(iu, ju)]
    assert len(got) == 29_403
    assert got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, M.N_CLASSES - 1),
    st.integers(0, M.N_CLASSES - 1),
    st.integers(0, (1 << 30) - 1),
    st.integers(0, (1 << 30) - 1),
    st.sampled_from([12, 13, 39, 60]),
)
def test_random_lifts_match_compose_classes(i, j, s0, s1, n):
    params = M.class_params()
    p, q = random_lift(params[i], n, s0), random_lift(params[j], n, s1)
    got = kernel_classes([p, q], [0], [1], n)[0]
    try:
        want = exact_class(p, q)
    except M.PointsCoincide:
        # two lifts of one class that drew the same digits
        want = None
    # same-class pairs are near-tangent: at 12 the guard refuses what the
    # exact path does; above 2K it is the exact path's at 2K, and may refuse more
    assert got == (-1 if want is None else want) or (n > kernel.MAX_LIFT_PRECISION and got == -1)
    exact = M.compose_classes(i, j, n, (s0, s1))
    if i != j:
        assert got == exact
    cells = M.compose_cells([i], [j], n, np.array([[s0, s1]]))
    assert cells.tolist() == [exact]


def chord_raises(p, q):
    try:
        chord(p, q)
    except PrecisionExhausted:
        return True
    return False


@pytest.mark.parametrize("n", [6, 7, 8])
def test_guards_refuse_exactly_what_the_exact_path_refuses(n):
    params = M.class_params()
    reps = [lift_representative(lp, n) for lp in params]
    rng = random.Random(7)
    cells = [tuple(rng.sample(range(M.N_CLASSES), 2)) for _ in range(1500)]
    # and every cell whose exact chord raises: its points agree mod pi
    # (`chord` raises PrecisionExhausted only then), and it is refused by
    # vmin <= k - 2 alone, with no test of the chord's coefficients
    mod_pi = [canonical_form(lp).truncate(1) for lp in params]
    near = [
        (a, b)
        for a, b in itertools.combinations(range(M.N_CLASSES), 2)
        if mod_pi[a] == mod_pi[b] and chord_raises(reps[a], reps[b])
    ]
    assert len(near) == {6: 972, 7: 972, 8: 243}[n]
    i, j = zip(*cells, *near)
    got = kernel_classes(reps, i, j, n)
    want = [exact_class(reps[a], reps[b]) for a, b in zip(i, j)]
    if n == 7:  # about one cell in nine of the sample fails normalize's margin rule
        assert 100 < want[: len(cells)].count(None) < 400
    assert got.tolist() == [-1 if w is None else w for w in want]


def python_int_code(p, q, prec):
    """The cell's `form_code` on the exact path, whose RingElt arithmetic is
    on Python ints and never reduced, or -1 where it refuses or where the
    kernel's rule vmin <= k - 2 fails; the first implies the second."""
    try:
        r, _ = chord(p, q)
        form = normalize(r, 3, margin=3)
    except (PrecisionExhausted, PointsCoincide, DegenerateLine):
        return -1
    if min(nu(c) for c in r.coords) > kernel.chord_exponent(prec) - 2:
        return -1
    return kernel.form_code(form)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 3**4), min_size=16, max_size=16),
    # (precision, copies of the cells): 8 is int16's tightest exponent
    # (k = 4), 13 int32's (k = 9), 14 the first int64 one; 410 copies at 12
    # (2,050 cells, past one int32 block) run the int16 pass at k = 4, where
    # every residue of point 0 is -1 mod 3^4 too
    st.sampled_from([(6, 1), (8, 1), (12, 1), (12, 410), (13, 1), (14, 1), (24, 1), (38, 1)]),
)
def test_residues_near_mod_do_not_overflow(below, run):
    # the kernel works mod 3^k; every residue of point 0 is 3^k - 1, where
    # each product and sum of the kernel is largest; points 1 and 2 are
    # drawn near 3^k
    prec, copies = run
    mod = 3 ** kernel.chord_exponent(prec)
    near = [(mod - d) % mod for d in below]
    top = [mod - 1] * 4
    a = np.array([top, near[0:4], near[8:12]], dtype=np.int64)
    b = np.array([top, near[4:8], near[12:16]], dtype=np.int64)
    cells = [(0, 1), (1, 0), (0, 2), (1, 2), (2, 2)]
    i, j = np.tile(np.array(cells).T, copies)
    got = kernel.chord_codes((a, b), i, j, prec)
    points = to_points((a, b), prec)
    assert got.tolist() == [python_int_code(points[x], points[y], prec) for x, y in cells] * copies


def test_chords_deeper_than_k_minus_2_are_refused():
    # at 38 the kernel works mod 3^K; q = p + 3^e * h puts the chord's vmin
    # at 16-26, where normalize still accepts up to 32 but the residues
    # divide by pi^vmin only up to K - 2 = 17
    (a, b), _ = kernel.lift_pairs([0, 100, 200], None, 38)
    deep = []
    for e in (8, 9, 12):
        pairs = np.vstack([a, (a + 3**e * np.array([1, 2, 0, 1])) % kernel.MOD]), np.vstack([b, b])
        got = kernel.chord_codes(pairs, [0, 1, 2], [3, 4, 5], 38)
        points = to_points(pairs, 38)
        assert got.tolist() == [python_int_code(points[c], points[c + 3], 38) for c in range(3)]
        deep += [min(nu(x) for x in chord(points[c], points[c + 3])[0].coords) for c in range(3)]
    assert min(deep) == 16 and max(deep) == 26


def test_refused_cell_raises_naming_it(monkeypatch):
    chord_codes, rungs = kernel.chord_codes, []

    def refuse_one(pairs, i, j, prec):
        # fixed representatives are indexed by class id
        codes = chord_codes(pairs, i, j, prec)
        hit = (i == 22) & (j == 94)
        if hit.any():
            rungs.append(prec)
        codes[hit] = -1
        return codes

    monkeypatch.setattr(kernel, "chord_codes", refuse_one)
    with pytest.raises(PrecisionExhausted) as err:
        M.build_class_table(12, admissibility_cells=0)
    assert str(err.value) == (
        "cell (22, 94) at n = 12 with seed pair None: refused by the kernel up to precision 38"
    )
    # refused at 12 and once more at 38
    assert rungs == [12, 38]


# Cells the kernel refuses at n are retried once at 38; the diagonal is
# composed at max(n, 38).
@pytest.mark.parametrize(
    "n, seed",
    [(6, 0), (7, 0), (8, 0), (9, 0), (10, 0), (11, 0), (12, 0), (13, 0), (14, 0), (20, 0),
     (37, 0), (38, 0), (39, 0), (48, 0), (60, 0)],
)
def test_low_precision_builds_equal_the_default_table(table, n, seed):
    t = M.build_class_table(n, seed=seed, admissibility_cells=0)
    assert np.array_equal(t.circ, table.circ)


@pytest.mark.parametrize(
    "seed, redraws", [(1, [([60, 60], [3, 3 + 2 * 1000003])]), (26, [])], ids=["1", "26"]
)
def test_cells_refused_at_10_are_retried_at_38_in_the_kernel(
    table, monkeypatch, kernel_only, seed, redraws
):
    # the off-diagonal cells refused at 10 are retried at 38, which lifts
    # the 243 representatives again; the diagonal's two random lifts per
    # class lift at 38, where at seed 1 (seed pair (2, 3)) the two lifts of
    # class 60 are identical and are redrawn with the next attempt's seeds
    lift_pairs, batches, redrawn = kernel.lift_pairs, [], []

    def counted(classes, seeds, n):
        batches.append((len(classes), n))
        if len(classes) == 2:
            redrawn.append((np.asarray(classes).tolist(), np.asarray(seeds).tolist()))
        return lift_pairs(classes, seeds, n)

    monkeypatch.setattr(kernel, "lift_pairs", counted)
    t = M.build_class_table(10, seed=seed, admissibility_cells=0)
    n = M.N_CLASSES
    assert batches == [(n, 10), (n, 38), (2 * n, 38), *[(2, 38)] * len(redraws)]
    assert redrawn == redraws
    assert np.array_equal(t.circ, table.circ)


def test_fixed_representatives_above_38_stay_in_the_kernel(table, kernel_only):
    # the kernel lifts fixed representatives for n = 39, and the diagonal's
    # random lifts at max(39, 38) = 39, to 38
    t = M.build_class_table(39, admissibility_cells=0)
    assert np.array_equal(t.circ, table.circ)


def test_low_precision_build_lifts_each_representative_once(table, monkeypatch):
    # the 9,720 cells refused at n = 6 share 243 representatives at 38; the
    # diagonal is composed at 38, where the two lifts of every class separate
    lift_pairs = kernel.lift_pairs
    batches, exact = [], []

    def counted_batch(classes, seeds, n):
        batches.append((len(classes), None if seeds is None else list(seeds), n))
        return lift_pairs(classes, seeds, n)

    monkeypatch.setattr(kernel, "lift_pairs", counted_batch)
    monkeypatch.setattr(M, "lift_representative", lambda lp, n: exact.append(n))
    t = M.build_class_table(6, admissibility_cells=0)
    n = M.N_CLASSES
    seeds = [0] * n + [1 + 1000003] * n
    assert batches == [(n, None, 6), (n, None, 38), (2 * n, seeds, 38)]
    assert exact == []
    assert np.array_equal(t.circ, table.circ)


def test_default_build_sends_no_cell_to_the_exact_path(table, kernel_only):
    # at these seeds the two random lifts of one or two diagonal cells are
    # identical (cell 60, 7, and 146 and 194); the kernel redraws them
    for seed in (1, 2, 63):
        t = M.build_class_table(12, admissibility_cells=0, seed=seed)
        assert np.array_equal(t.circ, table.circ)


def test_the_program_composes_only_in_the_kernel(table, kernel_only):
    # the build with its 500-cell admissibility check, and every suite
    t = M.build_class_table(12)
    assert np.array_equal(t.circ, table.circ)
    reports = M.verify_suites(t, M.named_class(M.U0), 0)
    assert len(reports) == 13 and all(r.passed for r in reports)


CLASS_CODES = np.array([kernel.form_code(f) for f in M.class_forms()])


def test_form_codes_index_the_classes():
    codes = CLASS_CODES
    assert M.classes_of_codes(codes).tolist() == list(range(M.N_CLASSES))
    assert M.classes_of_codes(np.array([-1, codes[7]])).tolist() == [-1, 7]
    # codes that share a slot with a class's code, and others of no class
    for stray in (codes[7] - M._SLOTS, codes[7] + M._SLOTS, codes.max() + 1, -2):
        with pytest.raises(KeyError) as exc:
            M.classes_of_codes(np.array([codes[3], -1, stray, codes.max() + 2]))
        assert exc.value.args == (f"form code not on the surface: {stray}",)


@settings(max_examples=200)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(CLASS_CODES.tolist()),
            st.just(-1),
            st.integers(0, int(CLASS_CODES.max()) + M._SLOTS),
        ),
        max_size=40,
    )
)
def test_class_lookup_matches_the_sorted_search(codes):
    codes = np.array(codes, dtype=np.int64)
    try:
        want = oracles.classes_by_search(codes)
    except KeyError as exc:
        with pytest.raises(KeyError) as got:
            M.classes_of_codes(codes)
        assert str(got.value) == str(exc)
    else:
        assert M.classes_of_codes(codes).tolist() == want.tolist()


@pytest.mark.parametrize("top", [2, 16, 38])
def test_min_first_is_the_least_valuation_and_its_first_coordinate(top):
    # valuations up to 2k = 38 at k = 19 (the diagonal's blocks at n = 38),
    # few values (many ties), and columns all at the cap
    rng = np.random.default_rng(top)
    vals = rng.integers(0, top + 1, size=(4, 5000)).astype(np.int8)
    vals[:, :4] = top
    vmin, pivot = kernel._min_first(vals)
    assert np.array_equal(vmin, vals.min(axis=0))
    assert np.array_equal(pivot, np.argmax(vals == vals.min(axis=0), axis=0))
