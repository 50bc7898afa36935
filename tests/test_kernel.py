"""The batched mod-3^K lift and chord kernels against the exact RingElt path."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicloop.moufang as M
from cubicloop import kernel
from cubicloop.eisenstein import PrecisionExhausted, nu
from cubicloop.surface import (
    HENSEL_INDEX,
    chord,
    eval_form,
    lift_representative,
    normalize,
    random_lift,
)


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
    coordinates, agree with its Hensel coordinate mod pi^(n - 2), where the
    root is unique, and have nu(F) >= n on the exact path."""
    pairs, ok = kernel.lift_pairs(classes, seeds, n)
    assert ok.all()
    params = M.class_params()
    if seeds is None:
        exact = [lift_representative(params[c], n) for c in classes]
    else:
        exact = [random_lift(params[c], n, s) for c, s in zip(classes, seeds)]
    want = kernel.to_pairs(exact)
    for k, (c, p, e) in enumerate(zip(classes, kernel.to_points(pairs, n), exact)):
        h = HENSEL_INDEX[params[c].family]
        for x in (0, 1):
            assert np.delete(pairs[x][k], h).tolist() == np.delete(want[x][k], h).tolist()
        assert nu(p.coords[h] - e.coords[h]) >= n - 2
        assert nu(eval_form(p)) >= n


@pytest.mark.parametrize("n", [6, 12, 24])
def test_lifts_match_the_exact_path(n):
    classes = list(range(M.N_CLASSES))
    check_lifts(classes, None, n)
    for seed in (0, 1, 977):
        check_lifts(classes, [seed * 1000 + c for c in classes], n)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, M.N_CLASSES - 1), min_size=1, max_size=8),
    st.integers(0, (1 << 30) - 1),
    st.integers(6, kernel.MAX_LIFT_PRECISION),
)
def test_random_lifts_match_the_exact_path(classes, seed, n):
    check_lifts(classes, [seed + k for k in range(len(classes))], n)


def test_lifts_above_the_bound_are_refused():
    n = kernel.MAX_LIFT_PRECISION
    assert kernel.lift_pairs([0, 100, 200], None, n)[1].all()
    assert not kernel.lift_pairs([0, 100, 200], None, n + 1)[1].any()
    assert not kernel.lift_pairs([0, 100, 200], [1, 2, 3], n + 1)[1].any()


def test_tuple_failing_the_hensel_criterion_is_refused(monkeypatch):
    params, a, b, hensel, free, bumps = kernel._class_data()
    a = a.copy()
    # nu(F) of the tuple drops to 4; Newton would still converge, to a root
    # that differs from the class's at pi^2
    a[5, hensel[5]] += 3
    monkeypatch.setattr(kernel, "_class_data", lambda: (params, a, b, hensel, free, bumps))
    assert kernel.lift_pairs([4, 5, 6], None, 12)[1].tolist() == [True, False, True]
    assert kernel.lift_pairs([5], [7], 12)[1].tolist() == [False]


def test_lifts_short_of_n_after_newton_are_refused(monkeypatch):
    # one Newton step reaches nu(F) >= 8 but rarely 24
    monkeypatch.setattr(kernel, "_NEWTON_STEPS", 1)
    pairs, ok = kernel.lift_pairs(range(M.N_CLASSES), None, 24)
    assert 0 < ok.sum() < M.N_CLASSES
    assert [nu(eval_form(p)) >= 24 for p in kernel.to_points(pairs, 24)] == ok.tolist()


def test_unit_inverse():
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, kernel.MOD, 1000), rng.integers(0, kernel.MOD, 1000)
    units = (a + b) % 3 != 0
    x = a[units], b[units]
    one_a, one_b = kernel._mul(x, kernel._unit_inverse(x))
    assert (one_a == 1).all() and (one_b == 0).all()


def admissibility_draws(cells, samples, seed):
    """(i, j, sample, seed pair) in the order `check_admissibility` draws them."""
    rng = random.Random(f"admissibility:{seed}")
    for _ in range(cells):
        i, j = rng.randrange(M.N_CLASSES), rng.randrange(M.N_CLASSES)
        for s in range(samples):
            yield i, j, s, (rng.randrange(1 << 30), rng.randrange(1 << 30))


def serial_violation(table, cells, samples, seed):
    """The message of the first violation, composing one sample at a time."""
    for i, j, s, pair in admissibility_draws(cells, samples, seed):
        got = M.compose_classes(i, j, table.precision, seed_pair=pair)
        want = table.circ[i, j]
        if got != want:
            return f"cell ({i},{j}) sample {s}: got class {got}, table says {want}"
    return None


def test_refused_lift_comes_back_from_the_exact_path(table, monkeypatch):
    lift_pairs = kernel.lift_pairs
    calls = []
    draws = list(admissibility_draws(10, 7, 3))
    # the first class of the second and fifth sampled cells
    refused = {draws[7][0], draws[28][0]}

    def refuse_some(classes, seeds, n):
        pairs, ok = lift_pairs(classes, seeds, n)
        ok[np.isin(classes, list(refused))] = False
        return pairs, ok

    def counted(i, j, n, seed_pair):
        calls.append((i, j, n, seed_pair))
        return compose_classes(i, j, n, seed_pair)

    compose_classes = M.compose_classes
    monkeypatch.setattr(kernel, "lift_pairs", refuse_some)
    monkeypatch.setattr(M, "compose_classes", counted)
    assert M.check_admissibility(table, 10, 7, 3) == (70, 0)
    # refused at 12 and again at 24, the last precision the kernel lifts at
    want = [(i, j, 24, pair) for i, j, _, pair in draws if {i, j} & refused]
    assert 14 <= len(want) < 70
    assert calls == want


def test_same_class_samples_stay_in_the_kernel(table, monkeypatch):
    # seed 4 draws the cell (74, 74), whose samples are near-tangent at 12
    assert (74, 74, 0) in [(i, j, s) for i, j, s, _ in admissibility_draws(50, 20, 4)]
    compose_classes = M.compose_classes
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return compose_classes(*args, **kw)

    monkeypatch.setattr(M, "compose_classes", counted)
    assert M.check_admissibility(table, 50, 20, 4) == (1000, 0)
    assert calls == []


def test_corrupted_table_fails_on_the_serial_first_sample(table):
    draws = list(admissibility_draws(6, 4, 2))
    circ = table.circ.copy()
    i, j, _, _ = draws[4 * 3]
    circ[i, j] = circ[j, i] = (circ[i, j] + 1) % M.N_CLASSES
    bad = M.ClassTable(circ, table.precision, table.seed)
    message = serial_violation(bad, 6, 4, 2)
    assert message.startswith(f"cell ({i},{j}) sample 0:")
    with pytest.raises(M.AdmissibilityViolation) as err:
        M.check_admissibility(bad, 6, 4, 2)
    assert str(err.value) == message


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
)
def test_random_lifts_match_compose_classes(i, j, s0, s1):
    params = M.class_params()
    p, q = random_lift(params[i], 12, s0), random_lift(params[j], 12, s1)
    got = kernel_classes([p, q], [0], [1], 12)[0]
    try:
        want = exact_class(p, q)
    except M.PointsCoincide:
        # two lifts of one class that drew the same digits
        want = None
    # same-class pairs are near-tangent: the guard refuses what the exact path does
    assert got == (-1 if want is None else want)
    exact = M.compose_classes(i, j, 12, (s0, s1))
    if i != j:
        assert got == exact
    cells, _ = M.compose_cells([i], [j], 12, np.array([[s0, s1]]))
    assert cells.tolist() == [exact]


def test_guards_refuse_exactly_what_the_exact_path_refuses():
    # at precision 7 about one cell in nine fails normalize's margin rule
    reps = [lift_representative(lp, 7) for lp in M.class_params()]
    rng = random.Random(7)
    cells = [tuple(rng.sample(range(M.N_CLASSES), 2)) for _ in range(1500)]
    i, j = zip(*cells)
    got = kernel_classes(reps, i, j, 7)
    want = [exact_class(reps[a], reps[b]) for a, b in cells]
    assert 100 < want.count(None) < 400
    assert got.tolist() == [-1 if w is None else w for w in want]


def test_refused_cell_comes_back_from_the_exact_path(table, monkeypatch):
    chord_codes = kernel.chord_codes
    calls = []

    def refuse_one(pairs, i, j, prec):
        # fixed representatives are indexed by class id
        codes = chord_codes(pairs, i, j, prec)
        codes[(i == 22) & (j == 94)] = -1
        return codes

    def counted(i, j, n, seed_pair):
        calls.append((i, j, n, seed_pair))
        return compose_classes(i, j, n, seed_pair)

    compose_classes = M.compose_classes
    monkeypatch.setattr(kernel, "chord_codes", refuse_one)
    monkeypatch.setattr(M, "compose_classes", counted)
    t = M.build_class_table(12, admissibility_cells=0)
    # refused at 12 and again at 24, the last precision the kernel lifts at
    assert calls == [(22, 94, 24, None)]
    assert t.exact_cells == 1
    assert np.array_equal(t.circ, table.circ)


# Cells the kernel refuses at n are retried at 2n, the diagonal's at 4n.
@pytest.mark.parametrize(
    "n, exact_cells", [(6, 0), (7, 0), (8, 0), (9, 0), (10, 0), (11, 0)]
)
def test_low_precision_builds_equal_the_default_table(table, n, exact_cells):
    t = M.build_class_table(n, admissibility_cells=0)
    assert np.array_equal(t.circ, table.circ)
    assert t.exact_cells == exact_cells


def test_low_precision_build_lifts_each_representative_once(table, monkeypatch):
    # the 9,720 cells refused at n = 6 share 243 representatives at n = 12;
    # the diagonal's two lifts of one class at 12 are near-tangent in every class
    lift_pairs = kernel.lift_pairs
    batches, exact = [], []

    def counted_batch(classes, seeds, n):
        batches.append((len(classes), None if seeds is None else list(seeds), n))
        return lift_pairs(classes, seeds, n)

    monkeypatch.setattr(kernel, "lift_pairs", counted_batch)
    monkeypatch.setattr(M, "lift_representative", lambda lp, n: exact.append(n))
    t = M.build_class_table(6, admissibility_cells=0)
    n = M.N_CLASSES
    # the retry keeps the first attempt's seeds, as compose_classes does
    seeds = [0] * n + [1 + 1000003] * n
    assert batches == [(n, None, 6), (n, None, 12), (2 * n, seeds, 12), (2 * n, seeds, 24)]
    assert exact == []
    assert np.array_equal(t.circ, table.circ)


def test_default_build_sends_only_the_diagonal_to_the_exact_path(table, monkeypatch):
    # at seed 0 no cell is refused; at seed 1 two diagonal cells are
    assert table.exact_cells == 0
    compose_classes = M.compose_classes
    calls = []

    def counted(i, j, n, seed_pair=None):
        calls.append((i, j, n))
        return compose_classes(i, j, n, seed_pair)

    monkeypatch.setattr(M, "compose_classes", counted)
    t = M.build_class_table(12, admissibility_cells=0, seed=1)
    assert calls == [(87, 87, 24), (170, 170, 24)]
    assert t.exact_cells == 2
    assert np.array_equal(t.circ, table.circ)


def test_form_codes_index_the_classes():
    codes = np.array([kernel.form_code(f) for f in M.class_forms()])
    assert M.classes_of_codes(codes).tolist() == list(range(M.N_CLASSES))
    assert M.classes_of_codes(np.array([-1, codes[7]])).tolist() == [-1, 7]
    with pytest.raises(KeyError):
        M.classes_of_codes(np.append(codes, codes.max() + 1))
