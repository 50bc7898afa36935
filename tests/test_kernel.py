"""The batched mod-3^K chord kernel against the exact RingElt path."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicloop.moufang as M
from cubicloop import kernel
from cubicloop.eisenstein import PrecisionExhausted
from cubicloop.surface import chord, lift_representative, normalize, random_lift


def exact_class(p, q):
    """Class of the chord on the exact path, or None where it refuses."""
    try:
        return M.class_of_form(normalize(chord(p, q)[0], 3, margin=3))
    except PrecisionExhausted:
        return None


def kernel_classes(points, i, j, prec):
    """Kernel class of each cell, -1 where a guard refuses it."""
    codes = kernel.chord_codes(kernel.to_pairs(points), i, j, prec)
    out = np.full(len(codes), -1)
    out[codes >= 0] = M.classes_of_codes(codes[codes >= 0])
    return out


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
    if i != j:
        assert got == M.compose_classes(i, j, 12, (s0, s1))


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

    def refuse_one(pairs, i, j, prec):
        codes = chord_codes(pairs, i, j, prec)
        codes[(i == 22) & (j == 94)] = -1
        return codes

    monkeypatch.setattr(kernel, "chord_codes", refuse_one)
    t = M.build_class_table(12, admissibility_cells=0)
    assert t.exact_cells == M.N_CLASSES + 1
    assert np.array_equal(t.circ, table.circ)


@pytest.mark.parametrize("n, exact_cells", [(6, 9963), (8, 1215), (10, 486), (11, 243)])
def test_low_precision_builds_equal_the_default_table(table, n, exact_cells):
    t = M.build_class_table(n, admissibility_cells=0)
    assert np.array_equal(t.circ, table.circ)
    assert t.exact_cells == exact_cells


def test_default_build_sends_only_the_diagonal_to_the_exact_path(table):
    assert table.exact_cells == M.N_CLASSES


def test_form_codes_index_the_classes():
    codes = np.array([kernel.form_code(f) for f in M.class_forms()])
    assert M.classes_of_codes(codes).tolist() == list(range(M.N_CLASSES))
    with pytest.raises(KeyError):
        M.classes_of_codes(np.append(codes, codes.max() + 1))
