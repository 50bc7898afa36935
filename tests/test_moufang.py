"""Composition-table structure and the loop-theoretic verification suites."""

import random

import numpy as np
import pytest

import cubicloop.moufang as M
from cubicloop import kernel
from cubicloop.eisenstein import ONE, PI, THETA, ZERO
from cubicloop.surface import ProjPoint, normalize


class TestClassIndexing:
    def test_lexicographic_order(self):
        params = M.class_params()
        assert len(params) == M.N_CLASSES
        assert params[0].family == "P" and params[0].digits == (-1, -1, -1)
        assert params[81].family == "Q" and params[162].family == "R"
        assert sorted(params, key=lambda lp: (lp.family, lp.exp, lp.digits)) == list(
            params
        )

    def test_forms_are_distinct(self):
        assert len(set(M.class_forms())) == M.N_CLASSES

    def test_named_classes(self):
        u0 = M.named_class(M.U0)
        assert M.class_params()[u0] == M.U0
        assert M.named_class(M.Q1) == M.named_class(M.U1)

    def test_class_of_point(self):
        p = ProjPoint((ZERO, ONE, -ONE, ZERO), 12)
        assert p.coords[0].is_zero()
        assert M.class_of_point(p) == M.named_class(M.U2)

    def test_unknown_form(self):
        # (1,1,1,0) is not on the surface, so it labels no class
        bad = normalize(ProjPoint((ONE, ONE, ONE, ZERO)), 3)
        with pytest.raises(KeyError):
            M.class_of_form(bad)


class TestTable:
    def test_quasigroup(self, table):
        report = M.verify_quasigroup(table)
        assert report.passed and report.checks == 2 * M.N_CLASSES**2

    def test_diagonal_is_identity(self, table):
        # tangent-plane contraction: the chord through two points of a
        # class lands back in the class
        assert np.array_equal(np.diagonal(table.circ), np.arange(M.N_CLASSES))

    def test_eckhardt_rows_swap_twice(self, table):
        for lp in (M.U0, M.U1, M.U2):
            u = M.named_class(lp)
            assert np.array_equal(table.circ[u, table.circ[u]], np.arange(M.N_CLASSES))

    def test_coincident_points_escalate(self):
        # at precision 6 any two lifts of one class agree to the chord's
        # threshold pi^3; only a higher precision separates them
        assert M.compose_classes(5, 5, 6, seed_pair=(0, 1)) == 5

    def test_diagonal_lifts_once_at_doubled_precision(self, table, monkeypatch):
        # one batch of two lifts per diagonal cell at n = 24; at seed 1 the
        # kernel refuses cells 87 and 170, and only they lift on the exact path
        batches, calls = [], []
        lift_pairs, random_lift = kernel.lift_pairs, M.random_lift

        def counted_batch(classes, seeds, n):
            if seeds is not None:
                batches.append((list(classes), list(seeds), n))
            return lift_pairs(classes, seeds, n)

        def counted(lp, n, seed):
            calls.append((M.class_params().index(lp), n))
            return random_lift(lp, n, seed)

        monkeypatch.setattr(kernel, "lift_pairs", counted_batch)
        monkeypatch.setattr(M, "random_lift", counted)
        t = M.build_class_table(12, admissibility_cells=0, seed=1)
        ids = list(range(M.N_CLASSES))
        seeds = [2] * M.N_CLASSES + [3 + 1000003] * M.N_CLASSES
        assert batches == [(ids + ids, seeds, 24)]
        assert {c for c, _ in calls} == {87, 170}
        assert {n for _, n in calls} <= {24, 48}
        assert t.exact_cells == 2
        assert np.array_equal(t.circ, table.circ)

    def test_cells_reproducible(self, table):
        rng = random.Random(3)
        for _ in range(8):
            i, j = rng.randrange(M.N_CLASSES), rng.randrange(M.N_CLASSES)
            pair = (rng.randrange(1 << 30), rng.randrange(1 << 30))
            assert M.compose_classes(i, j, 12, seed_pair=pair) == int(table.circ[i, j])


class TestLoop:
    def test_unit_row(self, loop):
        assert np.array_equal(loop.mul[loop.unit], np.arange(M.N_CLASSES))

    def test_known_product(self, table, loop):
        # Q1 * Q2 with unit U0: the chord gives (-theta,1,0,0), the unit
        # swaps the first two coordinates
        q1, q2 = M.named_class(M.Q1), M.named_class(M.Q2)
        expected = M.class_of_form(normalize(ProjPoint((ONE, -THETA, ZERO, ZERO)), 3))
        assert int(loop.mul[q1, q2]) == expected

    def test_cml_identities(self, loop):
        assert all(report.passed for report in M.verify_cml(loop))

    def test_exponent(self, loop):
        assert M.exponent(loop) == 3
        assert M.element_orders(loop).count(3) == M.N_CLASSES - 1

    def test_nucleus(self, loop):
        members = M.nucleus(loop)
        assert loop.unit in members
        assert len(members) < M.N_CLASSES
        n = len(members)
        while n % 3 == 0:
            n //= 3
        assert n == 1

    def test_witness(self, table, loop):
        triple, left, right = M.witness_sides(table, loop)
        assert left != right
        assert M.associator_mask(loop)[triple]

    def test_find_nonassoc(self, loop):
        found = M.find_nonassoc(loop, limit=5)
        assert len(found) == 5
        mul = loop.mul
        for x, y, z in found:
            assert mul[mul[x, y], z] != mul[x, mul[y, z]]

    def test_subloop_sizes(self, loop):
        assert M.subloop(loop, set()) == {loop.unit}
        single = M.subloop(loop, {5})
        assert len(single) == 3

    def test_ch_property_sample(self, table):
        report = M.ch_check(table, samples=60, seed=1)
        assert report.passed


class TestCorruption:
    def test_quasigroup_detects_bad_cell(self, table):
        circ = table.circ.copy()
        circ[7, 11] = (circ[7, 11] + 1) % M.N_CLASSES
        bad = M.ClassTable(circ, table.precision, table.seed)
        report = M.verify_quasigroup(bad)
        assert not report.passed
        assert report.counterexample is not None

    def test_cml_detects_bad_cell(self, table, loop):
        circ = table.circ.copy()
        # symmetric corruption slips past the commutativity check but not
        # the weak-associativity identities
        v = (circ[3, 5] + 1) % M.N_CLASSES
        circ[3, 5] = circ[5, 3] = v
        bad = M.ClassTable(circ, table.precision, table.seed)
        bad_loop = M.LoopTable(circ[loop.unit][circ], loop.unit, loop.inv)
        assert not all(report.passed for report in M.verify_cml(bad_loop))

    def test_admissibility_detects_corruption(self, table):
        bad = M.ClassTable((table.circ + 1) % M.N_CLASSES, table.precision, table.seed)
        with pytest.raises(M.AdmissibilityViolation):
            M.check_admissibility(bad, 2, 1, 0)


    def test_eckhardt_check_names_the_first_failure(self, monkeypatch):
        # a chord that returns its second point swaps nothing
        monkeypatch.setattr(M, "chord", lambda p, q: (q, None))
        report = M.eckhardt_check(5, seed=0)
        rng = random.Random("eckhardt:0")
        first = ("P", rng.randrange(M.N_CLASSES), rng.randrange(1 << 30))
        assert (report.passed, report.checks, report.counterexample) == (False, 0, first)
