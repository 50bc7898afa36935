"""Composition-table structure and the loop-theoretic verification suites."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import cubicloop.moufang as M
from cubicloop import kernel
from cubicloop.eisenstein import ONE, THETA, ZERO, DigitVector, PrecisionExhausted
from cubicloop.surface import CanonicalForm, ProjPoint, _draw, canonical_form, normalize


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

    def test_named_class_reads_the_label_index(self):
        # the index lookup gives the class of every label's canonical form
        for lp in M.class_params():
            assert M.named_class(lp) == M.class_of_form(canonical_form(lp)), lp

    def test_class_of_point(self):
        p = ProjPoint((ZERO, ONE, -ONE, ZERO), 12)
        assert p.coords[0].is_zero()
        assert M.class_of_point(p) == M.named_class(M.U2)

    def test_unknown_form(self):
        # (1,1,1,0) is not on the surface, so it labels no class
        bad = normalize(ProjPoint((ONE, ONE, ONE, ZERO)), 3)
        with pytest.raises(KeyError):
            M.class_of_form(bad)

    def test_form_of_another_depth_is_no_class(self):
        # one digit more on every coordinate: +27 on the code of coordinate 0
        # carries into coordinate 1, whose first digit is one lower, so the
        # depth-4 form has the code of a class's depth-3 form
        k, form = next((k, f) for k, f in enumerate(M.class_forms()) if f.coords[1][0] > -1)
        x0, (d, *x1), x2, x3 = form.coords
        deeper = CanonicalForm(
            (DigitVector((*x0, 0)), DigitVector((d - 1, *x1, -1)),
             DigitVector((*x2, -1)), DigitVector((*x3, -1))),
            form.pivot,
        )
        assert kernel.form_code(deeper) == kernel.form_code(form)
        assert M.class_of_form(form) == k
        with pytest.raises(KeyError):
            M.class_of_form(deeper)


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

    def test_fixed_representatives_refuse_a_same_class_cell(self):
        # a class has one fixed representative, and a chord needs two points
        with pytest.raises(M.PointsCoincide):
            M.compose_classes(5, 5, 12)
        with pytest.raises(PrecisionExhausted, match=r"^cell \(5, 5\) at n = 12 "):
            M.compose_cells([5], [5], 12)

    @pytest.mark.parametrize("seed_pair", [None, (0, 1)])
    @pytest.mark.parametrize("n", [6, 12, 37, 38, 39, 60])
    def test_refused_cells_are_retried_once_at_38(self, monkeypatch, n, seed_pair):
        # compose_classes and compose_cells make the same attempts, then
        # raise: random lifts at n, then _REDRAWS more at max(n, 38) on the
        # seeds of the next attempts; fixed representatives once more at 38
        # when n is below it, since they have no other lifts
        tried, tried_by_kernel, drawn, drawn_by_kernel = [], [], [], []
        random_lift, lift_pairs = M.random_lift, kernel.lift_pairs

        def refuse(p, q):
            tried.append(p.prec)
            raise PrecisionExhausted("forced")

        def refuse_all(pairs, i, j, prec):
            tried_by_kernel.append(prec)
            return np.full(len(i), -1)

        def draw(lp, n, seed):
            drawn.append(seed)
            return random_lift(lp, n, seed)

        def draw_batch(classes, seeds, n):
            drawn_by_kernel.extend([] if seeds is None else [int(s) for s in seeds])
            return lift_pairs(classes, seeds, n)

        monkeypatch.setattr(M, "chord", refuse)
        monkeypatch.setattr(M, "random_lift", draw)
        monkeypatch.setattr(kernel, "chord_codes", refuse_all)
        monkeypatch.setattr(kernel, "lift_pairs", draw_batch)
        with pytest.raises(PrecisionExhausted):
            M.compose_classes(3, 7, n, seed_pair)
        with pytest.raises(PrecisionExhausted, match=rf"^cell \(3, 7\) at n = {n} "):
            M.compose_cells([3], [7], n, None if seed_pair is None else [seed_pair])
        if seed_pair is None:
            rungs, seeds = [n, 38] if n < 38 else [n], []
        else:
            rungs = [n] + [max(n, 38)] * M._REDRAWS
            seeds = [s for a in range(M._REDRAWS + 1) for s in M._seeds(seed_pair, a)]
        assert tried == tried_by_kernel == rungs
        assert drawn == drawn_by_kernel == seeds

    def test_points_coincide_at_the_top_rung_is_raised(self, monkeypatch):
        lifts = []
        lift_representative = M.lift_representative

        def counted(lp, n):
            lifts.append(n)
            return lift_representative(lp, n)

        def coincide(p, q):
            raise M.PointsCoincide("forced")

        monkeypatch.setattr(M, "lift_representative", counted)
        monkeypatch.setattr(M, "chord", coincide)
        with pytest.raises(M.PointsCoincide):
            M.compose_classes(3, 7, 60)
        # 60 is above 38, the kernel's full precision: no retry, and none lower
        assert lifts == [60, 60]

    def test_identical_lifts_are_composed_again_at_38(self, monkeypatch):
        # two identical lifts are refused like any other pair: the next
        # attempt's lifts are drawn at max(24, 38)
        draws = []
        random_lift = M.random_lift
        first = M._seeds((0, 1), 0)

        def same_first(lp, n, seed):
            draws.append((n, seed))
            # the first attempt's two lifts are made identical
            return random_lift(lp, n, first[0] if seed in first else seed)

        monkeypatch.setattr(M, "random_lift", same_first)
        assert M.compose_classes(5, 5, 24, (0, 1)) == 5
        assert draws == [(24, s) for s in first] + [(38, s) for s in M._seeds((0, 1), 1)]

    @pytest.mark.parametrize(
        "pair",
        [np.array([[-7, 2**62]]), np.array([[2**63 + 5, 2**64 - 3]], np.uint64),
         np.array([[2**64 + 5, 2**70]], object)],
        ids=["int64", "uint64", "object"],
    )
    def test_identical_kernel_lifts_redraw_with_the_next_seeds(self, monkeypatch, pair):
        batches, lift_pairs = [], kernel.lift_pairs

        def same_first(classes, seeds, n):
            batches.append((list(classes), seeds, n))
            # the first attempt's two lifts are made identical
            return lift_pairs(classes, seeds[:1].repeat(2) if len(batches) == 1 else seeds, n)

        monkeypatch.setattr(kernel, "lift_pairs", same_first)
        assert M.compose_cells([5], [5], 24, pair).tolist() == [5]
        # refused at 24, composed again at 38 on the next attempt's seeds
        assert [(c, n) for c, _, n in batches] == [([5, 5], 24), ([5, 5], 38)]
        redrawn = batches[1][1]
        # in the seeds' dtype, so that a sum that wraps is the same key mod 2^64
        assert redrawn.dtype == pair.dtype
        want = M._seeds(tuple(pair[0].tolist()), 1)
        assert [int(s) % 2**64 for s in redrawn] == [s % 2**64 for s in want]

    def test_diagonal_lifts_once_at_the_kernel_precision(self, table, monkeypatch):
        # one batch of two lifts per diagonal cell at max(12, 38) = 38; at
        # seed 63 the two lifts of cells 146 and 194 are identical, and only
        # they are lifted again, with the next attempt's seeds
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
        t = M.build_class_table(12, admissibility_cells=0, seed=63)
        ids = list(range(M.N_CLASSES))
        seeds = [126] * M.N_CLASSES + [127 + 1000003] * M.N_CLASSES
        s0, s1 = M._seeds((126, 127), 1)
        redraw = ([146, 194, 146, 194], [s0, s0, s1, s1], 38)
        assert batches == [(ids + ids, seeds, 38), redraw]
        assert calls == []
        assert np.array_equal(t.circ, table.circ)

    @pytest.mark.parametrize("seed", [-1, 2**62, 2**64 + 5])
    def test_any_int_seed_builds_the_table(self, table, seed):
        # seeds are reduced mod 2^64 before they key the draws
        t = M.build_class_table(12, seed=seed)
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

    def test_left_inverse_property(self, table):
        # so verify_cml decides law 6 from law 5 at every x
        for u in range(M.N_CLASSES):
            assert left_inverse_rows(M.loop_from(table, u).mul).all(), u

    def test_exponent(self, table):
        # with a unique unit, every other class has order 3
        assert all(M.exponent(M.loop_from(table, u)) == 3 for u in range(M.N_CLASSES))

    def test_exponent_of_other_tables(self):
        ids = np.arange(M.N_CLASSES)
        cyclic = M.LoopTable((ids[:, None] + ids) % M.N_CLASSES, 0, -ids % M.N_CLASSES)
        assert M.exponent(cyclic) == M.N_CLASSES
        # Z_3^5 on the base-3 digits of 0..242
        digits, place = ids[:, None] // 3 ** np.arange(5) % 3, 3 ** np.arange(5)
        elementary = M.LoopTable((digits[:, None] + digits) % 3 @ place, 0, -digits % 3 @ place)
        assert M.exponent(elementary) == 3
        # x y = max(x, y): 0 is the unit and every other x is idempotent, so
        # no power of it reaches the unit
        idempotent = M.LoopTable(np.maximum(ids[:, None], ids), 0, ids)
        assert M.exponent(idempotent) == 0

    def test_inverse_is_read_off_the_quasigroup(self, table):
        # x o (u o u) is the one y with xy = u, in the loop of every unit u
        for u in range(M.N_CLASSES):
            l = M.loop_from(table, u)
            hits = l.mul == u
            assert (hits.sum(axis=1) == 1).all(), u
            assert np.array_equal(l.inv, np.argmax(hits, axis=1)), u

    def test_nucleus(self, table):
        # a subgroup of order 9 in the loop of every unit
        for u in range(M.N_CLASSES):
            l = M.loop_from(table, u)
            members = M.nucleus(l)
            assert len(members) == 9 and u in members, u
            assert oracle_closure(l.mul, members) == members, u
            assert {int(l.inv[a]) for a in members} <= members, u

    def test_nucleus_cosets(self, loop):
        # the cosets x N are 27 disjoint sets of 9 classes
        members = sorted(M.nucleus(loop))
        cosets = np.unique(np.sort(loop.mul[:, members], axis=1), axis=0)
        assert cosets.shape == (27, 9)
        assert len(np.unique(cosets)) == M.N_CLASSES

    def test_associators(self, loop):
        # ((xy)z)(x(yz))^-1 takes 3 values, which form a subloop with the unit
        values = set()
        for left, right in M._associator_sides(loop):
            values.update(np.unique(loop.mul[left, loop.inv[right]]).tolist())
        assert len(values) == 3 and loop.unit in values
        assert oracle_closure(loop.mul, values) == values

    def test_witness(self, table, loop):
        triple, left, right = M.witness_sides(table, loop)
        assert left != right
        assert M.associator_mask(loop)[triple]

    def test_find_nonassoc(self, loop):
        found = M.find_nonassoc(loop)
        assert len(found) == 10
        mul = loop.mul
        for x, y, z in found:
            assert mul[mul[x, y], z] != mul[x, mul[y, z]]

    def test_subloop_sizes(self, loop):
        # the closures of the generators and the unit under the loop law
        for gens, order in (((), 1), ((5,), 3), ((5, 9), 9), ((66, 130, 124), 81),
                            ((1, 2, 3, 4), 27)):
            member = M._closures(loop.mul, [[loop.unit, *gens]])[0]
            closed = set(np.flatnonzero(member).tolist())
            assert len(closed) == order
            assert closed == oracle_closure(loop.mul, {loop.unit, *gens})
            assert {int(loop.inv[x]) for x in closed} <= closed

    @pytest.mark.parametrize("n", [*range(6, 13), 24, 38, 39, 48, 60])
    def test_eckhardt_check_at_every_precision(self, n):
        # 150 lift samples per seed; at n = 6-8 some exhaust the precision
        # and are retried
        for seed in range(3):
            got, want = oracles.eckhardt_lift_samples(50, seed, n)
            assert len(got) == 150 and np.array_equal(got, want)

    def test_eckhardt_swaps_are_the_unit_rows(self, table):
        assert M.eckhardt_check(table) == M.CheckReport("eckhardt swaps", True, 729)

    def test_ch_property_sample(self, table):
        report = M.ch_check(table, samples=60, seed=1)
        assert report.passed
        no_samples = M.ch_check(table, samples=0, seed=5)
        assert (no_samples.passed, no_samples.checks, no_samples.counterexample) == (True, 0, None)


def cml_law_holds(l, name, args):
    """Whether the named law of `verify_cml` holds at the given variables."""
    m, u = l.mul, l.unit

    def sq(x):
        return m[x, x]

    return {
        "commutativity": lambda x, y: m[x, y] == m[y, x],
        "unit": lambda x: m[u, x] == x,
        "inverses": lambda x: m[x, l.inv[x]] == u,
        "x(xy) = x^2 y": lambda x, y: m[x, m[x, y]] == m[sq(x), y],
        "(xy)(xz) = x^2(yz)": lambda x, y, z: m[m[x, y], m[x, z]] == m[sq(x), m[y, z]],
        "x(y(xz)) = (x^2 y)z": lambda x, y, z: m[x, m[y, m[x, z]]] == m[m[sq(x), y], z],
    }[name](*args)


def corrupted_loops(table, loop):
    """Loops with unit U0 whose tables each break some CML law."""
    circ = table.circ.copy()
    # symmetric corruption slips past the commutativity check but not
    # the weak-associativity identities
    circ[3, 5] = circ[5, 3] = (circ[3, 5] + 1) % M.N_CLASSES
    # and one-sided corruptions of the loop's unit row and of the cell
    # that holds 3's inverse
    unit_row, cell = loop.mul.copy(), loop.mul.copy()
    unit_row[loop.unit, 7] = unit_row[loop.unit, 8]
    inv3 = loop.inv[3]
    cell[3, inv3] = (cell[3, inv3] + 1) % M.N_CLASSES
    # two entries of row 0 swapped: the row stays a permutation, but the
    # row of 0^2 no longer inverts it, and law 6 read through that row as
    # an inverse would fail first at (0, 0, 1), not at (0, 0, 14); and the
    # same swap undone in the row of 0^2, so that every row of x^2 still
    # inverts the row of x
    row, rows = loop.mul.copy(), loop.mul.copy()
    row[0, [1, 14]] = rows[0, [1, 14]] = loop.mul[0, [14, 1]]
    sq0, hit = loop.mul[0, 0], loop.mul[0, [1, 14]]
    rows[sq0, hit] = loop.mul[sq0, hit[::-1]]
    # x^2 of the least x whose partner x^2 is below it moved, so that the
    # new x^2 does not square to x; and two entries swapped in the row of
    # the least p above the unit whose partner p^2 is above it, so that
    # the row of p^2 no longer inverts the row of p
    sq, ids = loop.mul.diagonal(), np.arange(M.N_CLASSES)
    diagonal, partner_row = loop.mul.copy(), loop.mul.copy()
    x = np.flatnonzero(sq < ids)[0]
    diagonal[x, x] = (sq[x] + 1) % M.N_CLASSES
    p = np.flatnonzero((sq > ids) & (ids > loop.unit))[0]
    partner_row[p, [1, 2]] = loop.mul[p, [2, 1]]
    return {
        name: M.LoopTable(mul, loop.unit, loop.inv)
        for name, mul in (
            ("symmetric", circ[loop.unit][circ]),
            ("unit-row", unit_row),
            ("inverse-cell", cell),
            ("swapped-row", row),
            ("swapped-rows", rows),
            ("diagonal", diagonal),
            ("partner-row", partner_row),
        )
    }


def magma_product(b):
    """The table, unit 0, of the product of the 3x3 table `b` with Z_3^4,
    the pair (c, g) as class 81 c + g.  Z_3^4 is an abelian group, so
    an n^3 law, and x^2(xa) = a for all a, holds at (c, g) exactly when
    it holds at c in `b`; x^2 is (c^2, -g)."""
    c, g = np.divmod(np.arange(M.N_CLASSES), 81)
    digits, place = g[:, None] // 3 ** np.arange(4) % 3, 3 ** np.arange(4)
    group = (digits[:, None] + digits) % 3 @ place
    mul = 81 * np.asarray(b)[c[:, None], c] + group
    return M.LoopTable(mul, 0, np.arange(M.N_CLASSES))


def corrupted_tables(table, trials):
    """Tables with one cell moved to another class, drawn from
    np.random.default_rng(0); on odd trials the mirror cell moves with it."""
    rng = np.random.default_rng(0)
    for k in range(trials):
        i, j = rng.integers(M.N_CLASSES, size=2)
        circ = table.circ.copy()
        circ[i, j] = (circ[i, j] + rng.integers(1, M.N_CLASSES)) % M.N_CLASSES
        if k % 2:
            circ[j, i] = circ[i, j]
        yield M.ClassTable(circ, table.precision, table.seed)


def left_inverse_rows(mul):
    """Per x, whether x^2(xy) = y for every y: the rows of x and x^2 are
    inverse permutations."""
    ids = np.arange(M.N_CLASSES)
    return (mul[mul[ids, ids][:, None], mul] == ids).all(axis=1)


# The int16 fancy-index formulas the L4 checks used before their uint8
# `take` gathers; the fast path must give the same verdicts and cells.


def oracle_first_difference(pairs):
    """(x, *index) of the first differing entry of the x-th pair, or None."""
    for x, (left, right) in enumerate(pairs):
        diff = np.argwhere(left != right)
        if len(diff):
            return (x, *(int(k) for k in diff[0]))
    return None


def oracle_cml(l):
    m, unit, n = l.mul, l.unit, M.N_CLASSES
    ids = np.arange(n)
    sq = m[ids, ids]

    def cx(left, right):
        found = oracle_first_difference([(left, right)])
        return None if found is None else found[1:]

    def per_x(sides):
        return oracle_first_difference(sides(x) for x in range(n))

    laws = [
        ("commutativity", n * n, cx(m, m.T)),
        ("unit", n, cx(m[unit], ids)),
        ("inverses", n, cx(m[ids, l.inv], np.full(n, unit))),
        ("x(xy) = x^2 y", n * n, per_x(lambda x: (m[x, m[x]], m[sq[x]]))),
        ("(xy)(xz) = x^2(yz)", n**3, per_x(lambda x: (m[np.ix_(m[x], m[x])], m[sq[x]][m]))),
        ("x(y(xz)) = (x^2 y)z", n**3, per_x(lambda x: (m[x][m[:, m[x]]], m[m[sq[x]], :]))),
    ]
    return [(name, found is None, checks, found) for name, checks, found in laws]


def oracle_associator_sides(l):
    m = l.mul
    return ((m[m[x], :], m[x][m]) for x in range(M.N_CLASSES))


def oracle_nucleus(l):
    return {a for a, (left, right) in enumerate(oracle_associator_sides(l))
            if np.array_equal(left, right)}


def oracle_closure(circ, gens):
    closed = set(gens)
    while new := {int(circ[a, b]) for a in closed for b in closed} - closed:
        closed |= new
    return closed


def ch_triples(samples, seed):
    return [tuple(_draw(M.N_CLASSES, 2, seed, k, range(3)).tolist()) for k in range(samples)]


def ch_corrupted(table, cell, symmetric, sample, seed=0):
    """The table with `cell` moved to the next member of the closure of
    the triple `sample` drawn at `seed`, and with its mirror cell too if
    `symmetric`; the table itself if `cell` is None."""
    circ = table.circ.copy()
    if cell is not None:
        a, b = cell
        closed = sorted(oracle_closure(table.circ, ch_triples(200, seed)[sample]))
        circ[a, b] = closed[(closed.index(circ[a, b]) + 1) % len(closed)]
        if symmetric:
            circ[b, a] = circ[a, b]
    return M.ClassTable(circ, table.precision, table.seed)


def oracle_ch_check(t, samples, seed):
    """`ch_check`'s (passed, checks, counterexample, detail), with the law
    of each closure tested for associativity one row at a time."""
    for checks, triple in enumerate(ch_triples(samples, seed)):
        ids = sorted(oracle_closure(t.circ, triple))
        lut = np.full(M.N_CLASSES, -1)
        lut[ids] = np.arange(len(ids))
        sub = lut[t.circ[np.ix_(ids, ids)]]
        m = sub[0][sub]
        if not np.array_equal(m, m.T):
            return (False, checks, triple, "not commutative")
        for a in range(len(ids)):
            if not np.array_equal(m[m[a], :], m[a][m]):
                return (False, checks, triple, "not associative")
    return (True, samples, None, "")


def oracle_nonassoc(l, limit):
    found = [(x, int(y), int(z)) for x, (left, right) in enumerate(oracle_associator_sides(l))
             for y, z in np.argwhere(left != right)[:limit]]
    return found[:limit]


class TestFastL4MatchesOracle:
    @pytest.mark.parametrize(
        "case",
        [
            "U0", "unit-100", "unit-0", "unit-5", "unit-242",
            "symmetric", "unit-row", "inverse-cell", "swapped-row", "swapped-rows",
            "diagonal", "partner-row",
        ],
    )
    def test_checks_equal_the_oracle(self, table, loop, case):
        # the benchmark's verify workload cycles through every unit; in the
        # loops of units 0 and 5 rows 0 to 8 are associative, so
        # find_nonassoc passes nine rows before its first triple
        loops = {"U0": loop, **{f"unit-{u}": M.loop_from(table, u) for u in (100, 0, 5, 242)}}
        l = {**loops, **corrupted_loops(table, loop)}[case]
        got = [(r.name, r.passed, r.checks, r.counterexample) for r in M.verify_cml(l)]
        assert got == oracle_cml(l)
        mask = np.stack([left != right for left, right in oracle_associator_sides(l)])
        assert np.array_equal(M.associator_mask(l), mask)
        assert M.nucleus(l) == oracle_nucleus(l)
        assert M.find_nonassoc(l) == oracle_nonassoc(l, 10)

    @pytest.mark.parametrize("case", ["U0", "random", "random-transposed"])
    def test_byte_table_lookup_equals_the_take(self, loop, case):
        # every row w applied to every cell; the random id table holds the
        # least and the greatest class id, and its transpose is no
        # C-contiguous array
        mul = np.random.default_rng(5).integers(M.N_CLASSES, size=loop.mul.shape, dtype=np.int16)
        mul = {"U0": loop.mul, "random": mul, "random-transposed": mul.T}[case]
        assert {0, M.N_CLASSES - 1} <= set(mul.flat)
        v, ix, cells = M._gather_views(mul)
        for w in range(M.N_CLASSES):
            got = M._lookup(v[w], cells)
            assert got.dtype == np.uint8 and np.array_equal(got, v[w].take(ix)), w

    def test_corruptions_reach_both_law6_comparisons(self, table, loop):
        # verify_cml compares law 6 as written at an x whose row of x^2 does
        # not invert its row, and at one where law 5 fails; each comparison
        # decides one law-6 report
        loops = corrupted_loops(table, loop)
        row, rows = loops["swapped-row"], loops["swapped-rows"]
        assert not left_inverse_rows(row.mul)[0]
        assert oracle_cml(row)[-1][3][0] == 0
        assert left_inverse_rows(rows.mul).all()
        assert not oracle_cml(rows)[-1][1]

    def test_corruptions_reach_both_pair_guards(self, table, loop):
        # x is skipped only if its partner p = x^2 is below it, p^2 = x and
        # the row of p^2 inverts the row of p; "diagonal" breaks the second
        # at an x that was paired with a class below it, "partner-row" the
        # third at the smaller member of a pair
        sq, ids = loop.mul.diagonal(), np.arange(M.N_CLASSES)
        paired = sq[sq] == ids
        loops = corrupted_loops(table, loop)
        mul = loops["diagonal"].mul
        (x,) = np.flatnonzero(mul.diagonal() != sq)
        assert sq[x] < x and paired[x]
        assert mul[x, x] < x and mul[mul[x, x], mul[x, x]] != x
        mul = loops["partner-row"].mul
        (p,) = np.flatnonzero((mul != loop.mul).any(axis=1))
        assert p < sq[p] and paired[p] and np.array_equal(mul.diagonal(), sq)
        assert not left_inverse_rows(mul)[p]

    @pytest.mark.parametrize(
        "b",
        [
            # unit 0, and 1^2 = 0 < 1, but 0^2 is 0, not 1: law 5 fails first
            # at x = 81, the pair (1, 0), after it held at x^2 = 0, and only
            # the guard p^2 = x has x computed
            [[0, 1, 2], [1, 0, 2], [2, 1, 0]],
            # 0 and 1 square to each other; law 5 holds at 0, not at 1, and
            # no row of x^2 inverts the row of x: law 5 fails first at x =
            # 81, and only the guard on the row of p = 0 has x computed
            [[1, 1, 1], [0, 0, 1], [0, 0, 0]],
            # xy = y + 1: law 5 holds everywhere, law 6 nowhere, and no row
            # of x^2 inverts the row of x: only the guard on the row of x
            # has law 6 compared
            [[1, 2, 0]] * 3,
        ],
        ids=["square-not-paired", "pair-without-inverse", "law5-without-inverse"],
    )
    def test_each_guard_keeps_the_first_failure(self, b):
        l = magma_product(b)
        got = [(r.name, r.passed, r.checks, r.counterexample) for r in M.verify_cml(l)]
        assert got == oracle_cml(l)
        assert not (got[-2][1] and got[-1][1])

    def test_one_cell_corruptions_equal_the_oracle(self, table):
        # 6 one-sided changes of the loop table and 6 symmetric changes of
        # the class table, each in the loop of a drawn unit
        rng = np.random.default_rng(31)
        for k in range(12):
            u, i, j = (int(v) for v in rng.integers(M.N_CLASSES, size=3))
            shift = int(rng.integers(1, M.N_CLASSES))
            if k < 6:
                l = M.loop_from(table, u)
                l.mul[i, j] = (l.mul[i, j] + shift) % M.N_CLASSES
            else:
                circ = table.circ.copy()
                circ[i, j] = circ[j, i] = (circ[i, j] + shift) % M.N_CLASSES
                l = M.loop_from(M.ClassTable(circ, table.precision, table.seed), u)
            got = [(r.name, r.passed, r.checks, r.counterexample) for r in M.verify_cml(l)]
            assert got == oracle_cml(l), (k, u, i, j)
            assert not all(passed for _, passed, _, _ in got), (k, u, i, j)

    def test_law5_is_computed_at_one_x_of_each_pair(self, table, loop, monkeypatch):
        # one value lookup per computed x, one more per x where law 6 is
        # compared as written: in the loops of the table x^2 pairs the 242
        # non-units, so 1 + 121 x are computed, and law 6 is never compared
        # as written
        calls = []
        translate = M._translate

        def counted(row, cells):
            calls.append(row)
            return translate(row, cells)

        monkeypatch.setattr(M, "_translate", counted)
        for l in (loop, M.loop_from(table, 0), M.loop_from(table, 242)):
            calls.clear()
            assert all(r.passed for r in M.verify_cml(l))
            assert len(calls) == 122
        # in the cyclic group Z_243, x^2 = 2x pairs only 81 and 162, and the
        # row of 2x inverts the row of x only where 3x = 0: 242 x are
        # computed, and law 6 is compared as written at all but 0 and 81
        ids = np.arange(M.N_CLASSES)
        cyclic = M.LoopTable((ids[:, None] + ids) % M.N_CLASSES, 0, -ids % M.N_CLASSES)
        calls.clear()
        assert all(r.passed for r in M.verify_cml(cyclic))
        assert len(calls) == 242 + 240

    def test_nucleus_checks_every_survivor_of_its_screen(self, loop):
        # one cell of row 6 changed: each member of the intact nucleus 9-17
        # but the unit (13) now fails at row 6 and at one more row in 0-8,
        # rows that the screen skips, so only the full check can drop them
        assert sorted(M.nucleus(loop)) == list(range(9, 18))
        mul = loop.mul.copy()
        mul[6, 0] = (mul[6, 0] + 1) % M.N_CLASSES
        corrupt = M.LoopTable(mul, loop.unit, loop.inv)
        for a, (left, right) in enumerate(oracle_associator_sides(corrupt)):
            if 9 <= a <= 17 and a != loop.unit:
                failing = set(np.flatnonzero((left != right).any(axis=1)).tolist())
                assert 6 in failing and failing <= set(range(9)) - set(M._SCREEN_ROWS)
        assert M.nucleus(corrupt) == oracle_nucleus(corrupt) == {loop.unit}


class TestCorruption:
    def test_quasigroup_detects_bad_cell(self, table):
        circ = table.circ.copy()
        circ[7, 11] = (circ[7, 11] + 1) % M.N_CLASSES
        bad = M.ClassTable(circ, table.precision, table.seed)
        report = M.verify_quasigroup(bad)
        assert not report.passed
        assert report.counterexample is not None

    @pytest.mark.parametrize("bad", [250, M.N_CLASSES, -1])
    def test_quasigroup_names_an_entry_that_is_no_class(self, table, bad):
        # symmetric, so only the range check can see it; -1 would index from
        # the end and 243 or more out of range
        circ = table.circ.copy()
        circ[3, 7] = circ[7, 3] = bad
        report = M.verify_quasigroup(M.ClassTable(circ, table.precision, table.seed))
        assert (report.passed, report.counterexample) == (False, (3, 7))
        assert report.detail == f"value {bad}"

    def test_cml_detects_bad_cell(self, table, loop):
        failed = set()
        for corrupt in corrupted_loops(table, loop).values():
            reports = M.verify_cml(corrupt)
            assert not all(report.passed for report in reports)
            for report in reports:
                if not report.passed:
                    failed.add(report.name)
                    assert not cml_law_holds(corrupt, report.name, report.counterexample)
        assert failed == {r.name for r in M.verify_cml(loop)}

    def test_loop_routines_return_on_corrupted_tables(self, table, loop):
        # the routines compute and the reports judge: on each corrupted loop,
        # on the class table it comes from (x o y = u o xy) and its loop, and
        # on 200 tables with one cell moved and their loops, nothing raises
        # and the suite ends at a failed report
        u = loop.unit
        pairs = []
        for l in corrupted_loops(table, loop).values():
            t = M.ClassTable(table.circ[u][l.mul], table.precision, table.seed)
            pairs += [(t, l), (t, M.loop_from(t, u))]
        pairs += [(t, M.loop_from(t, u)) for t in corrupted_tables(table, 200)]
        for t, l in pairs:
            assert 0 <= M.exponent(l) <= M.N_CLASSES
            assert M.nucleus(l) <= set(range(M.N_CLASSES))
            triple, left, right = M.witness_sides(t, l)
            assert not M.verify_suites(t, u, 0)[-1].passed

    @pytest.mark.parametrize("bad", [-1, M.N_CLASSES, 255, 256])
    def test_gathers_refuse_an_entry_that_is_no_class(self, loop, bad):
        # -1 would index from the end, 243 to 255 would read the padding of
        # the byte table, and 256 would wrap to 0 in the uint8 cast; the
        # first bad cell in row order is named
        mul = loop.mul.copy()
        mul[9, 2] = mul[5, 7] = bad
        corrupt = M.LoopTable(mul, loop.unit, loop.inv)
        for check in (M.verify_cml, M.nucleus, M.associator_mask, M.find_nonassoc):
            with pytest.raises(ValueError, match=rf"cell \(5, 7\) is {bad},"):
                check(corrupt)

    def test_suite_reports_end_at_a_failed_admissibility(self, table):
        # relabelled classes keep the table a CML but not the chord geometry;
        # every sample composes into the intact table's class, so the first
        # changed cell fails at its first sample, after all samples before
        # it.  A rotation changes the first sampled cell; swapping that
        # cell's two classes leaves it and the two after it as they were.
        # the 50 cells that the suite's seed-0 check samples, in order
        i, j = _draw(M.N_CLASSES, M._ADMISSIBILITY_KEY, 0, np.arange(50)[:, None], [0, 1]).T
        swap = np.arange(M.N_CLASSES)
        swap[[i[0], j[0]]] = j[0], i[0]
        for perm, first in ((np.roll(np.arange(M.N_CLASSES), 1), 0), (swap, 3)):
            circ = np.empty_like(table.circ)
            circ[np.ix_(perm, perm)] = perm[table.circ]
            relabelled = M.ClassTable(circ, table.precision, table.seed)
            unit = int(perm[M.named_class(M.U0)])
            reports = list(M._suite_reports(relabelled, unit, 0))
            assert [r.passed for r in reports] == [True] * 7 + [False]
            assert reports[-1].name == "admissibility"
            assert np.flatnonzero(circ[i, j] != table.circ[i, j])[0] == first
            got = (reports[-1].counterexample, reports[-1].checks)
            assert got == ((i[first], j[first], 0), first * M.LIFT_SAMPLES)

    @pytest.mark.parametrize(
        "cell, symmetric, first, seed",
        [(None, False, None, 0), ((34, 12), True, 5, 0), ((34, 12), False, 5, 0),
         ((12, 89), True, 5, 0), ((12, 89), False, 5, 0), ((27, 43), True, 100, 0),
         ((27, 43), False, 100, 0), ((219, 70), True, 27, 0), ((219, 70), False, 27, 0),
         ((173, 84), True, 150, 1), ((173, 84), False, 150, 1), ((105, 9), True, 190, 2),
         ((105, 9), False, 190, 2)],
        ids=["intact", "symmetric-34-12", "one-sided-34-12", "symmetric-12-89", "one-sided-12-89",
             "symmetric-27-43", "one-sided-27-43", "symmetric-219-70", "one-sided-219-70",
             "seed-1-symmetric-173-84", "seed-1-one-sided-173-84", "seed-2-symmetric-105-9",
             "seed-2-one-sided-105-9"],
    )
    def test_ch_check_equals_the_oracle(self, table, cell, symmetric, first, seed):
        # the cell, inside the closure of the triple `first` drawn at `seed`,
        # moves to the next member of that closure and of no closure before
        # it; a symmetric change keeps the closure's law commutative but not
        # associative.  Except where (34, 12) changes, which grows a later
        # closure to 81 classes, every closure has at most 9, so a run holds
        # fewer than 100 draws: (27, 43) fails in seed 0's second run and
        # (105, 9) in seed 2's third.  Seed 0's triple 27 and seed 1's triple
        # 150 close on 3 classes, padded to 9 in their run
        assert M._CHUNK_ELEMENTS // 9**3 < 100
        bad = ch_corrupted(table, cell, symmetric, first, seed)
        report = M.ch_check(bad, 200, seed)
        got = (report.passed, report.checks, report.counterexample, report.detail)
        assert got == oracle_ch_check(bad, 200, seed)
        if cell is not None:
            detail = "not associative" if symmetric else "not commutative"
            assert got == (False, first, ch_triples(200, seed)[first], detail)

    def test_ch_check_tests_the_law_itself(self, table):
        # seed 0's triple 27 closes on {70, 120, 219}.  Moving 70 o 120 and
        # 120 o 70 to 70 leaves row 70, the least class's, no bijection of
        # the closure, yet the law a *' b = 70 o (a o b) stays commutative
        # and associative.  (a *' x) o y = a o (x *' y) fails there, so a
        # check that compared those, not the law, would differ from the oracle
        bad = ch_corrupted(table, (70, 120), True, 27)
        assert sorted(set(bad.circ[70, [70, 120, 219]].tolist())) == [70, 120]
        report = M.ch_check(bad, 200, 0)
        got = (report.passed, report.checks, report.counterexample, report.detail)
        assert got == oracle_ch_check(bad, 200, 0) == (True, 200, None, "")

    def test_ch_check_memory_stays_within_its_runs(self, table):
        # the corruption grows the closure of the last triple to 81 classes;
        # testing all 200 closures at once, padded to 81, would take about
        # 850 MB
        bad = ch_corrupted(table, (34, 12), True, 5)
        assert len(oracle_closure(bad.circ, ch_triples(200, 0)[199])) == 81
        tracemalloc.start()
        try:
            report = M.ch_check(bad, 200, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.passed, report.checks) == (False, 5)
        assert peak < 2 << 20

    def test_admissibility_detects_corruption(self, table):
        bad = M.ClassTable((table.circ + 1) % M.N_CLASSES, table.precision, table.seed)
        passes, cx = M.check_admissibility(bad, 2, 1, 0)
        assert passes == 0 and cx is not None


    def test_eckhardt_check_names_the_first_failure(self, table):
        # cell (U1, c) and its mirror move to the class after c's swap; the
        # mirror is in row c, which is no unit's
        u1, c = M.named_class(M.U1), 7
        assert c not in {M.named_class(lp) for lp in (M.U0, M.U1, M.U2)}
        circ = table.circ.copy()
        circ[u1, c] = circ[c, u1] = (M.eckhardt_swaps()[1, c] + 1) % M.N_CLASSES
        report = M.eckhardt_check(M.ClassTable(circ, table.precision, table.seed))
        assert (report.passed, report.checks, report.counterexample) == (False, 729, ("Q", c))

    def test_swapped_labels_fail_the_eckhardt_rows(self, table):
        # conjugating the table by a swap of two class labels keeps every
        # loop law; at seed 0 these 13 of the 40 swaps pass every report
        # before the Eckhardt rows, admissibility included
        passes_the_earlier_reports = {0, 1, 2, 18, 19, 22, 23, 24, 28, 30, 31, 33, 39}
        rng, unit = np.random.default_rng(1), M.named_class(M.U0)
        for k in range(40):
            sigma = np.arange(M.N_CLASSES)
            a, b = rng.choice(M.N_CLASSES, 2, replace=False)
            sigma[[a, b]] = b, a
            bad = M.ClassTable(sigma[table.circ[sigma][:, sigma]], table.precision, table.seed)
            assert not M.eckhardt_check(bad).passed, (k, a, b)
            if k in passes_the_earlier_reports:
                last = M.verify_suites(bad, unit, 0)[-1]
                assert (last.name, last.passed) == ("eckhardt swaps", False), (k, a, b)


class TestRuns:
    @given(st.lists(st.integers(1, M.N_CLASSES), max_size=300), st.sampled_from([2, 3]))
    def test_runs_cover_the_batch_within_the_bound(self, sizes, power):
        # a batch of 0 rows is what ch_check(samples=0) reaches
        member = np.arange(M.N_CLASSES) < np.array(sizes, dtype=int)[:, None]
        runs = list(M._runs(member, power))
        assert [i for run in runs for i in range(len(sizes))[run]] == list(range(len(sizes)))
        assert len({run.stop - run.start for run in runs[:-1]}) <= 1  # equal but the last
        for run in runs:
            n = run.stop - run.start
            assert n == 1 or n * max(sizes[run]) ** power <= M._CHUNK_ELEMENTS
