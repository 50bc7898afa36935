"""End-to-end acceptance gate.

Nine criteria, each printed as a single PASS/FAIL line with its runtime.
Criteria cover: enumeration counts vs a brute-force oracle, the explicit
non-associativity witness, table build + admissibility sampling, the
exhaustive axiom suites, the loop exponent, nucleus structure, the
closed-form composition cross-check, chord/tangent geometry properties,
and independence of the verification from the choice of unit class.
"""

import random
import time

import numpy as np

import oracles
import cubicloop.moufang as M
import cubicloop.surface as S
from cubicloop.eisenstein import ONE, PI, THETA, PrecisionExhausted
from cubicloop.surface import (
    LambdaParams,
    PointsCoincide,
    ProjPoint,
    chord,
    normalize,
    random_lift,
)


def _report(capsys, num: int, ok: bool, elapsed: float, detail: str) -> None:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s): {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_enumeration_counts(capsys):
    t0 = time.monotonic()
    counts = [len(S.enumerate_classes(n)) for n in (1, 2, 3)]
    ok = counts == [3, 27, 243]
    for n in (1, 2):
        got = {oracles.key(cf) for cf in S.enumerate_classes(n)}
        ok = ok and got == oracles.liftable_tuples(n)
    elapsed = time.monotonic() - t0
    _report(capsys, 1, ok and elapsed < 5.0, elapsed, f"counts {counts}, oracle sets match")


def test_criterion_2_witness_reproduction(capsys, table, loop):
    t0 = time.monotonic()
    triple, left, right = M.witness_sides(table, loop)
    expected_left = M.class_of_point(
        ProjPoint((ONE, -(THETA**2) - PI**2, -PI + PI**2, PI), 3)
    )
    expected_right = M.class_of_point(
        ProjPoint((ONE, -(THETA**2) - PI**2, -PI + PI**2, PI - PI**2), 3)
    )
    lf = M.class_forms()[left]
    rf = M.class_forms()[right]
    fourth_differs_at_pi2 = (
        lf.coords[:3] == rf.coords[:3]
        and lf.coords[3][:2] == rf.coords[3][:2]
        and lf.coords[3][2] != rf.coords[3][2]
    )
    ok = (left, right) == (expected_left, expected_right) and fourth_differs_at_pi2
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        2,
        ok and elapsed < 1.0,
        elapsed,
        f"triple {triple}: sides {left} != {right}, fourth coordinate differs at p^2",
    )


def test_criterion_3_table_build_and_admissibility(capsys):
    t0 = time.monotonic()
    t = M.build_class_table(12, seed=1, admissibility_cells=500)
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        3,
        elapsed < 60.0,
        elapsed,
        f"full table at N=12, 500 cells x {M.LIFT_SAMPLES} lift pairs admissible",
    )


SUITE_REPORTS = [
    "symmetric quasigroup",
    "commutativity",
    "unit",
    "inverses",
    "x(xy) = x^2 y",
    "(xy)(xz) = x^2(yz)",
    "x(y(xz)) = (x^2 y)z",
    "admissibility",
    "non-associative witness",
    "ch-closure abelian",
    "eckhardt swaps",
    "exponent 3",
    "nucleus of order 9",
]


def test_criterion_4_axiom_suites(capsys, table):
    t0 = time.monotonic()
    reports = M.verify_suites(table, M.named_class(M.U0), 0)
    names = [r.name for r in reports]
    ok = names == SUITE_REPORTS and all(r.passed for r in reports)
    elapsed = time.monotonic() - t0
    failed = [(r.name, r.counterexample, r.detail) for r in reports if not r.passed]
    _report(
        capsys,
        4,
        ok and elapsed < 300.0,
        elapsed,
        f"{len(reports)} reports, failed {failed}; {reports[-1].detail}",
    )


def test_criterion_5_exponent(capsys, loop):
    t0 = time.monotonic()
    e = M.exponent(loop)
    elapsed = time.monotonic() - t0
    _report(capsys, 5, e > 0 and 6 % e == 0, elapsed, f"exponent {e} divides 6")


def test_criterion_6_nonassociativity_and_nucleus(capsys, table, loop):
    t0 = time.monotonic()
    witnesses = M.find_nonassoc(loop)
    mask = M.associator_mask(loop)
    triple, left, right = M.witness_sides(table, loop)
    members = M.nucleus(loop)
    size = len(members)
    n = size
    while n % 3 == 0:
        n //= 3
    ok = (
        len(witnesses) > 0
        and bool(mask[triple])
        and left != right
        and loop.unit in members
        and size < M.N_CLASSES
        and n == 1
    )
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        6,
        ok,
        elapsed,
        f"{int(mask.sum())} violating triples incl. the explicit witness; "
        f"nucleus size {size}",
    )


def test_criterion_7_parametric_cross_check(capsys, table):
    t0 = time.monotonic()
    p_params = [lp for lp in M.class_params() if lp.family == "P"]
    q_params = [lp for lp in M.class_params() if lp.family == "Q"]
    checked = 0
    ok = True
    for lp_p in p_params:
        i = M.named_class(lp_p)
        for lp_q in q_params:
            j = M.named_class(lp_q)
            if M.class_of_form(S.compose_parametric(lp_p, lp_q)) != int(table.circ[i, j]):
                ok = False
                break
            checked += 1
        if not ok:
            break
    elapsed = time.monotonic() - t0
    _report(capsys, 7, ok and checked == 81 * 81 and elapsed < 30.0, elapsed,
            f"closed formula = chord class on {checked} P x Q pairs")


def _tangent_samples(rng, points, per_point):
    params = [lp for lp in M.class_params() if lp.digits != (0, 0, 0) or lp.exp != 0]
    checked = 0
    for _ in range(points):
        lp = params[rng.randrange(len(params))]
        p = random_lift(lp, 12, rng.randrange(1 << 30))
        for _ in range(per_point):
            d = oracles.tangent_direction(p, rng)
            if normalize(oracles.tangent_section_point(p, d), 3) != normalize(p, 3):
                return checked, False
            checked += 1
    return checked, True


def _agreeing_pair(rng, level):
    """Two class labels whose canonical tuples agree mod pi^level."""
    params = M.class_params()
    while True:
        a = params[rng.randrange(M.N_CLASSES)]
        if level == 1:
            b = LambdaParams(
                a.family, rng.randrange(3), tuple(rng.randrange(-1, 2) for _ in range(3))
            )
        elif level == 2:
            digits = list(a.digits)
            free = (1, 2) if a.family == "P" else (0, 2)
            for k in free:
                digits[k] = rng.randrange(-1, 2)
            b = LambdaParams(a.family, a.exp, tuple(digits))
        else:
            b = a
        if level == 3 or b != a:
            return a, b


def _case3_samples(rng, samples):
    checked = 0
    for level in (1, 2, 3):
        done = 0
        while done < samples:
            lp_a, lp_b = _agreeing_pair(rng, level)
            p1 = random_lift(lp_a, 24, rng.randrange(1 << 30))
            p2 = random_lift(lp_b, 24, rng.randrange(1 << 30))
            try:
                r, _ = chord(p1, p2)
            except (PointsCoincide, PrecisionExhausted):
                continue
            if normalize(r, level) != normalize(p1, level):
                return checked, False
            done += 1
            checked += 1
    return checked, True


def test_criterion_8_geometry_properties(capsys, table):
    t0 = time.monotonic()
    rng = random.Random("acceptance-geometry")
    got, want = oracles.eckhardt_lift_samples(500, seed=0)
    matched = int(np.count_nonzero(got == want))
    eck = M.eckhardt_check(table)
    tan_n, tan_ok = _tangent_samples(rng, points=20, per_point=5)
    c3_n, c3_ok = _case3_samples(rng, samples=34)
    ok = matched == len(got) == 1500 and eck.passed and eck.checks == 729
    ok = ok and tan_ok and c3_ok and tan_n >= 100 and c3_n >= 100
    elapsed = time.monotonic() - t0
    failure = "" if eck.passed else f" (fails at {eck.counterexample})"
    _report(
        capsys,
        8,
        ok,
        elapsed,
        f"Eckhardt swaps on {matched} of {len(got)} lift samples and {eck.checks} "
        f"table cells{failure}, tangent contractions {tan_n}, near-pair contractions {c3_n}",
    )


def test_criterion_9_unit_independence(capsys, table):
    t0 = time.monotonic()
    rng = random.Random("acceptance-units")
    units = rng.sample(range(M.N_CLASSES), 10)
    ok = True
    for u in units:
        alt = M.loop_from(table, u)
        if not all(r.passed for r in M.verify_cml(alt)):
            ok = False
            break
    elapsed = time.monotonic() - t0
    _report(capsys, 9, ok, elapsed, f"CML suite passes for alternative units {units}")
