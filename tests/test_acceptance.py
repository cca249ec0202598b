"""Acceptance criteria, one test per criterion, exact assertions only.

Each test prints a single [Ax] PASS line (visible with pytest -s; on
failure pytest shows the captured line plus the assertion).  Run the whole
module with:  pytest tests/test_acceptance.py -v
"""

import time
from math import comb

import twistver.codes as codes_mod
from twistver import (Field, SearchPlan, Twist, build_code, build_variety,
                      enum_points, kernel_basis, min_distance, monomial_basis,
                      oracle_min_distance, rank, scroll_plucker_check,
                      verify_general_position)
from twistver.pg import is_collinear, sublines_of_line

from conftest import classify_counted_and_full, mat_vec


def _passline(tag, detail):
    print(f"[{tag}] PASS {detail}")


def _fresh_code(p, m, n, exps, e=1):
    field = Field(p, m, e=e)
    twist = Twist(p, m, exps)
    return build_code(build_variety(field, n, twist))


def test_A1_track_over_gf27():
    t0 = time.perf_counter()
    code = _fresh_code(3, 3, 2, (0, 0, 2))
    report = min_distance(code, SearchPlan(workers=1))
    elapsed = time.perf_counter() - t0
    assert (report.nu, report.kappa, report.delta) == (28, 22, 6)
    assert report.status == "almost-MDS"
    assert report.delta_exact
    by_w = {s.w: s for s in report.stage_log}
    assert by_w[4].checked == comb(25, 1) and by_w[4].dependent_found == 0
    assert by_w[5].checked == comb(25, 2) and by_w[5].dependent_found == 0
    assert by_w[4].restriction == by_w[5].restriction == "orbit:3"
    assert by_w[6].dependent_found == 1 and by_w[6].early_exit
    assert elapsed < 10.0
    _passline("A1", f"[28,22,6] almost-MDS, every 4- and 5-subset "
                    f"independent (25+300 orbit representatives), "
                    f"dependent 6-set found ({elapsed:.2f}s)")


def test_A2_track_over_gf81():
    t0 = time.perf_counter()
    code = _fresh_code(3, 4, 2, (0, 0, 3))
    report1 = min_distance(code, SearchPlan(workers=1))
    single = time.perf_counter() - t0
    assert (report1.nu, report1.kappa, report1.delta) == (82, 76, 6)
    assert report1.status == "almost-MDS"
    by_w = {s.w: s for s in report1.stage_log}
    assert by_w[5].checked == comb(79, 2) == 3081
    assert by_w[5].restriction == "orbit:3"
    assert by_w[5].dependent_found == 0
    assert single < 900.0

    t0 = time.perf_counter()
    report8 = min_distance(code, SearchPlan(workers=8))
    parallel = time.perf_counter() - t0
    assert parallel < 180.0
    assert report1.payload() == report8.payload()
    assert report1.canonical_hash() == report8.canonical_hash()
    _passline("A2", f"[82,76,6] almost-MDS, {comb(79,2)} 5-subsets checked; "
                    f"single {single:.1f}s, 8 workers {parallel:.1f}s, "
                    "identical reports")


def test_A3_normal_rational_curve_mds():
    code = _fresh_code(3, 3, 2, (0, 0, 1))
    report = min_distance(code, SearchPlan(workers=1))
    assert (report.nu, report.kappa, report.delta) == (28, 22, 7)
    assert report.status == "MDS"
    v = code.variety
    f = v.field
    assert v.basis.monomials == [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)]
    for pt, row in zip(enum_points(f, 2), v.coords):
        if pt == (0, 1):
            assert row.tolist() == [0, 0, 0, 0, 0, 1]
        else:
            z = pt[1]
            assert row.tolist() == [f.pow(z, k) for k in range(6)]
    _passline("A3", "[28,22,7] MDS; rows are the canonical degree-5 "
                    "rational-curve evaluations")


def test_A4_p2_mds_over_gf32():
    t0 = time.perf_counter()
    code = _fresh_code(2, 5, 2, (0, 2))
    report = min_distance(code, SearchPlan(workers=1))
    elapsed = time.perf_counter() - t0
    assert (report.nu, report.kappa, report.delta) == (33, 29, 5)
    assert report.status == "MDS"
    by_w = {s.w: s for s in report.stage_log}
    assert by_w[4].checked == comb(30, 1) == 30
    assert by_w[4].restriction == "orbit:3"
    assert by_w[4].dependent_found == 0
    assert elapsed < 5.0
    _passline("A4", f"[33,29,5] MDS via 30 orbit-reduced 4-subset checks "
                    f"({elapsed:.2f}s)")


def test_A5_min_weight_support_classification(monkeypatch):
    code = _fresh_code(2, 4, 2, (0, 2))
    assert code.twist.q_fixed == 4 and code.twist.d == 2
    report = min_distance(code, SearchPlan(workers=1))
    assert report.delta == 4
    # counted from the supports through columns 0 and 1, and listed in
    # full by the unreduced scan
    counted, report = classify_counted_and_full(code, monkeypatch,
                                                SearchPlan(workers=1))
    assert counted.min_weight_support_count == 340
    assert counted.violations == []
    assert report.min_weight_support_count == 340
    assert report.violations == []
    assert all(s["on_subline"] for s in report.supports)

    # subline count reproduced two independent ways
    def pgl2_order(q):
        return (q * q - 1) * (q * q - q) // (q - 1)

    assert pgl2_order(16) // pgl2_order(4) == 68
    sublines = sublines_of_line(code.field, enum_points(code.field, 2), 4)
    assert len(sublines) == 68
    subline_sets = [set(s) for s in sublines]
    for s in report.supports:
        pts = {tuple(p) for p in s["points"]}
        assert sum(1 for ss in subline_sets if pts <= ss) == 1
    assert 68 * comb(5, 4) == 340
    _passline("A5", "delta=4, 340 supports, each on exactly one of the 68 "
                    "PG(1,4) sublines (count reproduced by frame enumeration)")


def test_A6_classical_veronese_cases(monkeypatch):
    code = _fresh_code(5, 1, 2, (0, 0))
    report = min_distance(code, SearchPlan(workers=1))
    assert (report.nu, report.kappa, report.delta) == (6, 3, 4)
    assert report.status == "MDS"
    counted, report = classify_counted_and_full(code, monkeypatch,
                                                SearchPlan(workers=1))
    assert counted.violations == []
    assert (counted.min_weight_support_count
            == report.min_weight_support_count)
    assert report.violations == []
    assert all(s["collinear"] for s in report.supports)

    code2 = _fresh_code(2, 2, 3, (0, 0))
    report2 = min_distance(code2, SearchPlan(workers=1))
    assert (report2.nu, report2.kappa, report2.delta) == (21, 15, 4)
    counted2, report2 = classify_counted_and_full(code2, monkeypatch,
                                                  SearchPlan(workers=1))
    assert counted2.violations == []
    assert (counted2.min_weight_support_count
            == report2.min_weight_support_count)
    assert report2.violations == []
    assert all(s["collinear"] for s in report2.supports)
    _passline("A6", "[6,3,4] over GF(5) and [21,15,4] over GF(4), all "
                    "minimum-weight supports collinear")


A7_CONFIGS = [
    (2, 2, 2, (0, 1)),   # GF(4),  nu = 5
    (5, 1, 2, (0, 0)),   # GF(5),  nu = 6
    (2, 3, 2, (0, 1)),   # GF(8),  nu = 9
    (3, 2, 2, (0, 1)),   # GF(9),  nu = 10
    (7, 1, 2, (0, 0)),   # GF(7),  nu = 8
]


def test_A7_oracle_equivalence():
    results = []
    for p, m, n, exps in A7_CONFIGS:
        code = _fresh_code(p, m, n, exps)
        assert code.nu <= 10
        report = min_distance(code, SearchPlan(workers=1))
        oracle_delta, _ = oracle_min_distance(code)
        assert report.delta_exact and report.delta == oracle_delta, \
            (p, m, exps, report.delta, oracle_delta)
        results.append(f"GF({p ** m}):{report.delta}")
    _passline("A7", "staged = oracle on " + ", ".join(results))


def test_A8_collapse_reproduction():
    basis = monomial_basis(2, Twist(2, 3, (0, 0, 1)))
    assert basis.effective_N == 5
    assert basis.expected_N == 6
    assert set(basis.monomials) == {(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)}
    _passline("A8", "effective_N=5 < expected_N=6, monomials "
                    "{(4,0),(3,1),(2,2),(1,3),(0,4)}")


# -- A9: property suites -------------------------------------------------------

A9_FIELDS = [(2, 4), (3, 3), (5, 2), (7, 1)]

A9_CONFIGS = [
    (3, 3, 2, (0, 0, 2)),
    (3, 3, 2, (0, 0, 1)),
    (2, 4, 2, (0, 2)),
    (2, 3, 2, (0, 0, 1)),
    (5, 1, 2, (0, 0)),
    (2, 2, 3, (0, 0)),
    (3, 2, 2, (0, 1)),
]

SCROLL_CONFIGS = [
    (3, 3, 2, (0, 0, 2)),
    (2, 2, 2, (0, 1)),
    (3, 2, 2, (0, 1)),
    (2, 3, 2, (0, 0, 1)),
    (5, 1, 2, (0, 0)),
    (2, 2, 3, (0, 0)),
    (2, 3, 2, (0, 0, 0, 1)),
    (2, 2, 4, (0, 1)),
]


def test_A9a_field_automorphism_laws():
    violations = 0
    for p, m in A9_FIELDS:
        f = Field(p, m)
        elems = list(f.elements())
        for s in range(f.m):
            for x in elems:
                for y in elems[:: max(1, len(elems) // 12)]:
                    if f.frobenius(f.mul(x, y), s) != f.mul(
                            f.frobenius(x, s), f.frobenius(y, s)):
                        violations += 1
                    if f.frobenius(f.add(x, y), s) != f.add(
                            f.frobenius(x, s), f.frobenius(y, s)):
                        violations += 1
    assert violations == 0
    _passline("A9a", f"automorphism laws on {A9_FIELDS}, zero violations")


def test_A9b_rank_nullity():
    import numpy as np
    rng = np.random.default_rng(2024)
    checks = 0
    for p, m in [(2, 2), (3, 1), (5, 1), (3, 2)]:
        f = Field(p, m)
        for _ in range(25):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            mat = rng.integers(0, f.order, size=(rows, cols))
            basis = kernel_basis(f, mat)
            assert rank(f, mat) + len(basis) == cols
            for v in basis:
                assert all(x == 0 for x in mat_vec(f, mat, v.tolist()))
            checks += 1
    _passline("A9b", f"rank-nullity and exact kernels on {checks} matrices")


def test_A9c_spanning_rank_and_injectivity():
    for p, m, n, exps in A9_CONFIGS:
        f = Field(p, m)
        v = build_variety(f, n, Twist(p, m, exps))  # injectivity checked inside
        assert rank(f, v.coords) == v.basis.effective_N, (p, m, n, exps)
        assert v.num_points == (f.order ** n - 1) // (f.order - 1)
    _passline("A9c", f"rank = effective_N and injectivity on "
                     f"{len(A9_CONFIGS)} configurations")


def test_A9d_scroll_plucker_all_small_configs():
    total = 0
    for p, m, n, exps in SCROLL_CONFIGS:
        assert n * len(exps) <= 8
        v = build_variety(Field(p, m), n, Twist(p, m, exps))
        ok = scroll_plucker_check(v)
        assert ok.all(), (p, m, n, exps, v.point_array[~ok].tolist())
        total += v.num_points
    _passline("A9d", f"wedge/tensor agreement at {total} points across "
                     f"{len(SCROLL_CONFIGS)} configurations")


def test_A9e_worker_count_determinism(monkeypatch):
    monkeypatch.setattr(codes_mod, "PARALLEL_MIN_CHECKS", 0)
    payloads = []
    for workers in (1, 2, 5):
        code = _fresh_code(3, 3, 2, (0, 0, 2))
        rep = min_distance(code, SearchPlan(workers=workers))
        payloads.append(rep.payload())
    assert payloads[0] == payloads[1] == payloads[2]
    _passline("A9e", "reports identical for 1, 2, 5 workers with the pool "
                     "forced on")


def test_A9f_general_position_and_minimal_witness_invariants():
    for p, m, n, exps in [(3, 3, 2, (0, 0, 2)), (2, 4, 2, (0, 2))]:
        code = _fresh_code(p, m, n, exps)
        d = code.twist.d
        ok, _ = verify_general_position(code, d + 1, SearchPlan(workers=1))
        assert ok
        rep = min_distance(code, SearchPlan(workers=1))
        witness = rep.witness
        assert rank(code.field, code.H[:, witness]) == len(witness) - 1
        kb = kernel_basis(code.field, code.H[:, witness])
        assert len(kb) == 1 and all(x != 0 for x in kb[0])
        assert is_collinear(code.field, code.variety.point_array[witness])
    _passline("A9f", "general position at d+1, minimal witnesses have "
                     "1-dimensional kernels and collinear pre-images")
