import itertools
import os
from dataclasses import fields
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twistver.codes as codes_mod
from twistver.codes import (BudgetExceeded, CodeReport,
                            DependencyInvariantError, SearchPlan,
                            _lex_rank, _minimality_problem, build_code,
                            classify_min_words, column_orbit_prefix,
                            mds_status, min_distance,
                            oracle_min_distance, verify_dep_classification,
                            verify_general_position, verify_oracle_equivalence)
from twistver.linalg import IncrementalElim, rank
from twistver.pg import is_collinear

from conftest import (classify_counted_and_full, get_code, get_variety,
                      mat_vec)


# -- construction -------------------------------------------------------------

@pytest.mark.parametrize("p,m,n,exps,nu,kappa", [
    (3, 3, 2, (0, 0, 2), 28, 22),
    (5, 1, 2, (0, 0), 6, 3),
    (2, 2, 3, (0, 0), 21, 15),
])
def test_build_code_parameters(p, m, n, exps, nu, kappa):
    c = get_code(p, m, n, exps)
    assert (c.nu, c.kappa) == (nu, kappa)
    assert c.H.shape == (c.effective_N, c.nu)
    assert rank(c.field, c.H) == c.effective_N


def test_build_code_columns_are_points():
    c = get_code(3, 3, 2, (0, 0, 2))
    v = c.variety
    assert (c.H.T == v.coords).all()


# -- staged minimum distance ----------------------------------------------------

def test_min_distance_track_gf27():
    rep = min_distance(get_code(3, 3, 2, (0, 0, 2)))
    assert (rep.nu, rep.kappa, rep.delta) == (28, 22, 6)
    assert rep.status == "almost-MDS"
    assert rep.singleton_bound == 7
    by_w = {s.w: s for s in rep.stage_log}
    # PGL(2, 27) is 3-transitive: the supersets of columns {0, 1, 2}
    assert by_w[4].checked == comb(25, 1) == 25
    assert by_w[5].checked == comb(25, 2) == 300
    assert by_w[6].dependent_found == 1 and by_w[6].early_exit


def test_min_distance_nrc_gf27():
    rep = min_distance(get_code(3, 3, 2, (0, 0, 1)))
    assert (rep.nu, rep.kappa, rep.delta, rep.status) == (28, 22, 7, "MDS")


def test_min_distance_classical_conic():
    rep = min_distance(get_code(5, 1, 2, (0, 0)))
    assert (rep.nu, rep.kappa, rep.delta, rep.status) == (6, 3, 4, "MDS")
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[4].restriction == "none"  # q' = 5 > d = 2, yet no shortcut


def test_witness_is_minimal_dependent():
    c = get_code(3, 3, 2, (0, 0, 2))
    rep = min_distance(c)
    w = rep.witness
    assert rank(c.field, c.H[:, w]) == len(w) - 1
    for drop in range(len(w)):
        sub = [x for i, x in enumerate(w) if i != drop]
        assert rank(c.field, c.H[:, sub]) == len(sub)


def test_witness_preimages_collinear():
    # minimal dependent sets must always come from collinear points
    for cfg in [(3, 3, 2, (0, 0, 2)), (2, 4, 2, (0, 2)), (2, 2, 3, (0, 0))]:
        c = get_code(*cfg)
        rep = min_distance(c)
        pts = [c.variety.points[i] for i in rep.witness]
        assert is_collinear(c.field, pts)


def test_min_distance_lex_first_witness():
    c = get_code(3, 3, 2, (0, 0, 2))
    rep = min_distance(c)
    witness = tuple(rep.witness)
    # no dependent 6-subset lexicographically before the witness
    for sub in itertools.combinations(range(c.nu), 6):
        if sub >= witness:
            break
        assert rank(c.field, c.H[:, sub]) == 6


def test_degree_one_twist_code():
    # d = 1, identity embedding of the projective line: any 3 points of
    # PG(1) are dependent, so delta = 3 and the code is MDS [28, 26, 3]
    c = build_code(get_variety(3, 3, 2, (0,)))
    rep = min_distance(c)
    assert (rep.nu, rep.kappa, rep.delta, rep.status) == (28, 26, 3, "MDS")


# -- the d + 2 level -----------------------------------------------------------------

def test_subline_restricted_level_gf16():
    c = get_code(2, 4, 2, (0, 2))
    rep = min_distance(c)
    assert (rep.nu, rep.kappa, rep.delta, rep.status) == (17, 13, 4, "almost-MDS")
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[4].restriction == "none"
    # the 340 supports on the 68 PG(1, 4) sublines are counted by the
    # classification from the 2 that contain columns 0, 1 and 2: those
    # three points lie on one subline, whose other 2 points complete them
    rep = classify_min_words(c, rep)
    assert rep.min_weight_support_count == 68 * comb(5, 4) == 340
    classify = [s for s in rep.stage_log if s.label == "classify"]
    assert classify[0].dependent_found == 2
    assert classify[0].restriction == "orbit:3"


def test_collinear_restricted_level_pg2():
    c = get_code(2, 2, 3, (0, 0))
    rep = min_distance(c)
    assert rep.delta == 4
    by_w = {s.w: s for s in rep.stage_log}
    # q' = 4 > d = 2: each of the 21 lines is its own subline, but the
    # level scans every 4-subset until the first dependent one
    assert by_w[4].restriction == "none"
    assert by_w[4].checked == _lex_rank((0, 1, 2, 20), 21) + 1 == 18


def test_full_level_counts_p2():
    rep = min_distance(get_code(2, 5, 2, (0, 2)))
    assert (rep.nu, rep.kappa, rep.delta, rep.status) == (33, 29, 5, "MDS")
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[4].checked == comb(30, 1) == 30
    assert by_w[4].restriction == "orbit:3"  # the supersets of {0, 1, 2}


def test_plane_with_small_fixed_subfield():
    # n = 3 over GF(4), twist (0,1): q' = 2 = d, so the d+2 level holds
    # no dependent set and the d+3 level resolves by lex search
    c = get_code(2, 2, 3, (0, 1))
    rep = min_distance(c)
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[4].restriction == "orbit:2"
    assert by_w[4].checked == comb(19, 2) == 171
    assert by_w[4].dependent_found == 0
    assert rep.delta == 5
    # independent upper-bound witness: any 5 points of a line embed into a
    # cubic curve spanning only a 4-dimensional space
    from twistver.pg import all_lines
    line = all_lines(c.field, c.variety.points)[0]
    assert rank(c.field, c.H[:, list(line[:5])]) == 4


def test_collinear_level_agrees_with_unrestricted_scan():
    # GF(8) plane, twist (0,1): q' = 2 = d.  The orbit level checks the
    # C(71, 2) supersets of {0, 1}; the unrestricted scan of all
    # C(73, 4) subsets must find no dependent set either.
    c = get_code(2, 3, 3, (0, 1))
    rep = min_distance(c)
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[4].restriction == "orbit:2"
    assert by_w[4].checked == comb(71, 2)
    assert by_w[4].dependent_found == 0
    full, hits = codes_mod._run_level(IncrementalElim(c.field, c.H), 4,
                                      SearchPlan(), early_exit=False,
                                      label="minimal-dependent")
    assert (full.restriction, full.checked, hits) == ("none", comb(73, 4), [])
    assert (rep.delta, rep.delta_exact, rep.witness) == (5, True,
                                                         [0, 1, 2, 3, 4])


def test_plane_over_gf16_with_fixed_subfield_gf2():
    # n = 3 over GF(16), twist (0,1): q' = 2 = d.  An unrestricted d+2
    # level would need C(273, 4) > DEFAULT_BUDGET checks; the orbit level
    # needs C(271, 2), so delta stays exact at the default budget
    rep = min_distance(get_code(2, 4, 3, (0, 1)))
    assert (rep.nu, rep.kappa, rep.delta, rep.delta_exact) == (273, 264, 5,
                                                               True)
    assert comb(273, 4) > codes_mod.DEFAULT_BUDGET
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[4].restriction == "orbit:2"
    assert by_w[4].checked == comb(271, 2) == 36585
    assert by_w[4].dependent_found == 0 and not by_w[4].capped
    assert rep.witness == [0, 1, 2, 3, 4]


def test_plane_over_gf9_with_fixed_subfield_gf3():
    # n = 3 over GF(9), twist (0,0,1): q' = 3 = d.  Unreduced, level 6
    # alone is C(91, 6) > DEFAULT_BUDGET subsets; the orbit level scans
    # C(89, 4), enough to use the pool, and the report must not depend on it
    c = get_code(3, 2, 3, (0, 0, 1))
    reports = [min_distance(c, SearchPlan(workers=k)) for k in (1, 2)]
    rep = reports[0]
    assert (rep.nu, rep.delta, rep.delta_exact) == (91, 7, True)
    assert rep.witness == list(range(7))
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[6].restriction == "orbit:2"
    assert by_w[6].checked == comb(89, 4) > codes_mod.PARALLEL_MIN_CHECKS
    assert by_w[6].dependent_found == 0 and not by_w[6].capped
    assert reports[0].canonical_hash() == reports[1].canonical_hash()


def test_line_over_gf2048_above_pair_table_order():
    # GF(2^11) computes with exp/log ops, and k = 3 comes from three orbit
    # searches over the 2049 columns; the d+2 level is C(2046, 1) checks,
    # C(2049, 4) unreduced
    rep = min_distance(get_code(2, 11, 2, (0, 1)))
    assert (rep.nu, rep.kappa, rep.delta, rep.status) == (2049, 2045, 5,
                                                          "MDS")
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[4].restriction == "orbit:3"
    assert by_w[4].checked == comb(2046, 1)
    assert rep.witness == [0, 1, 2, 3, 4]


def test_line_over_gf4096_is_exact_at_the_default_budget():
    # nu = 4097: the symmetry step searches orbits of single columns only,
    # so k = 3 holds at any length and level 4 is C(4094, 1) checks
    rep = min_distance(get_code(2, 12, 2, (0, 1)), SearchPlan(workers=1))
    assert (rep.nu, rep.kappa, rep.delta, rep.delta_exact,
            rep.status) == (4097, 4093, 5, True, "MDS")
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[4].restriction == "orbit:3"
    assert by_w[4].checked == comb(4094, 1)
    assert rep.witness == [0, 1, 2, 3, 4]


def test_line_over_gf243_is_exact_at_the_default_budget():
    # the nrc-27 family over GF(3^5): level 6 holds C(242, 4) > budget
    # supersets of {0, 1}, but k = 3 leaves the C(241, 3) of {0, 1, 2}
    rep = min_distance(get_code(3, 5, 2, (0, 0, 1)), SearchPlan(workers=1))
    assert (rep.nu, rep.kappa, rep.delta, rep.delta_exact,
            rep.status) == (244, 238, 7, True, "MDS")
    assert rep.orbit_prefix == 3
    assert comb(242, 4) > codes_mod.DEFAULT_BUDGET
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[6].restriction == "orbit:3"
    assert by_w[6].checked == comb(241, 3)
    assert by_w[6].dependent_found == 0 and not by_w[6].capped
    assert rep.witness == list(range(7))


def test_plane_over_gf64_is_exact_at_the_default_budget():
    # n = 3 over GF(64), twist (0,1): q' = 2, so a subline holds only 3
    # points and the first dependent sets have 5 columns
    rep = min_distance(get_code(2, 6, 3, (0, 1)), SearchPlan(workers=1))
    assert (rep.nu, rep.kappa, rep.delta, rep.delta_exact) == (4161, 4152,
                                                               5, True)
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[4].restriction == "orbit:2"
    assert by_w[4].checked == comb(4159, 2)


def test_two_column_level_is_one_pair_groups_scan(monkeypatch):
    # GF(32), n = 3: level 4 holds C(1055, 2) supersets of {0, 1}; one
    # pair_groups call on the prefix settles it, with no per-column tasks
    c = get_code(2, 5, 3, (0, 1))
    calls = {"pair_groups": 0, "split_extensions": 0}
    for name in calls:
        def counted(self, _orig=getattr(IncrementalElim, name), _name=name):
            calls[_name] += 1
            return _orig(self)
        monkeypatch.setattr(IncrementalElim, name, counted)
    record, hits = codes_mod._run_level(IncrementalElim(c.field, c.H), 4,
                                        SearchPlan(), early_exit=True,
                                        label="general-position", k=2)
    assert calls == {"pair_groups": 1, "split_extensions": 0}
    assert hits == [] and not record.capped
    assert (record.restriction, record.checked) == ("orbit:2",
                                                    comb(1055, 2))


def test_plane_over_gf16_with_fixed_subfield_gf4():
    # n = 3 over GF(16), twist (0,2): q' = 4 > d = 2; 273 points, and the
    # d+2 level stops at its first dependent 4-subset
    rep = min_distance(get_code(2, 4, 3, (0, 2)))
    assert (rep.nu, rep.kappa, rep.delta) == (273, 264, 4)
    assert rep.delta_exact
    assert rep.witness == [0, 1, 2, 7]
    assert rep.status == "other"
    by_w = {s.w: s for s in rep.stage_log}
    assert by_w[3].checked == comb(271, 1)
    assert by_w[4].restriction == "none" and by_w[4].dependent_found == 1


# -- classification ---------------------------------------------------------------

def test_classify_gf16_supports(monkeypatch):
    c = get_code(2, 4, 2, (0, 2))
    counted, rep = classify_counted_and_full(c, monkeypatch)
    assert counted.min_weight_support_count == 340
    assert counted.violations == []
    assert rep.min_weight_support_count == 340
    assert rep.violations == []
    assert all(s["collinear"] and s["on_subline"] for s in rep.supports)
    cols = {tuple(s["columns"]) for s in rep.supports}
    assert len(cols) == 340


def test_classify_checks_all_supports_in_one_array_call(monkeypatch):
    import twistver.pg as pg_mod
    calls = []
    real = pg_mod.on_common_subline

    def counting(field, points, q_sub):
        calls.append(len(points))
        return real(field, points, q_sub)

    def scalar(*args):
        raise AssertionError("a scalar check ran")

    c = get_code(2, 4, 2, (0, 2))
    rep = min_distance(c)  # its witness check is the one kernel_basis call
    monkeypatch.setattr(codes_mod, "on_common_subline", counting)
    for mod, name in [(pg_mod, "subline_through"), (pg_mod, "is_collinear"),
                      (codes_mod, "kernel_basis")]:
        monkeypatch.setattr(mod, name, scalar)
    rep = classify_min_words(c, rep)
    assert calls == [len(rep.supports)]
    assert (len(rep.supports) == rep.stage_log[-1].dependent_found == 2)
    assert rep.min_weight_support_count == 340
    assert rep.violations == []
    assert all(s["collinear"] and s["on_subline"] for s in rep.supports)


def test_classify_classical_conic_all_quadruples():
    c = get_code(5, 1, 2, (0, 0))
    rep = classify_min_words(c, min_distance(c))
    assert rep.min_weight_support_count == comb(6, 4) == 15
    assert rep.violations == []


def test_classify_veronese_surface_supports_collinear(monkeypatch):
    c = get_code(2, 2, 3, (0, 0))
    counted, rep = classify_counted_and_full(c, monkeypatch)
    assert counted.min_weight_support_count == 105
    assert counted.violations == []
    assert rep.min_weight_support_count == len(rep.supports) == 105
    assert rep.violations == []
    assert all(s["collinear"] for s in rep.supports)


def test_classify_over_budget_raises_before_scanning(monkeypatch):
    c = get_code(5, 1, 2, (0, 0))
    rep = min_distance(c)
    # the counted scan: the C(3, 1) supersets of {0, 1, 2}
    assert codes_mod.classification_scan(c, rep) == (3, comb(3, 1))
    plan = SearchPlan(budget=comb(3, 1) - 1)

    def no_scan(*args, **kwargs):
        raise AssertionError("the level ran")

    monkeypatch.setattr(codes_mod, "_run_level", no_scan)
    with pytest.raises(BudgetExceeded):
        classify_min_words(c, rep, plan)


def test_classify_records_violations(monkeypatch):
    # the checks run on the listed supports: h = 3 for conic-5
    c = get_code(5, 1, 2, (0, 0))

    def verdict(collinear, on_subline):
        def check(field, points, q_sub):
            rows = np.ones(len(points), dtype=bool)
            return rows & collinear, rows & on_subline
        return check

    monkeypatch.setattr(codes_mod, "on_common_subline", verdict(True, False))
    off = classify_min_words(c, min_distance(c))
    assert [v["problem"] for v in off.violations] == [
        "pre-images not on a common subline"] * 3
    assert all(s["collinear"] and not s["on_subline"] for s in off.supports)
    monkeypatch.setattr(codes_mod, "on_common_subline", verdict(False, False))
    skew = classify_min_words(c, min_distance(c))
    assert [v["problem"] for v in skew.violations] == [
        "pre-images not collinear"] * 3
    assert skew.min_weight_support_count == 15


def test_classify_requires_exact_d_plus_2():
    c = get_code(3, 3, 2, (0, 0, 2))  # delta = 6 = d + 3
    rep = min_distance(c)
    with pytest.raises(ValueError):
        classify_min_words(c, rep)


def test_verify_dep_classification_wrapper():
    ok, rep, why = verify_dep_classification(get_code(2, 4, 2, (0, 2)))
    assert ok and why is None
    ok, rep, why = verify_dep_classification(get_code(3, 3, 2, (0, 0, 2)))
    assert not ok and "not d + 2" in why


# -- status ------------------------------------------------------------------------

def test_mds_status_values():
    rep = min_distance(get_code(5, 1, 2, (0, 0)))
    assert mds_status(rep) == "MDS"
    rep = min_distance(get_code(3, 2, 2, (0, 1)))
    assert (rep.nu, rep.kappa, rep.delta) == (10, 6, 4)
    assert mds_status(rep) == "almost-MDS"
    rep = min_distance(get_code(2, 2, 3, (0, 0)))
    assert mds_status(rep) == "other"  # [21, 15, 4], Singleton 7


def test_mds_status_requires_exact():
    # GF(7), the normal rational curve of degree 6: the empty level 6
    # would scan C(5, 3) = 10 supersets of {0, 1, 2}; the budget stops it
    # after those of {0, 1, 2, 3}
    rep = min_distance(get_code(7, 1, 2, (0,) * 6), SearchPlan(budget=6))
    assert not rep.delta_exact
    with pytest.raises(ValueError):
        mds_status(rep)


# -- oracle ------------------------------------------------------------------------

ORACLE_CONFIGS = [
    (2, 2, 2, (0, 1)),   # nu = 5
    (5, 1, 2, (0, 0)),   # nu = 6
    (2, 3, 2, (0, 1)),   # nu = 9
    (3, 2, 2, (0, 1)),   # nu = 10
    (7, 1, 2, (0, 0)),   # nu = 8
    (2, 2, 3, (0, 1)),   # nu = 21, empty d+2 level
]


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_oracle_equivalence(cfg):
    ok, staged, oracle = verify_oracle_equivalence(get_code(*cfg))
    assert ok, (cfg, staged, oracle)


def test_oracle_equivalence_requires_equal_witness(monkeypatch):
    c = get_code(5, 1, 2, (0, 0))
    delta, _ = oracle_min_distance(c)
    other = tuple(reversed(range(c.nu)))[:delta]  # dependent, not lex-first
    monkeypatch.setattr(codes_mod, "oracle_min_distance",
                        lambda code, max_checks: (delta, other))
    ok, staged, oracle = verify_oracle_equivalence(c)
    assert not ok and staged == oracle == delta


def test_oracle_cap():
    with pytest.raises(BudgetExceeded):
        oracle_min_distance(get_code(3, 3, 2, (0, 0, 2)), max_checks=100)


def test_oracle_witness_is_dependent():
    c = get_code(2, 2, 2, (0, 1))
    delta, witness = oracle_min_distance(c)
    assert delta == 5
    assert rank(c.field, c.H[:, list(witness)]) < 5


# -- counted classification ---------------------------------------------------------

CLASSIFY_CONFIGS = [
    (5, 1, 2, (0, 0)),        # conic-5
    (7, 1, 2, (0, 0)),        # conic over GF(7)
    (3, 2, 2, (0, 1)),        # subline-9
    (2, 4, 2, (0, 2)),        # subline-16
    (2, 2, 3, (0, 0), 2),     # veronese-surface-4
    (3, 2, 3, (0, 1)),        # plane-9
]  # every tier-1 case with delta = d + 2 and C(nu, d+2) within the budget


def _closed_form_count(code):
    """lines(PG(n-1, Q)) |PGL(2, Q)| / |PGL(2, q')| C(q'+1, d+2): each line
    holds |PGL(2, Q)| / |PGL(2, q')| PG(1, q') sublines, and each subline
    C(q'+1, d+2) dependent (d+2)-sets.  A check only; the code does not
    use it."""
    big, n = code.field.order, code.variety.n
    small, d = code.twist.q_fixed, code.twist.d
    lines = ((big ** n - 1) * (big ** (n - 1) - 1)
             // ((big ** 2 - 1) * (big - 1)))

    def pgl2(q):
        return q * (q * q - 1)

    return lines * pgl2(big) // pgl2(small) * comb(small + 1, d + 2)


@pytest.mark.parametrize("cfg", CLASSIFY_CONFIGS)
def test_counted_classification_matches_full_scan(cfg, monkeypatch):
    c = get_code(*cfg)
    assert comb(c.nu, c.twist.d + 2) <= codes_mod.DEFAULT_BUDGET
    counted, full = classify_counted_and_full(c, monkeypatch)
    assert counted.delta == full.delta == c.twist.d + 2
    # PGL(2, q^t) is 3-transitive on the points of a line
    k = 3 if c.variety.n == 2 else 2
    assert counted.stage_log[-1].restriction == f"orbit:{k}"
    assert full.stage_log[-1].restriction == "none"
    # every listed support of the counted path is one of the full list
    listed = [s["columns"] for s in full.supports]
    assert all(s["columns"] in listed for s in counted.supports)
    # the full path finds every support and lists the lex-first ones
    assert full.stage_log[-1].dependent_found == full.min_weight_support_count
    assert len(full.supports) == min(full.min_weight_support_count,
                                     codes_mod.SUPPORTS_LISTED)
    assert (counted.min_weight_support_count == full.min_weight_support_count
            == _closed_form_count(c))
    assert counted.violations == full.violations == []
    # classify_min_words proves minimality instead of checking it
    for rep in (counted, full):
        assert all(_minimality_problem(c, s["columns"]) is None
                   for s in rep.supports)


def test_classify_gf64_line_every_5_set():
    # sigma = (0, 0, 0) over GF(64): q' = 64, so every 5-set of the 65
    # points of the line is a support
    c = get_code(2, 6, 2, (0, 0, 0))
    rep = codes_mod.analyze(c)
    assert rep.delta == 5 and rep.orbit_prefix == 3
    assert rep.min_weight_support_count == comb(65, 5) == 8_259_888
    # h = C(62, 2) supports through {0, 1, 2}, all checked; the report
    # lists the lexicographically first SUPPORTS_LISTED of them
    assert rep.stage_log[-1].dependent_found == comb(62, 2)
    listed = [s["columns"] for s in rep.supports]
    assert listed == [[0, 1, 2, *pair] for pair in itertools.islice(
        itertools.combinations(range(3, 65), 2), codes_mod.SUPPORTS_LISTED)]
    assert rep.violations == []
    assert rep.timings["classify"] >= rep.stage_log[-1].seconds


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_closed_form_is_zero_exactly_when_delta_exceeds_d_plus_2(cfg):
    c = get_code(*cfg)
    rep = min_distance(c)
    assert (rep.delta == c.twist.d + 2) == (_closed_form_count(c) > 0)
    if rep.delta == c.twist.d + 2:
        assert cfg in CLASSIFY_CONFIGS


@pytest.mark.parametrize("cfg,count", [
    ((2, 4, 3, (0, 2)), 92_820),           # plane-16
    ((5, 2, 3, (0, 1)), 1_269_450),        # GF(25), n = 3
    ((3, 2, 4, (0, 1)), 223_860),          # GF(9), n = 4
    ((3, 7, 2, (0, 1)), 435_847_959),      # GF(3^7), n = 2
])
def test_counted_classification_at_the_default_budget(cfg, count):
    # C(nu, d+2) exceeds DEFAULT_BUDGET in each case; the counted scan
    # of C(nu-k, d+2-k) subsets does not (k = 3 for n = 2, else 2)
    c = get_code(*cfg)
    assert comb(c.nu, c.twist.d + 2) > codes_mod.DEFAULT_BUDGET
    rep = codes_mod.analyze(c)
    assert rep.delta == c.twist.d + 2 and rep.delta_exact
    assert rep.min_weight_support_count == _closed_form_count(c) == count
    assert rep.violations == []
    k = 3 if c.variety.n == 2 else 2
    assert rep.orbit_prefix == k
    h = rep.stage_log[-1].dependent_found
    assert len(rep.supports) == h
    assert h * comb(c.nu, k) == count * comb(c.twist.d + 2, k)
    assert all(s["columns"][:k] == list(range(k)) for s in rep.supports)


# -- column symmetries ------------------------------------------------------------

def _scan_levels(code, k):
    """min_distance's levels run directly with a forced prefix of k
    columns: (delta, witness, status, dependent_found per level)."""
    found, elim = [], IncrementalElim(code.field, code.H)
    for w in range(2, code.effective_N + 2):
        record, hits = codes_mod._run_level(elim, w, SearchPlan(),
                                            early_exit=True, label="x", k=k)
        found.append(record.dependent_found)
        if hits:
            status = mds_status(SimpleNamespace(
                delta_exact=True, delta=w, nu=code.nu, kappa=code.kappa))
            return w, hits[0], status, found
    return None, None, None, found


CROSS_CHECK_CONFIGS = ORACLE_CONFIGS + [
    (3, 3, 2, (0, 0, 2)),     # track-27
    (3, 3, 2, (0, 0, 1)),     # nrc-27
    (2, 5, 2, (0, 2)),        # arc-32
    (2, 4, 2, (0, 2)),        # subline-16
    (2, 2, 3, (0, 0), 2),     # veronese-surface-4
    (2, 3, 3, (0, 1)),        # plane-8
]  # conic-5 and subline-9 are in ORACLE_CONFIGS


@pytest.mark.parametrize("cfg", CROSS_CHECK_CONFIGS)
def test_orbit_levels_match_unreduced_scan(cfg):
    # the proved prefix against none: k = 3 on a line, where PGL(2, q^t)
    # is 3-transitive, and 2 on a plane
    c = get_code(*cfg)
    k = codes_mod.column_orbit_prefix(c)
    assert k == (3 if c.variety.n == 2 else 2)
    reduced = _scan_levels(c, k)
    assert reduced[0] is not None
    assert reduced == _scan_levels(c, 0)
    rep = min_distance(c)
    assert (rep.delta, tuple(rep.witness), rep.status,
            [s.dependent_found for s in rep.stage_log]) == reduced


def test_every_generator_is_a_verified_symmetry():
    # (config, indices of the generators that fix e_{n-1}, k); the second
    # is GF(4), n = 3 with nu = 21
    for cfg, fixing_0, k in [((3, 3, 2, (0, 0, 2)), [0, 3], 3),
                             ((2, 2, 3, (0, 1)), [0, 2, 3, 4], 2)]:
        c = get_code(*cfg)
        gens = codes_mod._gl_generators(c.field, c.variety.n)
        assert len(gens) == (4 if c.variety.n == 2 else 5)
        perms, scales = codes_mod._induced_permutation(c, np.stack(gens))
        assert perms.shape == scales.shape == (len(gens), c.nu)
        assert codes_mod._is_column_symmetry(c, perms, scales)
        for i, mat in enumerate(gens):
            # a stack of one candidate gives the same row and is proved
            # on its own
            perm, scale = codes_mod._induced_permutation(c, mat[None])
            assert np.array_equal(perm[0], perms[i])
            assert np.array_equal(scale[0], scales[i])
            assert codes_mod._is_column_symmetry(c, perm, scale)
            perm, scale = perm[0], scale[0]
            # the scales are those of the embedding: M . points[j] embeds
            # to scale[j] times column perm[j]
            img = c.field.eval_monomials(
                [mat_vec(c.field, mat, pt) for pt in c.variety.points],
                c.variety.basis.monomials)
            assert (img == c.field.ops.mul[scale[:, None],
                                           c.H.T[perm]]).all()
            # a generator that fixes e_{n-1} fixes column 0
            assert (perm[0] == 0) == (i in fixing_0)
            # the defining property: dependence of every 3-subset is
            # preserved
            for sub in itertools.combinations(range(c.nu), 3):
                assert (rank(c.field, c.H[:, list(sub)]) ==
                        rank(c.field, c.H[:, perm[list(sub)].tolist()]))
        assert codes_mod.column_orbit_prefix(c) == k


def test_symmetry_check_rejects_non_symmetries():
    c = get_code(3, 3, 2, (0, 0, 2))

    def proved(perm, scale):  # a stack of one candidate
        return codes_mod._is_column_symmetry(c, perm[None], scale[None])

    perms, scales = codes_mod._induced_permutation(
        c, np.stack(codes_mod._gl_generators(c.field, 2)[2:3]))
    perm, scale = perms[0], scales[0]
    assert proved(perm, scale)
    ones = np.ones(c.nu, dtype=np.int64)
    # swapping two columns, with unit scales: a bijection with no zero
    # scale, so only the rank test can reject it
    swap = np.arange(c.nu)
    swap[[0, 1]] = [1, 0]
    assert not proved(swap, ones)
    # not a bijection
    twice = perm.copy()
    twice[0] = twice[1]
    assert not proved(twice, scale)
    # a bijection with nonzero scales that is not the induced one
    assert not proved(np.roll(perm, 1), scale)
    # a zero scale; zero images pass the rank test, so with all scales
    # zero only the scale check rejects them
    zero = scale.copy()
    zero[3] = 0
    assert not proved(perm, zero)
    assert not proved(perm, 0 * scale)
    # the right permutation with nonzero but wrong scales: the rank test
    # must reject it
    assert not (scale == 1).all()
    assert not proved(perm, ones)
    # a singular matrix sends the point (0, 1) to zero: no column, and a
    # zero scale
    singular, singular_scale = codes_mod._induced_permutation(
        c, np.array([[[1, 0], [0, 0]]]))
    assert -1 in singular[0].tolist()
    assert not singular_scale.all()
    assert not codes_mod._is_column_symmetry(c, singular, singular_scale)
    # one bad candidate among the generators rejects the whole stack
    perms, scales = codes_mod._induced_permutation(
        c, np.stack(codes_mod._gl_generators(c.field, 2)))
    assert codes_mod._is_column_symmetry(c, perms, scales)
    for i in range(len(perms)):
        # a bijection with nonzero scales: only the joint rank test sees it
        bad_perms, bad_scales = perms.copy(), scales.copy()
        bad_perms[i], bad_scales[i] = swap, ones
        assert not codes_mod._is_column_symmetry(c, bad_perms, bad_scales)
        bad_perms[i], bad_scales[i] = np.roll(perms[i], 1), scales[i]
        assert not codes_mod._is_column_symmetry(c, bad_perms, bad_scales)


@pytest.mark.parametrize("cfg", [(3, 3, 2, (0, 0, 2)), (2, 2, 3, (0, 1))])
def test_symmetry_step_is_one_pass_and_one_rank(monkeypatch, cfg):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(codes_mod, name, wrapper)

    counted("_induced_permutation", codes_mod._induced_permutation)
    counted("rank", codes_mod.rank)
    assert codes_mod.column_orbit_prefix(get_code(*cfg)) > 0
    assert calls == ["_induced_permutation", "rank"]


def test_no_verified_generator_means_unreduced_levels(monkeypatch):
    # one singular matrix among the generators fails the proof of the
    # whole set: none is used, not even the good ones
    c = get_code(3, 3, 2, (0, 0, 2))
    reduced = min_distance(c)
    assert reduced.orbit_prefix == 3
    real = codes_mod._gl_generators
    monkeypatch.setattr(codes_mod, "_gl_generators", lambda field, n: (
        real(field, n) + [np.diag([1] + [0] * (n - 1))]))
    assert codes_mod.column_orbit_prefix(c) == 0
    full = min_distance(c)
    assert full.orbit_prefix == 0
    assert {s.restriction for s in full.stage_log} == {"none"}
    assert (full.delta, full.delta_exact, full.witness, full.status) == (
        reduced.delta, reduced.delta_exact, reduced.witness, reduced.status)
    assert [s.checked for s in full.stage_log][2:4] == [comb(28, 4),
                                                        comb(28, 5)]


def test_symmetry_step_runs_once_per_code(monkeypatch):
    # min_distance stores k in the report, and classification reads it
    calls = []
    real = codes_mod.column_orbit_prefix

    def counted(code):
        calls.append(code.nu)
        return real(code)

    monkeypatch.setattr(codes_mod, "column_orbit_prefix", counted)
    rep = codes_mod.analyze(get_code(2, 4, 2, (0, 2)))
    assert rep.min_weight_support_count == 340 and rep.orbit_prefix == 3
    assert calls == [17]


def _small_configs():
    """(p, m, n, sigma) for p in {2, 3, 5, 7} with p^m <= 16, n in {2, 3}
    and every sorted sigma = (0, s_1, ..., s_{d-1}), d <= 3, of norm
    below p^m."""
    for p in (2, 3, 5, 7):
        for m in itertools.takewhile(lambda m: p ** m <= 16,
                                     itertools.count(1)):
            for n, d in itertools.product((2, 3), (1, 2, 3)):
                for rest in itertools.combinations_with_replacement(
                        range(m), d - 1):
                    if sum(p ** s for s in (0,) + rest) < p ** m:
                        yield p, m, n, (0,) + rest


def test_orbit_prefix_on_every_small_config():
    # PGL(2, q^t) is 3-transitive on a line (and S_4 on the 4 points of
    # PG(1, 3)); on a plane the chain stops at 2
    configs = list(_small_configs())
    assert len(configs) == 84
    for p, m, n, exps in configs:
        want = 2 if n == 3 else 4 if p ** m == 3 else 3
        assert codes_mod.column_orbit_prefix(
            get_code(p, m, n, exps)) == want, (p, m, n, exps)


def test_orbit_prefix_of_intransitive_groups():
    ident = np.arange(6)
    cycle = np.roll(ident, 1)  # one 6-cycle: transitive on points only
    assert codes_mod._orbit_prefix(6, []) == 0
    assert codes_mod._orbit_prefix(6, [ident]) == 0
    assert codes_mod._orbit_prefix(6, [cycle]) == 1
    swap = ident.copy()
    swap[[0, 1]] = [1, 0]  # with the cycle, all of S_6
    # sound but incomplete: k = 2 is proved only from perms that fix 0
    assert codes_mod._orbit_prefix(6, [cycle, swap]) == 1
    fix_0 = np.array([0, 2, 3, 4, 5, 1])  # transitive on 1..5
    assert codes_mod._orbit_prefix(6, [cycle, swap, fix_0]) == 2
    # transitive on 1..5 while fixing 0, but not on all points
    assert codes_mod._orbit_prefix(6, [fix_0]) == 0


def test_orbit_prefix_is_a_stabiliser_chain():
    ident = np.arange(7)
    cycle = np.roll(ident, 1)
    fix_0 = np.array([0, 2, 3, 4, 5, 6, 1])     # a 6-cycle on 1..6
    fix_01 = np.array([0, 1, 3, 4, 5, 6, 2])    # a 5-cycle on 2..6
    split_01 = np.array([0, 1, 3, 2, 5, 6, 4])  # two orbits on 2..6
    assert codes_mod._orbit_prefix(7, [cycle, fix_0, fix_01]) == 3
    # the chain stops at 2 when the perms that fix 0 and 1 are not
    # transitive on the rest, or fix nothing but 0 and 1
    assert codes_mod._orbit_prefix(7, [cycle, fix_0, split_01]) == 2
    assert codes_mod._orbit_prefix(7, [cycle, fix_0]) == 2
    # fix_01 fixes 1 as well: the perms that fix 0 do not move 1 anywhere
    assert codes_mod._orbit_prefix(7, [cycle, fix_01]) == 1
    # S_3 from a 3-cycle and a transposition fixing 0: k = nu
    assert codes_mod._orbit_prefix(3, [np.array([1, 2, 0]),
                                       np.array([0, 2, 1])]) == 3


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_orbit_matches_naive_closure(data):
    # the squared powers only speed the search up: the mask is the set of
    # columns reached by words in the perms
    nu = data.draw(st.integers(1, 30))
    perms = [np.array(p) for p in data.draw(st.lists(
        st.permutations(range(nu)), max_size=4))]
    start = data.draw(st.integers(0, nu - 1))
    seen, todo = {start}, [start]
    while todo:
        x = todo.pop()
        for p in perms:
            if int(p[x]) not in seen:
                seen.add(int(p[x]))
                todo.append(int(p[x]))
    assert np.flatnonzero(codes_mod._orbit(nu, start, perms)).tolist() == (
        sorted(seen))


# -- budgets and determinism ---------------------------------------------------------

def test_budget_cap_gives_sound_lower_bound():
    # level 6 would scan the C(25, 3) = 2,300 supersets of {0, 1, 2}: over
    # the budget (levels 4 and 5 are one vectorized scan each, and whole)
    c = get_code(3, 3, 2, (0, 0, 2))
    rep = min_distance(c, SearchPlan(budget=20))
    assert not rep.delta_exact
    assert rep.delta is None
    assert rep.status == "unresolved"
    assert rep.delta_lower_bound == 6  # w=6 was capped, so only w<=5 proven
    capped = [s for s in rep.stage_log if s.capped]
    assert capped and capped[0].w == 6
    rep2 = min_distance(c, SearchPlan(budget=20))
    assert rep.canonical_hash() == rep2.canonical_hash()


def test_whole_vectorized_level_is_not_capped():
    # track-27, k = 3: level 5 is one pair scan over the C(25, 2) = 300
    # supersets of {0, 1, 2}, all covered although over the budget; level
    # 6's first task, the C(24, 2) = 276 supersets of {0, 1, 2, 3}, is
    # one pair scan too, and it uses up the budget before the other 2,024
    rep = min_distance(get_code(3, 3, 2, (0, 0, 2)), SearchPlan(budget=100))
    level = {s.w: s for s in rep.stage_log}
    assert (level[5].capped, level[5].checked) == (False, 300)
    assert (level[6].capped, level[6].checked) == (True, 276)
    assert rep.delta_lower_bound == 6 and not rep.delta_exact
    with pytest.raises(BudgetExceeded, match="w=6 .* after 276 checks"):
        verify_general_position(get_code(3, 3, 2, (0, 0, 2)), 6,
                                SearchPlan(budget=100))


def test_plan_w_max_validation():
    c = get_code(5, 1, 2, (0, 0))
    with pytest.raises(ValueError):
        min_distance(c, SearchPlan(w_max=c.effective_N + 2))
    rep = min_distance(c, SearchPlan(w_max=3))
    assert rep.delta is None and rep.delta_lower_bound == 4
    for w_max in (1, 0, -3):  # no level below w = 2 exists
        with pytest.raises(ValueError, match="w_max must be at least 2"):
            SearchPlan(w_max=w_max)


def test_worker_count_does_not_change_report(monkeypatch):
    # nrc-27's level 6 runs 23 tasks from the frame (0, 1, 2): the first
    # in this process, the rest through a pool for workers 2 and 3
    monkeypatch.setattr(codes_mod, "PARALLEL_MIN_CHECKS", 0)
    pools = []

    def spy(method, _orig=codes_mod.get_context):
        pools.append(method)
        return _orig(method)

    monkeypatch.setattr(codes_mod, "get_context", spy)
    c = get_code(3, 3, 2, (0, 0, 1))
    payloads = []
    for k in (1, 2, 3):
        del pools[:]
        payloads.append(min_distance(c, SearchPlan(workers=k)).payload())
        assert bool(pools) == (k > 1)
    assert payloads[0] == payloads[1] == payloads[2]
    assert payloads[0]["delta"] == 7


def _pushes_per_column(monkeypatch):
    pushed = {}

    def counted(self, c, _orig=IncrementalElim.push):
        pushed[c] = pushed.get(c, 0) + 1
        return _orig(self, c)

    monkeypatch.setattr(IncrementalElim, "push", counted)
    return pushed


@pytest.mark.parametrize("cfg,most", [
    ((3, 4, 2, (0, 0, 3)), 5),     # track-81
    ((3, 3, 2, (0, 0, 1)), 28),    # nrc-27
])
def test_frame_is_pushed_once_per_search(monkeypatch, cfg, most):
    # columns 0, 1, 2 are pushed once, and each push settles a level
    # w <= 3; every later level and task starts from them
    c = get_code(*cfg)
    pushed = _pushes_per_column(monkeypatch)
    min_distance(c)
    assert pushed[0] == pushed[1] == pushed[2] == 1
    assert sum(pushed.values()) <= most


@pytest.mark.parametrize("cfg", [
    (2, 4, 2, (0, 2)),             # subline-16: k' = 3
    (3, 2, 3, (0, 1)),             # plane-9: k' = 2
])
def test_classification_pushes_its_frame_once(monkeypatch, cfg):
    c = get_code(*cfg)
    rep = min_distance(c)
    pushed = _pushes_per_column(monkeypatch)
    classify_min_words(c, rep)
    assert pushed[0] == 1
    assert max(pushed.values()) == 1


# Reports pinned bit for bit, since how the search pushes columns must
# never change what it reports: (canonical_hash, stage_log payload as
# (label, w, restriction, checked, dependent_found) rows; every level is
# early-exit and uncapped).
GP, MD, LS = "general-position", "minimal-dependent", "lex-search"
PINNED_REPORTS = {
    (3, 3, 2, (0, 0, 1)): (  # nrc-27
        "1c90350be5c54407f33124f36cea16df10c61cde2a14428271fe6b7804504644",
        [(GP, 2, "orbit:2", 1, 0), (GP, 3, "orbit:3", 1, 0),
         (GP, 4, "orbit:3", 25, 0), (MD, 5, "orbit:3", 300, 0),
         (LS, 6, "orbit:3", 2300, 0), (LS, 7, "none", 22, 1)]),
    (3, 4, 2, (0, 0, 3)): (  # track-81
        "fe169606ec890b68d9f5a606e2930e1b6de487059f1dfca49fdcbcc8a0b9525b",
        [(GP, 2, "orbit:2", 1, 0), (GP, 3, "orbit:3", 1, 0),
         (GP, 4, "orbit:3", 79, 0), (MD, 5, "orbit:3", 3081, 0),
         (LS, 6, "none", 3079, 1)]),
    (3, 2, 3, (0, 1)): (  # plane-9
        "9f841206ca69b6c77a6397c89acf4d21e507e2f174a96a1532ca84b779be568b",
        [(GP, 2, "orbit:2", 1, 0), (GP, 3, "orbit:2", 89, 0),
         (MD, 4, "none", 88, 1)]),
}


def _stage_payloads(rows, early_exit=True):
    keys = ("label", "w", "restriction", "checked", "dependent_found")
    return [{**dict(zip(keys, r)), "early_exit": early_exit, "capped": False}
            for r in rows]


@pytest.mark.parametrize("cfg", list(PINNED_REPORTS))
def test_min_distance_report_is_pinned(cfg):
    digest, rows = PINNED_REPORTS[cfg]
    rep = min_distance(get_code(*cfg))
    assert [s.payload() for s in rep.stage_log] == _stage_payloads(rows)
    assert rep.canonical_hash() == digest


def test_classification_report_is_pinned():
    # subline-16: 2 supports through columns 0, 1, 2 give 340 in all
    c = get_code(2, 4, 2, (0, 2))
    rep = classify_min_words(c, min_distance(c))
    assert [s.payload() for s in rep.stage_log] == _stage_payloads(
        [(GP, 2, "orbit:2", 1, 0), (GP, 3, "orbit:3", 1, 0),
         (MD, 4, "none", 14, 1)]) + _stage_payloads(
        [("classify", 4, "orbit:3", 14, 2)], early_exit=False)
    assert (rep.min_weight_support_count, len(rep.supports)) == (340, 2)
    digest = rep.canonical_hash()
    assert digest == (
        "e2cbb7621161cbc0364cce1b3fd7c0c9b48353680229084ffb6bece37d0791f1")
    # the classification's timings: the whole call, its scan (the stage
    # record's seconds) and its checks, all outside the hash
    t = rep.timings
    assert t["classify_scan"] == round(rep.stage_log[-1].seconds, 6)
    assert t["classify"] >= t["classify_scan"] + t["classify_check"] - 2e-6
    assert min(t["classify_scan"], t["classify_check"]) >= 0
    rep.timings = {}
    assert rep.canonical_hash() == digest


def test_pool_worker_error_reaches_caller(monkeypatch):
    # the first task of a level runs in this process, the rest in the
    # pool's workers; only the workers raise
    monkeypatch.setattr(codes_mod, "PARALLEL_MIN_CHECKS", 0)
    scan, parent = codes_mod._scan_subtree, os.getpid()

    def scan_or_fail(elim, head, w, early_exit, cap):
        if os.getpid() != parent:
            raise DependencyInvariantError(head)
        return scan(elim, head, w, early_exit, cap)

    monkeypatch.setattr(codes_mod, "_scan_subtree", scan_or_fail)
    with pytest.raises(DependencyInvariantError) as err:
        min_distance(get_code(3, 3, 2, (0, 0, 2)), SearchPlan(workers=2))
    # levels 4 and 5 are one task each; level 6's tasks are the heads
    # (0, 1, 2, c), and (0, 1, 2, 4) is the first one a worker runs
    assert err.value.subset == (0, 1, 2, 4)


def test_first_task_hit_starts_no_pool(monkeypatch):
    # track-27's level 6 hits (0, 1, 2, 4, 8, 11) in its first task,
    # the subtree below the head (0, 1, 2)
    monkeypatch.setattr(codes_mod, "PARALLEL_MIN_CHECKS", 0)

    def no_pool(method):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(codes_mod, "get_context", no_pool)
    c = get_code(3, 3, 2, (0, 0, 2))
    record, hits = codes_mod._run_level(
        IncrementalElim(c.field, c.H), 6, SearchPlan(workers=2),
        early_exit=True, label="lex-search", k=2)
    assert hits == [(0, 1, 2, 4, 8, 11)]
    assert record.checked == 358 and not record.capped


def test_capped_is_derived_and_outside_payload():
    c = get_code(3, 3, 2, (0, 0, 2))
    capped = min_distance(c, SearchPlan(budget=100))
    exact = min_distance(c)
    assert capped.capped and not exact.capped
    names = {f.name for f in fields(CodeReport)} - {"timings"}
    assert set(capped.payload()) == set(exact.payload()) == names


def test_minimality_problem():
    c = get_code(3, 3, 2, (0, 0, 2))
    witness = min_distance(c).witness
    assert _minimality_problem(c, witness) is None
    # the witness plus column 3, which raises the rank: the kernel is
    # still one-dimensional, but zero at column 3
    assert rank(c.field, c.H[:, sorted(witness + [3])]) == 6
    assert (_minimality_problem(c, sorted(witness + [3]))
            == "kernel vector not fully supported")
    # five columns of rank 3
    assert (_minimality_problem(get_code(5, 1, 2, (0, 0)), range(5))
            == "kernel dimension 2")


def test_report_hash_stable_and_excludes_timings():
    c = get_code(2, 4, 2, (0, 2))
    r1 = min_distance(c)
    r2 = min_distance(c)
    assert r1.payload() == r2.payload()
    assert r1.canonical_hash() == r2.canonical_hash()
    assert r1.timings != {} and "timings" not in r1.payload()
    j = r1.to_json()
    assert j["canonical_hash"] == r1.canonical_hash()


# -- batched leaves: one pair_groups call per run of children -------------------------

def _per_child_calls(elim, children):
    """(dead, groups) of each child of the current top, one push and one
    no-argument pair_groups call each: the reference for the batch."""
    out = []
    for ch in children:
        assert elim.push(ch)
        dead, groups = elim.pair_groups()
        elim.pop()
        out.append((int(dead[0]) if dead.size else -1,
                    [list(map(int, g)) for g in groups]))
    return out


def _independent_runs(elim):
    """Maximal runs of consecutive columns right of the top outside its
    span: the children a batched call may take."""
    _, indeps = elim.split_extensions()
    cuts = np.flatnonzero(np.diff(indeps) != 1) + 1
    return [range(int(run[0]), int(run[-1]) + 1)
            for run in np.split(indeps, cuts) if run.size]


def _check_batches(elim, children):
    want = _per_child_calls(elim, children)
    for size in (1, 2, len(children)):
        for lo in range(children.start, children.stop, size):
            run = range(lo, min(lo + size, children.stop))
            dead, groups = elim.pair_groups(run)
            ref = want[lo - children.start:run.stop - children.start]
            assert dead.tolist() == [d for d, _ in ref]
            assert groups == [(i, g) for i, (d, gs) in enumerate(ref)
                              if d < 0 for g in gs]
            _, first = elim.pair_groups(run, lex_first=True)
            assert first == [(i, g[:2]) for i, g in groups[:1]]


PLANES_AND_TRACK = [
    (2, 2, 3, (0, 1)),     # GF(4) plane, k = 2
    (2, 3, 3, (0, 1)),     # GF(8) plane
    (3, 2, 3, (0, 1)),     # GF(9) plane
    (3, 3, 2, (0, 0, 2)),  # track-27, k = 3
]


@pytest.mark.parametrize("cfg", PLANES_AND_TRACK)
def test_batched_pair_groups_match_per_child_calls(cfg):
    # every node of the levels w = k + 3 and k + 4: the frame and the
    # frame plus one column; every run of children, of every size
    c = get_code(*cfg)
    k = column_orbit_prefix(c)
    elim = IncrementalElim(c.field, c.H)
    for col in range(k):
        assert elim.push(col)
    elim.freeze()
    nodes = 0
    for head in [()] + [(a,) for a in range(k, c.nu)]:
        elim.reset()
        if not all(elim.push(col) for col in head):
            continue
        for children in _independent_runs(elim):
            _check_batches(elim, children)
            nodes += 1
    assert nodes >= c.nu - k


def _per_child_level(elim, w, k, early_exit):
    """A level with w - k in (3, 4) scanned the old way, one task per next
    column and one push and no-argument pair_groups call per child of a
    three-left node; (sorted hits, covered) or DependencyInvariantError."""
    prefix = tuple(range(k))
    hits, covered = [], 0
    for a in range(k, elim.ncols - (w - k) + 1):
        elim.reset()
        heads = [prefix + (a,)]
        if w - k == 4:
            if not elim.push(a):
                raise DependencyInvariantError(prefix + (a,))
            deps, _ = elim.split_extensions()
            if deps.size:
                raise DependencyInvariantError(prefix + (a, int(deps[0])))
            heads = [prefix + (a, ch) for ch in range(a + 1, elim.ncols)]
        for head in heads:
            if not elim.push(head[-1]):
                raise DependencyInvariantError(head)
            dead, groups = elim.pair_groups()
            elim.pop()
            if dead.size:
                raise DependencyInvariantError(head + (int(dead[0]),))
            covered += comb(elim.ncols - 1 - head[-1], 2)
            found = sorted(head + pair for g in groups
                           for pair in itertools.combinations(g, 2))
            if early_exit and found:
                return found[:1], covered
            hits += found
    return sorted(hits), covered


def _level_outcome(scan, *args):
    try:
        return scan(*args)
    except DependencyInvariantError as err:
        return "dependent", err.subset


def _batched_level(elim, w, k, early_exit):
    elim.reset()
    tasks = codes_mod._level_tasks(elim.ncols, k, w, codes_mod.DEFAULT_BUDGET)
    return codes_mod._scan_columns(elim, w, tasks, early_exit, 1)


@pytest.mark.parametrize("cfg", PLANES_AND_TRACK)
def test_batched_levels_match_per_child_levels(cfg):
    # exhaustive hits, the early-exit witness and the covered count, or
    # the same DependencyInvariantError subset, on the supersets of
    # range(k) for k = 0, 1 and the proved k
    c = get_code(*cfg)
    outcomes = set()
    for k in sorted({0, 1, column_orbit_prefix(c)}):
        elim = IncrementalElim(c.field, c.H)
        for col in range(k):
            assert elim.push(col)
        elim.freeze()
        for w in (k + 3, k + 4):
            for early_exit in (True, False):
                want = _level_outcome(_per_child_level, elim, w, k,
                                      early_exit)
                got = _level_outcome(_batched_level, elim, w, k, early_exit)
                assert got == want
                outcomes.add("dependent" if want[0] == "dependent"
                             else "hits" if want[0] else "empty")
    assert {"dependent", "hits"} <= outcomes


@pytest.mark.parametrize("col,like", [(10, 7), (5, 1), (12, 3), (4, 3),
                                      (27, 26), (9, 2), (21, 20)])
def test_proportional_column_raises_the_same_subset(monkeypatch, col, like):
    # track-27 with column col replaced by twice column like: a dependent
    # pair, so a scan past level 2 meets a dependent set smaller than its
    # level; the batched scan reports the subset the per-child scan does
    c = get_code(3, 3, 2, (0, 0, 2))
    h = c.H.copy()
    h[:, col] = c.field.ops.mul[2, h[:, like]]
    monkeypatch.setattr(c, "H", h)
    elim = IncrementalElim(c.field, c.H)
    for k in range(3):
        assert elim.push(k)
    elim.freeze()
    raised = 0
    for w in (6, 7):
        for early_exit in (True, False):
            want = _level_outcome(_per_child_level, elim, w, 3, early_exit)
            assert _level_outcome(_batched_level, elim, w, 3,
                                  early_exit) == want
            raised += want[0] == "dependent"
    assert raised


@pytest.mark.parametrize("cfg,budget,digest,rows", [
    ((3, 3, 2, (0, 0, 2)), 20,  # track-27: level 6 cut after 276 of 2,300
     "e9032fb8c35b2b7d2c549dff6b5f8f3a34abe62a4ecabfc6de30ed247e1d1d2d",
     [(2, 1, False), (3, 1, False), (4, 25, False), (5, 300, False),
      (6, 276, True)]),
    ((7, 1, 2, (0,) * 6), 6,  # GF(7) degree-6 curve: level 6 cut at 6 of 10
     "7b667646fedc8bb53d5160c9b109cd24009b92be3f2472613d0dbebc677a0258",
     [(2, 1, False), (3, 1, False), (4, 5, False), (5, 10, False),
      (6, 6, True)]),
    ((3, 3, 2, (0, 0, 1)), 1000,  # nrc-27: a run cut inside, 1,160
     "b4132f86882bbef6210e6088df7ef79206f872c58e76c1a402a7ccbf5810ee40",
     [(2, 1, False), (3, 1, False), (4, 25, False), (5, 300, False),
      (6, 1160, True)]),
])
def test_capped_stage_logs_are_pinned(cfg, budget, digest, rows):
    # taken from the per-child scan: cutting a run at the child whose
    # pairs reach the cap covers the same subsets
    rep = min_distance(get_code(*cfg), SearchPlan(budget=budget))
    assert [(s.w, s.checked, s.capped) for s in rep.stage_log] == rows
    assert rep.canonical_hash() == digest


def test_three_left_nodes_make_one_call_per_run(monkeypatch):
    # nrc-27's level 6 has 23 next columns after the frame (0, 1, 2): the
    # per-child scan pushed each and called pair_groups 23 times; the runs
    # of 1, 2, 4, 8 and 8 children take five calls and no push of a child
    c = get_code(3, 3, 2, (0, 0, 1))
    elim = IncrementalElim(c.field, c.H)
    for col in range(3):
        assert elim.push(col)
    elim.freeze()
    calls = {"pair_groups": [], "push": []}
    for name in calls:
        def counted(self, *args, _orig=getattr(IncrementalElim, name),
                    _name=name):
            calls[_name].append(args)
            return _orig(self, *args)
        monkeypatch.setattr(IncrementalElim, name, counted)
    record, hits = codes_mod._run_level(elim, 6, SearchPlan(),
                                        early_exit=True, label="lex-search",
                                        k=3)
    assert (record.checked, hits, calls["push"]) == (comb(25, 3), [], [])
    assert [len(args[0]) for args in calls["pair_groups"]] == [1, 2, 4, 8, 8]
    # level 7, exhaustive: the tasks are the 22 nodes (0, 1, 2, a), with
    # m = 27 - a children each, in runs of 1, 2, 4, ...: m.bit_length()
    # calls a node instead of m
    calls["pair_groups"].clear()
    codes_mod._run_level(elim, 7, SearchPlan(), early_exit=False,
                         label="lex-search", k=3)
    sizes = [len(args[0]) for args in calls["pair_groups"]]
    assert sizes[:5] == [1, 2, 4, 8, 9] and sum(sizes) == sum(range(3, 25))
    assert len(sizes) == sum(m.bit_length() for m in range(3, 25)) == 91
    calls["pair_groups"].clear()
    min_distance(c)
    assert len(calls["pair_groups"]) <= 8


def test_pool_is_bounded_by_the_cpus(monkeypatch):
    # --workers 64 on a host with two usable CPUs starts two workers; a
    # stand-in pool runs imap as map, so no process is started
    sizes = []

    class Pool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize):
            assert chunksize >= 1
            return map(fn, tasks)

    monkeypatch.setattr(codes_mod, "PARALLEL_MIN_CHECKS", 0)
    monkeypatch.setattr(codes_mod, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    c = get_code(3, 3, 2, (0, 0, 1))
    serial = min_distance(c, SearchPlan(workers=1)).payload()
    assert sizes == []
    for cpus, workers, want in [(2, 64, 2), (1, 64, 1), (8, 3, 3)]:
        monkeypatch.setattr(codes_mod.os, "sched_getaffinity",
                            lambda pid, n=cpus: set(range(n)))
        del sizes[:]
        assert min_distance(c, SearchPlan(workers=workers)).payload() == serial
        assert sizes and set(sizes) == {want}


def test_listed_supports_are_capped_but_all_are_checked(monkeypatch):
    # conic-5 has h = 3 supports through {0, 1, 2}; with a cap of 1 the
    # report lists the first, records every violation and keeps h
    c = get_code(5, 1, 2, (0, 0))
    full = classify_min_words(c, min_distance(c))
    monkeypatch.setattr(codes_mod, "SUPPORTS_LISTED", 1)
    monkeypatch.setattr(codes_mod, "on_common_subline",
                        lambda field, points, q_sub: (
                            np.ones(len(points), dtype=bool),
                            np.arange(len(points)) != 1))
    rep = classify_min_words(c, min_distance(c))
    assert rep.supports == full.supports[:1]
    assert rep.stage_log[-1].dependent_found == 3
    assert rep.min_weight_support_count == full.min_weight_support_count
    assert rep.violations == [{"columns": full.supports[1]["columns"],
                               "problem": "pre-images not on a common subline"}]


# -- general position -----------------------------------------------------------------

def test_general_position_track():
    res = verify_general_position(get_code(3, 3, 2, (0, 0, 2)), 4)
    assert res.ok and res.checked == comb(25, 1)


def test_general_position_pairs_always_hold():
    res = verify_general_position(get_code(2, 3, 2, (0, 1)), 2)
    assert res.ok


def test_general_position_conic_failure():
    res = verify_general_position(get_code(5, 1, 2, (0, 0)), 4)
    assert not res.ok
    assert res.witness == (0, 1, 2, 3)
    # early exit: the prefix (0, 1, 2) and its extensions 3, 4, 5
    assert res.checked == _lex_rank((0, 1, 2, 5), 6) + 1 == 3


def test_general_position_dependent_set_below_k():
    # the GF(4) plane Veronese code has delta = 4 < k = 5: level 4 finds
    # (0, 1, 2, 3), level 5 never runs, and the witness is the lex-first
    # dependent 5-subset
    res = verify_general_position(get_code(2, 2, 3, (0, 0)), 5)
    assert not res.ok
    assert res.witness == (0, 1, 2, 3, 4)
    assert res.checked == 0


def test_general_position_k_range():
    c = get_code(5, 1, 2, (0, 0))
    for k in (1, c.effective_N + 2):
        with pytest.raises(ValueError):
            verify_general_position(c, k)


def test_general_position_budget_covers_every_level():
    # GF(7), the normal rational curve of degree 6: nu = 8.  Levels 7 and
    # 8 scan C(5, 4) = 5 and C(5, 5) = 1 supersets of {0, 1, 2}, which
    # fit the budget, but level 6 needs C(5, 3) = 10
    with pytest.raises(BudgetExceeded):
        verify_general_position(get_code(7, 1, 2, (0,) * 6), 8,
                                SearchPlan(budget=6))


def test_general_position_truncated_level_with_hit():
    # conic-5, k = 4: level 4 scans C(3, 1) = 3 > 2 subsets, but it hits
    # (0, 1, 2, 3) after 3 checks, so the answer is proven
    res = verify_general_position(get_code(5, 1, 2, (0, 0)), 4,
                                  SearchPlan(budget=2))
    assert not res.ok
    assert res.witness == (0, 1, 2, 3) and res.checked == 3


def test_general_position_budget_error():
    with pytest.raises(BudgetExceeded):
        verify_general_position(get_code(3, 3, 2, (0, 0, 2)), 6,
                                SearchPlan(budget=20))


# -- lex rank helper -------------------------------------------------------------------

@given(st.data())
@settings(max_examples=50, deadline=None)
def test_lex_rank_matches_enumeration(data):
    nu = data.draw(st.integers(3, 9))
    w = data.draw(st.integers(1, min(4, nu)))
    subsets = list(itertools.combinations(range(nu), w))
    idx = data.draw(st.integers(0, len(subsets) - 1))
    assert _lex_rank(subsets[idx], nu) == idx
