import pytest

from yaglom import (
    MirrorParams,
    NNKernel,
    TwoSidedParams,
    build_alpha_walk,
    build_kesten,
    build_symmetric,
    build_two_sided,
    check_conditions,
    lazify,
)
from yaglom.scenarios import default_kesten_schedule

BUDGETS = {"n_max": 2500}
TWO_SIDED = TwoSidedParams(0.25, 0.75, 0.9, 0.1)


@pytest.fixture(scope="module")
def lazy_two_sided_report():
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    return check_conditions(k, TWO_SIDED, BUDGETS)


def test_two_sided_lazified_all_hold(lazy_two_sided_report):
    rep = lazy_two_sided_report
    for key in ("1", "2", "3", "4", "5", "6", "7", "8"):
        assert rep.holds(key), (key, rep.verdicts[key])
    assert rep.verdicts["1"].evidence["delta"] == 0.5
    assert rep.verdicts["6"].evidence["kill_site"] == 0
    assert rep.verdicts["6"].evidence["kappa"] == pytest.approx(0.325)


def test_every_verdict_carries_evidence(lazy_two_sided_report):
    for v in lazy_two_sided_report.verdicts.values():
        assert v.evidence


def test_periodic_walk_fails_aperiodicity_and_stay_floor():
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)
    rep = check_conditions(k, TWO_SIDED, BUDGETS)
    assert rep.status("1") == "fails"
    assert rep.status("7") == "fails"
    assert rep.verdicts["7"].evidence["min_stay"] == 0.0


def test_symmetric_chain_mixture_signature():
    k = lazify(build_symmetric(0.25), 0.5)
    rep = check_conditions(k, MirrorParams(0.25, 0.125), BUDGETS)
    for key in ("1", "2", "3", "5", "6", "7"):
        assert rep.holds(key), (key, rep.verdicts[key])
    # hhat is the symmetric average of the extremals, not h_plus alone
    assert rep.status("8") == "fails"


def test_alpha_walk_kill_support_unbounded():
    rep = check_conditions(build_alpha_walk(0.9, 0.6, 0.4), None, BUDGETS)
    assert rep.status("6") == "fails"
    assert rep.status("3") == "fails"
    assert rep.holds("1")  # stay rate 2 alpha^2 a b > 0 everywhere
    # survival decay alpha^2 differs from the true spectral radius, so the
    # potential diverges at the survival radius: E_z R^zeta is infinite
    assert rep.status("2") == "fails"


@pytest.mark.parametrize("n_max", [1000, 2500, 4096, 8000])
def test_r_positive_trap_fails_condition_2(n_max):
    """Sites 3..8 that stay put with probability 0.975 trap the lazified
    two-sided walk: G has a pole at R = 1.00547, inside both tails' branch
    points, so E_z R^zeta is infinite.  Just past R a Thomas pivot of the
    Green solve turns negative, and [2] reads that pole as failure."""
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    trap = NNKernel(k.regions, k.overrides + tuple((s, 0.01, 0.975, 0.01) for s in range(3, 9)))
    ev = check_conditions(trap, None, {"n_max": n_max}).verdicts["2"]
    assert ev.status == "fails"
    assert "pole" in ev.evidence["note"] and "pivot" in ev.evidence["note"]
    assert ev.evidence["R"] == pytest.approx(1.00547, abs=1e-3)


def test_kesten_schedule_jacka_roberts_breaks():
    k = build_kesten(default_kesten_schedule())
    rep = check_conditions(k, None, {"n_max": 4096})
    assert rep.status("7") == "fails"  # stay rates dip to 1/4
    assert rep.status("5") in ("fails", "evidence-only")
    assert rep.status("2") in ("holds", "evidence-only")


@pytest.mark.parametrize("key", ["green_N", "n_mx"])
def test_unknown_budget_key_is_rejected(key):
    # a stale or misspelt budget must not be ignored in silence
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    with pytest.raises(ValueError, match=key):
        check_conditions(k, TWO_SIDED, {"n_max": 2500, key: 1000})


def test_report_is_deterministic():
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    a = check_conditions(k, TWO_SIDED, BUDGETS).as_dict()
    b = check_conditions(k, TWO_SIDED, BUDGETS).as_dict()
    assert a == b
