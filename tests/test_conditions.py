import pytest

from yaglom import (
    NNKernel,
    Region,
    build_alpha_walk,
    build_kesten,
    build_symmetric,
    build_two_sided,
    check_conditions,
    estimate_hhat,
    lazify,
)
from yaglom.measures import MirrorParams, TwoSidedParams
from yaglom import conditions
from yaglom.scenarios import PRESETS, default_kesten_schedule

N_MAX = 2500
TWO_SIDED = TwoSidedParams(0.25, 0.75, 0.9, 0.1)


@pytest.fixture(scope="module")
def lazy_two_sided_report():
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    return check_conditions(k, TWO_SIDED, N_MAX)


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
    rep = check_conditions(k, TWO_SIDED, N_MAX)
    assert rep.status("1") == "fails"
    assert rep.status("7") == "fails"
    assert rep.verdicts["7"].evidence["min_stay"] == 0.0


def test_symmetric_chain_mixture_signature():
    k = lazify(build_symmetric(0.25), 0.5)
    rep = check_conditions(k, MirrorParams(0.25, 0.125), N_MAX)
    for key in ("1", "2", "3", "5", "6", "7"):
        assert rep.holds(key), (key, rep.verdicts[key])
    # hhat is the symmetric average of the extremals, not h_plus alone
    assert rep.status("8") == "fails"


def test_alpha_walk_kill_support_unbounded():
    rep = check_conditions(build_alpha_walk(0.9, 0.6, 0.4), None, N_MAX)
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
    ev = check_conditions(trap, None, n_max).verdicts["2"]
    assert ev.status == "fails"
    assert "pole" in ev.evidence["note"] and "pivot" in ev.evidence["note"]
    assert ev.evidence["R"] == pytest.approx(1.00547, abs=1e-3)


def test_kesten_schedule_jacka_roberts_breaks():
    k = build_kesten(default_kesten_schedule())
    rep = check_conditions(k, None, 4096)
    assert rep.status("7") == "fails"  # stay rates dip to 1/4
    assert rep.status("5") in ("fails", "evidence-only")
    assert rep.status("2") in ("holds", "evidence-only")


def test_report_is_deterministic():
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    a = check_conditions(k, TWO_SIDED, N_MAX).as_dict()
    b = check_conditions(k, TWO_SIDED, N_MAX).as_dict()
    assert a == b


# [5] and [8] read hhat at these sites around the kill site
HHAT_PROBE = (-3, -2, -1, 1, 2, 3)


def test_one_forward_run_serves_conditions_2_5_and_8(lazy_two_sided_report, monkeypatch):
    """With the kill site at 0, [2]'s run from 0 tracks hhat's probe sites
    and is the only run; its [2] evidence is the one an untracked run
    gives, to the bit."""
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    runs, evolve_trace = [], conditions.evolve_trace

    def recording(kernel, x0, n, tracked=()):
        runs.append((x0, tracked))
        return evolve_trace(kernel, x0, n, tracked=tracked)

    monkeypatch.setattr(conditions, "evolve_trace", recording)
    shared = check_conditions(k, TWO_SIDED, N_MAX).verdicts["2"].evidence
    assert runs == [(0, HHAT_PROBE + (0,))]

    # the same report with an untracked [2] run and a separate hhat run
    monkeypatch.setattr(conditions, "evolve_trace",
                        lambda kernel, x0, n, tracked=(): evolve_trace(kernel, x0, n))
    monkeypatch.setattr(conditions, "_hhat_from_trace",
                        lambda trace, kernel, probe: estimate_hhat(kernel, 0, probe, N_MAX))
    alone = check_conditions(k, TWO_SIDED, N_MAX).verdicts["2"].evidence
    assert repr(shared) == repr(alone)
    assert shared == lazy_two_sided_report.verdicts["2"].evidence


@pytest.mark.parametrize("x0", [0, 4])
def test_hhat_evidence_is_estimate_hhat_to_the_bit(x0):
    """[5] and [8] report ``estimate_hhat``'s table and spreads as they are,
    from [2]'s run at kill site 0 and from a run of their own elsewhere."""
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    if x0:  # the same chain with its kill site moved to x0
        (left, right), ((_, p, r, q),) = k.regions, k.overrides
        k = NNKernel(
            (Region(None, x0 - 1, left.p, left.r, left.q),
             Region(x0 + 1, None, right.p, right.r, right.q)),
            ((x0, p, r, q),),
        )
    rep = check_conditions(k, None, N_MAX)
    probe = tuple(x0 + s for s in HHAT_PROBE)
    est = estimate_hhat(k, x0, probe, N_MAX)
    ev5 = rep.verdicts["5"].evidence
    for x in (x0 - 1, x0 + 1):
        assert repr(ev5[f"ratio_at_{x}"]) == repr(est.table[x])
        assert repr(ev5[f"spread_at_{x}"]) == repr(est.spreads[x])
    if x0 == 0:
        ev8 = check_conditions(k, TWO_SIDED, N_MAX).verdicts["8"].evidence
        assert all(repr(ev8[f"hhat_at_{x}"]) == repr(est.table[x]) for x in probe)


BUDGETS = (1000, 1500, 2000, 2500, 4096, 8000)


# lazified kesten is left out: its [5] reads the raw ratios' Cauchy window,
# which still holds at n_max 1500 and 2000 only
@pytest.mark.parametrize("name,lazy", [
    ("two_sided", None), ("two_sided", 0.5), ("symmetric", None), ("symmetric", 0.5),
    ("kesten", None), ("alpha_walk", None), ("alpha_walk", 0.5),
])
def test_conditions_5_and_8_do_not_depend_on_the_budget(name, lazy):
    """With the family passed, as the CLI passes it, [5] and [8] read one
    verdict each from n_max 1000 to 8000.  On lazified two_sided, [8]'s
    extrapolated hhat holds at every budget; the last raw ratio, off by
    about 19/n, failed at 1000 and 1500."""
    kernel, family = PRESETS[name]()
    if lazy:
        kernel = lazify(kernel, lazy)
    reports = [check_conditions(kernel, family, n_max) for n_max in BUDGETS]
    assert len({rep.status("5") for rep in reports}) == 1
    assert len({rep.status("8") for rep in reports}) == 1
    if (name, lazy) == ("two_sided", 0.5):
        assert all(rep.holds("8") for rep in reports)
