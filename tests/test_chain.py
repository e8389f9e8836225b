from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yaglom import (
    NNKernel,
    Region,
    Window,
    build_alpha_walk,
    build_two_sided,
    lazify,
    square_even,
    validate,
)
from yaglom.evolve import brute_force_distribution, evolve_trace


def two_sided():
    return build_two_sided(0.25, 0.75, 0.9, 0.1)


def test_validate_two_sided_clean():
    assert validate(two_sided()) == []


def test_validate_flags_zero_down_rate():
    k = NNKernel(
        regions=(Region(None, None, 0.25, 0.0, 0.7),),
        overrides=((5, 0.25, 0.0, 0.0),),
    )
    report = validate(k)
    assert any("q_5=0" in msg and "irreducibility" in msg for msg in report)


def test_validate_flags_missing_killing():
    k = NNKernel((Region(None, None, 0.5, 0.0, 0.5),))
    assert any("no killing anywhere" in msg for msg in validate(k))


def test_validate_flags_gap_and_overlap():
    gap = NNKernel((Region(None, -1, 0.3, 0.0, 0.6), Region(2, None, 0.3, 0.0, 0.6)))
    assert any("gap" in m for m in validate(gap))
    overlap = NNKernel((Region(None, 0, 0.3, 0.0, 0.6), Region(0, None, 0.3, 0.0, 0.6)))
    assert any("overlap" in m for m in validate(overlap))


def test_rows_raise_at_first_uncovered_site():
    gap = NNKernel((Region(None, -1, 0.3, 0.2, 0.4), Region(1, None, 0.3, 0.2, 0.4)))
    with pytest.raises(ValueError, match="site 0 not covered"):
        gap.rows(-3, 3)
    with pytest.raises(ValueError, match="site 0 not covered"):
        gap.row(0)
    # a run over the gap raises instead of stepping uninitialised rates
    with pytest.raises(ValueError, match="site 0 not covered"):
        evolve_trace(gap, 3, 10)
    assert gap.rows(1, 3)[0].tolist() == [0.3, 0.3, 0.3]


def test_row_reads_rows_where_regions_overlap():
    k = NNKernel((Region(None, 5, 0.3, 0.2, 0.4), Region(0, None, 0.1, 0.6, 0.2)))
    up, stay, down = k.rows(2, 2)
    assert k.row(2) == (up[0], stay[0], down[0]) == (0.1, 0.6, 0.2)
    assert k.kill(2) == 1.0 - 0.1 - 0.6 - 0.2


def test_validate_flags_non_finite_rates():
    nan_region = NNKernel((Region(None, None, float("nan"), 0.0, 0.5),))
    assert "non-finite rate at [None,None]" in validate(nan_region)
    inf_override = NNKernel((Region(None, None, 0.25, 0.0, 0.7),), ((3, 0.25, float("inf"), 0.7),))
    assert "non-finite rate at 3" in validate(inf_override)


def test_lazify_arithmetic():
    k = NNKernel((Region(None, None, 0.25, 0.0, 0.75),))
    lz = lazify(k, 0.5)
    assert lz.row(7) == (0.125, 0.5, 0.375)


def test_lazify_identity_at_zero():
    k = two_sided()
    assert lazify(k, 0.0).row(3) == k.row(3)
    assert lazify(k, 0.0).row(0) == k.row(0)


def test_lazify_rejects_bad_weight():
    with pytest.raises(ValueError):
        lazify(two_sided(), 1.0)
    with pytest.raises(ValueError):
        lazify(two_sided(), -0.1)


@settings(max_examples=50, deadline=None)
@given(
    r=st.floats(0.0, 0.99),
    x=st.integers(-30, 30),
)
def test_lazify_scales_killing(r, x):
    k = two_sided()
    assert lazify(k, r).kill(x) == pytest.approx((1 - r) * k.kill(x), abs=1e-15)


def test_square_even_symmetric_walk():
    k = NNKernel((Region(None, None, 0.5, 0.0, 0.5),))
    sq = square_even(k)
    assert sq.row(3) == (0.25, 0.5, 0.25)


def test_square_even_alpha_walk_mass():
    base = NNKernel((Region(None, None, 0.9 * 0.4, 0.0, 0.9 * 0.6),))
    sq = square_even(base)
    for j in (-9, 0, 11):
        p, r, q = sq.row(j)
        assert p + r + q == pytest.approx(0.81, abs=1e-15)
    # matches the direct builder row for row
    direct = build_alpha_walk(0.9, 0.6, 0.4)
    assert sq.row(4) == pytest.approx(direct.row(4), abs=1e-16)


def test_square_even_two_sided_origin_stay():
    sq = square_even(two_sided())
    p, r, q = sq.row(0)
    # two-step returns to 0: up then down (p*q) or down then up (b*a)
    assert r == pytest.approx(0.25 * 0.75 + 0.1 * 0.9, abs=1e-15)


def test_square_even_valid_on_even_class():
    sq = square_even(two_sided())
    assert validate(sq) == []


def test_clip_tracks_discarded_mass():
    k = lazify(two_sided(), 0.5)
    clipped = evolve_trace(k, 0, 60, clip=1e-12).distribution
    exact = evolve_trace(k, 0, 60).distribution
    assert 0.0 < clipped.clipped < 1e-9
    assert exact.clipped == 0.0
    diff = np.abs(clipped.values - exact.values).sum()
    # renormalization amplifies discards; same order, not a strict bound
    assert diff < 100 * clipped.clipped + 1e-12


def test_mass_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        from yaglom import MassState

        MassState(Window(0, 1), np.array([0.7, 0.7]))


def test_brute_force_oracle_small_n():
    k = two_sided()
    dist, survival = brute_force_distribution(k, 0, 0)
    assert dist == {0: Fraction(1)}
    assert survival == 1
    dist, survival = brute_force_distribution(k, 0, 1)
    assert dist[1] == Fraction(0.25)
    assert dist[-1] == Fraction(0.1)
    assert survival == Fraction(0.25) + Fraction(0.1)
    with pytest.raises(ValueError):
        brute_force_distribution(k, 0, 15)
