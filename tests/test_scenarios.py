import numpy as np
import pytest

from yaglom import (
    KestenSchedule,
    build_alpha_walk,
    build_kesten,
    build_symmetric,
    build_two_sided,
    evolve_trace,
    lazify,
    oscillation_probe,
    preset_kernel,
    square_even,
    validate,
)
from yaglom.chain import NNKernel, Region
from yaglom.scenarios import default_kesten_schedule


def test_two_sided_builder():
    k = build_two_sided(0.25, 0.75, 0.9, 0.1)
    assert validate(k) == []
    assert k.kill(0) == pytest.approx(0.65)
    assert k.kill(3) == 0.0
    assert k.row(-4) == (0.9, 0.0, 0.1)
    with pytest.raises(ValueError):
        build_two_sided(0.3, 0.7, 0.6, 0.4)  # pq <= ab


def test_symmetric_builder_mirror_symmetry():
    k = build_symmetric(0.25)
    assert validate(k) == []
    assert k.kill(0) == pytest.approx(0.75)  # exits p/2 on each side
    for x in range(-20, 21):
        p, r, q = k.row(x)
        pm, rm, qm = k.row(-x)
        assert (p, r, q) == (qm, rm, pm)


def test_symmetric_builder_guards():
    with pytest.raises(ValueError):
        build_symmetric(0.25, exit_prob=0.25)
    with pytest.raises(ValueError):
        build_symmetric(0.6)


def test_symmetric_evolution_commutes_with_mirror():
    k = lazify(build_symmetric(0.25), 0.5)
    a = evolve_trace(k, 3, 40).distribution
    b = evolve_trace(k, -3, 40).distribution
    assert np.allclose(a.values, b.values[::-1], atol=1e-16)
    assert a.log_mass == pytest.approx(b.log_mass, rel=1e-14)


def test_alpha_walk_survival_and_square_even_agree():
    k = build_alpha_walk(0.9, 0.6, 0.4)
    assert validate(k) == []
    p, r, q = k.row(12)
    assert p + r + q == pytest.approx(0.81, abs=1e-15)
    base = NNKernel((Region(None, None, 0.9 * 0.4, 0.0, 0.9 * 0.6),))
    sq = square_even(base)
    for x in (-3, 0, 5):
        assert np.allclose(sq.row(x), k.row(x), atol=1e-16)


def test_kesten_schedule_validation():
    with pytest.raises(ValueError):  # d1 >= c1
        KestenSchedule(a=(1, 8), b=(1, 8), c=(0.30, 0.45), d=(0.35, 0.40))
    with pytest.raises(ValueError):  # a_k > b_k
        KestenSchedule(a=(1, 16), b=(1, 8), c=(0.30, 0.45), d=(0.26, 0.40))
    with pytest.raises(ValueError):  # stay rate outside [1/4, 1/2]
        KestenSchedule(a=(1, 8), b=(1, 8), c=(0.30, 0.60), d=(0.26, 0.40))
    with pytest.raises(ValueError):  # r0 not below d1
        KestenSchedule(a=(1, 8), b=(1, 8), c=(0.30, 0.45), d=(0.26, 0.40), r0=0.27)


def test_kesten_builder_kill_confined_to_origin():
    k = build_kesten(default_kesten_schedule())
    assert validate(k) == []
    assert k.kill_sites() == [0]
    assert k.kill(0) == pytest.approx(0.30)
    sched = default_kesten_schedule()
    assert k.row(sched.a[1])[1] == sched.c[1]
    assert k.row(-sched.b[1])[1] == sched.d[1]
    assert k.row(sched.a[1] - 1)[1] == sched.c[0]


def test_presets_registry():
    for name in ("two_sided", "symmetric", "kesten", "alpha_walk"):
        k = preset_kernel(name)
        assert validate(k) == []
    with pytest.raises(KeyError):
        preset_kernel("unknown")


@pytest.mark.parametrize("name", ["two_sided", "symmetric", "kesten", "alpha_walk"])
def test_presets_reject_unknown_parameters(name):
    with pytest.raises(TypeError):
        preset_kernel(name, {"zz": 1})


def test_oscillation_probe_single_entry_grid():
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    probe = oscillation_probe(k, 0, (200,))
    assert probe.max_tv == 0.0
    assert probe.tv == {}


def test_oscillation_probe_convergent_chain_is_quiet():
    k = lazify(build_two_sided(0.25, 0.75, 0.9, 0.1), 0.5)
    probe = oscillation_probe(k, 0, (1000, 2000, 4000))
    assert probe.max_tv < 2e-2
