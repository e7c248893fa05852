import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reduced_measures.nonlinearities import (
    Nonlinearity,
    from_config,
    make_exponential,
    make_power,
    make_two_sided_exponential,
)

SAMPLE = np.linspace(-4.0, 4.0, 41)


def test_power_family_closed_form():
    g = make_power(3.0)
    assert g(2.0) == 8.0
    assert g(-2.0) == 0.0
    assert g.deriv(2.0) == 12.0
    assert g.vanishes_on_negatives and g.convex


def test_exponential_families_closed_form():
    e = make_exponential()
    assert e(1.0) == pytest.approx(math.e - 1.0)
    assert e(-1.0) == 0.0
    assert e.convex

    e2 = make_two_sided_exponential()
    assert e2(1.0) == pytest.approx(math.e - 1.0)
    assert e2(-1.0) == pytest.approx(-(math.e - 1.0))
    assert not e2.convex and not e2.vanishes_on_negatives


def test_value_truncation_caps_the_range():
    g = make_power(3.0).truncate(4.0)
    base = make_power(3.0)
    for t in SAMPLE:
        assert g(float(t)) == pytest.approx(min(base(float(t)), 4.0))

    e2 = make_two_sided_exponential().truncate(4.0)
    base2 = make_two_sided_exponential()
    for t in SAMPLE:
        assert e2(float(t)) == pytest.approx(np.clip(base2(float(t)), -4.0, 4.0))


def test_argument_truncation_caps_the_input():
    g = make_exponential().truncate(2.0, family="argument")
    base = make_exponential()
    for t in SAMPLE:
        assert g(float(t)) == pytest.approx(base(min(float(t), 2.0)))
    assert g(3.0) == g(2.0) == pytest.approx(math.exp(2.0) - 1.0)


def test_reflection_is_the_odd_transpose():
    # one-sided families vanish after reflection; odd families are fixed
    one_sided = make_exponential().reflected()
    assert all(one_sided(float(t)) == 0.0 for t in SAMPLE)

    odd = make_two_sided_exponential()
    refl = odd.reflected()
    for t in SAMPLE:
        assert refl(float(t)) == pytest.approx(-odd(-float(t)))
        assert refl(float(t)) == pytest.approx(odd(float(t)))


def test_growth_criticality_threshold():
    assert make_power(2.0).subcritical_for(3)
    assert not make_power(3.0).subcritical_for(3)
    assert make_power(3.0).subcritical_for(2)
    assert not make_power(6.0).subcritical_for(3)


@settings(max_examples=50, deadline=None)
@given(st.floats(-10.0, 10.0, allow_nan=False), st.floats(-10.0, 10.0, allow_nan=False))
def test_every_family_is_nondecreasing(a, b):
    lo, hi = sorted((a, b))
    for g in (
        make_power(1.5),
        make_power(3.0).truncate(8.0),
        make_exponential(),
        make_two_sided_exponential(),
        make_exponential().truncate(2.0, family="argument"),
    ):
        assert g(hi) >= g(lo) - 1e-12


def test_descriptor_matches_the_callable():
    for g in (
        make_power(3.0),
        make_power(3.0).truncate(4.0),
        make_power(2.0).truncate(3.0, family="argument"),
        make_exponential(),
        make_exponential().truncate(64.0),
        make_two_sided_exponential(),
        make_two_sided_exponential().truncate(4.0),
    ):
        direct = np.array([g(float(t)) for t in SAMPLE])
        assert np.max(np.abs(direct - g(SAMPLE))) <= 1e-14
        # only a scalar comes back as a float
        for value in (g(np.array([2.0])), g.deriv(np.array([2.0]))):
            assert isinstance(value, np.ndarray) and value.shape == (1,)


def test_derivative_matches_finite_differences():
    eps = 1e-6
    for g in (make_power(2.0), make_exponential(), make_two_sided_exponential()):
        for t in (-2.0, -0.5, 0.5, 1.5, 3.0):
            fd = (g(t + eps) - g(t - eps)) / (2 * eps)
            assert g.deriv(t) == pytest.approx(fd, abs=1e-4)


def test_truncation_rejects_unknown_family():
    with pytest.raises(ValueError):
        make_power(2.0).truncate(4.0, family="window")


def test_config_round_trip():
    g = from_config({"kind": "power", "p": 2.5})
    assert g.p == 2.5 and g.kind == "power"
    e = from_config({"kind": "exp"})
    assert e(1.0) == pytest.approx(math.e - 1.0)
    with pytest.raises(ValueError):
        from_config({"kind": "tan"})
