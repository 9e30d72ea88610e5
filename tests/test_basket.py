"""The fixed test-function basket and its stated constants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlstable import basket


@pytest.mark.parametrize("fn", [
    basket.gaussian_bump(),
    basket.gaussian_bump(1.5, 0.7),
    basket.sigmoid(),
    basket.sigmoid(-0.5, 2.0),
    basket.abs_clip(3.0),
    basket.constant(4.0),
])
def test_stated_constants_are_sharp(fn):
    x = np.linspace(-60.0, 60.0, 240001)
    v = fn(x)
    assert np.max(np.abs(v)) <= fn.sup + 1e-12
    measured = np.max(np.abs(np.diff(v))) / (x[1] - x[0])
    assert measured <= fn.lip * (1.0 + 1e-6)
    if fn.lip > 0.0:
        assert measured >= 0.99 * fn.lip  # constant is tight, not padded


@given(st.floats(-1e4, 1e4))
@settings(max_examples=100, deadline=None)
def test_sigmoid_bounded_and_stable(x):
    fn = basket.sigmoid(0.0, 3.0)
    v = fn(np.array([x]))[0]
    assert 0.0 <= v <= 1.0 and np.isfinite(v)


def test_from_spec_round_trip():
    fn = basket.from_spec({"name": "gaussian_bump", "center": 1.0,
                           "width": 2.0})
    assert fn.name == "gaussian_bump"
    assert fn.params == (1.0, 2.0)


def test_from_spec_unknown_name():
    with pytest.raises(ValueError, match="unknown test function"):
        basket.from_spec({"name": "heaviside"})


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        basket.gaussian_bump(width=-1.0)
    with pytest.raises(ValueError):
        basket.abs_clip(0.0)


@pytest.mark.parametrize("spec", [
    {"name": "gaussian_bump", "center": float("nan")},
    {"name": "sigmoid", "slope": float("inf")},
    {"name": "constant", "value": float("-inf")},
])
def test_from_spec_rejects_non_finite_parameters(spec):
    with pytest.raises(ValueError, match="not finite"):
        basket.from_spec(spec)


def _step(x, below, at, above):
    return np.where(x < 0.0, below, np.where(x > 0.0, above, at))


_LOW = np.exp(-50.0) / (1.0 + np.exp(-50.0))  # sigmoid's saturated values
_HIGH = 1.0 / (1.0 + np.exp(-50.0))


@pytest.mark.parametrize("spec,expected", [
    pytest.param({"name": "gaussian_bump", "center": 1.7e308},
                 lambda x: np.zeros_like(x), id="far-center"),
    pytest.param({"name": "sigmoid", "slope": 1e308},
                 lambda x: _step(x, _LOW, 0.5, _HIGH), id="steep-sigmoid"),
    pytest.param({"name": "gaussian_bump", "width": 1e-308},
                 lambda x: _step(x, 0.0, 1.0, 0.0), id="narrow-bump"),
])
def test_overflowing_arguments_sample_without_warnings(spec, expected):
    """An argument that overflows to +-inf gives exp(-inf) = 0 or the
    clip, the values numpy gave with its overflow warning, bit for bit."""
    x = np.linspace(-20.0, 20.0, 801)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = basket.from_spec(spec)(x)
    assert np.all(np.isfinite(v))
    assert np.array_equal(v, expected(x))
