"""The fixed basket of bounded Lipschitz test functions.

The convergence statements quantify over all of C_b.Lip; experiments
pin a small versioned family so results stay comparable across runs.
Each member carries its exact Lipschitz constant and sup-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class TestFunction:
    name: str
    params: tuple[float, ...]
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    lip: float
    sup: float

    def __call__(self, x):
        return self.fn(x)

    @property
    def tag(self) -> str:
        """File-name tag: the name and the parameters."""
        return f"{self.name}_" + "_".join(f"{p:g}" for p in self.params)


def gaussian_bump(center: float = 0.0, width: float = 1.0) -> TestFunction:
    if width <= 0.0:
        raise ValueError("width must be positive")
    lip = math.sqrt(2.0 / math.e) / width   # a float: inf, not a warning
    if not math.isfinite(lip):
        raise ValueError(f"width {width:g} is so small that the Lipschitz "
                         "constant sqrt(2/e)/width overflows")

    def fn(x):  # a huge argument overflows to inf, and exp(-inf) is 0
        with np.errstate(over="ignore"):
            return np.exp(-(((np.asarray(x, dtype=float) - center) / width)
                            ** 2))

    return TestFunction("gaussian_bump", (center, width), fn, lip=lip, sup=1.0)


def sigmoid(center: float = 0.0, slope: float = 1.0,
            clip: float = 50.0) -> TestFunction:
    """Logistic ramp with its argument saturated at +-clip, so the
    function is exactly constant far from the center."""
    if slope <= 0.0 or clip <= 0.0:
        raise ValueError("slope and clip must be positive")

    def fn(x):  # slope * (x - center) may overflow to +-inf: clipped
        with np.errstate(over="ignore"):
            z = np.clip(slope * (np.asarray(x, dtype=float) - center),
                        -clip, clip)
        return np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-z)),
                        np.exp(z) / (1.0 + np.exp(z)))

    return TestFunction("sigmoid", (center, slope, clip), fn,
                        lip=slope / 4.0, sup=1.0 / (1.0 + np.exp(-clip)))


def abs_clip(clip: float = 3.0) -> TestFunction:
    if clip <= 0.0:
        raise ValueError("clip must be positive")

    def fn(x):
        return np.minimum(np.abs(np.asarray(x, dtype=float)), clip)

    return TestFunction("abs_clip", (clip,), fn, lip=1.0, sup=clip)


def constant(value: float = 0.0) -> TestFunction:
    def fn(x):
        return np.full_like(np.asarray(x, dtype=float), value)

    return TestFunction("constant", (value,), fn, lip=0.0, sup=abs(value))


_BUILDERS = {
    "gaussian_bump": gaussian_bump,
    "sigmoid": sigmoid,
    "abs_clip": abs_clip,
    "constant": constant,
}


def from_spec(spec: dict) -> TestFunction:
    """Build a basket member from {"name": ..., <params>}."""
    kind = spec.get("name")
    if kind not in _BUILDERS:
        raise ValueError(f"unknown test function {kind!r}; "
                         f"choose from {sorted(_BUILDERS)}")
    kwargs = {k: v for k, v in spec.items() if k != "name"}
    for k, v in kwargs.items():
        if isinstance(v, (bool, str)):  # float() would take both
            raise ValueError(f"{kind} parameter {k} = {v!r} is not a number")
        if not np.isfinite(float(v)):
            raise ValueError(f"{kind} parameter {k} = {v} is not finite")
    return _BUILDERS[kind](**{k: float(v) for k, v in kwargs.items()})
