"""Experiment configuration: JSON round-trip and validation.

Every run is fully determined by the config file; there is no
randomness anywhere, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields as dc_fields

import numpy as np

from .kernels import Grid, KernelPair, UncertaintySet, resolve_cutoffs
from . import basket


# the module of each field, as error messages name it; every other
# field belongs to pide_solver
_MODULES = {"alpha": "stable_kernel", "lam": "stable_kernel",
            "Lam": "stable_kernel", "pairs": "stable_kernel",
            "b_scale": "attracted_laws", "z0": "attracted_laws",
            "dp_half_width": "sublinear_engine", "dp_dx": "sublinear_engine",
            "n_values": "hypothesis_checker", "mode": "hypothesis_checker",
            "psi": "experiment_cli", "config": "experiment_cli"}


class ConfigError(ValueError):
    """Validation failure, prefixed ``[module.field]`` for the config's
    JSON key ``field`` (``config`` for the file as a whole)."""

    def __init__(self, field: str, message: str):
        module = _MODULES.get(field, "pide_solver")
        super().__init__(f"[{module}.{field}] {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float
    lam: float
    Lam: float
    pairs: tuple[tuple[float, float], ...]
    b_scale: float = 1.0
    z0: float = 2.0
    h: float = 0.25
    psi: tuple[dict, ...] = (({"name": "gaussian_bump"}),)
    x_min: float = -20.0
    x_max: float = 20.0
    nx: int = 801
    t_max: float = 1.0
    r_cut: float | None = None
    z_max: float | None = None
    safety: float = 0.5
    dp_half_width: float = 1280.0
    dp_dx: float = 0.05
    n_values: tuple[int, ...] = (8, 16, 32, 64)
    mode: str = "condition_iii"

    def validate(self) -> None:
        if not (1.0 < self.alpha < 2.0):
            raise ConfigError("alpha", f"{self.alpha} outside (1, 2)")
        if not (0.0 < self.lam < self.Lam):
            raise ConfigError("lam", "need 0 < lambda < Lambda_cap")
        if not self.pairs:
            raise ConfigError("pairs", "empty pair list")
        for km, kp in self.pairs:
            if not (self.lam < km < self.Lam and self.lam < kp < self.Lam):
                raise ConfigError("pairs", f"pair ({km}, {kp}) outside "
                                  f"({self.lam}, {self.Lam})")
        for name in ("b_scale", "z0"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(name, "must be positive")
        if not (0.0 < self.h < 1.0):
            raise ConfigError("h", "must lie in (0, 1)")
        if self.nx < 9:
            raise ConfigError("nx", f"{self.nx} is below 9, so the "
                              "half-resolution grid has under 5 nodes")
        # every command evaluates its surfaces at x = 0
        if not self.x_max > max(self.x_min, 0.0):
            raise ConfigError("x_max", f"{self.x_max} is not above both "
                              f"x_min = {self.x_min} and x = 0")
        if not self.x_min < 0.0:
            raise ConfigError("x_min", f"{self.x_min} is not below x = 0")
        if self.nx % 2 == 0:
            raise ConfigError("nx", f"{self.nx} is even; the half-resolution "
                              "grid is nested only for odd nx")
        # hypothesis and regularity also march the half-resolution grid,
        # whose cells are the widest
        r_cut, z_max = resolve_cutoffs(self.x_min, self.x_max, self.coarse_nx,
                                       self.r_cut, self.z_max)
        if self.r_cut is not None and not (0.0 < r_cut < 1.0):
            raise ConfigError("r_cut", f"{r_cut} outside (0, 1)")
        if r_cut >= 1.0:
            raise ConfigError("nx", f"the default r_cut is one cell, and the "
                              f"half-resolution grid of {self.coarse_nx} "
                              f"nodes has cells of {r_cut:g} >= 1; "
                              "raise nx or set r_cut")
        if z_max <= 1.0:
            raise ConfigError("z_max", f"{z_max:g} is not above 1 (the "
                              "default is four grid widths)")
        if self.t_max <= 0.0:
            raise ConfigError("t_max", "must be positive")
        if not (0.0 < self.safety <= 1.0):
            raise ConfigError("safety", f"{self.safety} outside (0, 1]")
        for name in ("dp_half_width", "dp_dx"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(name, "must be positive")
        if not self.n_values or any(n < 1 for n in self.n_values) \
                or list(self.n_values) != sorted(set(self.n_values)):
            raise ConfigError("n_values", "need a nonempty, strictly "
                              "increasing list of positive n")
        if self.mode not in ("condition_iii", "example_41"):
            raise ConfigError("mode", f"unknown mode {self.mode!r}")
        if not self.psi:
            raise ConfigError("psi", "empty test-function list")
        try:
            tags = [psi.tag for psi in self.psi_functions()]
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError("psi", str(exc))
        for tag in tags:
            if tags.count(tag) > 1:
                raise ConfigError("psi", f"two test functions share the "
                                  f"file tag {tag!r}")

    # -- structured accessors -------------------------------------------
    @property
    def coarse_nx(self) -> int:
        """Node count of the half-resolution grid, nested in the nx
        grid when nx is odd."""
        return (self.nx - 1) // 2 + 1

    def uncertainty_set(self) -> UncertaintySet:
        return UncertaintySet(self.alpha,
                              tuple(KernelPair(km, kp)
                                    for km, kp in self.pairs),
                              self.lam, self.Lam)

    def psi_functions(self) -> tuple[basket.TestFunction, ...]:
        return tuple(basket.from_spec(dict(s)) for s in self.psi)

    def dp_grid(self) -> Grid:
        half = int(np.ceil(self.dp_half_width / self.dp_dx))
        return Grid(-half * self.dp_dx, half * self.dp_dx, 2 * half + 1,
                    1.0, 1, 0.5, 4.0)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    try:
        return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_list(v, item) -> bool:
    return isinstance(v, list) and all(map(item, v))


# per annotation: what a JSON value must be, and how to store it
_KINDS = {
    "float": ("a finite number", _is_real, lambda v: v),
    "float | None": ("null or a finite number",
                     lambda v: v is None or _is_real(v), lambda v: v),
    "int": ("an integer", _is_int, lambda v: v),
    "str": ("a string", lambda v: isinstance(v, str), lambda v: v),
    "tuple[tuple[float, float], ...]": (
        "a list of [k_minus, k_plus] pairs",
        lambda v: _is_list(v, lambda p: _is_list(p, _is_real)
                           and len(p) == 2),
        lambda v: tuple(tuple(float(x) for x in p) for p in v)),
    "tuple[dict, ...]": ("a list of objects",
                         lambda v: _is_list(v, lambda s: isinstance(s, dict)),
                         lambda v: tuple(dict(s) for s in v)),
    "tuple[int, ...]": ("a list of integers",
                        lambda v: _is_list(v, _is_int), tuple),
}


def config_from_dict(d: dict) -> ExperimentConfig:
    """The config of a parsed JSON object; a missing required field or
    a value of the wrong type raises ConfigError naming the field."""
    if not isinstance(d, dict):
        raise ConfigError("config", f"top level must be an object, not "
                          f"{type(d).__name__}")
    fields = {f.name: f for f in dc_fields(ExperimentConfig)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError("config", f"unknown fields {sorted(unknown)}")
    kw = {}
    for name, f in fields.items():
        if name not in d:
            if f.default is MISSING:
                raise ConfigError(name, "missing")
            continue
        what, ok, store = _KINDS[f.type]
        if not ok(d[name]):
            raise ConfigError(name, f"{d[name]!r} is not {what}")
        kw[name] = store(d[name])
    return ExperimentConfig(**kw)


def load(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8
            raise ConfigError("config", f"not valid JSON: {exc}")
    cfg = config_from_dict(data)
    cfg.validate()
    return cfg
