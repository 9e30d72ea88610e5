"""Experiment configuration: JSON round-trip and validation.

Every run is fully determined by the config file; there is no
randomness anywhere, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, asdict, fields as dc_fields

import numpy as np

from .kernels import KernelPair, UncertaintySet, Grid
from . import basket


class ConfigError(ValueError):
    """Validation failure; carries the offending module and field."""

    def __init__(self, module: str, field_name: str, message: str):
        self.module = module
        self.field_name = field_name
        super().__init__(f"[{module}.{field_name}] {message}")


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
            raise ConfigError("stable_kernel", "alpha",
                              f"{self.alpha} outside (1, 2)")
        if not (0.0 < self.lam < self.Lam):
            raise ConfigError("stable_kernel", "lambda",
                              "need 0 < lambda < Lambda_cap")
        if not self.pairs:
            raise ConfigError("stable_kernel", "pairs", "empty pair list")
        for km, kp in self.pairs:
            if not (self.lam < km < self.Lam and self.lam < kp < self.Lam):
                raise ConfigError("stable_kernel", "pairs",
                                  f"pair ({km}, {kp}) outside "
                                  f"({self.lam}, {self.Lam})")
        if self.b_scale <= 0.0 or self.z0 <= 0.0:
            raise ConfigError("attracted_laws", "b_scale/z0",
                              "must be positive")
        if not (0.0 < self.h < 1.0):
            raise ConfigError("pide_solver", "h", "must lie in (0, 1)")
        if self.nx < 5 or self.x_min >= self.x_max:
            raise ConfigError("pide_solver", "grid", "degenerate grid")
        if self.nx % 2 == 0:
            raise ConfigError("pide_solver", "nx",
                              f"{self.nx} is even; the half-resolution grid "
                              "(nx - 1)//2 + 1 is nested only for odd nx")
        if self.r_cut is not None and not (0.0 < self.r_cut < 1.0):
            raise ConfigError("pide_solver", "r_cut",
                              f"{self.r_cut} outside (0, 1)")
        # make_grid's default r_cut is one cell, and hypothesis and
        # regularity also march the half-resolution grid, whose cells
        # are the widest
        coarse_dx = (self.x_max - self.x_min) / ((self.nx - 1) // 2)
        if self.r_cut is None and coarse_dx >= 1.0:
            raise ConfigError("pide_solver", "nx",
                              f"the default r_cut is one cell, and the "
                              f"half-resolution grid of "
                              f"{(self.nx - 1) // 2 + 1} nodes has cells of "
                              f"{coarse_dx:g} >= 1; raise nx or set r_cut")
        # make_grid's default z_max is four grid widths
        z_max = 4.0 * (self.x_max - self.x_min) if self.z_max is None \
            else self.z_max
        if z_max <= 1.0:
            raise ConfigError("pide_solver", "z_max",
                              f"{z_max:g} is not above 1 (the default is "
                              "four grid widths)")
        if self.t_max <= 0.0 or not (0.0 < self.safety <= 1.0):
            raise ConfigError("pide_solver", "grid",
                              "t_max and safety must be positive "
                              "(safety at most 1)")
        if self.dp_half_width <= 0.0 or self.dp_dx <= 0.0:
            raise ConfigError("sublinear_engine", "dp_grid",
                              "must be positive")
        if any(n < 1 for n in self.n_values) \
                or list(self.n_values) != sorted(set(self.n_values)):
            raise ConfigError("hypothesis_checker", "n_values",
                              "need strictly increasing positive n")
        if self.mode not in ("condition_iii", "example_41"):
            raise ConfigError("hypothesis_checker", "mode",
                              f"unknown mode {self.mode!r}")
        for spec in self.psi:
            try:
                basket.from_spec(dict(spec))
            except (ValueError, TypeError, OverflowError) as exc:
                raise ConfigError("experiment_cli", "psi", str(exc))

    # -- structured accessors -------------------------------------------
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


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["pairs"] = [list(p) for p in cfg.pairs]
    d["psi"] = [dict(s) for s in cfg.psi]
    d["n_values"] = list(cfg.n_values)
    return d


_MODULES = {"alpha": "stable_kernel", "lam": "stable_kernel",
            "Lam": "stable_kernel", "pairs": "stable_kernel",
            "b_scale": "attracted_laws", "z0": "attracted_laws",
            "dp_half_width": "sublinear_engine", "dp_dx": "sublinear_engine",
            "n_values": "hypothesis_checker", "mode": "hypothesis_checker",
            "psi": "experiment_cli"}  # every other field: pide_solver


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
        raise ConfigError("experiment_cli", "config",
                          f"top level must be an object, not "
                          f"{type(d).__name__}")
    fields = {f.name: f for f in dc_fields(ExperimentConfig)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError("experiment_cli", "config",
                          f"unknown fields {sorted(unknown)}")
    kw = {}
    for name, f in fields.items():
        module = _MODULES.get(name, "pide_solver")
        if name not in d:
            if f.default is MISSING:
                raise ConfigError(module, name, "missing")
            continue
        what, ok, store = _KINDS[f.type]
        if not ok(d[name]):
            raise ConfigError(module, name, f"{d[name]!r} is not {what}")
        kw[name] = store(d[name])
    return ExperimentConfig(**kw)


def dumps(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def load(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8
            raise ConfigError("experiment_cli", "config",
                              f"not valid JSON: {exc}")
    cfg = config_from_dict(data)
    cfg.validate()
    return cfg
