"""Experiment configuration: JSON round-trip and validation.

Every run is fully determined by the config file; there is no
randomness anywhere, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields as dc_fields

from .kernels import (ConfigError, Grid, KernelPair, UncertaintySet,
                      resolve_cutoffs)
from . import basket, engine


# the module of each field, as error messages name it; every other
# field belongs to pide_solver
_MODULES = {"alpha": "stable_kernel", "lam": "stable_kernel",
            "Lam": "stable_kernel", "pairs": "stable_kernel",
            "z0": "attracted_laws",
            "dp_dx": "sublinear_engine",
            "n_values": "hypothesis_checker", "mode": "hypothesis_checker",
            "psi": "experiment_cli", "config": "experiment_cli"}


def field_tag(field: str) -> str:
    """``[module.field]``, as the CLI names the config's JSON key
    ``field`` (``config`` for the file as a whole) in every failure."""
    return f"[{_MODULES.get(field, 'pide_solver')}.{field}]"


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float
    lam: float
    Lam: float
    pairs: tuple[tuple[float, float], ...]
    z0: float = 2.0
    h: float = 0.25
    psi: tuple[dict, ...] = (({"name": "gaussian_bump"}),)
    x_min: float = -20.0
    x_max: float = 20.0
    nx: int = 801
    r_cut: float | None = None
    safety: float = 0.5
    dp_dx: float = 0.05
    n_values: tuple[int, ...] = (8, 16, 32, 64)
    mode: str = "condition_iii"

    def validate(self) -> None:
        self.uncertainty_set()  # alpha, lam, Lam and pairs
        if self.z0 <= 0.0:
            raise ConfigError("z0", "must be positive")
        if not (0.0 < self.h < 1.0):
            raise ConfigError("h", "must lie in (0, 1)")
        if self.nx < 9:
            raise ConfigError("nx", f"{self.nx} is below 9, so the "
                              "half-resolution grid has under 5 nodes")
        if not 2 * self.nx + 2 < 2 ** 63:  # the generator's taps, int64
            raise ConfigError("nx", f"{self.nx} is not below 2^62 - 1, so "
                              "the generator's 2 nx + 2 taps overflow "
                              "numpy's integers")
        # every command evaluates its surfaces at x = 0
        if not self.x_max > max(self.x_min, 0.0):
            raise ConfigError("x_max", f"{self.x_max} is not above both "
                              f"x_min = {self.x_min} and x = 0")
        if not self.x_min < 0.0:
            raise ConfigError("x_min", f"{self.x_min} is not below x = 0")
        if not math.isfinite(self.x_max - self.x_min):
            raise ConfigError("x_max", "x_max - x_min overflows")
        if self.nx % 2 == 0:
            raise ConfigError("nx", f"{self.nx} is even; the half-resolution "
                              "grid is nested only for odd nx")
        # hypothesis and regularity also march the half-resolution grid,
        # whose cells are the widest
        r_cut, z_max = resolve_cutoffs(self.x_min, self.x_max, self.coarse_nx,
                                       self.r_cut)
        if self.r_cut is not None and not (0.0 < r_cut < 1.0):
            raise ConfigError("r_cut", f"{r_cut} outside (0, 1)")
        if r_cut >= 1.0:
            raise ConfigError("nx", f"the default r_cut is one cell, and the "
                              f"half-resolution grid of {self.coarse_nx} "
                              f"nodes has cells of {r_cut:g} >= 1; "
                              "raise nx or set r_cut")
        if z_max <= 1.0:
            raise ConfigError("x_max", f"the far tail node's radius, four "
                              f"grid widths = {z_max:g}, is not above 1")
        if z_max ** -self.alpha == 0.0:  # the far tail node's mass
            raise ConfigError("x_max", f"the far tail node's mass at four "
                              f"grid widths, {z_max:g}^-alpha, underflows "
                              "to 0")
        if not (0.0 < self.safety <= 1.0):
            raise ConfigError("safety", f"{self.safety} outside (0, 1]")
        if self.dp_dx <= 0.0:
            raise ConfigError("dp_dx", "must be positive")
        # the tail rule's cell count; its B_n z0 floor waits for dp_grid,
        # since only clt builds the laws that bound z0
        self._dp_half()
        if not self.n_values or any(n < 1 for n in self.n_values) \
                or list(self.n_values) != sorted(set(self.n_values)):
            raise ConfigError("n_values", "need a nonempty, strictly "
                              "increasing list of positive n")
        if self.n_values[-1] >= 2 ** 63:  # numpy's integers
            raise ConfigError("n_values", f"{self.n_values[-1]} >= 2^63")
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

    def _dp_half(self, interior: float = 0.0) -> int:
        """Cells a side of the DP grid, ``engine.dp_half_cells``, refused
        past the count numpy can index."""
        cells = engine.dp_half_cells(self.pairs, self.alpha, self.dp_dx,
                                     interior)
        if not cells < 2.0 ** 62:  # numpy's indices
            raise ConfigError("dp_dx", f"the DP grid's {cells:.3g} cells a "
                              "side are not below 2^62; raise "
                              "sublinear_engine.dp_dx")
        return math.ceil(cells)

    def dp_grid(self) -> Grid:
        """The grid every n of the DP runs on: ``dp_dx`` apart, and wide
        enough for the smallest n, whose B_n z0 is the largest."""
        spec = engine.NormalizedSumSpec(self.n_values[0], self.alpha)
        half = self._dp_half(spec.B_n * self.z0)
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
    with open(path, encoding="utf-8") as fh:  # JSON is UTF-8
        try:
            data = json.load(fh)
        # ValueError: also a file that is not UTF-8; RecursionError:
        # arrays or objects nested past the interpreter's depth
        except (ValueError, RecursionError) as exc:
            raise ConfigError("config", f"not valid JSON: {exc}")
    cfg = config_from_dict(data)
    cfg.validate()
    return cfg
