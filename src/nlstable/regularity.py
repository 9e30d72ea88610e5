"""Post-processing probes for the regularity the solution surface is
supposed to inherit: spatial Lipschitz propagation, 1/2-Hölder time
modulus, and boundedness of first and second derivatives away from the
terminal layer.  All measurements exclude the outer spatial quarter,
where boundary pinning pollutes differences.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .kernels import Surface, middle_half

COMPARE_REL_TOL = 0.2
COMPARE_SKIP = ("lip_x", "holder_gamma_fit")


class RegularityError(RuntimeError):
    """Raised when a probed quantity is unstable across resolutions."""


@dataclass(frozen=True)
class RegularityReport:
    lip_x: float
    holder_t_half: float
    dt_u_bound: float
    dx_u_bound: float
    holder_gamma_fit: float
    dxx_bound_singleton: float

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not np.isfinite(val) or (val < 0 and f.name != "holder_gamma_fit"):
                raise RegularityError(f"field {f.name} = {val} "
                                      "is not a valid probe result")


def lipschitz_x(surface: Surface) -> float:
    """Largest spatial difference quotient over every row, on the
    middle half."""
    diff = np.diff(surface.values[:, middle_half(surface.grid.nx)], axis=1)
    return float(np.max(np.abs(diff))) / surface.grid.dx


def middle_bounds(rows: np.ndarray, dx: float) -> tuple[float, float, float]:
    """Largest |v|, |v_x| and |v_xx| over the middle half of rows (the
    last axis), with centred differences read one node further out."""
    mid = middle_half(rows.shape[-1])
    w = rows[..., mid.start - 1:mid.stop + 1]
    return (float(np.max(np.abs(w[..., 1:-1]))),
            float(np.max(np.abs(w[..., 2:] - w[..., :-2]))) / (2.0 * dx),
            float(np.max(np.abs(w[..., 2:] - 2.0 * w[..., 1:-1]
                                + w[..., :-2]))) / dx**2)


def probe(surface: Surface, h: float,
          singleton: bool = True) -> RegularityReport:
    """Measure the six regularity surrogates on the middle half.

    The time-derivative, space-derivative, and (for singleton
    uncertainty sets) second-derivative bounds are taken on the
    interior window t in [h, t_max], matching where those derivatives
    are expected to be classical.  ``holder_gamma_fit`` is the fitted
    spatial Hölder exponent of the time derivative there.
    """
    g = surface.grid
    vals = surface.values[:, middle_half(g.nx)]    # a view

    # 1/2-Hölder constant in t over dyadic row separations
    holder = 0.0
    sep = 1
    while sep <= g.nt:
        diff = np.abs(vals[sep:] - vals[:-sep])
        holder = max(holder, float(np.max(diff)) / np.sqrt(sep * g.dt))
        sep *= 2

    # the rows with t >= h, a suffix
    first = int(np.searchsorted(surface.times, h - 1e-12))
    if first > g.nt:
        raise ValueError("surface horizon too short for the interior window")
    # |v_t| over the steps that end at t >= h
    w = np.abs(np.diff(vals[max(first, 1) - 1:], axis=0)) / g.dt
    dt_u = float(np.max(w))
    _, dx_u, dxx_u = middle_bounds(surface.values[first:], g.dx)

    # Hölder exponent of the time derivative in x, dyadic increments
    scales, moduli = [], []
    step = 1
    while step * 8 <= w.shape[1]:
        m = float(np.max(np.abs(w[:, step:] - w[:, :-step])))
        if m > 0.0:
            scales.append(step * g.dx)
            moduli.append(m)
        step *= 2
    if len(scales) >= 2:
        gamma = float(np.polyfit(np.log(scales), np.log(moduli), 1)[0])
    else:
        gamma = 0.0

    return RegularityReport(lip_x=lipschitz_x(surface), holder_t_half=holder,
                            dt_u_bound=dt_u, dx_u_bound=dx_u,
                            holder_gamma_fit=gamma,
                            dxx_bound_singleton=dxx_u if singleton else 0.0)


def compare_reports(fine: RegularityReport, other: RegularityReport):
    """Relative agreement of probe fields across two resolutions.

    Raises RegularityError naming the first field whose values differ
    by more than COMPARE_REL_TOL relative to the finer measurement;
    fields in COMPARE_SKIP are not enforced.
    """
    for f in fields(RegularityReport):
        if f.name in COMPARE_SKIP:
            continue
        a, b = getattr(fine, f.name), getattr(other, f.name)
        rel = abs(a - b) / max(abs(a), 1e-12)
        if rel > COMPARE_REL_TOL:
            raise RegularityError(
                f"field {f.name} unstable across resolutions: "
                f"{a:.6g} vs {b:.6g} "
                f"({100*rel:.1f}% > {100*COMPARE_REL_TOL:.0f}%)")


def report_to_text(report: RegularityReport) -> str:
    return "".join(f"{f.name}={getattr(report, f.name):.17g}\n"
                   for f in fields(RegularityReport))
