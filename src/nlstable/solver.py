"""Explicit monotone time-marching for the nonlocal equation, plus
surface interpolation and the scaling / dynamic-programming consistency
checks.

The forward problem marches

    u^{m+1} = u^m + dt * max_k G_k u^m,   u^0 = psi samples,

with the two boundary nodes pinned to their initial values (consistent
with the constant far-field extension inside the generator).  The
equation is time-homogeneous, so the terminal-value solution with
horizon T is v(t) = u(T - t): the forward surface read in reverse, which
is how the checker reads it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .kernels import (
    Grid,
    NumericalError,
    Surface,
    UncertaintySet,
    apply_sup_generator_row,
    middle_half,
    resolve_cutoffs,
    scheme_stability_constant,
)


def make_grid(x_min: float, x_max: float, nx: int, t_max: float,
              uset: UncertaintySet, r_cut: float | None = None,
              safety: float = 0.5) -> Grid:
    """Build a grid marching to the horizon t_max whose nt satisfies the
    CFL bound with a safety factor and whose whole surface fits in a
    128 TiB user address space."""
    r_cut, z_max = resolve_cutoffs(x_min, x_max, nx, r_cut)
    probe = Grid(x_min, x_max, nx, t_max, 1, r_cut, z_max)
    c = scheme_stability_constant(probe, uset)
    steps = t_max * c / safety
    if not np.isfinite(steps):
        raise NumericalError("safety", f"the march's {t_max:g} * {c:.6g} / "
                             "safety steps overflow; raise "
                             "pide_solver.safety")
    nt = max(1, int(np.ceil(steps)))
    if (nt + 1) * nx * 8 > 1 << 47:  # float64 rows u^0 ... u^nt
        raise NumericalError(
            "nx", f"the surface of {nt + 1} x {nx} values cannot be "
            "allocated in a 128 TiB address space; lower pide_solver.nx "
            "or raise pide_solver.safety")
    return Grid(x_min, x_max, nx, t_max, nt, r_cut, z_max)


def _march_rows(u0: np.ndarray, grid: Grid,
                uset: UncertaintySet) -> Iterator[np.ndarray]:
    """u^0, ..., u^nt of the march, each a new array, after the CFL
    check; a non-finite row raises at the step that produced it."""
    c = scheme_stability_constant(grid, uset)
    if grid.dt * c > 1.0 + 1e-12:
        raise NumericalError(
            "safety",
            f"dt={grid.dt:.3e} violates the stability bound; scheme constant "
            f"c={c:.6g} requires dt <= {1.0 / c:.3e} (nt >= {int(np.ceil(grid.t_max * c))})"
        )
    u = u0
    yield u
    b_lo, b_hi = u0[0], u0[-1]
    for step in range(1, grid.nt + 1):
        u = u + grid.dt * apply_sup_generator_row(u, grid, uset)
        u[0], u[-1] = b_lo, b_hi
        if not np.isfinite(u).all():
            raise NumericalError(
                "safety", f"the march produced non-finite values at step "
                f"{step} of {grid.nt} (nx={grid.nx}, max |psi| = "
                f"{np.max(np.abs(u0)):.3e}); lower pide_solver.safety, "
                "change pide_solver.nx or rescale psi")
        yield u


def solve_forward(psi: Callable, grid: Grid, uset: UncertaintySet,
                  rows: Sequence[int] | None = None) -> Surface:
    """March psi, sampled on grid.x, up to t_max, storing the given
    increasing row indices, or every row when rows is None."""
    u0 = np.asarray(psi(grid.x), dtype=float)
    if rows is None:
        rows = range(grid.nt + 1)
    try:
        values = np.empty((len(rows), grid.nx))
    except (MemoryError, ValueError) as exc:  # ValueError: "too big"
        raise NumericalError(
            "nx", f"the surface of {len(rows)} x {grid.nx} values cannot "
            f"be allocated ({exc}); lower pide_solver.nx or raise "
            "pide_solver.safety") from exc
    surface = Surface(grid, values, rows)
    slot = {m: k for k, m in enumerate(rows)}
    for m, u in enumerate(_march_rows(u0, grid, uset)):
        if m in slot:
            surface.values[slot[m]] = u
    return surface


def evaluate(surface: Surface, t: float, x: float) -> float:
    """Bilinear interpolation on the stored surface: the row at t from
    ``evaluate_row``, linearly interpolated at x; exact at nodes."""
    return float(np.interp(x, surface.grid.x, evaluate_row(surface, t)))


def bracket(g: Grid, t: float) -> tuple[tuple[int, int], float]:
    """((i, i + 1), f): the two rows ``evaluate_row`` reads at time t,
    which lies a fraction f of the step past row i."""
    pt = np.clip(t / g.dt, 0.0, g.nt)
    it = min(int(pt), g.nt - 1)
    return (it, it + 1), pt - it


def evaluate_row(surface: Surface, t: float) -> np.ndarray:
    """Full spatial row at time t, linearly interpolated between rows."""
    (lo, hi), ft = bracket(surface.grid, t)
    return (1 - ft) * surface.row(lo) + ft * surface.row(hi)


def scaling_check(psi: Callable, beta: float, t: float, grid: Grid,
                  uset: UncertaintySet) -> float:
    """Residual of the time-space scaling identity at the origin.

    Compares u_psi(beta*t, 0) with the solution started from the
    spatially rescaled data psi(beta^(1/alpha) x) at time t.
    """
    scale = beta ** (1.0 / uset.alpha)
    ua = solve_forward(psi, grid, uset)
    ub = solve_forward(lambda x: psi(scale * x), grid, uset)
    return abs(evaluate(ua, beta * t, 0.0) - evaluate(ub, t, 0.0))


def dpp_check(psi: Callable, s: float, t: float, grid: Grid,
              uset: UncertaintySet) -> float:
    """Residual of the dynamic programming identity.

    Restarts the march from the row at time t - s and compares the
    restarted solution at time s with the original at time t, maximizing
    over the middle half of the grid.  Times are snapped to grid rows.
    """
    u = solve_forward(psi, grid, uset)
    i_t = int(round(t / grid.dt))
    i_s = int(round(s / grid.dt))
    mid = middle_half(grid.nx)
    restart_grid = replace(grid, t_max=i_s * grid.dt, nt=i_s)
    w = deque(_march_rows(u.values[i_t - i_s], restart_grid, uset),
              maxlen=1).pop()
    return float(np.max(np.abs(u.values[i_t, mid] - w[mid])))


# -- CSV export -----------------------------------------------------------
# format_g17 gives the bytes of b"%.17g" % v for a block of float64 at
# once.  Each |v| in [_G17_MIN, _G17_MAX] is scaled to the 17-digit
# integer D = |v| * 10**(16 - k) as a Dekker double-double product,
# accurate to about 1e-13; Python's own conversion takes the rare values
# outside that range, with D outside [10**16, 10**17) before or after
# rounding, or with a fraction within _G17_DOUBT of one half (ties too).

_G17_MIN, _G17_MAX = 1e-280, 1e280
_G17_DOUBT = 2.0 ** -20
_P10_MIN, _P10_MAX = -270, 300   # 10**p for p = 16 - k, k = log10 |v|
_SPLIT = 134217729.0             # 2**27 + 1, Veltkamp's splitter
_G17_WIDTH = 46                  # sign, "0.000", 17 + dot + 17 digits, e+XXX
_CSV_BLOCK = 1 << 14             # values per CSV block, in whole rows
_CSV_WORKERS = 2                 # threads that format CSV blocks


@lru_cache(maxsize=None)
def _g17_tables():
    """10**p as hi + lo doubles for p in [_P10_MIN, _P10_MAX], from
    exact integer arithmetic (int to float and int / int both round
    correctly); the four-digit ASCII groups 0000..9999 as uint32; the
    digit masks; and the '0.', '0.0', ... prefixes of 10**-z."""
    hi, lo = [], []
    for p in range(_P10_MIN, _P10_MAX + 1):
        if p >= 0:
            h = float(10 ** p)
            hi.append(h)
            lo.append(float(10 ** p - int(h)))
        else:
            q = 10 ** -p
            h = 1 / q
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * q) / (den * q))
    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                          dtype=np.uint32)
    # row 17 * split + keep over [integer digits | dot | fraction digits]:
    # 0xff over digits 0..min(split, keep), and when keep > split over
    # the dot and fraction digits split+1..keep
    masks = np.zeros((17, 17, 35), dtype=np.uint8)
    for split in range(17):
        for keep in range(17):
            masks[split, keep, :min(split, keep) + 1] = 0xff
            if keep > split:
                masks[split, keep, 17] = 0xff
                masks[split, keep, 19 + split:19 + keep] = 0xff
    lead = np.zeros((10, 6), dtype=np.uint8)   # 5 * sign + zeros
    for z in range(1, 5):
        lead[z, 1:2 + z] = lead[5 + z, 1:2 + z] = list(b"0." + b"0" * (z - 1))
    lead[5:, 0] = ord("-")
    return (np.array(hi), np.array(lo), quads, masks.reshape(17 * 17, 35),
            lead)


def _split(a):
    t = a * _SPLIT
    h = t - (t - a)
    return h, a - h


def _scaled(a, k):
    """Floor and fraction of a * 10**(16 - k)."""
    hi, lo = _g17_tables()[:2]
    h, low = hi[16 - k - _P10_MIN], lo[16 - k - _P10_MIN]
    p = a * h
    ah, al = _split(a)
    hh, hl = _split(h)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # a*h = p + err
    top = np.floor(p)
    r = (p - top) + (err + a * low)
    f = np.floor(r)
    return top.astype(np.int64) + f.astype(np.int64), r - f


def _digits(d):
    """The 17 ASCII digits of each integer in [10**16, 10**17)."""
    quads = _g17_tables()[2]
    out = np.empty((d.size, 5), dtype=np.uint32)
    top = d // 10 ** 16
    rest = d - top * 10 ** 16
    a = rest // 10 ** 8
    b = (rest - a * 10 ** 8).astype(np.int32)
    a = a.astype(np.int32)
    out[:, 1], out[:, 2] = quads[a // 10000], quads[a % 10000]
    out[:, 3], out[:, 4] = quads[b // 10000], quads[b % 10000]
    digits = out.view(np.uint8)[:, 3:]
    digits[:, 0] = top + ord("0")
    return digits


def format_g17(values: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` for each float64, as one row of a NUL-padded
    uint8 matrix; ``row[row != 0]`` is the text.

    The decimal exponent k comes from log10 and the digits from
    |v| * 10**(16 - k) rounded to an integer; every value this cannot
    settle goes through ``%.17g`` itself.  The %g layout is fixed
    notation for -4 <= k < 17, otherwise d.ddde+XX, with trailing zeros
    and a bare dot left as NULs.
    """
    v = np.ravel(np.asarray(values, dtype=float))
    a = np.abs(v)
    zero = v == 0.0
    slow = (a < _G17_MIN) | (a > _G17_MAX)
    a = np.where(slow, 1.0, a)
    k = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, k)
    slow |= (d < 10 ** 16) | (d >= 10 ** 17)
    slow |= np.abs(frac - 0.5) < _G17_DOUBT
    d += frac > 0.5
    slow = (slow | (d == 10 ** 17)) & ~zero

    _, _, _, masks, lead = _g17_tables()
    digits = _digits(d)
    last = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    sci = (k < -4) | (k > 16)
    small = (k < 0) & ~sci
    # digits 0..split form the integer part (all of them after "0.000"
    # when k < 0); keep is the last digit printed
    split = np.where(sci, 0, np.where(small, 16, k))
    keep = np.where(small, last, np.maximum(last, split))
    out = np.empty((v.size, _G17_WIDTH), dtype=np.uint8)
    out[:, :6] = np.take(lead, 5 * np.signbit(v) + np.where(small, -k, 0),
                         axis=0)
    out[:, 6:23] = out[:, 24:41] = digits
    out[:, 23] = ord(".")
    out[:, 6:41] &= np.take(masks, 17 * split + keep, axis=0)
    out[:, 41:] = 0
    if sci.any():
        e = np.abs(k[sci])
        out[sci, 41:] = np.stack([
            np.full(e.size, ord("e")), np.where(k[sci] < 0, ord("-"), ord("+")),
            np.where(e >= 100, e // 100 + ord("0"), 0),
            e // 10 % 10 + ord("0"), e % 10 + ord("0")], axis=1)
    out[zero, 1:] = 0
    out[zero, 1] = ord("0")
    for i in np.flatnonzero(slow):
        text = b"%.17g" % v[i]
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def _text_rows(values: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` for a few values, NUL-padded to the longest."""
    texts = np.array([b"%.17g" % v for v in values.tolist()])
    return texts.view(np.uint8).reshape(len(texts), -1)


def _csv_rows(times: np.ndarray, xs: np.ndarray,
              values: np.ndarray) -> bytes:
    """The CSV records of whole surface rows: row i's t text, each x
    text and the value, as one NUL-padded uint8 matrix with the NULs
    dropped."""
    n, nx = values.shape
    wt, wx = times.shape[1], xs.shape[1]
    rec = np.empty((n, nx, wt + wx + _G17_WIDTH + 3), dtype=np.uint8)
    rec[:, :, :wt] = times[:, None]
    rec[:, :, wt] = rec[:, :, wt + wx + 1] = ord(",")
    rec[:, :, wt + 1:wt + wx + 1] = xs
    rec[:, :, wt + wx + 2:-1] = format_g17(values).reshape(n, nx, -1)
    rec[:, :, -1] = ord("\n")
    return rec[rec != 0].tobytes()


def surface_to_csv(surface: Surface) -> Iterator[bytes]:
    """CSV export with header t,x,value; one record per node, as ASCII
    byte blocks of whole surface rows, max(1, _CSV_BLOCK // nx) each.

    Every number is ``%.17g``, so it reparses bit-exactly.  The t and x
    fields are formatted once; _CSV_WORKERS threads format the blocks
    (format_g17's numpy passes release the GIL), and the blocks come
    out in order, with at most _CSV_WORKERS + 1 formatted and not yet
    written.  A worker's exception comes out of the generator, and
    closing it joins the workers.  Nothing runs until the first block
    is asked for.
    """
    yield b"t,x,value\n"
    # imported here: the thread pool costs the commands that export
    # nothing a few milliseconds of set-up
    from concurrent.futures import ThreadPoolExecutor

    times = _text_rows(surface.times)
    xs = _text_rows(surface.grid.x)
    rows = max(1, _CSV_BLOCK // surface.grid.nx)
    _g17_tables()                       # built once, before the workers
    pool = ThreadPoolExecutor(_CSV_WORKERS)
    pending = deque()
    try:
        for lo in range(0, len(times), rows):
            pending.append(pool.submit(_csv_rows, times[lo:lo + rows], xs,
                                       surface.values[lo:lo + rows]))
            if len(pending) > _CSV_WORKERS:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
