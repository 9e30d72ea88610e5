"""Run one nlstable CLI invocation in this fresh process.

    python3 child.py REPORT MODE -- <nlstable arguments>

MODE is ``run`` (untraced), ``trace`` (spans around every layer call)
or ``setup`` (import nlstable and load the config, then stop).  The
process writes REPORT, a JSON file with the moment set-up finished and,
when traced, its spans; the harness measures launch, exit, CPU time
and peak RSS from outside.
"""

from __future__ import annotations

import json
import os
import sys

from tracing import Tracer, clock


def _steps(args, kwargs, surface):
    return {"steps": surface.grid.nt, "nx": surface.grid.nx,
            "bytes": surface.values.nbytes}


def _conv_len(kernels):
    """Summed full linear-convolution length of one sup-generator
    application, computed from the cached stencils' array lengths."""
    stencil = kernels.generator_stencil
    sizes = {}

    def attrs(args, kwargs, result):
        grid, uset = args[1], args[2]
        key = (grid, uset)
        if key not in sizes:
            sizes[key] = 0
            for pair in uset.pairs:
                st = stencil(grid, pair, uset.alpha)
                sizes[key] += grid.nx + 2 * st.half + len(st.taps) - 1
        return {"conv_len": sizes[key]}

    return attrs


def install(tracer):
    """Wrap each layer's public entry points where its callers look
    them up.  A name a later version no longer has is skipped and
    listed in the report."""
    from nlstable import (checker, cli, config, engine, kernels, oracle,
                          solver)
    wrap = tracer.wrap
    wrap(config, "load", "config.load")
    wrap(cli, "write_atomic", "cli.write",
         lambda a, kw, r: {"bytes": len(a[1].encode())})
    wrap(cli, "build_law", "laws.build")
    for owner in (cli, checker):
        wrap(owner, "make_grid", "solver.grid")
    wrap(cli, "solve_forward", "solver.march", _steps)
    wrap(checker, "solve_backward", "solver.march", _steps)
    wrap(cli, "surface_to_csv", "solver.export",
         lambda a, kw, r: {"bytes": len(r.encode())})
    # conv_len reads the stencil cache through the unwrapped function,
    # so it is set up before generator_stencil is wrapped below.
    conv_len = _conv_len(kernels)
    wrap(solver, "apply_sup_generator_row", "kernels.apply", conv_len)
    tracer.wrap_cached(kernels, "generator_stencil", "kernels.stencil",
                       lambda a, kw, r: {"taps": len(r.taps)})
    wrap(cli, "convergence_table", "engine.dp")
    wrap(engine, "nested_sum_expectation", "engine.stages",
         lambda a, kw, r: {"n": a[2].n, "nodes": a[3].nx})
    wrap(cli, "check_condition_iii", "checker.check")
    wrap(cli, "example_41_check", "checker.check")
    wrap(checker, "classical_term_bounds", "checker.bounds")
    wrap(cli, "classical_expectation", "oracle.expectation")
    tracer.wrap_cached(oracle, "_tail_constants", "oracle.constants")
    wrap(cli, "probe", "regularity.probe")


def _threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _environment():
    """Library versions and the BLAS thread count this process uses."""
    import ctypes
    import glob

    import numpy
    import scipy
    blas = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas = int(fn())
                break
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas}


def main() -> int:
    report_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    report = {"mode": mode}
    tracer = Tracer()
    code = 1
    try:
        with tracer.span("cli.import"):
            import nlstable.cli as cli
            import nlstable.config as config
        if mode == "trace":
            install(tracer)
        load = config.load

        def marked_load(path):
            cfg = load(path)
            report["setup_end"] = clock()
            return cfg

        config.load = marked_load
        if mode == "setup":
            marked_load(argv[argv.index("--config") + 1])
            report["environment"] = _environment()
            code = 0
        else:
            with tracer.span("cli.main"):
                code = cli.main(argv)
    finally:
        report["exit_code"] = code
        report["threads"] = _threads()
        if mode == "trace":
            report["environment"] = _environment()
            report["spans"] = tracer.records()
            report["missing"] = tracer.missing
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
