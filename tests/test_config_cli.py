"""Config round-trips and the four CLI subcommands."""

import ast
import dataclasses
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from nlstable import basket
from nlstable import config as config_mod
from nlstable.config import ExperimentConfig
from nlstable import cli, engine, solver
from nlstable.kernels import ConfigError, scheme_stability_constant

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def dumps(cfg: ExperimentConfig) -> str:
    """The canonical JSON text of a config: sorted keys, two-space
    indent, as the bundled configs are written."""
    return json.dumps(dataclasses.asdict(cfg), indent=2,
                      sort_keys=True) + "\n"


def base_config(**over):
    kw = dict(alpha=1.5, lam=0.5, Lam=2.5, pairs=((1.0, 1.0),),
              psi=({"name": "gaussian_bump"},), nx=201, t_max=1.0)
    kw.update(over)
    return ExperimentConfig(**kw)


class TestConfig:
    def test_round_trip_idempotent(self):
        cfg = base_config()
        text = dumps(cfg)
        again = dumps(config_mod.config_from_dict(json.loads(text)))
        assert again == text

    def test_bundled_configs_valid_and_canonical(self):
        paths = sorted(CONFIGS.glob("*.json"))
        assert len(paths) >= 6
        for p in paths:
            cfg = config_mod.load(str(p))
            assert dumps(cfg) == p.read_text()

    @pytest.mark.parametrize("over,needle", [
        (dict(alpha=2.5), "stable_kernel.alpha"),
        (dict(pairs=((3.0, 1.0),)), "stable_kernel.pairs"),
        (dict(h=1.5), "pide_solver.h"),
        (dict(n_values=(8, 4)), "hypothesis_checker.n_values"),
        (dict(mode="other"), "hypothesis_checker.mode"),
        (dict(psi=({"name": "nope"},)), "experiment_cli.psi"),
        # no intensity check but the set's: k <= 0 is not above lam > 0
        (dict(pairs=((0.0, 1.0),)), "stable_kernel.pairs"),
        (dict(pairs=((-1.0, 1.0),)), "stable_kernel.pairs"),
    ])
    def test_validation_names_module_and_field(self, over, needle):
        """The failure carries its field, which the CLI tags; the
        message itself carries no tag."""
        with pytest.raises(ConfigError) as exc:
            base_config(**over).validate()
        assert config_mod.field_tag(exc.value.field) == f"[{needle}]"
        assert needle not in str(exc.value)

    def test_unknown_field_rejected(self):
        d = json.loads(dumps(base_config()))
        d["typo_field"] = 1
        with pytest.raises(ConfigError, match="unknown fields"):
            config_mod.config_from_dict(d)

    def test_load_rejects_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            config_mod.load(str(p))


def without(name):
    def edit(d):
        del d[name]
        return d
    return edit


def setting(**fields):
    return lambda d: {**d, **fields}


@pytest.mark.parametrize("edit,needle", [
    pytest.param(without("pairs"), "stable_kernel.pairs", id="no-pairs"),
    pytest.param(without("alpha"), "stable_kernel.alpha", id="no-alpha"),
    pytest.param(setting(nx="201"), "pide_solver.nx", id="nx-string"),
    pytest.param(setting(nx=201.0), "pide_solver.nx", id="nx-float"),
    pytest.param(setting(pairs=[[1.0]]), "stable_kernel.pairs",
                 id="short-pair"),
    pytest.param(setting(pairs=[1.0, 1.0]), "stable_kernel.pairs",
                 id="flat-pair"),
    pytest.param(setting(x_max=10**400), "pide_solver.x_max", id="huge-int"),
    pytest.param(lambda d: [d], "experiment_cli.config", id="top-level-array"),
    pytest.param(setting(r_cut=0.0), "pide_solver.r_cut", id="r_cut-0"),
    pytest.param(setting(r_cut=1.0), "pide_solver.r_cut", id="r_cut-1"),
    pytest.param(setting(z_max=1.0), "pide_solver.z_max", id="z_max-1"),
    # the default z_max, four grid widths, is 0.8
    pytest.param(setting(x_min=-0.1, x_max=0.1), "pide_solver.z_max",
                 id="default-z_max"),
    # the default r_cut is one cell: 1.0 on the fine grid at nx 41, and
    # on the half-resolution grid at nx 81
    pytest.param(setting(nx=41), "pide_solver.nx", id="nx-41"),
    pytest.param(setting(nx=81), "pide_solver.nx", id="nx-81"),
    pytest.param(setting(n_values=[8.5]), "hypothesis_checker.n_values",
                 id="n-not-integer"),
    pytest.param(setting(psi=[{"name": "gaussian_bump", "center": math.nan}]),
                 "experiment_cli.psi", id="psi-nan-center"),
    pytest.param(setting(psi=[{"name": "sigmoid", "slope": math.inf}]),
                 "experiment_cli.psi", id="psi-infinite-slope"),
    pytest.param(setting(psi=[{"name": "abs_clip", "clip": 10 ** 400}]),
                 "experiment_cli.psi", id="psi-huge-int"),
    pytest.param(setting(n_values=[]), "hypothesis_checker.n_values",
                 id="n-empty"),
    pytest.param(setting(psi=[]), "experiment_cli.psi", id="psi-empty"),
    # float() would read these as 1.0 and 2.0
    pytest.param(setting(psi=[{"name": "sigmoid", "clip": True}]),
                 "experiment_cli.psi", id="psi-bool-clip"),
    pytest.param(setting(psi=[{"name": "gaussian_bump", "width": "2"}]),
                 "experiment_cli.psi", id="psi-string-width"),
    # one field named per message; the brackets close the field name,
    # which "b_scale/z0" would not
    pytest.param(setting(b_scale=0.0), "[attracted_laws.b_scale]",
                 id="b_scale-0"),
    pytest.param(setting(z0=0.0), "attracted_laws.z0", id="z0-0"),
    pytest.param(setting(nx=3), "pide_solver.nx", id="nx-3"),
    pytest.param(setting(x_min=20.0), "pide_solver.x_max",
                 id="x_max-not-above-x_min"),
    # every command evaluates at x = 0, which must lie inside the grid
    pytest.param(setting(x_min=1.0, x_max=41.0), "[pide_solver.x_min]",
                 id="x_min-not-below-0"),
    pytest.param(setting(x_min=-41.0, x_max=-1.0), "[pide_solver.x_max]",
                 id="x_max-not-above-0"),
    # the half-resolution grid of nx 7 has 4 nodes, too few for a
    # middle-half window with centred differences (r_cut is set, so the
    # default-r_cut check does not catch it first)
    pytest.param(setting(nx=7, r_cut=0.5), "pide_solver.nx", id="nx-7"),
    pytest.param(setting(t_max=0.0), "pide_solver.t_max", id="t_max-0"),
    pytest.param(setting(safety=1.5), "pide_solver.safety", id="safety-1.5"),
    pytest.param(setting(dp_half_width=0.0), "sublinear_engine.dp_half_width",
                 id="dp_half_width-0"),
    pytest.param(setting(dp_dx=0.0), "sublinear_engine.dp_dx", id="dp_dx-0"),
    # the message names the JSON key, not the symbol
    pytest.param(setting(lam=3.0), "[stable_kernel.lam]",
                 id="lam-not-below-Lam"),
    # at the default z0 = 2 the (2, 1) law's tail first moment cannot be
    # cancelled by its interior density
    pytest.param(setting(pairs=[[2.0, 1.0]]), "[attracted_laws.z0]",
                 id="law-needs-wider-z0"),
    # finite values whose counts or magnitudes overflow or underflow
    pytest.param(setting(dp_dx=1e-310), "[sublinear_engine.dp_dx]",
                 id="dp_dx-1e-310"),
    pytest.param(setting(dp_half_width=1e308, dp_dx=1e-10),
                 "[sublinear_engine.dp_dx]", id="dp_half_width-1e308"),
    pytest.param(setting(n_values=[8, 10 ** 30]),
                 "[hypothesis_checker.n_values]", id="n-past-int64"),
    # the generator's 2 nx + 2 taps are counted in int64
    pytest.param(setting(nx=2 ** 62 - 1), "[pide_solver.nx]",
                 id="nx-taps-reach-2^63"),
    pytest.param(setting(nx=2 ** 63 + 1), "[pide_solver.nx]",
                 id="nx-past-int64"),
    pytest.param(setting(x_min=-1e308, x_max=1e308, r_cut=0.5, z_max=100.0),
                 "[pide_solver.x_max]", id="x-span-overflows"),
    # the far tail node's mass z_max^-alpha/alpha underflows to 0
    pytest.param(setting(z_max=1e308), "[pide_solver.z_max]",
                 id="z_max-1e308"),
    pytest.param(setting(x_min=-1e300, x_max=1e300, r_cut=0.5),
                 "[pide_solver.z_max]", id="default-z_max-8e300"),
    pytest.param(setting(z0=1e308), "[attracted_laws.z0]", id="z0-1e308"),
    pytest.param(setting(b_scale=1e308), "[attracted_laws.b_scale]",
                 id="b_scale-1e308"),
    pytest.param(setting(b_scale=1e-308), "[attracted_laws.b_scale]",
                 id="b_scale-1e-308"),
    # the Lipschitz constant sqrt(2/e)/width overflows to inf
    pytest.param(setting(psi=[{"name": "gaussian_bump", "width": 1e-320}]),
                 "[experiment_cli.psi]", id="psi-tiny-width"),
])
def test_bad_config_exits_2_naming_field(tmp_path, capsys, edit, needle):
    d = json.loads(dumps(base_config()))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(d)))
    assert cli.main(["hypothesis", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
    assert needle in capsys.readouterr().err


LAWS_THAT_CANNOT_BE_BUILT = [
    ({"pairs": [[2.0, 1.0]]}, "[attracted_laws.z0]"),
    ({"z0": 1e308}, "[attracted_laws.z0]"),
    ({"b_scale": 1e308}, "[attracted_laws.b_scale]"),
    ({"b_scale": 1e-308}, "[attracted_laws.b_scale]"),
]


def test_bad_law_exits_2_before_any_march(tmp_path, capsys, monkeypatch):
    """A law that cannot be built is found before any grid is marched,
    by hypothesis or by clt."""
    def no_march(*args, **kwargs):
        raise AssertionError("marched")
    monkeypatch.setattr(cli, "solve_forward", no_march)
    for over, tag in LAWS_THAT_CANNOT_BE_BUILT:
        d = {**json.loads(dumps(base_config())), **over}
        path = tmp_path / "bad_law.json"
        path.write_text(json.dumps(d))
        for command in ("hypothesis", "clt"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(tmp_path / "o")]) == 2
            assert tag in capsys.readouterr().err


def test_solve_builds_no_law(tmp_path):
    """solve reads neither z0 nor b_scale, so it runs with values no law
    can be built from."""
    cfg = base_config(z0=1e308, b_scale=1e-308)
    assert cli.main(["solve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 0


def test_load_decodes_utf8_under_any_locale(tmp_path):
    """JSON is UTF-8: under the C locale with UTF-8 mode off, a non-ASCII
    psi name is read as written and refused as an unknown function."""
    d = {**json.loads(dumps(base_config())),
         "psi": [{"name": "gau\u00dfian_bump"}]}
    path = tmp_path / "utf8.json"
    path.write_text(json.dumps(d, ensure_ascii=False), encoding="utf-8")
    src = os.pathsep.join(filter(None, [str(REPO / "src"),
                                        os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    env.pop("PYTHONIOENCODING", None)
    run = subprocess.run(
        [sys.executable, "-m", "nlstable.cli", "solve", "--config",
         str(path), "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, errors="replace")
    assert run.returncode == 2
    assert "[experiment_cli.psi] unknown test function" in run.stderr


def solve_in_subprocess(tmp_path, psi):
    """Run ``solve`` on base_config with the given psi spec in a fresh
    interpreter, so numpy's warnings reach its stderr."""
    cfg = base_config(psi=(psi,))
    src = os.pathsep.join(filter(None, [str(REPO / "src"),
                                        os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "nlstable.cli", "solve", "--config",
         write_config(tmp_path, cfg), "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)


def test_steep_sigmoid_solves_without_warnings(tmp_path):
    """A ramp whose slope * (x - center) overflows is a valid psi: solve
    passes and prints nothing on stderr, numpy's warnings included."""
    run = solve_in_subprocess(tmp_path, {"name": "sigmoid", "slope": 1e308})
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def test_wide_clip_sigmoid_solves_without_warnings(tmp_path):
    """A clip past 709, where exp(clip) overflows, is a valid psi: solve
    passes and prints nothing on stderr."""
    run = solve_in_subprocess(tmp_path, {"name": "sigmoid", "slope": 100.0,
                                         "clip": 1000.0})
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


@pytest.mark.parametrize("command,name,psi", [
    pytest.param("hypothesis", "hypothesis_example_41",
                 [{"name": "gaussian_bump"}, {"name": "sigmoid"}],
                 id="hypothesis"),
    pytest.param("regularity", "regularity_clipped_linear",
                 [{"name": "abs_clip", "clip": 3.0}, {"name": "sigmoid"}],
                 id="regularity"),
])
def test_single_psi_command_rejects_two(tmp_path, capsys, command, name,
                                        psi):
    """hypothesis and regularity measure one test function; a second
    one exits 2 before anything is written, instead of being dropped."""
    d = json.loads((CONFIGS / f"{name}.json").read_text())
    path = tmp_path / "two.json"
    path.write_text(json.dumps({**d, "nx": 201, "psi": psi}))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "[experiment_cli.psi]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "clt"])
def test_psi_sharing_a_file_tag_exits_2(tmp_path, capsys, command):
    """Two sigmoid centres that print alike under {:g} would write one
    output file for two summary lines."""
    d = json.loads(dumps(base_config()))
    d["psi"] = [{"name": "sigmoid", "center": 1.0},
                {"name": "sigmoid", "center": 1.0000001}]
    path = tmp_path / "twins.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[experiment_cli.psi]" in err and "sigmoid_1_1_50" in err
    assert not out.exists()


# every module a config field belongs to, as field_tag names it
FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
MODULES = {config_mod.field_tag(name)[1:].split(".")[0] for name in FIELDS}
FIELD_REF = re.compile(r"\b(" + "|".join(sorted(MODULES)) + r")\.(\w+)")


def field_refs(tree: ast.Module) -> list[re.Match]:
    """The ``module.field`` references in the string constants of tree,
    f-string parts included."""
    return [ref for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for ref in FIELD_REF.finditer(node.value)]


def misnamed(refs: list[re.Match]) -> list[str]:
    """The references whose field is no config field or belongs to
    another module."""
    return [ref.group(0) for ref in refs if ref.group(2) not in FIELDS
            or f"[{ref.group(0)}]" != config_mod.field_tag(ref.group(2))]


def failure_fields(tree: ast.Module) -> list[str]:
    """The literal first arguments of the ConfigError and NumericalError
    calls in tree."""
    return [node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and node.args
            and isinstance(node.args[0], ast.Constant)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("ConfigError", "NumericalError")]


def unknown_fields(names: list[str]) -> list[str]:
    return [name for name in names if name not in FIELDS + ["config"]]


def test_messages_name_config_fields():
    """A message that tells the user which knob to turn names it as
    field_tag would, and every failure names a config field."""
    trees = [ast.parse(p.read_text())
             for p in sorted((REPO / "src" / "nlstable").glob("*.py"))]
    refs = [ref for tree in trees for ref in field_refs(tree)]
    assert refs
    assert misnamed(refs) == []
    names = [name for tree in trees for name in failure_fields(tree)]
    assert {"config", "nx", "safety", "z0"} <= set(names)
    assert unknown_fields(names) == []


def test_detects_a_misnamed_field():
    tree = ast.parse('x = "lower pide_solver.safety or stable_kernel.lambda"\n'
                     'y = f"{x}: raise sublinear_engine.nx or pide_solver.dx"\n'
                     'raise ConfigError("nxx", "must be odd")\n'
                     'raise kernels.NumericalError("dx", f"{x}")\n'
                     'raise NumericalError("safety", "lower it")\n')
    assert misnamed(field_refs(tree)) == [
        "stable_kernel.lambda", "sublinear_engine.nx", "pide_solver.dx"]
    assert unknown_fields(failure_fields(tree)) == ["nxx", "dx"]


def test_default_r_cut_accepted_at_nx_83():
    """At nx 83 the half-resolution cells are 40/41 < 1."""
    base_config(nx=83).validate()


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(dumps(cfg))
    return str(p)


@pytest.fixture
def no_march(monkeypatch):
    """Fail the test if any march step runs."""
    monkeypatch.setattr(solver, "apply_sup_generator_row",
                        lambda *args: pytest.fail("marched"))


class TestCli:
    def test_solve_constant_psi(self, tmp_path, capsys):
        cfg = base_config(psi=({"name": "constant", "value": 2.0},))
        code = cli.main(["solve", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "max_principle_residual=0.000e+00" in out
        assert (tmp_path / "out" / "solve_summary.txt").exists()

    def test_solve_row_zero_bit_exact(self, tmp_path):
        cfg = base_config()
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        csv = (out / "surface_gaussian_bump_0_1.csv").read_text()
        lines = csv.strip().split("\n")[1:cfg.nx + 1]
        got = np.array([float(line.split(",")[2]) for line in lines])
        x = np.linspace(cfg.x_min, cfg.x_max, cfg.nx)
        assert np.array_equal(got, np.exp(-x ** 2))

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        d = json.loads(dumps(base_config()))
        d["alpha"] = 2.5
        p.write_text(json.dumps(d))
        assert cli.main(["solve", "--config", str(p),
                         "--out", str(tmp_path / "o")]) == 2
        assert "stable_kernel.alpha" in capsys.readouterr().err

    def test_even_nx_exits_2(self, tmp_path, capsys):
        """The half-resolution grid is a sub-grid only for odd nx."""
        cfg = base_config(nx=200)
        assert cli.main(["hypothesis", "--config",
                         write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 2
        assert "pide_solver.nx" in capsys.readouterr().err

    def test_non_finite_march_exits_3(self, tmp_path, capsys, monkeypatch):
        """Both marches, with a surface (solve) and without (clt)."""
        def oscillating():
            def fn(x):
                return np.where(np.arange(np.size(x)) % 2 == 0,
                                1e308, -1e308)
            return basket.TestFunction("oscillating", (), fn, lip=1.0,
                                       sup=1e308)

        monkeypatch.setitem(basket._BUILDERS, "oscillating", oscillating)
        path = write_config(tmp_path,
                            base_config(psi=({"name": "oscillating"},)))
        for command in ("solve", "clt"):
            with np.errstate(over="ignore", invalid="ignore"):
                code = cli.main([command, "--config", path,
                                 "--out", str(tmp_path / "o")])
            assert code == 3
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: [pide_solver.safety] ")
            assert "non-finite values at step 1 of" in err

    def test_negative_dp_tap_exits_3(self, tmp_path, capsys, no_march):
        """At n = 512 the law's interior spans under one cell of a
        dp_dx = 0.2 grid, so the corrected stage taps go negative."""
        cfg = base_config(n_values=(512,), dp_dx=0.2)
        assert cli.main(["clt", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: [sublinear_engine.dp_dx] ")
        assert "not monotone" in err
        assert "decrease sublinear_engine.dp_dx" in err

    def test_write_atomic_round_trip_across_slices(self, tmp_path):
        n = 1 << 20
        # non-ASCII characters on both sides of a 1 MiB boundary
        text = "a" * (n - 1) + "\u00e9\u00fc" + "b" * n + "\u2211\n"
        path = tmp_path / "sub" / "text.txt"
        cli.write_atomic(str(path), text)
        assert path.read_text(encoding="utf-8") == text
        assert list(path.parent.iterdir()) == [path]

    def test_write_atomic_streams_byte_blocks(self, tmp_path):
        path = tmp_path / "blocks.csv"
        cli.write_atomic(str(path), (b"%d\n" % i for i in range(5)))
        assert path.read_bytes() == b"0\n1\n2\n3\n4\n"

    def test_write_atomic_honours_umask(self, tmp_path):
        """mkstemp makes 0600 files; the output gets 0666 less the
        umask, as open() would give it."""
        old = os.umask(0o022)
        try:
            for name, data in (("a.txt", "text\n"), ("b.csv", [b"1,2\n"])):
                cli.write_atomic(str(tmp_path / name), data)
                assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) \
                    == 0o644
        finally:
            os.umask(old)

    def test_write_atomic_removes_temp_file_on_error(self, tmp_path):
        def failing():
            yield b"partial"
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            cli.write_atomic(str(tmp_path / "out.csv"), failing())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under-file"])
    def test_unusable_out_exits_2_before_marching(self, tmp_path, capsys,
                                                  monkeypatch, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setattr(cli, "solve_forward",
                            lambda *a: pytest.fail("marched"))
        out = blocker / "o" if under else blocker
        assert cli.main(["solve", "--config",
                         write_config(tmp_path, base_config()),
                         "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_narrow_dp_grid_exits_3(self, tmp_path, capsys, no_march):
        cfg = base_config(lam=0.05, Lam=0.15,
                          pairs=((0.1, 0.1),), nx=201,
                          n_values=(16,), dp_half_width=20.0, dp_dx=0.1)
        assert cli.main(["clt", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical failure: [sublinear_engine.dp_half_width] ")
        assert "widen the grid" in err

    @pytest.mark.parametrize("over,tag", [
        # an 852 PiB march surface, then one past numpy's size limit
        ({"safety": 1e-13}, "[pide_solver.nx]"),
        ({"safety": 1e-15}, "[pide_solver.nx]"),
        # a 1.45 EiB oracle frequency grid, then one past the limit
        ({"t_max": 1e-21}, "[pide_solver.t_max]"),
        ({"t_max": 1e-24}, "[pide_solver.t_max]"),
        # a 146 TiB generator stencil, built before the surface
        ({"nx": 10 ** 13 + 1}, "[pide_solver.nx]"),
        # the oracle's 27.7/(t c) overflows to an infinite frequency count
        ({"t_max": 1e-320}, "[pide_solver.t_max]"),
        # ... and t c underflows to 0, so the count is infinite too
        ({"pairs": ((0.1, 0.1),), "lam": 0.05, "Lam": 0.15,
          "t_max": 5e-324}, "[pide_solver.t_max]"),
        # a stencil of 2^63 - 4 taps, where the float -nx rounds past
        # the integer and a tap index went negative
        ({"nx": 2 ** 62 - 3}, "[pide_solver.nx]"),
        # a count of about 1e137 frequencies, which the message rounds
        ({"t_max": 1e-200}, "[pide_solver.t_max]"),
    ])
    def test_unallocatable_array_exits_3(self, tmp_path, capsys,
                                         monkeypatch, over, tag):
        """Sizes no machine can map, so the refusal commits no memory.
        clt and hypothesis store a few rows of the march, so no
        allocation would stop them: the step count of a surface too large
        to map is refused before any DP stage or march step."""
        runs = [("solve", base_config(**over))]
        if "safety" in over:
            monkeypatch.setattr(solver, "_march_rows",
                                lambda *args: pytest.fail("marched"))
            monkeypatch.setattr(engine, "nested_sum_expectation",
                                lambda *args: pytest.fail("DP ran"))
            runs += [("clt", base_config(**over)),
                     ("hypothesis", base_config(mode="condition_iii", **over)),
                     ("hypothesis", base_config(mode="example_41", **over))]
        for command, cfg in runs:
            assert cli.main([command, "--config",
                             write_config(tmp_path, cfg),
                             "--out", str(tmp_path / "o")]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"numerical failure: {tag} ")
            assert "cannot be allocated" in err
            assert "negative elements" not in err
            assert not re.search(r"\d{20}", err)

    @pytest.mark.parametrize("over", [
        pytest.param({"safety": 1e-310}, id="safety-1e-310"),
        pytest.param({"t_max": 1e308}, id="t_max-1e308"),
    ])
    def test_overflowing_step_count_exits_3(self, tmp_path, capsys, over):
        """t_max * c / safety overflows, so the march has no step count;
        the message names both fields it is made of."""
        assert cli.main(["solve", "--config",
                         write_config(tmp_path, base_config(**over)),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: [pide_solver.safety] ")
        assert "pide_solver.t_max" in err

    def test_unallocatable_stencil_exits_3_before_the_dp(
            self, tmp_path, capsys, monkeypatch):
        """clt builds the march's stencils before its DP runs; the
        stencil of 2 10^13 + 4 taps is past any address space."""
        monkeypatch.setattr(engine, "nested_sum_expectation",
                            lambda *args: pytest.fail("DP ran"))
        cfg = base_config(nx=10 ** 13 + 1)
        assert cli.main(["clt", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: [pide_solver.nx] ")
        assert "cannot be allocated" in err

    @pytest.mark.parametrize("over", [
        pytest.param({"dp_dx": 1e-10}, id="186TiB-dp_dx"),
        pytest.param({"dp_half_width": 1e15}, id="284PiB-dp_half_width"),
    ])
    def test_unallocatable_dp_grid_exits_3(self, tmp_path, capsys, over,
                                           no_march):
        """A dynamic-program grid past any address space, so the refusal
        commits no memory; the message names both DP grid fields."""
        cfg = base_config(**over)
        assert cli.main(["clt", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: [sublinear_engine.dp_dx] ")
        assert "cannot be allocated" in err
        assert "sublinear_engine.dp_half_width" in err

    def test_clt_constant_psi_zero_errors(self, tmp_path):
        cfg = base_config(lam=0.05, Lam=0.15, pairs=((0.1, 0.1),), nx=201,
                          psi=({"name": "constant", "value": 1.5},),
                          n_values=(2, 4), dp_half_width=240.0, dp_dx=0.1)
        out = tmp_path / "o"
        assert cli.main(["clt", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        csv = (out / "convergence_constant_1.5.csv").read_text()
        errs = [float(line.split(",")[4])
                for line in csv.strip().split("\n")[1:]]
        assert max(errs) < 1e-9

    def test_clt_marches_without_a_surface(self, tmp_path, monkeypatch):
        """clt stores only the march's last two rows to read u(1, 0), and
        writes the table that the whole surface gives."""
        cfg = base_config(lam=0.05, Lam=0.15,
                          pairs=((0.1, 0.1), (0.12, 0.12)), n_values=(2, 4),
                          dp_half_width=240.0, dp_dx=0.1)
        path = write_config(tmp_path, cfg)
        march = solver.solve_forward

        def whole(prob, grid, uset, rows=None):
            return march(prob, grid, uset)

        with monkeypatch.context() as m:
            m.setattr(cli, "solve_forward", whole)
            assert cli.main(["clt", "--config", path,
                             "--out", str(tmp_path / "surface")]) == 0

        stored = []

        def spy(prob, grid, uset, rows=None):
            surface = march(prob, grid, uset, rows)
            stored.append((grid, rows, surface.values.shape))
            return surface

        monkeypatch.setattr(cli, "solve_forward", spy)
        assert cli.main(["clt", "--config", path,
                         "--out", str(tmp_path / "rows")]) == 0
        [(grid, rows, shape)] = stored
        assert rows == (grid.nt - 1, grid.nt) and shape == (2, grid.nx)
        name = "convergence_gaussian_bump_0_1.csv"
        assert (tmp_path / "rows" / name).read_bytes() \
            == (tmp_path / "surface" / name).read_bytes()

    @pytest.mark.parametrize("name", ["hypothesis_condition_iii",
                                      "hypothesis_example_41"])
    def test_hypothesis_stores_only_the_rows_it_reads(self, tmp_path,
                                                      monkeypatch, name):
        """On the bundled configs each march stores at most 200 of its
        thousands of rows."""
        march = solver.solve_forward
        stored = []

        def spy(prob, grid, uset, rows=None):
            surface = march(prob, grid, uset, rows)
            stored.append((grid.nt + 1, surface.values.shape[0]))
            return surface

        monkeypatch.setattr(cli, "solve_forward", spy)
        assert cli.main(["hypothesis", "--config",
                         str(CONFIGS / f"{name}.json"),
                         "--out", str(tmp_path / "o")]) == 0
        assert len(stored) == (2 if name == "hypothesis_condition_iii"
                               else 1)
        assert all(kept <= 200 < total for total, kept in stored)

    def test_hypothesis_example_41(self, tmp_path, capsys):
        cfg = base_config(nx=201, t_max=1.25, n_values=(4, 8),
                          mode="example_41")
        out = tmp_path / "o"
        assert cli.main(["hypothesis", "--config",
                         write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        text = (out / "residuals.csv").read_text()
        assert text.startswith("n,residual,rate_fit")

    def test_example_41_n_within_one_step_exits_3(self, tmp_path, capsys,
                                                  monkeypatch):
        """1/n at or under one time step reads only rounding; refused
        before the march."""
        monkeypatch.setattr(solver, "_march_rows",
                            lambda *args: pytest.fail("marched"))
        cfg = base_config(mode="example_41", n_values=(8, 100000))
        assert cli.main(["hypothesis", "--config",
                         write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical failure: [hypothesis_checker.n_values] ")

    def test_example_41_n_with_no_sampled_row_exits_3(self, tmp_path, capsys,
                                                      monkeypatch):
        """At n = 1 the window [1/n, 1] holds no sampled row when the last
        one lies before t = 1; refused before the march instead of
        reporting a residual of 0 read from no row."""
        monkeypatch.setattr(solver, "_march_rows",
                            lambda *args: pytest.fail("marched"))
        cfg = base_config(mode="example_41", nx=401, t_max=1.25,
                          n_values=(1, 8))
        assert cli.main(["hypothesis", "--config",
                         write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical failure: [hypothesis_checker.n_values] ")

    @pytest.mark.parametrize("command", ["hypothesis", "regularity"])
    def test_both_resolutions_honour_config(self, tmp_path, monkeypatch,
                                            command):
        """The fine grid and its half-resolution copy both use the
        config's r_cut and safety."""
        marched = []
        march_rows = solver._march_rows

        def spy(u0, grid, uset):
            marched.append((grid, scheme_stability_constant(grid, uset)))
            return march_rows(u0, grid, uset)

        monkeypatch.setattr(solver, "_march_rows", spy)
        cfg = base_config(nx=201, t_max=1.25, n_values=(4, 8), safety=0.25,
                          r_cut=0.3, psi=({"name": "abs_clip", "clip": 3.0},))
        assert cli.main([command, "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")]) == 0
        assert sorted(g.nx for g, _ in marched) == [101, 201]
        for g, c in marched:
            assert g.r_cut == 0.3
            assert g.dt * c <= 0.25 * (1.0 + 1e-12)

    @pytest.mark.parametrize("command,over", [
        ("solve", {}),
        ("clt", dict(lam=0.05, Lam=0.15, pairs=((0.1, 0.1),),
                     psi=({"name": "constant", "value": 1.5},),
                     n_values=(2, 4), dp_half_width=240.0, dp_dx=0.1)),
        ("hypothesis", dict(t_max=1.25, n_values=(4, 8), mode="example_41")),
        ("regularity", dict(t_max=1.25,
                            psi=({"name": "abs_clip", "clip": 3.0},))),
    ])
    def test_summary_file_is_stdout(self, tmp_path, capsys, command, over):
        out = tmp_path / "o"
        assert cli.main([command, "--config",
                         write_config(tmp_path, base_config(**over)),
                         "--out", str(out)]) == 0
        assert (out / f"{command}_summary.txt").read_text() \
            == capsys.readouterr().out

    def test_regularity_runs(self, tmp_path):
        cfg = base_config(nx=201, t_max=1.25,
                          psi=({"name": "abs_clip", "clip": 3.0},))
        out = tmp_path / "o"
        assert cli.main(["regularity", "--config",
                         write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        assert (out / "regularity.txt").read_text().startswith("lip_x=")
