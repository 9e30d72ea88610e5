#!/usr/bin/env python3
"""Run every bundled experiment config through the CLI.

Usage: python3 scripts/run_all_experiments.py [out_root]

Runs from a plain checkout (``src`` is put on the import path).  The run
ends with one ``sha256  <path>`` line per output file, paths relative to
out_root, so two runs are compared byte for byte with ``diff``.
"""

import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nlstable.cli import main  # noqa: E402

RUNS = [
    ("solve", "solve_default"),
    ("solve", "solve_asymmetric"),
    ("clt", "clt_corner"),
    ("hypothesis", "hypothesis_condition_iii"),
    ("hypothesis", "hypothesis_example_41"),
    ("regularity", "regularity_clipped_linear"),
]

if __name__ == "__main__":
    out_root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    worst = 0
    for command, name in RUNS:
        cfg = ROOT / "configs" / f"{name}.json"
        print(f"== {command} {name} ==")
        code = main([command, "--config", str(cfg),
                     "--out", str(out_root / name)])
        worst = max(worst, code)
    for path in sorted(p for p in out_root.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out_root)}")
    sys.exit(worst)
