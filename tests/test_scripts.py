"""Smoke test of the experiment scripts at tiny sizes, run as the README shows."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=300)


def test_surface_experiments_writes_both_surfaces(tmp_path):
    done = _run(ROOT / "scripts" / "surface_experiments.py", "--taus", 3, "--moneys", 3,
                "--outdir", tmp_path)
    assert done.returncode == 0, done.stderr
    for name in ("surface_small_costs.csv", "surface_unit_costs.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "tau,moneyness,rate,rate_ac,rate_extra,relative_increase"
        assert len(lines) == 1 + 3 * 3


def test_mc_experiments_runs():
    done = _run(ROOT / "scripts" / "mc_experiments.py", "--paths", 64, "--steps", 32,
                "--directions", 2)
    assert done.returncode == 0, done.stderr
    assert "value identity" in done.stdout


def test_readme_library_example_runs():
    # the block under "## Library example", run as a user would paste it
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = _run("-c", code)
    assert done.returncode == 0, done.stderr
    ratio = float(done.stdout.strip())
    assert 1e3 <= ratio <= 1e5  # the snippet says ~1e4 at the barrier
