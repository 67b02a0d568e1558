"""The README's examples run as a user runs them, each in its own interpreter."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

CONFIG = """
model = bachelier-capped
m0 = 1.0
sigma = 0.5
p_bar = 1.0
lambda = 0.1
gamma = 1e-5
big_gamma = 1e-5
tau_count = 3
money_count = 3
"""


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("command, extra, code", [
    ("surface", "", 0),
    ("surface", "strike = 1\n", 2),                 # unknown key
    ("probe", "n_paths = 2100\nn_steps = 16\n", 1),  # the step-count bias is a gain
], ids=["surface", "unknown-key", "failing-probe"])
def test_cli_process_exit_status(tmp_path, command, extra, code):
    # entry() hands main()'s status to sys.exit, through the module's __main__ hook
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg.write_text(CONFIG + extra)
    done = _run("-m", "liqzone.cli", command, "--config", cfg, "--output", out)
    assert done.returncode == code, done.stderr
    if code == 2:
        assert "unknown key 'strike'" in done.stderr and not out.exists()
    else:
        assert out.read_text().count("\n") > 1  # a failed probe still writes its CSV


def test_readme_library_example_runs():
    # the block under "## Library example", run as a user would paste it
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = _run("-c", code)
    assert done.returncode == 0, done.stderr
    ratio = float(done.stdout.strip())
    assert 1e3 <= ratio <= 1e5  # the snippet says ~1e4 at the barrier
