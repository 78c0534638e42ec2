"""Session set-up shared by every test module.

Some tests run `qrs` as a command, which needs the console script that
installing the package creates. For each entry of `[project.scripts]` in
pyproject.toml the session writes a launcher that runs this checkout's
`src/` code, and puts the launchers' directory first on PATH, so those
tests run for real without an install.
"""

import os
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

ROOT = Path(__file__).resolve().parent.parent

LAUNCHER = """#!{python}
import sys
sys.path.insert(0, {src!r})
from {module} import {attr}
sys.exit({attr}())
"""


@pytest.fixture(scope="session", autouse=True)
def console_scripts(tmp_path_factory):
    """Directory of generated console-script launchers, first on PATH."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    bindir = tmp_path_factory.mktemp("bin")
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        launcher = bindir / name
        launcher.write_text(LAUNCHER.format(python=sys.executable, src=str(ROOT / "src"),
                                            module=module, attr=attr))
        launcher.chmod(0o755)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", str(bindir), prepend=os.pathsep)
        yield bindir
