"""The examples still run: each one's ``main()``, in process.

The examples are the documented way in (README.md) and no other test
imports them, so a change to a runtime API they call would otherwise
break them silently.  Only examples that finish in well under a second
and write no files run here.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", ["quickstart", "runtime_features", "lattice4d", "paper_scaling_tables"]
)
def test_example_main_runs(name, capsys):
    _load(name).main()
    assert capsys.readouterr().out.strip()
