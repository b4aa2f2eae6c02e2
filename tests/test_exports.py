"""Every name a locarray module exports in __all__ exists on that module (cli has no __all__),
and the README's module map and library sketch name the modules and the library as they are."""

import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import locarray

MODULES = ["locarray"] + [f"locarray.{m.name}" for m in pkgutil.iter_modules(locarray.__path__)]
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def readme_section(title):
    """The README text under "## title", up to the next section."""
    text = README.read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_module_map_names_every_module():
    # each bullet's backticked names before " - " are the modules it describes
    bullets = [line[2:].split(" - ", 1)[0] for line in readme_section("Module map").splitlines()
               if line.startswith("- ")]
    named = [name for head in bullets for name in re.findall(r"`([^`]+)`", head)]
    modules = [m.name for m in pkgutil.iter_modules(locarray.__path__)]
    assert sorted(named) == sorted(modules)


def test_library_sketch_names_the_whole_library():
    sketch = set(re.findall(r"`([^`]+)`", readme_section("Library sketch")))
    assert [name for name in locarray.__all__ if name not in sketch] == []


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # every record is a tuple type; -S keeps site hooks from importing either module
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import locarray.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
