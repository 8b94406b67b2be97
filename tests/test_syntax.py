"""Every package module parses as the oldest Python that ``pyproject.toml``
declares (``requires-python``).  ``ast.parse`` with ``feature_version``
refuses syntax that version lacks, such as ``except*`` or a ``type``
statement; it cannot see a newer library call, so the modules' imports
and calls are not covered."""

import ast
import re
from pathlib import Path

import pytest

import lattice_qre

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(lattice_qre.__file__).resolve().parent


def _oldest_python() -> tuple[int, int]:
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    return int(declared[1]), int(declared[2])


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_module_parses_at_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_oldest_python())


def test_a_newer_construct_is_refused():
    # except* is 3.11 syntax, so the check refuses it at the 3.10 floor
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert _oldest_python() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_oldest_python())
