import os
from pathlib import Path

import pytest

from pricebook import parse

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@pytest.fixture(scope="session", autouse=True)
def child_processes_import_src():
    """Child ``python -m pricebook`` processes import the package from ``src``,
    as this process does (``pythonpath`` in ``pyproject.toml``), also when
    the package is not installed."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield


@pytest.fixture(scope="session")
def zoom_text() -> str:
    return (FIXTURES / "zoom.yml").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def zoom(zoom_text):
    return parse(zoom_text)


@pytest.fixture(scope="session")
def zoom_path() -> Path:
    return FIXTURES / "zoom.yml"


@pytest.fixture(scope="session")
def minimal_path() -> Path:
    return FIXTURES / "minimal.yml"
