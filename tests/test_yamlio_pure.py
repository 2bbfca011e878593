"""The tests of ``test_yamlio.py`` again, under the pure-Python loader.

The pure loader is what ``parse`` uses when PyYAML is built without
libyaml, and the reference that libyaml's results are held to.
"""

import pytest

from pricebook import parse, yamlio

from test_yamlio import *  # noqa: F401,F403  (collected again under this module)


@pytest.fixture(autouse=True, scope="module")
def pure_loader():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(yamlio, "_LIBYAML_LOADER", None)
        yield


@pytest.fixture(scope="module")
def zoom(pure_loader, zoom_text):
    # conftest's session-scoped ``zoom`` would be parsed by whichever module
    # asks first, so this module parses its own copy under the pure loader.
    return parse(zoom_text)
