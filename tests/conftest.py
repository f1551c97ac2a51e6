"""Suite-wide fixtures."""

import pytest

from repro.eval import corpus


@pytest.fixture(autouse=True)
def _empty_memory_corpus():
    """Start every test with an empty memory-only trace corpus, so no test
    sees traces a previous test generated and none depends on test order."""
    corpus._MEMORY.clear_memory()
    yield
    corpus._MEMORY.clear_memory()
