import pytest

from topokit import persistence


@pytest.fixture(autouse=True)
def _forget_the_last_batch():
    """Start every test with no remembered batch, so compute_diagram runs its loop."""
    persistence._last = None
