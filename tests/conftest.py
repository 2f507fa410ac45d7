import pytest

from topokit import persistence


@pytest.fixture(autouse=True)
def _forget_recent_pairings():
    """Start every test with no remembered pairing, so compute_diagram runs its loop."""
    persistence._recent.clear()
