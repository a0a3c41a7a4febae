import pytest

from psl2cd import classifier


@pytest.fixture
def fresh_plans():
    """Clear the plan cache before and after the test, so that a test that
    swaps ``classifier._ROWS`` neither sees nor leaves plans of another table."""
    classifier._q_plans.cache_clear()
    yield
    classifier._q_plans.cache_clear()
