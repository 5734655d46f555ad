import pytest

from latfm import fmcount

# the per-process memos of the counting path
MEMOS = (fmcount._member_term,)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with empty memos, so counter pins and cold paths do
    not depend on the tests that ran before it; a test that needs them cold
    again calls the returned function."""
    clear_memos()
    return clear_memos
