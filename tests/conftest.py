import importlib.util
import sys
from pathlib import Path

import pytest

from latfm import fmcount

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the per-process memos of the counting path
MEMOS = (fmcount._member_term, fmcount._rank1_term)


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


def load_perfbench_module(name, siblings=()):
    """perfbench/<name>.py, loaded read-only from its file as
    perfbench_<name>.  It sits in sys.modules only while it runs (its
    dataclasses look themselves up there), next to the perfbench modules
    named in `siblings`, under the names it imports them by: nothing under
    perfbench/ stays importable, and no module it shadows is lost (on
    Windows `nt` is a built-in one)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    lent = {sibling: load_perfbench_module(sibling) for sibling in siblings}
    lent[spec.name] = module
    saved = {key: sys.modules.get(key) for key in lent}
    sys.modules.update(lent)
    try:
        spec.loader.exec_module(module)
    finally:
        for key, value in saved.items():
            if value is None:
                del sys.modules[key]
            else:
                sys.modules[key] = value
    return module


def family_grid():
    """(count, d) of every op in the benchmark's family strata, then every
    count <= 6 with d <= 40."""
    strata = load_perfbench_module("workloads", siblings=("nt",)).FAMILY_STRATA
    grid = [pair for _, candidates, _ in strata for pair in candidates]
    return grid + [(count, d) for count in range(1, 7) for d in range(1, 41)]
