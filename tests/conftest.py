import pytest

import cubicloop.moufang as M


@pytest.fixture(scope="session")
def table():
    """Full 243x243 composition table at the default precision."""
    return M.build_class_table(12, seed=0, admissibility_cells=0)


@pytest.fixture(scope="session")
def loop(table):
    return M.loop_from(table, M.named_class(M.U0))
