import pytest

from fusionseed import zoo
from fusionseed.gfp import FpMatrix
from fusionseed.grp import MatGroup


@pytest.fixture(scope="session")
def sl25_gens():
    return FpMatrix(5, [[1, 1], [0, 1]]), FpMatrix(5, [[1, 0], [1, 1]])


@pytest.fixture(scope="session")
def corpus_bfs():
    """G of corpus row k, enumerated by BFS once per session: the oracle
    that several brute-force tests read, served by row index."""
    corpus, groups = zoo.table_corpus(), {}

    def bfs(k):
        if k not in groups:
            g, _ = zoo.build_family(corpus[k])
            groups[k] = MatGroup(g.p, g.generators).cache()
        return groups[k]
    return bfs
