import numpy as np
import pytest

from fusionseed import zoo
from fusionseed.gfp import FpMatrix
from fusionseed.grp import MatGroup


def perm_mat(p, images, n=None):
    n = n or len(images)
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in enumerate(images):
        a[j, i] = 1
    return FpMatrix(p, a)


def cycle(n, cyc):
    img = list(range(n))
    for k in range(len(cyc)):
        img[cyc[k]] = cyc[(k + 1) % len(cyc)]
    return img


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
