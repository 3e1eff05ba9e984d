"""The balancer's two assignment solvers, numpy only.

Each is a port of the SciPy routine the balancer used to call, down to
the tie-breaking, so every mapping is the one SciPy returns:

* :func:`max_weight_assignment` — ``linear_sum_assignment(W,
  maximize=True)``: Crouse's shortest augmenting path (IEEE TAES 52(4),
  2016), the optimal MWBG of the processor reassignment (paper §4.4) and
  of the repartitioner's label agreement;
* :func:`bipartite_matching` — ``maximum_bipartite_matching(csr_matrix(
  mask), perm_type="column")``: Hopcroft–Karp (SIAM J. Comput. 2(4),
  1973), the feasibility test of the bottleneck (BMCM) search.

The problems are k×k with k = F·P at most a few hundred and sparse, so
the loops run over Python lists: per element that beats vectorising rows
of a few non-zeros.  ``tests/kernels/test_assign_equiv.py`` holds both
equal to SciPy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["max_weight_assignment", "bipartite_matching"]


def max_weight_assignment(W) -> np.ndarray:
    """The column assigned to each row in a maximum-weight assignment of
    ``W``'s rows to distinct columns (rows ≤ columns)."""
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] > W.shape[1]:
        raise ValueError(f"need a 2-D matrix with rows <= columns, got {W.shape}")
    nr, nc = W.shape
    cost = (-W.astype(np.float64)).tolist()  # maximise W = minimise −W
    u, v = [0.0] * nr, [0.0] * nc  # row and column duals
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row ``cur`` (Dijkstra on reduced costs)
        spc = [math.inf] * nc
        rows, cols = [], []  # the rows and columns the search settled
        # reversed, so a constant matrix is assigned the identity
        remaining = list(range(nc - 1, -1, -1))
        num = nc
        min_val = 0.0
        i, sink = cur, -1
        while sink < 0:
            rows.append(i)
            ci, ui = cost[i], u[i]
            lowest, index = math.inf, -1
            for it in range(num):
                j = remaining[it]
                r = min_val + ci[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                # of tied columns keep the last free one: it ends the search
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            num -= 1
            remaining[index] = remaining[num]
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols:
            v[j] -= min_val - spc[j]
        j = sink  # flip the path back to ``cur``
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.int64)


def bipartite_matching(mask) -> np.ndarray:
    """The column matched to each row in a maximum matching of the
    bipartite graph whose edges are ``mask``'s true entries; −1 for a row
    left unmatched."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"need a 2-D mask, got shape {mask.shape}")
    nr, nc = mask.shape
    cols = np.nonzero(mask)[1].tolist()  # row-major: ascending in each row
    ptr = [0, *np.cumsum(mask.sum(axis=1)).tolist()]
    adj = [cols[ptr[r]:ptr[r + 1]] for r in range(nr)]
    inf = nr + 1  # deeper than any layer
    x, y = [-1] * nr, [-1] * nc  # column of each row, row of each column
    look = [0] * nr  # where a row's search for a free column resumes
    while True:
        # BFS: layer the rows by alternating distance from the free rows
        free = [r for r in range(nr) if x[r] < 0]
        dist = [0 if x[r] < 0 else inf for r in range(nr)]
        up = inf  # the first layer that reaches a free column
        queue = list(free)
        for r in queue:
            d = dist[r]
            if d < up:
                for c in adj[r]:
                    m = y[c]
                    if m < 0:
                        if up == inf:
                            up = d + 1
                    elif dist[m] == inf:
                        dist[m] = d + 1
                        queue.append(m)
        if up == inf:
            return np.array(x, dtype=np.int64)
        # DFS from each free row in turn, along the layers
        down = [len(a) for a in adj]  # descends walk the columns downward
        for root in free:
            stack = [root]
            while stack:
                r = stack[-1]
                a = adj[r]
                if dist[r] + 1 == up:  # last layer: look for a free column
                    k = look[r]
                    while k < len(a) and y[a[k]] >= 0:
                        k += 1
                    look[r] = k
                    if k < len(a):
                        c = a[k]
                        for r in reversed(stack):  # augment along the stack
                            y[c] = r
                            x[r], c = c, x[r]
                        break
                else:  # descend to the mate of a column one layer down
                    k, want, child = down[r], dist[r] + 1, -1
                    while k and child < 0:
                        k -= 1
                        m = y[a[k]]
                        if m >= 0 and dist[m] == want:
                            child = m
                    down[r] = k
                    if child >= 0:
                        stack.append(child)
                        continue
                dist[r] = inf  # a dead end for the rest of the phase
                stack.pop()
