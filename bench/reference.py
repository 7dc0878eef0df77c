"""A fixed reference computation that gauges the host's speed during a run.

The benchmark's host is shared: the same call can run 1.5x slower for
tens of seconds to minutes, in CPU time as well as wall time, because
other tenants load the same cores.  Timing a fixed piece of work next to
every program call measures that speed at the moment of the call, and
dividing a call's wall time by it gives a figure that host phases move
much less.

The work mixes what hetecf spends its time on: splitting tab-separated
lines into dicts and lists, formatting and sha256-hashing records, small
dense logistic products and a sparse product.  It uses only the standard
library, numpy and scipy, never hetecf, so a change to the program
cannot change it.  Its inputs are fixed, independent of the workload
seed.
"""

import hashlib
import time

import numpy as np
import scipy.sparse as sp

LINES = 6000
DENSE_REPEATS = 50


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0xBE7C)
        src = rng.integers(0, 400, LINES).tolist()
        dst = rng.integers(0, 900, LINES).tolist()
        self.text = "".join(f"a{s}\tp{d}\twrites\n" for s, d in zip(src, dst))
        self.U = rng.random((200, 10))
        self.V = rng.random((60, 10))
        self.S = sp.random(2000, 2000, density=0.003, format="csr",
                           random_state=np.random.default_rng(0xBE7D))
        self.x = rng.random(2000)
        self.expected = self._work()

    def _work(self):
        ids, edges = {}, []
        h = hashlib.sha256()
        for line in self.text.splitlines():
            s, d, rel = line.split("\t")
            i = ids.setdefault(s, len(ids))
            j = ids.setdefault(d, len(ids))
            edges.append((i, j, 1.0))
            h.update(f"e\t{rel}\t{i}\t{j}\t{1.0!r}\n".encode())
        total = 0.0
        for _ in range(DENSE_REPEATS):
            p = 1.0 / (1.0 + np.exp(-(self.U @ self.V.T)))
            total += float(((p - 0.5) @ self.V).sum())
            total += float((self.S @ self.x).sum())
        return h.hexdigest(), len(edges), total

    def time(self):
        """Wall seconds of one pass; raises if the work came out different."""
        start = time.perf_counter()
        result = self._work()
        wall = time.perf_counter() - start
        if result != self.expected:
            raise RuntimeError("reference computation changed its result")
        return wall
