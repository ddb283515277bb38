"""A per-edge network build, kept as the reference for `TransactionNetwork`.

This is the build `TransactionNetwork.__init__` replaced: every edge is
checked in turn, in a Python loop, and the two CSR tables come from a
dict of links keyed `supplier * n + customer` and bisected per row. It
is plain Python, so a property test can hold the columnar build to the
same tables and the same error text.
"""

import math
from bisect import bisect_left


class PerEdgeNetwork:
    """firms, index, customers and suppliers as `TransactionNetwork`
    holds them, built edge by edge."""

    def __init__(self, firms, edges=()) -> None:
        self.firms = tuple(sorted(set(firms)))
        self.index = index = {f: i for i, f in enumerate(self.firms)}
        n = len(self.firms)
        links: dict[int, float] = {}  # k by supplier * n + customer
        for supplier, customer, k in edges:
            if supplier not in index or customer not in index:
                raise ValueError(f"edge ({supplier!r}, {customer!r}) references unknown firm")
            if supplier == customer:
                raise ValueError(f"self-loop on {supplier!r}")
            key = index[supplier] * n + index[customer]
            if key in links:
                raise ValueError(f"duplicate edge ({supplier!r}, {customer!r})")
            if not math.isfinite(k):
                raise ValueError(f"edge ({supplier!r}, {customer!r}) has non-finite k")
            links[key] = float(k)
        self.customers = _csr(links, n)
        self.suppliers = _csr({key % n * n + key // n: k for key, k in links.items()}, n)


def _csr(links: dict[int, float], n: int) -> tuple:
    """(offsets, positions, k) of links keyed row * n + position."""
    keys = sorted(links)
    return (tuple(bisect_left(keys, i * n) for i in range(n + 1)),
            tuple(key % n for key in keys), tuple(map(links.__getitem__, keys)))
