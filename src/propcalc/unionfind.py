"""Disjoint-set forest over arbitrary hashable items."""

from __future__ import annotations


class UnionFind:
    """Union by size with path compression.  Items are added lazily on
    first sight; `find` returns a stable representative per class."""

    def __init__(self, items=()):
        self.parent: dict = {}
        self.size: dict = {}
        for item in items:
            self.add(item)

    def add(self, item) -> None:
        if item not in self.parent:
            self.parent[item] = item
            self.size[item] = 1

    def find(self, item):
        self.add(item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def groups(self) -> dict:
        """Representative -> sorted-insertion list of members."""
        out: dict = {}
        for item in self.parent:
            out.setdefault(self.find(item), []).append(item)
        return out
