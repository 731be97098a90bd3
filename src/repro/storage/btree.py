"""B-tree mapping set identifiers to heap record ids.

Query answering in the paper "is a two step process.  First the set of
candidate set identifiers is fetched ... and then the corresponding
sets are retrieved from disk, using a conventional data structure such
as a B-tree supporting queries on set identifier."  This module is that
conventional structure: a classic min-degree B-tree (CLRS style) whose
every node occupies one page, so a point lookup costs ``height`` random
reads.

The tree supports insert, search, delete and in-order range scans; it
is deliberately general (arbitrary orderable keys) so it can double as
the dictionary for other experiments.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.storage.pager import PageManager


class _Node:
    __slots__ = ("keys", "values", "children", "page_id")

    def __init__(self, page_id: int):
        self.keys: list[Any] = []
        self.values: list[Any] = []
        self.children: list[_Node] = []
        self.page_id = page_id

    @property
    def is_leaf(self) -> bool:
        """Whether this node has no children."""
        return not self.children


class BTree:
    """A B-tree with minimum degree ``t`` (max ``2t - 1`` keys per node).

    Parameters
    ----------
    pager:
        Page source; node visits are charged as random reads.
    min_degree:
        The classic B-tree ``t`` parameter; default 64 gives realistic
        fanout for 4 KiB pages of (sid, rid) entries.
    cache:
        Which node visits are charged to the I/O model:
        ``"none"`` charges every node on the search path;
        ``"inner"`` (default) assumes inner nodes are memory
        resident and charges leaf visits only -- standard costing for a
        warm index;
        ``"all"`` charges nothing -- the whole index is hot, which is
        the regime the paper's crossover estimate assumes (a candidate
        lookup costs just the data-page random read).
    """

    def __init__(self, pager: PageManager, min_degree: int = 64, cache: str = "inner"):
        if min_degree < 2:
            raise ValueError(f"min_degree must be >= 2, got {min_degree}")
        if cache not in ("none", "inner", "all"):
            raise ValueError(f"cache must be 'none', 'inner' or 'all', got {cache!r}")
        self.pager = pager
        self.t = min_degree
        self.cache = cache
        self._root = self._new_node()
        self._n_keys = 0

    def _new_node(self) -> _Node:
        page = self.pager.allocate(capacity=1)
        node = _Node(page.page_id)
        page.append(node)
        return node

    def _touch(self, node: _Node) -> None:
        if self.cache == "all":
            return
        if self.cache == "inner" and not node.is_leaf:
            return
        self.pager.read(node.page_id, sequential=False)

    @property
    def n_keys(self) -> int:
        """Number of keys stored in the tree."""
        return self._n_keys

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is just the root)."""
        levels, node = 1, self._root
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    # -- search ---------------------------------------------------------

    def search(self, key: Any) -> Any:
        """Return the value stored under ``key``; raises KeyError if absent."""
        node = self._root
        while True:
            self._touch(node)
            i = _lower_bound(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                return node.values[i]
            if node.is_leaf:
                raise KeyError(key)
            node = node.children[i]

    def __contains__(self, key: Any) -> bool:
        try:
            self.search(key)
        except KeyError:
            return False
        return True

    def range_scan(self, low: Any, high: Any) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) pairs with ``low <= key <= high`` in order."""
        yield from self._range(self._root, low, high)

    def _range(self, node: _Node, low: Any, high: Any) -> Iterator[tuple[Any, Any]]:
        self._touch(node)
        i = _lower_bound(node.keys, low)
        if node.is_leaf:
            while i < len(node.keys) and node.keys[i] <= high:
                yield node.keys[i], node.values[i]
                i += 1
            return
        while True:
            yield from self._range(node.children[i], low, high)
            if i >= len(node.keys) or node.keys[i] > high:
                return
            yield node.keys[i], node.values[i]
            i += 1

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in key order."""
        yield from self._items(self._root)

    def _items(self, node: _Node) -> Iterator[tuple[Any, Any]]:
        if node.is_leaf:
            yield from zip(node.keys, node.values)
            return
        for i, key in enumerate(node.keys):
            yield from self._items(node.children[i])
            yield key, node.values[i]
        yield from self._items(node.children[-1])

    # -- insert ---------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert a key/value pair; an existing key's value is replaced."""
        root = self._root
        if len(root.keys) == 2 * self.t - 1:
            new_root = self._new_node()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
            root = new_root
        self._insert_nonfull(root, key, value)

    def _split_child(self, parent: _Node, index: int) -> None:
        t = self.t
        child = parent.children[index]
        sibling = self._new_node()
        mid_key, mid_value = child.keys[t - 1], child.values[t - 1]
        sibling.keys = child.keys[t:]
        sibling.values = child.values[t:]
        child.keys = child.keys[: t - 1]
        child.values = child.values[: t - 1]
        if not child.is_leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]
        parent.keys.insert(index, mid_key)
        parent.values.insert(index, mid_value)
        parent.children.insert(index + 1, sibling)
        self.pager.write(parent.page_id)
        self.pager.write(child.page_id)
        self.pager.write(sibling.page_id)

    def _insert_nonfull(self, node: _Node, key: Any, value: Any) -> None:
        while True:
            self._touch(node)
            i = _lower_bound(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i] = value
                self.pager.write(node.page_id)
                return
            if node.is_leaf:
                node.keys.insert(i, key)
                node.values.insert(i, value)
                self.pager.write(node.page_id)
                self._n_keys += 1
                return
            if len(node.children[i].keys) == 2 * self.t - 1:
                self._split_child(node, i)
                if key == node.keys[i]:
                    node.values[i] = value
                    self.pager.write(node.page_id)
                    return
                if key > node.keys[i]:
                    i += 1
            node = node.children[i]

    # -- delete ---------------------------------------------------------

    def delete(self, key: Any) -> None:
        """Remove ``key``; raises KeyError if absent."""
        self._delete(self._root, key)
        if not self._root.keys and not self._root.is_leaf:
            old_root = self._root
            self._root = self._root.children[0]
            self.pager.free(old_root.page_id)
        self._n_keys -= 1

    def _delete(self, node: _Node, key: Any) -> None:
        t = self.t
        self._touch(node)
        i = _lower_bound(node.keys, key)
        found = i < len(node.keys) and node.keys[i] == key
        if node.is_leaf:
            if not found:
                raise KeyError(key)
            node.keys.pop(i)
            node.values.pop(i)
            self.pager.write(node.page_id)
            return
        if found:
            left, right = node.children[i], node.children[i + 1]
            if len(left.keys) >= t:
                pred_key, pred_value = self._max_entry(left)
                node.keys[i], node.values[i] = pred_key, pred_value
                self.pager.write(node.page_id)
                self._delete(left, pred_key)
            elif len(right.keys) >= t:
                succ_key, succ_value = self._min_entry(right)
                node.keys[i], node.values[i] = succ_key, succ_value
                self.pager.write(node.page_id)
                self._delete(right, succ_key)
            else:
                self._merge_children(node, i)
                self._delete(left, key)
            return
        child = node.children[i]
        if len(child.keys) < t:
            child = self._fill_child(node, i)
        self._delete(child, key)

    def _max_entry(self, node: _Node) -> tuple[Any, Any]:
        while not node.is_leaf:
            self._touch(node)
            node = node.children[-1]
        self._touch(node)
        return node.keys[-1], node.values[-1]

    def _min_entry(self, node: _Node) -> tuple[Any, Any]:
        while not node.is_leaf:
            self._touch(node)
            node = node.children[0]
        self._touch(node)
        return node.keys[0], node.values[0]

    def _merge_children(self, node: _Node, i: int) -> None:
        """Merge children i and i+1 around separator key i."""
        left, right = node.children[i], node.children[i + 1]
        left.keys.append(node.keys.pop(i))
        left.values.append(node.values.pop(i))
        left.keys.extend(right.keys)
        left.values.extend(right.values)
        left.children.extend(right.children)
        node.children.pop(i + 1)
        self.pager.free(right.page_id)
        self.pager.write(node.page_id)
        self.pager.write(left.page_id)

    def _fill_child(self, node: _Node, i: int) -> _Node:
        """Ensure child i has at least t keys before descending into it."""
        t = self.t
        child = node.children[i]
        if i > 0 and len(node.children[i - 1].keys) >= t:
            left = node.children[i - 1]
            child.keys.insert(0, node.keys[i - 1])
            child.values.insert(0, node.values[i - 1])
            node.keys[i - 1] = left.keys.pop()
            node.values[i - 1] = left.values.pop()
            if not left.is_leaf:
                child.children.insert(0, left.children.pop())
            self.pager.write(node.page_id)
            self.pager.write(left.page_id)
            self.pager.write(child.page_id)
            return child
        if i < len(node.children) - 1 and len(node.children[i + 1].keys) >= t:
            right = node.children[i + 1]
            child.keys.append(node.keys[i])
            child.values.append(node.values[i])
            node.keys[i] = right.keys.pop(0)
            node.values[i] = right.values.pop(0)
            if not right.is_leaf:
                child.children.append(right.children.pop(0))
            self.pager.write(node.page_id)
            self.pager.write(right.page_id)
            self.pager.write(child.page_id)
            return child
        if i < len(node.children) - 1:
            self._merge_children(node, i)
            return node.children[i]
        self._merge_children(node, i - 1)
        return node.children[i - 1]


def _lower_bound(keys: list[Any], key: Any) -> int:
    """Index of the first element >= key (binary search)."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo
