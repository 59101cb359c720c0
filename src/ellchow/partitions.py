"""Set partitions of marking sets, the refinement order, and singularity
specifications for modular compactifications.

Conventions used throughout the package:

* the ground set is ``{1, ..., n}``;
* a partition is written ``1 3|2 4`` — blocks separated by ``|``, elements
  by spaces — with blocks listed by smallest element;
* ``refines(coarse, fine)`` holds when every block of ``fine`` is contained
  in a block of ``coarse``; the coarsest partition has a single block and
  the finest consists of singletons;
* the *codimension* of a partition is its number of non-singleton blocks.

A :class:`QSpec` names a modular compactification by the set of partitions
whose singularity type is allowed; the set must exclude the all-singleton
partition and be closed under coarsening.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class SetPartition:
    """A partition of ``{1..n}`` in canonical form: blocks sorted
    ascending internally and listed by smallest element."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            for a, b in zip(block, block[1:]):
                if a == b:
                    raise ValueError(f"marking {a} repeated in block {block}")
                if a > b:
                    raise ValueError(f"block not sorted: {block}")
            if seen & set(block):
                raise ValueError("blocks overlap")
            seen |= set(block)
        if seen != set(range(1, self.n + 1)):
            raise ValueError(
                f"blocks do not cover 1..{self.n}: {sorted(seen)}"
            )
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks not listed by smallest element")

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]], n: int) -> "SetPartition":
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        return cls(n, canon)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "SetPartition":
        def marking(tok: str) -> int:
            try:
                return int(tok)
            except ValueError:
                raise ValueError(
                    f"marking {tok!r} of partition {text!r} is not an integer"
                ) from None

        blocks = [
            [marking(tok) for tok in chunk.split()]
            for chunk in text.strip().split("|")
        ]
        for i, block in enumerate(blocks, start=1):
            if not block:
                raise ValueError(f"block {i} of partition {text!r} is empty")
        size = max((e for b in blocks for e in b), default=0)
        if n is None:
            n = size
        return cls.of(blocks, n)

    def text(self) -> str:
        return "|".join(" ".join(str(e) for e in b) for b in self.blocks)

    def __str__(self) -> str:
        return self.text()

    @property
    def length(self) -> int:
        return len(self.blocks)

    def shape(self) -> tuple[int, ...]:
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def codim(self) -> int:
        return sum(1 for b in self.blocks if len(b) >= 2)

    def nonsingleton_blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(b for b in self.blocks if len(b) >= 2)

    def block_of(self, element: int) -> tuple[int, ...]:
        for b in self.blocks:
            if element in b:
                return b
        raise ValueError(f"element {element} not in ground set")


def s_min(n: int) -> SetPartition:
    """The coarsest partition: one block."""
    return SetPartition.of([range(1, n + 1)], n)


def s_max(n: int) -> SetPartition:
    """The finest partition: all singletons."""
    return SetPartition.of([[i] for i in range(1, n + 1)], n)


def set_partitions(items: tuple[int, ...]) -> Iterator[list[list[int]]]:
    """All partitions of ``items`` into blocks, each block in item order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[SetPartition, ...]:
    """All partitions of ``{1..n}``, sorted by (number of blocks, blocks)."""
    if n < 1:
        raise ValueError("ground set must be nonempty")
    parts = [SetPartition.of(p, n) for p in set_partitions(tuple(range(1, n + 1)))]
    parts.sort(key=lambda p: (p.length, p.blocks))
    return tuple(parts)


def partitions_of_length(n: int, m: int) -> tuple[SetPartition, ...]:
    return tuple(p for p in enumerate_partitions(n) if p.length == m)


def refines(coarse: SetPartition, fine: SetPartition) -> bool:
    """True when every block of ``fine`` lies inside a block of ``coarse``."""
    if coarse.n != fine.n:
        raise ValueError("partitions on different ground sets")
    for block in fine.blocks:
        home = coarse.block_of(block[0])
        if not set(block) <= set(home):
            return False
    return True


def compose(p: SetPartition, s: SetPartition) -> SetPartition:
    """The partition induced by ``p`` on the blocks of ``s``.

    Requires ``refines(p, s)``; block ``i`` of ``s`` (1-based, canonical
    order) is grouped with block ``j`` whenever both lie in the same block
    of ``p``.  The result partitions ``{1..s.length}`` and has ``p.length``
    blocks.
    """
    if not refines(p, s):
        raise ValueError("compose requires the first partition to be coarser")
    owner: dict[int, list[int]] = {}
    for i, block in enumerate(s.blocks, start=1):
        home = p.block_of(block[0])
        owner.setdefault(home[0], []).append(i)
    return SetPartition.of(owner.values(), s.length)


def disc_completion(blocks: Iterable[Iterable[int]], n: int) -> SetPartition:
    """The partition whose non-singleton blocks are the given disjoint
    subsets, completed by singletons."""
    listed = [tuple(sorted(b)) for b in blocks]
    used = {e for b in listed for e in b}
    singletons = [(i,) for i in range(1, n + 1) if i not in used]
    return SetPartition.of(list(listed) + singletons, n)


def incomparable(b1: Iterable[int], b2: Iterable[int]) -> bool:
    """True when the two subsets neither nest nor are disjoint."""
    s1, s2 = set(b1), set(b2)
    return bool(s1 & s2) and not (s1 <= s2) and not (s2 <= s1)


BKN_CONVENTION = "BKN-allowed-singularities"


def marking_count(value, what: str) -> int:
    """A marking count read from JSON: an integer or its decimal text."""
    try:
        if isinstance(value, str) or type(value) is int:
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"{what} is {json.dumps(value)}, not an integer")


@dataclass(frozen=True)
class QSpec:
    """A modular compactification, named by its allowed singularity types.

    ``allowed`` holds every partition whose associated singular curve is
    permitted; the all-singleton partition (the smooth locus stand-in) is
    never listed, and the set is closed under coarsening.
    """

    n: int
    allowed: frozenset[SetPartition]

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QSpec":
        texts = obj.get("allowed", []) if isinstance(obj, dict) else None
        if not (
            isinstance(texts, list)
            and all(isinstance(t, str) for t in texts)
            and isinstance(obj.get("n"), (int, str))
        ):
            raise ValueError(
                'a singularity specification is an object with a marking '
                'count "n" and a list of partition texts "allowed"'
            )
        n = marking_count(
            obj["n"], 'the marking count "n" of a singularity specification'
        )
        convention = obj.get("convention", BKN_CONVENTION)
        if convention != BKN_CONVENTION:
            raise ValueError(f"unknown singularity convention {convention!r}")
        q = cls(n, frozenset(SetPartition.parse(t, n) for t in texts))
        validate_qspec(q)
        return q

    @classmethod
    def load(cls, path: str) -> "QSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_obj(json.load(fh))


def validate_qspec(q: QSpec) -> None:
    if q.n < 1:
        raise ValueError("ground set must be nonempty")
    top = s_max(q.n)
    for s in q.allowed:
        if s.n != q.n:
            raise ValueError("partition on wrong ground set")
        if s == top:
            raise ValueError("the all-singleton partition is never allowed")
    for s in q.allowed:
        for t in enumerate_partitions(q.n):
            if refines(t, s) and t not in q.allowed:
                raise ValueError(
                    f"not closed under coarsening: {s.text()} allowed "
                    f"but {t.text()} missing"
                )


def dm_space(n: int) -> QSpec:
    """The stable compactification: no extra singularities allowed."""
    return QSpec(n, frozenset())


def smyth(n: int, m: int) -> QSpec:
    """Allow every singularity with at most ``m`` branches."""
    if not 1 <= m <= n - 1:
        raise ValueError("branch bound must be between 1 and n-1")
    allowed = frozenset(
        p for p in enumerate_partitions(n) if p.length <= m
    )
    return QSpec(n, allowed)


def lp_minimal(n: int) -> QSpec:
    """The minimal log-canonically polarised compactification: every
    singularity short of the all-singleton type is allowed."""
    return QSpec(n, frozenset(enumerate_partitions(n)) - {s_max(n)})
