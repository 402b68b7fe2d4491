"""Superblocks: the variable-sized entries a code cache manages.

A superblock is a single-entry, multiple-exit region of translated code
(Hwu et al.).  For the cache-management study, the properties that matter
are its identity, its byte size, and its outgoing chaining links — the
paper's Section 3 explains why these (rather than fixed-size lines with a
backing store) are what distinguish code caches from hardware caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True)
class Superblock:
    """One translated code region.

    Attributes
    ----------
    sid:
        Stable integer identity, unique within a workload.
    size_bytes:
        Encoded size of the translated code, exit stubs included.
    links:
        ``sid``\\ s of the superblocks this one may chain to (its exit
        targets).  A superblock may link to itself (a loop) — the paper
        notes this is why even per-superblock FIFO has intra-unit links.
    source_address:
        Original-code PC the superblock was formed at, when known.
    """

    sid: int
    size_bytes: int
    links: tuple[int, ...] = field(default=())
    source_address: int | None = None

    def __post_init__(self) -> None:
        if self.sid < 0:
            raise ValueError(f"superblock id must be non-negative, got {self.sid}")
        if self.size_bytes <= 0:
            raise ValueError(
                f"superblock {self.sid} must have positive size, "
                f"got {self.size_bytes}"
            )

    @property
    def has_self_loop(self) -> bool:
        return self.sid in self.links

    @property
    def out_degree(self) -> int:
        return len(self.links)


class SuperblockSet:
    """An immutable collection of superblocks indexed by ``sid``.

    This is the static population a workload can touch; the cache holds a
    resident subset of it at any moment.  It is stored as three columns
    in ``sid`` order — ids, sizes and outgoing link tuples — which is
    what the workload generators emit (:meth:`from_arrays`) and what the
    one-pass sweep kernel marshals from (:attr:`size_column`,
    :attr:`link_column`).  The :class:`Superblock` objects, the reverse
    link adjacency the link manager reads on every insertion
    (:meth:`incoming`) and the :meth:`sizes` map are built on a caller's
    first request and kept.
    """

    def __init__(self, superblocks: Iterable[Superblock]) -> None:
        blocks = tuple(superblocks)
        self._fill(tuple(block.sid for block in blocks),
                   tuple(block.size_bytes for block in blocks),
                   tuple(block.links for block in blocks))
        self._blocks: tuple[Superblock, ...] | None = blocks

    @classmethod
    def from_arrays(
        cls,
        sizes: Iterable[int],
        links: Iterable[tuple[int, ...]],
        sids: Iterable[int] | None = None,
    ) -> "SuperblockSet":
        """A set from parallel columns: ``sizes[i]`` and ``links[i]``
        belong to block ``sids[i]`` (``sids`` defaults to ``0..n-1``).

        Validated exactly like the :class:`Superblock` constructor path,
        with the same errors; no :class:`Superblock` is built.
        """
        self = cls.__new__(cls)
        # A numpy array converts to Python ints in one call.
        sizes = tuple(sizes.tolist() if hasattr(sizes, "tolist")
                      else map(int, sizes))
        self._fill(tuple(range(len(sizes))) if sids is None
                   else tuple(map(int, sids)),
                   sizes, tuple(links))
        self._blocks = None
        return self

    def _fill(self, sids: tuple[int, ...], sizes: tuple[int, ...],
              links: tuple[tuple[int, ...], ...]) -> None:
        if len(sizes) != len(sids) or len(links) != len(sids):
            raise ValueError(
                f"{len(sids)} superblock ids need as many sizes and link "
                f"tuples, got {len(sizes)} and {len(links)}"
            )
        if not sids:
            raise ValueError("a superblock set cannot be empty")
        if min(sids) < 0:
            sid = next(sid for sid in sids if sid < 0)
            raise ValueError(f"superblock id must be non-negative, got {sid}")
        if min(sizes) <= 0:
            sid, size = next(pair for pair in zip(sids, sizes) if pair[1] <= 0)
            raise ValueError(
                f"superblock {sid} must have positive size, got {size}"
            )
        position = dict(zip(sids, range(len(sids))))
        if len(position) != len(sids):
            seen: set[int] = set()
            duplicate = next(sid for sid in sids
                             if sid in seen or seen.add(sid))
            raise ValueError(f"duplicate superblock id {duplicate}")
        if not position.keys() >= set(chain.from_iterable(links)):
            sid, target = next((sid, target)
                               for sid, targets in zip(sids, links)
                               for target in targets
                               if target not in position)
            raise ValueError(
                f"superblock {sid} links to unknown superblock {target}"
            )
        self._sids = sids
        self._sizes = sizes
        self._links = links
        self._position = position
        self._total_bytes = sum(sizes)
        self._max_block_bytes = max(sizes)
        self._incoming: dict[int, frozenset[int]] | None = None
        self._size_map: dict[int, int] | None = None

    def _superblocks(self) -> tuple[Superblock, ...]:
        if self._blocks is None:
            self._blocks = tuple(
                Superblock(sid, size, links=links)
                for sid, size, links in zip(self._sids, self._sizes,
                                            self._links)
            )
        return self._blocks

    def _build_incoming(self) -> dict[int, frozenset[int]]:
        incoming: dict[int, set[int]] = {sid: set() for sid in self._sids}
        for sid, targets in zip(self._sids, self._links):
            for target in targets:
                incoming[target].add(sid)
        return {sid: frozenset(sources) for sid, sources in incoming.items()}

    # -- Queries -----------------------------------------------------------

    def __getitem__(self, sid: int) -> Superblock:
        return self._superblocks()[self._position[sid]]

    def __contains__(self, sid: int) -> bool:
        return sid in self._position

    def __len__(self) -> int:
        return len(self._sids)

    def __iter__(self) -> Iterator[Superblock]:
        return iter(self._superblocks())

    @property
    def sids(self) -> tuple[int, ...]:
        return self._sids

    @property
    def size_column(self) -> tuple[int, ...]:
        """Every block's size, parallel to :attr:`sids`."""
        return self._sizes

    @property
    def link_column(self) -> tuple[tuple[int, ...], ...]:
        """Every block's outgoing link tuple, parallel to :attr:`sids`."""
        return self._links

    def size_of(self, sid: int) -> int:
        return self._sizes[self._position[sid]]

    def incoming(self, sid: int) -> frozenset[int]:
        """The ``sid``\\ s of blocks that link to *sid* (self included)."""
        if self._incoming is None:
            self._incoming = self._build_incoming()
        return self._incoming[sid]

    def outgoing(self, sid: int) -> tuple[int, ...]:
        return self._links[self._position[sid]]

    @property
    def total_bytes(self) -> int:
        """Sum of all superblock sizes — the paper's ``maxCache`` term,
        the size an unbounded cache would grow to."""
        return self._total_bytes

    @property
    def max_block_bytes(self) -> int:
        return self._max_block_bytes

    @property
    def mean_out_degree(self) -> float:
        """Average outbound links per superblock (the Figure 12 metric)."""
        return sum(map(len, self._links)) / len(self._sids)

    def sizes(self) -> Mapping[int, int]:
        """``sid -> size_bytes`` for every superblock.  The map is built
        once and shared by every caller, so treat it as read-only."""
        if self._size_map is None:
            self._size_map = dict(zip(self._sids, self._sizes))
        return self._size_map
