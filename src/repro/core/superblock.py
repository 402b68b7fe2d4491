"""Superblocks: the variable-sized entries a code cache manages.

A superblock is a single-entry, multiple-exit region of translated code
(Hwu et al.).  For the cache-management study, the properties that matter
are its identity, its byte size, and its outgoing chaining links — the
paper's Section 3 explains why these (rather than fixed-size lines with a
backing store) are what distinguish code caches from hardware caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np
from numpy.typing import ArrayLike


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
    in ``sid`` order: ids, sizes and outgoing links.  The workload
    generators emit blocks ``0..n-1`` as a numpy size column and CSR
    link columns, which :meth:`from_csr` keeps and the one-pass sweep
    kernel reads as they are (:attr:`size_array`, :attr:`link_csr`);
    the constructor takes :class:`Superblock` objects with any ids.
    Each form is derived from the other on a caller's first request and
    kept, as are the :class:`Superblock` objects, the ``sid ->
    position`` map, the reverse link adjacency the link manager reads
    on every insertion (:meth:`incoming`) and the :meth:`sizes` map.
    So a set built from arrays reaches the kernel without a per-block
    Python object, and replay, the link manager and exporters get
    exactly the tuples they would from the object constructor.
    """

    def __init__(self, superblocks: Iterable[Superblock]) -> None:
        blocks = tuple(superblocks)
        self._fill(tuple(block.sid for block in blocks),
                   tuple(block.size_bytes for block in blocks),
                   tuple(block.links for block in blocks))
        self._blocks: tuple[Superblock, ...] | None = blocks

    @classmethod
    def from_csr(
        cls,
        sizes: ArrayLike,
        offsets: ArrayLike,
        targets: ArrayLike,
    ) -> "SuperblockSet":
        """A set of blocks ``0..n-1`` from a size column and CSR link
        columns: block ``i`` has size ``sizes[i]`` and links to
        ``targets[offsets[i]:offsets[i + 1]]``.

        The columns are validated with numpy and kept as read-only
        ``int64`` copies.  A set the checks reject is handed to the
        tuple path's validation, so a fault raises the same error as
        from the :class:`Superblock` constructor; offsets that do not
        rise from 0 to ``len(targets)``, one per block plus one, raise
        their own.  Sets with other ids come from that constructor.
        """
        sizes = np.array(sizes, dtype=np.int64)
        offsets = np.array(offsets, dtype=np.int64)
        targets = np.array(targets, dtype=np.int64)
        count = len(sizes)
        if (len(offsets) != count + 1 or offsets[0] != 0
                or offsets[-1] != len(targets)
                or (np.diff(offsets) < 0).any()):
            raise ValueError(
                f"CSR offsets must be {count + 1} non-decreasing values "
                f"from 0 to the target count {len(targets)}"
            )
        self = cls.__new__(cls)
        if not (count > 0 and sizes.min() > 0 and (not len(targets) or (
                targets.min() >= 0 and targets.max() < count))):
            flat, bounds = targets.tolist(), offsets.tolist()
            self._fill(tuple(range(count)), tuple(sizes.tolist()),
                       tuple(tuple(flat[start:end])
                             for start, end in zip(bounds, bounds[1:])))
        for column in (sizes, offsets, targets):
            column.flags.writeable = False
        self._count = count
        self._size_array = sizes
        self._csr = (offsets, targets)
        self._total_bytes = int(sizes.sum())
        self._max_block_bytes = int(sizes.max())
        self._incoming: dict[int, frozenset[int]] | None = None
        self._size_map: dict[int, int] | None = None
        self._blocks: tuple[Superblock, ...] | None = None
        return self

    def _fill(self, sids: tuple[int, ...], sizes: tuple[int, ...],
              links: tuple[tuple[int, ...], ...]) -> None:
        """Validate and keep the tuple columns; the first fault raises
        the error the :class:`Superblock` constructor path gives."""
        if not sids:
            raise ValueError("a superblock set cannot be empty")
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
        self._count = len(sids)
        self._sids = sids
        self._sizes = sizes
        self._links = links
        self._position = position
        self._total_bytes = sum(sizes)
        self._max_block_bytes = max(sizes)
        self._incoming: dict[int, frozenset[int]] | None = None
        self._size_map: dict[int, int] | None = None

    # -- Columns, each derived from the other form on first request -------

    @cached_property
    def _sids(self) -> tuple[int, ...]:
        return tuple(range(self._count))

    @cached_property
    def _sizes(self) -> tuple[int, ...]:
        return tuple(self._size_array.tolist())

    @cached_property
    def _links(self) -> tuple[tuple[int, ...], ...]:
        return self._build_links()

    @cached_property
    def _position(self) -> dict[int, int]:
        return dict(zip(self._sids, range(self._count)))

    @cached_property
    def _size_array(self) -> np.ndarray:
        sizes = np.fromiter(self._sizes, dtype=np.int64, count=self._count)
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        offsets = np.zeros(self._count + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, self._links), dtype=np.int64,
                              count=self._count), out=offsets[1:])
        targets = np.fromiter(chain.from_iterable(self._links),
                              dtype=np.int64, count=int(offsets[-1]))
        offsets.flags.writeable = targets.flags.writeable = False
        return offsets, targets

    def _build_links(self) -> tuple[tuple[int, ...], ...]:
        offsets, targets = self._csr
        flat, bounds = targets.tolist(), offsets.tolist()
        return tuple(tuple(flat[start:end])
                     for start, end in zip(bounds, bounds[1:]))

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
        return self._count

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

    @property
    def size_array(self) -> np.ndarray:
        """:attr:`size_column` as a read-only ``int64`` array."""
        return self._size_array

    @property
    def link_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`link_column` as read-only ``int64`` CSR columns
        ``(offsets, targets)``: the block at position ``i`` links to
        ``targets[offsets[i]:offsets[i + 1]]``."""
        return self._csr

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
        return len(self._csr[1]) / self._count

    def sizes(self) -> Mapping[int, int]:
        """``sid -> size_bytes`` for every superblock.  The map is built
        once and shared by every caller, so treat it as read-only."""
        if self._size_map is None:
            self._size_map = dict(zip(self._sids, self._sizes))
        return self._size_map
