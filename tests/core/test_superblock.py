"""Unit tests for superblocks and superblock sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.superblock import Superblock, SuperblockSet


class TestSuperblock:
    def test_basic_construction(self):
        block = Superblock(3, 128, links=(1, 3), source_address=0x40)
        assert block.sid == 3
        assert block.size_bytes == 128
        assert block.has_self_loop
        assert block.out_degree == 2

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Superblock(-1, 10)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            Superblock(0, 0)
        with pytest.raises(ValueError):
            Superblock(0, -5)

    def test_no_self_loop(self):
        assert not Superblock(1, 10, links=(2,)).has_self_loop


def _sample_set():
    return SuperblockSet([
        Superblock(0, 100, links=(1, 0)),
        Superblock(1, 200, links=(2,)),
        Superblock(2, 50, links=()),
    ])


class TestSuperblockSet:
    def test_lookup(self):
        blocks = _sample_set()
        assert blocks[1].size_bytes == 200
        assert 2 in blocks
        assert 9 not in blocks
        assert len(blocks) == 3

    def test_total_and_max_bytes(self):
        blocks = _sample_set()
        assert blocks.total_bytes == 350
        assert blocks.max_block_bytes == 200

    def test_incoming_reverses_outgoing(self):
        blocks = _sample_set()
        assert blocks.incoming(1) == {0}
        assert blocks.incoming(0) == {0}
        assert blocks.incoming(2) == {1}

    def test_outgoing(self):
        assert _sample_set().outgoing(0) == (1, 0)

    def test_mean_out_degree(self):
        assert _sample_set().mean_out_degree == pytest.approx(1.0)

    def test_sizes_map(self):
        assert _sample_set().sizes() == {0: 100, 1: 200, 2: 50}

    def test_sids(self):
        assert set(_sample_set().sids) == {0, 1, 2}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            SuperblockSet([Superblock(0, 10), Superblock(0, 20)])

    def test_dangling_link_rejected(self):
        with pytest.raises(ValueError):
            SuperblockSet([Superblock(0, 10, links=(5,))])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            SuperblockSet([])

    def test_iteration_yields_blocks(self):
        assert {b.sid for b in _sample_set()} == {0, 1, 2}


@st.composite
def _linked_population(draw):
    count = draw(st.integers(2, 20))
    blocks = []
    for sid in range(count):
        degree = draw(st.integers(0, 4))
        links = tuple(
            draw(st.integers(0, count - 1)) for _ in range(degree)
        )
        # Deduplicate (Superblock allows repeats but the set semantics
        # we test here are simpler without them).
        links = tuple(dict.fromkeys(links))
        blocks.append(Superblock(sid, draw(st.integers(1, 4096)), links=links))
    return SuperblockSet(blocks)


class TestSetProperties:
    @given(_linked_population())
    @settings(max_examples=50, deadline=None)
    def test_incoming_is_exact_reverse_of_outgoing(self, blocks):
        for block in blocks:
            for target in block.links:
                assert block.sid in blocks.incoming(target)
        for block in blocks:
            for source in blocks.incoming(block.sid):
                assert block.sid in blocks.outgoing(source)

    @given(_linked_population())
    @settings(max_examples=50, deadline=None)
    def test_total_bytes_is_sum(self, blocks):
        assert blocks.total_bytes == sum(b.size_bytes for b in blocks)


@st.composite
def _columns(draw):
    """Parallel sid/size/link columns: dense or arbitrary unique sids,
    out-links that may repeat and may loop."""
    count = draw(st.integers(1, 20))
    if draw(st.booleans()):
        sids = list(range(count))
    else:
        sids = draw(st.lists(st.integers(0, 10_000), min_size=count,
                             max_size=count, unique=True))
    sizes = draw(st.lists(st.integers(1, 4096), min_size=count,
                          max_size=count))
    links = [tuple(draw(st.lists(st.sampled_from(sids), max_size=5)))
             for _ in sids]
    return sids, sizes, links


def _from_objects(sids, sizes, links):
    return SuperblockSet(Superblock(sid, size, links=targets)
                         for sid, size, targets in zip(sids, sizes, links))


def _from_arrays(sids, sizes, links):
    dense = sids == list(range(len(sids)))
    return SuperblockSet.from_arrays(sizes, links,
                                     sids=None if dense else sids)


class TestArrayConstructor:
    """``from_arrays`` and the Superblock constructor fill one storage:
    every query agrees, and both reject the same inputs alike."""

    @given(_columns())
    @settings(max_examples=100, deadline=None)
    def test_both_constructors_agree(self, columns):
        sids, sizes, links = columns
        arrays, objects = _from_arrays(*columns), _from_objects(*columns)
        assert arrays.sids == objects.sids == tuple(sids)
        assert arrays.sizes() == objects.sizes() == dict(zip(sids, sizes))
        assert arrays.link_column == objects.link_column == tuple(links)
        assert arrays.total_bytes == objects.total_bytes
        assert arrays.max_block_bytes == objects.max_block_bytes
        assert arrays.mean_out_degree == objects.mean_out_degree
        assert len(arrays) == len(objects)
        for sid in objects.sids:
            assert sid in arrays
            assert arrays.outgoing(sid) == objects.outgoing(sid)
            assert arrays.incoming(sid) == objects.incoming(sid)
            assert arrays.size_of(sid) == objects.size_of(sid)
            assert arrays[sid] == objects[sid]
        assert list(arrays) == list(objects)

    @given(_columns(), st.sampled_from(
        ("empty", "duplicate", "unknown", "zero-size", "negative-size",
         "negative-sid")), st.data())
    @settings(max_examples=100, deadline=None)
    def test_both_constructors_reject_alike(self, columns, fault, data):
        sids, sizes, links = (list(column) for column in columns)
        at = data.draw(st.integers(0, len(sids) - 1))
        if fault == "empty":
            sids, sizes, links = [], [], []
        elif fault == "duplicate":
            sids.append(sids[at])
            sizes.append(1)
            links.append(())
        elif fault == "unknown":
            links[at] += (max(sids) + 1,)
        elif fault == "zero-size":
            sizes[at] = 0
        elif fault == "negative-size":
            sizes[at] = -sizes[at]
        else:
            sids[at] = -1 - sids[at]
        with pytest.raises(ValueError) as from_arrays:
            SuperblockSet.from_arrays(sizes, links, sids=sids)
        with pytest.raises(ValueError) as from_objects:
            _from_objects(sids, sizes, links)
        assert str(from_arrays.value) == str(from_objects.value)

    def test_columns_must_be_parallel(self):
        with pytest.raises(ValueError, match="as many sizes"):
            SuperblockSet.from_arrays([10, 20], [()])

    def test_columns_are_what_was_given(self):
        blocks = SuperblockSet.from_arrays([10, 20], [(1,), (0, 1)])
        assert blocks.size_column == (10, 20)
        assert blocks.link_column == ((1,), (0, 1))
        assert blocks.incoming(1) == {0, 1}
        assert blocks[1] == Superblock(1, 20, links=(0, 1))
        assert blocks.sizes() is blocks.sizes()
