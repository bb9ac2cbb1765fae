import pytest

from symkl.streams import (
    TAG_BLOCK,
    TAG_SCRATCH,
    auxiliary_stream,
    block_stream,
    replication_stream,
)


class TestBlockStream:
    def test_reproducible(self):
        assert block_stream(7, 2, 5).random() == block_stream(7, 2, 5).random()

    @pytest.mark.parametrize("index", [0, 1, 150])
    def test_disjoint_from_other_domains_for_same_numbers(self, index):
        first = block_stream(7, 1, index).random()
        assert first != replication_stream(7, 1, index).random()
        for tag in (1, TAG_SCRATCH):
            assert first != auxiliary_stream(7, tag, index).random()
            assert first != auxiliary_stream(7, tag, 1).random()

    def test_key_fields_select_the_stream(self):
        first = block_stream(7, 1, 0).random()
        assert first != block_stream(8, 1, 0).random()
        assert first != block_stream(7, 2, 0).random()
        assert first != block_stream(7, 1, 1).random()

    def test_index_range(self):
        block_stream(0, (1 << 16) - 1, (1 << 32) - 1)
        with pytest.raises(ValueError, match="n_index"):
            block_stream(0, 1 << 16, 0)
        with pytest.raises(ValueError, match="block_index"):
            block_stream(0, 0, 1 << 32)

    def test_auxiliary_stream_cannot_alias_a_block_stream(self):
        with pytest.raises(ValueError, match="auxiliary tags"):
            auxiliary_stream(7, TAG_BLOCK, 1)
