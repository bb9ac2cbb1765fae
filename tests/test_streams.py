import pytest

from symkl.streams import block_stream, replication_stream


class TestBlockStream:
    def test_reproducible(self):
        assert block_stream(7, 2, 5).random() == block_stream(7, 2, 5).random()

    @pytest.mark.parametrize("index", [0, 1, 150])
    def test_disjoint_from_other_domains_for_same_numbers(self, index):
        first = block_stream(7, 1, index).random()
        assert first != replication_stream(7, 1, index).random()

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


class TestStreamKeys:
    @pytest.mark.parametrize("stream", [replication_stream, block_stream])
    @pytest.mark.parametrize("seed", [-1, 1 << 64, 5 * (1 << 64) - 1])
    def test_seed_outside_64_bits_rejected(self, stream, seed):
        # no wrap onto the key: each of these once named seed 2**64 - 1's stream
        with pytest.raises(ValueError, match="master_seed"):
            stream(seed, 0, 0)

    @pytest.mark.parametrize("stream", [replication_stream, block_stream])
    def test_seed_range_ends_accepted(self, stream):
        assert stream(0, 0, 0).random() != stream((1 << 64) - 1, 0, 0).random()

    def test_fractional_fields_rejected(self):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            replication_stream(1.5, 0, 0)
        with pytest.raises(ValueError, match="n_index must be an integer"):
            block_stream(1, 0.5, 0)
        with pytest.raises(ValueError, match="block_index must be an integer"):
            block_stream(1, 0, 0.5)

    def test_integral_floats_keep_their_key(self):
        assert block_stream(7.0, 1.0, 2.0).random() == block_stream(7, 1, 2).random()
