import numpy as np
import pytest

from mzsim import rng

MASK = (1 << 64) - 1


def reference_mix64(x):
    # Straight transcription of the splitmix64 reference finalizer,
    # kept separate from the library implementation on purpose.
    x &= MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK
    x ^= x >> 31
    return x


def reference_splitmix_sequence(state, n):
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        out.append(reference_mix64(state))
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, MASK])
def test_mix64_matches_reference(seed):
    for k in range(16):
        assert rng.mix64(seed + k * 977) == reference_mix64(seed + k * 977)


def test_draws_are_the_splitmix_stream_of_the_stream_key(seed=1234567):
    key = rng.stream_key(seed, 5)
    expected = reference_splitmix_sequence(key, 8)
    got = [rng.draw_u64(seed, 5, k) for k in range(8)]
    assert got == expected


def test_unit_matrix_matches_scalar_draws():
    u = rng.unit_matrix(seed=99, streams=17, draws=5)
    assert u.shape == (17, 5)
    for i in range(17):
        for k in range(5):
            assert u[i, k] == rng.draw_unit(99, i, k)


@pytest.mark.parametrize("seed", [0, 99, MASK])
def test_unit_matrix_from_a_first_stream_is_a_row_slice(seed):
    full = rng.unit_matrix(seed, 300, 4)
    for first, streams in ((0, 300), (0, 1), (7, 100), (299, 1), (123, 177)):
        block = rng.unit_matrix(seed, streams, 4, first)
        assert block.tobytes() == full[first:first + streams].tobytes()


def test_unit_matrix_far_first_stream_matches_scalar_draws():
    first = 2**40 + 5
    u = rng.unit_matrix(MASK, 3, 2, first)
    for i in range(3):
        for k in range(2):
            assert u[i, k] == rng.draw_unit(MASK, first + i, k)


def test_unit_range_and_spread():
    u = rng.unit_matrix(seed=3, streams=1000, draws=4)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.02
    assert len(np.unique(u)) == u.size


def test_substreams_do_not_collide():
    a = [rng.draw_u64(7, 0, k) for k in range(100)]
    b = [rng.draw_u64(7, 1, k) for k in range(100)]
    assert not set(a) & set(b)


def test_different_seeds_differ():
    assert rng.draw_u64(1, 0, 0) != rng.draw_u64(2, 0, 0)


def test_sampler_walks_the_counter():
    s = rng.SubstreamSampler(11, 3)
    assert [s.next_unit() for _ in range(4)] == \
        [rng.draw_unit(11, 3, k) for k in range(4)]
