"""The block forms of the hot draws against numpy's own one-call-at-a-time draws."""

import itertools
import zlib
from bisect import bisect_right

import numpy as np
import pytest

from edgeadmit import rng as rngmod
from edgeadmit.rng import (
    BLOCK, block_indices, exploration_draws, substream, substreams, user_uniforms,
)

DOMAINS = ("scenario-init", "scenario-toggle", "scenario-pop")
EDGES = (0, 2**31, 2**32 - 1)


def numpy_user_uniform(seed, domain, uid, step):
    """The scalar user draw straight from numpy: ``SeedSequence``, ``PCG64``, ``random()``."""
    entropy = (seed, zlib.crc32(domain.encode()), uid, step)
    return np.random.default_rng(np.random.SeedSequence(entropy)).random()


def test_user_uniforms_equal_numpy_on_random_values():
    gen = np.random.default_rng(2023)
    for seed in gen.integers(0, 2**32, 30).tolist():
        uids, steps = gen.integers(0, 2**32, (2, 100))
        domains = np.array(DOMAINS)[gen.integers(0, 3, 100)]
        got = user_uniforms(seed, domains, uids, steps)
        want = [numpy_user_uniform(seed, *key)
                for key in zip(domains.tolist(), uids.tolist(), steps.tolist())]
        assert got.tolist() == want


def test_user_uniforms_at_the_word_edges():
    # every 0 / 2**31 / 2**32 - 1 combination of the seed, the user id and
    # the step, and, below the domain's CRC, of all four entropy words
    for seed, uid, step in itertools.product(EDGES, repeat=3):
        got = user_uniforms(seed, "scenario-pop", uid, step)
        assert got.shape == ()
        assert got.item() == numpy_user_uniform(seed, "scenario-pop", uid, step)
    words = np.array(list(itertools.product(EDGES, repeat=4)), dtype=np.uint32).T
    want = [np.random.default_rng(np.random.SeedSequence(tuple(w))).random()
            for w in words.T.tolist()]
    assert rngmod._four_word_uniforms(list(words)).tolist() == want


def test_user_uniforms_fall_back_past_one_entropy_word():
    # a value of 2**32 or more has two entropy words: those draws, and a
    # whole call under such a seed, take the scalar form; the rest of the
    # call does not
    uids = [0, 2**32 - 1, 2**32, 7, 2**40]
    steps = [2**40, 5, 2**32 - 1, 2**32, 3]
    for seed in (2**32 - 1, 2**32, 2**32 + 5, 2**64 + 1):
        got = user_uniforms(seed, "scenario-toggle", uids, steps)
        assert got.tolist() == [numpy_user_uniform(seed, "scenario-toggle", u, s)
                                for u, s in zip(uids, steps)]
    with pytest.raises(ValueError):
        user_uniforms(0, "scenario-pop", [1, -1], 3)


def test_user_uniforms_broadcast_a_users_by_draws_grid():
    uids = np.arange(24)[:, None]
    draws = [("scenario-toggle", s) for s in range(10, 100, 10)] + [("scenario-pop", 100)]
    domains, steps = zip(*draws)
    grid = user_uniforms(11, domains, uids, steps)
    assert grid.shape == (24, len(draws))
    assert grid.tolist() == [[rngmod.user_uniform(11, d, u, s) for d, s in draws]
                             for u in range(24)]
    assert user_uniforms(11, "scenario-pop", np.arange(0)[:, None], [3, 4]).shape == (0, 2)


def test_substreams_equal_substream_draw_for_draw():
    # random seeds of one word, and the edges of one to five entropy words:
    # 2**32 - 1 and 2**32 (one and two seed words), 2**64 - 1 and 2**64 (two
    # and three), 2**96 (four seed words and the name's CRC: the fallback)
    names = [f"rollout-{i}" for i in range(100)]
    random_seeds = np.random.default_rng(26).integers(0, 2**32, len(names)).tolist()
    edges = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96]
    pairs = list(zip(random_seeds, names)) + [(s, n) for s in edges for n in names[::9]]
    seeds, lane_names = zip(*pairs)
    gens = substreams(seeds, lane_names)
    assert len(gens) == len(pairs)
    for gen, (seed, name) in zip(gens, pairs):
        assert gen.random(2000).tolist() == substream(seed, name).random(2000).tolist(), seed
    assert substreams([], []) == []
    with pytest.raises(ValueError):
        substreams([3, -1], ["rollout-0", "rollout-1"])


def test_exploration_draws_equal_a_generator_interleaved():
    # runs of each call of random lengths, odd runs of coins included, so
    # that a coin finds a held half after a uniform as well as after a coin
    for seed in range(20):
        uniform, coin = exploration_draws(substream(seed, "exploration"))
        gen = substream(seed, "exploration")
        pattern = np.random.default_rng(seed + 500)
        got, want = [], []
        while len(got) < 50_000:
            uniforms, coins = pattern.integers(0, 4, 2).tolist()
            got += [uniform() for _ in range(uniforms)] + [coin() for _ in range(coins)]
            want += [gen.random() for _ in range(uniforms)]
            want += [int(gen.integers(0, 2)) for _ in range(coins)]
        assert got == want, seed
    assert {type(uniform()), type(coin())} == {float, int}


def test_block_indices_equal_bisect_on_the_same_uniforms():
    gen = np.random.default_rng(5)
    for seed in range(8):
        pmf = gen.random(int(gen.integers(1, 9)))
        pmf[gen.random(len(pmf)) < 0.3] = 0.0  # zero-probability sizes
        cdf = np.cumsum(pmf) / max(pmf.sum(), 1e-300) * (1.0 - seed * 1e-3)  # may end below 1
        draw = block_indices(substream(seed, "resources"), cdf)
        uniforms = substream(seed, "resources").random(BLOCK + 300).tolist()
        cdf_list = cdf.tolist()
        assert [draw() for _ in uniforms] == [bisect_right(cdf_list, u) for u in uniforms]


class _Fixed:
    """A generator stand-in whose ``random(n)`` returns ``values`` again and again."""

    def __init__(self, values):
        self.values = np.resize(np.asarray(values, dtype=float), BLOCK)

    def random(self, n):
        assert n == BLOCK
        return self.values


def test_block_indices_at_the_cdf_entries():
    # a uniform equal to a cdf entry lies above it (bisect_right), as in
    # ChainTables' successor table; just below the entry it lies below
    cdf = np.cumsum([0.5, 0.0, 0.25, 0.25])
    values = sorted({0.0} | {v for c in cdf.tolist() for v in (c, np.nextafter(c, 0.0))})
    draw = block_indices(_Fixed(values), cdf)
    assert [draw() for _ in values] == [bisect_right(cdf.tolist(), v) for v in values]
    assert [draw() for _ in values] == [0, 0, 2, 2, 3, 3, 4]
