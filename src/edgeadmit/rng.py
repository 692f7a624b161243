"""Named random substreams derived from one master seed.

Every stochastic component (event draws, resource draws, exploration,
scenario evolution, evaluation rollouts) pulls from its own named stream,
so enabling or disabling one component never perturbs the draws seen by
another.  Streams are derived with ``SeedSequence`` keyed on a CRC of the
name, which is stable across platforms and sessions.

The hot loops draw in blocks, and each block form returns exactly what the
one-call-at-a-time form returns: ``block_uniforms`` and ``block_indices``
read ``Generator.random`` in blocks, ``exploration_draws`` reads the
words behind ``random()`` and ``integers(0, 2)`` from those blocks, and
``user_uniforms`` computes many ``user_uniform`` draws in numpy arithmetic.
``substreams`` seeds many ``substream`` generators at once, from
``SeedSequence`` state words computed in the same arithmetic.  Importing
this module does not load numpy.random: only drawing does.
"""

from __future__ import annotations

import functools
import itertools
import zlib
from typing import Callable, Sequence

import numpy as np

# draws per call to the generator by the block forms
BLOCK = 4096


def _tag(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for (seed, name)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), _tag(name))))


def _blocks(draw_block: Callable[[], list]) -> Callable:
    """A callable returning the next entry of the lists ``draw_block()`` returns."""
    return itertools.chain.from_iterable(iter(draw_block, None)).__next__


def block_uniforms(gen: np.random.Generator) -> Callable[[], float]:
    """A callable returning the next uniform of ``gen``, drawn ``BLOCK`` at a time.

    Successive calls return exactly what ``gen.random()`` would, one call at
    a time, for about a tenth of the cost.  ``gen`` runs up to ``BLOCK``
    draws ahead, so nothing else may draw from it.
    """
    return _blocks(lambda: gen.random(BLOCK).tolist())


def block_indices(gen: np.random.Generator, cdf: np.ndarray) -> Callable[[], int]:
    """A callable returning ``bisect_right(cdf, gen.random())``, drawn ``BLOCK`` at a time.

    The index is where the next uniform of ``gen`` falls in ``cdf``: one
    ``searchsorted(cdf, block, side="right")`` per block makes the same
    comparisons.  ``gen`` runs ahead as in ``block_uniforms``.
    """
    return _blocks(lambda: np.searchsorted(cdf, gen.random(BLOCK), side="right").tolist())


def exploration_draws(
    gen: np.random.Generator,
) -> tuple[Callable[[], float], Callable[[], int]]:
    """``(uniform, coin)``: ``gen.random()`` and ``int(gen.integers(0, 2))``, in blocks.

    Called in any interleaving, they return what the two calls would.  Each
    reads the next of ``gen``'s raw 64-bit words ``w`` through
    ``block_uniforms``, whose uniform ``(w >> 11) * 2**-53`` keeps ``w``'s
    top 53 bits.  ``coin`` is numpy's bounded 32-bit draw for range 2, the
    top bit of the next 32-bit half that PCG64 hands out: the low half of a
    fresh word (bit 31 of ``w``), then, at the next ``coin``, that word's
    high half (bit 63).  ``gen`` runs ahead, so nothing else may draw from it.
    """
    uniform = block_uniforms(gen)
    held = []  # bit 63 of the word whose low half the last coin used

    def coin() -> int:
        if held:
            return held.pop()
        top = int(uniform() * 2.0**53)  # w >> 11
        held.append(top >> 52)
        return (top >> 20) & 1

    return uniform, coin


def user_uniform(seed: int, domain: str, uid: int, step: int) -> float:
    """One uniform draw keyed by (seed, domain, user id, step).

    Counter-based, so per-user draws are independent: removing or reseeding
    one user's stream leaves every other user's draws unchanged.
    """
    ss = np.random.SeedSequence((int(seed), _tag(domain), int(uid), int(step)))
    return float(np.random.default_rng(ss).random())


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_steps(init: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    """``(xor, multiplier)`` of ``n`` successive hash steps from constant ``init``.

    A step xors the word with the hash constant, multiplies the constant by
    ``mult`` and the word by the new constant: the constants are the same
    for every entropy, so they are computed once.
    """
    steps, h = [], init
    for _ in range(n):
        steps.append((np.uint32(h), np.uint32(h * mult & 0xFFFFFFFF)))
        h = h * mult & 0xFFFFFFFF
    return steps


# a four-word pool takes 4 + 12 hashmix steps, and a PCG64 seed 8 output words
_HASHMIX = _hash_steps(_INIT_A, _MULT_A, 16)
_GENERATE = _hash_steps(_INIT_B, _MULT_B, 8)
# PCG64's 128-bit LCG multiplier, high and low words
_PCG_HI, _PCG_LO = (np.uint64(w) for w in divmod(0x2360ED051FC65DA44385DF649FCCF645, 2**64))
_U1, _U11, _U32, _U58, _U63 = (np.uint64(n) for n in (1, 11, 32, 58, 63))
_LOW32 = np.uint64(0xFFFFFFFF)


def _hash(value: np.ndarray, step: tuple[np.uint32, np.uint32]) -> np.ndarray:
    xor, mult = step
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """``state * M + inc`` mod 2**128 over (high, low) uint64 arrays."""
    # the low words' full 128-bit product, by 32-bit limbs
    a1, a0 = lo >> _U32, lo & _LOW32
    b1, b0 = _PCG_LO >> _U32, _PCG_LO & _LOW32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    new_lo = (mid << _U32) | (p00 & _LOW32)
    new_hi = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    new_hi += hi * _PCG_LO + lo * _PCG_HI
    out_lo = new_lo + inc_lo
    return new_hi + inc_hi + (out_lo < new_lo), out_lo


def _state_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(e).generate_state(4, np.uint64)`` of four-word entropies ``e``.

    ``entropy`` is four uint32 arrays, one per word; the result is four
    uint64 arrays, one per state word.  ``mix_entropy`` hashes a missing
    word as 0, so an entropy of fewer words is the same padded with zeros.
    """
    pool = [_hash(word, step) for word, step in zip(entropy, _HASHMIX)]
    mixes = iter(_HASHMIX[4:])
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hash(pool[src], next(mixes)))
    state = [_hash(pool[k % 4], step).astype(np.uint64) for k, step in enumerate(_GENERATE)]
    return [lo | (hi << _U32) for lo, hi in zip(state[::2], state[1::2])]


def _four_word_uniforms(entropy: list[np.ndarray]) -> np.ndarray:
    """``user_uniform`` of four-word entropies given as four uint32 arrays.

    ``_state_words``, then ``PCG64``'s seeding and first ``random()``: with
    state words ``s`` and stream words ``i`` (high word first),
    ``inc = 2i + 1`` and ``state = (s + inc) * M + inc``; the draw steps
    once more and takes the XSL-RR output's top 53 bits.
    """
    s_hi, s_lo, i_hi, i_lo = _state_words(entropy)
    inc_hi, inc_lo = (i_hi << _U1) | (i_lo >> _U63), (i_lo << _U1) | _U1
    lo = s_lo + inc_lo
    hi = s_hi + inc_hi + (lo < s_lo)
    for _ in range(2):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    rot, value = hi >> _U58, hi ^ lo
    out = (value >> rot) | (value << ((-rot) & _U63))
    return (out >> _U11).astype(np.float64) * 2.0**-53


@functools.cache
def _preseeded() -> type:
    """A seed sequence type whose ``generate_state`` returns words computed beforehand.

    ``PCG64`` asks its seed sequence for ``generate_state(4, np.uint64)``
    alone.  numpy.random is imported here, on first use, so that importing
    this module does not load it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Preseeded(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return Preseeded


def _seed_words(seed: int) -> list[int]:
    """The 32-bit words of a nonnegative ``seed``, low word first, as ``SeedSequence`` reads it."""
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return words


def substreams(seeds: Sequence[int], names: Sequence[str]) -> list[np.random.Generator]:
    """``substream(s, name)`` of each pair of ``seeds`` and ``names``, seeded together.

    Each generator's stream equals ``substream``'s.  Where a seed's words
    and the name's CRC make at most four entropy words (any seed below
    ``2**96``), the state words of all of them are computed together by
    ``_state_words`` and handed to ``PCG64`` as they are: about a tenth of
    the cost of seeding through ``SeedSequence``.  Any other pair falls
    back to ``substream``.
    """
    from numpy.random import PCG64, Generator

    seeds = [int(s) for s in seeds]
    gens = [None if 0 <= s < 2**96 else substream(s, name) for s, name in zip(seeds, names)]
    fast = [i for i, gen in enumerate(gens) if gen is None]
    if fast:
        entropy = [(words + [_tag(names[i]), 0, 0])[:4]
                   for i in fast for words in (_seed_words(seeds[i]),)]
        state = np.stack(_state_words(list(np.array(entropy, dtype=np.uint32).T)), axis=1)
        preseeded = _preseeded()
        for i, words in zip(fast, state):
            gens[i] = Generator(PCG64(preseeded(words)))
    return gens


def user_uniforms(seed: int, domain, uids, steps) -> np.ndarray:
    """``user_uniform(seed, d, u, s)`` over the broadcast of ``domain``, ``uids`` and ``steps``.

    ``domain`` is a string or an array of strings.  Each draw equals the
    scalar form bit for bit.  Where the seed, the user id and the step are
    all in ``0..2**32-1``, each is one entropy word, and those draws are
    computed together in numpy arithmetic; any other draw, whose entropy
    has another word count, falls back to ``user_uniform``.
    """
    domain = np.asarray(domain)
    tags = np.vectorize(_tag, otypes=[np.int64])(domain)
    arrays = np.broadcast_arrays(domain, tags, np.asarray(uids), np.asarray(steps))
    shape = arrays[0].shape
    domain, tags, uids, steps = (a.ravel() for a in arrays)
    out = np.empty(tags.shape)
    fast = (0 <= seed < 2**32) & (0 <= uids) & (uids < 2**32) & (0 <= steps) & (steps < 2**32)
    if fast.any():
        words = [np.full(np.count_nonzero(fast), seed)] + [w[fast] for w in (tags, uids, steps)]
        out[fast] = _four_word_uniforms([w.astype(np.uint32) for w in words])
    for i in np.flatnonzero(~fast).tolist():
        out[i] = user_uniform(seed, str(domain[i]), int(uids[i]), int(steps[i]))
    return out.reshape(shape)
