"""Named random substreams derived from one master seed.

Every stochastic component (event draws, resource draws, exploration,
scenario evolution, evaluation rollouts) pulls from its own named stream,
so enabling or disabling one component never perturbs the draws seen by
another.  Streams are derived with ``SeedSequence`` keyed on a CRC of the
name, which is stable across platforms and sessions.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Callable

import numpy as np

# uniforms drawn per call to the generator by ``block_uniforms``
BLOCK = 4096


def _tag(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for (seed, name)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), _tag(name))))


def block_uniforms(gen: np.random.Generator) -> Callable[[], float]:
    """A callable returning the next uniform of ``gen``, drawn ``BLOCK`` at a time.

    Successive calls return exactly what ``gen.random()`` would, one call at
    a time, for about a tenth of the cost.  ``gen`` runs up to ``BLOCK``
    draws ahead, so nothing else may draw from it.
    """
    blocks = iter(lambda: gen.random(BLOCK).tolist(), None)
    return itertools.chain.from_iterable(blocks).__next__


def user_uniform(seed: int, domain: str, uid: int, step: int) -> float:
    """One uniform draw keyed by (seed, domain, user id, step).

    Counter-based, so per-user draws are independent: removing or reseeding
    one user's stream leaves every other user's draws unchanged.
    """
    ss = np.random.SeedSequence((int(seed), _tag(domain), int(uid), int(step)))
    return float(np.random.default_rng(ss).random())
