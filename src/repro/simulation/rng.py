"""Named, reproducible random streams.

Every stochastic component of an experiment (arrival process, job sizes,
tie-breaking inside the auction, bid-valuation noise, ...) draws from its
own named stream.  Streams are derived from a single root seed with a
stable hash, so:

* two experiments with the same seed are bit-identical,
* adding draws to one component never perturbs another component's
  sequence (which would silently change every downstream number), and
* schedulers compared against each other see the *same* workload.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 rather than Python's ``hash`` so the derivation is stable
    across processes and interpreter versions.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """A lazily populated registry of named :class:`numpy.random.Generator`.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("arrivals").random()
    >>> b = RandomStreams(seed=7).get("arrivals").random()
    >>> a == b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was created with."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(derive_seed(self._seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Create an independent child registry (e.g. one per app)."""
        return RandomStreams(derive_seed(self._seed, f"spawn:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"
