"""Seeded workload inputs: key popularity, payloads, op tapes.

Everything here is a pure function of the workload parameters and the
seed, so the same ``--seed`` gives the same keys and op tape in the
driver and in the tier entry (which seeds the cache from it).

Every value written carries its key and a write sequence number --
``b"<key>:<seq>:"`` padded with dots to the value size -- so a get can
prove which write it returned (see :func:`parse_payload`).

Gets read the seeded keys, by Zipf popularity.  Sets insert new keys,
each written once: the tier's known defects turn a key with two
versions into stale reads in a number that changes from run to run
(see ``METRICS.md``), and the benchmark's runs must fail no op.  New
keys are named like seeded ones, with the same length, and all values
have one size, so every item falls in one slab class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LiveSpec:
    """One live workload: tier shape, key space, traffic mix and rates."""

    name: str
    nodes: int
    memory_mb: int
    num_keys: int
    zipf_alpha: float
    get_share: float
    value_bytes: int
    rate: float
    ladder: tuple[float, ...] = ()
    scalein: bool = False


READ_ZIPF = LiveSpec(
    name="live-read-zipf",
    nodes=3,
    memory_mb=8,
    num_keys=10_000,
    zipf_alpha=0.99,
    get_share=0.9,
    value_bytes=100,
    rate=1500.0,
    ladder=(500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0),
)

WRITE_SCALEIN = LiveSpec(
    name="live-write-scalein",
    nodes=4,
    memory_mb=8,
    num_keys=20_000,
    zipf_alpha=0.99,
    get_share=0.5,
    value_bytes=2000,
    rate=600.0,
    scalein=True,
)

LIVE_SPECS = {spec.name: spec for spec in (READ_ZIPF, WRITE_SCALEIN)}
NEW_KEYS_PER_PHASE = 80_000
"""Room for the keys one phase's sets insert; key indices stay 6 digits."""


def key_name(index: int) -> str:
    return f"key:{index:06d}"


def payload(key: str, seq: int, size: int) -> bytes:
    """The value of write ``seq`` to ``key``: header plus dot padding.

    Sizes shorter than the header are stretched to fit it.
    """
    header = f"{key}:{seq}:".encode("ascii")
    return header + b"." * max(0, size - len(header))


def parse_payload(data: bytes) -> tuple[str, int] | None:
    """``(key, seq)`` of a well-formed payload, else None."""
    parts = data.split(b":", 3)
    if len(parts) != 4 or parts[0] != b"key":
        return None
    key_tail, seq_text, padding = parts[1], parts[2], parts[3]
    if not seq_text.isdigit() or padding.strip(b".") != b"":
        return None
    return f"key:{key_tail.decode('ascii', 'replace')}", int(seq_text)


class KeySpace:
    """Seeded Zipf popularity over the ``num_keys`` seeded keys."""

    def __init__(self, spec: LiveSpec, seed: int) -> None:
        self.spec = spec
        rng = np.random.default_rng([seed, 1])
        weights = 1.0 / np.arange(1, spec.num_keys + 1) ** spec.zipf_alpha
        self._cdf = np.cumsum(weights / weights.sum())
        # rank -> key index: which keys are hot differs per seed.
        self.rank_to_key = rng.permutation(spec.num_keys)

    def sample_keys(self, rng: np.random.Generator, count: int) -> np.ndarray:
        ranks = np.searchsorted(self._cdf, rng.random(count), side="right")
        ranks = np.minimum(ranks, self.spec.num_keys - 1)
        return self.rank_to_key[ranks]

    def seed_order(self) -> list[int]:
        """Key indices coldest first, so the hottest keys end up MRU."""
        return [int(i) for i in self.rank_to_key[::-1]]


@dataclass(frozen=True)
class Op:
    """One scheduled operation, due ``due`` seconds after phase start."""

    kind: str  # "get" | "set"
    key: str
    due: float
    size: int = 0


def build_ops(
    keyspace: KeySpace,
    rate: float,
    duration_s: float,
    seed: int,
    phase: int,
) -> list[Op]:
    """Constant-rate open-loop tape: op ``i`` is due at ``i / rate``.

    Gets draw seeded keys by popularity; the sets of phase ``phase``
    insert keys of their own, numbered after the seeded keys.
    """
    spec = keyspace.spec
    rng = np.random.default_rng([seed, 2, phase])
    count = max(1, int(rate * duration_s))
    keys = keyspace.sample_keys(rng, count)
    is_get = rng.random(count) < spec.get_share
    first_new = spec.num_keys + phase * NEW_KEYS_PER_PHASE
    sets = count - int(is_get.sum())
    if sets > NEW_KEYS_PER_PHASE or first_new + sets > 1_000_000:
        raise ValueError(f"no room for the {sets} new keys of phase {phase}")
    ops = []
    inserted = 0
    for i in range(count):
        if is_get[i]:
            ops.append(Op("get", key_name(int(keys[i])), i / rate))
        else:
            key = key_name(first_new + inserted)
            inserted += 1
            ops.append(Op("set", key, i / rate, spec.value_bytes))
    return ops
