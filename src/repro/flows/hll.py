"""HyperLogLog distinct counting for flow attributes.

The EDU dataset alone holds 5.2 B flows (§2); distinct-IP statistics
(Fig 8's "order of households" proxy) over traces of that size cannot
keep exact sets per time bin.  This is a standard HyperLogLog
(Flajolet et al.) over 64-bit hashes with the usual small-range
correction, tuned for 32-bit address spaces.

Accuracy: the relative standard error is ~1.04/sqrt(2^p); the default
``p=12`` (4096 registers, 4 KiB) gives ~1.6%.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

import numpy as np

_HASH_BITS = 64


def _hash64(values: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic 64-bit mix of 32/64-bit integer values.

    Uses the splitmix64 finalizer — fast, vectorizable, and well
    distributed; a keyed cryptographic hash is unnecessary here because
    HLL inputs are not adversarial in this pipeline.
    """
    x = values.astype(np.uint64) + np.uint64(
        0x9E3779B97F4A7C15 * (salt + 1) & 0xFFFFFFFFFFFFFFFF
    )
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _index_rank(
    values: np.ndarray, p: int, salt: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Register index and rank of every value's hash.

    The index is the hash's top ``p`` bits; the rank is the position of
    the leftmost 1 bit in the remaining bits, with an all-zero
    remainder mapping to the maximum rank.
    """
    hashed = _hash64(values, salt)
    indices = (hashed >> np.uint64(_HASH_BITS - p)).astype(np.int64)
    remainder = hashed << np.uint64(p)
    width = _HASH_BITS - p
    ranks = np.full(values.size, width + 1, dtype=np.uint8)
    nonzero = remainder != 0
    if nonzero.any():
        # Leading zero count via float64 exponent is unsafe at 64
        # bits; use a bit-length loop on the log2 instead.
        shifted = remainder[nonzero]
        lz = np.zeros(shifted.size, dtype=np.uint8)
        current = shifted.copy()
        # Binary search over the leading-zero count.
        for step in (32, 16, 8, 4, 2, 1):
            mask = current < (np.uint64(1) << np.uint64(64 - step))
            lz[mask] += step
            current[mask] = current[mask] << np.uint64(step)
        ranks_nz = (lz + 1).astype(np.uint8)
        ranks[nonzero] = np.minimum(ranks_nz, width + 1)
    return indices, ranks


def _check_precision(p: int) -> None:
    if not 4 <= p <= 18:
        raise ValueError(f"precision must be in [4, 18], got {p}")


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog:
    """A mergeable distinct counter."""

    __slots__ = ("_p", "_salt", "_registers")

    def __init__(self, p: int = 12, salt: int = 0):
        _check_precision(p)
        self._p = p
        self._salt = salt
        self._registers = np.zeros(1 << p, dtype=np.uint8)

    @property
    def precision(self) -> int:
        """The register-count exponent ``p``."""
        return self._p

    @property
    def memory_bytes(self) -> int:
        """Register memory footprint."""
        return self._registers.nbytes

    def add(self, value: int) -> None:
        """Add one integer value."""
        self.add_many(np.asarray([value], dtype=np.uint64))

    def add_many(self, values: Union[np.ndarray, Iterable[int]]) -> None:
        """Add a batch of integer values (vectorized)."""
        array = np.asarray(list(values) if not isinstance(
            values, np.ndarray) else values, dtype=np.uint64)
        if array.size == 0:
            return
        indices, ranks = _index_rank(array, self._p, self._salt)
        np.maximum.at(self._registers, indices, ranks)

    @classmethod
    def per_group(
        cls, values: np.ndarray, groups: np.ndarray, n_groups: int,
        p: int = 12, salt: int = 0,
    ) -> List["HyperLogLog"]:
        """One sketch per group id in ``range(n_groups)``, in one pass.

        ``groups[i]`` is the group of ``values[i]``.  The values are
        hashed once and folded into a ``(n_groups, 2**p)`` register
        array with a single ``np.maximum.at``; each returned sketch
        owns one row of it.  The registers equal those of calling
        :meth:`add_many` with each group's values, and a group with no
        values gets an empty sketch.
        """
        _check_precision(p)
        m = 1 << p
        registers = np.zeros((n_groups, m), dtype=np.uint8)
        array = np.asarray(values, dtype=np.uint64)
        if array.size:
            indices, ranks = _index_rank(array, p, salt)
            flat = np.asarray(groups, dtype=np.int64) * m + indices
            np.maximum.at(registers.reshape(-1), flat, ranks)
        sketches = []
        for row in registers:
            sketch = cls.__new__(cls)
            sketch._p, sketch._salt, sketch._registers = p, salt, row
            sketches.append(sketch)
        return sketches

    def count(self) -> float:
        """Estimate the number of distinct values added."""
        m = self._registers.size
        inverse_sum = np.sum(np.exp2(-self._registers.astype(np.float64)))
        estimate = _alpha(m) * m * m / inverse_sum
        if estimate <= 2.5 * m:
            zeros = int(np.count_nonzero(self._registers == 0))
            if zeros:
                return m * float(np.log(m / zeros))
        return float(estimate)

    def _check_mergeable(self, other: "HyperLogLog") -> None:
        """Raise unless ``other`` shares this sketch's parameters.

        Mismatched precisions mean different register counts; taking an
        elementwise maximum would silently misalign registers and
        produce a garbage estimate, so both mismatches are an explicit
        error.
        """
        if other._p != self._p:
            raise ValueError(
                f"cannot merge HyperLogLog sketches with different "
                f"precisions (p={self._p} vs p={other._p}); registers "
                f"would misalign"
            )
        if other._salt != self._salt:
            raise ValueError(
                f"cannot merge HyperLogLog sketches with different "
                f"hash salts ({self._salt} vs {other._salt})"
            )

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Union with another sketch (same precision and salt)."""
        self._check_mergeable(other)
        merged = HyperLogLog(self._p, self._salt)
        merged._registers = np.maximum(self._registers, other._registers)
        return merged

    def union_update(self, other: "HyperLogLog") -> None:
        """In-place union — the allocation-free form of :meth:`merge`.

        The query engine merges one sketch per partition per group;
        updating the accumulator in place avoids a fresh register array
        per merge.
        """
        self._check_mergeable(other)
        np.maximum(self._registers, other._registers, out=self._registers)

    def relative_error(self) -> float:
        """The theoretical relative standard error of the sketch."""
        return 1.04 / np.sqrt(self._registers.size)
