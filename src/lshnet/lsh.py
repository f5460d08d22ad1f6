"""Signed-random-projection LSH index over a layer's weight rows.

Each of L tables hashes a vector to one of 2^K buckets using the signs of K
Gaussian projections. Querying unions the selected bucket of every table,
which yields the neurons whose weight rows point in roughly the same
direction as the input. Buckets are capped at R entries; overflow is resolved
by seeded reservoir replacement so bucket contents stay an unbiased sample of
their collision class.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .autotune import AutotunePlan
from .errors import DimensionError
from .vectors import SparseVector

_MAGIC = b"LSHI"
_VERSION = 1

# Query truncation budget: keep at most this many times min_count ids.
QUERY_BUDGET_FACTOR = 4


class SrpHasher:
    """K signed random projections drawn from a stored 64-bit seed."""

    def __init__(self, k_bits: int, input_dim: int, seed: int):
        if k_bits < 1:
            raise ValueError("k_bits must be >= 1")
        self.k_bits = k_bits
        self.input_dim = input_dim
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.projections = rng.standard_normal((k_bits, input_dim))

    def hash(self, v: SparseVector) -> int:
        """Hash a sparse vector, touching only its nonzero entries.

        Bit j of the code is 1 iff projection_j . v > 0 (strict; exact-zero
        dots give bit 0, so the zero vector hashes to code 0).
        """
        if v.dim != self.input_dim:
            raise DimensionError(
                f"input dim {v.dim} != hasher dim {self.input_dim}"
            )
        if v.nnz == 0:
            return 0
        dots = self.projections[:, v.indices] @ v.values
        code = 0
        for j in range(self.k_bits):
            if dots[j] > 0:
                code |= 1 << j
        return code

    def hash_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized dense-path hash of a (n, input_dim) matrix of rows."""
        if rows.shape[1] != self.input_dim:
            raise DimensionError(
                f"row dim {rows.shape[1]} != hasher dim {self.input_dim}"
            )
        if self.k_bits > 62:
            raise ValueError("hash_rows supports at most 62 bits")
        bits = (rows @ self.projections.T) > 0
        weights = (np.int64(1) << np.arange(self.k_bits, dtype=np.int64))
        return bits @ weights


@dataclass
class HashTable:
    hasher: SrpHasher
    buckets: list  # 2^K lists of neuron ids
    cap: int

    @classmethod
    def empty(cls, hasher: SrpHasher, cap: int) -> "HashTable":
        return cls(hasher=hasher, buckets=[[] for _ in range(2**hasher.k_bits)], cap=cap)


class NeuronIndex:
    """L capped hash tables over d weight rows; the neuron sampler."""

    def __init__(self, tables: list[HashTable], num_neurons: int, seed: int):
        if not tables:
            raise ValueError("need at least one table")
        self.tables = tables
        self.num_neurons = num_neurons
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, weights: np.ndarray, plan: AutotunePlan, seed: int) -> "NeuronIndex":
        weights = np.asarray(weights, dtype=np.float64)
        d = weights.shape[0]
        table_seeds = np.random.SeedSequence(seed).generate_state(
            plan.num_tables, dtype=np.uint64
        )
        tables = []
        for j in range(plan.num_tables):
            hasher = SrpHasher(plan.k_bits, weights.shape[1], int(table_seeds[j]))
            tables.append(HashTable.empty(hasher, plan.bucket_cap))
        ix = cls(tables, d, seed)
        ix._fill(weights)
        return ix

    def rebuild(self, weights: np.ndarray) -> None:
        """Re-index from current weights with the same hasher seeds.

        Label insertions made since the last (re)build are discarded. The
        overflow RNG is reset so rebuilding with unchanged weights reproduces
        the bucket contents exactly.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != self.num_neurons:
            raise DimensionError("weight row count changed")
        self._rng = np.random.default_rng(self.seed)
        for table in self.tables:
            table.buckets = [[] for _ in range(2**table.hasher.k_bits)]
        self._fill(weights)

    def _fill(self, weights: np.ndarray) -> None:
        d = weights.shape[0]
        for table in self.tables:
            codes = table.hasher.hash_rows(weights)
            order = np.argsort(codes, kind="stable")  # ids ascending per bucket
            sorted_codes = codes[order]
            starts = np.searchsorted(sorted_codes, np.arange(2**table.hasher.k_bits))
            ends = np.append(starts[1:], d)
            for code in np.unique(sorted_codes):
                ids = order[starts[code]:ends[code]]
                table.buckets[code] = self._reservoir(ids.tolist(), table.cap)

    def _reservoir(self, ids: list, cap: int) -> list:
        """Algorithm R over ids in insertion order; mutates RNG state."""
        if len(ids) <= cap:
            return ids
        kept = ids[:cap]
        for i in range(cap, len(ids)):
            j = int(self._rng.integers(0, i + 1))
            if j < cap:
                kept[j] = ids[i]
        return kept

    # -- lookup ------------------------------------------------------------

    def query(self, input: SparseVector, min_count: int):
        """Union the selected bucket of every table, dedup, pad, truncate.

        Returns (ids, padded, codes): sorted distinct neuron ids, an aligned
        bool mask marking padding-fallback ids, and the per-table bucket
        codes (needed for label insertion).
        """
        d = self.num_neurons
        if not 1 <= min_count <= d:
            raise ValueError(f"min_count must be in [1, {d}], got {min_count}")
        codes = [t.hasher.hash(input) for t in self.tables]
        pooled = []
        for table, code in zip(self.tables, codes):
            pooled.extend(table.buckets[code])
        if pooled:
            ids, counts = np.unique(np.asarray(pooled, dtype=np.int64), return_counts=True)
        else:
            ids = np.empty(0, dtype=np.int64)
            counts = np.empty(0, dtype=np.int64)

        budget = QUERY_BUDGET_FACTOR * min_count
        if ids.size > budget:
            # keep highest table-collision multiplicity, ties to ascending id
            order = np.lexsort((ids, -counts))
            ids = np.sort(ids[order[:budget]])

        padded = np.zeros(ids.size, dtype=bool)
        if ids.size < min_count:
            ids, padded = self._pad(ids, codes, min_count)
        return ids, padded, codes

    def _pad(self, ids: np.ndarray, codes: list, min_count: int):
        """Round-robin fallback ids starting from a code-derived offset."""
        h = 0
        for c in codes:
            h = (h * 1000003 + c) & 0xFFFFFFFFFFFFFFFF
        d = self.num_neurons
        # at most ids.size of the rotation's first min_count ids are held
        candidates = (h % d + np.arange(min_count)) % d
        held = np.zeros(d, dtype=bool)
        held[ids] = True
        extra = candidates[~held[candidates]][:min_count - ids.size]
        merged = np.concatenate([ids, extra])
        order = np.argsort(merged)
        padded = np.concatenate([np.zeros(ids.size, dtype=bool), np.ones(extra.size, dtype=bool)])
        return merged[order], padded[order]

    # -- label insertion (sparse-inference support) ------------------------

    def insert_labels(self, label_ids, selected_codes) -> None:
        """Append labels to the buckets that were selected for a sample.

        Caller supplies one code per table (from a prior query). A full
        bucket evicts a uniformly random victim.
        """
        if len(selected_codes) != len(self.tables):
            raise ValueError("need one selected code per table")
        for table, code in zip(self.tables, selected_codes):
            bucket = table.buckets[code]
            for label in label_ids:
                label = int(label)
                if label in bucket:
                    continue
                if len(bucket) < table.cap:
                    bucket.append(label)
                else:
                    victim = int(self._rng.integers(0, table.cap))
                    bucket[victim] = label

    # -- serialization -----------------------------------------------------

    def save(self, fh) -> None:
        t0 = self.tables[0]
        fh.write(_MAGIC)
        fh.write(struct.pack(
            "<IIIIIIq",
            _VERSION,
            t0.hasher.k_bits,
            len(self.tables),
            t0.cap,
            self.num_neurons,
            t0.hasher.input_dim,
            self.seed,
        ))
        for table in self.tables:
            fh.write(struct.pack("<Q", table.hasher.seed))
        for table in self.tables:
            occupied = [(c, b) for c, b in enumerate(table.buckets) if b]
            fh.write(struct.pack("<I", len(occupied)))
            for code, bucket in occupied:
                fh.write(struct.pack("<II", code, len(bucket)))
                fh.write(np.asarray(bucket, dtype="<u4").tobytes())

    @classmethod
    def load(cls, fh) -> "NeuronIndex":
        if fh.read(4) != _MAGIC:
            raise ValueError("not a neuron-index stream")
        version, k, l, cap, d, d_prev, seed = struct.unpack("<IIIIIIq", fh.read(32))
        if version != _VERSION:
            raise ValueError(f"unsupported index version {version}")
        seeds = [struct.unpack("<Q", fh.read(8))[0] for _ in range(l)]
        tables = []
        for j in range(l):
            table = HashTable.empty(SrpHasher(k, d_prev, seeds[j]), cap)
            (n_occupied,) = struct.unpack("<I", fh.read(4))
            for _ in range(n_occupied):
                code, count = struct.unpack("<II", fh.read(8))
                ids = np.frombuffer(fh.read(4 * count), dtype="<u4")
                table.buckets[code] = [int(i) for i in ids]
            tables.append(table)
        return cls(tables, d, seed)


def build_index(weights, plan: AutotunePlan, seed: int) -> NeuronIndex:
    return NeuronIndex.build(np.asarray(weights, dtype=np.float64), plan, seed)
