"""Signed-random-projection LSH index over a layer's weight rows.

Each of L tables hashes a vector to one of 2^K buckets using the signs of K
Gaussian projections. Querying unions the selected bucket of every table,
which yields the neurons whose weight rows point in roughly the same
direction as the input. Buckets are capped at R entries; overflow is resolved
by seeded reservoir replacement so bucket contents stay an unbiased sample of
their collision class.

Layout. The L tables' (K x d_prev) projections are stacked into one
(L*K x d_prev) matrix, so hashing a query is one gather, one product and a
bit pack, and hashing a build is one product per chunk of rows. Buckets live
in two arrays: ``slots`` (L, 2^K, W) int32 holds each bucket's ids in order
and ``fill`` (L, 2^K) int32 how many of its slots are used. W starts at the
largest bucket (at most R) and grows up to R when a label insertion needs it.

Exact reservoir by one draw. A build sorts each table's codes once, stably, so
ids are ascending within a bucket and each id's rank in its bucket is known.
Ids of rank < R take slot ``rank``. Algorithm R would then draw
``integers(0, rank + 1)`` for every id of rank >= R, table by table, bucket by
bucket, id by id, and put the id in slot j when j < R. A Generator asked for an
array of bounds returns the same numbers and leaves the same state as those
scalar calls, so all of a build's draws are one call, and of the ids drawn into
one slot the last one wins, as in the loop.
"""

from __future__ import annotations

import struct

import numpy as np

from .autotune import AutotunePlan
from .errors import DimensionError, ModelFormatError
from .vectors import SparseVector

_MAGIC = b"LSHI"
_VERSION = 1

# Query truncation budget: keep at most this many times min_count ids.
QUERY_BUDGET_FACTOR = 4

# Largest (rows x L*K) float64 product made at once when hashing weight rows.
_HASH_CHUNK_BYTES = 1 << 22


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


class TableView:
    """Read-only view of one table: its hasher, cap and buckets as lists."""

    def __init__(self, index: "NeuronIndex", t: int):
        self._index = index
        self._t = t

    @property
    def hasher(self) -> SrpHasher:
        return self._index.hashers[self._t]

    @property
    def cap(self) -> int:
        return self._index.cap

    @property
    def buckets(self) -> list:
        """2^K lists of neuron ids, in slot order; a copy."""
        ix = self._index
        return [ix.slots[self._t, c, :n].tolist() for c, n in enumerate(ix.fill[self._t].tolist())]


class NeuronIndex:
    """L capped hash tables over d weight rows; the neuron sampler."""

    def __init__(self, hashers: list[SrpHasher], cap: int, num_neurons: int, seed: int):
        """An empty index over the given hashers, which share K and d_prev."""
        if not hashers:
            raise ValueError("need at least one table")
        k, d_prev = hashers[0].k_bits, hashers[0].input_dim
        if any(h.k_bits != k or h.input_dim != d_prev for h in hashers):
            raise ValueError("hashers must share k_bits and input_dim")
        self.hashers = hashers
        self.cap = int(cap)
        self.num_neurons = num_neurons
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._proj = np.concatenate([h.projections for h in hashers])  # (L*K, d_prev)
        self._bit_values = np.int64(1) << np.arange(k, dtype=np.int64)
        self._code_dtype = np.min_scalar_type(2**k - 1)
        self._all_tables = np.arange(len(hashers))
        self.slots = np.zeros((len(hashers), 2**k, 0), dtype=np.int32)
        self.fill = np.zeros((len(hashers), 2**k), dtype=np.int32)

    @property
    def tables(self) -> list[TableView]:
        return [TableView(self, t) for t in range(len(self.hashers))]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, weights: np.ndarray, plan: AutotunePlan, seed: int) -> "NeuronIndex":
        weights = np.asarray(weights, dtype=np.float64)
        table_seeds = np.random.SeedSequence(seed).generate_state(
            plan.num_tables, dtype=np.uint64
        )
        hashers = [SrpHasher(plan.k_bits, weights.shape[1], int(s)) for s in table_seeds]
        ix = cls(hashers, plan.bucket_cap, weights.shape[0], seed)
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
        self._fill(weights)

    def _hash_rows(self, rows: np.ndarray) -> np.ndarray:
        """(L, n) codes of n rows, hashed in chunks of a few MB."""
        n_tables, k = len(self.hashers), self._bit_values.size
        codes = np.empty((n_tables, rows.shape[0]), dtype=self._code_dtype)
        step = max(1, _HASH_CHUNK_BYTES // (8 * n_tables * k))
        for s in range(0, rows.shape[0], step):
            bits = (rows[s:s + step] @ self._proj.T) > 0
            codes[:, s:s + step] = (bits.reshape(-1, n_tables, k) @ self._bit_values).T
        return codes

    def _fill(self, weights: np.ndarray) -> None:
        d = weights.shape[0]
        n_tables, n_buckets = self.fill.shape
        codes = self._hash_rows(weights)
        counts = np.stack([np.bincount(c, minlength=n_buckets) for c in codes])
        self.slots = np.zeros((n_tables, n_buckets, min(self.cap, int(counts.max()))),
                              dtype=np.int32)
        self.fill = np.minimum(counts, self.cap).astype(np.int32)
        starts = np.cumsum(counts, axis=1) - counts
        over_t, over_code, over_id, over_rank = [], [], [], []
        for t in range(n_tables):
            order = np.argsort(codes[t], kind="stable")  # ids ascending per bucket
            sorted_codes = codes[t][order]
            rank = np.arange(d) - starts[t, sorted_codes]
            kept = rank < self.cap
            self.slots[t, sorted_codes[kept], rank[kept]] = order[kept]
            over = ~kept
            if over.any():
                over_t.append(np.full(int(over.sum()), t))
                over_code.append(sorted_codes[over])
                over_id.append(order[over])
                over_rank.append(rank[over])
        if not over_t:
            return
        # Algorithm R in one draw, in table, code, id order
        draws = self._rng.integers(0, np.concatenate(over_rank) + 1)
        won = draws < self.cap
        t, code, ids = (np.concatenate(a)[won] for a in (over_t, over_code, over_id))
        slot = draws[won]
        # later draws win: keep the last id drawn into each slot
        key = (t * n_buckets + code) * self.cap + slot
        _, first_from_end = np.unique(key[::-1], return_index=True)
        last = key.size - 1 - first_from_end
        self.slots[t[last], code[last], slot[last]] = ids[last]

    def _ensure_width(self, width: int) -> None:
        if width > self.slots.shape[2]:
            width = min(self.cap, max(width, 2 * self.slots.shape[2]))
            grown = np.zeros(self.slots.shape[:2] + (width,), dtype=np.int32)
            grown[:, :, :self.slots.shape[2]] = self.slots
            self.slots = grown

    # -- lookup ------------------------------------------------------------

    def _codes(self, input: SparseVector) -> np.ndarray:
        """(L,) bucket codes of a query, equal to each table's SrpHasher.hash."""
        if input.dim != self._proj.shape[1]:
            raise DimensionError(
                f"input dim {input.dim} != hasher dim {self._proj.shape[1]}"
            )
        if input.nnz == self._proj.shape[1]:
            dots = self._proj @ input.values
        else:
            dots = self._proj[:, input.indices] @ input.values
        return (dots > 0).reshape(len(self.hashers), -1) @ self._bit_values

    def query(self, input: SparseVector, min_count: int):
        """Union the selected bucket of every table, dedup, pad, truncate.

        Returns (ids, padded, codes): sorted distinct neuron ids, an aligned
        bool mask marking padding-fallback ids, and the per-table bucket
        codes (needed for label insertion).
        """
        d = self.num_neurons
        if not 1 <= min_count <= d:
            raise ValueError(f"min_count must be in [1, {d}], got {min_count}")
        codes = self._codes(input)
        selected = self.slots[self._all_tables, codes]
        used = np.arange(self.slots.shape[2]) < self.fill[self._all_tables, codes][:, None]
        hits = np.sort(selected[used])
        first = np.ones(hits.size, dtype=bool)
        np.not_equal(hits[1:], hits[:-1], out=first[1:])
        ids = hits[first].astype(np.int64)
        codes = codes.tolist()

        budget = QUERY_BUDGET_FACTOR * min_count
        if ids.size > budget:
            # keep highest table-collision multiplicity, ties to ascending id
            counts = np.diff(np.append(np.flatnonzero(first), hits.size))
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

        Caller supplies one code per table (from a prior query). A label
        already in a bucket leaves it unchanged; a full bucket evicts a
        uniformly random victim. Victims are drawn table by table and, within
        a table, label by label.
        """
        if len(selected_codes) != len(self.hashers):
            raise ValueError("need one selected code per table")
        codes = np.asarray(selected_codes, dtype=np.int64)
        labels = [int(label) for label in label_ids]
        if len(labels) == 1:
            # one label draws at most once per table, so the tables go together
            self._insert(labels[0], codes)
        else:
            # an eviction may drop a label that comes again later in the
            # list, so each table takes the labels one at a time
            self._insert_in_order(labels, codes.tolist())

    def _insert(self, label: int, codes: np.ndarray) -> None:
        """Insert one label into bucket codes[t] of every table t."""
        tables = self._all_tables
        fill = self.fill[tables, codes]
        held = (self.slots[tables, codes] == label) & \
            (np.arange(self.slots.shape[2]) < fill[:, None])
        new = ~held.any(axis=1)
        tables, codes, fill = tables[new], codes[new], fill[new]
        room = fill < self.cap
        if room.any():
            self._ensure_width(int(fill[room].max()) + 1)
            self.slots[tables[room], codes[room], fill[room]] = label
            self.fill[tables[room], codes[room]] += 1
        full = ~room
        if full.any():
            victims = self._rng.integers(0, self.cap, size=int(full.sum()))
            self.slots[tables[full], codes[full], victims] = label

    def _insert_in_order(self, labels: list, codes: list) -> None:
        """insert_labels as a loop over lists."""
        fill = self.fill[self._all_tables, codes].tolist()
        for t, (c, n) in enumerate(zip(codes, fill)):
            bucket = self.slots[t, c, :n].tolist()
            for label in labels:
                if label in bucket:
                    continue
                if len(bucket) < self.cap:
                    bucket.append(label)
                else:
                    bucket[int(self._rng.integers(0, self.cap))] = label
            self._ensure_width(len(bucket))
            self.slots[t, c, :len(bucket)] = bucket
            self.fill[t, c] = len(bucket)

    # -- serialization -----------------------------------------------------

    def save(self, fh) -> None:
        h0 = self.hashers[0]
        fh.write(_MAGIC)
        fh.write(struct.pack(
            "<IIIIIIq",
            _VERSION,
            h0.k_bits,
            len(self.hashers),
            self.cap,
            self.num_neurons,
            h0.input_dim,
            self.seed,
        ))
        for h in self.hashers:
            fh.write(struct.pack("<Q", h.seed))
        slot_ix = np.arange(self.slots.shape[2])
        for t in range(len(self.hashers)):
            # per occupied bucket, ascending code: code, count, then its ids
            occupied = np.flatnonzero(self.fill[t])
            counts = self.fill[t, occupied]
            header_at = np.cumsum(counts + 2) - (counts + 2)
            words = np.empty(2 * occupied.size + int(counts.sum()), dtype="<u4")
            is_id = np.ones(words.size, dtype=bool)
            is_id[header_at] = is_id[header_at + 1] = False
            words[header_at] = occupied
            words[header_at + 1] = counts
            words[is_id] = self.slots[t][slot_ix < self.fill[t][:, None]]
            fh.write(struct.pack("<I", occupied.size))
            fh.write(words.tobytes())

    @classmethod
    def load(cls, fh) -> "NeuronIndex":
        if fh.read(4) != _MAGIC:
            raise ModelFormatError("not a neuron-index stream")
        version, k, l, cap, d, d_prev, seed = struct.unpack("<IIIIIIq", _read(fh, 32))
        if version != _VERSION:
            raise ModelFormatError(f"unsupported index version {version}")
        seeds = struct.unpack(f"<{l}Q", _read(fh, 8 * l))
        ix = cls([SrpHasher(k, d_prev, s) for s in seeds], cap, d, seed)
        for t in range(l):
            (n_occupied,) = struct.unpack("<I", _read(fh, 4))
            if n_occupied > 2**k:
                raise ModelFormatError(f"corrupt neuron-index table {t}")
            words, header_at = _read_table(fh, n_occupied, cap, t)
            codes = words[header_at]
            counts = words[header_at + 1]
            is_id = np.ones(words.size, dtype=bool)
            is_id[header_at] = is_id[header_at + 1] = False
            ids = words[is_id]
            if (codes >= 2**k).any() or (np.diff(codes) <= 0).any() or (ids >= d).any():
                raise ModelFormatError(f"corrupt neuron-index table {t}")
            if counts.size:
                ix._ensure_width(int(counts.max()))
            rank = np.arange(ids.size) - np.repeat(np.cumsum(counts) - counts, counts)
            ix.slots[t, np.repeat(codes, counts), rank] = ids
            ix.fill[t, codes] = counts
        return ix


def _read(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ModelFormatError("truncated neuron-index stream")
    return data


def _read_table(fh, n_occupied: int, cap: int, t: int):
    """One table's (code, count, ids...) records as int64 words, and the word
    offset of each record's header; no read passes the table's end.

    ``known`` words are known to belong to the table: the records walked so
    far plus two for each header not yet walked. Whenever the next header is
    not wholly read, reading up to ``known`` reads it, so its count word is
    always in the last read.
    """
    chunks, header_at = [], []
    pos, have, known = 0, 0, 2 * n_occupied  # word offsets
    for _ in range(n_occupied):
        if pos + 2 > have:
            chunks.append(np.frombuffer(_read(fh, 4 * (known - have)), dtype="<u4"))
            view, base, have = memoryview(chunks[-1].astype(np.uint32, copy=False)), have, known
        count = view[pos + 1 - base]
        if count > cap:  # before its ids are read
            raise ModelFormatError(f"corrupt neuron-index table {t}")
        header_at.append(pos)
        known += count
        pos += 2 + count
    chunks.append(np.frombuffer(_read(fh, 4 * (known - have)), dtype="<u4"))
    return np.concatenate(chunks).astype(np.int64), np.array(header_at, dtype=np.int64)
