import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lshnet.autotune import AutotuneConfig, AutotunePlan
from lshnet.errors import DimensionError
from lshnet.layers import SOFTMAX, TRAIN, SparseLinearLayer
from lshnet.lsh import QUERY_BUDGET_FACTOR, NeuronIndex, SrpHasher
from lshnet.vectors import SparseVector, sparsify


def make_plan(k, l, r, d, d_prev, s=0.05):
    return AutotunePlan(k, l, r, AutotuneConfig(), d, d_prev, s)


def test_hash_forced_signs():
    h = SrpHasher(2, 2, seed=0)
    h.projections = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = sparsify([2.0, 0.0])
    # p0.v = 2 > 0 -> bit0 = 1; p1.v = 0 -> bit1 = 0
    assert h.hash(v) == 0b01


def test_hash_zero_vector_is_zero():
    h = SrpHasher(2, 2, seed=0)
    assert h.hash(SparseVector.empty(2)) == 0


def test_hash_unit_vector_matches_seeded_projection_signs():
    d = 7
    h = SrpHasher(3, d, seed=42)
    # oracle: regenerate the projections from the same seed and read column 0
    proj = np.random.default_rng(42).standard_normal((3, d))
    expected = sum(1 << j for j in range(3) if proj[j, 0] > 0)
    e0 = SparseVector.from_pairs(d, [(0, 1.0)])
    assert h.hash(e0) == expected


def test_hash_sparse_equals_dense_path():
    rng = np.random.default_rng(3)
    h = SrpHasher(8, 50, seed=11)
    for _ in range(50):
        x = rng.standard_normal(50)
        x[rng.random(50) < 0.6] = 0.0
        v = sparsify(x)
        assert h.hash(v) == h.hash_rows(x[None, :])[0]


def test_hash_dimension_mismatch():
    h = SrpHasher(2, 4, seed=0)
    with pytest.raises(DimensionError):
        h.hash(SparseVector.empty(5))


def test_build_single_neuron():
    w = np.random.default_rng(0).standard_normal((1, 8))
    ix = NeuronIndex.build(w, make_plan(3, 4, 10, 1, 8), seed=5)
    for table in ix.tables:
        occupied = [b for b in table.buckets if b]
        assert occupied == [[0]]


def test_build_identical_rows_one_bucket():
    w = np.tile(np.random.default_rng(1).standard_normal(8), (4, 1))
    ix = NeuronIndex.build(w, make_plan(3, 2, 10, 4, 8), seed=5)
    for table in ix.tables:
        occupied = [b for b in table.buckets if b]
        assert len(occupied) == 1
        assert sorted(occupied[0]) == [0, 1, 2, 3]


def test_build_identical_rows_capped():
    w = np.tile(np.random.default_rng(1).standard_normal(8), (4, 1))
    ix = NeuronIndex.build(w, make_plan(3, 2, 2, 4, 8), seed=5)
    for table in ix.tables:
        occupied = [b for b in table.buckets if b]
        assert len(occupied) == 1
        assert len(occupied[0]) == 2


def test_mean_occupancy_matches_expectation():
    d, k = 1000, 4
    w = np.random.default_rng(7).standard_normal((d, 32))
    ix = NeuronIndex.build(w, make_plan(k, 8, 2000, d, 32), seed=9)
    expected = d / 2**k
    for table in ix.tables:
        sizes = [len(b) for b in table.buckets if b]
        mean = sum(sizes) / len(sizes)
        assert abs(mean - expected) <= 0.35 * expected


def test_query_single_neuron_index():
    w = np.random.default_rng(0).standard_normal((1, 8))
    ix = NeuronIndex.build(w, make_plan(3, 4, 10, 1, 8), seed=5)
    for seed in range(5):
        x = sparsify(np.random.default_rng(seed).standard_normal(8))
        ids, padded, _ = ix.query(x, 1)
        assert ids.tolist() == [0]


def test_query_unions_selected_buckets():
    d_prev = 6
    hashers = [SrpHasher(2, d_prev, seed=s) for s in (1, 2)]
    ix = NeuronIndex(hashers, cap=10, num_neurons=4, seed=0)
    x = sparsify(np.random.default_rng(0).standard_normal(d_prev))
    c0 = hashers[0].hash(x)
    c1 = hashers[1].hash(x)
    # the other table gets a bucket the query does not select
    ix.insert_labels([1, 2], [c0, c1 ^ 1])
    ix.insert_labels([2, 3], [c0 ^ 1, c1])
    assert ix.tables[0].buckets[c0] == [1, 2]
    assert ix.tables[1].buckets[c1] == [2, 3]
    ids, padded, codes = ix.query(x, 3)
    assert ids.tolist() == [1, 2, 3]
    assert not padded.any()
    assert codes == [c0, c1]


def test_query_pads_to_min_count():
    d_prev = 6
    ix = NeuronIndex([SrpHasher(2, d_prev, seed=1)], cap=10, num_neurons=10, seed=0)
    x = sparsify(np.random.default_rng(1).standard_normal(d_prev))
    ids, padded, _ = ix.query(x, 4)
    assert ids.size == 4
    assert len(set(ids.tolist())) == 4
    assert padded.all()  # empty index: everything is fallback


def loop_pad(ix, ids, codes, min_count):
    """The round-robin padding loop the vectorised _pad replaced."""
    h = 0
    for c in codes:
        h = (h * 1000003 + c) & 0xFFFFFFFFFFFFFFFF
    have = set(ids.tolist())
    extra = []
    i = h % ix.num_neurons
    while len(have) + len(extra) < min_count:
        if i not in have:
            extra.append(i)
        i = (i + 1) % ix.num_neurons
    merged = np.concatenate([ids, np.asarray(extra, dtype=np.int64)])
    padded = np.concatenate([np.zeros(ids.size, dtype=bool), np.ones(len(extra), dtype=bool)])
    order = np.argsort(merged)
    return merged[order], padded[order]


def test_pad_matches_round_robin_loop():
    d = 300
    rng = np.random.default_rng(31)
    w = rng.standard_normal((d, 16))
    ix = NeuronIndex.build(w, make_plan(4, 6, 20, d, 16), seed=32)
    for trial in range(40):
        x = sparsify(rng.standard_normal(16))
        codes = [t.hasher.hash(x) for t in ix.tables]
        held = rng.choice(d, size=int(rng.integers(0, 60)), replace=False)
        ids = np.sort(held).astype(np.int64)
        min_count = d if trial % 4 == 0 else int(rng.integers(ids.size + 1, d + 1))
        got_ids, got_padded = ix._pad(ids, codes, min_count)
        want_ids, want_padded = loop_pad(ix, ids, codes, min_count)
        assert got_ids.tolist() == want_ids.tolist()
        assert got_padded.tolist() == want_padded.tolist()


def test_query_truncates_by_multiplicity():
    d_prev = 6
    hashers = [SrpHasher(1, d_prev, seed=s) for s in (1, 2, 3)]
    ix = NeuronIndex(hashers, cap=100, num_neurons=100, seed=0)
    x = sparsify(np.ones(d_prev))
    codes = [h.hash(x) for h in hashers]
    # neuron 7 collides in all three tables, the rest in one
    ix.insert_labels([7], codes)
    ix.insert_labels(range(10), [codes[0], codes[1] ^ 1, codes[2] ^ 1])
    ids, _, _ = ix.query(x, 1)  # budget = 4
    assert ids.size == 4
    assert 7 in ids.tolist()
    assert ids.tolist() == sorted(ids.tolist())


def unique_query(ix, x, min_count):
    """query's union, truncation and padding, counted with np.unique."""
    codes = [t.hasher.hash(x) for t in ix.tables]
    hits = np.concatenate([np.asarray(t.buckets[c], dtype=np.int64)
                           for t, c in zip(ix.tables, codes)])
    ids, counts = np.unique(hits, return_counts=True)
    budget = QUERY_BUDGET_FACTOR * min_count
    if ids.size > budget:
        ids = np.sort(ids[np.lexsort((ids, -counts))[:budget]])
    padded = np.zeros(ids.size, dtype=bool)
    if ids.size < min_count:
        ids, padded = loop_pad(ix, ids, codes, min_count)
    return ids, padded, codes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), small=st.booleans())
def test_query_matches_unique_oracle(seed, small):
    rng = np.random.default_rng(seed)
    d, d_prev = int(rng.integers(1, 150)), 6
    k, l, cap = int(rng.integers(1, 4)), int(rng.integers(1, 9)), int(rng.integers(1, 30))
    ix = NeuronIndex.build(rng.standard_normal((d, d_prev)), make_plan(k, l, cap, d, d_prev),
                           seed=seed)
    for _ in range(int(rng.integers(0, 6))):
        ix.insert_labels(rng.choice(d, size=int(rng.integers(1, min(d, 4) + 1)), replace=False),
                         rng.integers(0, 2**k, size=l).tolist())
    for _ in range(5):
        x = rng.standard_normal(d_prev)
        x[rng.random(d_prev) < 0.3] = 0.0
        x = sparsify(x)
        # a small min_count puts most unions past the budget
        min_count = int(rng.integers(1, min(d, 3) + 1 if small else d + 1))
        ids, padded, codes = ix.query(x, min_count)
        want_ids, want_padded, want_codes = unique_query(ix, x, min_count)
        assert ids.dtype == np.int64
        assert ids.tolist() == want_ids.tolist()
        assert padded.tolist() == want_padded.tolist()
        assert codes == want_codes


def test_query_recall_of_matching_row():
    d, d_prev = 100, 32
    rng = np.random.default_rng(0)
    hits_true = 0
    hits_other = 0
    for seed in range(40):
        w = rng.standard_normal((d, d_prev))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        ix = NeuronIndex.build(w, make_plan(4, 8, 50, d, d_prev), seed=seed)
        ids, _, _ = ix.query(sparsify(w[5]), 1)
        hits_true += 5 in ids.tolist()
        hits_other += 17 in ids.tolist()
    assert hits_true > hits_other


def test_query_union_monotone_over_table_prefix():
    d, d_prev = 200, 16
    w = np.random.default_rng(2).standard_normal((d, d_prev))
    ix = NeuronIndex.build(w, make_plan(4, 6, 100, d, d_prev), seed=3)
    x = sparsify(np.random.default_rng(4).standard_normal(d_prev))
    codes = [t.hasher.hash(x) for t in ix.tables]
    union = set()
    prev = set()
    for t, c in zip(ix.tables, codes):
        union |= set(t.buckets[c])
        assert union >= prev
        prev = set(union)


def test_insert_labels_append_dedup_cap():
    d_prev = 8
    ix = NeuronIndex([SrpHasher(2, d_prev, seed=1)], cap=3, num_neurons=50, seed=0)
    tables = ix.tables
    ix.insert_labels([7], [2])
    assert tables[0].buckets[2] == [7]
    ix.insert_labels([7], [2])  # duplicate: unchanged
    assert tables[0].buckets[2] == [7]
    ix.insert_labels([8, 9], [2])
    assert tables[0].buckets[2] == [7, 8, 9]
    ix.insert_labels([10], [2])  # full: evicts a victim, cap holds
    assert len(tables[0].buckets[2]) == 3
    assert 10 in tables[0].buckets[2]


def test_cap_invariant_after_interleaving():
    d, d_prev = 300, 16
    rng = np.random.default_rng(5)
    w = rng.standard_normal((d, d_prev))
    plan = make_plan(3, 4, 20, d, d_prev)
    ix = NeuronIndex.build(w, plan, seed=6)
    for step in range(20):
        labels = rng.integers(0, d, size=3).tolist()
        codes = [int(rng.integers(0, 8)) for _ in ix.tables]
        ix.insert_labels(labels, codes)
        if step % 7 == 0:
            ix.rebuild(w)
        for table in ix.tables:
            assert all(len(b) <= plan.bucket_cap for b in table.buckets)


def test_build_deterministic():
    d, d_prev = 100, 16
    w = np.random.default_rng(8).standard_normal((d, d_prev))
    plan = make_plan(4, 5, 8, d, d_prev)
    a = NeuronIndex.build(w, plan, seed=1)
    b = NeuronIndex.build(w, plan, seed=1)
    for ta, tb in zip(a.tables, b.tables):
        assert ta.buckets == tb.buckets
        assert ta.hasher.seed == tb.hasher.seed


def test_rebuild_reproduces_build():
    d, d_prev = 100, 16
    w = np.random.default_rng(8).standard_normal((d, d_prev))
    plan = make_plan(4, 5, 8, d, d_prev)
    ix = NeuronIndex.build(w, plan, seed=1)
    before = [list(map(list, t.buckets)) for t in ix.tables]
    ix.insert_labels([3], [0] * len(ix.tables))  # discarded on rebuild
    ix.rebuild(w)
    after = [list(map(list, t.buckets)) for t in ix.tables]
    assert before == after


def test_rebuild_zero_weights_all_in_bucket_zero():
    d, d_prev = 30, 8
    w = np.random.default_rng(1).standard_normal((d, d_prev))
    plan = make_plan(3, 2, 100, d, d_prev)
    ix = NeuronIndex.build(w, plan, seed=2)
    ix.rebuild(np.zeros((d, d_prev)))
    for table in ix.tables:
        assert sorted(table.buckets[0]) == list(range(d))
        assert all(not b for b in table.buckets[1:])


def test_serialization_round_trip():
    d, d_prev = 120, 16
    w = np.random.default_rng(10).standard_normal((d, d_prev))
    plan = make_plan(4, 3, 10, d, d_prev)
    ix = NeuronIndex.build(w, plan, seed=77)
    buf = io.BytesIO()
    ix.save(buf)
    assert buf.getvalue()[:4] == b"LSHI"
    buf.seek(0)
    again = NeuronIndex.load(buf)
    assert again.num_neurons == ix.num_neurons
    for ta, tb in zip(ix.tables, again.tables):
        assert ta.buckets == tb.buckets
        assert ta.hasher.seed == tb.hasher.seed
        assert ta.cap == tb.cap
    x = sparsify(np.random.default_rng(11).standard_normal(d_prev))
    ids_a, _, _ = ix.query(x, 5)
    ids_b, _, _ = again.query(x, 5)
    assert ids_a.tolist() == ids_b.tolist()


def test_collision_law_small():
    # per-bit collision probability for angle theta is 1 - theta/pi
    n = 4000
    h = SrpHasher(1, 2, seed=0)
    proj = np.random.default_rng(123).standard_normal((n, 2))
    for theta in (0.0, math.pi / 4, math.pi / 2):
        u = np.array([1.0, 0.0])
        v = np.array([math.cos(theta), math.sin(theta)])
        agree = np.mean((proj @ u > 0) == (proj @ v > 0))
        assert abs(agree - (1 - theta / math.pi)) < 0.03


# -- exactness of the array store against the list-of-lists loops it replaced --


def loop_reservoir(ids, cap, rng):
    """Algorithm R over ids in insertion order; mutates rng."""
    if len(ids) <= cap:
        return ids
    kept = ids[:cap]
    for i in range(cap, len(ids)):
        j = int(rng.integers(0, i + 1))
        if j < cap:
            kept[j] = ids[i]
    return kept


def loop_fill(hashers, cap, weights, rng):
    """The per-bucket reservoir loop the one-draw build replaced."""
    d = weights.shape[0]
    tables = []
    for h in hashers:
        buckets = [[] for _ in range(2**h.k_bits)]
        codes = h.hash_rows(weights)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts = np.searchsorted(sorted_codes, np.arange(2**h.k_bits))
        ends = np.append(starts[1:], d)
        for code in np.unique(sorted_codes):
            buckets[code] = loop_reservoir(order[starts[code]:ends[code]].tolist(), cap, rng)
        tables.append(buckets)
    return tables


def loop_insert(tables, cap, label_ids, codes, rng):
    """The list-based label insertion: table by table, label by label."""
    for buckets, code in zip(tables, codes):
        bucket = buckets[code]
        for label in label_ids:
            label = int(label)
            if label in bucket:
                continue
            if len(bucket) < cap:
                bucket.append(label)
            else:
                bucket[int(rng.integers(0, cap))] = label


def loop_save(ix):
    """Model format v1 written from list buckets, as before the array store."""
    buf = io.BytesIO()
    h0 = ix.hashers[0]
    buf.write(b"LSHI")
    buf.write(struct.pack("<IIIIIIq", 1, h0.k_bits, len(ix.hashers), ix.cap,
                          ix.num_neurons, h0.input_dim, ix.seed))
    for h in ix.hashers:
        buf.write(struct.pack("<Q", h.seed))
    for table in ix.tables:
        occupied = [(c, b) for c, b in enumerate(table.buckets) if b]
        buf.write(struct.pack("<I", len(occupied)))
        for code, bucket in occupied:
            buf.write(struct.pack("<II", code, len(bucket)))
            buf.write(np.asarray(bucket, dtype="<u4").tobytes())
    return buf.getvalue()


@pytest.mark.parametrize("cap", [20, 400])
def test_build_insert_rebuild_match_list_loops(cap):
    # 2,000 ids over 16 buckets: at cap 20 every bucket overflows many times
    # over; at cap 400 none does and inserts grow the slot width
    d, d_prev, k, l = 2000, 16, 4, 6
    rng = np.random.default_rng(41)
    w = rng.standard_normal((d, d_prev)) + np.linspace(-1, 1, d_prev)
    ix = NeuronIndex.build(w, make_plan(k, l, cap, d, d_prev), seed=42)
    loop_rng = np.random.default_rng(42)
    want = loop_fill(ix.hashers, cap, w, loop_rng)
    assert [t.buckets for t in ix.tables] == want
    assert ix._rng.integers(0, 2**62) == loop_rng.integers(0, 2**62)
    for step in range(40):
        labels = rng.choice(d, size=1 + step % 3, replace=False)
        codes = rng.integers(0, 2**k, size=l).tolist()
        ix.insert_labels(labels, codes)
        loop_insert(want, cap, labels, codes, loop_rng)
    assert [t.buckets for t in ix.tables] == want
    assert ix._rng.integers(0, 2**62) == loop_rng.integers(0, 2**62)
    w2 = w + 0.5 * rng.standard_normal(w.shape)
    ix.rebuild(w2)
    loop_rng = np.random.default_rng(42)
    assert [t.buckets for t in ix.tables] == loop_fill(ix.hashers, cap, w2, loop_rng)
    assert ix._rng.integers(0, 2**62) == loop_rng.integers(0, 2**62)


def test_insert_labels_matches_list_loop():
    # eight labels over 4-slot buckets: lists with repeats fill buckets part
    # way through, and evictions drop labels that come again later in a list
    l, cap = 5, 4
    ix = NeuronIndex([SrpHasher(2, 8, seed=s) for s in range(l)], cap=cap,
                     num_neurons=8, seed=47)
    want = [[[] for _ in range(4)] for _ in range(l)]
    loop_rng = np.random.default_rng(47)
    rng = np.random.default_rng(48)
    for step in range(300):
        labels = rng.integers(0, 8, size=int(rng.integers(1, 6))).tolist()
        codes = rng.integers(0, 4, size=l).tolist()
        ix.insert_labels(labels, codes)
        loop_insert(want, cap, labels, codes, loop_rng)
        assert [t.buckets for t in ix.tables] == want, step
    assert ix._rng.integers(0, 2**62) == loop_rng.integers(0, 2**62)


def test_save_load_save_byte_identical():
    d, d_prev, k, l = 1500, 16, 5, 7
    rng = np.random.default_rng(43)
    w = rng.standard_normal((d, d_prev))
    ix = NeuronIndex.build(w, make_plan(k, l, 30, d, d_prev), seed=44)
    for stage in ("fresh", "after inserts"):
        stream = io.BytesIO()
        ix.save(stream)
        assert stream.getvalue() == loop_save(ix), stage
        stream.write(b"next")
        stream.seek(0)
        again = NeuronIndex.load(stream)
        assert stream.read() == b"next", stage  # the load stops at the index's end
        out = io.BytesIO()
        again.save(out)
        assert out.getvalue() + b"next" == stream.getvalue(), stage
        for _ in range(60):
            ix.insert_labels(rng.choice(d, size=2, replace=False),
                             rng.integers(0, 2**k, size=l).tolist())


def test_load_rejects_truncated_stream():
    w = np.random.default_rng(45).standard_normal((200, 8))
    buf = io.BytesIO()
    NeuronIndex.build(w, make_plan(3, 4, 10, 200, 8), seed=46).save(buf)
    for cut in (30, buf.tell() - 5):
        with pytest.raises(ValueError):
            NeuronIndex.load(io.BytesIO(buf.getvalue()[:cut]))


class SmallReads(io.BytesIO):
    """A stream that fails any read larger than 1 MB."""

    def read(self, n=-1):
        assert 0 <= n <= 1 << 20, n
        return super().read(n)


@pytest.mark.parametrize("field", ["id", "code", "count", "code order"])
def test_load_rejects_corrupt_record(field):
    d, k = 200, 3
    w = np.random.default_rng(45).standard_normal((d, 8))
    buf = io.BytesIO()
    NeuronIndex.build(w, make_plan(k, 4, 10, d, 8), seed=46).save(buf)
    data = bytearray(buf.getvalue())
    # the first table's first record follows the header, 4 seeds and its bucket count
    code_at = 4 + 32 + 8 * 4 + 4
    code, count = struct.unpack_from("<II", data, code_at)
    last_at = code_at  # the table's last record, whose code no later one bounds
    for _ in range(struct.unpack_from("<I", data, code_at - 4)[0] - 1):
        last_at += 8 + 4 * struct.unpack_from("<I", data, last_at + 4)[0]
    at, word = {
        "id": (code_at + 8, d),
        "code": (last_at, 2**k),
        "count": (code_at + 4, 0xFFFFFFFF),  # refused before its ids are read
        "code order": (code_at + 8 + 4 * count, code),
    }[field]
    struct.pack_into("<I", data, at, word)
    with pytest.raises(ValueError, match="corrupt"):
        NeuronIndex.load(SmallReads(bytes(data)))


def test_query_codes_equal_per_table_hashes():
    d, d_prev = 400, 24
    rng = np.random.default_rng(47)
    ix = NeuronIndex.build(rng.standard_normal((d, d_prev)), make_plan(6, 9, 30, d, d_prev), seed=48)
    for trial in range(60):
        x = rng.standard_normal(d_prev)  # dense
        if trial % 4 == 1:
            x[rng.random(d_prev) < 0.7] = 0.0
        elif trial % 4 == 2:
            x[:] = 0.0
        v = sparsify(x)
        _, _, codes = ix.query(v, 20)
        assert codes == [t.hasher.hash(v) for t in ix.tables]


# -- sampler invariants under interleaved query, insert, rebuild and training --


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.sampled_from(["query", "insert", "rebuild", "train"]),
                    min_size=1, max_size=25))
def test_sampler_invariants_under_interleaving(seed, ops):
    rng = np.random.default_rng(seed)
    d, d_prev = 120, 8
    k, l, cap = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 12))
    w = rng.standard_normal((d, d_prev))
    ix = NeuronIndex.build(w, make_plan(k, l, cap, d, d_prev), seed=seed)
    layer = SparseLinearLayer(w, np.zeros(d), 0.05, SOFTMAX, index=ix)

    def sample():
        x = rng.standard_normal(d_prev)
        x[rng.random(d_prev) < 0.4] = 0.0
        return sparsify(x)

    for op in ops:
        if op == "query":
            min_count = int(rng.integers(1, d + 1))
            ids, padded, codes = ix.query(sample(), min_count)
            assert ids.size >= min_count and padded.size == ids.size
            assert np.all(np.diff(ids) > 0)
            assert len(codes) == l and all(0 <= c < 2**k for c in codes)
        elif op == "insert":
            ix.insert_labels(rng.choice(d, size=int(rng.integers(1, 4)), replace=False),
                             rng.integers(0, 2**k, size=l).tolist())
        elif op == "rebuild":
            layer.weights += 0.3 * rng.standard_normal(w.shape)
            ix.rebuild(layer.weights)
        else:
            labels = rng.choice(d, size=int(rng.integers(1, 3)), replace=False)
            res = layer.forward(sample(), TRAIN, labels)
            assert set(labels.tolist()) <= set(res.active.ids.tolist())
            assert np.all(np.diff(res.active.ids) > 0)
            if res.aln_record is not None:
                ix.insert_labels(*res.aln_record)
        assert np.all((ix.fill >= 0) & (ix.fill <= cap))
        for table in ix.tables:
            for bucket in table.buckets:
                assert len(set(bucket)) == len(bucket)
                assert all(0 <= i < d for i in bucket)
