import io
import math

import numpy as np
import pytest

from lshnet.autotune import AutotuneConfig, AutotunePlan
from lshnet.errors import DimensionError
from lshnet.lsh import HashTable, NeuronIndex, SrpHasher, build_index
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
    ix = build_index(w, make_plan(3, 4, 10, 1, 8), seed=5)
    for table in ix.tables:
        occupied = [b for b in table.buckets if b]
        assert occupied == [[0]]


def test_build_identical_rows_one_bucket():
    w = np.tile(np.random.default_rng(1).standard_normal(8), (4, 1))
    ix = build_index(w, make_plan(3, 2, 10, 4, 8), seed=5)
    for table in ix.tables:
        occupied = [b for b in table.buckets if b]
        assert len(occupied) == 1
        assert sorted(occupied[0]) == [0, 1, 2, 3]


def test_build_identical_rows_capped():
    w = np.tile(np.random.default_rng(1).standard_normal(8), (4, 1))
    ix = build_index(w, make_plan(3, 2, 2, 4, 8), seed=5)
    for table in ix.tables:
        occupied = [b for b in table.buckets if b]
        assert len(occupied) == 1
        assert len(occupied[0]) == 2


def test_mean_occupancy_matches_expectation():
    d, k = 1000, 4
    w = np.random.default_rng(7).standard_normal((d, 32))
    ix = build_index(w, make_plan(k, 8, 2000, d, 32), seed=9)
    expected = d / 2**k
    for table in ix.tables:
        sizes = [len(b) for b in table.buckets if b]
        mean = sum(sizes) / len(sizes)
        assert abs(mean - expected) <= 0.35 * expected


def test_query_single_neuron_index():
    w = np.random.default_rng(0).standard_normal((1, 8))
    ix = build_index(w, make_plan(3, 4, 10, 1, 8), seed=5)
    for seed in range(5):
        x = sparsify(np.random.default_rng(seed).standard_normal(8))
        ids, padded, _ = ix.query(x, 1)
        assert ids.tolist() == [0]


def test_query_unions_selected_buckets():
    d_prev = 6
    tables = [HashTable.empty(SrpHasher(2, d_prev, seed=s), cap=10) for s in (1, 2)]
    ix = NeuronIndex(tables, num_neurons=4, seed=0)
    x = sparsify(np.random.default_rng(0).standard_normal(d_prev))
    c0 = tables[0].hasher.hash(x)
    c1 = tables[1].hasher.hash(x)
    tables[0].buckets[c0] = [1, 2]
    tables[1].buckets[c1] = [2, 3]
    ids, padded, codes = ix.query(x, 3)
    assert ids.tolist() == [1, 2, 3]
    assert not padded.any()
    assert codes == [c0, c1]


def test_query_pads_to_min_count():
    d_prev = 6
    tables = [HashTable.empty(SrpHasher(2, d_prev, seed=1), cap=10)]
    ix = NeuronIndex(tables, num_neurons=10, seed=0)
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
    ix = build_index(w, make_plan(4, 6, 20, d, 16), seed=32)
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
    tables = [HashTable.empty(SrpHasher(1, d_prev, seed=s), cap=100) for s in (1, 2, 3)]
    ix = NeuronIndex(tables, num_neurons=100, seed=0)
    x = sparsify(np.ones(d_prev))
    codes = [t.hasher.hash(x) for t in tables]
    # neuron 7 collides in all three tables, the rest in one
    for t, c in zip(tables, codes):
        t.buckets[c] = [7]
    tables[0].buckets[codes[0]].extend(range(10))
    ids, _, _ = ix.query(x, 1)  # budget = 4
    assert ids.size == 4
    assert 7 in ids.tolist()
    assert ids.tolist() == sorted(ids.tolist())


def test_query_recall_of_matching_row():
    d, d_prev = 100, 32
    rng = np.random.default_rng(0)
    hits_true = 0
    hits_other = 0
    for seed in range(40):
        w = rng.standard_normal((d, d_prev))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        ix = build_index(w, make_plan(4, 8, 50, d, d_prev), seed=seed)
        ids, _, _ = ix.query(sparsify(w[5]), 1)
        hits_true += 5 in ids.tolist()
        hits_other += 17 in ids.tolist()
    assert hits_true > hits_other


def test_query_union_monotone_over_table_prefix():
    d, d_prev = 200, 16
    w = np.random.default_rng(2).standard_normal((d, d_prev))
    ix = build_index(w, make_plan(4, 6, 100, d, d_prev), seed=3)
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
    tables = [HashTable.empty(SrpHasher(2, d_prev, seed=1), cap=3)]
    ix = NeuronIndex(tables, num_neurons=50, seed=0)
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
    ix = build_index(w, plan, seed=6)
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
    a = build_index(w, plan, seed=1)
    b = build_index(w, plan, seed=1)
    for ta, tb in zip(a.tables, b.tables):
        assert ta.buckets == tb.buckets
        assert ta.hasher.seed == tb.hasher.seed


def test_rebuild_reproduces_build():
    d, d_prev = 100, 16
    w = np.random.default_rng(8).standard_normal((d, d_prev))
    plan = make_plan(4, 5, 8, d, d_prev)
    ix = build_index(w, plan, seed=1)
    before = [list(map(list, t.buckets)) for t in ix.tables]
    ix.insert_labels([3], [0] * len(ix.tables))  # discarded on rebuild
    ix.rebuild(w)
    after = [list(map(list, t.buckets)) for t in ix.tables]
    assert before == after


def test_rebuild_zero_weights_all_in_bucket_zero():
    d, d_prev = 30, 8
    w = np.random.default_rng(1).standard_normal((d, d_prev))
    plan = make_plan(3, 2, 100, d, d_prev)
    ix = build_index(w, plan, seed=2)
    ix.rebuild(np.zeros((d, d_prev)))
    for table in ix.tables:
        assert sorted(table.buckets[0]) == list(range(d))
        assert all(not b for b in table.buckets[1:])


def test_serialization_round_trip():
    d, d_prev = 120, 16
    w = np.random.default_rng(10).standard_normal((d, d_prev))
    plan = make_plan(4, 3, 10, d, d_prev)
    ix = build_index(w, plan, seed=77)
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
