"""BCindex construction: distributed vs local must agree."""
from repro.core.bcindex import build_bcindex_local, build_bcindex_spark


def test_coreness_index_matches(fig3_spark, fig3_local):
    a = build_bcindex_local(fig3_local)
    b = build_bcindex_spark(fig3_spark)
    assert a.coreness == b.coreness
    assert a.delta_max == b.delta_max


def test_chi_index_matches(fig3_spark, fig3_local):
    a = build_bcindex_local(fig3_local)
    b = build_bcindex_spark(fig3_spark)
    ca = a.chi_for_pair("A", "B")
    cb = b.chi_for_pair("A", "B")
    # the distributed index only materialises cross-edge endpoints;
    # missing entries are implicitly 0
    for v in set(ca) | set(cb):
        assert ca.get(v, 0) == cb.get(v, 0)
    assert max(ca.values()) == max(cb.values()) == 6


def test_chi_pair_cached(fig3_local):
    idx = build_bcindex_local(fig3_local)
    first = idx.chi_for_pair("A", "B")
    assert idx.chi_for_pair("B", "A") is first  # frozenset key, cached


def test_planted_index_matches(planted_small_spark, planted_small_local):
    a = build_bcindex_local(planted_small_local)
    b = build_bcindex_spark(planted_small_spark)
    assert a.coreness == b.coreness
