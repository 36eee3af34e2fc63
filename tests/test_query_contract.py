"""The BCC query rule (Defs. 4 and 8): m >= 2 query vertices of the graph
with pairwise distinct labels and one k_i each. Every BCC entry point
raises ``InvalidQuery`` for a query outside it, ``is_bcc`` rejects it,
and the label-blind baselines raise for an unknown vertex."""
import pytest

from repro.baselines import ctc, psa
from repro.core import InvalidQuery, default_ks, is_bcc, l2p_bcc, lp_bcc, online_bcc
from repro.core.g0 import find_g0_local
from repro.synth_graphs import figure2_graph

#: Figure 2: 0..5 carry SE (a 4-core), 10..13 UI (a 3-core); the valid
#: query is ([0, 10], [4, 3]) with b = 1
MALFORMED = {
    "unknown_vertex": ([0, 999], [4, 3]),
    "repeated_label": ([0, 5], [4, 4]),
    "one_query": ([0], [4]),
    "short_ks": ([0, 10], [4]),
    "long_ks": ([0, 10], [4, 3, 2]),
}

SEARCHES = {
    "online_bcc": online_bcc,
    "lp_bcc": lp_bcc,
    "l2p_bcc": l2p_bcc,
    "find_g0_local": find_g0_local,
}


@pytest.mark.parametrize("case", list(MALFORMED))
@pytest.mark.parametrize("name", list(SEARCHES))
def test_search_raises(name, case):
    queries, ks = MALFORMED[case]
    with pytest.raises(InvalidQuery):
        SEARCHES[name](figure2_graph(), queries, ks, 1)


@pytest.mark.parametrize("case", ["unknown_vertex", "repeated_label", "one_query"])
def test_default_ks_raises(case):
    with pytest.raises(InvalidQuery):
        default_ks(figure2_graph(), MALFORMED[case][0])


def _community(case):
    """A graph that passes every condition but the query rule: the SE
    group alone for one query, Figure 2's (4,3,1)-BCC otherwise."""
    keep = range(6) if case == "one_query" else [0, 1, 2, 3, 4, 5, 10, 11, 12, 13]
    return figure2_graph().induced(keep)


@pytest.mark.parametrize("case", list(MALFORMED))
def test_is_bcc_rejects(case):
    queries, ks = MALFORMED[case]
    assert is_bcc(_community("valid"), [0, 10], [4, 3], 1)
    assert not is_bcc(_community(case), queries, ks, 1)


@pytest.mark.parametrize("baseline", [ctc, psa], ids=["ctc", "psa"])
def test_baseline_unknown_vertex_raises(baseline):
    with pytest.raises(InvalidQuery, match="999"):
        baseline(figure2_graph(), [0, 999])
