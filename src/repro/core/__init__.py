"""The paper's contribution: BCC model, search algorithms, and index.

* ``model`` — Def. 4/8 verification and result types.
* ``g0`` — Algorithm 2 (distributed + local engines).
* ``engine`` — Algorithms 1, 4, 5, 6, 7, 9 (Online and LP modes).
* ``search`` — ``online_bcc`` / ``lp_bcc`` entry points.
* ``bcindex``/``l2p`` — Section 6.3's index and L²P-BCC (Algorithm 8).
"""
from .model import BCCResult, InvalidQuery, is_bcc, cross_bipartite, pair_satisfied  # noqa: F401
from .g0 import find_g0_local, find_g0_spark  # noqa: F401
from .engine import RefinementEngine  # noqa: F401
from .search import default_ks, lp_bcc, online_bcc  # noqa: F401
from .bcindex import BCIndex, build_bcindex_local, build_bcindex_spark  # noqa: F401
from .l2p import l2p_bcc  # noqa: F401
