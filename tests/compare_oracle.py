"""``compare`` as it stood before it computed the fingerprint keys one at a
time and stopped at the first difference, kept verbatim as the oracle for
the differential tests of ``canonical_invariants.compare``: it builds both
full fingerprints, then compares them key by key."""

from typing import Optional

from mipkit.canonical_invariants import _walk_differences, fingerprint, stabilization_threshold
from mipkit.group_core import FiniteGroup


def compare(
    G: FiniteGroup,
    H: FiniteGroup,
    depth_limit: int = 2,
    t_max: Optional[int] = None,
) -> dict:
    """Verdict: the first differing fingerprint key, or indistinguishability.

    Comparison keys run group-level Jennings series first, then d, the
    abelian-factor type, then the catalog in sorted key order.  Both
    fingerprints use the shared stabilization threshold so that exponent
    alone can never fabricate a verdict.
    """
    if G.p != H.p:
        raise ValueError("compare needs groups over the same prime")
    tau = max(stabilization_threshold(G), stabilization_threshold(H))
    if t_max is None:
        t_max = tau + 1
    fg = fingerprint(G, depth_limit, t_max, tau)
    fh = fingerprint(H, depth_limit, t_max, tau)
    ordered = ["order", "jennings", "d", "ab_type"]
    for key in ordered:
        a, b = fg.payload[key], fh.payload[key]
        if a != b:
            return {
                "verdict": "distinguished-by",
                "key": key,
                "left": list(a) if isinstance(a, tuple) else a,
                "right": list(b) if isinstance(b, tuple) else b,
            }
    diff = next(_walk_differences(fg.payload["catalog"], fh.payload["catalog"], "catalog"), None)
    if diff is not None:
        return {"verdict": "distinguished-by", "key": diff}
    return {
        "verdict": "indistinguishable-at-depth",
        "depth": depth_limit,
        "t_max": t_max,
    }
