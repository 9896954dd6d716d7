"""Pure helpers of the end-to-end benchmark (run.py): percentiles with
their sample counts, span self time, and the per-request correctness
check. Kept free of process and build handling so tests/ can cover them.
"""
import json
import math

# Percentiles tail_percentile() picks from, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)
# A reported percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile of `values` (p in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(values):
    """The highest candidate percentile with at least TAIL_MIN_BEYOND
    samples beyond it, as (p, value, samples_beyond); None when even the
    median has fewer."""
    n = len(values)
    best = None
    for p in TAIL_CANDIDATES:
        beyond = n - max(1, math.ceil(p / 100.0 * n))
        if beyond >= TAIL_MIN_BEYOND:
            best = (p, percentile(values, p), beyond)
    return best


def self_times(spans):
    """Self time (us) of every span, by id: its duration minus the part
    of its interval that its child spans cover. Children may overlap each
    other (parallel items under one drain) and may stick out of the
    parent; only the union of their overlap with the parent counts."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        covered = 0.0
        cur_lo = cur_hi = None
        clipped = sorted(
            (max(lo, c["start_us"]), min(hi, c["end_us"]))
            for c in children.get(s["id"], ()))
        for a, b in clipped:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def layer_self_times(spans):
    """Mean self time (us) per request of each layer, where a span's
    layer is the part of its name before the first dot."""
    own = self_times(spans)
    requests = {s["request"] for s in spans} or {0}
    totals = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[s["id"]]
    return {k: v / len(requests) for k, v in sorted(totals.items())}


def totals_of(out):
    """The "totals" object of a sweep-shaped JSON report, or None when
    `out` does not parse as one."""
    try:
        return json.loads(out)["totals"]
    except (ValueError, KeyError, TypeError):
        return None


def pinned_mismatches(out, pinned):
    """Names of pinned totals that `out` does not report exactly."""
    totals = totals_of(out) or {}
    return sorted(k for k, v in pinned.items() if totals.get(k) != v)


def request_ok(exit_code, out, reference, reference_ok):
    """One request's verdict: exit code 0 (clean) or 3 (findings), stdout
    byte-identical to the reference, and a reference whose totals match
    the pinned ones."""
    return exit_code in (0, 3) and out == reference and reference_ok


def fail_ratio(verdicts):
    """Failed requests / attempted requests."""
    if not verdicts:
        raise ValueError("no requests attempted")
    return sum(1 for ok in verdicts if not ok) / len(verdicts)


def fired_classes(out, class_map):
    """EAI classes the violated injections of a sweep-shaped JSON report
    fire, via class_map ("<kind>:<fault>" -> class, from
    `perfbench_traced classes`). Empty when `out` does not parse."""
    try:
        scenarios = json.loads(out)["scenarios"]
    except (ValueError, KeyError, TypeError):
        return set()
    fired = set()
    for sc in scenarios:
        for inj in sc.get("injections", ()):
            if inj.get("violated"):
                label = class_map.get(f"{inj.get('kind')}:{inj.get('fault')}")
                if label:
                    fired.add(label)
    return fired
