"""Statistics for the benchmark: percentiles, segment medians, span self
times.

Everything here is pure: the harness (pbharness) measures and records raw
samples; these functions turn them into the reported metrics. The unit
tests in perfbench/tests exercise them directly.
"""

import bisect
import math
import statistics


def percentile(samples, q):
    """Nearest-rank percentile q (0..100) of samples.

    Returns (value, beyond): beyond is how many samples lie above the
    chosen rank, so a caller can insist on at least ten.
    """
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    # The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
    rank = max(1, math.ceil(q * len(xs) / 100.0 - 1e-9))
    return xs[rank - 1], len(xs) - rank


def tail_percentile(samples, q=99.0, min_beyond=10):
    """The q-th percentile, or None when fewer than min_beyond samples lie
    beyond it (the percentile would rest on too few samples)."""
    value, beyond = percentile(samples, q)
    return value if beyond >= min_beyond else None


def segment_medians(t, steps, lat, segments=5, busy=None):
    """A closed loop's jobs/s, steps/s and p50 latency, each the median over
    `segments` equal-time segments of the run: a burst of load from
    elsewhere on the machine slows one segment, not the figure.

    t: each job's completion time from the start (s), in order; steps and
    lat: the same jobs' step counts and latencies (ms). busy, if given, is
    each job's own time (s): the rates are then per second of job time
    rather than of the segment.
    """
    end = t[-1]
    rates, step_rates, p50s = [], [], []
    lo, i = 0.0, 0
    for k in range(1, segments + 1):
        hi = end * k / segments
        j = i
        while j < len(t) and t[j] <= hi:
            j += 1
        if j > i:
            span = sum(busy[i:j]) if busy else hi - lo
            rates.append((j - i) / span)
            step_rates.append(sum(steps[i:j]) / span)
            p50s.append(statistics.median(lat[i:j]))
        lo, i = hi, j
    return (statistics.median(rates), statistics.median(step_rates),
            statistics.median(p50s))


def host_normalized(lat, ref, nominal, at=None, window=31):
    """Each job's time on a host whose reference takes `nominal`:
    lat[i] * nominal / the median of the `window` reference times around
    the one that applies to job i. Reference k applies from job at[k] (at is
    sorted) to the next reference's; without `at` there is one reference
    per job.

    The cost of starting a process, or of running `cc`, drifts by tens of
    percent over seconds to minutes on a shared host, and a job that is
    mostly that work drifts with it. A reference (a C++ program that only
    starts and exits, after every job, or `cc` on a fixed file every round)
    runs nothing of the program under test, so dividing by it removes the
    host's drift and keeps every change to the program.
    """
    if at is None:
        at = range(len(ref))
    half = window // 2
    out = []
    for i, x in enumerate(lat):
        k = max(0, bisect.bisect_right(at, i) - 1)
        near = ref[max(0, k - half):k + half + 1]
        out.append(x * nominal / statistics.median(near))
    return out


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    the quartiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def self_times(spans):
    """Self time per span name and per layer, in ns.

    spans: dicts with name, start, end, parent (index or -1) and optionally
    excl / excl_name (time inside the span that belongs to a child layer
    without spans of its own). A span's self time is its duration minus the
    part of it its child spans cover, minus excl; excl is credited to
    excl_name. The layer is the name up to the first dot.
    """
    covered = [0] * len(spans)
    for s in spans:
        p = s["parent"]
        if p >= 0:
            covered[p] += s["end"] - s["start"]
    by_name, by_layer = {}, {}

    def credit(name, ns):
        by_name[name] = by_name.get(name, 0) + ns
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0) + ns

    for i, s in enumerate(spans):
        excl = s.get("excl", 0)
        credit(s["name"], s["end"] - s["start"] - covered[i] - excl)
        if excl:
            credit(s["excl_name"], excl)
    return by_name, by_layer
