"""Statistics of the repository benchmark, kept apart so test_stats.py can
check them: percentile selection and support, backlog detection and the
rate-ladder search behind max_qps_at_slo."""

import math
import statistics

# Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
# A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile of `values` (any order); None when empty."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1] if ordered else None


def beyond(n, p):
    """Number of samples strictly above the nearest-rank p-th percentile."""
    return n - rank(n, p) if n else 0


def tail_percentile(n):
    """The highest of PERCENTILES with at least MIN_BEYOND of `n` samples
    beyond it, or None when even the median is unsupported."""
    best = None
    for p in PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def require_support(n, p):
    """Raises ValueError unless `n` samples support the p-th percentile."""
    if beyond(n, p) < MIN_BEYOND:
        raise ValueError(f"{n} samples do not support a p{p:g} "
                         f"(it needs {MIN_BEYOND} samples beyond it)")


def windowed_percentiles(values, window, ps):
    """For each p in `ps`: the median, over consecutive windows of `window`
    values (in arrival order; a short tail is dropped), of the window's p-th
    percentile. A burst of outside load then moves one window, not the
    whole reading. Fewer than `window` values form one window. Raises
    ValueError when a window cannot support every p."""
    window = min(window, len(values))
    windows = [values[i:i + window]
               for i in range(0, len(values) - window + 1, window)] \
        if window else []
    require_support(window, max(ps))
    return tuple(statistics.median(percentile(w, p) for w in windows)
                 for p in ps)


def pass_percentiles(by_query, ps):
    """Latency of one pass over a closed loop's fixed query list, at each p
    in `ps`.

    `by_query` maps each query to its latencies. Each latency is divided by
    its own query's median, which pools the list's unlike queries into one
    sample; the p-th percentile of that sample times the sum of the
    medians is the pass latency at p. Raises ValueError when the pooled
    sample cannot support every p."""
    medians = {q: statistics.median(v) for q, v in by_query.items() if v}
    relative = [x / medians[q] for q, v in by_query.items() for x in v]
    require_support(len(relative), max(ps))
    total = sum(medians.values())
    return tuple(percentile(relative, p) * total for p in ps)


def backlog_growth(intervals, start, end, samples=40):
    """Growth of the backlog over [start, end], in requests, from a
    least-squares line through `samples` evenly spaced readings.

    `intervals` holds (due, done) pairs; a request is in the backlog from
    its due time until it is answered (done None: never answered)."""
    if end <= start or samples < 2:
        return 0.0
    times = [start + (end - start) * (i + 0.5) / samples for i in range(samples)]
    counts = []
    for t in times:
        counts.append(sum(1 for due, done in intervals
                          if due <= t and (done is None or done > t)))
    mean_t = sum(times) / samples
    mean_c = sum(counts) / samples
    var = sum((t - mean_t) ** 2 for t in times)
    slope = sum((t - mean_t) * (c - mean_c) for t, c in zip(times, counts)) / var
    return slope * (end - start)


def backlog_grows(intervals, start, end, share=0.05, floor=5):
    """True when the backlog grew by more than `share` of the requests due
    in [start, end] (and by more than `floor` requests)."""
    due = sum(1 for d, _ in intervals if start <= d < end)
    return backlog_growth(intervals, start, end) > max(floor, share * due)


def rung_passes(rung, slo_ms):
    """A ladder rung meets the limit when every request succeeded, its p99
    is supported by the sample and within `slo_ms`, and no backlog grew."""
    return (rung["failed"] == 0 and not rung["growing"]
            and tail_percentile(rung["n"]) is not None
            and tail_percentile(rung["n"]) >= 99.0
            and rung["p99_ms"] <= slo_ms)


def max_rate_at_slo(rungs, slo_ms):
    """Highest rate of an ascending ladder that meets the limit.

    Each rung is a dict with rate, n, failed, growing and p99_ms. The rate
    is that of the highest passing rung, moved toward the rung above it by
    where the limit falls between their p99s (log scale). 0.0 when no rung
    passes."""
    passing = [i for i, r in enumerate(rungs) if rung_passes(r, slo_ms)]
    if not passing:
        return 0.0
    i = passing[-1]
    rate = rungs[i]["rate"]
    if i + 1 < len(rungs):
        lo, hi = rungs[i], rungs[i + 1]
        if hi["p99_ms"] > slo_ms >= lo["p99_ms"] > 0:
            frac = (math.log(slo_ms / lo["p99_ms"])
                    / math.log(hi["p99_ms"] / lo["p99_ms"]))
            rate += (hi["rate"] - rate) * frac
    return rate

