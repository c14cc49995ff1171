"""Statistics of the fsi benchmark, kept apart from run.py so that
test_stats.py can check them on hand-made inputs.

Conventions:
  - percentile(p) interpolates linearly between the two closest ranks
    (numpy's default, statistics.quantiles(method="inclusive")): the p50 of
    an even-sized list is the mean of its two middle values.
  - An open-loop request's latency runs from when it was *due*, not from
    when the generator got round to sending it, so a generator or server
    stall is charged to every request it delayed.
  - Percentiles of an open-loop run are taken per window of consecutive
    requests and the median over windows is reported, so one burst of
    interference moves one window, not the run's figure.
"""

import statistics


def percentile(values, p):
    """The p-th percentile (0..100) of values, linear between ranks."""
    if not values:
        raise ValueError("percentile of an empty list")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def windowed_percentile(values, window, p):
    """Median over consecutive full windows of `window` values of each
    window's p-th percentile; the plain percentile when no window is full."""
    if window <= 0 or len(values) < window:
        return percentile(values, p)
    per_window = [percentile(values[i:i + window], p)
                  for i in range(0, len(values) - window + 1, window)]
    return statistics.median(per_window)


def throughput(units_per_op, op_seconds):
    """Work units per second over all timed ops: total units over total op
    time.  Unlike units over the median op time, this falls when only the
    slow ops get slower."""
    if not op_seconds:
        raise ValueError("no timed ops")
    return units_per_op * len(op_seconds) / sum(op_seconds)


def due_time_latencies(due_ns, recv_ns):
    """Seconds from each request's due time to its response."""
    if len(due_ns) != len(recv_ns):
        raise ValueError("due and receive lists differ in length")
    return [(r - d) * 1e-9 for d, r in zip(due_ns, recv_ns)]


def fail_ratio(failed, attempted):
    """Failed operations over attempted ones (failed output checks, non-Ok
    responses and non-OK health verdicts all count as failed)."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def spread(values):
    """Inter-quartile distance over the median, as the acceptance rule
    takes it (statistics.quantiles(values, n=4))."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def self_times(spans):
    """Self time per span name: each span's duration minus the part of its
    interval covered by its children (overlapping children counted once).

    spans: dicts with "id", "parent" (-1 for a root), "ts" and "dur" in one
    time unit.  Returns {name: total self time}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        t0, t1 = s["ts"], s["ts"] + s["dur"]
        covered, end = 0.0, t0
        for c in sorted(children.get(s["id"], []), key=lambda c: c["ts"]):
            c0, c1 = max(c["ts"], end), min(c["ts"] + c["dur"], t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[s["name"]] = out.get(s["name"], 0.0) + (t1 - t0) - covered
    return out
