"""Order statistics used by the benchmark and its spread report."""

import statistics

#: Percentiles an op tail may be reported at.
TAIL_LADDER = (50.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values, pct):
    """Nearest-rank *pct* percentile of *values* (not empty)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def beyond(values, pct):
    """How many samples lie strictly above the *pct* percentile."""
    cut = percentile(values, pct)
    return sum(1 for value in values if value > cut)


def tail_percentile(count):
    """Highest ladder percentile with at least ``TAIL_BEYOND`` of
    *count* samples beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            best = pct
    return best


def tail(values, min_count):
    """The op tail: ``(value, percentile, samples beyond)``.

    The percentile is chosen from *min_count*, the fewest ops a run
    of the workload makes, so every run of one workload reports the
    same percentile.  Should a run fall short of that count, the
    percentile drops to what its own sample count supports.
    """
    pct = tail_percentile(min(min_count, len(values)))
    return percentile(values, pct), pct, beyond(values, pct)


def spread(values):
    """Interquartile range as a share of the median (0 for fewer than
    two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
