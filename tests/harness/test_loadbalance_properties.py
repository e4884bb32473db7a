"""Property-based tests (hypothesis) for the capped weighted cut.

:func:`~repro.parallel.loadbalance.cut_weighted_with_cap` sits at the
bottom of the measured-cost feedback loop, so it has to hold up under
*any* cost vector the cost model can produce -- including the skewed,
duplicated and degenerate ones.  Hypothesis searches for inputs that

- break boundary monotonicity,
- bust the paper's 30% particle-count cap,
- push a domain's cost past what the greedy sweep guarantees (one
  sample of undershoot per cut, re-spread over the domains after it),
- or crash on degenerate input (all-equal keys, zero cost, fewer
  samples than domains).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.parallel import cut_weighted_with_cap
from repro.parallel.loadbalance import domain_counts

KEY_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def _sorted_keys(values, distinct=False):
    a = np.array(values, dtype=np.uint64)
    if distinct:
        a = np.unique(a)
    return np.sort(a)


def _per_domain_cost(keys, cost, boundaries):
    dom = np.searchsorted(boundaries[1:-1], keys, side="right")
    return np.bincount(dom, weights=cost, minlength=len(boundaries) - 1)


keys_strategy = st.lists(st.integers(0, int(KEY_MAX)), min_size=0,
                         max_size=200)
cost_strategy = st.lists(st.floats(0.0, 1.0e6, allow_nan=False,
                                   allow_infinity=False),
                         min_size=0, max_size=200)
domains_strategy = st.integers(1, 16)


def _aligned(keys, cost):
    """Trim the independently drawn lists to a common length."""
    n = min(len(keys), len(cost))
    return keys[:n], cost[:n]


@settings(max_examples=50, deadline=None)
@given(keys=keys_strategy, cost=cost_strategy, p=domains_strategy,
       cap=st.one_of(st.just(float("inf")), st.floats(1.0, 3.0)))
def test_boundaries_always_monotone_and_framed(keys, cost, p, cap):
    """Any input: p+1 boundaries, 0 first, KEY_MAX last, non-decreasing."""
    keys, cost = _aligned(keys, cost)
    b = cut_weighted_with_cap(_sorted_keys(keys), np.array(cost), p,
                              cap_ratio=cap)
    assert len(b) == p + 1
    assert b.dtype == np.uint64
    assert b[0] == 0 and b[-1] == KEY_MAX
    assert all(int(b[i]) <= int(b[i + 1]) for i in range(p))


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(0, int(KEY_MAX)), min_size=1, max_size=200,
                     unique=True),
       cost=cost_strategy, p=domains_strategy,
       cap=st.floats(1.0, 3.0))
def test_cap_respected_on_distinct_keys(keys, cost, p, cap):
    """Distinct keys, n >= p: no domain exceeds ceil(cap * n/p) samples.

    (+1 covers the feasibility clamp: when the tail would otherwise run
    out of samples, one domain may take a single extra.)
    """
    k = _sorted_keys(keys, distinct=True)
    n = len(k)
    if n < p:
        return
    c = np.resize(np.array(cost if cost else [1.0]), n)
    b = cut_weighted_with_cap(k, c, p, cap_ratio=cap)
    counts = domain_counts(k, b)
    assert counts.sum() == n
    assert counts.max() <= int(np.ceil(cap * n / p)) + 1


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(0, int(KEY_MAX)), min_size=1, max_size=200,
                     unique=True),
       cost=st.lists(st.floats(1.0e-3, 1.0e6, allow_nan=False,
                               allow_infinity=False),
                     min_size=1, max_size=200),
       p=domains_strategy)
@example(keys=list(range(22)),
         cost=[1, 2, 330072, 1, 172719, 167596], p=7)
def test_cost_spread_no_worse_than_uniform(keys, cost, p):
    """Uncapped weighted cuts: what the greedy sweep guarantees.

    Each cut goes *before* the sample that crosses the running target,
    so a domain falls short of its target T by less than c_max, and the
    shortfall is re-spread evenly over the R domains after it: their
    target rises by less than c_max / R.  Summed along the sweep, domain
    i (0-based) costs at most total/p + c_max * sum_{k=1..i} 1/(p-k) --
    total/p for the first, total/p + c_max * H_{p-1} (H the harmonic
    number) for the last -- or c_max, where a single sample outweighs
    the target and is a domain by itself.  The uniform cut's max is
    >= total/p, so the same slack bounds weighted against uniform.

    The pinned example is the one that refuted the earlier claim
    "max <= total/p + c_max": the last of 7 domains carries 670391
    against 334464 + 330072, inside 334464 + 2.45 * 330072.
    """
    k = _sorted_keys(keys, distinct=True)
    n = len(k)
    if n < p:
        return
    c = np.resize(np.array(cost, dtype=np.float64), n)
    weighted = cut_weighted_with_cap(k, c, p, cap_ratio=np.inf)
    uniform = cut_weighted_with_cap(k, np.ones(n), p, cap_ratio=np.inf)
    w = _per_domain_cost(k, c, weighted)
    slack = c.max() * np.concatenate(
        ([0.0], np.cumsum(1.0 / (p - np.arange(1, p)))))
    bound = np.maximum(c.max(), c.sum() / p + slack)
    assert np.all(w <= bound * (1.0 + 1e-9) + 1e-9)
    u_max = _per_domain_cost(k, c, uniform).max()
    assert w.max() <= max(c.max(), u_max + slack[-1]) * (1.0 + 1e-9) + 1e-9


@settings(max_examples=50, deadline=None)
@given(key=st.integers(0, int(KEY_MAX)), n=st.integers(0, 50),
       p=domains_strategy)
def test_all_equal_keys_never_crash(key, n, p):
    """All-duplicate keys (every particle in one cell) must not crash."""
    k = np.full(n, key, dtype=np.uint64)
    b = cut_weighted_with_cap(k, np.ones(n), p)
    assert len(b) == p + 1
    assert all(int(b[i]) <= int(b[i + 1]) for i in range(p))
    assert domain_counts(k, b).sum() == n


@settings(max_examples=50, deadline=None)
@given(keys=keys_strategy, p=domains_strategy)
def test_zero_cost_never_crashes(keys, p):
    """Zero total cost falls back to count balancing, never divides by 0."""
    k = _sorted_keys(keys)
    b = cut_weighted_with_cap(k, np.zeros(len(k)), p)
    assert len(b) == p + 1
    assert domain_counts(k, b).sum() == len(k)


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(0, int(KEY_MAX)), min_size=0, max_size=10),
       p=st.integers(11, 64))
def test_fewer_samples_than_domains_never_crashes(keys, p):
    """n < p: some domains end up empty, but the cut stays well-formed."""
    k = _sorted_keys(keys)
    b = cut_weighted_with_cap(k, np.ones(len(k)), p)
    assert len(b) == p + 1
    assert b[0] == 0 and b[-1] == KEY_MAX
    assert all(int(b[i]) <= int(b[i + 1]) for i in range(p))
    assert domain_counts(k, b).sum() == len(k)


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(0, int(KEY_MAX)), min_size=8, max_size=200,
                     unique=True),
       hot=st.integers(0, 199), p=st.integers(2, 8))
def test_extreme_skew_leaves_no_domain_empty(keys, hot, p):
    """One sample carrying ~all cost must not collapse a domain to zero
    samples (n >= p): the never-empty guard holds under any skew."""
    k = _sorted_keys(keys, distinct=True)
    n = len(k)
    if n < p:
        return
    c = np.ones(n)
    c[hot % n] = 1.0e9
    b = cut_weighted_with_cap(k, c, p, cap_ratio=1.3)
    assert domain_counts(k, b).min() >= 1
