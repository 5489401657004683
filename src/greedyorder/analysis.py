"""Safety search, counting-bound evaluation, and process simulations.

Covers: deciding whether a priority order can be forced to leave a given
vertex set unmatched, enumerating all such vulnerable sets, evaluating
the entropy exponents that bound their number and probability, Monte
Carlo sweeps over random priority orders, the iterative promote-the-
losers process, and an exhaustive cross-check of the two game readings
of the problem.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .adversary import (
    DEFAULT_BUDGET,
    DEFAULT_MODE,
    _avoiding_descent,
    _avoiding_matching,
    _check_subset,
    _largest_avoidable,
    _max_avoidable,
    _replayed,
    attack,
    order_avoiding,
    worst_order_exact,
)
from .core import BipartiteGraph, Permutation, _rank_rows, find_perfect_matching
from .errors import (
    AnalysisParamError,
    PropositionViolatedError,
    UsageError,
)
from .families import derived_seed

Rational = Union[int, str, Fraction]

# The modes `enumerate_bad_sets` accepts, in the order the CLI lists them,
# the first the default; `iterative_process`'s are MINIMIZER_POLICIES.
BAD_SET_MODES = ("full_pi", "canonical_pi")
# The largest n the exhaustive cross check of the two game readings takes.
CROSS_CHECK_MAX_N = 5


def entropy(p: float) -> float:
    """Binary entropy in bits, with the endpoint convention H(0)=H(1)=0.

    The second term uses log1p for stability near p = 0.
    """
    x = float(p)
    if not 0.0 <= x <= 1.0:
        raise AnalysisParamError("entropy argument %r outside [0, 1]" % (p,))
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * (math.log1p(-x) / math.log(2.0))


def _as_fraction(name: str, value: Rational) -> Fraction:
    if isinstance(value, float):
        raise AnalysisParamError(
            "%s must be exact (int, str, or Fraction), got float %r" % (name, value)
        )
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise AnalysisParamError("%s is not a rational: %r" % (name, value)) from exc


@dataclass(frozen=True)
class AnalysisParams:
    """Exact rational inputs for the counting bounds.

    eps widens the target fraction beyond one half; alpha and beta
    control the order and expansion estimates.  Derived quantities:
    rho = 1/2 + eps, rho_bar = 1 - rho, delta = beta - alpha.
    """

    eps: Fraction
    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", _as_fraction("eps", self.eps))
        object.__setattr__(self, "alpha", _as_fraction("alpha", self.alpha))
        object.__setattr__(self, "beta", _as_fraction("beta", self.beta))
        if self.eps < 0:
            raise AnalysisParamError("eps must be nonnegative")
        if not (0 < self.alpha < self.beta < 1):
            raise AnalysisParamError("need 0 < alpha < beta < 1")

    @property
    def rho(self) -> Fraction:
        return Fraction(1, 2) + self.eps

    @property
    def rho_bar(self) -> Fraction:
        return 1 - self.rho

    @property
    def delta(self) -> Fraction:
        return self.beta - self.alpha

    def flags(self) -> tuple[str, ...]:
        """Boundary conditions worth surfacing but not fatal."""
        out = []
        if self.delta >= self.alpha / 2:
            out.append("delta_not_below_half_alpha")
        if self.eps >= Fraction(1, 10):
            out.append("eps_premise_exceeded")
        return tuple(out)


@dataclass(frozen=True)
class ExponentReport:
    """Evaluated exponents (base-2, per vertex) and their combinations."""

    params: AnalysisParams
    badset_exp: float
    order_exp: float
    expansion_exp_literal: float
    expansion_exp_rescaled: float
    combined_order: float
    combined_expansion: float
    flags: tuple[str, ...]


def bound_exponents(params: AnalysisParams) -> ExponentReport:
    """Evaluate the three counting bounds at the given parameters.

    badset_exp bounds the count of vulnerable sets; order_exp bounds the
    probability that a random priority order exposes one of them through
    late arrival of its low vertices; the expansion exponent bounds the
    probability of a shallow neighborhood, under two readings (the
    printed closed form as-is, and with every fraction rescaled by the
    set-size factor).  combined_order = badset_exp + order_exp < 0 is
    the operative success condition; combined_expansion pairs badset_exp
    with the smaller expansion reading.
    """
    rho, rho_bar = params.rho, params.rho_bar
    eps, alpha, beta, delta = params.eps, params.alpha, params.beta, params.delta
    if beta * rho_bar <= alpha * rho:
        raise AnalysisParamError("need beta/alpha > rho/rho_bar for the order bound")
    if rho_bar <= alpha:
        raise AnalysisParamError("alpha must stay below rho_bar")
    arguments = {
        "2*eps/rho_bar": 2 * eps / rho_bar,
        "2*eps/rho": 2 * eps / rho,
        "alpha+beta": alpha + beta,
        "alpha/rho_bar": alpha / rho_bar,
        "beta/rho": beta / rho,
        "delta/alpha": delta / alpha,
        "delta/(1-alpha)": delta / (1 - alpha),
        "delta/(rho_bar-alpha)": delta / (rho_bar - alpha),
    }
    h = {}
    for name, value in arguments.items():
        if not (0 <= value <= 1):
            raise AnalysisParamError("entropy argument %s = %s outside [0, 1]" % (name, value))
        h[name] = entropy(float(value))

    badset = float(rho_bar) * h["2*eps/rho_bar"] + float(rho) * h["2*eps/rho"]
    order = -(h["alpha+beta"] - h["alpha/rho_bar"] * float(rho_bar) - h["beta/rho"] * float(rho))
    literal = (
        -h["alpha/rho_bar"]
        + float(alpha) * h["delta/alpha"]
        + float(1 - alpha) * h["delta/(1-alpha)"]
    ) * float(rho_bar)
    # Rescaling alpha and delta by rho_bar leaves delta/alpha as it is and
    # turns delta/(1-alpha) into delta/(rho_bar-alpha).
    a = arguments["alpha/rho_bar"]
    rescaled = (
        -h["alpha/rho_bar"]
        + float(a) * h["delta/alpha"]
        + float(1 - a) * h["delta/(rho_bar-alpha)"]
    ) * float(rho_bar)
    return ExponentReport(
        params=params,
        badset_exp=badset,
        order_exp=order,
        expansion_exp_literal=literal,
        expansion_exp_rescaled=rescaled,
        combined_order=badset + order,
        combined_expansion=badset + min(literal, rescaled),
        flags=params.flags(),
    )


@dataclass(frozen=True)
class SafetyResult:
    """Outcome of a safety decision; witness is an arrival order when unsafe."""

    safe: bool
    witness: Optional[Permutation]


def is_safe(g: BipartiteGraph, pi: Permutation, s: Iterable[int]) -> SafetyResult:
    """Decide whether every arrival order matches at least one vertex of s.

    The empty set is safe by convention.  Otherwise `order_avoiding`
    decides it with one matching, by the avoidability lemma of the
    `adversary` docstring, with no search and no budget: s is unsafe
    exactly when the U-neighbours of s have a matching into the other
    vertices in which each partner ranks below all of its U vertex's
    neighbours in s.  The witness is the first branch sequence, in
    ascending arrival order at every state, that leaves s unmatched,
    checked by replay through greedy_match.
    """
    s_list = list(s)
    _check_subset(g, pi, s_list)
    if not s_list:
        return SafetyResult(True, None)
    witness = order_avoiding(g, pi, s_list)
    return SafetyResult(witness is None, witness)


@dataclass(frozen=True)
class BadSetReport:
    """Vulnerable sets of one size, with a witnessing order pair for each."""

    set_size: int
    search_mode: str
    bad_sets: tuple[tuple[int, ...], ...]
    witnesses: dict[tuple[int, ...], tuple[Permutation, Permutation]]


def _first_exposing_pi(
    adj: Sequence[int], col: Sequence[int], s_mask: int
) -> tuple[Permutation, list[int], list[int]]:
    """(pi, rows, cols): the first priority order, in
    itertools.permutations order, that exposes the label mask s_mask, a
    set some order exposes, with its `_rank_rows`.  adj and col are the
    label rows, `_rank_rows` under the identity.  Moving the vertices of
    s later only loosens the avoidability test, so the orders that start
    with a prefix expose s exactly when the prefix, then the other
    vertices outside s, then the rest of s, does; the order is built one
    position at a time.  A vertex outside s always extends an exposing
    prefix: it only reorders the block outside s after the prefix, which
    keeps its set of positions, and every rank bound of the test lies in
    the prefix or in the tail of s.  So only the candidates in s are
    tested.  Each probe reads rows kept in coordinates of that order:
    prefix position i at bit i, then each other vertex v at bit n + v,
    or at 2n + v when it lies in s.  Placing v moves its bit in the rows
    of its neighbours, and a probe that fails moves it back."""
    n = len(adj)
    full = rest = (1 << n) - 1
    rows = [(a & ~s_mask) << n | (a & s_mask) << 2 * n for a in adj]
    cols, t_mask = col * 3, s_mask << 2 * n
    v_mask = (full ^ s_mask) << n | t_mask
    order: list[int] = []
    for k in range(n):
        x = rest
        while True:
            v_bit = x & -x
            x ^= v_bit
            v = v_bit.bit_length() - 1
            move = 1 << k | 1 << v + (2 * n if v_bit & s_mask else n)
            cols[k] = col[v]
            _move_bit(rows, col[v], move)
            if not v_bit & s_mask:
                break
            if _avoiding_matching(rows, cols, t_mask ^ move, full, v_mask ^ move) is not None:
                t_mask ^= move
                break
            _move_bit(rows, col[v], move)
        order.append(v)
        rest ^= v_bit
        v_mask ^= move
    return Permutation.from_order(order), rows, cols


def _move_bit(rows: list[int], u_mask: int, move: int) -> None:
    """Flip the two bits of `move` in the row of each U vertex of u_mask."""
    while u_mask:
        u_bit = u_mask & -u_mask
        u_mask ^= u_bit
        rows[u_bit.bit_length() - 1] ^= move


def enumerate_bad_sets(g: BipartiteGraph, size: int, mode: str = "full_pi") -> BadSetReport:
    """List every size-`size` right-side set some priority order exposes.

    By the avoidability lemma of the `adversary` docstring, a set is
    exposed by some priority order exactly when the order that places it
    last exposes it, and that test needs no ranks.  So the label rows
    are built once and the census walk of `_max_avoidable` at this size
    decides the sets along the combination tree, testing a set only when
    every set it extends passed; no order is built for a safe set.  The
    mode picks only the witness of a bad set: canonical_pi keeps the
    set-last order, and full_pi the first exposing order in
    itertools.permutations order.  Its sigma is the descent of
    `order_avoiding` under that order, checked by greedy replay:
    canonical_pi's runs in set-last coordinates from the census's
    matching, and full_pi's on the rank rows that `_first_exposing_pi`
    leaves.
    """
    n = g.n
    if type(size) is not int:
        raise AnalysisParamError("size must be an int, got %r" % (size,))
    if not (1 <= size <= n):
        raise AnalysisParamError("size %d out of range for n=%d" % (size, n))
    if mode not in BAD_SET_MODES:
        raise UsageError("unknown mode %r" % (mode,))
    adj, col = _rank_rows(g, Permutation.identity(n))
    full, col2 = (1 << n) - 1, col * 2
    bad: list[tuple[int, ...]] = []
    witnesses: dict[tuple[int, ...], tuple[Permutation, Permutation]] = {}
    sets, _ = _max_avoidable(adj, col, full, math.inf, size)
    for t, kernel in sets:
        comb = tuple(v for v in range(n) if t >> v & 1)
        if mode == "full_pi":
            pi, rows, cols = _first_exposing_pi(adj, col, t)
            found = _avoiding_descent(rows, cols, full, [sum(1 << pi.rank[v] for v in comb)])
        else:
            pi = Permutation.from_order([v for v in range(n) if not t >> v & 1] + list(comb))
            rows = [a & ~t | (a & t) << n for a in adj]
            found = _avoiding_descent(rows, col2, full ^ t | t << n, [t << n], root=kernel)
        if found is None:
            raise PropositionViolatedError("the census exposed a set that its order does not")
        bad.append(comb)
        witnesses[comb] = (pi, _replayed(g, pi, comb, found[0], 0)[1])
    return BadSetReport(size, mode, tuple(bad), witnesses)


@dataclass(frozen=True)
class MonteCarloSummary:
    """Distribution of adversary values over sampled priority orders.

    Sizes are matched-pair counts; fractions divide by n.  stddev is the
    population standard deviation.  upper_bound_only is set when any
    sample used a non-exact adversary, whose value only upper-bounds
    the true minimum.
    """

    trials: int
    mean_size: float
    min_size: int
    mean_fraction: float
    min_fraction: float
    stddev_fraction: float
    upper_bound_only: bool


def monte_carlo_random_pi(
    g: BipartiteGraph,
    trials: int,
    adversary_mode: str = DEFAULT_MODE,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    iters: int = 4000,
) -> MonteCarloSummary:
    """Attack `trials` uniformly random priority orders with
    `adversary.attack(adversary_mode, ...)` and summarize.

    Per-trial randomness derives from seed and the trial counter, so
    results do not depend on scheduling or trial order.  The heuristic
    and sampled players reuse the trial seed that shuffled pi, so the
    first arrival order each tries is pi's order: sigma and pi correlate.
    """
    if trials < 1:
        raise AnalysisParamError("trials must be positive")
    n = g.n
    sizes: list[int] = []
    upper_only = False
    for trial in range(trials):
        trial_seed = derived_seed(seed, trial)
        rng = random.Random(trial_seed)
        order = list(range(n))
        rng.shuffle(order)
        pi = Permutation.from_order(order)
        res = attack(adversary_mode, g, pi, budget=budget, iters=iters, seed=trial_seed)
        if not res.exact:
            upper_only = True
        sizes.append(res.size)
    fractions = [sz / n for sz in sizes]
    return MonteCarloSummary(
        trials=trials,
        mean_size=statistics.fmean(sizes),
        min_size=min(sizes),
        mean_fraction=statistics.fmean(fractions),
        min_fraction=min(fractions),
        stddev_fraction=statistics.pstdev(fractions),
        upper_bound_only=upper_only,
    )


@dataclass(frozen=True)
class IterationRecord:
    """One round: the priority order used, the minimizing arrival order
    found under the policy, its value, and the unmatched right vertices."""

    pi: Permutation
    sigma: Permutation
    size: int
    losers: tuple[int, ...]


@dataclass(frozen=True)
class IterativeTrace:
    records: tuple[IterationRecord, ...]
    cap_reached: bool

    @property
    def iterations_used(self) -> int:
        return len(self.records)


def _promoted(pi: Permutation, losers: Iterable[int]) -> Permutation:
    """pi with the losers moved to the top, each group kept in pi's order."""
    lset = set(losers)
    return Permutation.from_order(sorted(pi.order, key=lambda v: v not in lset))


# Each minimizer policy's sort key over a round's candidates, (g, pi,
# losers, sigma's order): the least is played.  In the CLI's order.
_POLICY_KEYS = {
    "first_found": lambda g, pi, losers, sigma: sigma,
    "max_losers_low": lambda g, pi, losers, sigma: (
        -len(set(losers).intersection(pi.order[: (g.n + 1) // 2])), sigma
    ),
    "exhaustive_worst_for_next_round": lambda g, pi, losers, sigma: (
        g.n - len(_largest_avoidable(g, _promoted(pi, losers))[0]), losers, sigma
    ),
}
MINIMIZER_POLICIES = tuple(_POLICY_KEYS)


def _minimize_with_policy(g: BipartiteGraph, pi: Permutation, policy: str):
    """(sigma, size, losers): of the largest avoidable sets of V, each with
    its safety witness as sigma, the one that `policy`'s key ranks least."""
    if policy not in MINIMIZER_POLICIES:
        raise UsageError("unknown minimizer policy %r" % (policy,))
    key = _POLICY_KEYS[policy]
    candidates = [(losers, order_avoiding(g, pi, losers)) for losers in _largest_avoidable(g, pi)]
    losers, sigma = min(candidates, key=lambda ls: key(g, pi, ls[0], ls[1].order))
    return sigma, g.n - len(losers), losers


def iterative_process(
    g: BipartiteGraph,
    pi1: Permutation,
    cap: int,
    minimizer_policy: str = "first_found",
) -> IterativeTrace:
    """Promote the losers of each round to the top until a majority wins.

    The loser sets of a round's minimizing arrival orders are exactly
    the largest avoidable sets of V: a least round's losers are
    avoidable, and an order that avoids a largest set leaves at most that
    many losers, which contain it.  So each round lists those sets, at
    any n, and the policy picks one, with its safety witness as sigma
    (the least witness is the exact adversary's order).  Then the
    priorities are rebuilt with the losers first (internal order
    preserved on both groups).  The process stops once the round's value
    exceeds n/2, or after `cap` rounds (reported, not raised).  The graph
    must have a perfect matching, which is checked first: greedy's
    matching is maximal, so it is at least half a maximum one, and every
    round reaches n/2.
    """
    if cap < 1:
        raise AnalysisParamError("cap must be positive")
    find_perfect_matching(g)
    pi, records = pi1, []
    while len(records) < cap:
        sigma, size, losers = _minimize_with_policy(g, pi, minimizer_policy)
        if 2 * size < g.n:
            raise PropositionViolatedError("greedy produced a sub-half matching")
        records.append(IterationRecord(pi, sigma, size, losers))
        if 2 * size > g.n:
            return IterativeTrace(tuple(records), False)
        pi = _promoted(pi, losers)
    return IterativeTrace(tuple(records), True)


def _priority_game_value(g: BipartiteGraph) -> int:
    """max over priority orders of the exact adversary's minimum."""
    return max(
        worst_order_exact(g, Permutation.from_order(p)).size
        for p in itertools.permutations(range(g.n))
    )


def _arrival_game_value(g: BipartiteGraph) -> int:
    """Best guarantee when the left side's arrival order is chosen and
    each arrival receives an adversarially chosen wanted free vertex.

    Deliberately a separate search from the adversary's engine: it is
    the independent side of the transposition cross-check, and solving
    it with the engine would compare the engine with itself."""
    n = g.n
    adj_mask = [sum(1 << v for v in g.adj_u[u]) for u in range(n)]
    best_overall = 0
    for p in itertools.permutations(range(n)):
        memo: dict[tuple[int, int], int] = {}

        def play(pos: int, v_mask: int) -> int:
            if pos == n:
                return 0
            key = (pos, v_mask)
            cached = memo.get(key)
            if cached is not None:
                return cached
            u = p[pos]
            options = adj_mask[u] & ~v_mask
            if options == 0:
                best = play(pos + 1, v_mask)
            else:
                best = n + 1
                m = options
                while m:
                    bit = m & -m
                    m ^= bit
                    best = min(best, 1 + play(pos + 1, v_mask | bit))
            memo[key] = best
            return best

        best_overall = max(best_overall, play(0, 0))
    return best_overall


def _transposed(g: BipartiteGraph) -> BipartiteGraph:
    return BipartiteGraph(n=g.n, adj_u=g.adj_v, adj_v=g.adj_u)


def cross_check_interpretations(g: BipartiteGraph) -> bool:
    """Solve both game readings exhaustively and insist they agree.

    Reading one fixes priorities on the right side and lets the arrival
    order respond adversarially (the package's standing model).  Reading
    two fixes the arrival order of the left side and lets the right side
    choose which wanted free vertex each arrival receives.  The two are
    the same problem with the sides exchanged, so reading two on a graph
    must match reading one on its transpose (and vice versa); same-graph
    values need not agree, since the roles of the sides differ.
    """
    n = g.n
    if n > CROSS_CHECK_MAX_N:
        raise UsageError("cross check is exhaustive; n <= %d required" % CROSS_CHECK_MAX_N)
    gt = _transposed(g)
    value_priority = _priority_game_value(g)
    value_priority_t = _priority_game_value(gt)
    value_arrival = _arrival_game_value(g)
    value_arrival_t = _arrival_game_value(gt)
    if value_arrival != value_priority_t or value_priority != value_arrival_t:
        raise PropositionViolatedError(
            "game readings disagree under transposition: "
            "arrival %d vs transposed priority %d; priority %d vs transposed arrival %d"
            % (value_arrival, value_priority_t, value_priority, value_arrival_t)
        )
    return True
