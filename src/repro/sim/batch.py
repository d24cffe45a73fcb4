"""Batched single-update epidemic trials — the simulator's fast path.

The experiment tables and the bench suite run thousands of independent
trials of one shape: inject a single tracked update into a uniformly
mixed population and drive one epidemic protocol to completion or
quiescence, recording residue / traffic / delay.  The general
:class:`~repro.cluster.cluster.Cluster` machinery pays for flexibility
on every conversation of every cycle — per-site stores, entry objects,
event-bus guards, protocol dispatch — none of which can affect the
metrics of that trial shape.

This module runs the same epidemics over dense integer site indices
and flat per-site state arrays instead, in pure python: per-site flags
in a ``bytearray``, the rumor cycle's population-wide bookkeeping
through the list primitives of :mod:`repro.sim.arrays`, and each
anti-entropy cycle as a single pass over the sites.  Nothing is
memoized across trials: each site's generator is seeded the first time
it draws, so a sweep over distinct seeds and a repeat of one seed cost
the same.  On a 2-CPU x86-64 box a cold n=1000 push-pull anti-entropy
trial takes about 8.5 ms (see ``docs/performance.md``).

**Bit-for-bit identity is the contract.**  Every random draw is taken
from the same per-site ``random.Random`` streams the cluster would
create (:func:`repro.sim.rng.site_seed`), in the same order the scalar
protocols consume them: partner selection in ascending initiator order
within a cycle, then interest-loss coin flips in ascending snapshot
order.  The golden tests (``tests/test_batch_engine.py``) hold the
resulting :class:`~repro.sim.metrics.EpidemicMetrics` equal to the
reference engine's, field for field, across the paper's table
configurations; ``engine="reference"`` in
:mod:`repro.experiments.tables` keeps the scalar path selectable.

Scope: one tracked update, every site up, no topology routing, no WAN
model.  The table and bench trial functions dispatch here through
``engine="auto"``; anything richer stays on the cluster path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

try:  # the C core type seeds once; random.Random(seed) seeds twice
    from _random import Random as _CoreRandom
except ImportError:  # pragma: no cover - non-CPython interpreters
    from random import Random as _CoreRandom

from repro.sim.arrays import get_backend
from repro.sim.metrics import EpidemicMetrics
from repro.sim.rng import SiteSeeder
from repro.sim.transport import hunt_for_partner


def _randbelow(rng, n: int, bits: int) -> int:
    """``random.Random._randbelow(n)`` on a core generator.

    ``bits`` is ``n.bit_length()``.  ``getrandbits(k)`` for ``k <= 32``
    is the top ``k`` bits of one Mersenne-Twister output, and
    ``_randbelow`` rejects and redraws exactly like this loop, so each
    draw is bit-equal to the ``randrange`` the reference engine's
    selectors make on the same site stream.
    """
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


class _TrialDraws:
    """Each site's random stream for one trial, seeded on first use.

    Site ``i`` gets the generator ``RngRegistry.site_stream`` would hand
    the reference engine (seeded with :func:`repro.sim.rng.site_seed`),
    so only sites that actually draw pay for seeding.
    """

    __slots__ = ("seeder", "sites")

    def __init__(self, master_seed: int, n: int):
        self.seeder = SiteSeeder(master_seed)
        self.sites: List[Optional[_CoreRandom]] = [None] * n

    def site(self, i: int) -> _CoreRandom:
        rng = self.sites[i]
        if rng is None:
            rng = self.sites[i] = _CoreRandom(self.seeder.seed(i))
        return rng


def _complete(max_cycles: int) -> RuntimeError:
    # Matches Cluster.run_until's bound failure exactly.
    return RuntimeError(f"predicate not reached within {max_cycles} cycles")


def rumor_trial(
    n: int,
    config,
    seed: int,
    max_cycles: int = 1000,
    injection_site: int = 0,
) -> EpidemicMetrics:
    """One rumor-mongering epidemic to quiescence, batched.

    ``config`` is a :class:`~repro.protocols.rumor.RumorConfig`; every
    point of the design space is supported — push/pull/push-pull,
    blind/feedback, counter/coin, minimization, connection limits with
    hunting.  Results are bit-identical to
    :func:`repro.experiments.tables.run_rumor_trial` with
    ``engine="reference"``.
    """
    if n < 2:
        # The reference engine's UniformSelector refuses these too.
        raise ValueError("need at least two sites")
    mode = config.mode
    pushes = mode.pushes
    pulls = mode.pulls
    feedback = config.feedback
    counter = config.counter
    k = config.k
    resets = config.resets_on_success
    minimization = config.minimization
    coin_p = 1.0 / k
    policy = config.policy
    unlimited = policy.unlimited
    limit = policy.connection_limit
    attempts = policy.hunt_limit + 1

    metrics = EpidemicMetrics(n=n, injection_time=0.0)
    metrics.record_receipt(injection_site, 0.0)
    receipts = metrics.receipt_times

    infected = bytearray(n)  # live: site's store holds the update
    infected[injection_site] = 1
    hot: Dict[int, int] = {injection_site: 0}  # live: site -> counter

    draws = _TrialDraws(seed, n)
    sites = draws.sites
    get_site = draws.site
    backend = get_backend()
    n1 = n - 1
    bits = n1.bit_length()
    update_sends = 0
    comparisons = 0
    rejections = 0
    cycle = 0

    # Pure push with no connection limit and no minimization (Tables 1
    # and 2) admits a fully batched cycle: every conversation ships, so
    # news/feedback reduce to a first-occurrence pass over the cycle's
    # partner vector — no per-conversation event bookkeeping at all.
    fast_push = pushes and not pulls and unlimited and not minimization

    while hot:
        if cycle >= max_cycles:
            raise _complete(max_cycles)
        cycle += 1
        cycle_f = float(cycle)

        # Start-of-cycle snapshot: the infective sites and (for
        # minimization) their counters, in ascending site order — the
        # order the scalar protocol builds its snapshot dict in.
        snap_sites = sorted(hot)

        if fast_push:
            picks = [
                _randbelow(sites[s] or get_site(s), n1, bits) for s in snap_sites
            ]
            partners = backend.adjusted_partners_at(picks, snap_sites)
            news = backend.push_news(partners, backend.snapshot(infected))
            update_sends += len(snap_sites)
            comparisons += len(snap_sites)
            for p in backend.compress(partners, news):
                infected[p] = 1
                receipts[p] = cycle_f
                hot[p] = 0
            if feedback:
                if counter:
                    for i, s in enumerate(snap_sites):
                        if news[i]:
                            if resets:
                                hot[s] = 0
                        else:
                            c = hot[s] + 1
                            if c >= k:
                                del hot[s]
                            else:
                                hot[s] = c
                else:
                    for i, s in enumerate(snap_sites):
                        if not news[i] and sites[s].random() < coin_p:
                            del hot[s]
            elif counter:
                for s in snap_sites:
                    c = hot[s] + 1
                    if c >= k:
                        del hot[s]
                    else:
                        hot[s] = c
            else:
                for s in snap_sites:
                    if sites[s].random() < coin_p:
                        del hot[s]
            continue
        hot_flags = bytearray(n)
        for s in snap_sites:
            hot_flags[s] = 1
        snap_counter = {s: hot[s] for s in snap_sites} if minimization else None

        # Per-cycle feedback, keyed by ship *source*: [useful, useless].
        ev: Dict[int, List[int]] = {}
        pcs: Dict[int, List[int]] = {}
        accepted: Optional[Dict[int, int]] = None if unlimited else {}

        if pushes and not pulls:
            initiators = snap_sites
            partners = None
        else:
            # pull and push-pull: every site solicits each cycle.  With
            # no connection limit the whole population's partner draws
            # complete in one pass.
            initiators = range(n)
            if unlimited:
                partners = backend.adjusted_partners(
                    [
                        _randbelow(sites[s] or get_site(s), n1, bits)
                        for s in initiators
                    ]
                )
            else:
                partners = None

        for s in initiators:
            # -- partner selection (and hunting, under a limit) --------
            if partners is not None:
                p = partners[s]
            elif unlimited:
                pick = _randbelow(sites[s] or get_site(s), n1, bits)
                p = pick + 1 if pick >= s else pick
            else:
                rng = sites[s] or get_site(s)

                def draw(rng=rng, s=s):
                    pick = _randbelow(rng, n1, bits)
                    return pick + 1 if pick >= s else pick

                p = hunt_for_partner(draw, accepted, limit, attempts)
                if p is None:
                    rejections += 1
                    continue

            # -- the conversation, on start-of-cycle state -------------
            comparisons += 1
            s_hot = hot_flags[s]
            p_hot = hot_flags[p]
            if pushes and s_hot:
                if minimization and p_hot:
                    # Both already hold the hot rumor: exchange counters,
                    # ship nothing (the minimization rule).
                    pcs.setdefault(s, []).append(snap_counter[p])
                    pcs.setdefault(p, []).append(snap_counter[s])
                else:
                    update_sends += 1
                    if infected[p]:
                        e = ev.get(s)
                        if e is None:
                            ev[s] = [0, 1]
                        else:
                            e[1] += 1
                    else:
                        infected[p] = 1
                        receipts[p] = cycle_f
                        hot[p] = 0
                        e = ev.get(s)
                        if e is None:
                            ev[s] = [1, 0]
                        else:
                            e[0] += 1
            if pulls and p_hot and not (minimization and s_hot):
                update_sends += 1
                if infected[s]:
                    e = ev.get(p)
                    if e is None:
                        ev[p] = [0, 1]
                    else:
                        e[1] += 1
                else:
                    infected[s] = 1
                    receipts[s] = cycle_f
                    hot[s] = 0
                    e = ev.get(p)
                    if e is None:
                        ev[p] = [1, 0]
                    else:
                        e[0] += 1

        # -- end-of-cycle interest loss, in snapshot order -------------
        for s in snap_sites:
            if not feedback:
                if counter:
                    c = hot[s] + 1
                    if c >= k:
                        del hot[s]
                    else:
                        hot[s] = c
                else:
                    if (sites[s] or get_site(s)).random() < coin_p:
                        del hot[s]
                continue
            e = ev.get(s)
            p_counters = pcs.get(s) if minimization else None
            if e is None and not p_counters:
                continue  # no conversation touched this rumor
            if p_counters:
                c = hot[s]
                if all(c <= pc for pc in p_counters):
                    c += 1
                    if c >= k:
                        del hot[s]
                    else:
                        hot[s] = c
                continue
            if counter:
                if e[0]:
                    if resets:
                        hot[s] = 0
                elif e[1]:
                    c = hot[s] + 1
                    if c >= k:
                        del hot[s]
                    else:
                        hot[s] = c
            else:
                rng = sites[s] or get_site(s)
                for __ in range(e[1]):
                    if rng.random() < coin_p:
                        del hot[s]
                        break

    metrics.update_sends = update_sends
    metrics.comparisons = comparisons
    metrics.rejected_connections = rejections
    metrics.cycles_run = cycle
    return metrics


def anti_entropy_trial(
    n: int,
    mode,
    seed: int,
    max_cycles: int = 200,
    period: int = 1,
    offset: int = 0,
    injection_site: int = 0,
) -> EpidemicMetrics:
    """One synchronous anti-entropy epidemic run to completion, batched.

    Every up site initiates one exchange per period cycle, and every
    transmission decision reads the start-of-cycle snapshot (the
    paper's synchronous model).  A cycle is therefore one pass over the
    sites in ascending order: draw the partner, then compare the two
    snapshot flags — equal flags transfer nothing, an infected
    initiator pushes, an infected partner is pulled from.
    Bit-identical to the cluster run
    :func:`repro.experiments.tables.run_anti_entropy_trial` performs
    with ``engine="reference"``.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    pushes = mode.pushes
    pulls = mode.pulls

    metrics = EpidemicMetrics(n=n, injection_time=0.0)
    metrics.record_receipt(injection_site, 0.0)
    receipts = metrics.receipt_times
    infected = bytearray(n)
    infected[injection_site] = 1

    draws = _TrialDraws(seed, n)
    all_sites = [draws.site(i) for i in range(n)]
    n1 = n - 1
    bits = n1.bit_length()
    update_sends = 0
    comparisons = 0
    cycle = 0

    while len(receipts) < n:
        if cycle >= max_cycles:
            raise _complete(max_cycles)
        cycle += 1
        if (cycle - offset) % period != 0:
            continue
        cycle_f = float(cycle)
        comparisons += n
        h = bytes(infected)
        for s, rng in enumerate(all_sites):
            # _randbelow and uniform_partner_index, inlined: this body
            # runs once per site per cycle.
            pick = rng.getrandbits(bits)
            while pick >= n1:
                pick = rng.getrandbits(bits)
            p = pick + 1 if pick >= s else pick
            if h[s] == h[p]:
                continue
            if h[s]:
                if pushes:
                    update_sends += 1
                    if not infected[p]:
                        infected[p] = 1
                        receipts[p] = cycle_f
            elif pulls:
                update_sends += 1
                if not infected[s]:
                    infected[s] = 1
                    receipts[s] = cycle_f

    metrics.update_sends = update_sends
    metrics.comparisons = comparisons
    metrics.cycles_run = cycle
    return metrics
