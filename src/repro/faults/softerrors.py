"""Memory soft errors: SEU bit flips in the *learned* control state.

:mod:`repro.faults.hardfaults` breaks the network, :mod:`~repro.faults.
sensors` breaks what the controller sees; this module breaks what the
controller *remembers*.  On silicon the per-router Q-table and the mode
registers live in SRAM, and SRAM takes single-event upsets — a flipped
Q-entry silently rewrites the learned policy, and a flipped mode register
drives the router datapath into a mode nobody selected.  The soft-hard
fault NoC literature (Dang et al., FASHION) treats upsets in control
state as a first-class threat; this model injects them so the SECDED
scrub + TMR defenses in :mod:`repro.core.qlearning` /
:mod:`repro.core.modes` can be demonstrated rather than asserted.

Spec grammar (one rule per ``;``-separated clause)::

    qtable@<rate>        e.g. qtable@1e-6   (per-bit per-epoch upset rate
                                             over all stored Q-table bits)
    mode@r<N>+<cycle>    e.g. mode@r3+500   (one-shot: flip one bit of
                                             router 3's mode register at
                                             the first epoch >= cycle 500)
    burst@<cycle>:<count> e.g. burst@800:4  (one-shot: flip <count> random
                                             Q-table bits at the first
                                             epoch >= cycle 800)

The empty string is upset-free SRAM (no rules).

Determinism contract (mirrors the sensor model):

* Rules are pure values parsed into a canonical order (each rule's
  ``format()`` gives its clause back).
* :meth:`SoftErrorModel.inject` runs once per epoch boundary and draws
  **exactly one** 64-bit token from the master RNG per rule per epoch,
  unconditionally — fired, expired, and not-yet-due rules all consume
  their token, so the master stream's length never depends on what the
  campaign did.  All variable-count sampling (how many bits, which
  positions) happens on a throwaway sub-RNG seeded from the token.
  Injection is therefore a pure function of (spec, seed, epoch sequence)
  on either cycle kernel, and a killed-and-resumed run replays the exact
  same upset stream: the whole model (master RNG, one-shot flags)
  pickles inside the simulator.  The model keeps no tallies: the
  simulator counts what :meth:`SoftErrorModel.inject` returns under
  ``softerror.injected.<kind>`` in its metric registry.
* Q-table bits are addressed through a global index over the storages'
  canonical word order (row insertion order x action index), which is
  itself deterministic for a deterministic simulation.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.specs import check_routers, parse_router_token, parse_spec

__all__ = [
    "SoftErrorRule",
    "SoftErrorModel",
    "parse_soft_error_spec",
]

_KIND_ORDER = ("qtable", "mode", "burst")

#: width of the per-router mode register (four modes)
MODE_REGISTER_BITS = 2
#: TMR replication factor for mode registers
MODE_COPIES = 3


class SoftErrorRule:
    """One SEU source (see the module grammar)."""

    __slots__ = ("kind", "rate", "router", "cycle", "count")

    KINDS = _KIND_ORDER

    def __init__(
        self,
        kind: str,
        rate: float = 0.0,
        router: int = 0,
        cycle: int = 0,
        count: int = 0,
    ) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown soft-error kind {kind!r}")
        if kind == "qtable":
            if not 0.0 < rate <= 1.0:
                raise ValueError("qtable upset rate must be in (0, 1]")
        if kind == "mode":
            if router < 0:
                raise ValueError("router id cannot be negative")
            if cycle < 0:
                raise ValueError("mode upset cycle cannot be negative")
        if kind == "burst":
            if cycle < 0:
                raise ValueError("burst cycle cannot be negative")
            if count <= 0:
                raise ValueError("burst flip count must be positive")
        self.kind = kind
        self.rate = rate
        self.router = router
        self.cycle = cycle
        self.count = count

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Canonical spec clause (inverse of :func:`parse_soft_error_spec`)."""
        if self.kind == "qtable":
            return f"qtable@{self.rate:g}"
        if self.kind == "mode":
            return f"mode@r{self.router}+{self.cycle}"
        return f"burst@{self.cycle}:{self.count}"

    def sort_key(self) -> Tuple[int, int, int, float, int]:
        return (_KIND_ORDER.index(self.kind), self.cycle, self.router,
                self.rate, self.count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SoftErrorRule({self.format()!r})"


def _parse_soft_error_clause(kind: str, rest: str) -> SoftErrorRule:
    if kind == "qtable":
        return SoftErrorRule("qtable", rate=float(rest))
    if kind == "mode":
        router_token, cycle = rest.split("+", 1)
        return SoftErrorRule(
            "mode", router=parse_router_token(router_token), cycle=int(cycle)
        )
    if kind == "burst":
        cycle, count = rest.split(":", 1)
        return SoftErrorRule("burst", cycle=int(cycle), count=int(count))
    raise ValueError(f"unknown soft-error kind {kind!r}")


def parse_soft_error_spec(spec: str) -> List[SoftErrorRule]:
    """Parse a ``;``-separated spec string into rules (canonical order)."""
    return parse_spec(
        spec, "soft-error", _parse_soft_error_clause, SoftErrorRule.sort_key
    )


def _poisson(rng: random.Random, lam: float) -> int:
    """Deterministic Poisson sample (flip count of a rare-event rate).

    Knuth's product method for small means; a clamped gaussian
    approximation above ``lam > 30`` where ``exp(-lam)`` would underflow
    (campaign rates are tiny, so this branch is a safety valve, not the
    common path)."""
    if lam <= 0.0:
        return 0
    if lam > 30.0:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


class SoftErrorModel:
    """Applies an SEU campaign to Q-table storages and mode registers.

    The simulator calls :meth:`inject` once at every epoch boundary,
    passing the live Q-table storages (objects exposing ``bit_count()``
    and ``flip_bit(index) -> word key``, i.e.
    :class:`repro.core.qlearning.QTableStorage`) and a mode-flip callback
    ``flip_mode(router_id, bit, copy)`` (``copy`` selects the TMR replica
    when the defense is on; the unprotected path ignores it).
    """

    def __init__(
        self,
        rules: Sequence[SoftErrorRule],
        num_routers: int,
        seed: int = 0,
    ) -> None:
        if num_routers <= 0:
            raise ValueError("need at least one router")
        check_routers(rules, "soft-error", num_routers)
        self.rules: List[SoftErrorRule] = sorted(rules, key=SoftErrorRule.sort_key)
        self.rng = random.Random(seed)
        #: indices of one-shot rules (mode/burst) already fired
        self._done: set = set()

    # ------------------------------------------------------------------
    @staticmethod
    def _flip_global(
        storages: Sequence[object],
        position: int,
        hits: Dict[Tuple[int, object], int],
    ) -> None:
        """Flip one bit at a global index spanning all storages."""
        for index, storage in enumerate(storages):
            bits = storage.bit_count()
            if position < bits:
                key = storage.flip_bit(position)
                hits[(index, key)] = hits.get((index, key), 0) + 1
                return
            position -= bits
        raise IndexError("global bit index out of range")  # pragma: no cover

    def inject(
        self,
        now: int,
        storages: Sequence[object],
        flip_mode: Optional[Callable[[int, int, int], None]] = None,
    ) -> Dict[str, int]:
        """Run one epoch of the campaign; returns this epoch's tallies.

        The returned dict carries per-kind flip counts plus the per-word
        classification the ECC acceptance contract pins down:
        ``words_single`` (storage words hit exactly once this epoch —
        exactly what a SECDED scrub must correct) and ``words_multi``
        (words hit twice or more — what it must detect or miscorrect).
        """
        hits: Dict[Tuple[int, object], int] = {}
        stats = {"qtable": 0, "burst": 0, "mode": 0}
        for index, rule in enumerate(self.rules):
            token = self.rng.getrandbits(64)  # unconditionally, every rule
            if rule.kind == "qtable":
                sub = random.Random(token)
                total = sum(s.bit_count() for s in storages)
                flips = _poisson(sub, total * rule.rate) if total else 0
                for _ in range(flips):
                    self._flip_global(storages, sub.randrange(total), hits)
                stats["qtable"] += flips
            elif rule.kind == "mode":
                if index in self._done or now < rule.cycle:
                    continue
                self._done.add(index)
                sub = random.Random(token)
                bit = sub.randrange(MODE_REGISTER_BITS)
                copy = sub.randrange(MODE_COPIES)
                if flip_mode is not None:
                    flip_mode(rule.router, bit, copy)
                stats["mode"] += 1
            else:  # burst
                if index in self._done or now < rule.cycle:
                    continue
                self._done.add(index)
                sub = random.Random(token)
                total = sum(s.bit_count() for s in storages)
                flips = min(rule.count, total)
                for _ in range(flips):
                    self._flip_global(storages, sub.randrange(total), hits)
                stats["burst"] += flips
        stats["flips"] = stats["qtable"] + stats["burst"]
        stats["words_single"] = sum(1 for n in hits.values() if n == 1)
        stats["words_multi"] = sum(1 for n in hits.values() if n >= 2)
        return stats
