"""Inter-router channels: data wires plus sideband ACK/credit wires.

A :class:`Channel` is the directed link the paper calls "channel i"
(Section III).  It carries:

* data transmissions (flits, possibly ECC-protected, possibly mode-2
  duplicates), delivered after ``latency`` cycles;
* the sideband acknowledgement wire back to the sender (ACK/NACK flits of
  the ARQ protocol, Fig. 1(c)) and the credit-return wire of the VC flow
  control, both a fixed one cycle long.

Error injection happens at *delivery* time through the channel's
:attr:`error_model`, which the fault substrate refreshes every control
epoch with the current temperature-dependent probabilities
(:mod:`repro.faults.varius`).  The channel itself is agnostic about where
those probabilities come from.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, List, Optional, Tuple

from repro.noc.packet import Flit
from repro.noc.topology import ChannelSpec

__all__ = ["Transmission", "ChannelErrorModel", "Channel"]

#: sentinel gap meaning "no error will ever fire" (probability <= 0);
#: distinct from ``None`` which means "gap not drawn yet"
_GAP_NEVER = -1

#: gaps beyond this are indistinguishable from "never" on any run length
#: and guard the float -> int conversion against overflow
_GAP_MAX = float(2**62)

#: stable sort key for due transmissions (C-level attrgetter beats a
#: lambda in the per-cycle arrival pop)
_arrive_key = operator.attrgetter("arrive_at")


class Transmission:
    """One flit in flight on a channel."""

    __slots__ = (
        "flit",
        "seq",
        "vc",
        "protected",
        "relaxed",
        "duplicate",
        "paired",
        "arrive_at",
    )

    def __init__(
        self,
        flit: Flit,
        seq: Optional[int],
        vc: int,
        protected: bool,
        relaxed: bool,
        duplicate: bool,
        arrive_at: int,
        paired: bool = False,
    ) -> None:
        self.flit = flit
        #: ARQ sequence number (None on unprotected channels)
        self.seq = seq
        #: downstream input VC the flit was allocated to
        self.vc = vc
        #: whether the -Link (ECC encoder/decoder pair) is enabled
        self.protected = protected
        #: whether mode-3 timing relaxation applies to this transfer
        self.relaxed = relaxed
        #: whether this is a mode-2 pre-retransmission copy
        self.duplicate = duplicate
        #: whether a pre-retransmission copy follows this transmission.
        #: Duplicates carry no credit of their own, so the credit-refund
        #: rules differ for each member of the pair (see Router).
        self.paired = paired
        self.arrive_at = arrive_at


class ChannelErrorModel:
    """Per-channel timing-error sampler with geometric skip-sampling.

    ``event_probability`` is the chance a flit transfer suffers a timing
    error event; ``severity`` gives the distribution of the number of bit
    errors per event ``(P[1 bit], P[2 bits], P[3+ bits])``.  Mode-3
    relaxed transfers scale the event probability by ``relax_factor``
    (near zero — the paper says timing relaxation brings the error
    probability "near to zero").

    Instead of one Bernoulli draw per protected flit, the sampler draws
    the *gap* to the next error event once — the number of clean
    transfers before the faulty one, geometrically distributed as
    ``floor(ln(U)/ln(1-p))`` — and counts flits down to it.  Relaxed and
    unrelaxed transfers see different probabilities, so each stream keeps
    its own countdown.  The geometric distribution is memoryless, so a
    countdown stays valid as long as its probability is unchanged; the
    property setters invalidate it only on an actual change, and the next
    ``sample_error_bits`` call lazily redraws.  That lazy redraw is what
    keeps the RNG stream deterministic: draws happen only at flit
    arrivals, which every kernel processes in the same global order.

    Two sources set the probability: the fault substrate writes
    ``event_probability`` every epoch, and a hard-fault error burst sets
    a floor with :meth:`set_burst_floor`.  Transfers sample at the larger
    of the two, so neither overrides the other.
    """

    __slots__ = (
        "_event_probability",
        "_substrate",
        "_burst_floor",
        "severity",
        "_relax_factor",
        "_rng",
        "_bits",
        "_gap",
        "_gap_relaxed",
    )

    def __init__(
        self,
        rng,
        flit_bits: int,
        event_probability: float = 0.0,
        severity: Tuple[float, float, float] = (0.33, 0.47, 0.20),
        relax_factor: float = 1e-4,
    ) -> None:
        if not 0.0 <= event_probability <= 1.0:
            raise ValueError("event probability must be in [0, 1]")
        if abs(sum(severity) - 1.0) > 1e-9 or any(s < 0 for s in severity):
            raise ValueError("severity must be a probability distribution")
        #: the probability transfers sample at
        self._event_probability = event_probability
        #: the fault substrate's value and the active burst's floor
        self._substrate = event_probability
        self._burst_floor = 0.0
        self.severity = severity
        self._relax_factor = relax_factor
        self._rng = rng
        self._bits = flit_bits
        #: clean transfers remaining before the next unrelaxed error
        #: (None = not drawn yet, _GAP_NEVER = probability is zero)
        self._gap: Optional[int] = None
        #: same countdown for the mode-3 relaxed stream
        self._gap_relaxed: Optional[int] = None

    # -- probability knobs (setters invalidate the countdowns) ---------
    @property
    def event_probability(self) -> float:
        return self._event_probability

    @event_probability.setter
    def event_probability(self, value: float) -> None:
        self._substrate = value
        self._sample_at(max(value, self._burst_floor))

    def set_burst_floor(self, floor: float) -> None:
        """Sample at no less than ``floor`` until it is reset to 0."""
        self._burst_floor = floor
        self._sample_at(max(self._substrate, floor))

    def _sample_at(self, p: float) -> None:
        if p != self._event_probability:
            self._event_probability = p
            self._gap = None
            self._gap_relaxed = None

    @property
    def relax_factor(self) -> float:
        return self._relax_factor

    @relax_factor.setter
    def relax_factor(self, value: float) -> None:
        if value != self._relax_factor:
            self._relax_factor = value
            self._gap_relaxed = None

    def set_probabilities(self, event_probability: float, relax_factor: float) -> None:
        """Epoch refresh entry point used by the fault injector."""
        self.event_probability = event_probability
        self.relax_factor = relax_factor

    # ------------------------------------------------------------------
    def _draw_gap(self, p: float) -> int:
        """Clean transfers before the next error, geometrically sampled."""
        if p <= 0.0:
            return _GAP_NEVER
        u = self._rng.random()
        if p >= 1.0 or u <= 0.0:
            return 0
        # log1p keeps precision for tiny p; denormal p can still make the
        # divisor 0.0 (or the quotient overflow a double), which just means
        # the gap exceeds any simulable horizon.
        log1mp = math.log1p(-p)
        if log1mp == 0.0:
            return _GAP_NEVER
        gap = math.log(u) / log1mp
        if gap >= _GAP_MAX:
            return _GAP_NEVER
        return int(gap)

    def sample_error_bits(self, relaxed: bool) -> int:
        """Number of bit errors for one flit transfer (0 = clean)."""
        if relaxed:
            gap = self._gap_relaxed
            if gap is None:
                gap = self._draw_gap(self._event_probability * self._relax_factor)
            if gap != 0:
                self._gap_relaxed = gap if gap == _GAP_NEVER else gap - 1
                return 0
            self._gap_relaxed = self._draw_gap(
                self._event_probability * self._relax_factor
            )
        else:
            gap = self._gap
            if gap is None:
                gap = self._draw_gap(self._event_probability)
            if gap != 0:
                self._gap = gap if gap == _GAP_NEVER else gap - 1
                return 0
            self._gap = self._draw_gap(self._event_probability)
        roll = self._rng.random()
        if roll < self.severity[0]:
            return 1
        if roll < self.severity[0] + self.severity[1]:
            return 2
        return 3

    # -- pickling (checkpoints must capture the countdown state) -------
    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])

    def sample_mask(self, n_errors: int) -> int:
        """Random XOR mask with ``n_errors`` distinct flipped bits."""
        mask = 0
        while bin(mask).count("1") < n_errors:
            mask |= 1 << self._rng.randrange(self._bits)
        return mask


class Channel:
    """A directed inter-router channel with its sideband wires.

    Data transmissions arrive ``latency`` (plus protection/stall) cycles
    after they are sent.  The sideband is a fixed one-cycle wire: every
    credit and ACK/NACK sent in cycle ``t`` reaches the sender in cycle
    ``t + 1``, so the sideband lists carry no timestamps.  A credit is
    the downstream VC index; an ACK is the sequence number ``seq`` and a
    NACK is ``~seq`` (always negative), so no message object is
    allocated per protected flit.

    Every send also files the channel's creation index with the owning
    Network's due structures — data under its arrival cycle, sideband in
    the next-cycle list — so the cycle kernels visit only channels with
    something due.  A standalone channel (unit tests) keeps private due
    structures that nothing consumes.
    """

    __slots__ = (
        "spec",
        "latency",
        "error_model",
        "alive",
        "index",
        "_sideband_due",
        "_arrivals_due",
        "_data",
        "_acks",
        "_credits",
    )

    def __init__(self, spec: ChannelSpec, latency: int, error_model: ChannelErrorModel) -> None:
        if latency < 1:
            raise ValueError("channel latency must be at least one cycle")
        self.spec = spec
        self.latency = latency
        self.error_model = error_model
        #: cleared by Network.kill_link — a dead channel swallows all
        #: traffic (data and sideband) instead of delivering it
        self.alive = True
        #: creation-order index assigned by the owning Network; the cycle
        #: kernels deliver due channels sorted by it so the shared RNG is
        #: consumed in the same order as a full scan
        self.index = -1
        #: channel indices with sideband due next cycle (Network-owned)
        self._sideband_due: List[int] = []
        #: arrival cycle -> channel indices with data due then
        self._arrivals_due: Dict[int, List[int]] = {}
        self._data: List[Transmission] = []
        #: ACK (seq) / NACK (~seq) codes back toward the sender
        self._acks: List[int] = []
        #: credit returns (downstream VC index) toward the sender
        self._credits: List[int] = []

    # ------------------------------------------------------------------
    def bind_activity(
        self, index: int, sideband_due: List[int], arrivals_due: Dict[int, List[int]]
    ) -> None:
        """Attach this channel to its Network's due structures."""
        self.index = index
        self._sideband_due = sideband_due
        self._arrivals_due = arrivals_due

    @property
    def busy(self) -> bool:
        """Whether anything (data or sideband) is in flight."""
        return bool(self._data or self._acks or self._credits)

    @property
    def has_pending_data(self) -> bool:
        """Whether data transmissions are in flight."""
        return bool(self._data)

    @property
    def has_pending_acks(self) -> bool:
        """Whether sideband ACK/NACKs are in flight."""
        return bool(self._acks)

    @property
    def has_pending_credits(self) -> bool:
        """Whether sideband credit returns are in flight."""
        return bool(self._credits)

    def send(self, transmission: Transmission) -> None:
        if self.alive:
            self._data.append(transmission)
            due = self._arrivals_due.get(transmission.arrive_at)
            if due is None:
                self._arrivals_due[transmission.arrive_at] = [self.index]
            else:
                due.append(self.index)

    def send_ack(self, code: int) -> None:
        """Send an ACK (``seq``) or NACK (``~seq``) for delivery next cycle."""
        if self.alive:
            if not (self._acks or self._credits):
                self._sideband_due.append(self.index)
            self._acks.append(code)

    def send_credit(self, vc: int) -> None:
        """Return one credit for downstream VC ``vc``, delivered next cycle."""
        if self.alive:
            if not (self._acks or self._credits):
                self._sideband_due.append(self.index)
            self._credits.append(vc)

    # ------------------------------------------------------------------
    def pop_arrivals(self, now: int) -> List[Transmission]:
        """Remove and return data transmissions due at ``now``."""
        data = self._data
        if not data:
            return []
        # One or two flits in flight (the second one still on the wire)
        # is the saturation steady state: hand over without scanning.
        first = data[0]
        if first.arrive_at <= now:
            if len(data) == 1:
                self._data = []
                return data
            if len(data) == 2 and data[1].arrive_at > now:
                del data[0]
                return [first]
        elif len(data) == 1:
            return []
        due = [t for t in data if t.arrive_at <= now]
        if due:
            # Everything-due is the common case (latency-1 links): skip
            # the second scan and keep the (empty) list object.
            if len(due) == len(data):
                data.clear()
            else:
                self._data = [t for t in data if t.arrive_at > now]
            due.sort(key=_arrive_key)
        return due

    def pop_acks(self) -> List[int]:
        """Remove and return every ACK/NACK code sent, in send order."""
        acks = self._acks
        self._acks = []
        return acks

    def pop_credits(self) -> List[int]:
        """Remove and return every credit sent, in send order."""
        credits = self._credits
        self._credits = []
        return credits
