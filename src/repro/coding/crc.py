"""Cyclic Redundancy Check (CRC) codes over integer payloads.

The paper's baseline router protects packets end-to-end with CRC: every
flit of a packet is encoded by a CRC encoder at the source network
interface and checked by a decoder at the destination.  A failed check
triggers a full packet retransmission from the source (Section II,
Fig. 1(b)).

This module implements table-driven CRCs generically over arbitrary-width
integer payloads, plus the handful of standard polynomials used in on-chip
and off-chip links.  Payloads are plain Python integers interpreted as
bit-vectors (bit 0 = LSB), which is also how :mod:`repro.noc.packet`
stores flit payloads, so encoding/checking never needs byte conversion.

Example
-------
>>> crc = CRC.crc8()
>>> word = 0xDEADBEEF
>>> check = crc.compute(word, 32)
>>> crc.verify(word, 32, check)
True
>>> crc.verify(word ^ (1 << 7), 32, check)   # single bit flip is caught
False
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass, field
from typing import List

__all__ = [
    "CRC",
    "CRC8_POLY",
    "CRC16_CCITT_POLY",
    "CRC32_POLY",
]

#: CRC-8/ATM polynomial x^8 + x^2 + x + 1.
CRC8_POLY = 0x07

#: CRC-16-CCITT polynomial x^16 + x^12 + x^5 + 1.
CRC16_CCITT_POLY = 0x1021

#: IEEE 802.3 CRC-32 polynomial (normal representation).
CRC32_POLY = 0x04C11DB7


def _build_table(poly: int, width: int) -> List[int]:
    """Build the 256-entry byte-at-a-time CRC lookup table."""
    top_bit = 1 << (width - 1)
    mask = (1 << width) - 1
    table = []
    for byte in range(256):
        register = byte << (width - 8) if width >= 8 else byte
        for _ in range(8):
            if register & top_bit:
                register = ((register << 1) ^ poly) & mask
            else:
                register = (register << 1) & mask
        table.append(register)
    return table


@dataclass(frozen=True)
class CRC:
    """A table-driven CRC with a given generator polynomial.

    Parameters
    ----------
    poly:
        Generator polynomial in "normal" (MSB-first) representation,
        without the implicit top bit.
    width:
        Number of check bits produced (degree of the polynomial).
    init:
        Initial shift-register value.
    name:
        Human-readable identifier used in reports.
    """

    poly: int
    width: int
    init: int = 0
    name: str = "crc"
    _table: List[int] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.width < 8:
            raise ValueError("CRC widths below 8 bits are not supported")
        if not 0 < self.poly < (1 << self.width):
            raise ValueError(f"polynomial 0x{self.poly:x} out of range for width {self.width}")
        object.__setattr__(self, "_table", _build_table(self.poly, self.width))

    # ------------------------------------------------------------------
    # Standard instances
    # ------------------------------------------------------------------
    @classmethod
    def crc8(cls) -> "CRC":
        """CRC-8/ATM — the lightweight check used per flit in examples."""
        return cls(poly=CRC8_POLY, width=8, name="crc8")

    @classmethod
    def crc16(cls) -> "CRC":
        """CRC-16-CCITT — the default end-to-end packet check."""
        return cls(poly=CRC16_CCITT_POLY, width=16, name="crc16")

    @classmethod
    def crc32(cls) -> "CRC":
        """IEEE CRC-32 — strongest (and most expensive) option."""
        return cls(poly=CRC32_POLY, width=32, name="crc32")

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def compute(self, payload: int, payload_bits: int) -> int:
        """Compute the CRC of ``payload`` interpreted as ``payload_bits`` bits.

        The payload is consumed MSB-first in whole bytes; widths that are
        not byte multiples are zero-padded at the top, which is the usual
        hardware convention for fixed-width buses.
        """
        if payload < 0:
            raise ValueError("payload must be non-negative")
        if payload_bits <= 0:
            raise ValueError("payload_bits must be positive")
        if payload >= (1 << payload_bits):
            raise ValueError(f"payload does not fit in {payload_bits} bits")

        n_bytes = (payload_bits + 7) // 8
        if self.poly == CRC16_CCITT_POLY and self.width == 16:
            # binascii.crc_hqx is this exact CRC (0x1021, MSB-first, no
            # reflection, no final xor) in C — bit-identical results.
            return binascii.crc_hqx(payload.to_bytes(n_bytes, "big"), self.init)
        register = self.init
        mask = (1 << self.width) - 1
        shift = self.width - 8
        table = self._table
        # to_bytes + byte iteration keeps every shift on the small
        # register instead of repeatedly shifting the multi-word payload
        # integer — measurably faster for wide flit payloads.
        for byte in payload.to_bytes(n_bytes, "big"):
            register = ((register << 8) ^ table[((register >> shift) ^ byte) & 0xFF]) & mask
        return register

    def verify(self, payload: int, payload_bits: int, check: int) -> bool:
        """Return ``True`` iff ``check`` matches the CRC of ``payload``."""
        return self.compute(payload, payload_bits) == check
