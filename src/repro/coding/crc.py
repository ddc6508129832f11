"""CRC-16-CCITT over integer payloads: the end-to-end packet check.

The paper's baseline router protects packets end-to-end with CRC: every
flit of a packet is encoded by a CRC encoder at the source network
interface and checked by a decoder at the destination.  A failed check
triggers a full packet retransmission from the source (Section II,
Fig. 1(b)).

The check is CRC-16-CCITT (x^16 + x^12 + x^5 + 1, register starts at 0,
MSB-first, no reflection, no final xor: the CRC-16/XMODEM variant), which
:func:`binascii.crc_hqx` computes in C.  Payloads are plain Python
integers interpreted as bit-vectors (bit 0 = LSB), which is also how
:mod:`repro.noc.packet` stores flit payloads.

Example
-------
>>> crc = CRC()
>>> word = 0xDEADBEEF
>>> check = crc.compute(word, 32)
>>> crc.verify(word, 32, check)
True
>>> crc.verify(word ^ (1 << 7), 32, check)   # single bit flip is caught
False
"""

from __future__ import annotations

import binascii

__all__ = ["CRC"]


class CRC:
    """The CRC-16-CCITT packet check."""

    #: check bits per packet
    width = 16

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
        return binascii.crc_hqx(payload.to_bytes((payload_bits + 7) // 8, "big"), 0)

    def verify(self, payload: int, payload_bits: int, check: int) -> bool:
        """Return ``True`` iff ``check`` matches the CRC of ``payload``."""
        return self.compute(payload, payload_bits) == check
