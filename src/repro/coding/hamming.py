"""SECDED extended Hamming codes.

The ARQ+ECC link protection in the paper (Section II, Fig. 1(c)) adds
redundant bits to every flit so the receiving router can perform
**single-error correction, double-error detection** (SECDED).  A corrected
flit is consumed and acknowledged (ACK); a flit with a detected-but-
uncorrectable error triggers a NACK and a per-hop retransmission from the
upstream router's ARQ buffer.

This module implements a parameterized extended Hamming code over integer
payloads of any width (e.g. (72, 64) for 64-bit words, (137, 128) for the
paper's 128-bit flits).  Encoding produces a codeword integer; decoding
classifies the received word as clean / corrected / uncorrectable and
returns the (possibly corrected) data.

The layout follows the classic hardware convention: parity bits occupy
power-of-two positions 1, 2, 4, ... of the 1-indexed codeword, data bits
fill the rest, and one extra overall-parity bit extends the code for
double-error detection.

The code is linear over GF(2): the codeword of ``data`` is the XOR of
the codewords of its bytes, so :meth:`SecdedCode.encode` looks up one
table per byte.  The tables are built once per data width from the
bit-by-bit encoder's codeword for each single set bit, and every code of
that width shares them.

Example
-------
>>> code = SecdedCode(data_bits=8)
>>> cw = code.encode(0b1011_0010)
>>> code.decode(cw).data == 0b1011_0010
True
>>> result = code.decode(cw ^ (1 << 3))     # flip one codeword bit
>>> result.status is DecodeStatus.CORRECTED
True
>>> result.data == 0b1011_0010
True
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["DecodeStatus", "DecodeResult", "SecdedCode"]


class DecodeStatus(enum.Enum):
    """Outcome classes of a SECDED decode."""

    #: Codeword passed all checks unchanged.
    CLEAN = "clean"
    #: Exactly one bit error was detected and corrected.
    CORRECTED = "corrected"
    #: A double (even-weight) error was detected; data is unreliable.
    DETECTED = "detected"


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding one codeword.

    Attributes
    ----------
    status:
        Classification of the received word.
    data:
        Decoded data bits.  Valid for CLEAN and CORRECTED; for DETECTED it
        is the best-effort extraction and must not be trusted.
    """

    status: DecodeStatus
    data: int

    @property
    def ok(self) -> bool:
        """Whether the data can be consumed (clean or corrected)."""
        return self.status is not DecodeStatus.DETECTED


_Tables = Tuple[Tuple[int, ...], ...]

#: data width -> per-byte encode tables; module-level, so every code of
#: one width shares them and pickled codes carry none
_TABLES: Dict[int, _Tables] = {}


class SecdedCode:
    """Extended Hamming SECDED code for a fixed data width.

    Parameters
    ----------
    data_bits:
        Payload width in bits (``k``).  The codeword width is
        ``k + r + 1`` where ``r`` is the smallest integer with
        ``2**r >= k + r + 1``.
    """

    def __init__(self, data_bits: int) -> None:
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        self.data_bits = data_bits
        self.parity_bits = self._required_parity_bits(data_bits)
        #: total codeword width including the overall parity bit
        self.codeword_bits = data_bits + self.parity_bits + 1
        # 1-indexed positions of data bits inside the Hamming core
        # (positions that are not powers of two).
        self._data_positions: List[int] = []
        pos = 1
        while len(self._data_positions) < data_bits:
            if pos & (pos - 1):  # not a power of two
                self._data_positions.append(pos)
            pos += 1
        self._core_bits = pos - 1  # highest used 1-indexed position
        # Parity bit j (at position 2^j) covers the positions whose
        # 1-indexed value has bit j set: one core-bit mask per parity bit.
        self._coverage = [
            sum(1 << (p - 1) for p in range(1, self._core_bits + 1) if p >> j & 1)
            for j in range(self.parity_bits)
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _required_parity_bits(data_bits: int) -> int:
        r = 1
        while (1 << r) < data_bits + r + 1:
            r += 1
        return r

    # ------------------------------------------------------------------
    def encode(self, data: int) -> int:
        """Encode ``data`` into a SECDED codeword integer.

        Bit ``i`` of the returned integer is 1-indexed codeword position
        ``i + 1``; the overall-parity bit is the top bit.
        """
        if not 0 <= data < (1 << self.data_bits):
            raise ValueError(f"data does not fit in {self.data_bits} bits")
        codeword = 0
        for table in _TABLES.get(self.data_bits) or self._build_tables():
            codeword ^= table[data & 0xFF]
            data >>= 8
        return codeword

    def decode(self, codeword: int) -> DecodeResult:
        """Decode a received codeword, correcting single-bit errors."""
        if not 0 <= codeword < (1 << self.codeword_bits):
            raise ValueError(f"codeword does not fit in {self.codeword_bits} bits")

        overall_rx = (codeword >> (self.codeword_bits - 1)) & 1
        core = codeword & ((1 << (self.codeword_bits - 1)) - 1)

        syndrome = self._syndrome(core)
        overall_calc = bin(core).count("1") & 1
        overall_ok = overall_calc == overall_rx

        if syndrome == 0 and overall_ok:
            return DecodeResult(DecodeStatus.CLEAN, self._extract(core))

        if syndrome == 0 and not overall_ok:
            # Error in the overall parity bit itself: data is intact.
            return DecodeResult(DecodeStatus.CORRECTED, self._extract(core))

        if syndrome != 0 and not overall_ok:
            # Odd number of errors; assume single and correct it.
            if syndrome <= self._core_bits:
                core ^= 1 << (syndrome - 1)
                return DecodeResult(DecodeStatus.CORRECTED, self._extract(core))
            # Syndrome points outside the codeword: multi-bit error.
            return DecodeResult(DecodeStatus.DETECTED, self._extract(core))

        # syndrome != 0 and overall parity consistent: double error.
        return DecodeResult(DecodeStatus.DETECTED, self._extract(core))

    # ------------------------------------------------------------------
    def _build_tables(self) -> _Tables:
        """Build (once per data width) the per-byte encode tables: table
        ``k`` maps a value ``v`` of data bits ``8k .. 8k+7`` to the XOR of
        the bit-by-bit codewords of ``v``'s set bits."""
        images = [self._encode_bits(1 << bit) for bit in range(self.data_bits)]
        tables = []
        for low in range(0, self.data_bits, 8):
            byte_images = images[low:low + 8]
            table = [0] * (1 << len(byte_images))
            for value in range(1, len(table)):
                lowest = value & -value
                table[value] = table[value ^ lowest] ^ byte_images[lowest.bit_length() - 1]
            tables.append(tuple(table))
        _TABLES[self.data_bits] = built = tuple(tables)
        return built

    def _encode_bits(self, data: int) -> int:
        """The bit-by-bit encoder."""
        core = 0
        for i, pos in enumerate(self._data_positions):
            if (data >> i) & 1:
                core |= 1 << (pos - 1)

        # Parity positions are still zero: the syndrome is the parity to set.
        syndrome = self._syndrome(core)
        for j in range(self.parity_bits):
            if syndrome >> j & 1:
                core |= 1 << ((1 << j) - 1)

        overall = bin(core).count("1") & 1
        return core | (overall << (self.codeword_bits - 1))

    def _syndrome(self, core: int) -> int:
        """Bit j is the parity of the core bits parity bit j covers."""
        syndrome = 0
        for j, mask in enumerate(self._coverage):
            syndrome |= (bin(core & mask).count("1") & 1) << j
        return syndrome

    def _extract(self, core: int) -> int:
        data = 0
        for i, pos in enumerate(self._data_positions):
            if (core >> (pos - 1)) & 1:
                data |= 1 << i
        return data
