"""Error-control-coding substrate: CRC, SECDED Hamming, and ARQ.

These are the building blocks of the three link-protection schemes the
paper compares (CRC end-to-end, ARQ+ECC per hop, and the proposed
dynamically-switched design).
"""

from repro.coding.arq import ArqError, RetransmissionBuffer
from repro.coding.crc import CRC
from repro.coding.hamming import DecodeResult, DecodeStatus, SecdedCode

__all__ = [
    "ArqError",
    "RetransmissionBuffer",
    "CRC",
    "DecodeResult",
    "DecodeStatus",
    "SecdedCode",
]
