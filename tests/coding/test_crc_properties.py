"""Property-based tests for the CRC-16 packet check.

The guarantee the end-to-end CRC check relies on: a CRC whose generator
polynomial has a nonzero constant term detects **every** burst error of
length at most the polynomial degree (the error polynomial then cannot
be a multiple of the generator).  CRC-16-CCITT has the +1 term, so
hypothesis can quantify over arbitrary in-window bursts at the paper's
128-bit flit width.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.coding.crc import CRC

PAYLOAD_BITS = 128

CRCS = {"crc16": CRC()}

payloads = st.integers(min_value=0, max_value=(1 << PAYLOAD_BITS) - 1)


@st.composite
def bursts(draw, width):
    """An error mask whose set bits span at most ``width`` positions.

    A burst of length L has its first and last bits set (that is what
    makes L its length); interior bits are arbitrary.  The burst is
    placed at a random offset inside the payload window.
    """
    length = draw(st.integers(min_value=1, max_value=width))
    if length == 1:
        pattern = 1
    else:
        interior = draw(st.integers(0, (1 << (length - 2)) - 1))
        pattern = 1 | (interior << 1) | (1 << (length - 1))
    offset = draw(st.integers(0, PAYLOAD_BITS - length))
    return pattern << offset


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CRCS))
    @given(payload=payloads)
    @settings(deadline=None)
    def test_verify_accepts_own_checksum(self, name, payload):
        crc = CRCS[name]
        check = crc.compute(payload, PAYLOAD_BITS)
        assert crc.verify(payload, PAYLOAD_BITS, check)
        assert 0 <= check < (1 << crc.width)


class TestBurstDetection:
    @pytest.mark.parametrize("name", sorted(CRCS))
    @given(data=st.data())
    @settings(deadline=None)
    def test_detects_bursts_up_to_polynomial_degree(self, name, data):
        crc = CRCS[name]
        mask = data.draw(bursts(crc.width))
        clean = crc.compute(0, PAYLOAD_BITS)
        assert not crc.verify(mask, PAYLOAD_BITS, clean)

    @pytest.mark.parametrize("name", sorted(CRCS))
    @given(payload=payloads, data=st.data())
    @settings(deadline=None)
    def test_corrupted_payload_fails_verify(self, name, payload, data):
        """The linearity argument made concrete: flipping a burst in a
        real payload must flip the checksum."""
        crc = CRCS[name]
        mask = data.draw(bursts(crc.width))
        check = crc.compute(payload, PAYLOAD_BITS)
        assert not crc.verify(payload ^ mask, PAYLOAD_BITS, check)

    @pytest.mark.parametrize("name", sorted(CRCS))
    @given(data=st.data())
    @settings(deadline=None)
    def test_single_bit_errors_always_detected(self, name, data):
        crc = CRCS[name]
        position = data.draw(st.integers(0, PAYLOAD_BITS - 1))
        clean = crc.compute(0, PAYLOAD_BITS)
        assert not crc.verify(1 << position, PAYLOAD_BITS, clean)
