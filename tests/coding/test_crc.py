"""Unit and property tests for the CRC-16 packet check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import CRC


class TestConstruction:
    def test_standard_widths(self):
        assert CRC().width == 16


class TestCompute:
    def test_known_xmodem_check_value(self):
        # The CRC-16/XMODEM catalogue check: b"123456789" -> 0x31C3.
        assert CRC().compute(int.from_bytes(b"123456789", "big"), 72) == 0x31C3

    def test_deterministic(self):
        crc = CRC()
        assert crc.compute(0xDEADBEEF, 32) == crc.compute(0xDEADBEEF, 32)

    def test_verify_roundtrip(self):
        crc = CRC()
        check = crc.compute(0x1234_5678, 32)
        assert crc.verify(0x1234_5678, 32, check)

    def test_rejects_negative_payload(self):
        with pytest.raises(ValueError):
            CRC().compute(-1, 8)

    def test_rejects_oversized_payload(self):
        with pytest.raises(ValueError):
            CRC().compute(1 << 9, 8)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            CRC().compute(0, 0)

    def test_different_payloads_usually_differ(self):
        crc = CRC()
        checks = {crc.compute(v, 16) for v in range(256)}
        # 256 distinct 16-bit payloads should not collapse onto few CRCs.
        assert len(checks) > 200


class TestErrorDetection:
    @pytest.mark.parametrize("bit", [0, 1, 7, 31, 63, 127])
    def test_single_bit_flip_detected(self, bit):
        crc = CRC()
        payload, bits = 0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF, 128
        check = crc.compute(payload, bits)
        assert not crc.verify(payload ^ (1 << bit), bits, check)

    def test_burst_error_within_width_detected(self):
        # CRC-16 detects all burst errors of length <= 16.
        crc = CRC()
        payload, bits = 0xAAAA_BBBB_CCCC_DDDD, 64
        check = crc.compute(payload, bits)
        for start in range(0, 48, 7):
            burst = 0x9DF3 << start  # arbitrary 16-bit burst pattern
            assert not crc.verify(payload ^ burst, bits, check)

    def test_zero_error_mask_not_detected(self):
        crc = CRC()
        payload, bits = 0xDEAD_BEEF, 32
        assert crc.verify(payload ^ 0, bits, crc.compute(payload, bits))


@settings(max_examples=200)
@given(payload=st.integers(min_value=0, max_value=(1 << 128) - 1))
def test_property_roundtrip_128bit(payload):
    """Any 128-bit payload (the paper's flit width) verifies clean."""
    crc = CRC()
    assert crc.verify(payload, 128, crc.compute(payload, 128))


@settings(max_examples=200)
@given(
    payload=st.integers(min_value=0, max_value=(1 << 64) - 1),
    bit=st.integers(min_value=0, max_value=63),
)
def test_property_single_flip_always_detected(payload, bit):
    """CRC-16 detects every single-bit error."""
    crc = CRC()
    check = crc.compute(payload, 64)
    assert not crc.verify(payload ^ (1 << bit), 64, check)


@settings(max_examples=100)
@given(
    payload=st.integers(min_value=0, max_value=(1 << 64) - 1),
    a=st.integers(min_value=0, max_value=63),
    b=st.integers(min_value=0, max_value=63),
)
def test_property_double_flip_detected_crc16(payload, a, b):
    """CRC-16-CCITT detects all double-bit errors at these block lengths."""
    if a == b:
        return
    crc = CRC()
    check = crc.compute(payload, 64)
    assert not crc.verify(payload ^ (1 << a) ^ (1 << b), 64, check)
