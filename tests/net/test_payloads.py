"""Tests for application-layer payload builders/parsers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.net.payloads import (
    DnsMessage,
    decode_dns_name,
    dns_query,
    dns_response,
    encode_dns_name,
    http_request,
    http_response,
    mqtt_packet,
    mqtt_publish,
    parse_dns,
    parse_mqtt_type,
    telnet_login_attempt,
    MQTT_CONNECT,
    MQTT_PUBLISH,
)


class TestDnsNames:
    def test_round_trip(self):
        raw = encode_dns_name("camera.vendor-cloud.example.com")
        name, consumed = decode_dns_name(raw)
        assert name == "camera.vendor-cloud.example.com"
        assert consumed == len(raw)

    def test_trailing_dot_normalised(self):
        assert encode_dns_name("a.b.") == encode_dns_name("a.b")

    def test_rejects_oversized_label(self):
        with pytest.raises(ValueError):
            encode_dns_name("x" * 64 + ".com")

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            encode_dns_name("a..b")

    def test_truncated_name_rejected(self):
        with pytest.raises(ValueError):
            decode_dns_name(b"\x05abc")

    def test_compression_pointer_rejected(self):
        with pytest.raises(ValueError):
            decode_dns_name(b"\xc0\x0c")

    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=20),
            min_size=1,
            max_size=4,
        )
    )
    def test_round_trip_property(self, labels):
        name = ".".join(labels)
        decoded, _ = decode_dns_name(encode_dns_name(name))
        assert decoded == name


class TestDnsMessages:
    def test_query_parses(self):
        message = parse_dns(dns_query("hub.example.com", txid=0xBEEF))
        assert message == DnsMessage(0xBEEF, False, "hub.example.com")

    def test_response_parses(self):
        raw = dns_response("hub.example.com", address=0x01020304, txid=7)
        message = parse_dns(raw)
        assert message.is_response
        assert message.txid == 7
        assert message.qname == "hub.example.com"

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            parse_dns(b"\x00\x01")

    def test_no_question_rejected(self):
        import struct

        header = struct.pack("!HHHHHH", 1, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            parse_dns(header)


class TestHttp:
    def test_request_shape(self):
        raw = http_request("device.example.com", "/status").decode("ascii")
        assert raw.startswith("GET /status HTTP/1.1\r\n")
        assert "Host: device.example.com" in raw
        assert raw.endswith("\r\n\r\n")

    def test_response_content_length(self):
        raw = http_response(200, b"hello").decode("ascii", errors="ignore")
        assert "Content-Length: 5" in raw
        assert raw.endswith("hello")

    def test_error_status_reason(self):
        raw = http_response(401).decode("ascii")
        assert "401 Unauthorized" in raw


class TestMqttAndTelnet:
    def test_packet_type_round_trip(self):
        raw = mqtt_packet(MQTT_CONNECT, b"\x00\x04MQTT")
        assert parse_mqtt_type(raw) == MQTT_CONNECT

    def test_publish_contains_topic(self):
        raw = mqtt_publish("home/thermostat/temp", b"21.5")
        assert parse_mqtt_type(raw) == MQTT_PUBLISH
        assert b"home/thermostat/temp" in raw
        assert raw.endswith(b"21.5")

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError):
            mqtt_packet(MQTT_PUBLISH, b"x" * 200)

    def test_empty_payload_rejected_on_parse(self):
        with pytest.raises(ValueError):
            parse_mqtt_type(b"")

    def test_telnet_credentials(self):
        raw = telnet_login_attempt("root", "xc3511")
        assert raw == b"root\r\nxc3511\r\n"
