"""Small application-layer payload builders and parsers.

DNS queries/responses, minimal HTTP requests/responses, MQTT control
packets and Telnet-style credential exchanges (the Mirai infection
vector): the protocols the modelled IoT devices speak.  The program
keeps no payload bytes -- tables record ``payload_len`` and captures
are written with zero payloads -- so nothing in ``src/`` calls these;
they live with their tests until those go too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

DNS_QTYPE_A = 1
DNS_QCLASS_IN = 1

MQTT_CONNECT = 1
MQTT_CONNACK = 2
MQTT_PUBLISH = 3
MQTT_SUBSCRIBE = 8
MQTT_PINGREQ = 12
MQTT_PINGRESP = 13


def encode_dns_name(name: str) -> bytes:
    """Encode a domain name in DNS label format."""
    out = bytearray()
    for label in name.rstrip(".").split("."):
        raw = label.encode("ascii")
        if not 0 < len(raw) < 64:
            raise ValueError(f"invalid DNS label: {label!r}")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


def decode_dns_name(data: bytes, offset: int = 0) -> tuple[str, int]:
    """Decode a DNS label-format name, returning ``(name, next_offset)``."""
    labels: list[str] = []
    while True:
        if offset >= len(data):
            raise ValueError("truncated DNS name")
        length = data[offset]
        offset += 1
        if length == 0:
            break
        if length >= 64:
            raise ValueError("DNS compression pointers are not supported")
        labels.append(data[offset : offset + length].decode("ascii"))
        offset += length
    return ".".join(labels), offset


def dns_query(name: str, txid: int = 0x1234) -> bytes:
    """Build a standard A-record DNS query payload."""
    header = struct.pack("!HHHHHH", txid, 0x0100, 1, 0, 0, 0)
    return header + encode_dns_name(name) + struct.pack("!HH", DNS_QTYPE_A, DNS_QCLASS_IN)


def dns_response(name: str, address: int, txid: int = 0x1234, ttl: int = 300) -> bytes:
    """Build a single-answer A-record DNS response payload."""
    header = struct.pack("!HHHHHH", txid, 0x8180, 1, 1, 0, 0)
    question = encode_dns_name(name) + struct.pack("!HH", DNS_QTYPE_A, DNS_QCLASS_IN)
    answer = (
        encode_dns_name(name)
        + struct.pack("!HHIH", DNS_QTYPE_A, DNS_QCLASS_IN, ttl, 4)
        + struct.pack("!I", address)
    )
    return header + question + answer


@dataclass(frozen=True)
class DnsMessage:
    """The subset of a parsed DNS message the generators inspect."""

    txid: int
    is_response: bool
    qname: str


def parse_dns(data: bytes) -> DnsMessage:
    """Parse the header and first question of a DNS payload."""
    if len(data) < 12:
        raise ValueError("truncated DNS header")
    txid, flags, qdcount = struct.unpack("!HHH", data[:6])
    if qdcount < 1:
        raise ValueError("DNS message without a question")
    qname, _ = decode_dns_name(data, 12)
    return DnsMessage(txid=txid, is_response=bool(flags & 0x8000), qname=qname)


def http_request(host: str, path: str = "/", method: str = "GET") -> bytes:
    """Build a minimal HTTP/1.1 request payload."""
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "User-Agent: repro-iot/1.0\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("ascii")


def http_response(status: int = 200, body: bytes = b"") -> bytes:
    """Build a minimal HTTP/1.1 response payload."""
    reason = {200: "OK", 401: "Unauthorized", 404: "Not Found"}.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("ascii")
    return head + body


def mqtt_packet(packet_type: int, payload: bytes = b"") -> bytes:
    """Build an MQTT control packet with single-byte remaining length."""
    if len(payload) > 127:
        raise ValueError("generators only emit short MQTT packets")
    return bytes([(packet_type << 4) & 0xF0, len(payload)]) + payload


def mqtt_publish(topic: str, message: bytes) -> bytes:
    """Build an MQTT PUBLISH packet (QoS 0)."""
    topic_raw = topic.encode("utf-8")
    payload = struct.pack("!H", len(topic_raw)) + topic_raw + message
    return mqtt_packet(MQTT_PUBLISH, payload)


def parse_mqtt_type(data: bytes) -> int:
    """Return the MQTT control packet type of a payload."""
    if not data:
        raise ValueError("empty MQTT payload")
    return (data[0] >> 4) & 0x0F


def telnet_login_attempt(username: str, password: str) -> bytes:
    """Build the credential bytes of a Telnet brute-force attempt."""
    return f"{username}\r\n{password}\r\n".encode("ascii")
