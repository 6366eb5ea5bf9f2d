"""Packets, header definitions, and serialisation.

RMT parsers operate on raw header bytes.  A :class:`HeaderDef` declares a
header type as an ordered list of fixed-width fields; :class:`Packet` carries
a stack of header instances plus the per-packet metadata bus that match-action
stages (and Thanos's filter module) read and write.

Packets serialise to and parse from bytes, so the parser tests exercise the
real extraction path rather than dictionary lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError

__all__ = ["FieldDef", "HeaderDef", "Packet", "META_TENANT"]

#: Metadata key naming the tenant a packet belongs to on a virtualized
#: switch (set by the ingress classifier — in this model, the traffic
#: source).  Probe and data packets both carry it; a multi-tenant switch
#: demuxes on it and refuses to guess when it is absent.
META_TENANT = "tenant"


@dataclass(frozen=True)
class FieldDef:
    """One fixed-width unsigned field of a header."""

    name: str
    width_bits: int

    def __post_init__(self) -> None:
        if self.width_bits <= 0 or self.width_bits % 8:
            raise ConfigurationError(
                f"field {self.name!r}: width must be a positive multiple of 8 "
                f"bits (got {self.width_bits}); sub-byte fields are not "
                "needed by any header in this model"
            )


@dataclass(frozen=True)
class HeaderDef:
    """A header type: a name plus an ordered tuple of fields."""

    name: str
    fields: tuple[FieldDef, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate fields in header {self.name!r}")

    @property
    def width_bytes(self) -> int:
        return sum(f.width_bits for f in self.fields) // 8

    def field(self, name: str) -> FieldDef:
        for f in self.fields:
            if f.name == name:
                return f
        raise ConfigurationError(f"header {self.name!r} has no field {name!r}")

    def pack(self, values: Mapping[str, int]) -> bytes:
        """Serialise field values to bytes (big-endian, network order)."""
        if set(values) != {f.name for f in self.fields}:
            raise ConfigurationError(
                f"values {sorted(values)} do not match header {self.name!r} "
                f"fields {[f.name for f in self.fields]}"
            )
        out = bytearray()
        for f in self.fields:
            width = f.width_bits // 8
            value = values[f.name]
            if not 0 <= value < (1 << f.width_bits):
                raise ConfigurationError(
                    f"value {value} does not fit field {f.name!r} "
                    f"({f.width_bits} bits)"
                )
            out += value.to_bytes(width, "big")
        return bytes(out)

    def unpack(self, data: bytes, offset: int = 0) -> dict[str, int]:
        """Extract field values from bytes starting at ``offset``."""
        if offset + self.width_bytes > len(data):
            raise ConfigurationError(
                f"truncated packet: header {self.name!r} needs "
                f"{self.width_bytes} bytes at offset {offset}, "
                f"have {len(data) - offset}"
            )
        values = {}
        pos = offset
        for f in self.fields:
            width = f.width_bits // 8
            values[f.name] = int.from_bytes(data[pos : pos + width], "big")
            pos += width
        return values


@dataclass
class Packet:
    """A packet: an ordered stack of (header name, field values) plus the
    metadata bus and an opaque payload length."""

    headers: list[tuple[str, dict[str, int]]] = field(default_factory=list)
    metadata: dict[str, int] = field(default_factory=dict)
    payload_bytes: int = 0

    def header(self, name: str) -> dict[str, int]:
        for hname, values in self.headers:
            if hname == name:
                return values
        raise ConfigurationError(f"packet has no {name!r} header")

    def has_header(self, name: str) -> bool:
        for hname, _values in self.headers:
            if hname == name:
                return True
        return False

    def push_header(self, name: str, values: Mapping[str, int]) -> None:
        self.headers.append((name, dict(values)))

    def serialize(self, defs: Mapping[str, HeaderDef]) -> bytes:
        """Concatenate all headers' bytes (payload is length-only)."""
        out = bytearray()
        for hname, values in self.headers:
            if hname not in defs:
                raise ConfigurationError(f"no definition for header {hname!r}")
            out += defs[hname].pack(values)
        return bytes(out)

    @property
    def total_bytes(self) -> int:
        """Wire size used by the network simulator (headers are counted by
        the caller's header definitions; metadata is switch-internal)."""
        return self.payload_bytes
