"""Discrete-event network substrate: simulator clock, links, traces."""

from .link import Link, LinkStats
from .packet import IP_UDP_OVERHEAD_BYTES, Packet, packet_for_bytes
from .simulator import EventHandle, PeriodicTask, Simulator
from .trace import BandwidthStep, BandwidthTrace

__all__ = [
    "BandwidthStep",
    "BandwidthTrace",
    "EventHandle",
    "IP_UDP_OVERHEAD_BYTES",
    "Link",
    "LinkStats",
    "Packet",
    "PeriodicTask",
    "Simulator",
    "packet_for_bytes",
]
