"""Packet-level network substrate.

This package provides everything below the cookie layer: protocol headers,
packets, flows and flow tables, a deterministic discrete-event kernel,
queueing disciplines, rate-limited links, NAT, a Click-style element
pipeline, a compact TCP model, and canonical topologies.
"""

from .capture import CaptureRecord, PacketCapture
from .events import EventLoop, ScheduledEvent, SimulationError
from .faults import (
    DiskFaultInjector,
    DiskFaultPlan,
    FaultInjector,
    FaultPlan,
    FaultStats,
    SkewedClock,
    TornWrite,
)
from .flow import Flow, FlowTable
from .headers import (
    DSCP_MAX,
    EthernetHeader,
    EtherType,
    HeaderError,
    IPProto,
    IPv4Header,
    IPv6ExtensionHeader,
    IPv6Header,
    TCPHeader,
    TCPOption,
    UDPHeader,
)
from .links import Link
from .middlebox import (
    BatchDriver,
    Classifier,
    Counter,
    Element,
    Filter,
    FunctionElement,
    Pipeline,
    ShaperElement,
    Sink,
    Tap,
)
from .nat import NAT44, NatError, NatMapping
from .packet import Packet, Payload, make_tcp_packet, make_udp_packet
from .queues import (
    DropTailQueue,
    QueueStats,
    StrictPriorityScheduler,
    TokenBucket,
    WeightedScheduler,
    WMMScheduler,
    WMM_ACCESS_CATEGORIES,
)
from .tcpmodel import CbrSource, OnOffSource, TcpTransfer, TransferEndpoint
from .topology import HomeNetwork, HomeNetworkConfig

__all__ = [
    "CaptureRecord",
    "PacketCapture",
    "EventLoop",
    "DiskFaultInjector",
    "DiskFaultPlan",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "SkewedClock",
    "TornWrite",
    "ScheduledEvent",
    "SimulationError",
    "Flow",
    "FlowTable",
    "DSCP_MAX",
    "EthernetHeader",
    "EtherType",
    "HeaderError",
    "IPProto",
    "IPv4Header",
    "IPv6ExtensionHeader",
    "IPv6Header",
    "TCPHeader",
    "TCPOption",
    "UDPHeader",
    "Link",
    "Classifier",
    "Counter",
    "BatchDriver",
    "Element",
    "Filter",
    "FunctionElement",
    "Pipeline",
    "ShaperElement",
    "Sink",
    "Tap",
    "NAT44",
    "NatError",
    "NatMapping",
    "Packet",
    "Payload",
    "make_tcp_packet",
    "make_udp_packet",
    "DropTailQueue",
    "QueueStats",
    "StrictPriorityScheduler",
    "TokenBucket",
    "WeightedScheduler",
    "WMMScheduler",
    "WMM_ACCESS_CATEGORIES",
    "CbrSource",
    "OnOffSource",
    "TcpTransfer",
    "TransferEndpoint",
    "HomeNetwork",
    "HomeNetworkConfig",
]
