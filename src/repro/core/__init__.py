"""Network cookies: the paper's primary contribution.

Control plane: :class:`CookieServer` advertises services and issues
:class:`CookieDescriptor` objects under a pluggable :class:`AccessPolicy`,
with every grant recorded in an :class:`AuditLog`.  Clients
(:class:`UserAgent`) acquire descriptors out-of-band and locally mint
single-use, HMAC-signed :class:`Cookie` tokens.

Data plane: cookies ride in-band over any registered transport
(HTTP header, TLS extension, IPv6 extension header, TCP option, UDP shim);
a :class:`CookieSwitch` verifies them (signature, coherency time, replay)
via :class:`CookieMatcher` and binds flows to services.
"""

from .attributes import CookieAttributes, Granularity
from ..audit.log import AuditEvent, AuditLog, AuditRecord
from .client import AgentStats, UserAgent
from .cookie import (
    COOKIE_WIRE_BYTES,
    SIGNATURE_BYTES,
    UUID_BYTES,
    Cookie,
    sign_cookie_fields,
    SignerCache,
)
from .delegation import DelegatedParty, delegate_descriptor, make_ack_cookie
from .descriptor import COOKIE_ID_BITS, CookieDescriptor
from .distributed import (
    NaiveVerifierPool,
    PoolStats,
    ShardedVerifierPool,
    rendezvous_shard,
)
from .errors import (
    AcquisitionDenied,
    ChannelUnavailable,
    CookieError,
    DelegationError,
    DescriptorExpired,
    DescriptorRevoked,
    InvalidSignature,
    MalformedCookie,
    ReplayDetected,
    StaleTimestamp,
    TransportError,
    UnknownDescriptor,
)
from .generator import CookieGenerator
from .resilience import (
    CircuitBreaker,
    ResilientChannel,
    RetryPolicy,
)
from .matcher import (
    NETWORK_COHERENCY_TIME,
    CookieMatcher,
    MatchStats,
    ReplayCache,
)
from .netserver import (
    AsyncCookieServer,
    CookieClient,
    JsonLineServer,
    request_over_tcp,
)
from .cp import (
    AsyncControlPlaneServer,
    ControlPlaneShard,
    DeltaLog,
    DeltaRecord,
    LogTruncated,
    ReplicaUnreachable,
    ShardedControlPlane,
    StoreSnapshot,
    VerifierReplica,
)
from .offload import HardwarePrefilter, PrefilterStats
from .policy import (
    AccessPolicy,
    AcquisitionRequest,
    AllOfPolicy,
    AuthenticatedUsersPolicy,
    OpenAccessPolicy,
    PrepaidPolicy,
    QuotaPolicy,
    ServiceWhitelistPolicy,
)
from .seeding import derive_seed
from .server import CookieServer, ServiceOffering
from .sweep import (
    SweepCell,
    SweepError,
    SweepStats,
    run_sweep,
)
from .store import DescriptorStore, SQLiteDescriptorStore
from .switch import (
    FAST_LANE_CLASS,
    CookieSwitch,
    DscpServiceApplier,
    SwitchStats,
)
from .transport import TransportRegistry, default_registry

__all__ = [
    "CookieAttributes",
    "Granularity",
    "AuditEvent",
    "AuditLog",
    "AuditRecord",
    "AgentStats",
    "UserAgent",
    "COOKIE_WIRE_BYTES",
    "SIGNATURE_BYTES",
    "UUID_BYTES",
    "Cookie",
    "sign_cookie_fields",
    "SignerCache",
    "DelegatedParty",
    "delegate_descriptor",
    "make_ack_cookie",
    "COOKIE_ID_BITS",
    "CookieDescriptor",
    "NaiveVerifierPool",
    "PoolStats",
    "ShardedVerifierPool",
    "rendezvous_shard",
    "AcquisitionDenied",
    "ChannelUnavailable",
    "CookieError",
    "DelegationError",
    "DescriptorExpired",
    "DescriptorRevoked",
    "InvalidSignature",
    "MalformedCookie",
    "ReplayDetected",
    "StaleTimestamp",
    "TransportError",
    "UnknownDescriptor",
    "CookieGenerator",
    "CircuitBreaker",
    "ResilientChannel",
    "RetryPolicy",
    "NETWORK_COHERENCY_TIME",
    "CookieMatcher",
    "MatchStats",
    "ReplayCache",
    "AsyncCookieServer",
    "CookieClient",
    "JsonLineServer",
    "request_over_tcp",
    "AsyncControlPlaneServer",
    "ControlPlaneShard",
    "DeltaLog",
    "DeltaRecord",
    "LogTruncated",
    "ReplicaUnreachable",
    "ShardedControlPlane",
    "StoreSnapshot",
    "VerifierReplica",
    "HardwarePrefilter",
    "PrefilterStats",
    "AccessPolicy",
    "AcquisitionRequest",
    "AllOfPolicy",
    "AuthenticatedUsersPolicy",
    "OpenAccessPolicy",
    "PrepaidPolicy",
    "QuotaPolicy",
    "ServiceWhitelistPolicy",
    "derive_seed",
    "CookieServer",
    "ServiceOffering",
    "SweepCell",
    "SweepError",
    "SweepStats",
    "run_sweep",
    "DescriptorStore",
    "SQLiteDescriptorStore",
    "FAST_LANE_CLASS",
    "CookieSwitch",
    "DscpServiceApplier",
    "SwitchStats",
    "TransportRegistry",
    "default_registry",
]
