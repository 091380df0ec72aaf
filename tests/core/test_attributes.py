"""Cookie attribute tests."""

import copy
import json
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.attributes import CookieAttributes, Granularity
from repro.core.descriptor import CookieDescriptor
from repro.core.errors import TransportError
from repro.core.generator import CookieGenerator
from repro.core.transport import default_registry
from repro.netsim.appmsg import HTTPRequest, TLSClientHello
from repro.netsim.packet import make_tcp_packet


class TestDefaults:
    def test_flow_granularity_default(self):
        attrs = CookieAttributes()
        assert attrs.granularity is Granularity.FLOW
        assert attrs.apply_reverse

    def test_default_flow_fields_are_five_tuple(self):
        assert set(CookieAttributes().flow_fields) == {
            "src_ip",
            "src_port",
            "dst_ip",
            "dst_port",
            "proto",
        }

    def test_string_granularity_coerced(self):
        attrs = CookieAttributes(granularity="packet")
        assert attrs.granularity is Granularity.PACKET

    @pytest.mark.parametrize("expires_at", [None, 0.0, 4600.5])
    def test_expiring_at_is_the_default_block_with_that_expiry(self, expires_at):
        attrs = CookieAttributes.expiring_at(expires_at)
        expected = CookieAttributes(expires_at=expires_at)
        assert type(attrs) is CookieAttributes and attrs == expected
        assert attrs.to_json() == expected.to_json()
        with pytest.raises(TypeError):
            attrs.extra["tampered"] = True


class TestExpiry:
    def test_no_expiry_never_expires(self):
        assert not CookieAttributes().is_expired(now=1e12)

    def test_expiry_boundary(self):
        attrs = CookieAttributes(expires_at=10.0)
        assert not attrs.is_expired(now=10.0)
        assert attrs.is_expired(now=10.001)


class TestTransports:
    """``transports`` is an attach-side attribute: it is the ``allowed``
    list a client hands the registry when it attaches a cookie."""

    def test_default_allows_all_carriers(self):
        attrs = CookieAttributes()
        assert set(default_registry().names) <= set(attrs.transports)

    def test_restricted_transports(self):
        attrs = CookieAttributes(transports=("http",))
        registry = default_registry()
        cookie = CookieGenerator(
            CookieDescriptor.create(attributes=attrs), clock=lambda: 0.0
        ).generate()
        request = make_tcp_packet(
            "10.0.0.1", 5000, "2.2.2.2", 80, content=HTTPRequest(host="x.com")
        )
        assert registry.attach(request, cookie, allowed=attrs.transports) == "http"
        hello = make_tcp_packet(
            "10.0.0.1", 5001, "2.2.2.2", 443, content=TLSClientHello(sni="x.com")
        )
        with pytest.raises(TransportError):
            registry.attach(hello, cookie, allowed=attrs.transports)


class TestSerialization:
    def test_json_roundtrip(self):
        attrs = CookieAttributes(
            granularity=Granularity.PACKET,
            apply_reverse=False,
            shared=True,
            ack_cookie=True,
            delivery_guarantee=True,
            transports=("http", "tls"),
            expires_at=99.5,
            extra={"region": "us-west"},
        )
        recovered = CookieAttributes.from_json(attrs.to_json())
        assert recovered == attrs

    def test_unknown_keys_land_in_extra(self):
        recovered = CookieAttributes.from_json({"mystery": 7})
        assert recovered.extra["mystery"] == 7

    def test_empty_json_gives_defaults(self):
        assert CookieAttributes.from_json({}) == CookieAttributes()

    @given(
        shared=st.booleans(),
        ack=st.booleans(),
        guarantee=st.booleans(),
        expires=st.one_of(st.none(), st.floats(0, 1e9, allow_nan=False)),
    )
    def test_roundtrip_property(self, shared, ack, guarantee, expires):
        attrs = CookieAttributes(
            shared=shared,
            ack_cookie=ack,
            delivery_guarantee=guarantee,
            expires_at=expires,
        )
        assert CookieAttributes.from_json(attrs.to_json()) == attrs


_scalars = st.one_of(st.integers(-5, 5), st.text(max_size=4), st.booleans())
_constraints = st.dictionaries(st.sampled_from(["ssid", "region", "domain"]), _scalars)
_contexts = _constraints

#: Constructor arguments, in the loose forms callers use (a string for
#: the granularity, lists for the tuples, any mapping for ``extra``).
block_kwargs = st.fixed_dictionaries(
    {},
    optional={
        "granularity": st.sampled_from(["flow", "packet", *Granularity]),
        "flow_fields": st.lists(st.sampled_from(["src_ip", "dst_ip", "proto"])),
        "apply_reverse": st.booleans(),
        "shared": st.booleans(),
        "ack_cookie": st.booleans(),
        "delivery_guarantee": st.booleans(),
        "transports": st.lists(st.sampled_from(["http", "tls", "udp"])),
        "expires_at": st.one_of(st.none(), st.floats(0, 1e9, allow_nan=False)),
        "extra": st.fixed_dictionaries(
            {},
            optional={
                "constraints": st.one_of(_constraints, _scalars),
                "region": _scalars,
            },
        ),
    },
)


@pytest.mark.contract
class TestWrittenOnce:
    """A block never changes after construction, so holders share it."""

    #: ``to_json`` output at the commit before blocks became immutable:
    #: defaults; every field set; unknown keys folded into ``extra``.
    PINNED = (
        (
            CookieAttributes(),
            '{"granularity": "flow", "flow_fields": ["src_ip", "src_port",'
            ' "dst_ip", "dst_port", "proto"], "apply_reverse": true,'
            ' "shared": false, "ack_cookie": false, "delivery_guarantee":'
            ' false, "transports": ["http", "tls", "ipv6", "tcp", "udp"],'
            ' "expires_at": null, "extra": {}}',
        ),
        (
            CookieAttributes(
                granularity="packet",
                flow_fields=["src_ip", "dst_ip"],
                apply_reverse=False,
                shared=True,
                ack_cookie=True,
                delivery_guarantee=True,
                transports=["tls"],
                expires_at=1234.5,
                extra={"region": "us-west", "constraints": {"ssid": "home"}},
            ),
            '{"granularity": "packet", "flow_fields": ["src_ip", "dst_ip"],'
            ' "apply_reverse": false, "shared": true, "ack_cookie": true,'
            ' "delivery_guarantee": true, "transports": ["tls"],'
            ' "expires_at": 1234.5, "extra": {"region": "us-west",'
            ' "constraints": {"ssid": "home"}}}',
        ),
        (
            CookieAttributes.from_json(
                {"mystery": 7, "extra": {"zeta": 1}, "shared": 1, "alpha": [1, 2]}
            ),
            '{"granularity": "flow", "flow_fields": ["src_ip", "src_port",'
            ' "dst_ip", "dst_port", "proto"], "apply_reverse": true,'
            ' "shared": true, "ack_cookie": false, "delivery_guarantee":'
            ' false, "transports": ["http", "tls", "ipv6", "tcp", "udp"],'
            ' "expires_at": null, "extra": {"zeta": 1, "mystery": 7,'
            ' "alpha": [1, 2]}}',
        ),
    )

    def test_to_json_documents_are_pinned(self):
        for block, document in self.PINNED:
            assert json.dumps(block.to_json()) == document
            assert type(block.to_json()["extra"]) is dict

    # Generating three nested blocks is what is slow on a loaded box,
    # not the assertions.
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(kwargs=block_kwargs, other=block_kwargs, context=_contexts)
    def test_block_is_immutable_and_behaves_as_before(self, kwargs, other, context):
        block = CookieAttributes(**kwargs)
        # Normalised at construction, whatever form the caller used.
        assert type(block.granularity) is Granularity
        assert type(block.flow_fields) is type(block.transports) is tuple
        assert CookieAttributes.from_json(block.to_json()) == block
        assert json.loads(json.dumps(block.to_json())) == block.to_json()
        assert pickle.loads(pickle.dumps(block)) == copy.deepcopy(block) == block
        # Equality is field by field, as the dataclass's was.
        assert block == CookieAttributes(**kwargs)
        twin = CookieAttributes(**other)
        assert (block == twin) == (block.to_json() == twin.to_json())
        # Constraints fail closed on a key the context lacks.
        wanted = kwargs.get("extra", {}).get("constraints")
        wanted = wanted if isinstance(wanted, dict) else {}
        assert block.constraints == wanted
        assert block.matches_context(context) == all(
            key in context and context[key] == value
            for key, value in wanted.items()
        )
        # Written once: no field can be assigned, ``extra`` takes no
        # item, and the caller's own dict is not a way in either.
        for name in block._fields:
            with pytest.raises(AttributeError):
                setattr(block, name, getattr(block, name))
        with pytest.raises(TypeError):
            block.extra["k"] = 1
        if "extra" in kwargs:
            kwargs["extra"]["smuggled"] = True
            assert "smuggled" not in block.extra
        assert not hasattr(block, "__dict__")

    def test_descriptors_without_a_block_share_the_default(self):
        first = CookieDescriptor(1, b"k").attributes
        assert first is CookieDescriptor(2, b"k").attributes
        assert first is CookieDescriptor.create().attributes
        assert first == CookieAttributes() and first.extra == {}
